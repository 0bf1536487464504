//! Per-benchmark gated-threshold optimisation.
//!
//! The paper evaluates gated precharging with "the statically-found
//! per-benchmark optimum thresholds with a 1% performance degradation"
//! (Section 6.4). This module reproduces that search in two steps:
//! [`sweep`] runs a benchmark's candidate specs once, and [`pick_at`]
//! prices every candidate at a node and chooses with `pick`, the one
//! statement of the rule. A figure that tunes each node (Figure 9) or
//! subarray size (Figure 10) picks again from its own candidates there.

use bitline_cmos::TechnologyNode;

use crate::{try_run_benchmark_cached, EnergyPair, PolicyKind, RunResult, SimError, SystemSpec};

/// Threshold ladder swept for the per-benchmark optimum. The paper's
/// optima are "on the order of 10 to 1000, with most clustered around 100".
pub const THRESHOLDS: [u64; 7] = [25, 50, 100, 200, 400, 800, 1600];

/// The ladder's index of the paper's constant threshold, 100.
pub(super) const THRESHOLD_100: usize = 2;
const _: () = assert!(THRESHOLDS[THRESHOLD_100] == 100, "THRESHOLD_100 must name threshold 100");

/// Performance budget: the paper tunes for a 1% slowdown.
pub const MAX_SLOWDOWN: f64 = 0.01;

/// One candidate of a sweep: its run and the run's slowdown against the
/// sweep's static baseline.
pub(super) struct Candidate {
    pub(super) run: RunResult,
    pub(super) slowdown: f64,
}

/// The candidate [`pick_at`] chose, priced at the node it chose at.
pub(super) struct Picked<'a> {
    /// Its position among the candidates.
    pub(super) index: usize,
    pub(super) candidate: &'a Candidate,
    /// Its `(policy, baseline)` energies.
    pub(super) energy: EnergyPair,
    /// Its cost.
    pub(super) cost: f64,
}

/// `spec` with the D-cache gated, with predecode hints (Section 6.3), at
/// each [`THRESHOLDS`] point.
pub(super) fn gated_d(spec: SystemSpec) -> [SystemSpec; THRESHOLDS.len()] {
    THRESHOLDS
        .map(|threshold| SystemSpec { d_policy: PolicyKind::GatedPredecode { threshold }, ..spec })
}

/// `spec` with the I-cache gated at each [`THRESHOLDS`] point.
pub(super) fn gated_i(spec: SystemSpec) -> [SystemSpec; THRESHOLDS.len()] {
    THRESHOLDS.map(|threshold| SystemSpec { i_policy: PolicyKind::Gated { threshold }, ..spec })
}

/// Runs `specs` on `benchmark`, in order, keeping each run with its
/// slowdown against `baseline`.
///
/// # Errors
///
/// The first [`SimError`] of a run: a failed candidate fails the sweep,
/// and with it the benchmark's unit of work.
pub(super) fn sweep(
    benchmark: &str,
    baseline: &RunResult,
    specs: &[SystemSpec],
) -> Result<Vec<Candidate>, SimError> {
    let _span = bitline_obs::span("sweep/sweep")
        .field("benchmark", benchmark)
        .field("candidates", specs.len());
    specs
        .iter()
        .map(|spec| {
            let run = try_run_benchmark_cached(benchmark, spec)?;
            let slowdown = run.slowdown_vs(baseline);
            Ok(Candidate { run, slowdown })
        })
        .collect()
}

/// Prices every candidate at `node` and chooses by `pick` on `cost`.
///
/// # Panics
///
/// Panics when `candidates` is empty.
pub(super) fn pick_at(
    candidates: &[Candidate],
    node: TechnologyNode,
    cost: impl Fn(&EnergyPair) -> f64,
) -> Picked<'_> {
    let priced = candidates.iter().enumerate().map(|(index, candidate)| {
        let energy = candidate.run.energy(node);
        Picked { index, candidate, cost: cost(&energy), energy }
    });
    pick(priced, |p| p.candidate.slowdown, |p| p.cost)
}

/// The D-cache's bitline discharge relative to static pull-up: a
/// [`pick_at`] cost.
pub(super) fn d_discharge((policy, baseline): &EnergyPair) -> f64 {
    policy.d.relative_discharge(&baseline.d)
}

/// The I-cache's bitline discharge relative to static pull-up: a
/// [`pick_at`] cost.
pub(super) fn i_discharge((policy, baseline): &EnergyPair) -> f64 {
    policy.i.relative_discharge(&baseline.i)
}

/// The Section 6.4 selection: the candidate of least `cost` among those
/// whose `slowdown` is within [`MAX_SLOWDOWN`]; when none is, the
/// least-slowing candidate (matching how an aggressive profile-based
/// tuner would back off). Ties go to the earlier candidate.
///
/// # Panics
///
/// Panics when `candidates` is empty.
fn pick<T>(
    candidates: impl IntoIterator<Item = T>,
    slowdown: impl Fn(&T) -> f64,
    cost: impl Fn(&T) -> f64,
) -> T {
    let mut within: Option<(f64, T)> = None;
    let mut fallback: Option<(f64, T)> = None;
    for candidate in candidates {
        let s = slowdown(&candidate);
        let (best, key) =
            if s <= MAX_SLOWDOWN { (&mut within, cost(&candidate)) } else { (&mut fallback, s) };
        if best.as_ref().is_none_or(|(k, _)| key < *k) {
            *best = Some((key, candidate));
        }
    }
    within.or(fallback).expect("a selection needs at least one candidate").1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_respects_the_slowdown_budget_when_possible() {
        let spec = SystemSpec { instructions: 6_000, ..SystemSpec::default() };
        let baseline = try_run_benchmark_cached("mesa", &spec).expect("baseline completes");
        let ladder = sweep("mesa", &baseline, &gated_i(spec)).expect("sweep completes");
        let best = pick_at(&ladder, TechnologyNode::N70, i_discharge);
        assert!(best.cost < 1.0, "must save something");
        assert!(
            matches!(best.candidate.run.spec.i_policy,
                PolicyKind::Gated { threshold } if threshold == THRESHOLDS[best.index]),
            "the pick's index names its run's threshold"
        );
        assert!(
            best.candidate.slowdown <= MAX_SLOWDOWN
                || ladder.iter().all(|c| c.slowdown > MAX_SLOWDOWN),
            "slowdown {} over budget with a candidate within it",
            best.candidate.slowdown
        );
    }

    #[test]
    fn pick_prefers_least_cost_within_budget_else_least_slowdown() {
        let over = MAX_SLOWDOWN * 2.0;
        // (name, slowdown, cost)
        let pick_of = |c: &[(&'static str, f64, f64)]| pick(c.iter().copied(), |c| c.1, |c| c.2).0;
        // Least cost among the candidates within budget, even when an
        // over-budget one costs less.
        assert_eq!(pick_of(&[("a", 0.0, 0.5), ("b", over, 0.1), ("c", MAX_SLOWDOWN, 0.3)]), "c");
        // Nothing within budget: the least-slowing candidate, whatever it costs.
        assert_eq!(
            pick_of(&[("a", over * 2.0, 0.1), ("b", over, 0.9), ("c", over * 3.0, 0.0)]),
            "b"
        );
        // Ties go to the earlier candidate, on either rule.
        assert_eq!(pick_of(&[("a", 0.0, 0.2), ("b", 0.0, 0.2)]), "a");
        assert_eq!(pick_of(&[("a", over, 0.2), ("b", over, 0.1)]), "a");
    }
}
