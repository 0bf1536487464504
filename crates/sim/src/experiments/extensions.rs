//! Extensions beyond the paper: the precharge policies it argues against
//! or leaves open, and the Alpha 21164's on-demand L2.
//!
//! The D-cache half runs four policies on every benchmark at 70 nm: the
//! paper's constant threshold (`gated-predecode:100`), the profiled
//! per-benchmark optimum that Figure 8 picks, the adaptive threshold
//! controller (Section 6.2 leaves threshold selection open) and drowsy
//! subarrays (\[13\]), which cut cell leakage but keep every bitline pulled
//! up. The L2 half sets on-demand precharging in a two-level machine's L2
//! against a statically pulled-up L2 (Section 2: the 21164 hid the pull-up
//! under its long L2 access), priced at every node.

use std::fmt::Write as _;

use bitline_cmos::TechnologyNode;
use bitline_energy::LeakageKind;

use crate::config::HierarchySpec;
use crate::experiments::harness;
use crate::experiments::sweep::{d_discharge, gated_d, pick_at, sweep, THRESHOLD_100};
use crate::runner::{Level, RunResult};
use crate::{try_run_benchmark_cached, PolicyKind, SimError, SystemSpec};

/// The D-cache policies, in row order.
pub const POLICIES: [&str; 4] = ["const-100", "profiled", "adaptive", "drowsy"];

/// The adaptive controller's interval at a budget: one thirtieth of the
/// instructions, so a run sees about as many adaptation intervals at any
/// budget as the 2 000-access default does at 60 000 instructions.
fn adaptive_interval(instrs: u64) -> u64 {
    (instrs / 30).max(1)
}

/// One D-cache policy on one benchmark (or the suite `AVG`) at 70 nm.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Benchmark name, or `AVG`.
    pub benchmark: String,
    /// One of [`POLICIES`].
    pub policy: &'static str,
    /// D-cache bitline discharge relative to static pull-up.
    pub d_discharge: f64,
    /// D-cache total energy relative to static pull-up.
    pub d_total: f64,
    /// Fraction of D-cache accesses delayed by a pull-up or a wake-up.
    pub d_delayed: f64,
    /// Slowdown against the static machine.
    pub slowdown: f64,
}

/// The on-demand L2 against the static L2 at one node, over the suite.
#[derive(Debug, Clone, Copy)]
pub struct L2Row {
    /// Technology node the L2 is priced at.
    pub node: TechnologyNode,
    /// Suite-total L2 energy with a statically pulled-up L2, in joules.
    pub static_j: f64,
    /// Suite-total L2 energy with on-demand L2 precharging, in joules.
    pub ondemand_j: f64,
    /// `ondemand_j / static_j`.
    pub ratio: f64,
    /// Mean slowdown of the on-demand L2 machine against the static one.
    pub slowdown: f64,
}

/// Both halves of the experiment.
#[derive(Debug, Clone)]
pub struct Extensions {
    /// Per benchmark, the four [`POLICIES`]; then their suite averages.
    pub policies: Vec<PolicyRow>,
    /// One row per node, oldest first.
    pub l2: Vec<L2Row>,
}

fn policy_rows(name: &str, instrs: u64) -> Result<Vec<PolicyRow>, SimError> {
    let node = TechnologyNode::N70;
    let spec = SystemSpec { instructions: instrs, ..SystemSpec::default() };
    let baseline = try_run_benchmark_cached(name, &spec)?;
    let ladder = sweep(name, &baseline, &gated_d(spec))?;
    let profiled = &pick_at(&ladder, node, d_discharge).candidate.run;
    let constant = &ladder[THRESHOLD_100].run;
    let policy = |d_policy| SystemSpec { d_policy, ..spec };
    let adaptive = try_run_benchmark_cached(
        name,
        &policy(PolicyKind::AdaptiveGated { interval_accesses: adaptive_interval(instrs) }),
    )?;
    let drowsy = try_run_benchmark_cached(name, &policy(PolicyKind::Drowsy { threshold: 100 }))?;
    let runs: [&RunResult; 4] = [constant, profiled, &adaptive, &drowsy];
    Ok(POLICIES
        .iter()
        .zip(runs)
        .map(|(&policy, run)| {
            let (priced, base) = run.energy(node);
            PolicyRow {
                benchmark: name.to_owned(),
                policy,
                d_discharge: priced.d.relative_discharge(&base.d),
                d_total: priced.d.total_j() / base.d.total_j(),
                d_delayed: run.l1d().report.delayed_fraction(),
                slowdown: run.slowdown_vs(&baseline),
            }
        })
        .collect())
}

/// L2 energy of the two-level `run` at `node`.
fn l2_energy(run: &RunResult, node: TechnologyNode) -> f64 {
    run.level_energy(Level::L2, node, LeakageKind::FullVdd)
        .expect("a two-level run records its L2")
        .total_j()
}

/// Runs both halves over the suite.
///
/// # Errors
///
/// The first skipped run's [`SimError`] when every benchmark failed.
pub fn run(instrs: u64) -> Result<Extensions, SimError> {
    let _span = bitline_obs::span("extensions/run").field("instrs", instrs);
    let l2_spec = |l2_policy| SystemSpec {
        instructions: instrs,
        hierarchy: HierarchySpec { levels: 2, l2_policy, leakage_mode: LeakageKind::FullVdd },
        ..SystemSpec::default()
    };
    // A unit returns its benchmark's four policy rows, its L2 energy at
    // each node with the static and the on-demand L2, and the on-demand
    // L2's slowdown.
    let units = harness::map_suite("extensions", |name| {
        let rows = policy_rows(name, instrs)?;
        let stat = try_run_benchmark_cached(name, &l2_spec(PolicyKind::StaticPullUp))?;
        let ondemand = try_run_benchmark_cached(name, &l2_spec(PolicyKind::OnDemand))?;
        let l2 =
            TechnologyNode::ALL.map(|node| (l2_energy(&stat, node), l2_energy(&ondemand, node)));
        Ok((rows, l2, ondemand.slowdown_vs(&stat)))
    })?;

    // Summed in suite order.
    let n = units.len() as f64;
    let slowdown = units.iter().map(|(.., slowdown)| slowdown).sum::<f64>() / n;
    let l2 = TechnologyNode::ALL
        .into_iter()
        .enumerate()
        .map(|(k, node)| {
            let static_j = units.iter().map(|(_, l2, _)| l2[k].0).sum::<f64>();
            let ondemand_j = units.iter().map(|(_, l2, _)| l2[k].1).sum::<f64>();
            L2Row { node, static_j, ondemand_j, ratio: ondemand_j / static_j, slowdown }
        })
        .collect();

    let mut policies: Vec<PolicyRow> = units.into_iter().flat_map(|(rows, ..)| rows).collect();
    let averages: Vec<PolicyRow> = POLICIES
        .iter()
        .map(|&policy| {
            let mean = |f: fn(&PolicyRow) -> f64| {
                policies.iter().filter(|r| r.policy == policy).map(f).sum::<f64>() / n
            };
            PolicyRow {
                benchmark: "AVG".into(),
                policy,
                d_discharge: mean(|r| r.d_discharge),
                d_total: mean(|r| r.d_total),
                d_delayed: mean(|r| r.d_delayed),
                slowdown: mean(|r| r.slowdown),
            }
        })
        .collect();
    policies.extend(averages);
    Ok(Extensions { policies, l2 })
}

/// Renders both tables: `policy  benchmark  name  d_discharge  d_total
/// d_delayed  slowdown` rows, per benchmark and then `AVG`; and `l2
/// feature_nm  static_j  ondemand_j  ratio  slowdown` rows, one per node.
#[must_use]
pub fn render(ext: &Extensions) -> String {
    let mut out = String::from(
        "# policy  benchmark  name  d_discharge  d_total  d_delayed  slowdown  (D-cache, 70nm)\n",
    );
    for r in &ext.policies {
        let _ = writeln!(
            out,
            "policy {} {} {:.5} {:.5} {:.5} {:.5}",
            r.benchmark, r.policy, r.d_discharge, r.d_total, r.d_delayed, r.slowdown
        );
    }
    out.push_str(
        "# l2  feature_nm  static_j  ondemand_j  ratio  slowdown  (two levels, on-demand L2)\n",
    );
    for r in &ext.l2 {
        let _ = writeln!(
            out,
            "l2 {} {:.6e} {:.6e} {:.5} {:.5}",
            r.node.feature_nm(),
            r.static_j,
            r.ondemand_j,
            r.ratio,
            r.slowdown
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_claims_design_makes_hold() {
        let ext = run(5_000).expect("extensions completes");
        assert_eq!(ext.policies.len(), 17 * POLICIES.len(), "16 benchmarks and AVG");
        let avg = |policy| {
            ext.policies
                .iter()
                .find(|r| r.benchmark == "AVG" && r.policy == policy)
                .expect("an AVG row per policy")
        };
        let constant = avg("const-100");
        let profiled = avg("profiled");
        // The controller needs no profiling run, yet lands between the
        // constant threshold and the profiled optimum.
        let adaptive = avg("adaptive").d_discharge;
        assert!(
            profiled.d_discharge < adaptive && adaptive < constant.d_discharge,
            "adaptive {adaptive} vs profiled {} and const-100 {}",
            profiled.d_discharge,
            constant.d_discharge
        );
        // Drowsy subarrays keep every bitline pulled up: they cut cell
        // leakage, which saves less than gating the bitlines at 70 nm.
        for r in ext.policies.iter().filter(|r| r.policy == "drowsy") {
            assert_eq!(r.d_discharge, 1.0, "{}", r.benchmark);
        }
        let drowsy = avg("drowsy").d_total;
        assert!(constant.d_total < drowsy && drowsy < 1.0, "drowsy D total {drowsy}");
        // The 21164's on-demand L2 pays off at every node, 180 nm included,
        // for a slowdown under 1%.
        assert_eq!(ext.l2.len(), TechnologyNode::ALL.len());
        for r in &ext.l2 {
            assert!(r.ratio < 1.0, "{}: on-demand L2 ratio {}", r.node, r.ratio);
            assert!((0.0..0.01).contains(&r.slowdown), "on-demand L2 slowdown {}", r.slowdown);
        }
    }
}
