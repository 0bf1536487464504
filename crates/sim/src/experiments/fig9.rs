//! Figure 9: gated precharging vs. resizable caches across technology
//! nodes.
//!
//! The architectural runs are node-independent (8-FO4 scaling), so each
//! benchmark is simulated once per candidate configuration and the energy
//! is re-priced per node; the per-benchmark "as aggressive as possible
//! within 1% slowdown" selection (`sweep::pick`) is then made
//! independently at every node, exactly as the paper tunes each point.

use std::fmt::Write as _;

use bitline_cmos::TechnologyNode;

use crate::experiments::harness;
use crate::experiments::sweep::{pick, THRESHOLDS};
use crate::{try_run_benchmark_cached, PolicyKind, RunResult, SimError, SystemSpec};

/// Average relative bitline discharge at one node.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Row {
    /// Technology node.
    pub node: TechnologyNode,
    /// Gated precharging, D-cache.
    pub gated_d: f64,
    /// Gated precharging, I-cache.
    pub gated_i: f64,
    /// Resizable cache, D-cache.
    pub resizable_d: f64,
    /// Resizable cache, I-cache.
    pub resizable_i: f64,
}

/// Miss-ratio slack candidates for the resizable controller.
const SLACKS: [f64; 3] = [0.002, 0.01, 0.03];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Cache {
    D,
    I,
}

/// Candidate runs for one benchmark and one cache.
struct Candidates {
    runs: Vec<(RunResult, f64)>, // (run, slowdown)
}

impl Candidates {
    /// The runs of `policies` on `cache` of benchmark `name`, each with its
    /// slowdown against `baseline`.
    fn simulate(
        name: &str,
        cache: Cache,
        policies: impl IntoIterator<Item = PolicyKind>,
        baseline: &RunResult,
        instrs: u64,
    ) -> Result<Candidates, SimError> {
        let spec = SystemSpec { instructions: instrs, ..SystemSpec::default() };
        let runs = policies
            .into_iter()
            .map(|policy| {
                let spec = match cache {
                    Cache::D => SystemSpec { d_policy: policy, ..spec },
                    Cache::I => SystemSpec { i_policy: policy, ..spec },
                };
                let run = try_run_benchmark_cached(name, &spec)?;
                let slowdown = run.slowdown_vs(baseline);
                Ok((run, slowdown))
            })
            .collect::<Result<_, SimError>>()?;
        Ok(Candidates { runs })
    }

    /// The relative discharge at `node` of the candidate [`pick`] chooses.
    fn best_at(&self, node: TechnologyNode, cache: Cache) -> f64 {
        let priced = self.runs.iter().map(|(run, slowdown)| {
            let (policy, baseline) = run.energy(node);
            let relative = match cache {
                Cache::D => policy.d.relative_discharge(&baseline.d),
                Cache::I => policy.i.relative_discharge(&baseline.i),
            };
            (*slowdown, relative)
        });
        pick(priced, |c| c.0, |c| c.1).1
    }
}

/// Reproduces Figure 9: suite-average relative bitline discharge for gated
/// precharging and resizable caches at each node.
///
/// # Errors
///
/// The first skipped run's [`SimError`] when *every* benchmark failed;
/// partial suites degrade to averages over fewer benchmarks with a stderr
/// warning.
pub fn run(instrs: u64) -> Result<Vec<Fig9Row>, SimError> {
    let _span = bitline_obs::span("fig9/run").field("instrs", instrs);
    // Architectural runs, once per benchmark.
    struct PerBenchmark {
        gated_d: Candidates,
        gated_i: Candidates,
        resz_d: Candidates,
        resz_i: Candidates,
    }
    let per_benchmark = harness::map_suite("fig9", |name| {
        let baseline = try_run_benchmark_cached(
            name,
            &SystemSpec { instructions: instrs, ..SystemSpec::default() },
        )?;
        let gated = |cache| {
            let policy = |threshold| match cache {
                Cache::D => PolicyKind::GatedPredecode { threshold },
                Cache::I => PolicyKind::Gated { threshold },
            };
            Candidates::simulate(name, cache, THRESHOLDS.map(policy), &baseline, instrs)
        };
        // Scaled so short runs still give the resizable controller ~30-40
        // decision points (the paper's 1M-instruction interval assumes
        // SimPoint-length runs).
        let interval_accesses = (instrs / 40).max(400);
        let resizable = |cache| {
            let policy = |slack| PolicyKind::Resizable { interval_accesses, slack };
            Candidates::simulate(name, cache, SLACKS.map(policy), &baseline, instrs)
        };
        Ok(PerBenchmark {
            gated_d: gated(Cache::D)?,
            gated_i: gated(Cache::I)?,
            resz_d: resizable(Cache::D)?,
            resz_i: resizable(Cache::I)?,
        })
    })?;

    // Per-node selection and averaging.
    Ok(TechnologyNode::ALL
        .into_iter()
        .map(|node| {
            let n = per_benchmark.len() as f64;
            let avg =
                |f: &dyn Fn(&PerBenchmark) -> f64| per_benchmark.iter().map(f).sum::<f64>() / n;
            Fig9Row {
                node,
                gated_d: avg(&|b| b.gated_d.best_at(node, Cache::D)),
                gated_i: avg(&|b| b.gated_i.best_at(node, Cache::I)),
                resizable_d: avg(&|b| b.resz_d.best_at(node, Cache::D)),
                resizable_i: avg(&|b| b.resz_i.best_at(node, Cache::I)),
            }
        })
        .collect())
}

/// Renders the figure: `feature_nm  gated_d  gated_i  resizable_d
/// resizable_i` per node.
#[must_use]
pub fn render(rows: &[Fig9Row]) -> String {
    let mut out = String::from("# feature_nm  gated_d  gated_i  resizable_d  resizable_i\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{} {:.5} {:.5} {:.5} {:.5}",
            r.node.feature_nm(),
            r.gated_d,
            r.gated_i,
            r.resizable_d,
            r.resizable_i
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gated_improves_with_scaling_and_wins_at_70nm() {
        let rows = run(5_000).expect("fig9 completes");
        assert_eq!(rows.len(), 4);
        let n180 = rows[0];
        let n70 = rows[3];
        // Gated gets monotonically better towards 70 nm...
        assert!(
            n70.gated_d < n180.gated_d,
            "gated D: {:.3} at 180 nm vs {:.3} at 70 nm",
            n180.gated_d,
            n70.gated_d
        );
        // ...and clearly beats resizable there.
        assert!(
            n70.gated_d < n70.resizable_d,
            "at 70 nm gated D {:.3} must beat resizable D {:.3}",
            n70.gated_d,
            n70.resizable_d
        );
        // Resizable is comparatively flat: its spread across nodes is
        // smaller than gated's spread.
        let gated_spread = (n180.gated_d - n70.gated_d).abs();
        let resz_spread = (n180.resizable_d - n70.resizable_d).abs();
        assert!(
            resz_spread < gated_spread + 0.05,
            "resizable spread {resz_spread:.3} vs gated spread {gated_spread:.3}"
        );
    }
}
