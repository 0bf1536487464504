//! Figure 9: gated precharging vs. resizable caches across technology
//! nodes.
//!
//! The architectural runs are node-independent (8-FO4 scaling), so each
//! benchmark is simulated once per candidate configuration and the energy
//! is re-priced per node; the per-benchmark "as aggressive as possible
//! within 1% slowdown" selection is then made independently at every node,
//! exactly as the paper tunes each point.

use std::fmt::Write as _;

use bitline_cmos::TechnologyNode;

use crate::experiments::harness;
use crate::experiments::sweep::{MAX_SLOWDOWN, THRESHOLDS};
use crate::{run_benchmark_cached, PolicyKind, RunResult, SimError, SystemSpec};

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
    /// Best relative discharge at `node` within the slowdown budget;
    /// least-slowing candidate otherwise.
    fn best_at(&self, node: TechnologyNode, cache: Cache) -> f64 {
        let rel = |run: &RunResult| {
            let (policy, baseline) = run.energy(node);
            match cache {
                Cache::D => policy.d.relative_discharge(&baseline.d),
                Cache::I => policy.i.relative_discharge(&baseline.i),
            }
        };
        let within: Vec<&(RunResult, f64)> =
            self.runs.iter().filter(|(_, s)| *s <= MAX_SLOWDOWN).collect();
        if within.is_empty() {
            let (run, _) = self
                .runs
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("candidate set is non-empty");
            rel(run)
        } else {
            within.iter().map(|(run, _)| rel(run)).fold(f64::INFINITY, f64::min)
        }
    }
}

fn gated_candidates(name: &str, cache: Cache, baseline: &RunResult, instrs: u64) -> Candidates {
    let runs = THRESHOLDS
        .iter()
        .map(|&threshold| {
            let spec = match cache {
                Cache::D => SystemSpec {
                    d_policy: PolicyKind::GatedPredecode { threshold },
                    instructions: instrs,
                    ..SystemSpec::default()
                },
                Cache::I => SystemSpec {
                    i_policy: PolicyKind::Gated { threshold },
                    instructions: instrs,
                    ..SystemSpec::default()
                },
            };
            let run = run_benchmark_cached(name, &spec);
            let slowdown = run.slowdown_vs(baseline);
            (run, slowdown)
        })
        .collect();
    Candidates { runs }
}

fn resizable_candidates(name: &str, cache: Cache, baseline: &RunResult, instrs: u64) -> Candidates {
    // Scaled so short runs still give the controller ~30-40 decision
    // points (the paper's 1M-instruction interval assumes SimPoint-length
    // runs).
    let interval_accesses = (instrs / 40).max(400);
    let runs = SLACKS
        .iter()
        .map(|&slack| {
            let policy = PolicyKind::Resizable { interval_accesses, slack };
            let spec = match cache {
                Cache::D => {
                    SystemSpec { d_policy: policy, instructions: instrs, ..SystemSpec::default() }
                }
                Cache::I => {
                    SystemSpec { i_policy: policy, instructions: instrs, ..SystemSpec::default() }
                }
            };
            let run = run_benchmark_cached(name, &spec);
            let slowdown = run.slowdown_vs(baseline);
            (run, slowdown)
        })
        .collect();
    Candidates { runs }
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
    let outcome = harness::map_suite(|name| {
        let baseline = run_benchmark_cached(
            name,
            &SystemSpec { instructions: instrs, ..SystemSpec::default() },
        );
        Ok(PerBenchmark {
            gated_d: gated_candidates(name, Cache::D, &baseline, instrs),
            gated_i: gated_candidates(name, Cache::I, &baseline, instrs),
            resz_d: resizable_candidates(name, Cache::D, &baseline, instrs),
            resz_i: resizable_candidates(name, Cache::I, &baseline, instrs),
        })
    });
    outcome.report_skipped("fig9");
    let per_benchmark = outcome.rows_or_error("fig9")?;

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
