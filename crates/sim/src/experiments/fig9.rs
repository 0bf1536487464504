//! Figure 9: gated precharging vs. resizable caches across technology
//! nodes.
//!
//! The architectural runs are node-independent (8-FO4 scaling), so each
//! benchmark is simulated once per candidate configuration and the energy
//! is re-priced per node; the per-benchmark "as aggressive as possible
//! within 1% slowdown" selection (`sweep::pick_at`) is then made
//! independently at every node, exactly as the paper tunes each point.

use std::fmt::Write as _;

use bitline_cmos::TechnologyNode;

use crate::experiments::harness;
use crate::experiments::sweep::{d_discharge, gated_d, gated_i, i_discharge, pick_at, sweep};
use crate::{try_run_benchmark_cached, PolicyKind, SimError, SystemSpec};

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
    // Each unit runs its benchmark's candidates once and returns, per
    // node, the picked discharge of gated D, gated I, resizable D and
    // resizable I.
    let per_benchmark = harness::map_suite("fig9", |name| {
        let spec = SystemSpec { instructions: instrs, ..SystemSpec::default() };
        let baseline = try_run_benchmark_cached(name, &spec)?;
        // Scaled so short runs still give the resizable controller ~30-40
        // decision points (the paper's 1M-instruction interval assumes
        // SimPoint-length runs).
        let interval_accesses = (instrs / 40).max(400);
        let resizable = SLACKS.map(|slack| PolicyKind::Resizable { interval_accesses, slack });
        let gated_d = sweep(name, &baseline, &gated_d(spec))?;
        let gated_i = sweep(name, &baseline, &gated_i(spec))?;
        let resz_d =
            sweep(name, &baseline, &resizable.map(|d_policy| SystemSpec { d_policy, ..spec }))?;
        let resz_i =
            sweep(name, &baseline, &resizable.map(|i_policy| SystemSpec { i_policy, ..spec }))?;
        Ok(TechnologyNode::ALL.map(|node| {
            [
                pick_at(&gated_d, node, d_discharge).cost,
                pick_at(&gated_i, node, i_discharge).cost,
                pick_at(&resz_d, node, d_discharge).cost,
                pick_at(&resz_i, node, i_discharge).cost,
            ]
        }))
    })?;
    let n = per_benchmark.len() as f64;
    Ok(TechnologyNode::ALL
        .into_iter()
        .enumerate()
        .map(|(k, node)| {
            let [gated_d, gated_i, resizable_d, resizable_i] = std::array::from_fn(|column| {
                per_benchmark.iter().map(|b| b[k][column]).sum::<f64>() / n
            });
            Fig9Row { node, gated_d, gated_i, resizable_d, resizable_i }
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
