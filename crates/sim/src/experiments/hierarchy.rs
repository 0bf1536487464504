//! Hierarchy table: multi-level cache energy under the leakage-mode zoo.
//!
//! The paper's gated precharging attacks *bitline* leakage in the L1s;
//! the cell array itself keeps leaking, and in a multi-level hierarchy
//! the outer levels — bigger, colder, idler — dominate that residual
//! term. This driver builds two- and three-level hierarchies (gated
//! precharging at every level), then prices the same architectural runs
//! under each state-of-the-art leakage-control scheme for the cell
//! arrays: full-Vdd (the static baseline), drowsy state-preserving
//! low-Vdd, gated-Vdd sleep, and dual-Vt 6T low-power cells.
//!
//! Because leakage modes are pricing-only (they never touch cycles), one
//! architectural run per level count serves every (node, mode) cell —
//! the same trick [`RunResult::energy`] plays across nodes.
//!
//! Rows report the suite-total L2 miss ratio, per-level cache energy,
//! and the total relative to full-Vdd pricing of the same machine.

use std::fmt::Write as _;

use bitline_cmos::TechnologyNode;
use bitline_energy::LeakageKind;

use crate::config::HierarchySpec;
use crate::experiments::harness;
use crate::runner::{Level, RunResult};
use crate::{try_run_benchmark_cached, PolicyKind, SimError, SystemSpec};

/// The level counts the table sweeps: L1+L2, then L1+L2+L3.
pub const LEVELS: [u8; 2] = [2, 3];

/// Gated-precharge threshold used at every level, matching the headline
/// configuration (Figure 8's constant-threshold column).
const THRESHOLD: u64 = 100;

/// One table row: suite totals for a (node, levels, mode) cell.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyRow {
    /// Technology node the energy is priced at.
    pub node: TechnologyNode,
    /// Cache levels in the hierarchy (2 or 3).
    pub levels: u8,
    /// Cell-array leakage mode the whole hierarchy runs.
    pub mode: LeakageKind,
    /// Suite-total L2 local miss ratio.
    pub l2_miss_ratio: f64,
    /// Suite-total L1 (D+I) cache energy in joules.
    pub l1_energy_j: f64,
    /// Suite-total L2 cache energy in joules.
    pub l2_energy_j: f64,
    /// Suite-total L3 cache energy in joules (zero for two levels).
    pub l3_energy_j: f64,
    /// Hierarchy total in joules.
    pub total_j: f64,
    /// Total relative to full-Vdd pricing of the same machine — the
    /// figure of merit for a leakage mode (1.0 for full-Vdd itself).
    pub vs_full_vdd: f64,
}

/// Per-(node, mode) suite totals for one level count.
struct CellTotals {
    l1_j: f64,
    l2_j: f64,
    l3_j: f64,
    l2_hits: u64,
    l2_misses: u64,
}

fn cell_totals(runs: &[RunResult], node: TechnologyNode, mode: LeakageKind) -> CellTotals {
    let mut t = CellTotals { l1_j: 0.0, l2_j: 0.0, l3_j: 0.0, l2_hits: 0, l2_misses: 0 };
    for run in runs {
        let priced = |level| run.level_energy(level, node, mode).map_or(0.0, |b| b.total_j());
        t.l1_j += priced(Level::L1D) + priced(Level::L1I);
        t.l2_j += priced(Level::L2);
        t.l3_j += priced(Level::L3);
        if let Some(l2) = run.level(Level::L2) {
            t.l2_hits += l2.hits;
            t.l2_misses += l2.misses;
        }
    }
    t
}

/// Builds the hierarchy table: one row per (levels, node, mode) over the
/// whole suite, full-Vdd first within each (levels, node) group so the
/// relative column reads off directly.
///
/// # Errors
///
/// The first skipped run's [`SimError`] when every benchmark failed.
pub fn run(instrs: u64) -> Result<Vec<HierarchyRow>, SimError> {
    let _span = bitline_obs::span("hierarchy/run").field("instrs", instrs);
    let mut rows = Vec::new();
    for levels in LEVELS {
        let spec = SystemSpec {
            d_policy: PolicyKind::Gated { threshold: THRESHOLD },
            i_policy: PolicyKind::Gated { threshold: THRESHOLD },
            instructions: instrs,
            hierarchy: HierarchySpec {
                levels,
                l2_policy: PolicyKind::Gated { threshold: THRESHOLD },
                // Pricing-only: each mode below re-prices this one run.
                leakage_mode: LeakageKind::FullVdd,
            },
            ..SystemSpec::default()
        };
        let runs = harness::map_suite("hierarchy", |name| try_run_benchmark_cached(name, &spec))?;
        for node in TechnologyNode::ALL {
            let full = cell_totals(&runs, node, LeakageKind::FullVdd);
            let full_total = full.l1_j + full.l2_j + full.l3_j;
            for mode in LeakageKind::ALL {
                let t = cell_totals(&runs, node, mode);
                let total_j = t.l1_j + t.l2_j + t.l3_j;
                rows.push(HierarchyRow {
                    node,
                    levels,
                    mode,
                    l2_miss_ratio: t.l2_misses as f64 / (t.l2_hits + t.l2_misses).max(1) as f64,
                    l1_energy_j: t.l1_j,
                    l2_energy_j: t.l2_j,
                    l3_energy_j: t.l3_j,
                    total_j,
                    vs_full_vdd: total_j / full_total.max(f64::MIN_POSITIVE),
                });
            }
        }
    }
    Ok(rows)
}

/// Renders the table: `feature_nm  levels  mode  l2_miss_ratio  l1_j
/// l2_j  l3_j  total_j  vs_full_vdd` per cell.
#[must_use]
pub fn render(rows: &[HierarchyRow]) -> String {
    let mut out = String::from(
        "# feature_nm  levels  mode  l2_miss_ratio  l1_j  l2_j  l3_j  total_j  vs_full_vdd\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{} {} {} {:.5} {:.6e} {:.6e} {:.6e} {:.6e} {:.5}",
            r.node.feature_nm(),
            r.levels,
            r.mode.label(),
            r.l2_miss_ratio,
            r.l1_energy_j,
            r.l2_energy_j,
            r.l3_energy_j,
            r.total_j,
            r.vs_full_vdd
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_every_level_node_mode_cell() {
        let rows = run(4_000).expect("hierarchy completes");
        assert_eq!(rows.len(), LEVELS.len() * TechnologyNode::ALL.len() * LeakageKind::ALL.len());
        for r in &rows {
            assert!(r.total_j > 0.0, "{:?} must cost energy", (r.levels, r.node, r.mode));
            assert!(r.l2_energy_j > 0.0, "L2 is always present in the table");
            assert_eq!(r.l3_energy_j > 0.0, r.levels == 3, "L3 energy iff three levels");
            assert!((0.0..=1.0).contains(&r.l2_miss_ratio));
        }
        // Full-Vdd is its own reference.
        for r in rows.iter().filter(|r| r.mode == LeakageKind::FullVdd) {
            assert!((r.vs_full_vdd - 1.0).abs() < 1e-12);
        }
        // At 70 nm — where cell leakage dominates — sleeping the cells
        // must beat full-Vdd. (At 180 nm the transition energy can win;
        // that reversal is part of what the table is for.)
        for r in
            rows.iter().filter(|r| r.node == TechnologyNode::N70 && r.mode == LeakageKind::GatedVdd)
        {
            assert!(r.vs_full_vdd < 1.0, "gated-Vdd must beat full-Vdd at 70 nm");
        }
    }
}
