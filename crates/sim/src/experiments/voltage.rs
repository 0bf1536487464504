//! Voltage table: energy-per-access vs replay overhead vs SDC exposure
//! across the guardband ladder.
//!
//! Gated precharging saves bitline energy; the other big lever on a
//! nanoscale cache's energy is the supply itself. This driver sweeps the
//! L1 supply from nominal down through the sense-amp guardband and into
//! timing-speculation territory, in both `static` mode (the whole run at
//! one scale, mis-senses detected and replayed) and `governor` mode (the
//! per-subarray guardband ladder escalating toward nominal when replay
//! traffic says the margin is gone).
//!
//! The architectural pipeline speculates with the 70 nm upset curve —
//! the node with the thinnest margins, consistent with the scaled 8-FO4
//! clock making cycle counts node-independent elsewhere in the harness —
//! so one suite run per (scale, mode) serves every node and only the
//! energy pricing and the analytic `p_upset` column are node-specific.
//!
//! Rows report, per (node, scale, mode): the analytic upset probability,
//! L1 energy per access, energy relative to the nominal-supply machine at
//! the same node, replay cycle overhead vs that machine, SDC exposure per
//! million committed instructions, and the governor's ladder telemetry.

use std::fmt::Write as _;

use bitline_cmos::vdd::timing_upset_probability;
use bitline_cmos::TechnologyNode;

use crate::config::VddSpec;
use crate::experiments::harness;
use crate::runner::RunResult;
use crate::{run_benchmark_cached, PolicyKind, SimError, SystemSpec};

/// Supply scales the table sweeps, nominal first so the baseline row
/// leads each group: inside the guardband (0.95), at its edge (0.9), and
/// well below it (0.85, 0.8).
pub const VDD_STEPS: [f64; 5] = [1.0, 0.95, 0.9, 0.85, 0.8];

/// Gated-precharge threshold used on both L1s, matching the headline
/// configuration.
const THRESHOLD: u64 = 100;

/// One table row: suite totals for a (node, scale, mode) cell.
#[derive(Debug, Clone, Copy)]
pub struct VoltageRow {
    /// Technology node the energy is priced at.
    pub node: TechnologyNode,
    /// Supply scale the L1s run at (the ladder's aggressive rung when
    /// governed).
    pub vdd_scale: f64,
    /// Whether the adaptive governor drives the guardband ladder.
    pub governed: bool,
    /// Analytic per-cold-access upset probability at this node and scale.
    pub p_upset: f64,
    /// Suite L1 (D+I) energy per access in joules.
    pub energy_per_access_j: f64,
    /// L1 energy relative to the nominal-supply machine at this node.
    pub energy_vs_nominal: f64,
    /// Cycle overhead vs the nominal-supply machine (replay cost).
    pub replay_overhead: f64,
    /// Mis-senses that escaped detection, per million committed
    /// instructions.
    pub sdc_per_mi: f64,
    /// Governor escalations over the suite (0 for static mode).
    pub escalations: u64,
    /// Subarrays the fail-safe pinned to nominal over the suite.
    pub pinned_subarrays: u64,
}

/// Suite totals for one (scale, mode) architectural run.
#[derive(Clone, Copy)]
struct SuiteTotals {
    cycles: u64,
    committed: u64,
    accesses: u64,
    sdc: u64,
    escalations: u64,
    pinned: u64,
}

fn suite_totals(runs: &[RunResult]) -> SuiteTotals {
    let mut t =
        SuiteTotals { cycles: 0, committed: 0, accesses: 0, sdc: 0, escalations: 0, pinned: 0 };
    for run in runs {
        t.cycles += run.cycles();
        t.committed += run.stats.committed;
        t.accesses += run.l1d().report.total_accesses() + run.l1i().report.total_accesses();
        for vdd in run.levels.iter().filter_map(|l| l.vdd.as_ref()) {
            t.sdc += vdd.sdc;
            t.escalations += vdd.escalations();
            t.pinned += vdd.pinned_subarrays() as u64;
        }
    }
    t
}

/// Suite L1 (D+I) energy at each node, in [`TechnologyNode::ALL`] order.
fn suite_l1_energy(runs: &[RunResult]) -> [f64; TechnologyNode::ALL.len()] {
    TechnologyNode::ALL.map(|node| {
        runs.iter()
            .map(|run| {
                let (policy, _) = run.energy(node);
                policy.d.total_j() + policy.i.total_j()
            })
            .sum()
    })
}

/// Builds the voltage table: one row per (scale, mode, node), scales in
/// [`VDD_STEPS`] order with static before governed, so the nominal row
/// heads each node group and the relative columns read off directly.
///
/// # Errors
///
/// The first skipped run's [`SimError`] when every benchmark failed.
pub fn run(instrs: u64) -> Result<Vec<VoltageRow>, SimError> {
    let _span = bitline_obs::span("voltage/run").field("instrs", instrs);
    // The nominal-supply machine is the overhead/energy reference; it is
    // byte-identical to the stock spec, so warm caches serve it for free.
    let nominal_spec = SystemSpec {
        d_policy: PolicyKind::Gated { threshold: THRESHOLD },
        i_policy: PolicyKind::Gated { threshold: THRESHOLD },
        instructions: instrs,
        ..SystemSpec::default()
    };
    let outcome = harness::map_suite(|name| Ok(run_benchmark_cached(name, &nominal_spec)));
    outcome.report_skipped("voltage");
    let nominal_runs = outcome.rows_or_error("voltage")?;
    let nominal = suite_totals(&nominal_runs);
    // Priced once per node: the reference of every row, and the nominal
    // row itself.
    let nominal_energy = suite_l1_energy(&nominal_runs);

    let mut rows = Vec::new();
    for scale in VDD_STEPS {
        for governed in [false, true] {
            let spec = SystemSpec { vdd: VddSpec { scale, governor: governed }, ..nominal_spec };
            let (t, energy) = if spec.vdd.is_default() {
                (nominal, nominal_energy)
            } else {
                let outcome = harness::map_suite(|name| Ok(run_benchmark_cached(name, &spec)));
                outcome.report_skipped("voltage");
                let runs = outcome.rows_or_error("voltage")?;
                (suite_totals(&runs), suite_l1_energy(&runs))
            };
            let priced = TechnologyNode::ALL.into_iter().zip(energy).zip(nominal_energy);
            for ((node, energy_j), nominal_j) in priced {
                rows.push(VoltageRow {
                    node,
                    vdd_scale: scale,
                    governed,
                    p_upset: timing_upset_probability(node, scale),
                    energy_per_access_j: energy_j / t.accesses.max(1) as f64,
                    energy_vs_nominal: energy_j / nominal_j.max(f64::MIN_POSITIVE),
                    replay_overhead: t.cycles as f64 / nominal.cycles.max(1) as f64 - 1.0,
                    sdc_per_mi: t.sdc as f64 / (t.committed.max(1) as f64 / 1e6),
                    escalations: t.escalations,
                    pinned_subarrays: t.pinned,
                });
            }
        }
    }
    Ok(rows)
}

/// Renders the table: `feature_nm  vdd_scale  mode  p_upset
/// energy_per_access_j  vs_nominal  replay_overhead  sdc_per_mi
/// escalations  pinned` per cell.
#[must_use]
pub fn render(rows: &[VoltageRow]) -> String {
    let mut out = String::from(
        "# feature_nm  vdd_scale  mode  p_upset  energy_per_access_j  vs_nominal  \
         replay_overhead  sdc_per_mi  escalations  pinned\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{} {:.2} {} {:.5} {:.6e} {:.5} {:.5} {:.5} {} {}",
            r.node.feature_nm(),
            r.vdd_scale,
            if r.governed { "governor" } else { "static" },
            r.p_upset,
            r.energy_per_access_j,
            r.energy_vs_nominal,
            r.replay_overhead,
            r.sdc_per_mi,
            r.escalations,
            r.pinned_subarrays
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_the_grid_and_obeys_the_physics() {
        let rows = run(4_000).expect("voltage completes");
        assert_eq!(rows.len(), VDD_STEPS.len() * 2 * TechnologyNode::ALL.len());

        for r in &rows {
            assert!(r.energy_per_access_j > 0.0, "{:?} must cost energy", (r.node, r.vdd_scale));
            assert!(r.p_upset >= 0.0 && r.p_upset < 1.0);
            if !r.governed {
                assert_eq!(r.escalations, 0, "static mode has no ladder to climb");
                assert_eq!(r.pinned_subarrays, 0);
            }
        }

        // The nominal rows are the reference machine: no overhead, no
        // speculation, unit relative energy.
        for r in rows.iter().filter(|r| r.vdd_scale == 1.0) {
            assert!((r.energy_vs_nominal - 1.0).abs() < 1e-12);
            assert!(r.replay_overhead.abs() < 1e-12);
            assert_eq!(r.p_upset, 0.0);
            assert_eq!(r.sdc_per_mi, 0.0);
        }

        // A static undervolt must save L1 energy at every node: the
        // supply factor beats the replay-cycle leakage it buys. Governed
        // rows may climb the ladder back toward nominal, so they only get
        // a loose cap (the governor trades energy for margin, not worse
        // than a few percent over the reference).
        for r in rows.iter().filter(|r| r.vdd_scale < 1.0) {
            if r.governed {
                assert!(
                    r.energy_vs_nominal < 1.05,
                    "{:?} governed undervolt must stay near nominal energy",
                    (r.node, r.vdd_scale)
                );
            } else {
                assert!(
                    r.energy_vs_nominal < 1.0,
                    "{:?} static undervolt must save energy",
                    (r.node, r.vdd_scale)
                );
            }
        }

        // Deep undervolt speculates at 70 nm and pays replay cycles.
        let deep = rows
            .iter()
            .find(|r| r.node == TechnologyNode::N70 && r.vdd_scale == 0.8 && !r.governed)
            .expect("grid covers the deep static cell");
        assert!(deep.p_upset > 0.1, "0.8 Vdd is well below the 70 nm guardband");
        assert!(deep.replay_overhead > 0.0, "detected mis-senses cost replay cycles");

        // The governed deep cell escalates and ends up cheaper in cycles
        // than riding the aggressive rung all the way down.
        let governed = rows
            .iter()
            .find(|r| r.node == TechnologyNode::N70 && r.vdd_scale == 0.8 && r.governed)
            .expect("grid covers the deep governed cell");
        assert!(governed.escalations > 0, "replay storms must drive the ladder up");
        assert!(
            governed.replay_overhead < deep.replay_overhead,
            "the governor exists to shed replay overhead"
        );
    }
}
