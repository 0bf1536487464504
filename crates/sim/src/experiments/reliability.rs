//! Reliability table: error outcomes and energy overhead of SECDED
//! protection across technology nodes.
//!
//! Gated bitlines trade sense margin for leakage, and the exposure grows
//! as nodes shrink (the same leakage scaling that motivates gating in the
//! first place). This driver quantifies the trade for three protection
//! configurations — bare replay-on-detect, (72,64) SECDED, and SECDED
//! with a background scrub walker — at every node from 180 nm to 70 nm:
//! upsets per node are scaled by the per-generation leakage growth
//! factor, so 180 nm sees a small fraction of the 70 nm upset rate.
//!
//! Rows report corrected / DUE / SDC counts per million committed
//! instructions, cache-energy overhead versus the same policy running
//! fault-free, and how many subarrays ended the run pinned fail-safe.

use std::fmt::Write as _;

use bitline_cmos::TechnologyNode;

use crate::experiments::harness;
use crate::{try_run_benchmark_cached, FaultSpec, PolicyKind, SimError, SystemSpec};

/// Upset probability per cold access at 70 nm when the caller does not
/// supply one (`--fault-rate`). High enough that short CI runs still see
/// double-digit injections, low enough that runs complete.
pub const DEFAULT_UPSET_RATE: f64 = 0.05;

/// Background scrub period in cycles when the caller does not supply one
/// (`--scrub-period`): a few sweeps over a short run, hundreds over a
/// figure-length run.
pub const DEFAULT_SCRUB_PERIOD: u64 = 8_192;

/// Upset-rate growth per process generation. Leakage — the upset driver —
/// grows ~3.5x per generation in this workspace's device model, so the
/// exposure shrinks by the same factor walking back from 70 nm.
const UPSET_GROWTH_PER_GENERATION: f64 = 3.5;

/// The error-protection configurations the table compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// Bare margin detector: detected upsets replay, undetected ones are
    /// silent corruption.
    NoEcc,
    /// (72,64) SECDED on every word, no scrubbing: singles correct in
    /// place (and linger as latent damage), doubles replay as DUEs.
    Ecc,
    /// SECDED plus the background scrub walker, which rewrites latent
    /// singles before a second upset can compound them.
    EccScrub,
}

impl Protection {
    /// All configurations, in table order.
    pub const ALL: [Protection; 3] = [Protection::NoEcc, Protection::Ecc, Protection::EccScrub];

    /// Column label, stable across text output and `.dat` export.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Protection::NoEcc => "none",
            Protection::Ecc => "ecc",
            Protection::EccScrub => "ecc+scrub",
        }
    }
}

/// The precharge policies the table prices (D-cache side; the I-cache
/// runs the plain gated variant, as in Figure 8).
const POLICIES: [(&str, PolicyKind); 2] = [
    ("gated", PolicyKind::Gated { threshold: 100 }),
    ("predecode", PolicyKind::GatedPredecode { threshold: 100 }),
];

/// One table row: suite totals for a (node, policy, protection) cell.
#[derive(Debug, Clone, Copy)]
pub struct ReliabilityRow {
    /// Technology node.
    pub node: TechnologyNode,
    /// D-cache policy label (`gated` or `predecode`).
    pub policy: &'static str,
    /// Protection configuration.
    pub protection: Protection,
    /// Upsets recovered without data loss, per million instructions:
    /// codec corrections under ECC, replay recoveries without it.
    pub corrected_per_mi: f64,
    /// Detected-uncorrectable errors per million instructions (ECC only;
    /// the bare detector has no uncorrectable class — detected means
    /// replayed).
    pub due_per_mi: f64,
    /// Silent data corruptions per million instructions.
    pub sdc_per_mi: f64,
    /// Cache-energy overhead versus the same policy running fault-free
    /// at the same node (replays, check columns, codec, scrub traffic).
    pub energy_overhead: f64,
    /// Subarrays that ended the run pinned to static pull-up.
    pub fail_safe_subarrays: u64,
}

/// Error counts and energy for one cell: one benchmark's, or the suite's.
struct CellTotals {
    corrected: u64,
    due: u64,
    sdc: u64,
    fail_safe: u64,
    instructions: u64,
    energy_j: f64,
    clean_energy_j: f64,
}

/// Upset rate at `node`, scaling the 70 nm base back by the leakage
/// growth factor per generation.
fn node_upset_rate(base: f64, node: TechnologyNode) -> f64 {
    let back_generations = TechnologyNode::ALL.len() as i32
        - 1
        - TechnologyNode::ALL.iter().position(|&n| n == node).unwrap_or(0) as i32;
    base / UPSET_GROWTH_PER_GENERATION.powi(back_generations)
}

/// The fault spec for one cell. `fail_safe` is always armed so every
/// configuration can degrade gracefully instead of thrashing on replay.
fn cell_faults(base: &FaultSpec, protection: Protection, rate: f64) -> FaultSpec {
    FaultSpec {
        rate,
        seed: base.seed,
        fail_safe: true,
        ecc: protection != Protection::NoEcc,
        scrub_period: (protection == Protection::EccScrub)
            .then(|| base.scrub_period.unwrap_or(DEFAULT_SCRUB_PERIOD)),
    }
}

/// One table cell: the node its energy is priced at, the D-cache policy
/// and its label, and the fault spec.
#[derive(Clone, Copy)]
struct Cell {
    node: TechnologyNode,
    policy: &'static str,
    d_policy: PolicyKind,
    protection: Protection,
    faults: FaultSpec,
}

/// One benchmark's totals in `cell`: its faulty run, and the same policy
/// running fault-free for the energy reference.
fn benchmark_totals(name: &str, instrs: u64, cell: &Cell) -> Result<CellTotals, SimError> {
    let spec = SystemSpec {
        d_policy: cell.d_policy,
        i_policy: PolicyKind::Gated { threshold: 100 },
        instructions: instrs,
        faults: cell.faults,
        ..SystemSpec::default()
    };
    let clean_spec = SystemSpec { faults: FaultSpec { rate: 0.0, ..spec.faults }, ..spec };
    let run = try_run_benchmark_cached(name, &spec)?;
    let clean = try_run_benchmark_cached(name, &clean_spec)?;
    let (energy, _) = run.energy(cell.node);
    let (clean_energy, _) = clean.energy(cell.node);
    let mut t = CellTotals {
        corrected: 0,
        due: 0,
        sdc: 0,
        fail_safe: 0,
        instructions: run.stats.committed,
        energy_j: energy.d.total_j() + energy.i.total_j(),
        clean_energy_j: clean_energy.d.total_j() + clean_energy.i.total_j(),
    };
    for level in &run.levels {
        if let Some(rel) = &level.reliability {
            t.corrected += rel.corrected();
            t.due += rel.due();
            t.sdc += rel.sdc();
            t.fail_safe += rel.fail_safe_subarrays() as u64;
        } else if let Some(fr) = &level.faults {
            // Bare detector: detected upsets are replay-recovered,
            // undetected ones are silent corruption outright.
            t.corrected += fr.detected();
            t.sdc += fr.silent();
            t.fail_safe += fr.degraded_subarrays() as u64;
        }
    }
    Ok(t)
}

/// Suite totals of one cell, its benchmarks summed in suite order.
fn suite_totals(cells: Vec<CellTotals>) -> CellTotals {
    cells.into_iter().fold(
        CellTotals {
            corrected: 0,
            due: 0,
            sdc: 0,
            fail_safe: 0,
            instructions: 0,
            energy_j: 0.0,
            clean_energy_j: 0.0,
        },
        |mut acc, t| {
            acc.corrected += t.corrected;
            acc.due += t.due;
            acc.sdc += t.sdc;
            acc.fail_safe += t.fail_safe;
            acc.instructions += t.instructions;
            acc.energy_j += t.energy_j;
            acc.clean_energy_j += t.clean_energy_j;
            acc
        },
    )
}

/// Builds the reliability table: one row per (node, D-policy, protection)
/// over the whole suite, 180 nm to 70 nm. Each benchmark is one unit that
/// runs every cell, so every row counts the same benchmarks.
///
/// `base` carries the caller's `--fault-rate` (the 70 nm upset rate;
/// [`DEFAULT_UPSET_RATE`] when zero), `--fault-seed` and
/// `--scrub-period` ([`DEFAULT_SCRUB_PERIOD`] when unset).
///
/// # Errors
///
/// [`SimError::InvalidSpec`], before any run, when the base rate is not a
/// probability; otherwise the first skipped run's [`SimError`] when every
/// benchmark failed.
pub fn run(instrs: u64, base: &FaultSpec) -> Result<Vec<ReliabilityRow>, SimError> {
    let _span = bitline_obs::span("reliability/run").field("instrs", instrs);
    if !(0.0..=1.0).contains(&base.rate) {
        return Err(SimError::InvalidSpec(format!(
            "fault rate = {}; must be a probability in [0, 1]",
            base.rate
        )));
    }
    let base_rate = if base.rate > 0.0 { base.rate } else { DEFAULT_UPSET_RATE };
    let mut cells = Vec::new();
    for node in TechnologyNode::ALL {
        let rate = node_upset_rate(base_rate, node);
        for (policy, d_policy) in POLICIES {
            for protection in Protection::ALL {
                let faults = cell_faults(base, protection, rate);
                cells.push(Cell { node, policy, d_policy, protection, faults });
            }
        }
    }
    let suite = harness::map_suite_grid("reliability", &cells, |name, cell| {
        benchmark_totals(name, instrs, cell)
    })?;
    Ok(cells
        .iter()
        .zip(suite)
        .map(|(cell, benchmarks)| {
            let t = suite_totals(benchmarks);
            let per_mi = |count: u64| count as f64 * 1.0e6 / t.instructions.max(1) as f64;
            ReliabilityRow {
                node: cell.node,
                policy: cell.policy,
                protection: cell.protection,
                corrected_per_mi: per_mi(t.corrected),
                due_per_mi: per_mi(t.due),
                sdc_per_mi: per_mi(t.sdc),
                energy_overhead: t.energy_j / t.clean_energy_j.max(f64::MIN_POSITIVE) - 1.0,
                fail_safe_subarrays: t.fail_safe,
            }
        })
        .collect())
}

/// Renders the table: `feature_nm  policy  protection  corrected_per_mi
/// due_per_mi  sdc_per_mi  energy_overhead  fail_safe_subarrays` per cell.
#[must_use]
pub fn render(rows: &[ReliabilityRow]) -> String {
    let mut out = String::from(
        "# feature_nm  policy  protection  corrected_per_mi  due_per_mi  \
         sdc_per_mi  energy_overhead  fail_safe_subarrays\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{} {} {} {:.5} {:.5} {:.5} {:.5} {}",
            r.node.feature_nm(),
            r.policy,
            r.protection.label(),
            r.corrected_per_mi,
            r.due_per_mi,
            r.sdc_per_mi,
            r.energy_overhead,
            r.fail_safe_subarrays
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upset_rate_scales_down_toward_older_nodes() {
        let at = |node| node_upset_rate(0.05, node);
        assert_eq!(at(TechnologyNode::N70), 0.05);
        assert!(at(TechnologyNode::N100) < at(TechnologyNode::N70));
        assert!(at(TechnologyNode::N130) < at(TechnologyNode::N100));
        assert!(at(TechnologyNode::N180) < at(TechnologyNode::N130));
    }

    #[test]
    fn protected_cells_carry_due_and_pay_energy() {
        let rows = run(4_000, &FaultSpec::default()).expect("reliability completes");
        assert_eq!(rows.len(), TechnologyNode::ALL.len() * POLICIES.len() * 3);
        let n70: Vec<_> = rows.iter().filter(|r| r.node == TechnologyNode::N70).collect();
        let bare = n70.iter().find(|r| r.protection == Protection::NoEcc).expect("bare cell");
        let ecc = n70.iter().find(|r| r.protection == Protection::Ecc).expect("ecc cell");
        // The bare detector has no uncorrectable class; the codec does.
        assert_eq!(bare.due_per_mi, 0.0);
        assert!(ecc.due_per_mi > 0.0, "doubles surface as DUEs under ECC");
        // Protection is not free.
        assert!(ecc.energy_overhead > bare.energy_overhead);
        // Faulty runs always cost more than clean ones.
        assert!(bare.energy_overhead > 0.0);
    }
}
