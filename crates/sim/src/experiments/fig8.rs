//! Figure 8: gated precharging's precharged-subarray fraction and relative
//! bitline discharge, per benchmark, at 70 nm.

use std::fmt::Write as _;

use bitline_cmos::TechnologyNode;

use crate::experiments::harness;
use crate::experiments::sweep::{fixed_gated, optimal_gated, GatedSweep, SweptCache};
use crate::{try_run_benchmark_cached, SimError, SystemSpec};

/// One benchmark's Figure 8 bars.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Benchmark name.
    pub benchmark: String,
    /// D-cache: fraction of subarrays precharged (left bar of Fig 8a).
    pub d_precharged: f64,
    /// D-cache: relative bitline discharge (right bar of Fig 8a).
    pub d_discharge: f64,
    /// Chosen per-benchmark D threshold.
    pub d_threshold: u64,
    /// D slowdown vs. static.
    pub d_slowdown: f64,
    /// I-cache: fraction of subarrays precharged.
    pub i_precharged: f64,
    /// I-cache: relative bitline discharge.
    pub i_discharge: f64,
    /// Chosen per-benchmark I threshold.
    pub i_threshold: u64,
    /// I slowdown vs. static.
    pub i_slowdown: f64,
    /// Overall D-cache energy reduction (headline metric).
    pub d_overall_reduction: f64,
    /// Overall I-cache energy reduction (headline metric).
    pub i_overall_reduction: f64,
}

/// Averages including the constant-threshold reference.
#[derive(Debug, Clone)]
pub struct Fig8Summary {
    /// Per-benchmark-optimum averages (the figure's AVG bars).
    pub avg: Fig8Row,
    /// Constant threshold (100) average relative discharge, D.
    pub const_d_discharge: f64,
    /// Constant threshold (100) average relative discharge, I.
    pub const_i_discharge: f64,
}

fn precharged_fraction(sweep: &GatedSweep, which: SweptCache) -> f64 {
    let level = match which {
        SweptCache::Data | SweptCache::DataNoPredecode => sweep.run.l1d(),
        SweptCache::Inst => sweep.run.l1i(),
    };
    level.report.precharged_fraction()
}

/// Reproduces Figure 8 at 70 nm with per-benchmark optimum thresholds
/// (predecoding enabled on the D-cache, as in the paper) plus the
/// constant-100 reference.
///
/// # Errors
///
/// The first skipped run's [`SimError`] when *every* benchmark failed;
/// partial suites degrade to fewer rows with a stderr warning.
pub fn run(instrs: u64) -> Result<(Vec<Fig8Row>, Fig8Summary), SimError> {
    let _span = bitline_obs::span("fig8/run").field("instrs", instrs);
    let node = TechnologyNode::N70;
    let outcome = harness::map_suite(|name| {
        let baseline = try_run_benchmark_cached(
            name,
            &SystemSpec { instructions: instrs, ..SystemSpec::default() },
        )?;
        let d = optimal_gated(name, SweptCache::Data, node, &baseline, instrs);
        let i = optimal_gated(name, SweptCache::Inst, node, &baseline, instrs);
        let dc = fixed_gated(name, SweptCache::Data, node, &baseline, 100, instrs);
        let ic = fixed_gated(name, SweptCache::Inst, node, &baseline, 100, instrs);
        // The sweep already priced its winning runs at `node`; reuse those
        // energies instead of re-pricing.
        let (d_pol, d_base) = &d.energy;
        let (i_pol, i_base) = &i.energy;
        let row = Fig8Row {
            benchmark: name.to_owned(),
            d_precharged: precharged_fraction(&d, SweptCache::Data),
            d_discharge: d.relative_discharge,
            d_threshold: d.threshold,
            d_slowdown: d.slowdown,
            i_precharged: precharged_fraction(&i, SweptCache::Inst),
            i_discharge: i.relative_discharge,
            i_threshold: i.threshold,
            i_slowdown: i.slowdown,
            d_overall_reduction: d_pol.d.overall_reduction(&d_base.d),
            i_overall_reduction: i_pol.i.overall_reduction(&i_base.i),
        };
        Ok((row, dc.relative_discharge, ic.relative_discharge))
    });
    outcome.report_skipped("fig8");
    let mut rows = Vec::new();
    let mut const_d = 0.0;
    let mut const_i = 0.0;
    for (row, dc, ic) in outcome.rows_or_error("fig8")? {
        rows.push(row);
        const_d += dc;
        const_i += ic;
    }
    let n = rows.len() as f64;
    let avg = Fig8Row {
        benchmark: "AVG".into(),
        d_precharged: rows.iter().map(|r| r.d_precharged).sum::<f64>() / n,
        d_discharge: rows.iter().map(|r| r.d_discharge).sum::<f64>() / n,
        d_threshold: 0,
        d_slowdown: rows.iter().map(|r| r.d_slowdown).sum::<f64>() / n,
        i_precharged: rows.iter().map(|r| r.i_precharged).sum::<f64>() / n,
        i_discharge: rows.iter().map(|r| r.i_discharge).sum::<f64>() / n,
        i_threshold: 0,
        i_slowdown: rows.iter().map(|r| r.i_slowdown).sum::<f64>() / n,
        d_overall_reduction: rows.iter().map(|r| r.d_overall_reduction).sum::<f64>() / n,
        i_overall_reduction: rows.iter().map(|r| r.i_overall_reduction).sum::<f64>() / n,
    };
    let summary =
        Fig8Summary { avg, const_d_discharge: const_d / n, const_i_discharge: const_i / n };
    Ok((rows, summary))
}

/// Renders the figure: `benchmark  d_precharged  d_discharge  d_threshold
/// d_slowdown` and the same four I-cache columns, per benchmark, then the
/// `AVG` row (threshold 0) and a `#` line with the constant-100 averages.
#[must_use]
pub fn render(rows: &[Fig8Row], summary: &Fig8Summary) -> String {
    let mut out = String::from(
        "# benchmark  d_precharged d_discharge d_threshold d_slowdown  \
         i_precharged i_discharge i_threshold i_slowdown\n",
    );
    for r in rows.iter().chain([&summary.avg]) {
        let _ = writeln!(
            out,
            "{} {:.5} {:.5} {} {:.5} {:.5} {:.5} {} {:.5}",
            r.benchmark,
            r.d_precharged,
            r.d_discharge,
            r.d_threshold,
            r.d_slowdown,
            r.i_precharged,
            r.i_discharge,
            r.i_threshold,
            r.i_slowdown
        );
    }
    let _ = writeln!(
        out,
        "# const-100 discharge: D {:.5}  I {:.5}",
        summary.const_d_discharge, summary.const_i_discharge
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gated_saves_most_discharge_within_the_perf_budget() {
        // A reduced sweep at small instruction counts still shows the
        // paper's shape: large discharge reductions, small precharged
        // fractions, ~1% slowdowns.
        let (rows, summary) = run(5_000).expect("fig8 completes");
        assert_eq!(rows.len(), 16);
        assert!(summary.avg.d_discharge < 0.6, "avg D discharge {}", summary.avg.d_discharge);
        assert!(summary.avg.i_discharge < 0.6, "avg I discharge {}", summary.avg.i_discharge);
        assert!(summary.avg.d_precharged < 0.5);
        // The constant threshold does no better than the per-benchmark
        // optimum on average.
        assert!(summary.const_d_discharge >= summary.avg.d_discharge - 0.05);
    }
}
