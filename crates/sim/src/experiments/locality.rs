//! Figures 5 and 6: subarray reference locality.

use std::fmt::Write as _;

use crate::experiments::harness;
use crate::{
    try_run_benchmark_cached, LocalityStats, PolicyKind, SimError, SystemSpec, FIG5_BUCKETS,
    FIG6_THRESHOLDS,
};

/// One benchmark's locality profile for one cache.
#[derive(Debug, Clone)]
pub struct LocalityRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Figure 5: cumulative fraction of accesses with access interval at
    /// most `FIG5_BUCKETS[i]` cycles.
    pub access_cdf: [f64; 5],
    /// Figure 6: time-averaged fraction of subarrays hot at threshold
    /// `FIG6_THRESHOLDS[i]`.
    pub hot_fraction: [f64; 5],
}

/// Both caches' locality profiles.
#[derive(Debug, Clone)]
pub struct LocalityResult {
    /// Per-benchmark D-cache rows.
    pub data: Vec<LocalityRow>,
    /// Per-benchmark I-cache rows.
    pub inst: Vec<LocalityRow>,
}

fn row(benchmark: &str, stats: &LocalityStats) -> LocalityRow {
    LocalityRow {
        benchmark: benchmark.to_owned(),
        access_cdf: stats.cumulative_access_fraction(),
        hot_fraction: stats.hot_subarray_fraction(),
    }
}

/// Gathers Figures 5 and 6 for all sixteen benchmarks.
///
/// # Errors
///
/// The first skipped run's [`SimError`] when *every* benchmark failed;
/// partial suites degrade to fewer rows with a stderr warning.
pub fn run(instrs: u64) -> Result<LocalityResult, SimError> {
    let _span = bitline_obs::span("locality/run").field("instrs", instrs);
    let outcome = harness::map_suite(|name| {
        let spec = SystemSpec {
            d_policy: PolicyKind::LocalityRecorder,
            i_policy: PolicyKind::LocalityRecorder,
            instructions: instrs,
            ..SystemSpec::default()
        };
        let result = try_run_benchmark_cached(name, &spec)?;
        let d = row(name, result.l1d().locality.as_ref().expect("recorder attached"));
        let i = row(name, result.l1i().locality.as_ref().expect("recorder attached"));
        Ok((d, i))
    });
    outcome.report_skipped("locality");
    let (data, inst) = outcome.rows_or_error("locality")?.into_iter().unzip();
    Ok(LocalityResult { data, inst })
}

/// Renders Figure 5: per cache and benchmark, then each cache's `AVG`,
/// the fraction of accesses at an interval of at most each
/// `FIG5_BUCKETS` cycle count.
#[must_use]
pub fn render_fig5(res: &LocalityResult) -> String {
    render(&FIG5_BUCKETS, |r| r.access_cdf, res)
}

/// Renders Figure 6: per cache and benchmark, then each cache's `AVG`,
/// the time-averaged fraction of subarrays hot at each `FIG6_THRESHOLDS`
/// threshold.
#[must_use]
pub fn render_fig6(res: &LocalityResult) -> String {
    render(&FIG6_THRESHOLDS, |r| r.hot_fraction, res)
}

/// `cache  benchmark` then one column per `1/N` label.
fn render(labels: &[u64], values: fn(&LocalityRow) -> [f64; 5], res: &LocalityResult) -> String {
    let mut out = String::from("# cache  benchmark");
    for l in labels {
        let _ = write!(out, "  1/{l}");
    }
    out.push('\n');
    for (cache, rows) in [("data", &res.data), ("inst", &res.inst)] {
        let mut line = |benchmark: &str, values: [f64; 5]| {
            let _ = write!(out, "{cache} {benchmark}");
            for v in values {
                let _ = write!(out, " {v:.5}");
            }
            out.push('\n');
        };
        for r in rows {
            line(&r.benchmark, values(r));
        }
        let n = rows.len() as f64;
        line("AVG", std::array::from_fn(|i| rows.iter().map(|r| values(r)[i]).sum::<f64>() / n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_profiles_are_monotone_and_plausible() {
        let res = run(6_000).expect("locality completes");
        assert_eq!(res.data.len(), 16);
        for r in res.data.iter().chain(res.inst.iter()) {
            assert!(r.access_cdf.windows(2).all(|w| w[1] >= w[0]), "{}", r.benchmark);
            assert!(r.hot_fraction.windows(2).all(|w| w[1] >= w[0]), "{}", r.benchmark);
            assert!(r.hot_fraction[4] <= 1.0 + 1e-9);
        }
        // I-streams are more concentrated than D-streams on average
        // (Section 6.4: "instruction streams have more stable footprints").
        let avg_at_100 = |rows: &[LocalityRow]| {
            rows.iter().map(|r| r.hot_fraction[2]).sum::<f64>() / rows.len() as f64
        };
        let (d_avg, i_avg) = (avg_at_100(&res.data), avg_at_100(&res.inst));
        assert!(i_avg < d_avg + 0.15, "I hot {i_avg:.3} vs D hot {d_avg:.3}");
    }
}
