//! Section 5: the performance cost of on-demand precharging.

use std::fmt::Write as _;

use crate::experiments::harness;
use crate::{try_run_benchmark_cached, PolicyKind, SimError, SystemSpec};

/// One benchmark's on-demand slowdowns.
#[derive(Debug, Clone)]
pub struct OnDemandRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Slowdown with on-demand precharging on the D-cache only.
    pub d_slowdown: f64,
    /// Slowdown with on-demand precharging on the I-cache only.
    pub i_slowdown: f64,
}

/// Reproduces the Section 5 result: on-demand precharging delays every
/// access by one cycle; the paper measures 9% (D) / 7% (I) average
/// slowdown.
///
/// # Errors
///
/// The first skipped run's [`SimError`] when *every* benchmark failed;
/// partial suites degrade to fewer rows with a stderr warning.
pub fn run(instrs: u64) -> Result<(Vec<OnDemandRow>, OnDemandRow), SimError> {
    let _span = bitline_obs::span("ondemand/run").field("instrs", instrs);
    let rows = harness::map_suite("ondemand", |name| {
        let base = try_run_benchmark_cached(
            name,
            &SystemSpec { instructions: instrs, ..SystemSpec::default() },
        )?;
        let d = try_run_benchmark_cached(
            name,
            &SystemSpec {
                d_policy: PolicyKind::OnDemand,
                instructions: instrs,
                ..SystemSpec::default()
            },
        )?;
        let i = try_run_benchmark_cached(
            name,
            &SystemSpec {
                i_policy: PolicyKind::OnDemand,
                instructions: instrs,
                ..SystemSpec::default()
            },
        )?;
        Ok(OnDemandRow {
            benchmark: name.to_owned(),
            d_slowdown: d.slowdown_vs(&base),
            i_slowdown: i.slowdown_vs(&base),
        })
    })?;
    let avg = OnDemandRow {
        benchmark: "AVG".into(),
        d_slowdown: rows.iter().map(|r| r.d_slowdown).sum::<f64>() / rows.len() as f64,
        i_slowdown: rows.iter().map(|r| r.i_slowdown).sum::<f64>() / rows.len() as f64,
    };
    Ok((rows, avg))
}

/// Renders the table: `benchmark  d_slowdown  i_slowdown` per benchmark,
/// then the `AVG` row.
#[must_use]
pub fn render(rows: &[OnDemandRow], avg: &OnDemandRow) -> String {
    let mut out = String::from("# benchmark  d_slowdown  i_slowdown\n");
    for r in rows.iter().chain([avg]) {
        let _ = writeln!(out, "{} {:.5} {:.5}", r.benchmark, r.d_slowdown, r.i_slowdown);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_demand_costs_real_performance() {
        let (rows, avg) = run(6_000).expect("ondemand completes");
        assert_eq!(rows.len(), 16);
        assert!(avg.d_slowdown > 0.01, "avg D slowdown {}", avg.d_slowdown);
        assert!(avg.i_slowdown > 0.005, "avg I slowdown {}", avg.i_slowdown);
    }
}
