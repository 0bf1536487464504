//! Figure 3: potential bitline discharge savings (the oracle study).

use std::fmt::Write as _;

use bitline_cmos::TechnologyNode;

use crate::experiments::harness;
use crate::{try_run_benchmark_cached, PolicyKind, SimError, SystemSpec};

/// One benchmark's oracle result.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Benchmark name.
    pub benchmark: String,
    /// D-cache bitline discharge relative to static pull-up.
    pub d_relative: f64,
    /// I-cache bitline discharge relative to static pull-up.
    pub i_relative: f64,
}

/// Reproduces Figure 3 at 70 nm: relative bitline discharge with oracle
/// precharging, per benchmark, for both L1s, plus the `AVG` row.
///
/// # Errors
///
/// The first skipped run's [`SimError`] when *every* benchmark failed;
/// partial suites degrade to fewer rows with a stderr warning.
pub fn run(instrs: u64) -> Result<(Vec<Fig3Row>, Fig3Row), SimError> {
    let _span = bitline_obs::span("fig3/run").field("instrs", instrs);
    let node = TechnologyNode::N70;
    let rows = harness::map_suite("fig3", |name| {
        let spec = SystemSpec {
            d_policy: PolicyKind::Oracle,
            i_policy: PolicyKind::Oracle,
            instructions: instrs,
            ..SystemSpec::default()
        };
        let run = try_run_benchmark_cached(name, &spec)?;
        let (policy, baseline) = run.energy(node);
        Ok(Fig3Row {
            benchmark: name.to_owned(),
            d_relative: policy.d.relative_discharge(&baseline.d),
            i_relative: policy.i.relative_discharge(&baseline.i),
        })
    })?;
    let avg = Fig3Row {
        benchmark: "AVG".into(),
        d_relative: rows.iter().map(|r| r.d_relative).sum::<f64>() / rows.len() as f64,
        i_relative: rows.iter().map(|r| r.i_relative).sum::<f64>() / rows.len() as f64,
    };
    Ok((rows, avg))
}

/// Renders the figure: `benchmark  d_relative  i_relative` per benchmark,
/// then the `AVG` row.
#[must_use]
pub fn render(rows: &[Fig3Row], avg: &Fig3Row) -> String {
    let mut out = String::from("# benchmark  d_relative_discharge  i_relative_discharge\n");
    for r in rows.iter().chain([avg]) {
        let _ = writeln!(out, "{} {:.5} {:.5}", r.benchmark, r.d_relative, r.i_relative);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_removes_most_discharge_on_a_quick_run() {
        let (rows, avg) = run(6_000).expect("fig3 completes");
        assert_eq!(rows.len(), 16);
        assert!(avg.d_relative < 0.45, "avg D relative discharge {}", avg.d_relative);
        assert!(avg.i_relative < 0.45, "avg I relative discharge {}", avg.i_relative);
        for r in &rows {
            assert!(r.d_relative > 0.0 && r.d_relative < 1.0, "{}: {}", r.benchmark, r.d_relative);
        }
    }
}
