//! Figure 10: effect of subarray size on gated precharging.

use std::fmt::Write as _;

use bitline_cmos::TechnologyNode;

use crate::experiments::harness;
use crate::experiments::sweep::MAX_SLOWDOWN;
use crate::{run_benchmark_cached, PolicyKind, SimError, SystemSpec};

/// Subarray sizes swept by the figure.
pub const SIZES: [usize; 4] = [4096, 1024, 256, 64];

/// Thresholds tried per size (smaller subarrays need larger thresholds,
/// Section 6.4).
const THRESHOLDS: [u64; 5] = [50, 100, 200, 400, 800];

/// Suite-average precharged fraction at one subarray size.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Row {
    /// Subarray size in bytes.
    pub subarray_bytes: usize,
    /// Average fraction of D-cache subarrays precharged.
    pub d_precharged: f64,
    /// Average fraction of I-cache subarrays precharged.
    pub i_precharged: f64,
}

/// Reproduces Figure 10 at 70 nm: the relative number of precharged
/// subarrays under gated precharging for 4 KB / 1 KB / 256 B / 64 B
/// subarrays, averaged over the suite (per-benchmark thresholds chosen
/// within the 1% budget).
///
/// # Errors
///
/// The first skipped run's [`SimError`] when *every* benchmark of a
/// subarray size failed; partial suites degrade to averages over fewer
/// benchmarks with a stderr warning.
pub fn run(instrs: u64) -> Result<Vec<Fig10Row>, SimError> {
    let _span = bitline_obs::span("fig10/run").field("instrs", instrs);
    let node = TechnologyNode::N70;
    SIZES
        .into_iter()
        .map(|subarray_bytes| {
            let outcome = harness::map_suite(|name| {
                let baseline = run_benchmark_cached(
                    name,
                    &SystemSpec { subarray_bytes, instructions: instrs, ..SystemSpec::default() },
                );
                // Gate both caches with a shared threshold and pick the
                // best-energy point within the slowdown budget.
                let mut best: Option<(f64, f64, f64)> = None; // (discharge, d_frac, i_frac)
                let mut fallback: Option<(f64, f64, f64, f64)> = None; // +slowdown
                for &threshold in &THRESHOLDS {
                    let run = run_benchmark_cached(
                        name,
                        &SystemSpec {
                            d_policy: PolicyKind::GatedPredecode { threshold },
                            i_policy: PolicyKind::Gated { threshold },
                            subarray_bytes,
                            instructions: instrs,
                            ..SystemSpec::default()
                        },
                    );
                    let slowdown = run.slowdown_vs(&baseline);
                    let (policy, base) = run.energy(node);
                    let discharge =
                        policy.d.relative_discharge(&base.d) + policy.i.relative_discharge(&base.i);
                    let d_frac = run.l1d().report.precharged_fraction();
                    let i_frac = run.l1i().report.precharged_fraction();
                    if slowdown <= MAX_SLOWDOWN {
                        if best.is_none_or(|(b, _, _)| discharge < b) {
                            best = Some((discharge, d_frac, i_frac));
                        }
                    } else if fallback.is_none_or(|(_, _, _, s)| slowdown < s) {
                        fallback = Some((discharge, d_frac, i_frac, slowdown));
                    }
                }
                match (best, fallback) {
                    (Some((_, d, i)), _) => Ok((d, i)),
                    (None, Some((_, d, i, _))) => Ok((d, i)),
                    (None, None) => unreachable!("threshold ladder is non-empty"),
                }
            });
            outcome.report_skipped("fig10");
            let fracs = outcome.rows_or_error("fig10")?;
            let n = fracs.len() as f64;
            Ok(Fig10Row {
                subarray_bytes,
                d_precharged: fracs.iter().map(|(d, _)| d).sum::<f64>() / n,
                i_precharged: fracs.iter().map(|(_, i)| i).sum::<f64>() / n,
            })
        })
        .collect()
}

/// Renders the figure: `subarray_bytes  d_precharged  i_precharged` per
/// size.
#[must_use]
pub fn render(rows: &[Fig10Row]) -> String {
    let mut out = String::from("# subarray_bytes  d_precharged  i_precharged\n");
    for r in rows {
        let _ = writeln!(out, "{} {:.5} {:.5}", r.subarray_bytes, r.d_precharged, r.i_precharged);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_subarrays_keep_fewer_precharged() {
        let rows = run(4_000).expect("fig10 completes");
        assert_eq!(rows.len(), 4);
        // 4 KB subarrays waste the most (coarse control); the curve falls
        // and saturates towards line-sized subarrays (Section 6.4).
        assert!(
            rows[0].d_precharged > rows[1].d_precharged,
            "4 KB {:.3} vs 1 KB {:.3}",
            rows[0].d_precharged,
            rows[1].d_precharged
        );
        assert!(rows[1].d_precharged >= rows[3].d_precharged - 0.02);
        for r in &rows {
            assert!(r.d_precharged > 0.0 && r.d_precharged <= 1.0);
            assert!(r.i_precharged > 0.0 && r.i_precharged <= 1.0);
        }
    }
}
