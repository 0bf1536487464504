//! Order statistics and the metric-naming rule shared by the runner and
//! `compare`.

/// Median of `xs` (mean of the middle pair for an even count); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the exclusive method of Python's
/// `statistics.quantiles(xs, n=4)`, so a spread printed here is the spread
/// an acceptance check computing it that way sees. Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative when the clamp moved `j` up: Python extrapolates then.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread a
/// metric's regression bound is compared against.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The percentiles a timing may be reported at, in per-mille, highest
/// first.
const PERCENTILES_PERMILLE: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// The highest reportable percentile (per-mille) for `n` samples: the
/// highest one with at least ten samples beyond it. `None` below 20
/// samples, where even the median has fewer than ten beyond it.
pub fn tail_permille(n: usize) -> Option<u32> {
    PERCENTILES_PERMILLE.into_iter().find(|&pm| n as u64 * u64::from(1000 - pm) >= 10_000)
}

/// Nearest-rank percentile (`permille` of 1000) of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], permille: u32) -> Option<f64> {
    let s = sorted(xs);
    if s.is_empty() {
        return None;
    }
    let rank = (s.len() * permille as usize).div_ceil(1000).max(1);
    Some(s[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(allowed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.median / statistics.quantiles(..., n=4) reference values.
        let xs = [7.0, 1.0, 3.0, 5.0, 9.0, 11.0, 2.0, 4.0, 6.0, 10.0];
        assert_eq!(median(&xs), Some(5.5));
        assert_eq!(quartiles(&xs), Some((2.75, 9.25)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(spread(&[9.0, 10.0, 11.0]), Some(0.2));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(39), Some(500));
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(199), Some(900));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(1500), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
        // The rule is exactly "at least ten beyond": every chosen level
        // leaves >= 10 samples above it, the next level up leaves < 10.
        for n in 20..3000usize {
            let pm = tail_permille(n).expect("n >= 20");
            assert!(n as u64 * u64::from(1000 - pm) >= 10_000, "n={n} pm={pm}");
            if let Some(&higher) = PERCENTILES_PERMILLE.iter().rev().find(|&&p| p > pm) {
                assert!(n as u64 * u64::from(1000 - higher) < 10_000, "n={n} skips {higher}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 500), Some(500.0));
        assert_eq!(percentile(&xs, 990), Some(990.0));
        assert_eq!(percentile(&[3.0], 990), Some(3.0));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn names_follow_the_metric_regex() {
        for good in ["wall_s", "cpu.ns_per_instr.gated-predecode", "serve-mixed", "0.x"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".leading", "-x", "has space", "slash/ed", "ünï", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
