//! Run-budget plumbing: the process-wide budget and the ambient
//! [`CancelToken`].
//!
//! The budget is process-global state (set once by the `--run-budget`
//! flag) because the experiment drivers fan out through deeply nested
//! call chains — a figure driver calls the harness, which calls
//! [`crate::try_run_benchmark_cached`], which may recurse into further
//! cached runs — and threading an explicit token through every signature
//! would churn the whole API for a knob that is uniform across a sweep
//! anyway.
//!
//! The token itself is *ambient*: the harness arms one per attempt of a
//! unit and installs it in a thread-local around the run ([`with_token`]),
//! and the runner's hot loop polls [`ambient_token`]. Work pools keep each
//! unit on one thread for its whole life, so the thread-local is exactly
//! the unit scope.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bitline_exec::CancelToken;

/// Process-wide per-run budget in nanoseconds; 0 = unset.
static BUDGET_NANOS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static AMBIENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Installs (or clears, with `None`) the process-wide per-run wall-clock
/// budget. A zero duration clears it, matching the "0 = unset" encoding.
pub fn set_run_budget(budget: Option<Duration>) {
    let nanos = budget.map_or(0, |b| u64::try_from(b.as_nanos()).unwrap_or(u64::MAX));
    BUDGET_NANOS.store(nanos, Ordering::Relaxed);
}

/// The current process-wide per-run budget, if any.
#[must_use]
pub fn run_budget() -> Option<Duration> {
    match BUDGET_NANOS.load(Ordering::Relaxed) {
        0 => None,
        n => Some(Duration::from_nanos(n)),
    }
}

/// Runs `f` with `token` installed as this thread's ambient cancel token;
/// the previous token (if any) is restored afterwards, panic or not.
pub fn with_token<R>(token: &CancelToken, f: impl FnOnce() -> R) -> R {
    let prev = AMBIENT.with(|a| a.replace(Some(token.clone())));
    struct Restore(Option<CancelToken>);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT.with(|a| *a.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The cancel token governing the current unit of work.
///
/// Falls back to a fresh token armed with the process-wide [`run_budget`]
/// when no harness installed one — so a bare [`crate::try_run_benchmark`]
/// call still honours `--run-budget`.
#[must_use]
pub fn ambient_token() -> CancelToken {
    AMBIENT.with(|a| a.borrow().clone()).unwrap_or_else(|| CancelToken::for_budget(run_budget()))
}

/// Parses a human duration: `250ms`, `2s`, `1m`, or a bare number of
/// seconds. Zero, or anything under 1 ns, is rejected (a zero budget reads
/// as unset in one place and cancels every run before it starts in
/// another; use no flag at all for "unbounded").
///
/// # Errors
///
/// A message naming the accepted forms.
pub fn parse_budget(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let (num, scale_ms) = if let Some(v) = s.strip_suffix("ms") {
        (v, 1u64)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1_000)
    } else if let Some(v) = s.strip_suffix('m') {
        (v, 60_000)
    } else {
        (s, 1_000)
    };
    let n: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("invalid duration `{s}` (use e.g. 250ms, 2s, 1m)"))?;
    // `as` saturates: a negative, NaN or sub-nanosecond budget gives 0.
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let nanos = (n * scale_ms as f64 * 1.0e6) as u64;
    if nanos == 0 || !n.is_finite() {
        return Err(format!("duration `{s}` must be positive"));
    }
    Ok(Duration::from_nanos(nanos))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_budget_accepts_the_documented_forms() {
        assert_eq!(parse_budget("250ms"), Ok(Duration::from_millis(250)));
        assert_eq!(parse_budget("2s"), Ok(Duration::from_secs(2)));
        assert_eq!(parse_budget("1m"), Ok(Duration::from_secs(60)));
        assert_eq!(parse_budget("3"), Ok(Duration::from_secs(3)));
        assert_eq!(parse_budget("0.5s"), Ok(Duration::from_millis(500)));
    }

    #[test]
    fn parse_budget_rejects_garbage_and_zero() {
        assert!(parse_budget("abc").is_err());
        assert!(parse_budget("0").is_err());
        assert!(parse_budget("-1s").is_err());
        assert!(parse_budget("").is_err());
        // Under 1 ns, a budget rounds to zero and is refused as zero is.
        let zero = parse_budget("0").unwrap_err();
        let tiny = parse_budget("0.0000001ms").unwrap_err();
        assert_eq!(tiny.replace("0.0000001ms", "0"), zero);
    }

    #[test]
    fn ambient_token_nests_and_restores() {
        let outer = CancelToken::unbounded();
        let inner = CancelToken::with_budget(Duration::from_secs(9));
        with_token(&outer, || {
            assert_eq!(ambient_token().budget(), None);
            with_token(&inner, || {
                assert_eq!(ambient_token().budget(), Some(Duration::from_secs(9)));
            });
            assert_eq!(ambient_token().budget(), None);
        });
    }

    #[test]
    fn ambient_cancel_is_visible_through_the_clone() {
        let token = CancelToken::unbounded();
        with_token(&token, || {
            assert!(!ambient_token().cancelled());
            token.cancel();
            assert!(ambient_token().cancelled());
        });
    }
}
