//! Deadlines and cooperative cancellation for units of work.
//!
//! A [`CancelToken`] is the handshake between a supervisor (`bitline-sim`'s
//! experiment harness, which arms one per attempt of a run) and the unit
//! of work it supervises: the supervisor creates the token with an
//! optional wall-clock budget, the worker polls [`CancelToken::cancelled`]
//! at natural checkpoint boundaries (the simulator polls every few
//! thousand committed instructions) and bails out *cooperatively* when the
//! budget is exhausted or an explicit [`CancelToken::cancel`] arrived.
//! Nothing is ever killed mid-update, so a cancelled unit leaves no torn
//! state behind — it simply returns a timeout error instead of a result.
//!
//! Polling is cheap: one relaxed atomic load, plus one `Instant::now()`
//! when a budget is armed. Tokens are `Clone` (clones share the cancel
//! flag) and `Send + Sync`, so a supervisor thread can cancel a unit
//! running on a pool worker.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation token: an explicit cancel flag plus an
/// optional wall-clock budget anchored at creation.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use bitline_exec::CancelToken;
///
/// let unbounded = CancelToken::unbounded();
/// assert!(!unbounded.cancelled());
///
/// let expired = CancelToken::with_budget(Duration::ZERO);
/// assert!(expired.cancelled(), "zero budget expires immediately");
///
/// let flagged = CancelToken::unbounded();
/// flagged.cancel();
/// assert!(flagged.cancelled());
/// ```
#[derive(Debug, Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    started: Instant,
    budget: Option<Duration>,
}

impl CancelToken {
    /// A token that expires `budget` after creation, or only cancels on
    /// an explicit [`CancelToken::cancel`] when `budget` is `None`.
    #[must_use]
    pub fn for_budget(budget: Option<Duration>) -> CancelToken {
        CancelToken { flag: Arc::new(AtomicBool::new(false)), started: Instant::now(), budget }
    }

    /// A token that only cancels on an explicit [`CancelToken::cancel`].
    #[must_use]
    pub fn unbounded() -> CancelToken {
        CancelToken::for_budget(None)
    }

    /// A token that expires `budget` after creation.
    #[must_use]
    pub fn with_budget(budget: Duration) -> CancelToken {
        CancelToken::for_budget(Some(budget))
    }

    /// Requests cancellation; every clone of this token observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the unit should stop: explicitly cancelled or past its
    /// budget.
    #[must_use]
    pub fn cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
            || self.budget.is_some_and(|b| self.started.elapsed() >= b)
    }

    /// The wall-clock budget this token was created with (`None` =
    /// unbounded).
    #[must_use]
    pub fn budget(&self) -> Option<Duration> {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_expires() {
        let t = CancelToken::unbounded();
        assert!(!t.cancelled());
        assert_eq!(t.budget(), None);
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let t = CancelToken::with_budget(Duration::ZERO);
        assert!(t.cancelled());
        assert_eq!(t.budget(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_budget_is_not_expired_yet() {
        let t = CancelToken::with_budget(Duration::from_secs(3600));
        assert!(!t.cancelled());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::unbounded();
        let clone = t.clone();
        t.cancel();
        assert!(clone.cancelled());
    }

    #[test]
    fn for_budget_maps_none_to_unbounded() {
        assert_eq!(CancelToken::for_budget(None).budget(), None);
        assert_eq!(
            CancelToken::for_budget(Some(Duration::from_millis(5))).budget(),
            Some(Duration::from_millis(5))
        );
    }
}
