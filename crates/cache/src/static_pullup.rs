//! The conventional baseline: every subarray statically pulled up.

use crate::policy::{ActivityReport, PrechargePolicy, SubarrayActivity};

/// Static pull-up: precharge devices always on, in every subarray.
///
/// This is the conventional high-performance design the paper measures
/// against: zero delay, maximal bitline discharge. It is also the policy
/// of every cache whose precharge is not under study, such as the stock
/// L2 [`MemorySystem::new`](crate::MemorySystem::new) builds.
///
/// # Examples
///
/// ```
/// use bitline_cache::{PrechargePolicy, StaticPullUp};
///
/// let mut p = StaticPullUp::new(32);
/// assert_eq!(p.access(3, 7), 0);
/// let r = p.finalize(1_000);
/// assert!((r.precharged_fraction() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct StaticPullUp {
    acts: Vec<SubarrayActivity>,
}

impl StaticPullUp {
    /// Creates the baseline for a cache with `subarrays` subarrays.
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is zero.
    #[must_use]
    pub fn new(subarrays: usize) -> StaticPullUp {
        assert!(subarrays > 0, "cache must have at least one subarray");
        StaticPullUp { acts: vec![SubarrayActivity::default(); subarrays] }
    }
}

impl PrechargePolicy for StaticPullUp {
    fn name(&self) -> String {
        "static-pullup".into()
    }

    fn access(&mut self, subarray: usize, _cycle: u64) -> u32 {
        self.acts[subarray].accesses += 1;
        0
    }

    fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
        let mut per_subarray = std::mem::take(&mut self.acts);
        for s in &mut per_subarray {
            s.pulled_up_cycles = end_cycle as f64;
        }
        ActivityReport { policy: self.name(), end_cycle, per_subarray }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_delays_and_counts_accesses() {
        let mut p = StaticPullUp::new(4);
        for c in 0..100 {
            assert_eq!(p.access((c % 4) as usize, c), 0);
        }
        let r = p.finalize(100);
        assert_eq!(r.total_accesses(), 100);
        assert_eq!(r.total_delayed(), 0);
        assert_eq!(r.total_precharge_events(), 0);
    }

    #[test]
    fn every_subarray_pulled_up_for_the_whole_run() {
        let mut p = StaticPullUp::new(8);
        p.access(0, 5);
        let r = p.finalize(1234);
        for s in &r.per_subarray {
            assert!((s.pulled_up_cycles - 1234.0).abs() < 1e-12);
        }
        assert!((r.precharged_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one subarray")]
    fn rejects_zero_subarrays() {
        let _ = StaticPullUp::new(0);
    }
}
