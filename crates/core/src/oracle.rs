//! Oracle precharging: perfect, delay-free subarray identification.

use bitline_cache::{ActivityReport, PrechargePolicy, SubarrayActivity};

/// The oracle of the paper's Section 4: on every access, exactly the
/// accessed subarray is precharged, with no identification delay; the
/// subarray is isolated again as soon as the access completes.
///
/// The oracle bounds the achievable savings ("potential") — Figure 3. Even
/// the oracle does not save everything: short access intervals leave the
/// bitlines partially charged, so each re-precharge repays the episode
/// energy the transient model computes (`bitline-circuit`).
///
/// # Examples
///
/// ```
/// use bitline_cache::PrechargePolicy;
/// use gated_precharge::OraclePolicy;
///
/// let mut p = OraclePolicy::new(32);
/// assert_eq!(p.access(0, 10), 0, "the oracle never delays");
/// assert_eq!(p.access(0, 50), 0);
/// let r = p.finalize(100);
/// // Precharged only while accessed: 2 cycles out of 32 * 100.
/// assert!(r.precharged_fraction() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct OraclePolicy {
    /// Cycle of the last access per subarray (`u64::MAX` = never).
    last: Vec<u64>,
    acts: Vec<SubarrayActivity>,
}

impl OraclePolicy {
    /// Creates the oracle for a cache with `subarrays` subarrays.
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is zero.
    #[must_use]
    pub fn new(subarrays: usize) -> OraclePolicy {
        assert!(subarrays > 0, "cache must have at least one subarray");
        OraclePolicy {
            last: vec![u64::MAX; subarrays],
            acts: vec![SubarrayActivity::default(); subarrays],
        }
    }
}

impl PrechargePolicy for OraclePolicy {
    fn name(&self) -> String {
        "oracle".into()
    }

    fn access(&mut self, subarray: usize, cycle: u64) -> u32 {
        let a = &mut self.acts[subarray];
        a.accesses += 1;
        let last = self.last[subarray];
        if last == cycle {
            // Same-cycle port parallelism: already precharged for this
            // cycle.
            return 0;
        }
        a.pulled_up_cycles += 1.0;
        if last != u64::MAX {
            a.precharge_events += 1;
            if cycle > last + 1 {
                a.idle_histogram.record(cycle - last - 1);
            }
        }
        self.last[subarray] = cycle;
        0
    }

    fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
        ActivityReport {
            policy: self.name(),
            end_cycle,
            per_subarray: std::mem::take(&mut self.acts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pulled_up_only_while_accessed() {
        let mut p = OraclePolicy::new(2);
        p.access(0, 10);
        p.access(0, 20);
        p.access(1, 30);
        let r = p.finalize(1000);
        assert!((r.per_subarray[0].pulled_up_cycles - 2.0).abs() < 1e-12);
        assert!((r.per_subarray[1].pulled_up_cycles - 1.0).abs() < 1e-12);
    }

    #[test]
    fn episodes_track_access_intervals() {
        let mut p = OraclePolicy::new(1);
        p.access(0, 0);
        p.access(0, 100); // idle 99
        p.access(0, 101); // back-to-back: no idle gap recorded
        let r = p.finalize(200);
        assert_eq!(r.total_precharge_events(), 2);
        assert_eq!(r.idle_histogram().total(), 1);
    }

    #[test]
    fn same_cycle_accesses_do_not_double_count() {
        let mut p = OraclePolicy::new(1);
        p.access(0, 5);
        p.access(0, 5);
        let r = p.finalize(10);
        assert_eq!(r.total_accesses(), 2);
        assert!((r.total_pulled_up_cycles() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn never_delays() {
        let mut p = OraclePolicy::new(4);
        for c in 0..1000u64 {
            assert_eq!(p.access((c % 4) as usize, c * 7), 0);
        }
        assert_eq!(p.finalize(7000).total_delayed(), 0);
    }

    #[test]
    fn accounts_like_on_demand_but_never_delays() {
        // The gap between the two is exactly the pull-up cost that
        // leakage-biased bitlines [8] assume away.
        let mut oracle = OraclePolicy::new(4);
        let mut od = crate::OnDemandPolicy::new(4, 1);
        for c in (0..1000u64).step_by(7) {
            assert_eq!(oracle.access((c % 4) as usize, c), 0);
            let _ = od.access((c % 4) as usize, c);
        }
        let ro = oracle.finalize(1000);
        let rd = od.finalize(1000);
        // Same precharge events and episodes; only the delay differs.
        assert_eq!(ro.total_precharge_events(), rd.total_precharge_events());
        assert_eq!(ro.idle_histogram().total(), rd.idle_histogram().total());
        assert_eq!(ro.total_delayed(), 0);
        assert!(rd.total_delayed() > 0);
    }
}
