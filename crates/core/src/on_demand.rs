//! On-demand precharging: accurate but untimely (Section 5).

use bitline_cache::{ActivityReport, PrechargePolicy, SubarrayActivity};

/// On-demand precharging: all subarrays idle isolated; each access partially
/// decodes the address and precharges the accessed subarray on demand.
///
/// Table 3 shows the worst-case bitline pull-up always exceeds the
/// final-decode stage, the maximum margin under which it could hide, so
/// *every* access pays a pull-up penalty (one cycle at the paper's design
/// points). This is what makes on-demand precharging non-viable for L1s —
/// 9% (D) / 7% (I) average slowdown in the paper.
///
/// # Examples
///
/// ```
/// use bitline_cache::PrechargePolicy;
/// use gated_precharge::OnDemandPolicy;
///
/// let mut p = OnDemandPolicy::new(32, 1);
/// assert_eq!(p.access(0, 10), 1, "every access pays the pull-up");
/// assert_eq!(p.access(0, 11), 1);
/// ```
#[derive(Debug, Clone)]
pub struct OnDemandPolicy {
    penalty: u32,
    last: Vec<u64>,
    acts: Vec<SubarrayActivity>,
}

impl OnDemandPolicy {
    /// Creates the policy; `penalty` is the pull-up delay in cycles
    /// (normally [`bitline_circuit::DecoderModel::on_demand_penalty_cycles`],
    /// i.e. 1).
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is zero.
    #[must_use]
    pub fn new(subarrays: usize, penalty: u32) -> OnDemandPolicy {
        assert!(subarrays > 0, "cache must have at least one subarray");
        OnDemandPolicy {
            penalty,
            last: vec![u64::MAX; subarrays],
            acts: vec![SubarrayActivity::default(); subarrays],
        }
    }
}

impl PrechargePolicy for OnDemandPolicy {
    fn name(&self) -> String {
        format!("on-demand(+{})", self.penalty)
    }

    fn access(&mut self, subarray: usize, cycle: u64) -> u32 {
        let a = &mut self.acts[subarray];
        a.accesses += 1;
        let last = self.last[subarray];
        if last == cycle {
            return 0; // port-parallel access to the just-precharged subarray
        }
        a.pulled_up_cycles += 1.0 + f64::from(self.penalty);
        if self.penalty > 0 {
            a.delayed_accesses += 1;
        }
        if last != u64::MAX {
            a.precharge_events += 1;
            if cycle > last + 1 {
                a.idle_histogram.record(cycle - last - 1);
            }
        }
        self.last[subarray] = cycle;
        self.penalty
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
    fn every_distinct_cycle_access_is_delayed() {
        let mut p = OnDemandPolicy::new(2, 1);
        assert_eq!(p.access(0, 1), 1);
        assert_eq!(p.access(0, 1), 0, "same cycle shares the precharge");
        assert_eq!(p.access(0, 2), 1);
        let r = p.finalize(10);
        assert_eq!(r.total_delayed(), 2);
    }

    #[test]
    fn pulled_up_time_is_access_plus_penalty() {
        let mut p = OnDemandPolicy::new(1, 1);
        p.access(0, 5);
        p.access(0, 50);
        let r = p.finalize(100);
        assert!((r.total_pulled_up_cycles() - 4.0).abs() < 1e-12);
        assert!(r.precharged_fraction() < 0.05);
    }

    #[test]
    fn custom_penalty_is_returned() {
        let mut p = OnDemandPolicy::new(1, 2);
        assert_eq!(p.access(0, 3), 2);
    }

    #[test]
    fn at_zero_penalty_it_accounts_exactly_like_the_oracle() {
        // Leakage-biased bitlines [8] assume the pull-up hides under
        // decode: on-demand at penalty 0, which is the oracle.
        let mut od = OnDemandPolicy::new(4, 0);
        let mut oracle = crate::OraclePolicy::new(4);
        for c in (0..1000u64).step_by(7) {
            // Two accesses per cycle; they share a subarray when c % 12 < 3.
            for s in [c % 4, c % 3] {
                assert_eq!(od.access(s as usize, c), 0);
                assert_eq!(oracle.access(s as usize, c), 0);
            }
        }
        let (od, oracle) = (od.finalize(1000), oracle.finalize(1000));
        assert_eq!(od.end_cycle, oracle.end_cycle);
        assert_eq!(od.per_subarray, oracle.per_subarray, "only the name differs");
        assert_ne!(od.policy, oracle.policy);
    }
}
