//! Gated precharging — the paper's contribution (Section 6).

use bitline_cache::{ActivityReport, PrechargePolicy, SubarrayActivity};

/// Gated precharging: a per-subarray decay counter keeps recently accessed
/// ("hot") subarrays precharged and isolates the rest.
///
/// Hardware model (paper Figure 7): one decay counter per subarray, reset
/// on access, incremented every cycle, compared to `threshold`. While the
/// counter is below the threshold the subarray stays precharged; once it
/// saturates the subarray is isolated, and the next access pays `penalty`
/// cycles of bitline pull-up. The implementation here is the exact lazy
/// equivalent: a subarray is hot during `(last_event, last_event +
/// threshold]`.
///
/// Predecoding (Section 6.3) integrates through [`PrechargePolicy::hint`]:
/// a hint pulls the predicted subarray up for a short window
/// ([`HINT_WINDOW`] cycles — just ahead of the hinted access), so correct
/// hints remove the cold-access delay while wrong hints waste only a short
/// pull-up in the wrong subarray, exactly the paper's trade-off.
///
/// # Examples
///
/// ```
/// use bitline_cache::PrechargePolicy;
/// use gated_precharge::GatedPolicy;
///
/// let mut p = GatedPolicy::new(32, 100, 1);
/// p.access(7, 10);
/// // Subarray 7 decays cold at 110. A predecode hint re-warms it...
/// p.hint(7, 300);
/// // ...so the access a few cycles later is not delayed.
/// assert_eq!(p.access(7, 305), 0);
/// ```
#[derive(Debug, Clone)]
pub struct GatedPolicy {
    threshold: u64,
    penalty: u32,
    /// Cycle of the last warming event (access or hint) per subarray.
    last: Vec<u64>,
    /// Width of the precharge window opened by the last event: the decay
    /// threshold for accesses, [`HINT_WINDOW`] for predecode hints.
    window: Vec<u64>,
    acts: Vec<SubarrayActivity>,
    hints: u64,
    hint_precharges: u64,
}

/// Cycles a predecode hint keeps the predicted subarray precharged: long
/// enough to cover dispatch-to-issue of the hinted access, short enough
/// that a misprediction wastes little energy (Section 6.3).
pub const HINT_WINDOW: u64 = 24;

impl GatedPolicy {
    /// Creates the policy for `subarrays` subarrays with a decay
    /// `threshold` in cycles and a cold-access `penalty` in cycles
    /// (normally 1; see
    /// [`bitline_circuit::DecoderModel::cold_access_penalty_cycles`]).
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is zero or `threshold` is zero.
    #[must_use]
    pub fn new(subarrays: usize, threshold: u64, penalty: u32) -> GatedPolicy {
        assert!(subarrays > 0, "cache must have at least one subarray");
        assert!(threshold > 0, "threshold must be positive");
        GatedPolicy {
            threshold,
            penalty,
            // All subarrays start precharged (conventional reset state):
            // hot until `threshold`.
            last: vec![0; subarrays],
            window: vec![threshold; subarrays],
            acts: vec![SubarrayActivity::default(); subarrays],
            hints: 0,
            hint_precharges: 0,
        }
    }

    /// The decay threshold in cycles.
    #[must_use]
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Retunes the decay threshold for later accesses. Windows already
    /// open keep the width they opened with, so no subarray turns cold or
    /// hot at the change itself.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub(crate) fn set_threshold(&mut self, threshold: u64) {
        assert!(threshold > 0, "threshold must be positive");
        self.threshold = threshold;
    }

    /// Total predecode hints received.
    #[must_use]
    pub fn hints(&self) -> u64 {
        self.hints
    }

    /// Hints that actually precharged a cold subarray.
    #[must_use]
    pub fn hint_precharges(&self) -> u64 {
        self.hint_precharges
    }

    /// Warms `subarray` at `cycle`, opening a precharge window of
    /// `new_window` cycles; returns whether it was cold.
    fn warm(&mut self, subarray: usize, cycle: u64, new_window: u64) -> bool {
        let last = self.last[subarray];
        let a = &mut self.acts[subarray];
        let hot_end = last.saturating_add(self.window[subarray]);
        let was_cold = cycle > hot_end;
        if was_cold {
            a.pulled_up_cycles += self.window[subarray] as f64;
            a.precharge_events += 1;
            a.idle_histogram.record(cycle - hot_end);
        } else {
            a.pulled_up_cycles += cycle.saturating_sub(last) as f64;
        }
        self.last[subarray] = cycle;
        // A short hint window must never truncate a longer window already
        // in force (a hint to a hot subarray is a no-op for energy).
        let remaining = if was_cold { 0 } else { hot_end.saturating_sub(cycle) };
        self.window[subarray] = new_window.max(remaining);
        was_cold
    }
}

impl PrechargePolicy for GatedPolicy {
    fn name(&self) -> String {
        format!("gated(t={})", self.threshold)
    }

    fn access(&mut self, subarray: usize, cycle: u64) -> u32 {
        let was_cold = self.warm(subarray, cycle, self.threshold);
        let a = &mut self.acts[subarray];
        a.accesses += 1;
        if was_cold {
            a.delayed_accesses += 1;
            self.penalty
        } else {
            0
        }
    }

    fn access_with_prediction(&mut self, subarray: usize, predicted: usize, cycle: u64) -> u32 {
        self.hints += 1;
        if predicted != subarray {
            // The mispredicted subarray was pulled up for nothing: charge
            // its (short) pull-up window.
            if self.warm(predicted, cycle, HINT_WINDOW) {
                self.hint_precharges += 1;
            }
            // The actual subarray gets no head start.
            return self.access(subarray, cycle);
        }
        // Correct prediction: the pull-up started during address
        // calculation, so even a cold subarray is ready in time.
        let was_cold = self.warm(subarray, cycle, self.threshold);
        let a = &mut self.acts[subarray];
        a.accesses += 1;
        if was_cold {
            self.hint_precharges += 1;
        }
        0
    }

    fn hint(&mut self, subarray: usize, cycle: u64) {
        self.hints += 1;
        if self.warm(subarray, cycle, HINT_WINDOW) {
            self.hint_precharges += 1;
        }
    }

    fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
        let mut per_subarray = std::mem::take(&mut self.acts);
        for (s, act) in per_subarray.iter_mut().enumerate() {
            let last = self.last[s];
            let hot_end = last.saturating_add(self.window[s]).min(end_cycle);
            act.pulled_up_cycles += hot_end.saturating_sub(last) as f64;
        }
        ActivityReport { policy: self.name(), end_cycle, per_subarray }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_accesses_are_free_cold_accesses_pay() {
        let mut p = GatedPolicy::new(4, 100, 1);
        assert_eq!(p.access(0, 50), 0, "within the initial hot window");
        assert_eq!(p.access(0, 149), 0, "re-warmed at 50, hot until 150");
        assert_eq!(p.access(0, 251), 1, "cold: last warm 149 + 100 < 251");
    }

    #[test]
    fn pulled_up_time_accrues_only_while_hot() {
        let mut p = GatedPolicy::new(1, 100, 1);
        p.access(0, 0);
        p.access(0, 60); // +60
        p.access(0, 400); // cold: +100 (decay window), episode idle 240
        let r = p.finalize(400); // trailing: capped at end_cycle
                                 // 0 (first) + 60 + 100 + 0 trailing (end == last access).
        assert!(
            (r.total_pulled_up_cycles() - 160.0).abs() < 1e-12,
            "{}",
            r.total_pulled_up_cycles()
        );
        assert_eq!(r.total_precharge_events(), 1);
    }

    #[test]
    fn trailing_hot_window_is_capped_by_end_of_run() {
        let mut p = GatedPolicy::new(1, 100, 1);
        p.access(0, 10);
        let r = p.finalize(50);
        // Hot from 10 to 50 (run ends before decay).
        assert!((r.total_pulled_up_cycles() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn episode_idle_excludes_the_decay_window() {
        let mut p = GatedPolicy::new(1, 100, 1);
        p.access(0, 0);
        p.access(0, 1000);
        let r = p.finalize(1100);
        // Idle = 1000 - (0 + 100) = 900 -> bucket [512,1024).
        let buckets: Vec<(f64, u64)> = r.idle_histogram().iter().collect();
        assert_eq!(buckets.len(), 1);
        assert!((buckets[0].0 - 768.0).abs() < 1e-12);
    }

    #[test]
    fn correct_hints_remove_the_delay() {
        let mut p = GatedPolicy::new(8, 100, 1);
        p.access(2, 0);
        // Subarray 2 goes cold at 100. Hint at 300 precharges it.
        p.hint(2, 300);
        assert_eq!(p.access(2, 302), 0);
        assert_eq!(p.hints(), 1);
        assert_eq!(p.hint_precharges(), 1);
    }

    #[test]
    fn wrong_hints_burn_energy_in_the_wrong_subarray() {
        let mut p = GatedPolicy::new(8, 100, 1);
        p.access(1, 0);
        p.hint(5, 500); // misprediction: subarray 5 is warmed for nothing
        let r = p.finalize(1000);
        assert!(r.per_subarray[5].pulled_up_cycles > 0.0);
        assert_eq!(r.per_subarray[5].accesses, 0);
    }

    #[test]
    fn small_threshold_isolates_more_aggressively() {
        let run = |threshold: u64| -> f64 {
            let mut p = GatedPolicy::new(4, threshold, 1);
            for c in (0..10_000u64).step_by(50) {
                p.access(0, c);
            }
            p.finalize(10_000).precharged_fraction()
        };
        // Access every 50 cycles: threshold 10 isolates between accesses,
        // threshold 1000 never does.
        assert!(run(10) < 0.1);
        assert!(run(1000) > 0.24, "subarray 0 of 4 always hot = 0.25");
    }

    #[test]
    fn delayed_fraction_falls_with_larger_thresholds() {
        let frac = |threshold: u64| -> f64 {
            let mut p = GatedPolicy::new(4, threshold, 1);
            for c in (0..100_000u64).step_by(73) {
                p.access((c % 4) as usize, c);
            }
            p.finalize(100_000).delayed_fraction()
        };
        assert!(frac(1000) < frac(10));
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn rejects_zero_threshold() {
        let _ = GatedPolicy::new(4, 0, 1);
    }

    #[test]
    fn a_retuned_threshold_only_sizes_windows_opened_after_it() {
        let mut p = GatedPolicy::new(2, 100, 1);
        p.access(0, 10); // hot until 110
        p.set_threshold(5);
        assert_eq!(p.threshold(), 5);
        assert_eq!(p.name(), "gated(t=5)");
        assert_eq!(p.access(0, 109), 0, "the window opened at 10 keeps its 100 cycles");
        assert_eq!(p.access(0, 115), 1, "the window opened at 109 is 5 cycles wide");
        p.set_threshold(1_000);
        assert_eq!(p.access(1, 500), 1, "a raise reopens no window that closed at 100");
        assert_eq!(p.access(1, 1_400), 0, "the window opened at 500 is 1 000 cycles wide");
        let r = p.finalize(2_000);
        // Subarray 0 is hot over (0, 114] and (115, 120]; subarray 1 over
        // (0, 100] and (500, 2 000].
        assert_eq!(r.per_subarray[0].pulled_up_cycles, 119.0);
        assert_eq!(r.per_subarray[1].pulled_up_cycles, 1_600.0);
        assert_eq!(r.total_delayed(), 2);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn set_threshold_rejects_zero() {
        GatedPolicy::new(4, 100, 1).set_threshold(0);
    }
}
