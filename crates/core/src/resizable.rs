//! Resizable-cache baseline (Yang et al., HPCA 2002; the paper's [22]).

use bitline_cache::{
    ActivityReport, CacheConfig, PrechargePolicy, ResizeRequest, SubarrayActivity,
};
use serde::{Deserialize, Serialize};

/// Parameters of the resizable-cache controller.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ResizableConfig {
    /// Accesses per monitoring interval (the paper resizes roughly every
    /// million instructions; the driver scales this to the run length).
    pub interval_accesses: u64,
    /// Tolerated absolute miss-ratio increase over the full-size reference
    /// before the controller upsizes.
    pub miss_ratio_slack: f64,
    /// Intervals to wait after an upsize before trying to shrink again.
    pub cooldown_intervals: u32,
}

impl Default for ResizableConfig {
    fn default() -> Self {
        ResizableConfig {
            interval_accesses: 100_000,
            miss_ratio_slack: 0.004,
            cooldown_intervals: 4,
        }
    }
}

/// The resizable-cache precharge baseline.
///
/// Resizable caches monitor the miss ratio every interval and resize the
/// cache in powers of two (dropping a way first, then halving sets); the
/// bitlines of inactive subarrays are isolated, and the active ones use
/// static pull-up — so there is never a pull-up delay, but:
///
/// * granularity is coarse (whole groups of subarrays),
/// * adaptation is slow (one step per interval), and
/// * downsizing causes remapping/conflict misses (the surrounding
///   [`bitline_cache::L1Cache`] invalidates on resize),
///
/// which is why the paper finds them unable to exploit the full potential
/// of bitline isolation (Section 6.4, Figure 9).
///
/// # Examples
///
/// ```
/// use bitline_cache::{CacheConfig, PrechargePolicy};
/// use gated_precharge::{ResizableConfig, ResizablePolicy};
///
/// let cfg = ResizableConfig { interval_accesses: 100, ..Default::default() };
/// let mut p = ResizablePolicy::new(&CacheConfig::l1_data(), cfg);
/// assert_eq!(p.access(0, 1), 0, "active subarrays never delay");
/// ```
#[derive(Debug, Clone)]
pub struct ResizablePolicy {
    cfg: ResizableConfig,
    /// Capacity ladder, largest first: `(active_sets, active_ways)`.
    ladder: Vec<(usize, usize)>,
    /// Current position on the ladder (0 = full size).
    level: usize,
    /// Level requested but not yet acknowledged via `notify_resize`.
    pending: Option<usize>,
    subarrays: usize,
    // Interval bookkeeping.
    interval_accesses: u64,
    interval_misses: u64,
    reference_miss_ratio: Option<f64>,
    cooldown: u32,
    resized_up: u64,
    resized_down: u64,
    // Pulled-up integration.
    active_subarrays: usize,
    way_fraction: f64,
    last_cycle: u64,
    pulled_subarray_cycles: f64,
    acts: Vec<SubarrayActivity>,
}

impl ResizablePolicy {
    /// Builds the controller for a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if the cache has fewer sets than one subarray's worth.
    #[must_use]
    pub fn new(cache: &CacheConfig, cfg: ResizableConfig) -> ResizablePolicy {
        let sets = cache.sets();
        let min_sets = cache.sets_per_subarray();
        assert!(sets >= min_sets, "cache smaller than one subarray");
        // Ladder: drop ways first (cheapest capacity step), then halve sets.
        let mut ladder = Vec::new();
        for ways in (1..=cache.assoc).rev() {
            ladder.push((sets, ways));
        }
        let mut s = sets / 2;
        while s >= min_sets {
            ladder.push((s, 1));
            s /= 2;
        }
        ResizablePolicy {
            cfg,
            ladder,
            level: 0,
            pending: None,
            subarrays: cache.subarrays(),
            interval_accesses: 0,
            interval_misses: 0,
            reference_miss_ratio: None,
            cooldown: 0,
            resized_up: 0,
            resized_down: 0,
            active_subarrays: cache.subarrays(),
            way_fraction: 1.0,
            last_cycle: 0,
            pulled_subarray_cycles: 0.0,
            acts: vec![SubarrayActivity::default(); cache.subarrays()],
        }
    }

    /// Current ladder level (0 = full size).
    #[must_use]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Upsizes performed.
    #[must_use]
    pub fn resized_up(&self) -> u64 {
        self.resized_up
    }

    /// Downsizes performed.
    #[must_use]
    pub fn resized_down(&self) -> u64 {
        self.resized_down
    }

    fn integrate_to(&mut self, cycle: u64) {
        let dt = cycle.saturating_sub(self.last_cycle) as f64;
        self.pulled_subarray_cycles += dt * self.active_subarrays as f64 * self.way_fraction;
        self.last_cycle = cycle.max(self.last_cycle);
    }

    fn end_interval(&mut self) {
        let m = self.interval_misses as f64 / self.interval_accesses.max(1) as f64;
        self.interval_accesses = 0;
        self.interval_misses = 0;
        if self.level == 0 {
            // At full size: refresh the reference (exponential average so a
            // phase change does not pin an unrepresentative value).
            self.reference_miss_ratio = Some(match self.reference_miss_ratio {
                None => m,
                Some(r) => 0.5 * r + 0.5 * m,
            });
        }
        let reference = self.reference_miss_ratio.unwrap_or(m);
        let in_cooldown = self.cooldown > 0;
        if in_cooldown {
            self.cooldown -= 1;
        }
        if m > reference + self.cfg.miss_ratio_slack {
            if self.level > 0 {
                self.pending = Some(self.level - 1);
                self.resized_up += 1;
                self.cooldown = self.cfg.cooldown_intervals;
            }
        } else if !in_cooldown && self.level + 1 < self.ladder.len() {
            self.pending = Some(self.level + 1);
            self.resized_down += 1;
        }
    }
}

impl PrechargePolicy for ResizablePolicy {
    fn name(&self) -> String {
        format!("resizable(i={})", self.cfg.interval_accesses)
    }

    fn access(&mut self, subarray: usize, cycle: u64) -> u32 {
        self.integrate_to(cycle);
        self.acts[subarray].accesses += 1;
        0
    }

    fn observe_outcome(&mut self, hit: bool) {
        self.interval_accesses += 1;
        if !hit {
            self.interval_misses += 1;
        }
        if self.interval_accesses >= self.cfg.interval_accesses {
            self.end_interval();
        }
    }

    fn resize_request(&mut self) -> Option<ResizeRequest> {
        let level = self.pending.take()?;
        self.level = level;
        let (active_sets, active_ways) = self.ladder[level];
        Some(ResizeRequest { active_sets, active_ways })
    }

    fn notify_resize(&mut self, active_subarrays: usize, way_fraction: f64, cycle: u64) {
        self.integrate_to(cycle);
        if active_subarrays > self.active_subarrays {
            // Re-precharging previously isolated subarrays: record the
            // switching episodes (rare by design; their energy overhead is
            // what the large interval amortises).
            let woken = active_subarrays - self.active_subarrays;
            for s in 0..woken.min(self.subarrays) {
                self.acts[s].precharge_events += 1;
                self.acts[s].idle_histogram.record(self.cfg.interval_accesses.max(1));
            }
        }
        self.active_subarrays = active_subarrays.min(self.subarrays);
        self.way_fraction = way_fraction.clamp(0.0, 1.0);
    }

    fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
        self.integrate_to(end_cycle);
        let mut per_subarray = std::mem::take(&mut self.acts);
        // Spread the integrated pull-up evenly; the energy accounting only
        // uses totals and the histogram.
        let share = self.pulled_subarray_cycles / per_subarray.len() as f64;
        for s in &mut per_subarray {
            s.pulled_up_cycles = share;
        }
        ActivityReport { policy: self.name(), end_cycle, per_subarray }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(interval: u64) -> ResizablePolicy {
        ResizablePolicy::new(
            &CacheConfig::l1_data(),
            ResizableConfig {
                interval_accesses: interval,
                miss_ratio_slack: 0.01,
                cooldown_intervals: 2,
            },
        )
    }

    #[test]
    fn ladder_spans_ways_then_sets() {
        let p = policy(100);
        assert_eq!(p.ladder[0], (512, 2));
        assert_eq!(p.ladder[1], (512, 1));
        assert_eq!(p.ladder[2], (256, 1));
        assert_eq!(*p.ladder.last().unwrap(), (16, 1), "one subarray minimum");
    }

    #[test]
    fn low_miss_ratio_triggers_downsizing() {
        let mut p = policy(100);
        let mut cycle = 0;
        let mut requests = 0;
        for _ in 0..1000 {
            cycle += 3;
            p.access(0, cycle);
            p.observe_outcome(true); // perfect hit stream
            if p.resize_request().is_some() {
                requests += 1;
            }
        }
        assert!(requests >= 2, "should have shrunk repeatedly, got {requests}");
        assert!(p.level() >= 2);
    }

    #[test]
    fn miss_spike_triggers_upsizing() {
        let mut p = policy(100);
        let mut cycle = 0;
        // First: shrink once on a clean interval.
        for _ in 0..100 {
            cycle += 3;
            p.access(0, cycle);
            p.observe_outcome(true);
        }
        assert!(p.resize_request().is_some());
        let shrunk = p.level();
        assert!(shrunk > 0);
        // Now: a miss-heavy interval drives it back up.
        for _ in 0..100 {
            cycle += 3;
            p.access(0, cycle);
            p.observe_outcome(false);
        }
        let req = p.resize_request().expect("should upsize");
        assert!(req.active_sets * req.active_ways > 16, "moved up the ladder");
        assert!(p.level() < shrunk);
        assert_eq!(p.resized_up(), 1);
    }

    #[test]
    fn cooldown_prevents_thrashing() {
        let mut p = policy(100);
        let mut cycle = 0;
        let mut run_interval = |p: &mut ResizablePolicy, hit: bool| {
            for _ in 0..100 {
                cycle += 1;
                p.access(0, cycle);
                p.observe_outcome(hit);
            }
            p.resize_request()
        };
        assert!(run_interval(&mut p, true).is_some()); // down
        assert!(run_interval(&mut p, false).is_some()); // up + cooldown
                                                        // During cooldown, clean intervals must not shrink again.
        assert!(run_interval(&mut p, true).is_none());
        assert!(run_interval(&mut p, true).is_none());
        assert!(run_interval(&mut p, true).is_some(), "cooldown expired");
    }

    #[test]
    fn pulled_up_tracks_active_fraction() {
        let mut p = policy(1_000_000);
        p.access(0, 0);
        // Halve the subarrays at cycle 1000 (cache acknowledges).
        p.notify_resize(16, 1.0, 1000);
        let r = p.finalize(2000);
        // 1000 cycles * 32 + 1000 cycles * 16 = 48_000 subarray-cycles.
        assert!((r.total_pulled_up_cycles() - 48_000.0).abs() < 1e-6);
        assert!((r.precharged_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn never_delays_accesses() {
        let mut p = policy(10);
        for c in 0..500u64 {
            assert_eq!(p.access((c % 32) as usize, c), 0);
            p.observe_outcome(c % 3 == 0);
            let _ = p.resize_request();
        }
    }
}
