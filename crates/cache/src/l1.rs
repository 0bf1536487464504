//! Set-associative L1 cache with subarray precharge accounting.

use crate::config::CacheConfig;
use crate::policy::{ActivityReport, FaultEvent, PrechargePolicy, ResizeRequest};
use crate::waypred::{WayPredictor, WayStats};

/// One tag-array entry.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    lru: u64,
}

/// Result of one L1 access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the access hit in the tag array.
    pub hit: bool,
    /// Extra cycles spent waiting for bitline pull-up (0 when the subarray
    /// was precharged).
    pub extra_latency: u32,
    /// Data subarray the access touched.
    pub subarray: usize,
}

/// A set-associative L1 cache with a pluggable [`PrechargePolicy`].
///
/// The tag array is modelled functionally (LRU replacement, write-back
/// write-allocate); fill latencies are the responsibility of the
/// surrounding [`crate::MemorySystem`]. The cache supports dynamic resizing
/// (fewer active sets and/or ways) for the resizable-cache baseline; a
/// resize invalidates the whole array, modelling the remapping misses that
/// the paper charges to resizable caches (Section 6.4).
///
/// Every geometry is a power of two, so an address maps to its line, set,
/// tag and data subarray by shifts and masks fixed at construction (the
/// set shift follows each resize) — no division on the access path.
///
/// # Examples
///
/// ```
/// use bitline_cache::{CacheConfig, L1Cache, PrechargePolicy, ActivityReport};
///
/// struct Always;
/// impl PrechargePolicy for Always {
///     fn name(&self) -> String { "always".into() }
///     fn access(&mut self, _s: usize, _c: u64) -> u32 { 0 }
///     fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
///         ActivityReport { policy: self.name(), end_cycle, per_subarray: vec![] }
///     }
/// }
///
/// let mut l1 = L1Cache::new(CacheConfig::l1_data(), Box::new(Always));
/// let first = l1.access(0x1000, false, 10);
/// assert!(!first.hit);
/// let again = l1.access(0x1000, false, 11);
/// assert!(again.hit);
/// ```
pub struct L1Cache {
    config: CacheConfig,
    /// The tag array, flat: way `w` of set `s` is `lines[s * assoc + w]`.
    lines: Vec<Line>,
    active_sets: usize,
    active_ways: usize,
    /// `log2(line_bytes)`: address to line number.
    line_shift: u32,
    /// `log2(active_sets)`: line number to tag (the set is the low bits).
    set_shift: u32,
    /// `log2(sets_per_subarray)`: set to data subarray.
    sub_shift: u32,
    policy: Box<dyn PrechargePolicy>,
    way_predictor: Option<WayPredictor>,
    lru_clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
    resizes: u64,
    upset_replays: u64,
    silent_upsets: u64,
    ecc_corrections: u64,
    fault_retry_cycles: u64,
}

impl std::fmt::Debug for L1Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("L1Cache")
            .field("config", &self.config)
            .field("active_sets", &self.active_sets)
            .field("active_ways", &self.active_ways)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish_non_exhaustive()
    }
}

impl L1Cache {
    /// Creates the cache at full size.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if the line size, the number of sets or
    /// the sets per subarray is not a power of two.
    #[must_use]
    pub fn new(config: CacheConfig, policy: Box<dyn PrechargePolicy>) -> L1Cache {
        let sets = config.sets();
        for (what, value) in [
            ("line_bytes", config.line_bytes),
            ("sets = size_bytes / (assoc * line_bytes)", sets),
            ("sets per subarray = sets * subarray_bytes / size_bytes", config.sets_per_subarray()),
        ] {
            assert!(value.is_power_of_two(), "{what} = {value}: not a power of two");
        }
        L1Cache {
            active_sets: sets,
            active_ways: config.assoc,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            sub_shift: config.sets_per_subarray().trailing_zeros(),
            lines: vec![Line::default(); sets * config.assoc],
            way_predictor: config.way_prediction.then(|| WayPredictor::new(sets, config.assoc)),
            config,
            policy,
            lru_clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
            resizes: 0,
            upset_replays: 0,
            silent_upsets: 0,
            ecc_corrections: 0,
            fault_retry_cycles: 0,
        }
    }

    /// The cache configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Performs one access (lookup + fill on miss) at `cycle`.
    pub fn access(&mut self, addr: u64, is_write: bool, cycle: u64) -> AccessResult {
        self.access_inner(addr, None, is_write, cycle)
    }

    /// Performs one access carrying a predecode prediction: the subarray
    /// computed from `predicted_addr` (the base-register value) may have
    /// been pulled up during address calculation (Section 6.3).
    pub fn access_predicted(
        &mut self,
        addr: u64,
        predicted_addr: u64,
        is_write: bool,
        cycle: u64,
    ) -> AccessResult {
        self.access_inner(addr, Some(predicted_addr), is_write, cycle)
    }

    /// Line number of `addr`: the address divided by the line size.
    #[inline]
    #[must_use]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Where `addr` lives at the current size: `(set, tag, subarray)`.
    #[inline]
    #[must_use]
    pub fn locate(&self, addr: u64) -> (usize, u64, usize) {
        let line = self.line_of(addr);
        let set = line as usize & (self.active_sets - 1);
        (set, line >> self.set_shift, set >> self.sub_shift)
    }

    fn access_inner(
        &mut self,
        addr: u64,
        predicted_addr: Option<u64>,
        is_write: bool,
        cycle: u64,
    ) -> AccessResult {
        let (set_idx, tag, subarray) = self.locate(addr);
        let mut extra_latency = match predicted_addr {
            Some(p) => {
                let predicted = self.locate(p).2;
                self.policy.access_with_prediction(subarray, predicted, cycle)
            }
            None => self.policy.access(subarray, cycle),
        };

        self.lru_clock += 1;
        let ways = self.active_ways;
        let first = set_idx * self.config.assoc;
        let set = &mut self.lines[first..first + ways];
        let hit_way = set.iter().position(|l| l.valid && l.tag == tag);
        let hit = match hit_way {
            Some(w) => {
                set[w].lru = self.lru_clock;
                set[w].dirty |= is_write;
                if let Some(wp) = &mut self.way_predictor {
                    let correct = wp.predict(set_idx) == w;
                    wp.record(correct);
                    wp.update(set_idx, w);
                    if !correct {
                        // Mispredicted way: re-probe costs a cycle.
                        extra_latency += 1;
                    }
                }
                true
            }
            None => {
                // Fill into the LRU way among the active ways.
                let victim = (0..ways)
                    .min_by_key(|&w| if set[w].valid { set[w].lru } else { 0 })
                    .expect("cache has at least one way");
                if set[victim].valid && set[victim].dirty {
                    self.writebacks += 1;
                }
                set[victim] = Line { valid: true, dirty: is_write, tag, lru: self.lru_clock };
                false
            }
        };
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.policy.observe_outcome(hit);
        // Recovery: a detected sense-margin upset is replayed against a
        // freshly precharged subarray; the replay latency rides on
        // `extra_latency`, so dependent instructions see it exactly like a
        // slow pull-up (and the core's load-hit speculation replays them).
        if let Some(fault) = self.policy.take_fault() {
            match fault {
                FaultEvent::DetectedUpset { retry_cycles } => {
                    self.upset_replays += 1;
                    self.fault_retry_cycles += u64::from(retry_cycles);
                    extra_latency += retry_cycles;
                }
                FaultEvent::CorrectedUpset { correction_cycles } => {
                    self.ecc_corrections += 1;
                    self.fault_retry_cycles += u64::from(correction_cycles);
                    extra_latency += correction_cycles;
                }
                FaultEvent::SilentUpset => self.silent_upsets += 1,
            }
        }
        if let Some(req) = self.policy.resize_request() {
            self.apply_resize(req, cycle);
        }
        AccessResult { hit, extra_latency, subarray }
    }

    fn apply_resize(&mut self, req: ResizeRequest, cycle: u64) {
        let sets = req.active_sets.clamp(1, self.config.sets());
        let ways = req.active_ways.clamp(1, self.config.assoc);
        if sets == self.active_sets && ways == self.active_ways {
            return;
        }
        assert!(sets.is_power_of_two(), "resize to {sets} active sets: not a power of two");
        self.active_sets = sets;
        self.set_shift = sets.trailing_zeros();
        self.active_ways = ways;
        self.resizes += 1;
        // Remapping: conservatively invalidate everything (clean lines are
        // dropped; dirty lines are written back).
        for line in &mut self.lines {
            if line.valid && line.dirty {
                self.writebacks += 1;
            }
            *line = Line::default();
        }
        let active_subarrays = self.active_sets.div_ceil(self.config.sets_per_subarray());
        let way_fraction = self.active_ways as f64 / self.config.assoc as f64;
        self.policy.notify_resize(active_subarrays, way_fraction, cycle);
    }

    /// Way-prediction outcome counts, when way prediction is enabled.
    #[must_use]
    pub fn way_stats(&self) -> Option<WayStats> {
        self.way_predictor.as_ref().map(WayPredictor::stats)
    }

    /// Number of currently active sets.
    #[must_use]
    pub fn active_sets(&self) -> usize {
        self.active_sets
    }

    /// Number of currently active ways.
    #[must_use]
    pub fn active_ways(&self) -> usize {
        self.active_ways
    }

    /// Hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions so far.
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Resize events applied.
    #[must_use]
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Reads replayed after a detected sense-margin upset.
    #[must_use]
    pub fn upset_replays(&self) -> u64 {
        self.upset_replays
    }

    /// Upsets that escaped detection (silent data corruption).
    #[must_use]
    pub fn silent_upsets(&self) -> u64 {
        self.silent_upsets
    }

    /// Upsets the ECC codec corrected in flight (no replay needed).
    #[must_use]
    pub fn ecc_corrections(&self) -> u64 {
        self.ecc_corrections
    }

    /// Total extra cycles spent on upset replays.
    #[must_use]
    pub fn fault_retry_cycles(&self) -> u64 {
        self.fault_retry_cycles
    }

    /// Miss ratio so far (0 when no accesses).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Closes precharge accounting and returns the activity report.
    pub fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
        self.policy.finalize(end_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SubarrayActivity;

    /// Minimal policy: everything precharged, no delays, counts accesses.
    struct Counting {
        per: Vec<SubarrayActivity>,
    }

    impl Counting {
        fn new(n: usize) -> Counting {
            Counting { per: vec![SubarrayActivity::default(); n] }
        }
    }

    impl PrechargePolicy for Counting {
        fn name(&self) -> String {
            "counting".into()
        }
        fn access(&mut self, subarray: usize, _cycle: u64) -> u32 {
            self.per[subarray].accesses += 1;
            0
        }
        fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
            ActivityReport {
                policy: self.name(),
                end_cycle,
                per_subarray: std::mem::take(&mut self.per),
            }
        }
    }

    fn cache() -> L1Cache {
        let cfg = CacheConfig::l1_data();
        let n = cfg.subarrays();
        L1Cache::new(cfg, Box::new(Counting::new(n)))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache();
        assert!(!c.access(0x4000, false, 1).hit);
        assert!(c.access(0x4000, false, 2).hit);
        assert!(c.access(0x4010, false, 3).hit, "same 32 B line");
        assert!(!c.access(0x4020, false, 4).hit, "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn two_way_conflicts_evict_lru() {
        let mut c = cache();
        // Three lines mapping to the same set (16 KB apart at full size).
        let a = 0x0u64;
        let b = a + 16 * 1024;
        let d = a + 32 * 1024;
        c.access(a, false, 1);
        c.access(b, false, 2);
        assert!(c.access(a, false, 3).hit);
        c.access(d, false, 4); // evicts b (LRU)
        assert!(c.access(a, false, 5).hit, "a is MRU, must survive");
        assert!(!c.access(b, false, 6).hit, "b was evicted");
    }

    #[test]
    fn writeback_counted_on_dirty_eviction() {
        let mut c = cache();
        let a = 0x0u64;
        let b = a + 16 * 1024;
        let d = a + 32 * 1024;
        c.access(a, true, 1); // dirty
        c.access(b, false, 2);
        c.access(d, false, 3); // evicts a (LRU, dirty)
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn accesses_reach_the_right_subarray() {
        let mut c = cache();
        let r = c.access(0x0, false, 1);
        assert_eq!(r.subarray, 0);
        let r = c.access(512, false, 2);
        assert_eq!(r.subarray, 1);
        let r = c.access(31 * 512, false, 3); // last 512 B chunk of the 16 KB span
        assert_eq!(r.subarray, 31);
    }

    /// Requests one resize, on its first access.
    struct ResizeOnce(Option<ResizeRequest>);
    impl PrechargePolicy for ResizeOnce {
        fn name(&self) -> String {
            "resize-once".into()
        }
        fn access(&mut self, _s: usize, _c: u64) -> u32 {
            0
        }
        fn resize_request(&mut self) -> Option<ResizeRequest> {
            self.0.take()
        }
        fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
            ActivityReport { policy: self.name(), end_cycle, per_subarray: vec![] }
        }
    }

    #[test]
    fn resize_invalidates_and_remaps() {
        let shrink = ResizeOnce(Some(ResizeRequest { active_sets: 128, active_ways: 1 }));
        let mut c = L1Cache::new(CacheConfig::l1_data(), Box::new(shrink));
        c.access(0x8000, false, 1); // triggers the resize after the access
        assert_eq!(c.active_sets(), 128);
        assert_eq!(c.active_ways(), 1);
        assert_eq!(c.resizes(), 1);
        // Everything was invalidated.
        assert!(!c.access(0x8000, false, 2).hit);
        // Under 128 sets, addresses 4 KB apart now conflict.
        let r1 = c.access(0x0, false, 3);
        let r2 = c.access(4096, false, 4);
        assert_eq!(r1.subarray, r2.subarray);
    }

    #[test]
    fn resized_index_stays_in_range() {
        for active_sets in [64, 128, 256, 512] {
            let request = ResizeRequest { active_sets, active_ways: 1 };
            let mut c = L1Cache::new(CacheConfig::l1_data(), Box::new(ResizeOnce(Some(request))));
            c.access(0, false, 1);
            assert_eq!(c.active_sets(), active_sets);
            for addr in (0..1u64 << 20).step_by(4093) {
                let (set, _, subarray) = c.locate(addr);
                assert!(set < active_sets);
                assert!(subarray < c.config().subarrays());
            }
        }
    }

    #[test]
    fn geometry_that_is_not_a_power_of_two_is_rejected_by_name() {
        let l1d = CacheConfig::l1_data();
        for (config, field) in [
            (CacheConfig { line_bytes: 48, ..l1d }, "line_bytes = 48"),
            (
                CacheConfig { size_bytes: 24 * 1024, ..l1d },
                "sets = size_bytes / (assoc * line_bytes) = 384",
            ),
            (
                CacheConfig { size_bytes: 48 * 1024, assoc: 3, ..l1d },
                "sets per subarray = sets * subarray_bytes / size_bytes = 10",
            ),
        ] {
            let err = std::panic::catch_unwind(|| L1Cache::new(config, Box::new(ResizeOnce(None))))
                .expect_err(field);
            let message = err.downcast_ref::<String>().expect("formatted panic message");
            assert!(message.starts_with(field), "{message}");
        }
    }

    #[test]
    #[should_panic(expected = "resize to 96 active sets: not a power of two")]
    fn resize_that_is_not_a_power_of_two_is_rejected() {
        let request = ResizeRequest { active_sets: 96, active_ways: 1 };
        let mut c = L1Cache::new(CacheConfig::l1_data(), Box::new(ResizeOnce(Some(request))));
        c.access(0, false, 1);
    }

    #[test]
    fn faults_add_retry_latency_and_are_counted() {
        /// Raises a detected upset on every 3rd access and a silent one on
        /// every 7th.
        struct Faulty {
            n: u64,
            pending: Option<crate::policy::FaultEvent>,
        }
        impl PrechargePolicy for Faulty {
            fn name(&self) -> String {
                "faulty".into()
            }
            fn access(&mut self, _s: usize, _c: u64) -> u32 {
                self.n += 1;
                if self.n.is_multiple_of(3) {
                    self.pending =
                        Some(crate::policy::FaultEvent::DetectedUpset { retry_cycles: 2 });
                } else if self.n.is_multiple_of(7) {
                    self.pending = Some(crate::policy::FaultEvent::SilentUpset);
                }
                0
            }
            fn take_fault(&mut self) -> Option<crate::policy::FaultEvent> {
                self.pending.take()
            }
            fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
                ActivityReport { policy: self.name(), end_cycle, per_subarray: vec![] }
            }
        }
        let mut c = L1Cache::new(CacheConfig::l1_data(), Box::new(Faulty { n: 0, pending: None }));
        let mut total_extra = 0;
        for i in 0..21u64 {
            total_extra += c.access(i * 32, false, i).extra_latency;
        }
        assert_eq!(c.upset_replays(), 7, "accesses 3,6,9,12,15,18,21");
        assert_eq!(c.silent_upsets(), 2, "accesses 7 and 14 (21 went to the upset arm)");
        assert_eq!(c.fault_retry_cycles(), 14);
        assert_eq!(total_extra, 14, "replay latency must reach the access result");
    }

    #[test]
    fn miss_ratio_tracks_stream() {
        let mut c = cache();
        // Stream 4 KB of sequential 8-byte loads: one miss per 32 B line.
        for i in 0..512u64 {
            c.access(0x10_0000 + i * 8, false, i);
        }
        let expected = 128.0 / 512.0;
        assert!((c.miss_ratio() - expected).abs() < 1e-9, "{}", c.miss_ratio());
    }
}
