//! Property-based tests for the cache structures.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;

use bitline_cache::{
    ActivityReport, CacheConfig, IdleHistogram, L1Cache, MemorySystem, MemorySystemConfig, Mshr,
    PrechargePolicy, ResizeRequest, IDLE_BUCKETS,
};

struct NoDelay;
impl PrechargePolicy for NoDelay {
    fn name(&self) -> String {
        "nodelay".into()
    }
    fn access(&mut self, _s: usize, _c: u64) -> u32 {
        0
    }
    fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
        ActivityReport { policy: self.name(), end_cycle, per_subarray: vec![] }
    }
}

/// Applies whatever resize the test queued, on the next access.
struct Resizer(Rc<Cell<Option<ResizeRequest>>>);
impl PrechargePolicy for Resizer {
    fn name(&self) -> String {
        "resizer".into()
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

/// Every geometry the simulator builds: both L1s at each Figure 10
/// subarray size, the L2 and the L3.
fn built_geometries() -> Vec<CacheConfig> {
    let hierarchy = MemorySystemConfig::default();
    let mut out = Vec::new();
    for bytes in [4096, 1024, 256, 64] {
        out.push(CacheConfig::l1_data().with_subarray_bytes(bytes));
        out.push(CacheConfig::l1_inst().with_subarray_bytes(bytes));
    }
    out.push(MemorySystem::l2_config(&hierarchy));
    out.push(MemorySystem::l3_config(&hierarchy));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The cache's shift-and-mask address mapping agrees with the division
    /// formulas for every built geometry at every set count of the
    /// resizable ladder (halving from full size down to one subarray's
    /// worth of sets).
    #[test]
    fn shift_indexing_matches_division(addrs in prop::collection::vec(any::<u64>(), 64)) {
        for cfg in built_geometries() {
            let queued = Rc::new(Cell::new(None));
            let mut cache = L1Cache::new(cfg, Box::new(Resizer(Rc::clone(&queued))));
            let (line, per_subarray) = (cfg.line_bytes as u64, cfg.sets_per_subarray());
            let mut active = cfg.sets();
            while active >= per_subarray {
                queued.set(Some(ResizeRequest { active_sets: active, active_ways: 1 }));
                cache.access(0, false, 0);
                prop_assert_eq!(cache.active_sets(), active);
                for &addr in &addrs {
                    let set = ((addr / line) % active as u64) as usize;
                    let tag = addr / line / active as u64;
                    prop_assert_eq!(cache.locate(addr), (set, tag, set / per_subarray));
                    prop_assert_eq!(cache.line_of(addr), addr / line);
                }
                active /= 2;
            }
        }
    }
}

proptest! {
    /// Address mapping stays in range for any address and any legal
    /// subarray size.
    #[test]
    fn subarray_mapping_in_range(addr in any::<u64>(), size_pow in 6usize..=12) {
        let cfg = CacheConfig::l1_data().with_subarray_bytes(1 << size_pow);
        prop_assert!(cfg.set_index(addr) < cfg.sets());
        prop_assert!(cfg.subarray_of(addr) < cfg.subarrays());
    }

    /// Same line => same set and subarray; different tags distinguish
    /// conflicting lines.
    #[test]
    fn line_granular_mapping(addr in any::<u64>(), off in 0u64..32) {
        let cfg = CacheConfig::l1_data();
        let base = addr & !31;
        prop_assert_eq!(cfg.set_index(base), cfg.set_index(base + off));
        prop_assert_eq!(cfg.subarray_of(base), cfg.subarray_of(base + off));
        prop_assert_eq!(cfg.tag(base), cfg.tag(base + off));
    }

    /// An access immediately after an access to the same address always
    /// hits, no matter what happened before.
    #[test]
    fn immediate_reuse_always_hits(
        addrs in prop::collection::vec(0u64..(1 << 24), 1..200),
        probe in 0u64..(1 << 24),
    ) {
        let mut l1 = L1Cache::new(CacheConfig::l1_data(), Box::new(NoDelay));
        for (c, a) in addrs.iter().enumerate() {
            l1.access(*a, false, c as u64);
        }
        l1.access(probe, false, 1_000);
        let r = l1.access(probe, false, 1_001);
        prop_assert!(r.hit);
    }

    /// Hits + misses always equals accesses, and the miss ratio is in
    /// [0, 1].
    #[test]
    fn hit_miss_accounting(addrs in prop::collection::vec(0u64..(1 << 20), 1..300)) {
        let mut l1 = L1Cache::new(CacheConfig::l1_data(), Box::new(NoDelay));
        for (c, a) in addrs.iter().enumerate() {
            l1.access(*a, (a % 3) == 0, c as u64);
        }
        prop_assert_eq!(l1.hits() + l1.misses(), addrs.len() as u64);
        prop_assert!((0.0..=1.0).contains(&l1.miss_ratio()));
    }

    /// A working set no larger than one way per set never misses after the
    /// first pass, regardless of ordering.
    #[test]
    fn small_working_set_converges(mut lines in prop::collection::vec(0u64..256, 1..64)) {
        lines.sort_unstable();
        lines.dedup();
        let mut l1 = L1Cache::new(CacheConfig::l1_data(), Box::new(NoDelay));
        let mut cycle = 0;
        for pass in 0..3 {
            for l in &lines {
                cycle += 1;
                let r = l1.access(l * 32, false, cycle);
                if pass > 0 {
                    prop_assert!(r.hit, "line {l} missed on pass {pass}");
                }
            }
        }
    }

    /// The MSHR never reports a latency below the fill latency, and
    /// outstanding entries never exceed capacity.
    #[test]
    fn mshr_latency_and_capacity(
        reqs in prop::collection::vec((0u64..32, 1u64..50), 1..100),
        cap in 1usize..12,
    ) {
        let mut mshr = Mshr::new(cap);
        let mut cycle = 0;
        for (line, gap) in reqs {
            cycle += gap;
            let lat = mshr.request(line, cycle, 20);
            prop_assert!(lat >= 1, "latency must be positive");
            prop_assert!(mshr.outstanding(cycle) <= cap);
        }
    }
}

/// A dense bucket array of one of four shapes: `raw` itself (large counts
/// included), all zeros, the last bucket alone, or `raw`'s first `cut`
/// buckets with zeros above them.
fn shaped(raw: &[u64], shape: usize, cut: usize) -> [u64; IDLE_BUCKETS] {
    let mut dense = [0; IDLE_BUCKETS];
    match shape {
        0 => dense.copy_from_slice(raw),
        1 => {}
        2 => dense[IDLE_BUCKETS - 1] = raw[0].max(1),
        _ => dense[..cut].copy_from_slice(&raw[..cut]),
    }
    dense
}

/// `(representative idle cycles, count)` of every non-empty dense bucket.
fn dense_iter(dense: &[u64; IDLE_BUCKETS]) -> Vec<(f64, u64)> {
    let filled = dense.iter().enumerate().filter(|&(_, &c)| c > 0);
    filled.map(|(b, &c)| (1.5 * (1u64 << b) as f64, c)).collect()
}

proptest! {
    /// An idle histogram reads back as the dense bucket array it was built
    /// from, whatever its shape, and merging and iterating agree with the
    /// same arithmetic on dense arrays.
    #[test]
    fn idle_histograms_match_their_dense_buckets(
        raw in prop::collection::vec(any::<u64>(), IDLE_BUCKETS),
        other in prop::collection::vec(0u64..(1 << 56), IDLE_BUCKETS),
        shapes in (0usize..4, 0usize..4),
        cuts in (0usize..=IDLE_BUCKETS, 0usize..=IDLE_BUCKETS),
    ) {
        let a = shaped(&raw, shapes.0, cuts.0);
        let h = IdleHistogram::from_counts(a);
        prop_assert_eq!(h.counts()[..], a[..]);
        let filled = a.iter().rposition(|&c| c > 0).map_or(0, |b| b + 1);
        prop_assert_eq!(h.buckets(), &a[..filled]);
        prop_assert_eq!(h.iter().collect::<Vec<_>>(), dense_iter(&a));

        // Counts below 2^56 keep every sum and total inside a u64.
        let small = raw.iter().map(|c| c >> 8).collect::<Vec<_>>();
        let (x, y) = (shaped(&small, shapes.0, cuts.0), shaped(&other, shapes.1, cuts.1));
        let sum: [u64; IDLE_BUCKETS] = std::array::from_fn(|b| x[b] + y[b]);
        let mut merged = IdleHistogram::from_counts(x);
        merged.merge(&IdleHistogram::from_counts(y));
        prop_assert_eq!(merged.counts()[..], sum[..]);
        prop_assert_eq!(merged.total(), sum.iter().sum::<u64>());
        prop_assert_eq!(merged.iter().collect::<Vec<_>>(), dense_iter(&sum));
        prop_assert_eq!(merged, IdleHistogram::from_counts(sum));
    }

    /// One recorded episode lands in the dense bucket of its log2 idle
    /// time, zero counting as one cycle and anything past the last bucket
    /// in the last.
    #[test]
    fn an_episode_lands_in_its_log2_bucket(cycles in any::<u64>()) {
        for idle in [cycles, 0, 1, 2, 3, u64::MAX] {
            let mut h = IdleHistogram::default();
            h.record(idle);
            let bucket = (idle.max(1).ilog2() as usize).min(IDLE_BUCKETS - 1);
            let mut dense = [0; IDLE_BUCKETS];
            dense[bucket] = 1;
            prop_assert_eq!(h.counts()[..], dense[..], "record({})", idle);
        }
    }
}
