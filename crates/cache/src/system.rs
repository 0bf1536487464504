//! The full memory hierarchy: split L1s, unified L2, MSHRs, memory.

use crate::config::CacheConfig;
use crate::l1::L1Cache;
use crate::mshr::Mshr;
use crate::policy::{ActivityReport, AlwaysPrecharged, PrechargePolicy};

/// Hierarchy parameters (Table 2 defaults).
#[derive(Debug, Clone, Copy)]
pub struct MemorySystemConfig {
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// Unified L2 size in bytes (512 KB).
    pub l2_size: usize,
    /// L2 associativity (4).
    pub l2_assoc: usize,
    /// L2 line size in bytes.
    pub l2_line: usize,
    /// L2 access latency in cycles (12).
    pub l2_latency: u32,
    /// Memory base latency in cycles (100).
    pub mem_latency: u32,
    /// Additional memory cycles per 8 bytes transferred (4).
    pub mem_cycles_per_8b: u32,
    /// MSHR entries per L1 (8).
    pub mshr_entries: usize,
    /// Optional L3 size in bytes (4 MB). The L3 itself is only built by
    /// [`MemorySystem::with_hierarchy`]; these parameters are inert
    /// otherwise.
    pub l3_size: usize,
    /// L3 associativity (8).
    pub l3_assoc: usize,
    /// L3 access latency in cycles (30).
    pub l3_latency: u32,
}

impl Default for MemorySystemConfig {
    fn default() -> Self {
        MemorySystemConfig {
            l1d: CacheConfig::l1_data(),
            l1i: CacheConfig::l1_inst(),
            l2_size: 512 * 1024,
            l2_assoc: 4,
            l2_line: 32,
            l2_latency: 12,
            mem_latency: 100,
            mem_cycles_per_8b: 4,
            mshr_entries: 8,
            l3_size: 4 * 1024 * 1024,
            l3_assoc: 8,
            l3_latency: 30,
        }
    }
}

/// Timing outcome of one memory-system access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Total load-to-use latency in cycles (includes the L1 hit latency).
    pub latency: u32,
    /// Whether the access hit in its L1.
    pub l1_hit: bool,
    /// Whether the access paid a bitline pull-up delay.
    pub delayed: bool,
    /// The L1 data subarray touched.
    pub subarray: usize,
}

/// The complete cache/memory hierarchy of Table 2.
///
/// # Examples
///
/// ```
/// use bitline_cache::{ActivityReport, MemorySystem, MemorySystemConfig, PrechargePolicy};
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
/// let cfg = MemorySystemConfig::default();
/// let mut mem = MemorySystem::new(cfg, Box::new(Always), Box::new(Always));
/// let cold = mem.data_access(0x1000, false, 0);
/// assert!(!cold.l1_hit);
/// let warm = mem.data_access(0x1000, false, 200);
/// assert_eq!(warm.latency, cfg.l1d.hit_latency);
/// ```
pub struct MemorySystem {
    cfg: MemorySystemConfig,
    l1d: L1Cache,
    l1i: L1Cache,
    l2: L1Cache,
    l3: Option<L1Cache>,
    mshr_d: Mshr,
    mshr_i: Mshr,
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("l1d", &self.l1d)
            .field("l1i", &self.l1i)
            .field("l2", &self.l2)
            .finish_non_exhaustive()
    }
}

impl MemorySystem {
    /// Builds the hierarchy with precharge policies for the two L1s; the
    /// L2 uses conventional static pull-up (the configuration under study
    /// in the paper).
    #[must_use]
    pub fn new(
        cfg: MemorySystemConfig,
        d_policy: Box<dyn PrechargePolicy>,
        i_policy: Box<dyn PrechargePolicy>,
    ) -> MemorySystem {
        let l2_cfg = Self::l2_config(&cfg);
        let l2_policy = Box::new(AlwaysPrecharged::new(l2_cfg.subarrays()));
        Self::with_hierarchy(cfg, d_policy, i_policy, l2_policy, None)
    }

    /// Builds the full multi-level hierarchy: managed L1s, a managed L2,
    /// and — when `l3_policy` is provided — an L3 between the L2 and
    /// memory. With `l3_policy == None` the stock two-level system never
    /// pays for the deeper hierarchy.
    #[must_use]
    pub fn with_hierarchy(
        cfg: MemorySystemConfig,
        d_policy: Box<dyn PrechargePolicy>,
        i_policy: Box<dyn PrechargePolicy>,
        l2_policy: Box<dyn PrechargePolicy>,
        l3_policy: Option<Box<dyn PrechargePolicy>>,
    ) -> MemorySystem {
        let l2_cfg = Self::l2_config(&cfg);
        let l3_cfg = Self::l3_config(&cfg);
        MemorySystem {
            l1d: L1Cache::new(cfg.l1d, d_policy),
            l1i: L1Cache::new(cfg.l1i, i_policy),
            l2: L1Cache::new(l2_cfg, l2_policy),
            l3: l3_policy.map(|p| L1Cache::new(l3_cfg, p)),
            mshr_d: Mshr::new(cfg.mshr_entries),
            mshr_i: Mshr::new(cfg.mshr_entries),
            cfg,
        }
    }

    /// Geometry of the unified L2 implied by the hierarchy parameters.
    #[must_use]
    pub fn l2_config(cfg: &MemorySystemConfig) -> CacheConfig {
        CacheConfig {
            size_bytes: cfg.l2_size,
            assoc: cfg.l2_assoc,
            line_bytes: cfg.l2_line,
            subarray_bytes: 4096,
            ports: 1,
            hit_latency: cfg.l2_latency,
            way_prediction: false,
        }
    }

    /// Geometry of the optional L3 implied by the hierarchy parameters:
    /// bigger subarrays than the L2 (8 KB), same line size, one port.
    #[must_use]
    pub fn l3_config(cfg: &MemorySystemConfig) -> CacheConfig {
        CacheConfig {
            size_bytes: cfg.l3_size,
            assoc: cfg.l3_assoc,
            line_bytes: cfg.l2_line,
            subarray_bytes: 8192,
            ports: 1,
            hit_latency: cfg.l3_latency,
            way_prediction: false,
        }
    }

    /// Latency of a memory (DRAM) line fill.
    fn memory_latency(&self) -> u32 {
        self.cfg.mem_latency + self.cfg.mem_cycles_per_8b * (self.cfg.l2_line as u32 / 8)
    }

    /// Fill latency of an L1 miss through the outer levels: L2 lookup,
    /// then — on an L2 miss — the L3 when present, then memory. The L2/L3
    /// precharge policies' pull-up delays ride on the fill like any other
    /// latency.
    fn outer_fill(&mut self, addr: u64, is_store: bool, cycle: u64) -> u32 {
        let mem = self.memory_latency();
        let r2 = self.l2.access(addr, is_store, cycle);
        let mut fill = self.cfg.l2_latency + r2.extra_latency;
        if !r2.hit {
            match self.l3.as_mut() {
                Some(l3) => {
                    let r3 = l3.access(addr, is_store, cycle);
                    fill += self.cfg.l3_latency + r3.extra_latency;
                    if !r3.hit {
                        fill += mem;
                    }
                }
                None => fill += mem,
            }
        }
        fill
    }

    /// One data access (load or store) at `cycle`.
    pub fn data_access(&mut self, addr: u64, is_store: bool, cycle: u64) -> AccessOutcome {
        self.data_access_predicted(addr, None, is_store, cycle)
    }

    /// One data access carrying an optional predecode prediction (the
    /// base-register value; Section 6.3).
    pub fn data_access_predicted(
        &mut self,
        addr: u64,
        predicted_addr: Option<u64>,
        is_store: bool,
        cycle: u64,
    ) -> AccessOutcome {
        let r = match predicted_addr {
            Some(p) => self.l1d.access_predicted(addr, p, is_store, cycle),
            None => self.l1d.access(addr, is_store, cycle),
        };
        let mut latency = self.cfg.l1d.hit_latency + r.extra_latency;
        if !r.hit {
            let fill = self.outer_fill(addr, is_store, cycle);
            latency += self.mshr_d.request(self.l1d.line_of(addr), cycle, fill);
        }
        AccessOutcome { latency, l1_hit: r.hit, delayed: r.extra_latency > 0, subarray: r.subarray }
    }

    /// One instruction fetch of the line containing `pc` at `cycle`.
    pub fn inst_fetch(&mut self, pc: u64, cycle: u64) -> AccessOutcome {
        let r = self.l1i.access(pc, false, cycle);
        let mut latency = self.cfg.l1i.hit_latency + r.extra_latency;
        if !r.hit {
            let fill = self.outer_fill(pc, false, cycle);
            latency += self.mshr_i.request(self.l1i.line_of(pc), cycle, fill);
        }
        AccessOutcome { latency, l1_hit: r.hit, delayed: r.extra_latency > 0, subarray: r.subarray }
    }

    /// The L1 data cache.
    #[must_use]
    pub fn l1d(&self) -> &L1Cache {
        &self.l1d
    }

    /// The L1 instruction cache.
    #[must_use]
    pub fn l1i(&self) -> &L1Cache {
        &self.l1i
    }

    /// The unified L2.
    #[must_use]
    pub fn l2(&self) -> &L1Cache {
        &self.l2
    }

    /// The optional L3 (present only when built via
    /// [`MemorySystem::with_hierarchy`] with an L3 policy).
    #[must_use]
    pub fn l3(&self) -> Option<&L1Cache> {
        self.l3.as_ref()
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &MemorySystemConfig {
        &self.cfg
    }

    /// Closes precharge accounting; returns `(data, instruction)` reports.
    pub fn finalize(&mut self, end_cycle: u64) -> (ActivityReport, ActivityReport) {
        (self.l1d.finalize(end_cycle), self.l1i.finalize(end_cycle))
    }

    /// Closes the L2's precharge accounting.
    pub fn finalize_l2(&mut self, end_cycle: u64) -> ActivityReport {
        self.l2.finalize(end_cycle)
    }

    /// Closes the L3's precharge accounting, when an L3 exists.
    pub fn finalize_l3(&mut self, end_cycle: u64) -> Option<ActivityReport> {
        self.l3.as_mut().map(|l3| l3.finalize(end_cycle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ActivityReport;

    struct Always;
    impl PrechargePolicy for Always {
        fn name(&self) -> String {
            "always".into()
        }
        fn access(&mut self, _s: usize, _c: u64) -> u32 {
            0
        }
        fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
            ActivityReport { policy: self.name(), end_cycle, per_subarray: vec![] }
        }
    }

    /// Counts accesses into a single-subarray report, so finalize-based
    /// assertions see real activity (the `Always` double reports nothing).
    struct Recording(u64);
    impl PrechargePolicy for Recording {
        fn name(&self) -> String {
            "recording".into()
        }
        fn access(&mut self, _s: usize, _c: u64) -> u32 {
            self.0 += 1;
            0
        }
        fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
            ActivityReport {
                policy: self.name(),
                end_cycle,
                per_subarray: vec![crate::SubarrayActivity {
                    accesses: self.0,
                    ..crate::SubarrayActivity::default()
                }],
            }
        }
    }

    struct AlwaysCold;
    impl PrechargePolicy for AlwaysCold {
        fn name(&self) -> String {
            "cold".into()
        }
        fn access(&mut self, _s: usize, _c: u64) -> u32 {
            1
        }
        fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
            ActivityReport { policy: self.name(), end_cycle, per_subarray: vec![] }
        }
    }

    fn system() -> MemorySystem {
        MemorySystem::new(MemorySystemConfig::default(), Box::new(Always), Box::new(Always))
    }

    #[test]
    fn l1_hit_latency_is_three_cycles() {
        let mut m = system();
        m.data_access(0x2000, false, 0);
        let warm = m.data_access(0x2000, false, 500);
        assert_eq!(warm.latency, 3);
        assert!(warm.l1_hit);
    }

    #[test]
    fn l2_hit_adds_twelve_cycles() {
        let mut m = system();
        m.data_access(0x2000, false, 0); // into L1 + L2
                                         // Evict from L1 by filling its set, then re-access: L2 hit.
        m.data_access(0x2000 + 16 * 1024, false, 100);
        m.data_access(0x2000 + 32 * 1024, false, 200);
        let r = m.data_access(0x2000, false, 1000);
        assert!(!r.l1_hit);
        assert_eq!(r.latency, 3 + 12);
    }

    #[test]
    fn memory_fill_costs_l2_plus_dram() {
        let mut m = system();
        let r = m.data_access(0x9000, false, 0);
        assert!(!r.l1_hit);
        // 3 (L1) + 12 (L2 lookup) + 100 + 4 * 32/8 (DRAM).
        assert_eq!(r.latency, 3 + 12 + 100 + 16);
    }

    #[test]
    fn precharge_delay_propagates_to_latency() {
        let mut m = MemorySystem::new(
            MemorySystemConfig::default(),
            Box::new(AlwaysCold),
            Box::new(AlwaysCold),
        );
        m.data_access(0x2000, false, 0);
        let r = m.data_access(0x2000, false, 100);
        assert!(r.l1_hit);
        assert!(r.delayed);
        assert_eq!(r.latency, 4, "3-cycle hit + 1-cycle pull-up");
        let f = m.inst_fetch(0x40_0000, 0);
        assert!(f.delayed);
    }

    #[test]
    fn icache_hits_cost_two_cycles() {
        let mut m = system();
        m.inst_fetch(0x40_0000, 0);
        let r = m.inst_fetch(0x40_0004, 300);
        assert!(r.l1_hit, "same line");
        assert_eq!(r.latency, 2);
    }

    #[test]
    fn l2_policy_delay_adds_to_fill_latency() {
        let cfg = MemorySystemConfig::default();
        let l2_cfg = MemorySystem::l2_config(&cfg);
        let mut m = MemorySystem::with_hierarchy(
            cfg,
            Box::new(Always),
            Box::new(Always),
            Box::new(AlwaysCold),
            None,
        );
        assert_eq!(l2_cfg.subarrays(), 128);
        // L1 miss, L2 miss, L2 pays +1 pull-up:
        // 3 + (12 + 1) + 100 + 16.
        let r = m.data_access(0x9000, false, 0);
        assert_eq!(r.latency, 3 + 13 + 116);
    }

    #[test]
    fn l2_report_is_finalizable() {
        let mut m = system();
        m.data_access(0x9000, false, 0);
        let report = m.finalize_l2(100);
        assert_eq!(report.total_accesses(), 1);
        assert!((report.precharged_fraction() - 1.0).abs() < 1e-12, "default static L2");
    }

    fn three_level_system() -> MemorySystem {
        MemorySystem::with_hierarchy(
            MemorySystemConfig::default(),
            Box::new(Always),
            Box::new(Always),
            Box::new(Always),
            Some(Box::new(Always)),
        )
    }

    #[test]
    fn l3_lookup_rides_on_the_memory_fill() {
        let mut m = three_level_system();
        // 3 (L1) + 12 (L2) + 30 (L3) + 100 + 16 (DRAM).
        let r = m.data_access(0x9000, false, 0);
        assert!(!r.l1_hit);
        assert_eq!(r.latency, 3 + 12 + 30 + 116);
    }

    #[test]
    fn l3_hit_spares_the_memory_latency() {
        let mut m = three_level_system();
        m.data_access(0x2000, false, 0); // fills L1, L2 and L3
                                         // Evict 0x2000 from both the L1 set (2-way) and the L2 set
                                         // (4-way) with conflicting lines 128 KB apart; the L3's sets
                                         // are four times as numerous, so it keeps the line.
        for k in 1..=4u64 {
            m.data_access(0x2000 + k * 128 * 1024, false, k * 100);
        }
        let r = m.data_access(0x2000, false, 10_000);
        assert!(!r.l1_hit);
        assert_eq!(r.latency, 3 + 12 + 30, "L2 evicted the line; the L3 retains it");
    }

    #[test]
    fn l3_policy_delay_adds_to_fill_latency() {
        let mut m = MemorySystem::with_hierarchy(
            MemorySystemConfig::default(),
            Box::new(Always),
            Box::new(Always),
            Box::new(Always),
            Some(Box::new(AlwaysCold)),
        );
        // 3 + 12 + (30 + 1 pull-up) + 116.
        let r = m.data_access(0x9000, false, 0);
        assert_eq!(r.latency, 3 + 12 + 31 + 116);
    }

    #[test]
    fn two_level_system_has_no_l3_and_identical_latencies() {
        let mut m = system();
        assert!(m.l3().is_none());
        assert!(m.finalize_l3(100).is_none());
        let r = m.data_access(0x9000, false, 0);
        assert_eq!(r.latency, 3 + 12 + 116, "stock fill path is untouched by the L3 plumbing");
    }

    #[test]
    fn per_level_traffic_is_observable() {
        let mut m = MemorySystem::with_hierarchy(
            MemorySystemConfig::default(),
            Box::new(Always),
            Box::new(Always),
            Box::new(Always),
            Some(Box::new(Recording(0))),
        );
        m.data_access(0x9000, true, 0); // cold: misses L1/L2/L3
        m.data_access(0x9000, false, 100); // warm: L1 hit
        assert_eq!(m.l1d().hits(), 1);
        assert_eq!(m.l1d().misses(), 1);
        assert_eq!(m.l2().misses(), 1);
        let l3 = m.l3().expect("three-level system");
        assert_eq!(l3.misses(), 1);
        assert_eq!(l3.hits(), 0);
        let report = m.finalize_l3(200).expect("L3 report");
        assert_eq!(report.total_accesses(), 1);
    }

    #[test]
    fn data_and_inst_streams_share_the_l2() {
        let mut m = system();
        m.data_access(0x5000, false, 0); // fills L2
                                         // Evict 0x5000 from L1D, then fetch the same line as an instruction:
                                         // it should hit in the unified L2.
        let r = m.inst_fetch(0x5000, 400);
        assert!(!r.l1_hit);
        assert_eq!(r.latency, 2 + 12);
    }
}
