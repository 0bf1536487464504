//! Cache geometry and address mapping.

use bitline_circuit::SubarrayGeometry;
use serde::{Deserialize, Serialize};

/// Geometry of one cache and its subarray organisation.
///
/// Both ways of a set live in the same data subarray (ways are interleaved
/// column-wise), so a single access touches exactly one data subarray — the
/// organisation the paper's oracle study assumes ("the oracle ... precharges
/// only this subarray", Section 4).
///
/// # Examples
///
/// ```
/// use bitline_cache::CacheConfig;
///
/// let l1i = CacheConfig::l1_inst();
/// assert_eq!(l1i.hit_latency, 2);
/// assert_eq!(l1i.subarrays(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Set associativity.
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Data subarray size in bytes.
    pub subarray_bytes: usize,
    /// Number of ports (each adds a differential bitline pair per column).
    pub ports: usize,
    /// Load-to-use hit latency in cycles.
    pub hit_latency: u32,
    /// Enable MRU way prediction (reads probe one way; mispredictions pay
    /// a re-probe cycle). Orthogonal to the precharge policies.
    pub way_prediction: bool,
}

impl CacheConfig {
    /// Table 2's L1 data cache: 32 KB, 2-way, 3-cycle, 2RW + 2R ports,
    /// 32 B lines, 1 KB subarrays.
    #[must_use]
    pub fn l1_data() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 2,
            line_bytes: 32,
            subarray_bytes: 1024,
            ports: 4,
            hit_latency: 3,
            way_prediction: false,
        }
    }

    /// Table 2's L1 instruction cache: 32 KB, 2-way, 2-cycle, 2RW ports.
    #[must_use]
    pub fn l1_inst() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 2,
            line_bytes: 32,
            subarray_bytes: 1024,
            ports: 2,
            hit_latency: 2,
            way_prediction: false,
        }
    }

    /// Table 2's unified L2: 512 KB, 4-way, 12-cycle, single-ported, 4 KB
    /// subarrays (the organisation the Alpha 21164's on-demand L2
    /// precharging worked with; Section 2 of the paper).
    #[must_use]
    pub fn l2_unified() -> CacheConfig {
        CacheConfig {
            size_bytes: 512 * 1024,
            assoc: 4,
            line_bytes: 32,
            subarray_bytes: 4096,
            ports: 1,
            hit_latency: 12,
            way_prediction: false,
        }
    }

    /// Same configuration with MRU way prediction enabled.
    #[must_use]
    pub fn with_way_prediction(mut self) -> CacheConfig {
        self.way_prediction = true;
        self
    }

    /// Same configuration with a different subarray size (Figure 10 sweep).
    ///
    /// # Panics
    ///
    /// Panics if the new size does not evenly divide the cache (see
    /// [`SubarrayGeometry::for_cache`]).
    #[must_use]
    pub fn with_subarray_bytes(mut self, subarray_bytes: usize) -> CacheConfig {
        self.subarray_bytes = subarray_bytes;
        let _ = self.geometry(); // validate
        self
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }

    /// Number of data subarrays.
    #[must_use]
    pub fn subarrays(&self) -> usize {
        self.size_bytes / self.subarray_bytes
    }

    /// Sets stored per subarray (all ways of a set share one subarray).
    #[must_use]
    pub fn sets_per_subarray(&self) -> usize {
        (self.sets() / self.subarrays()).max(1)
    }

    /// Set index of an address at full size.
    #[must_use]
    pub fn set_index(&self, addr: u64) -> usize {
        (addr as usize / self.line_bytes) % self.sets()
    }

    /// Tag of an address (line address above the index bits).
    #[must_use]
    pub fn tag(&self, addr: u64) -> u64 {
        addr / (self.line_bytes as u64) / (self.sets() as u64)
    }

    /// Data subarray holding a set.
    #[must_use]
    pub fn subarray_of_set(&self, set: usize) -> usize {
        set / self.sets_per_subarray()
    }

    /// Data subarray an address maps to at full size.
    #[must_use]
    pub fn subarray_of(&self, addr: u64) -> usize {
        self.subarray_of_set(self.set_index(addr))
    }

    /// Electrical geometry of one subarray for the circuit models.
    #[must_use]
    pub fn geometry(&self) -> SubarrayGeometry {
        SubarrayGeometry::for_cache(
            self.subarray_bytes,
            self.line_bytes,
            self.ports,
            self.size_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1d_matches_table2() {
        let c = CacheConfig::l1_data();
        assert_eq!(c.sets(), 512);
        assert_eq!(c.subarrays(), 32);
        assert_eq!(c.sets_per_subarray(), 16);
        assert_eq!(c.hit_latency, 3);
        assert_eq!(c.ports, 4);
    }

    #[test]
    fn subarray_mapping_has_512_byte_granularity() {
        let c = CacheConfig::l1_data();
        // 16 sets/subarray * 32 B lines = 512 B of consecutive addresses
        // per subarray before moving to the next.
        for base in [0u64, 1 << 20, 0x1234_0000] {
            let s0 = c.subarray_of(base);
            assert_eq!(c.subarray_of(base + 511), s0);
            assert_eq!(c.subarray_of(base + 512), (s0 + 1) % c.subarrays());
        }
    }

    #[test]
    fn mapping_wraps_every_16kb() {
        let c = CacheConfig::l1_data();
        // 512 sets * 32 B = 16 KB of address space covers all subarrays.
        assert_eq!(c.subarray_of(0), c.subarray_of(16 * 1024));
    }

    #[test]
    fn figure10_sweep_produces_expected_counts() {
        for (bytes, count) in [(4096, 8), (1024, 32), (256, 128), (64, 512)] {
            let c = CacheConfig::l1_data().with_subarray_bytes(bytes);
            assert_eq!(c.subarrays(), count);
            // Every set must map to a valid subarray.
            for set in 0..c.sets() {
                assert!(c.subarray_of_set(set) < count);
            }
        }
    }

    #[test]
    fn tags_distinguish_lines_that_share_a_set() {
        let c = CacheConfig::l1_data();
        let a = 0x1000u64;
        let b = a + 16 * 1024; // same set at full size
        assert_eq!(c.set_index(a), c.set_index(b));
        assert_ne!(c.tag(a), c.tag(b));
    }
}
