//! CPU configuration (Table 2 defaults).

use serde::{Deserialize, Serialize};

/// What gets squashed when load-hit speculation fails (Section 6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplayScope {
    /// Pentium-4 style: squash only the instructions (transitively)
    /// dependent on the mispredicted load. The paper's choice for its
    /// 16-stage pipeline.
    DependentsOnly,
    /// MIPS R10000 / Alpha 21264 style: squash every instruction issued
    /// speculatively after the load. Cheaper to build, costlier to run;
    /// kept as an ablation.
    AllYounger,
}

/// The largest reorder buffer the core models: the scheduler tracks the
/// window as `u128` masks over a 128-slot ring.
pub(crate) const MAX_ROB_ENTRIES: usize = 128;

/// Out-of-order core parameters.
///
/// Defaults reproduce Table 2 of the paper.
///
/// # Examples
///
/// ```
/// let cfg = bitline_cpu::CpuConfig::default();
/// assert_eq!(cfg.rob_entries, 128);
/// assert_eq!(cfg.issue_width, 8);
/// ```
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Instructions fetched per cycle (8).
    pub fetch_width: usize,
    /// Instructions dispatched (renamed) per cycle (8).
    pub dispatch_width: usize,
    /// Instructions issued per cycle (8).
    pub issue_width: usize,
    /// Instructions committed per cycle (8).
    pub commit_width: usize,
    /// Reorder buffer entries (128).
    pub rob_entries: usize,
    /// Issue queue entries (64).
    pub iq_entries: usize,
    /// Load/store queue entries (64).
    pub lsq_entries: usize,
    /// Fetch queue entries between fetch and dispatch (32).
    pub fetch_queue: usize,
    /// Distinct I-cache lines fetchable per cycle (2RW ports -> 2).
    pub fetch_lines_per_cycle: usize,
    /// Cycles to refill the front end after a branch mispredict resolves
    /// (~the front-end depth of the 16-stage pipeline).
    pub redirect_penalty: u64,
    /// Cycles from load issue to scheduler resolution of its latency (6 in
    /// the paper's base system).
    pub load_resolution_delay: u64,
    /// Single-cycle integer latency.
    pub int_latency: u64,
    /// Integer multiply latency.
    pub mul_latency: u64,
    /// Floating-point latency.
    pub fp_latency: u64,
    /// Data-cache read-capable port operations per cycle (2RW + 2R -> 4).
    pub dcache_ports: usize,
    /// Data-cache write-capable ports per cycle (2RW -> 2).
    pub dcache_write_ports: usize,
    /// Send every load and store to the D-cache with a predecode hint,
    /// its base-register value, so the policy can pull up the predicted
    /// subarray during address calculation (Section 6.3). The hint rides
    /// on the access itself, at issue: `SimStats::hints` counts one per
    /// load or store issued.
    pub predecode_hints: bool,
    /// Replay scope on load-hit misspeculation.
    pub replay_scope: ReplayScope,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            fetch_width: 8,
            dispatch_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_entries: 128,
            iq_entries: 64,
            lsq_entries: 64,
            fetch_queue: 32,
            fetch_lines_per_cycle: 2,
            redirect_penalty: 12,
            load_resolution_delay: 6,
            int_latency: 1,
            mul_latency: 3,
            fp_latency: 4,
            dcache_ports: 4,
            dcache_write_ports: 2,
            predecode_hints: false,
            replay_scope: ReplayScope::DependentsOnly,
        }
    }
}

impl CpuConfig {
    /// Enables predecode hints (used with gated precharging on D-caches).
    #[must_use]
    pub fn with_predecode_hints(mut self) -> CpuConfig {
        self.predecode_hints = true;
        self
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics if any width or queue size is zero, widths exceed queue
    /// capacities, or the reorder buffer exceeds 128 entries.
    pub fn validate(&self) {
        assert!(self.fetch_width > 0 && self.issue_width > 0 && self.commit_width > 0);
        assert!(self.rob_entries > 0 && self.iq_entries > 0 && self.lsq_entries > 0);
        assert!(
            self.rob_entries <= MAX_ROB_ENTRIES,
            "rob_entries = {}; the core models at most {MAX_ROB_ENTRIES}",
            self.rob_entries
        );
        assert!(self.fetch_queue >= self.fetch_width, "fetch queue must fit one fetch group");
        assert!(self.dcache_ports >= self.dcache_write_ports);
        assert!(self.fetch_lines_per_cycle > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = CpuConfig::default();
        c.validate();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.rob_entries, 128);
        assert_eq!(c.iq_entries, 64);
        assert_eq!(c.lsq_entries, 64);
        assert_eq!(c.load_resolution_delay, 6);
        assert_eq!(c.replay_scope, ReplayScope::DependentsOnly);
    }

    #[test]
    #[should_panic(expected = "fetch queue")]
    fn validate_rejects_tiny_fetch_queue() {
        let c = CpuConfig { fetch_queue: 4, ..Default::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "rob_entries = 129; the core models at most 128")]
    fn validate_rejects_a_rob_past_the_slot_ring() {
        CpuConfig { rob_entries: 129, ..Default::default() }.validate();
    }
}
