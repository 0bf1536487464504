//! Simulation statistics.

use serde::{Deserialize, Serialize};

/// Counters gathered over one simulation run.
///
/// # Examples
///
/// ```
/// let mut s = bitline_cpu::SimStats::default();
/// s.committed = 1000;
/// s.cycles = 500;
/// assert_eq!(s.ipc(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Instructions fetched (includes instructions later squashed by
    /// replays, not wrong-path fetch).
    pub fetched: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Branch mispredictions (direction or missing BTB target).
    pub mispredicts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Instructions squashed and reissued due to load-hit misspeculation.
    pub replays: u64,
    /// Load-hit misspeculation events (loads whose latency exceeded the
    /// speculative hit assumption).
    pub load_misspeculations: u64,
    /// Cycles the front end fetched nothing because it was stalled or
    /// blocked: waiting on an I-cache fill or pull-up delay, blocked on an
    /// unresolved mispredicted branch, or in the redirect penalty after
    /// one resolves.
    pub fetch_stall_cycles: u64,
    /// Predecode hints issued to the data cache.
    pub hints: u64,
}

impl SimStats {
    /// Instructions per cycle (0 when no cycles ran).
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate (0 when no branches ran).
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Replays per committed instruction.
    #[must_use]
    pub fn replay_rate(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.replays as f64 / self.committed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.replay_rate(), 0.0);
    }
}
