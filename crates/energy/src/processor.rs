//! Processor-level energy context.
//!
//! Two of the paper's claims need a whole-processor denominator:
//!
//! * "High-performance level-one caches increasingly account for a
//!   significant fraction of energy dissipation in wide-issue out-of-order
//!   processors" (Section 1), and
//! * "The instruction replay in the data cache increases the processor's
//!   energy consumption by less than 1%" (Section 6.4).
//!
//! This module provides the simple Wattch-style core model that supplies
//! that denominator: a per-committed-instruction core energy (front end,
//! rename, issue window, register files, functional units, bypass) scaled
//! across nodes as `C * Vdd^2`, plus a per-replay re-execution energy.

use bitline_cmos::TechnologyNode;
use serde::{Deserialize, Serialize};

use crate::CacheEnergyBreakdown;

/// Core (non-L1) energy per committed instruction at 70 nm, in joules.
/// Representative of Wattch-class estimates for an aggressive 8-wide core.
const CORE_ENERGY_PER_INSTR_70NM_J: f64 = 400e-12;

/// Fraction of a full instruction's core energy burnt by one replayed
/// (squashed and reissued) instruction: it re-arbitrates issue, re-executes
/// and re-broadcasts, but does not re-fetch or re-rename.
const REPLAY_ENERGY_FRACTION: f64 = 0.25;

/// Whole-processor energy for one run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ProcessorEnergy {
    /// Core (non-L1-cache) energy, in joules.
    pub core_j: f64,
    /// Extra core energy from load-hit-misspeculation replays, in joules.
    pub replay_j: f64,
    /// L1 data cache breakdown.
    pub d_cache: CacheEnergyBreakdown,
    /// L1 instruction cache breakdown.
    pub i_cache: CacheEnergyBreakdown,
}

impl ProcessorEnergy {
    /// Total processor energy in joules.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.core_j + self.replay_j + self.d_cache.total_j() + self.i_cache.total_j()
    }

    /// Fraction of processor energy spent in the L1 caches.
    #[must_use]
    pub fn cache_fraction(&self) -> f64 {
        (self.d_cache.total_j() + self.i_cache.total_j()) / self.total_j()
    }

    /// Replay energy as a fraction of total processor energy (the paper
    /// bounds this below 1% for gated precharging).
    #[must_use]
    pub fn replay_overhead(&self) -> f64 {
        self.replay_j / self.total_j()
    }
}

/// Scales core energy across nodes and composes the processor total.
#[derive(Debug, Clone, Copy)]
pub struct ProcessorEnergyModel {
    node: TechnologyNode,
}

impl ProcessorEnergyModel {
    /// Builds the model for one node.
    #[must_use]
    pub fn new(node: TechnologyNode) -> ProcessorEnergyModel {
        ProcessorEnergyModel { node }
    }

    /// Core energy per committed instruction at this node, in joules
    /// (`C * Vdd^2` scaling, normalised to 70 nm).
    #[must_use]
    pub fn core_energy_per_instr_j(&self) -> f64 {
        let scale = self.node.feature_um() / 0.07 * (self.node.vdd() / 1.0).powi(2);
        CORE_ENERGY_PER_INSTR_70NM_J * scale
    }

    /// Composes the whole-processor energy for a run.
    #[must_use]
    pub fn assess(
        &self,
        committed: u64,
        replays: u64,
        d_cache: CacheEnergyBreakdown,
        i_cache: CacheEnergyBreakdown,
    ) -> ProcessorEnergy {
        let per_instr = self.core_energy_per_instr_j();
        ProcessorEnergy {
            core_j: committed as f64 * per_instr,
            replay_j: replays as f64 * REPLAY_ENERGY_FRACTION * per_instr,
            d_cache,
            i_cache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnergyAccountant;
    use bitline_cache::CacheConfig;

    fn caches(node: TechnologyNode, cycles: u64) -> (CacheEnergyBreakdown, CacheEnergyBreakdown) {
        let d = EnergyAccountant::new(node, CacheConfig::l1_data()).static_baseline(
            cycles,
            cycles / 6,
            cycles / 16,
            false,
        );
        let i = EnergyAccountant::new(node, CacheConfig::l1_inst()).static_baseline(
            cycles,
            cycles / 3,
            0,
            false,
        );
        (d, i)
    }

    /// Section 1's premise: L1 caches are a significant (and growing)
    /// fraction of processor energy towards 70 nm.
    #[test]
    fn cache_fraction_is_significant_and_grows() {
        let mut prev = 0.0;
        for node in TechnologyNode::ALL {
            let (d, i) = caches(node, 100_000);
            // IPC ~0.4: 40k instructions over 100k cycles.
            let p = ProcessorEnergyModel::new(node).assess(40_000, 0, d, i);
            let frac = p.cache_fraction();
            assert!(frac > prev, "{node}: cache fraction {frac:.3} must grow");
            prev = frac;
        }
        assert!((0.2..=0.7).contains(&prev), "70 nm cache fraction {prev:.3}");
    }

    /// Section 6.4: replay traffic at gated-precharging rates costs less
    /// than ~1% of processor energy.
    #[test]
    fn replay_overhead_is_about_one_percent() {
        let node = TechnologyNode::N70;
        let (d, i) = caches(node, 100_000);
        // Gated precharging adds a few replays per hundred instructions.
        let p = ProcessorEnergyModel::new(node).assess(40_000, 1_200, d, i);
        let overhead = p.replay_overhead();
        assert!(overhead < 0.015, "replay overhead {overhead:.4}");
        assert!(overhead > 0.0);
    }

    #[test]
    fn totals_compose() {
        let node = TechnologyNode::N100;
        let (d, i) = caches(node, 10_000);
        let p = ProcessorEnergyModel::new(node).assess(4_000, 100, d, i);
        let sum = p.core_j + p.replay_j + p.d_cache.total_j() + p.i_cache.total_j();
        assert!((p.total_j() - sum).abs() < 1e-18);
    }
}
