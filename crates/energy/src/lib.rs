//! Wattch-like cache energy accounting.
//!
//! The paper's methodology (Section 3): "we gather the subarray
//! pull-up/idle time distributions from the architectural simulations and
//! combine them with the bitline discharge results from the circuit
//! simulations to calculate the overall energy reduction." This crate is
//! that combination step: an [`EnergyAccountant`] takes an
//! [`bitline_cache::ActivityReport`] (per-subarray pull-up cycles, accesses,
//! and the isolation-episode idle histogram) plus dynamic access counts,
//! prices every component with the circuit models, and produces a
//! [`CacheEnergyBreakdown`].
//!
//! Unlike the circuit crate's Figure 2 analysis — which deliberately uses
//! the worst-case stored-value combination, as the paper does — the
//! accountant applies an average-case factor of 0.5 to leakage paths: with
//! random stored data, each cell pulls on one bitline of its differential
//! pair, not both.
//!
//! # Examples
//!
//! ```
//! use bitline_cache::CacheConfig;
//! use bitline_cmos::TechnologyNode;
//! use bitline_energy::EnergyAccountant;
//!
//! let acct = EnergyAccountant::new(TechnologyNode::N70, CacheConfig::l1_data());
//! assert!(acct.static_discharge_per_cycle_j() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod processor;

pub use processor::{ProcessorEnergy, ProcessorEnergyModel};

use bitline_cache::{ActivityReport, CacheConfig, WayStats};
use bitline_circuit::SubarrayEnergyModel;
use bitline_cmos::TechnologyNode;
use serde::{Deserialize, Serialize};

/// Average-case stored-value factor for leakage paths: with random data a
/// cell leaks into one bitline of its pair, not both (the circuit models
/// assume the worst case, as the paper's Figure 2 does).
pub const AVERAGE_CASE_LEAKAGE_FACTOR: f64 = 0.5;

/// Residual cell leakage at the drowsy retention voltage, as a fraction of
/// full-Vdd cell leakage (Kim et al. report ~6-10x reduction; the paper's
/// reference \[13\]).
pub const DROWSY_LEAKAGE_FACTOR: f64 = 0.15;

/// Residual cell leakage with the supply gated off (gated-Vdd sleep): only
/// the sleep transistor's subthreshold path remains, so the cell leaks at a
/// few percent of full Vdd — but loses its state.
pub const GATED_VDD_LEAKAGE_FACTOR: f64 = 0.03;

/// Cell-leakage factor of the 6T low-power cell variant (Khatti
/// Dizabadi/Kaya): longer-channel, higher-Vt pull-downs cut leakage at all
/// times — active and idle — at some access-energy cost.
pub const LOW_POWER_6T_LEAKAGE_FACTOR: f64 = 0.45;

/// Dynamic access-energy multiplier of the 6T low-power cell: the weaker
/// pull-downs discharge the bitlines more slowly, so each read/write swings
/// longer.
pub const LOW_POWER_6T_ACCESS_FACTOR: f64 = 1.10;

/// A cell-level leakage-control mode for one cache level, competing with
/// (and orthogonal to) the bitline precharge policies: the precharge policy
/// decides when bitlines are pulled up, the leakage mode decides what the
/// *cells* do while their subarray idles between accesses.
///
/// [`EnergyAccountant::price`] gives each of a subarray's three cell
/// states one factor from the mode's row: awake, drowsy (held at the
/// retention voltage by a drowsy precharge policy) and isolated-idle (an
/// isolation episode of the activity report's idle histogram, which the
/// mode may sleep through at the cost of one transition on wakeup).
/// [`LeakageKind::mode`] reads a mode's row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageMode {
    /// Short stable label (keys `.dat` rows and metrics).
    pub name: &'static str,
    /// Cell leakage while a subarray is awake, as a fraction of the
    /// conventional full-Vdd cell.
    pub active_leakage_factor: f64,
    /// Cell leakage while a drowsy precharge policy holds a subarray at
    /// its retention voltage, as a fraction of the conventional full-Vdd
    /// cell: the retention factor times the cell's own leakage.
    pub drowsy_leakage_factor: f64,
    /// Residual cell leakage during an idle (isolated) episode, as a
    /// fraction of the conventional full-Vdd cell.
    pub idle_leakage_factor: f64,
    /// Energy of one sleep-entry + wake transition, as a multiple of the
    /// precharge-device switching energy of one isolation episode.
    pub transition_energy_factor: f64,
    /// Dynamic energy per access, as a multiplier on the conventional
    /// cell's access energy (1.0 = no penalty).
    pub access_energy_factor: f64,
}

/// The zoo, one row per [`LeakageKind`] in declaration order.
static MODES: [LeakageMode; 4] = [
    // Conventional full-Vdd cells: the do-nothing baseline.
    LeakageMode {
        name: "full-vdd",
        active_leakage_factor: 1.0,
        drowsy_leakage_factor: DROWSY_LEAKAGE_FACTOR,
        idle_leakage_factor: 1.0,
        transition_energy_factor: 0.0,
        access_energy_factor: 1.0,
    },
    // State-preserving low-Vdd sleep (drowsy caches, Kim et al.): idle
    // subarrays drop to the retention voltage; waking costs a fraction of
    // an episode's switching energy because only the supply rail moves,
    // not the bitlines.
    LeakageMode {
        name: "drowsy",
        active_leakage_factor: 1.0,
        drowsy_leakage_factor: DROWSY_LEAKAGE_FACTOR,
        idle_leakage_factor: DROWSY_LEAKAGE_FACTOR,
        transition_energy_factor: 0.25,
        access_energy_factor: 1.0,
    },
    // Gated-Vdd sleep (Powell et al.): the supply is cut entirely during
    // idle episodes, for the deepest leakage savings and a full-swing rail
    // transition on every wake. Cell contents do not survive the episode;
    // the transition energy is priced here, but (like the related
    // multi-level leakage studies) the refetch traffic is left to the
    // architectural layer. A drowsy policy's retention cycles keep their
    // state and leak at the retention factor.
    LeakageMode {
        name: "gated-vdd",
        active_leakage_factor: 1.0,
        drowsy_leakage_factor: DROWSY_LEAKAGE_FACTOR,
        idle_leakage_factor: GATED_VDD_LEAKAGE_FACTOR,
        transition_energy_factor: 1.0,
        access_energy_factor: 1.0,
    },
    // The 6T low-power cell variant (Khatti Dizabadi/Kaya): a process-level
    // change, not a dynamic mode. Leakage shrinks whether or not the
    // subarray idles, at the retention voltage too, there are no
    // transitions, and each access pays a modest swing penalty.
    LeakageMode {
        name: "6t-lp",
        active_leakage_factor: LOW_POWER_6T_LEAKAGE_FACTOR,
        drowsy_leakage_factor: DROWSY_LEAKAGE_FACTOR * LOW_POWER_6T_LEAKAGE_FACTOR,
        idle_leakage_factor: LOW_POWER_6T_LEAKAGE_FACTOR,
        transition_energy_factor: 0.0,
        access_energy_factor: LOW_POWER_6T_ACCESS_FACTOR,
    },
];

/// Spec-level selector for the leakage-mode zoo: the `Copy + Eq + Hash`
/// name of a [`LeakageMode`] row that run specs, checkpoint journals and
/// the CLI carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum LeakageKind {
    /// Conventional full-Vdd cells (the inert default).
    #[default]
    FullVdd,
    /// State-preserving low-Vdd sleep during idle episodes.
    Drowsy,
    /// Supply gating during idle episodes (state-destroying).
    GatedVdd,
    /// 6T low-power cell variant (static leakage reduction).
    LowPower6T,
}

impl LeakageKind {
    /// Every mode in the zoo, baseline first.
    pub const ALL: [LeakageKind; 4] =
        [LeakageKind::FullVdd, LeakageKind::Drowsy, LeakageKind::GatedVdd, LeakageKind::LowPower6T];

    /// The mode's row of factors.
    #[must_use]
    pub fn mode(&self) -> &'static LeakageMode {
        &MODES[*self as usize]
    }

    /// Short stable label (the mode's name).
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.mode().name
    }
}

/// The label, which the grammar below parses back.
impl std::fmt::Display for LeakageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The CLI/protocol grammar for `--leakage-mode`: `full-vdd` (or `static`,
/// `none`), `drowsy`, `gated-vdd`, `6t` (or `6t-lp`, `low-power-6t`).
impl std::str::FromStr for LeakageKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full-vdd" | "static" | "none" => Ok(LeakageKind::FullVdd),
            "drowsy" => Ok(LeakageKind::Drowsy),
            "gated-vdd" | "gatedvdd" => Ok(LeakageKind::GatedVdd),
            "6t" | "6t-lp" | "low-power-6t" => Ok(LeakageKind::LowPower6T),
            other => {
                Err(format!("unknown leakage mode `{other}` (try full-vdd, drowsy, gated-vdd, 6t)"))
            }
        }
    }
}

/// Energy consumed by one cache over a run, decomposed the way the paper
/// reports it.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CacheEnergyBreakdown {
    /// Dynamic read/write energy, including periphery, in joules.
    pub dynamic_j: f64,
    /// Bitline leakage burnt in pulled-up subarrays, in joules. This is the
    /// steady "bitline discharge" of statically precharged subarrays.
    pub pullup_leak_j: f64,
    /// Isolation-episode energy (precharge-device switching plus bitline
    /// re-pump), in joules. Zero for static pull-up; this is the overhead
    /// that makes aggressive isolation a bad deal in 180 nm (Figure 9).
    pub episode_j: f64,
    /// Internal cell leakage (unaffected by bitline isolation), in joules.
    pub cell_leak_j: f64,
    /// Gated-precharging decay counter + comparator energy, in joules.
    pub counter_j: f64,
    /// Error-protection energy: check-bit column leakage/swing share,
    /// SECDED codec switching, and scrub traffic, in joules. Zero for an
    /// unprotected cache. Kept as its own component (rather than scaled
    /// into the bitline terms) so the paper's discharge figures stay
    /// bit-identical when protection is armed on a fault-free run.
    pub ecc_j: f64,
}

impl CacheEnergyBreakdown {
    /// Total cache energy in joules.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.dynamic_j
            + self.pullup_leak_j
            + self.episode_j
            + self.cell_leak_j
            + self.counter_j
            + self.ecc_j
    }

    /// Energy dissipated through the bitline paths: pulled-up leakage plus
    /// isolation episodes. This is the quantity the paper's "relative
    /// amount of bitline discharge" figures (3, 8, 9) compare.
    #[must_use]
    pub fn bitline_discharge_j(&self) -> f64 {
        self.pullup_leak_j + self.episode_j
    }

    /// Bitline discharge relative to a baseline (1.0 = no change).
    ///
    /// # Panics
    ///
    /// Panics if the baseline has zero discharge.
    #[must_use]
    pub fn relative_discharge(&self, baseline: &CacheEnergyBreakdown) -> f64 {
        let base = baseline.bitline_discharge_j();
        assert!(base > 0.0, "baseline must have bitline discharge");
        self.bitline_discharge_j() / base
    }

    /// Overall cache-energy reduction versus a baseline (positive = saves).
    ///
    /// # Panics
    ///
    /// Panics if the baseline has zero total energy.
    #[must_use]
    pub fn overall_reduction(&self, baseline: &CacheEnergyBreakdown) -> f64 {
        let base = baseline.total_j();
        assert!(base > 0.0, "baseline must have energy");
        1.0 - self.total_j() / base
    }

    /// Fraction of total energy that is bitline discharge.
    #[must_use]
    pub fn bitline_share(&self) -> f64 {
        self.bitline_discharge_j() / self.total_j()
    }
}

/// One cache level's use over a run, which [`EnergyAccountant::price`]
/// prices: its activity report and everything else the joules depend on.
#[derive(Debug, Clone, Copy)]
pub struct LevelUse<'a> {
    /// The precharge policy's activity report.
    pub report: &'a ActivityReport,
    /// Dynamic reads: loads for a data cache, line fetches for an
    /// instruction cache, lookups for an outer level.
    pub reads: u64,
    /// Dynamic writes: stores, or line fills at an outer level.
    pub writes: u64,
    /// Whether the policy pays gated precharging's decay counters
    /// (Section 6.2).
    pub decay_counters: bool,
    /// Way-prediction outcomes, which switch reads to way-predicted
    /// accounting.
    pub way_stats: Option<WayStats>,
    /// SECDED activity, when the level is protected.
    pub ecc: Option<EccActivity>,
    /// The cells' leakage mode.
    pub leakage: LeakageKind,
    /// `(dynamic, leakage)` energy multipliers for the supply the level
    /// sensed at; `(1.0, 1.0)` at nominal.
    pub supply: (f64, f64),
}

impl<'a> LevelUse<'a> {
    /// `reads` and `writes` over `report` on a plain level: no decay
    /// counters, way prediction or ECC, full-Vdd cells at nominal supply.
    #[must_use]
    pub fn new(report: &'a ActivityReport, reads: u64, writes: u64) -> LevelUse<'a> {
        LevelUse {
            report,
            reads,
            writes,
            decay_counters: false,
            way_stats: None,
            ecc: None,
            leakage: LeakageKind::FullVdd,
            supply: (1.0, 1.0),
        }
    }
}

/// Prices a cache's activity report using the circuit models.
#[derive(Debug, Clone)]
pub struct EnergyAccountant {
    node: TechnologyNode,
    cache: CacheConfig,
    model: SubarrayEnergyModel,
}

impl EnergyAccountant {
    /// Builds the accountant for one node and cache geometry.
    #[must_use]
    pub fn new(node: TechnologyNode, cache: CacheConfig) -> EnergyAccountant {
        EnergyAccountant { node, cache, model: SubarrayEnergyModel::new(node, cache.geometry()) }
    }

    /// The technology node.
    #[must_use]
    pub fn node(&self) -> TechnologyNode {
        self.node
    }

    /// Average-case bitline discharge of the whole cache per cycle under
    /// static pull-up, in joules.
    #[must_use]
    pub fn static_discharge_per_cycle_j(&self) -> f64 {
        self.cache.subarrays() as f64
            * self.model.pulled_up_cycle_energy_j()
            * AVERAGE_CASE_LEAKAGE_FACTOR
    }

    /// Dynamic energy of `reads` and `writes` with conventional cells,
    /// periphery included, honouring way prediction when stats are
    /// provided.
    ///
    /// A conventional set-associative read probes **all** ways in parallel
    /// (tag lookup overlaps data access — the premise of way prediction,
    /// references [12, 15] of the paper). With a predictor, correct
    /// predictions read one way; mispredictions read the predicted way and
    /// then all ways on the re-probe.
    fn access_energy_j(&self, reads: u64, writes: u64, way_stats: Option<WayStats>) -> f64 {
        let m = &self.model;
        let assoc = self.cache.assoc as f64;
        let way_reads = match way_stats {
            None => reads as f64 * assoc,
            Some(ws) => {
                let unpredicted = reads.saturating_sub(ws.correct + ws.wrong) as f64;
                ws.correct as f64 + ws.wrong as f64 * (assoc + 1.0) + unpredicted * assoc
            }
        };
        way_reads * m.read_access_energy_j()
            + reads as f64 * m.peripheral_access_energy_j()
            + writes as f64 * (m.write_access_energy_j() + m.peripheral_access_energy_j())
    }

    /// Error-protection energy: the 8 check columns per 64-bit word share
    /// proportionally in the array energy `array_j` (bitline leakage,
    /// episodes, cell leakage, each at its own supply factor), the codec
    /// switches on every protected access, and scrub traffic pays per
    /// word, both at the dynamic factor `f_dyn`.
    fn ecc_energy_j(&self, array_j: f64, activity: EccActivity, f_dyn: f64) -> f64 {
        let m = &self.model;
        m.ecc_check_column_fraction() * array_j
            + activity.protected_accesses as f64 * m.ecc_codec_energy_j() * f_dyn
            + activity.scrub_words as f64 * m.ecc_scrub_word_energy_j() * f_dyn
    }

    /// Prices one level's use in a single walk over its subarrays.
    ///
    /// Every subarray-cycle is in exactly one cell state: drowsy (the
    /// report's `drowsy_cycles`, where a drowsy precharge policy held the
    /// subarray at its retention voltage), isolated-idle (the idle
    /// histogram's episodes, each of which pays one sleep/wake transition
    /// of the leakage mode) or awake (the rest). Each state leaks at its
    /// factor from the mode's row, summed awake, drowsy, idle: a state
    /// with no cycles adds +0.0 and a unit factor multiplies exactly, so
    /// full-Vdd cells need no path of their own. The mode also scales
    /// `dynamic_j` by its access factor; the bitline terms (`pullup_leak_j`,
    /// `episode_j`, `counter_j`) belong to the precharge policy.
    ///
    /// The supply scales every term: switching (`dynamic_j`, `episode_j`,
    /// `counter_j`) by the dynamic factor, both leakage terms by the
    /// leakage factor. ECC is priced from those scaled terms, so its check
    /// columns leak and switch at the same factors as the data columns,
    /// and its codec and scrub switching take the dynamic factor.
    #[must_use]
    pub fn price(&self, level: &LevelUse<'_>) -> CacheEnergyBreakdown {
        let m = &self.model;
        let mode = level.leakage.mode();
        let report = level.report;
        let (mut pulled_up, mut drowsy, mut idle, mut episodes, mut episode_j) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        for s in &report.per_subarray {
            pulled_up += s.pulled_up_cycles;
            drowsy += s.drowsy_cycles;
            for (idle_cycles, count) in s.idle_histogram.iter() {
                episode_j += count as f64
                    * m.isolation_episode_energy_j(idle_cycles as u64)
                    * AVERAGE_CASE_LEAKAGE_FACTOR;
                idle += idle_cycles * count as f64;
                episodes += count as f64;
            }
        }
        let cell_cycles = report.per_subarray.len() as f64 * report.end_cycle as f64;
        let drowsy = f64::min(drowsy, cell_cycles);
        let idle = f64::min(idle, cell_cycles - drowsy);
        let awake = cell_cycles - drowsy - idle;

        let dynamic_j = self.access_energy_j(level.reads, level.writes, level.way_stats)
            * mode.access_energy_factor;
        let pullup_leak_j = pulled_up * m.pulled_up_cycle_energy_j() * AVERAGE_CASE_LEAKAGE_FACTOR;
        let cell_leak_j = (awake * mode.active_leakage_factor
            + drowsy * mode.drowsy_leakage_factor
            + idle * mode.idle_leakage_factor)
            * m.cell_leakage_cycle_energy_j()
            * AVERAGE_CASE_LEAKAGE_FACTOR
            + episodes
                * m.isolation_episode_energy_j(0)
                * mode.transition_energy_factor
                * AVERAGE_CASE_LEAKAGE_FACTOR;
        let counter_j = if level.decay_counters {
            report.total_accesses() as f64 * m.decay_counter_energy_j()
        } else {
            0.0
        };
        let (f_dyn, f_leak) = level.supply;
        let (pullup_leak_j, episode_j, cell_leak_j) =
            (pullup_leak_j * f_leak, episode_j * f_dyn, cell_leak_j * f_leak);
        let ecc_j = level.ecc.map_or(0.0, |activity| {
            self.ecc_energy_j(pullup_leak_j + episode_j + cell_leak_j, activity, f_dyn)
        });
        CacheEnergyBreakdown {
            dynamic_j: dynamic_j * f_dyn,
            pullup_leak_j,
            episode_j,
            cell_leak_j,
            counter_j: counter_j * f_dyn,
            ecc_j,
        }
    }

    /// The breakdown a conventional (static pull-up, full-Vdd, nominal
    /// supply) cache would have over the same run, computed analytically
    /// from the cycle count — used as the normalisation baseline so a
    /// separate baseline simulation is not required for energy ratios.
    ///
    /// A `protected` baseline pays check-column leakage and codec
    /// switching too (it protects the same words), but never scrubs — its
    /// bitlines are always pulled up, so latent-error dwell is bounded by
    /// the refresh-free static margin the paper assumes.
    #[must_use]
    pub fn static_baseline(
        &self,
        end_cycle: u64,
        reads: u64,
        writes: u64,
        protected: bool,
    ) -> CacheEnergyBreakdown {
        let pullup_leak_j = end_cycle as f64 * self.static_discharge_per_cycle_j();
        let cell_leak_j = self.cache.subarrays() as f64
            * end_cycle as f64
            * self.model.cell_leakage_cycle_energy_j()
            * AVERAGE_CASE_LEAKAGE_FACTOR;
        let activity = EccActivity { protected_accesses: reads + writes, scrub_words: 0 };
        CacheEnergyBreakdown {
            dynamic_j: self.access_energy_j(reads, writes, None),
            pullup_leak_j,
            episode_j: 0.0,
            cell_leak_j,
            counter_j: 0.0,
            ecc_j: if protected {
                self.ecc_energy_j(pullup_leak_j + cell_leak_j, activity, 1.0)
            } else {
                0.0
            },
        }
    }
}

/// ECC-related activity of one run, priced by [`EnergyAccountant::price`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EccActivity {
    /// Accesses that ran through the SECDED codec (reads + writes of the
    /// protected array).
    pub protected_accesses: u64,
    /// 72-bit words re-read (and rewritten) by background and demand
    /// scrubs.
    pub scrub_words: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitline_cache::PrechargePolicy;
    use gated_precharge::{GatedPolicy, OraclePolicy, StaticPullUp};

    fn accountant(node: TechnologyNode) -> EnergyAccountant {
        EnergyAccountant::new(node, CacheConfig::l1_data())
    }

    /// Drives a policy with a synthetic access stream: one access per
    /// `stride` cycles, round-robin over `hot` subarrays.
    fn drive(
        policy: &mut dyn PrechargePolicy,
        cycles: u64,
        stride: u64,
        hot: usize,
    ) -> ActivityReport {
        let mut c = 0;
        let mut i = 0usize;
        while c < cycles {
            policy.access(i % hot, c);
            i += 1;
            c += stride;
        }
        policy.finalize(cycles)
    }

    #[test]
    fn static_pullup_matches_analytic_baseline() {
        let acct = accountant(TechnologyNode::N70);
        let mut p = StaticPullUp::new(32);
        let report = drive(&mut p, 100_000, 3, 4);
        let accesses = report.total_accesses();
        let priced = acct.price(&LevelUse::new(&report, accesses, 0));
        let baseline = acct.static_baseline(100_000, accesses, 0, false);
        assert!((priced.total_j() - baseline.total_j()).abs() / baseline.total_j() < 1e-9);
        assert!((priced.relative_discharge(&baseline) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn oracle_reduces_discharge_by_about_90_percent_at_70nm() {
        // Figure 3's shape: with accesses concentrated and the 70 nm
        // episode overhead small, the oracle removes the vast majority of
        // bitline discharge.
        let acct = accountant(TechnologyNode::N70);
        let mut p = OraclePolicy::new(32);
        let report = drive(&mut p, 200_000, 3, 4);
        let priced = acct.price(&LevelUse::new(&report, report.total_accesses(), 0));
        let baseline = acct.static_baseline(200_000, report.total_accesses(), 0, false);
        let rel = priced.relative_discharge(&baseline);
        assert!((0.02..=0.30).contains(&rel), "oracle relative discharge {rel:.3}");
    }

    #[test]
    fn oracle_is_much_less_attractive_at_180nm() {
        let run = |node| {
            let acct = accountant(node);
            let mut p = OraclePolicy::new(32);
            let report = drive(&mut p, 200_000, 3, 4);
            let priced = acct.price(&LevelUse::new(&report, report.total_accesses(), 0));
            let baseline = acct.static_baseline(200_000, report.total_accesses(), 0, false);
            priced.relative_discharge(&baseline)
        };
        let new = run(TechnologyNode::N70);
        let old = run(TechnologyNode::N180);
        assert!(
            old > 3.0 * new,
            "per-access isolation should be far costlier at 180 nm: {old:.3} vs {new:.3}"
        );
    }

    #[test]
    fn gated_sits_between_static_and_oracle_at_70nm() {
        let acct = accountant(TechnologyNode::N70);
        let rel = |policy: &mut dyn PrechargePolicy| {
            let report = drive(policy, 200_000, 3, 4);
            let priced = acct.price(&LevelUse::new(&report, report.total_accesses(), 0));
            let baseline = acct.static_baseline(200_000, report.total_accesses(), 0, false);
            priced.relative_discharge(&baseline)
        };
        let oracle = rel(&mut OraclePolicy::new(32));
        let gated = rel(&mut GatedPolicy::new(32, 100, 1));
        assert!(gated < 0.5, "gated discharge {gated:.3} must save substantially");
        assert!(gated > oracle, "gated ({gated:.3}) cannot beat the oracle ({oracle:.3})");
    }

    #[test]
    fn bitline_discharge_dominates_cache_energy_at_70nm() {
        // The premise of the paper's 70 nm evaluation: roughly half (or
        // more) of cache energy is bitline discharge under static pull-up.
        let acct = accountant(TechnologyNode::N70);
        // Activity: ~0.3 accesses/cycle.
        let baseline = acct.static_baseline(100_000, 30_000, 10_000, false);
        let share = baseline.bitline_share();
        assert!((0.40..=0.85).contains(&share), "bitline share {share:.3}");
    }

    #[test]
    fn dynamic_energy_dominates_at_180nm() {
        let acct = accountant(TechnologyNode::N180);
        let baseline = acct.static_baseline(100_000, 30_000, 10_000, false);
        let share = baseline.bitline_share();
        assert!(share < 0.25, "bitline share at 180 nm {share:.3} should be small");
    }

    #[test]
    fn counter_overhead_is_negligible() {
        let acct = accountant(TechnologyNode::N70);
        let mut p = GatedPolicy::new(32, 100, 1);
        let report = drive(&mut p, 100_000, 3, 4);
        let with = acct.price(&LevelUse {
            decay_counters: true,
            ..LevelUse::new(&report, report.total_accesses(), 0)
        });
        let without = acct.price(&LevelUse::new(&report, report.total_accesses(), 0));
        let overhead = (with.total_j() - without.total_j()) / without.total_j();
        assert!(overhead < 0.001, "counter overhead {overhead:.5}");
        assert!(overhead > 0.0);
    }

    #[test]
    fn way_prediction_cuts_dynamic_read_energy() {
        use bitline_cache::WayStats;
        let acct = accountant(TechnologyNode::N70);
        let mut p = StaticPullUp::new(32);
        let report = drive(&mut p, 100_000, 3, 4);
        let reads = report.total_accesses();
        let conventional = acct.price(&LevelUse::new(&report, reads, 0));
        // 90% prediction accuracy on an all-hit stream.
        let correct = reads * 9 / 10;
        let ws = WayStats { correct, wrong: reads - correct };
        let predicted =
            acct.price(&LevelUse { way_stats: Some(ws), ..LevelUse::new(&report, reads, 0) });
        assert!(predicted.dynamic_j < conventional.dynamic_j);
        // Leakage components are untouched.
        assert!((predicted.pullup_leak_j - conventional.pullup_leak_j).abs() < 1e-18);
        // Perfect prediction on a 2-way cache halves the array read energy
        // (periphery unchanged), so the saving is bounded.
        let perfect = acct.price(&LevelUse {
            way_stats: Some(WayStats { correct: reads, wrong: 0 }),
            ..LevelUse::new(&report, reads, 0)
        });
        assert!(perfect.dynamic_j < predicted.dynamic_j);
    }

    #[test]
    fn all_wrong_way_predictions_cost_more_than_conventional() {
        use bitline_cache::WayStats;
        let acct = accountant(TechnologyNode::N70);
        let mut p = StaticPullUp::new(32);
        let report = drive(&mut p, 50_000, 3, 4);
        let reads = report.total_accesses();
        let conventional = acct.price(&LevelUse::new(&report, reads, 0));
        let all_wrong = acct.price(&LevelUse {
            way_stats: Some(WayStats { correct: 0, wrong: reads }),
            ..LevelUse::new(&report, reads, 0)
        });
        assert!(all_wrong.dynamic_j > conventional.dynamic_j);
    }

    #[test]
    fn breakdown_components_are_nonnegative_and_sum() {
        let acct = accountant(TechnologyNode::N100);
        let mut p = GatedPolicy::new(32, 50, 1);
        let report = drive(&mut p, 50_000, 7, 8);
        let b =
            acct.price(&LevelUse { decay_counters: true, ..LevelUse::new(&report, 5_000, 1_000) });
        for v in [b.dynamic_j, b.pullup_leak_j, b.episode_j, b.cell_leak_j, b.counter_j, b.ecc_j] {
            assert!(v >= 0.0);
        }
        let sum =
            b.dynamic_j + b.pullup_leak_j + b.episode_j + b.cell_leak_j + b.counter_j + b.ecc_j;
        assert!((b.total_j() - sum).abs() < 1e-18);
    }

    #[test]
    fn ecc_overhead_is_separate_and_modest() {
        let acct = accountant(TechnologyNode::N70);
        let mut p = GatedPolicy::new(32, 100, 1);
        let report = drive(&mut p, 100_000, 3, 4);
        let reads = report.total_accesses();
        let plain = LevelUse { decay_counters: true, ..LevelUse::new(&report, reads, 0) };
        let ecc = EccActivity { protected_accesses: reads, scrub_words: 10_000 };
        let protected = acct.price(&LevelUse { ecc: Some(ecc), ..plain });
        let plain = acct.price(&plain);
        // Unprotected components are bit-identical — protection never
        // perturbs the paper's discharge figures.
        assert_eq!(plain.dynamic_j.to_bits(), protected.dynamic_j.to_bits());
        assert_eq!(plain.pullup_leak_j.to_bits(), protected.pullup_leak_j.to_bits());
        assert_eq!(plain.episode_j.to_bits(), protected.episode_j.to_bits());
        assert_eq!(plain.cell_leak_j.to_bits(), protected.cell_leak_j.to_bits());
        assert_eq!(plain.ecc_j, 0.0);
        assert!(protected.ecc_j > 0.0);
        // Check bits are 1/8 of the array; codec and scrub are small, so
        // the overall overhead stays well under 20%.
        let overhead = protected.total_j() / plain.total_j() - 1.0;
        assert!((0.0..0.2).contains(&overhead), "ecc overhead {overhead:.4}");
    }

    #[test]
    fn protected_static_baseline_pays_codec_but_not_scrub() {
        let acct = accountant(TechnologyNode::N70);
        let plain = acct.static_baseline(100_000, 30_000, 10_000, false);
        let protected = acct.static_baseline(100_000, 30_000, 10_000, true);
        assert_eq!(plain.pullup_leak_j.to_bits(), protected.pullup_leak_j.to_bits());
        assert!(protected.ecc_j > 0.0);
        assert!(protected.total_j() > plain.total_j());
    }
}
