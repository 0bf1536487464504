//! System specification: which policy drives which cache.

use bitline_cache::{CacheConfig, PrechargePolicy};
use bitline_circuit::DecoderModel;
use bitline_cmos::TechnologyNode;
use bitline_energy::LeakageKind;
use gated_precharge::{
    AdaptiveConfig, AdaptiveGatedPolicy, DrowsyPolicy, GatedPolicy, OnDemandPolicy, OraclePolicy,
    ResizableConfig, ResizablePolicy, StaticPullUp,
};
use serde::{Deserialize, Serialize};

use bitline_faults::FaultConfig;

use crate::error::SimError;
use crate::recorder::LocalityRecorder;

/// Which precharge controller to attach to a cache.
///
/// Equality and hashing are total (`Eq + Hash`): the one `f64` field
/// (`Resizable::slack`) compares and hashes by bit pattern, so the type
/// can key the process-wide run cache. See [`SystemSpec`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Conventional static pull-up (the baseline).
    StaticPullUp,
    /// Perfect, delay-free identification (Section 4 potential).
    Oracle,
    /// Partial-address-decode on-demand precharging (Section 5).
    OnDemand,
    /// Gated precharging with a decay threshold in cycles (Section 6).
    Gated {
        /// Decay threshold in cycles.
        threshold: u64,
    },
    /// Gated precharging plus predecode hints from base-register values
    /// (Section 6.3; data caches only — instruction fetch has no base
    /// register).
    GatedPredecode {
        /// Decay threshold in cycles.
        threshold: u64,
    },
    /// Gated precharging with a feedback-controlled threshold (extension
    /// beyond the paper: its Section 6.2 defers threshold selection).
    AdaptiveGated {
        /// Accesses per adaptation interval.
        interval_accesses: u64,
    },
    /// Drowsy subarrays (the paper's [13]): reduces *cell* leakage, not
    /// bitline discharge — the contrast the related-work section draws.
    Drowsy {
        /// Idle cycles before a subarray drops to the retention voltage.
        threshold: u64,
    },
    /// Resizable-cache baseline (Section 6.4, [22]).
    Resizable {
        /// Accesses per monitoring interval.
        interval_accesses: u64,
        /// Tolerated absolute miss-ratio increase before upsizing.
        slack: f64,
    },
    /// Static-pull-up timing plus subarray locality recording (Figures
    /// 5/6).
    LocalityRecorder,
}

impl PartialEq for PolicyKind {
    fn eq(&self, other: &Self) -> bool {
        use PolicyKind::{
            AdaptiveGated, Drowsy, Gated, GatedPredecode, LocalityRecorder, OnDemand, Oracle,
            Resizable, StaticPullUp,
        };
        match (self, other) {
            (StaticPullUp, StaticPullUp)
            | (Oracle, Oracle)
            | (OnDemand, OnDemand)
            | (LocalityRecorder, LocalityRecorder) => true,
            (Gated { threshold: a }, Gated { threshold: b })
            | (GatedPredecode { threshold: a }, GatedPredecode { threshold: b })
            | (Drowsy { threshold: a }, Drowsy { threshold: b }) => a == b,
            (AdaptiveGated { interval_accesses: a }, AdaptiveGated { interval_accesses: b }) => {
                a == b
            }
            (
                Resizable { interval_accesses: ia, slack: sa },
                Resizable { interval_accesses: ib, slack: sb },
            ) => ia == ib && sa.to_bits() == sb.to_bits(),
            _ => false,
        }
    }
}

impl Eq for PolicyKind {}

impl std::hash::Hash for PolicyKind {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match *self {
            PolicyKind::Gated { threshold }
            | PolicyKind::GatedPredecode { threshold }
            | PolicyKind::Drowsy { threshold } => threshold.hash(state),
            PolicyKind::AdaptiveGated { interval_accesses } => interval_accesses.hash(state),
            PolicyKind::Resizable { interval_accesses, slack } => {
                interval_accesses.hash(state);
                slack.to_bits().hash(state);
            }
            PolicyKind::StaticPullUp
            | PolicyKind::Oracle
            | PolicyKind::OnDemand
            | PolicyKind::LocalityRecorder => {}
        }
    }
}

impl PolicyKind {
    /// Instantiates the policy for a cache at a node.
    #[must_use]
    pub fn build(
        &self,
        cache: &CacheConfig,
        node: TechnologyNode,
        recorder_sink: Option<std::rc::Rc<std::cell::RefCell<crate::LocalityStats>>>,
    ) -> Box<dyn PrechargePolicy> {
        let n = cache.subarrays();
        let decoder = DecoderModel::new(node, cache.geometry());
        match *self {
            PolicyKind::StaticPullUp => Box::new(StaticPullUp::new(n)),
            PolicyKind::Oracle => Box::new(OraclePolicy::new(n)),
            PolicyKind::OnDemand => {
                Box::new(OnDemandPolicy::new(n, decoder.on_demand_penalty_cycles()))
            }
            PolicyKind::Gated { threshold } | PolicyKind::GatedPredecode { threshold } => {
                Box::new(GatedPolicy::new(n, threshold, decoder.cold_access_penalty_cycles()))
            }
            PolicyKind::AdaptiveGated { interval_accesses } => Box::new(AdaptiveGatedPolicy::new(
                n,
                AdaptiveConfig { interval_accesses, ..AdaptiveConfig::default() },
            )),
            PolicyKind::Drowsy { threshold } => Box::new(DrowsyPolicy::new(n, threshold, 1)),
            PolicyKind::Resizable { interval_accesses, slack } => Box::new(ResizablePolicy::new(
                cache,
                ResizableConfig {
                    interval_accesses,
                    miss_ratio_slack: slack,
                    ..ResizableConfig::default()
                },
            )),
            PolicyKind::LocalityRecorder => Box::new(LocalityRecorder::new(
                n,
                recorder_sink.expect("locality recorder needs a sink"),
            )),
        }
    }

    /// Whether the CPU should issue predecode hints for this D-cache
    /// policy. The adaptive controller, like the paper's main data-cache
    /// configuration, runs with predecoding.
    #[must_use]
    pub fn wants_predecode(&self) -> bool {
        matches!(self, PolicyKind::GatedPredecode { .. } | PolicyKind::AdaptiveGated { .. })
    }

    /// Whether the decay-counter hardware overhead applies.
    #[must_use]
    pub fn has_decay_counters(&self) -> bool {
        matches!(
            self,
            PolicyKind::Gated { .. }
                | PolicyKind::GatedPredecode { .. }
                | PolicyKind::AdaptiveGated { .. }
        )
    }

    /// A short stable label (no parameters), used to key per-policy
    /// metrics such as `sim.runner.precharges.d.gated`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::StaticPullUp => "static",
            PolicyKind::Oracle => "oracle",
            PolicyKind::OnDemand => "ondemand",
            PolicyKind::Gated { .. } => "gated",
            PolicyKind::GatedPredecode { .. } => "gated-predecode",
            PolicyKind::AdaptiveGated { .. } => "adaptive",
            PolicyKind::Drowsy { .. } => "drowsy",
            PolicyKind::Resizable { .. } => "resizable",
            PolicyKind::LocalityRecorder => "recorder",
        }
    }

    /// Rejects a zero threshold or interval, which no controller can run
    /// on: the gated and drowsy constructors panic on a zero threshold,
    /// and the interval controllers would act every access.
    fn validate(&self) -> Result<(), &'static str> {
        match *self {
            PolicyKind::Gated { threshold: 0 }
            | PolicyKind::GatedPredecode { threshold: 0 }
            | PolicyKind::Drowsy { threshold: 0 } => Err("threshold must be positive"),
            PolicyKind::AdaptiveGated { interval_accesses: 0 }
            | PolicyKind::Resizable { interval_accesses: 0, .. } => {
                Err("interval must be positive")
            }
            _ => Ok(()),
        }
    }

    /// The instruction-cache counterpart of a data-cache policy: identical,
    /// except that predecode gating falls back to plain gating (predecoding
    /// needs a base register, and instruction fetch has none).
    #[must_use]
    pub fn icache_default(self) -> PolicyKind {
        match self {
            PolicyKind::GatedPredecode { threshold } => PolicyKind::Gated { threshold },
            other => other,
        }
    }
}

/// The canonical spelling of the policy grammar, which
/// [`FromStr`](std::str::FromStr) inverts exactly (slacks print
/// shortest-roundtrip, so they parse back bit for bit).
impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())?;
        match *self {
            PolicyKind::Gated { threshold: n }
            | PolicyKind::GatedPredecode { threshold: n }
            | PolicyKind::Drowsy { threshold: n }
            | PolicyKind::AdaptiveGated { interval_accesses: n } => write!(f, ":{n}"),
            PolicyKind::Resizable { interval_accesses, slack } => {
                write!(f, ":{interval_accesses}:{slack}")
            }
            PolicyKind::StaticPullUp
            | PolicyKind::Oracle
            | PolicyKind::OnDemand
            | PolicyKind::LocalityRecorder => Ok(()),
        }
    }
}

/// The CLI/protocol policy grammar: `static`, `oracle`, `ondemand` (or
/// `on-demand`), `gated[:T]`, `gated-predecode[:T]` (or `predecode[:T]`),
/// `adaptive[:INTERVAL]`, `drowsy[:T]`, `resizable[:INTERVAL[:SLACK]]`,
/// `recorder`. Shared by every front end
/// through the spec table, so they cannot drift.
impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        let count = |default: u64, what: &str| -> Result<u64, String> {
            arg.map_or(Ok(default), |a| a.parse().map_err(|_| format!("bad {what} `{a}`")))
        };
        match name {
            "static" => Ok(PolicyKind::StaticPullUp),
            "oracle" => Ok(PolicyKind::Oracle),
            "ondemand" | "on-demand" => Ok(PolicyKind::OnDemand),
            "gated" => Ok(PolicyKind::Gated { threshold: count(100, "threshold")? }),
            "gated-predecode" | "predecode" => {
                Ok(PolicyKind::GatedPredecode { threshold: count(100, "threshold")? })
            }
            "adaptive" => {
                Ok(PolicyKind::AdaptiveGated { interval_accesses: count(2_000, "interval")? })
            }
            "drowsy" => Ok(PolicyKind::Drowsy { threshold: count(100, "threshold")? }),
            "resizable" => {
                let (interval, slack) = match arg.and_then(|a| a.split_once(':')) {
                    Some((i, s)) => (Some(i), Some(s)),
                    None => (arg, None),
                };
                let slack = slack.map_or(Ok(0.005), |s| match s.parse::<f64>() {
                    Ok(x) if x.is_finite() => Ok(x),
                    _ => Err(format!("bad slack `{s}` (want a finite miss-ratio increase)")),
                })?;
                let interval_accesses = interval
                    .map_or(Ok(10_000), |i| i.parse().map_err(|_| format!("bad interval `{i}`")))?;
                Ok(PolicyKind::Resizable { interval_accesses, slack })
            }
            "recorder" => Ok(PolicyKind::LocalityRecorder),
            other => Err(format!(
                "unknown policy `{other}` (try static, oracle, ondemand, gated:T, \
                 gated-predecode:T, adaptive:INTERVAL, drowsy:T, resizable:INTERVAL:SLACK, \
                 recorder)"
            )),
        }
    }
}

/// Fault-injection parameters for a run. Disabled by default: the stock
/// simulation is fault-free and cycle-identical to a build without the
/// fault layer.
///
/// Equality and hashing treat [`FaultSpec::rate`] by bit pattern
/// (`f64::to_bits`), making the type a valid `HashMap` key; two specs with
/// numerically equal rates written the same way are equal, and `NaN`
/// (which [`SystemSpec::validate`] rejects anyway) at least compares equal
/// to itself.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Sense-margin upset probability per cold access (0 disables the
    /// whole fault layer).
    pub rate: f64,
    /// Seed of the injector's private RNG (independent of the workload
    /// seed).
    pub seed: u64,
    /// Arm graceful degradation: pin a subarray back to static pull-up
    /// after [`FaultSpec::FAIL_SAFE_UPSETS`] detected upsets (without
    /// ECC) or detected-uncorrectable errors (with ECC).
    pub fail_safe: bool,
    /// Protect both L1s with the (72,64) SECDED codec (`--ecc`). With
    /// `rate == 0` this is fully transparent: no decorator is armed and
    /// every figure stays byte-identical.
    pub ecc: bool,
    /// Background scrub sweep period in cycles (`--scrub-period`; `None`
    /// disables; requires [`FaultSpec::ecc`]).
    pub scrub_period: Option<u64>,
}

impl PartialEq for FaultSpec {
    fn eq(&self, other: &Self) -> bool {
        self.rate.to_bits() == other.rate.to_bits()
            && self.seed == other.seed
            && self.fail_safe == other.fail_safe
            && self.ecc == other.ecc
            && self.scrub_period == other.scrub_period
    }
}

impl Eq for FaultSpec {}

impl std::hash::Hash for FaultSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.rate.to_bits().hash(state);
        self.seed.hash(state);
        self.fail_safe.hash(state);
        self.ecc.hash(state);
        self.scrub_period.hash(state);
    }
}

impl FaultSpec {
    /// Detected upsets (DUEs with ECC) per subarray before fail-safe
    /// pinning.
    pub const FAIL_SAFE_UPSETS: u32 = 25;

    /// Codec-visible errors per subarray before the degradation ladder
    /// advances to scrub-on-detect (stage 1). Armed together with
    /// [`FaultSpec::fail_safe`] when ECC is on, so the ladder replaces
    /// the one-shot threshold rather than adding a separate knob.
    pub const SCRUB_ON_DETECT_ERRORS: u32 = 8;

    /// Whether any fault can ever be injected.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.rate > 0.0
    }

    /// Whether runs carry a [`bitline_ecc::ReliabilityReport`]: the codec
    /// is armed *and* there are upsets for it to classify.
    #[must_use]
    pub fn protected(&self) -> bool {
        self.ecc && self.enabled()
    }

    /// Expands to the full fault-model configuration. `pullup_penalty` is
    /// the cache's cold-access penalty (the decoder-dependent cycles a
    /// spuriously-isolated access pays); the replay penalty is one cycle of
    /// re-sense on top of that. `seed_salt` decouples the D- and I-cache
    /// fault streams. `subarray_words` sizes the latent-error denominator
    /// and the cost of one demand scrub.
    #[must_use]
    pub fn to_config(
        &self,
        pullup_penalty: u32,
        seed_salt: u64,
        subarray_words: u32,
    ) -> FaultConfig {
        let base = FaultConfig::with_rate(self.rate, self.seed.wrapping_add(seed_salt));
        FaultConfig {
            retry_cycles: pullup_penalty + 1,
            pullup_penalty,
            fail_safe_threshold: self.fail_safe.then_some(Self::FAIL_SAFE_UPSETS),
            ecc: self.ecc,
            scrub_period: self.scrub_period,
            scrub_on_detect_threshold: (self.ecc && self.fail_safe)
                .then_some(Self::SCRUB_ON_DETECT_ERRORS),
            subarray_words,
            ..base
        }
    }
}

impl Default for FaultSpec {
    /// Fault-free and unprotected.
    fn default() -> Self {
        FaultSpec { rate: 0.0, seed: 0xB17F_A017, fail_safe: false, ecc: false, scrub_period: None }
    }
}

/// Supply-voltage parameters for a run. Inert by default: nominal Vdd
/// (`scale == 1.0`) with the governor off prices nothing differently and
/// arms no speculation, so every existing figure stays cycle- and
/// byte-identical until a spec opts in (`--vdd`, `--vdd-governor`).
///
/// Equality and hashing treat [`VddSpec::scale`] by bit pattern
/// (`f64::to_bits`), like [`FaultSpec::rate`], so the type can key the
/// process-wide run cache.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VddSpec {
    /// Supply voltage as a fraction of the node's nominal Vdd. Values
    /// below the sense-amp guardband make cold reads *timing-speculative*:
    /// they may mis-sense and replay through the detect-and-replay path.
    pub scale: f64,
    /// Arm the per-subarray voltage governor: start at [`VddSpec::scale`]
    /// (the aggressive rung) and climb a guardband ladder toward nominal
    /// when observed replay rates spike, with hysteresis and a fail-safe
    /// pin to nominal after repeated escalation.
    pub governor: bool,
}

impl PartialEq for VddSpec {
    fn eq(&self, other: &Self) -> bool {
        self.scale.to_bits() == other.scale.to_bits() && self.governor == other.governor
    }
}

impl Eq for VddSpec {}

impl std::hash::Hash for VddSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.scale.to_bits().hash(state);
        self.governor.hash(state);
    }
}

impl VddSpec {
    /// The inert spec: nominal supply, governor off.
    #[must_use]
    pub fn nominal() -> Self {
        VddSpec { scale: bitline_cmos::vdd::NOMINAL_VDD_SCALE, governor: false }
    }

    /// Whether this spec is the inert nominal supply (nothing to encode,
    /// nothing to re-price, no decorator — the guarantee behind the
    /// voltage differential test).
    #[must_use]
    pub fn is_default(&self) -> bool {
        self.scale.to_bits() == bitline_cmos::vdd::NOMINAL_VDD_SCALE.to_bits() && !self.governor
    }

    /// The supply scales a run can sense at, aggressive first. A static
    /// spec is a single rung; a governed undervolted spec climbs
    /// aggressive → halfway → nominal. Overdrive (`scale >= 1`) never
    /// ladders — extra supply only adds margin, so there is nothing for
    /// a governor to escalate to.
    #[must_use]
    pub fn ladder_scales(&self) -> Vec<f64> {
        let nominal = bitline_cmos::vdd::NOMINAL_VDD_SCALE;
        if self.governor && self.scale < nominal {
            vec![self.scale, (self.scale + nominal) / 2.0, nominal]
        } else {
            vec![self.scale]
        }
    }

    /// Expands to the fault layer's ladder configuration, with each
    /// rung's mis-sense probability read off the `node` guardband curve.
    /// `None` for the inert default — nothing to arm, nothing to price.
    #[must_use]
    pub fn to_config(&self, node: TechnologyNode) -> Option<bitline_faults::VddConfig> {
        if self.is_default() {
            return None;
        }
        let steps = self
            .ladder_scales()
            .into_iter()
            .map(|scale| bitline_faults::VddStep {
                scale,
                upset_probability: bitline_cmos::vdd::timing_upset_probability(node, scale),
            })
            .collect::<Vec<_>>();
        let governor = (steps.len() > 1).then(bitline_faults::GovernorConfig::default);
        Some(bitline_faults::VddConfig { steps, governor })
    }

    /// Rejects supplies the circuit model cannot price.
    ///
    /// # Errors
    ///
    /// Returns a message when the scale is non-finite (NaN and ±inf fail
    /// fast here, before they can poison energy totals) or outside the
    /// modelled band.
    pub fn validate(&self) -> Result<(), String> {
        if !self.scale.is_finite() {
            return Err(format!("vdd scale must be finite, got {}", self.scale));
        }
        if !bitline_cmos::vdd::vdd_scale_valid(self.scale) {
            return Err(format!(
                "vdd scale = {}; must be within [{}, {}] of nominal",
                self.scale,
                bitline_cmos::vdd::MIN_VDD_SCALE,
                bitline_cmos::vdd::MAX_VDD_SCALE
            ));
        }
        // The expanded ladder must also satisfy the fault layer (belt
        // and braces: the construction above cannot currently violate
        // it, but a refactor that does should fail here, not mid-run).
        if let Some(cfg) = self.to_config(TechnologyNode::N70) {
            cfg.validate()?;
        }
        Ok(())
    }
}

/// Multi-level hierarchy parameters for a run. The default is **inert**:
/// `levels == 1` leaves the memory system exactly as the paper models it —
/// managed L1s in front of a statically precharged L2 — and the full-Vdd
/// leakage mode prices nothing differently, so every existing figure stays
/// cycle- and byte-identical until a spec opts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HierarchySpec {
    /// Managed cache levels behind the L1s: `1` = stock (inert default),
    /// `2` = the L2 runs a real precharge policy, `3` = an L3 is inserted
    /// between the L2 and memory (`--levels`).
    pub levels: u8,
    /// Precharge policy for the L2 (and the L3 when present). Only applied
    /// when [`HierarchySpec::levels`] is at least 2.
    pub l2_policy: PolicyKind,
    /// Cell leakage mode priced on every level (`--leakage-mode`).
    pub leakage_mode: LeakageKind,
}

impl Default for HierarchySpec {
    fn default() -> Self {
        HierarchySpec {
            levels: 1,
            l2_policy: PolicyKind::StaticPullUp,
            leakage_mode: LeakageKind::FullVdd,
        }
    }
}

impl HierarchySpec {
    /// Whether the outer levels are actively managed (a non-stock memory
    /// system must be built). The leakage mode alone does not count: it
    /// only re-prices energy, never touching cycles.
    #[must_use]
    pub fn active(&self) -> bool {
        self.levels >= 2
    }

    /// Whether this spec is the inert default (nothing to encode, nothing
    /// to build — the guarantee behind the differential golden test).
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == HierarchySpec::default()
    }

    /// Rejects hierarchies the simulator cannot run.
    ///
    /// # Errors
    ///
    /// Returns a message when `levels` is outside `[1, 3]` or the outer
    /// policy is the locality recorder (which needs a figure-5/6 sink the
    /// outer levels do not carry).
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=3).contains(&self.levels) {
            return Err(format!("levels = {}; must be 1, 2 or 3", self.levels));
        }
        if self.l2_policy == PolicyKind::LocalityRecorder {
            return Err("the locality recorder cannot drive an outer level".into());
        }
        Ok(())
    }
}

/// Full specification of one simulation run.
///
/// `Eq + Hash` (total, with the two `f64` fields compared by bit pattern —
/// see [`FaultSpec`] and [`PolicyKind`]) so `(benchmark, SystemSpec)` can
/// key the process-wide memoized run cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SystemSpec {
    /// D-cache precharge policy.
    pub d_policy: PolicyKind,
    /// I-cache precharge policy.
    pub i_policy: PolicyKind,
    /// Subarray size in bytes for both L1s (Figure 10 sweeps this).
    pub subarray_bytes: usize,
    /// Instructions to simulate.
    pub instructions: u64,
    /// Workload seed.
    pub seed: u64,
    /// Enable MRU way prediction on both L1s (orthogonal dynamic-energy
    /// technique; paper's related work [12, 15]).
    pub way_prediction: bool,
    /// Fault injection (disabled by default; see [`FaultSpec`]).
    pub faults: FaultSpec,
    /// Multi-level hierarchy and leakage mode (inert by default; see
    /// [`HierarchySpec`]).
    pub hierarchy: HierarchySpec,
    /// Supply voltage and voltage governor (inert by default; see
    /// [`VddSpec`]).
    pub vdd: VddSpec,
}

impl SystemSpec {
    /// Subarray sizes the cache model can realise: a power of two between
    /// one line (32 B) and the whole 32 KB L1.
    const MIN_SUBARRAY: usize = 32;
    const MAX_SUBARRAY: usize = 32 * 1024;

    /// Rejects specs the simulator cannot run instead of panicking deep in
    /// the cache model.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidSpec`] when the subarray size is not a power of
    /// two in `[32, 32768]`, the instruction count is zero, a D, I or L2
    /// policy has a zero threshold or interval, or the fault parameters
    /// fail [`FaultConfig::validate`] (rate outside `[0, 1]`, a zero scrub
    /// period, scrubbing without ECC, ...).
    pub fn validate(&self) -> Result<(), SimError> {
        let sa = self.subarray_bytes;
        if !sa.is_power_of_two() || !(Self::MIN_SUBARRAY..=Self::MAX_SUBARRAY).contains(&sa) {
            return Err(SimError::InvalidSpec(format!(
                "subarray_bytes = {sa}; must be a power of two between {} and {}",
                Self::MIN_SUBARRAY,
                Self::MAX_SUBARRAY
            )));
        }
        if self.instructions == 0 {
            return Err(SimError::InvalidSpec("instructions = 0".into()));
        }
        for (field, policy) in [
            ("d_policy", self.d_policy),
            ("i_policy", self.i_policy),
            ("l2_policy", self.hierarchy.l2_policy),
        ] {
            policy
                .validate()
                .map_err(|e| SimError::InvalidSpec(format!("{field} = {policy}; {e}")))?;
        }
        self.faults
            .to_config(1, 0, self.subarray_words())
            .validate()
            .map_err(SimError::InvalidSpec)?;
        self.hierarchy.validate().map_err(SimError::InvalidSpec)?;
        self.vdd.validate().map_err(SimError::InvalidSpec)?;
        Ok(())
    }

    /// 64-bit words per subarray (the ECC latent-error denominator and
    /// per-subarray scrub cost).
    #[must_use]
    pub fn subarray_words(&self) -> u32 {
        u32::try_from(self.subarray_bytes / 8).unwrap_or(u32::MAX).max(1)
    }
}

impl Default for SystemSpec {
    /// The static-pull-up machine at 150 000 instructions, every optional
    /// axis inert. A pure constant: nothing here reads the environment.
    fn default() -> Self {
        SystemSpec {
            d_policy: PolicyKind::StaticPullUp,
            i_policy: PolicyKind::StaticPullUp,
            subarray_bytes: 1024,
            instructions: 150_000,
            seed: 42,
            way_prediction: false,
            faults: FaultSpec::default(),
            hierarchy: HierarchySpec::default(),
            vdd: VddSpec::nominal(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn policies_build_for_all_nodes() {
        let cache = CacheConfig::l1_data();
        for node in TechnologyNode::ALL {
            for kind in [
                PolicyKind::StaticPullUp,
                PolicyKind::Oracle,
                PolicyKind::OnDemand,
                PolicyKind::Gated { threshold: 100 },
                PolicyKind::GatedPredecode { threshold: 100 },
                PolicyKind::Resizable { interval_accesses: 1000, slack: 0.005 },
                PolicyKind::AdaptiveGated { interval_accesses: 500 },
                PolicyKind::Drowsy { threshold: 100 },
            ] {
                let p = kind.build(&cache, node, None);
                assert!(!p.name().is_empty());
            }
        }
    }

    #[test]
    fn validate_rejects_bad_specs() {
        assert!(SystemSpec::default().validate().is_ok());
        let bad = SystemSpec { subarray_bytes: 1000, ..SystemSpec::default() };
        assert!(matches!(bad.validate(), Err(SimError::InvalidSpec(_))));
        let bad = SystemSpec { subarray_bytes: 65536, ..SystemSpec::default() };
        assert!(matches!(bad.validate(), Err(SimError::InvalidSpec(_))));
        let bad = SystemSpec { instructions: 0, ..SystemSpec::default() };
        assert!(matches!(bad.validate(), Err(SimError::InvalidSpec(_))));
        let bad = SystemSpec {
            faults: FaultSpec { rate: 1.5, ..FaultSpec::default() },
            ..SystemSpec::default()
        };
        assert!(matches!(bad.validate(), Err(SimError::InvalidSpec(_))));
        // Fault-flag validation rides on FaultConfig::validate: a zero
        // scrub period and scrubbing without ECC both fail fast here
        // instead of propagating into the fault layer.
        let bad = SystemSpec {
            faults: FaultSpec { ecc: true, scrub_period: Some(0), ..FaultSpec::default() },
            ..SystemSpec::default()
        };
        match bad.validate() {
            Err(SimError::InvalidSpec(msg)) => assert!(msg.contains("scrub period"), "{msg}"),
            other => panic!("zero scrub period must be rejected, got {other:?}"),
        }
        let bad = SystemSpec {
            faults: FaultSpec { ecc: false, scrub_period: Some(4096), ..FaultSpec::default() },
            ..SystemSpec::default()
        };
        match bad.validate() {
            Err(SimError::InvalidSpec(msg)) => assert!(msg.contains("requires ECC"), "{msg}"),
            other => panic!("scrub without ecc must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_zero_policy_parameters_naming_the_field() {
        for levels in 1..=3 {
            let hierarchy = HierarchySpec { levels, ..HierarchySpec::default() };
            let base = SystemSpec { hierarchy, ..SystemSpec::default() };
            for grammar in ["gated:0", "gated-predecode:0", "drowsy:0", "adaptive:0", "resizable:0"]
            {
                let policy: PolicyKind = grammar.parse().expect("the grammar takes a zero");
                for (field, spec) in [
                    ("d_policy", SystemSpec { d_policy: policy, ..base }),
                    ("i_policy", SystemSpec { i_policy: policy, ..base }),
                    (
                        "l2_policy",
                        SystemSpec {
                            hierarchy: HierarchySpec { l2_policy: policy, ..hierarchy },
                            ..base
                        },
                    ),
                ] {
                    match spec.validate() {
                        Err(SimError::InvalidSpec(msg)) => {
                            assert!(msg.starts_with(&format!("{field} = {policy};")), "{msg}");
                            assert!(msg.ends_with("must be positive"), "{msg}");
                        }
                        other => panic!("{levels} levels, {field} {grammar}: got {other:?}"),
                    }
                }
                let one: PolicyKind = grammar.replace(":0", ":1").parse().expect("parses");
                let spec = SystemSpec { d_policy: one, i_policy: one, ..base };
                let spec =
                    SystemSpec { hierarchy: HierarchySpec { l2_policy: one, ..hierarchy }, ..spec };
                assert!(spec.validate().is_ok(), "{levels} levels, {one}");
            }
        }
    }

    #[test]
    fn fault_spec_default_is_disabled() {
        let spec = FaultSpec::default();
        assert!(!spec.enabled());
        assert!(!spec.protected());
        let cfg = spec.to_config(3, 0, 128);
        assert!(!cfg.enabled());
        assert_eq!(cfg.retry_cycles, 4);
        assert_eq!(cfg.pullup_penalty, 3);
        assert_eq!(cfg.subarray_words, 128);
    }

    #[test]
    fn to_config_arms_the_ladder_only_with_ecc_and_fail_safe() {
        let spec = FaultSpec { rate: 0.1, ecc: true, fail_safe: true, ..FaultSpec::default() };
        let cfg = spec.to_config(2, 1, 64);
        assert!(cfg.ecc);
        assert_eq!(cfg.fail_safe_threshold, Some(FaultSpec::FAIL_SAFE_UPSETS));
        assert_eq!(cfg.scrub_on_detect_threshold, Some(FaultSpec::SCRUB_ON_DETECT_ERRORS));
        assert!(spec.protected());
        let unladdered = FaultSpec { fail_safe: false, ..spec };
        assert_eq!(unladdered.to_config(2, 1, 64).scrub_on_detect_threshold, None);
        let unprotected = FaultSpec { ecc: false, ..spec };
        assert_eq!(unprotected.to_config(2, 1, 64).scrub_on_detect_threshold, None);
        assert!(!unprotected.protected());
    }

    #[test]
    fn distinct_specs_never_collide_on_the_obvious_fields() {
        // One variant per field the run cache must discriminate: policies
        // (including same-threshold Gated vs GatedPredecode and
        // bit-different Resizable slacks), subarray size, instruction
        // count, seed, way prediction and every FaultSpec field.
        let base = SystemSpec::default();
        let specs = vec![
            base,
            SystemSpec { d_policy: PolicyKind::Oracle, ..base },
            SystemSpec { d_policy: PolicyKind::OnDemand, ..base },
            SystemSpec { d_policy: PolicyKind::Gated { threshold: 100 }, ..base },
            SystemSpec { d_policy: PolicyKind::Gated { threshold: 200 }, ..base },
            SystemSpec { d_policy: PolicyKind::GatedPredecode { threshold: 100 }, ..base },
            SystemSpec { d_policy: PolicyKind::Drowsy { threshold: 100 }, ..base },
            SystemSpec { d_policy: PolicyKind::AdaptiveGated { interval_accesses: 100 }, ..base },
            SystemSpec {
                d_policy: PolicyKind::Resizable { interval_accesses: 100, slack: 0.005 },
                ..base
            },
            SystemSpec {
                d_policy: PolicyKind::Resizable { interval_accesses: 100, slack: 0.01 },
                ..base
            },
            SystemSpec { i_policy: PolicyKind::Gated { threshold: 100 }, ..base },
            SystemSpec { subarray_bytes: 2048, ..base },
            SystemSpec { instructions: base.instructions + 1, ..base },
            SystemSpec { seed: 43, ..base },
            SystemSpec { way_prediction: true, ..base },
            SystemSpec { faults: FaultSpec { rate: 0.01, ..FaultSpec::default() }, ..base },
            SystemSpec { faults: FaultSpec { rate: 0.02, ..FaultSpec::default() }, ..base },
            SystemSpec { faults: FaultSpec { seed: 1, ..FaultSpec::default() }, ..base },
            SystemSpec { faults: FaultSpec { fail_safe: true, ..FaultSpec::default() }, ..base },
            SystemSpec { faults: FaultSpec { ecc: true, ..FaultSpec::default() }, ..base },
            SystemSpec {
                faults: FaultSpec { ecc: true, scrub_period: Some(4096), ..FaultSpec::default() },
                ..base
            },
            SystemSpec {
                faults: FaultSpec { ecc: true, scrub_period: Some(8192), ..FaultSpec::default() },
                ..base
            },
            SystemSpec {
                hierarchy: HierarchySpec { levels: 2, ..HierarchySpec::default() },
                ..base
            },
            SystemSpec {
                hierarchy: HierarchySpec { levels: 3, ..HierarchySpec::default() },
                ..base
            },
            SystemSpec {
                hierarchy: HierarchySpec {
                    levels: 2,
                    l2_policy: PolicyKind::Gated { threshold: 100 },
                    ..HierarchySpec::default()
                },
                ..base
            },
            SystemSpec {
                hierarchy: HierarchySpec {
                    leakage_mode: bitline_energy::LeakageKind::Drowsy,
                    ..HierarchySpec::default()
                },
                ..base
            },
            SystemSpec {
                hierarchy: HierarchySpec {
                    leakage_mode: bitline_energy::LeakageKind::GatedVdd,
                    ..HierarchySpec::default()
                },
                ..base
            },
            SystemSpec { vdd: VddSpec { scale: 0.9, governor: false }, ..base },
            SystemSpec { vdd: VddSpec { scale: 0.8, governor: false }, ..base },
            SystemSpec { vdd: VddSpec { scale: 0.9, governor: true }, ..base },
        ];
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[i + 1..] {
                assert_ne!(a, b, "specs at different fields must differ");
            }
        }
        // As HashMap keys, every distinct spec is a distinct entry...
        let keyed: std::collections::HashSet<SystemSpec> = specs.iter().copied().collect();
        assert_eq!(keyed.len(), specs.len());
        // ...and an equal spec finds the existing one.
        assert!(keyed.contains(&SystemSpec::default()));
    }

    #[test]
    fn hierarchy_default_is_inert_and_validates() {
        let h = HierarchySpec::default();
        assert!(h.is_default());
        assert!(!h.active());
        assert!(h.validate().is_ok());
        assert!(SystemSpec::default().hierarchy.is_default());
    }

    #[test]
    fn hierarchy_validation_rejects_bad_levels_and_recorder() {
        let bad = SystemSpec {
            hierarchy: HierarchySpec { levels: 0, ..HierarchySpec::default() },
            ..SystemSpec::default()
        };
        assert!(matches!(bad.validate(), Err(SimError::InvalidSpec(_))));
        let bad = SystemSpec {
            hierarchy: HierarchySpec { levels: 4, ..HierarchySpec::default() },
            ..SystemSpec::default()
        };
        assert!(matches!(bad.validate(), Err(SimError::InvalidSpec(_))));
        let bad = SystemSpec {
            hierarchy: HierarchySpec {
                levels: 2,
                l2_policy: PolicyKind::LocalityRecorder,
                ..HierarchySpec::default()
            },
            ..SystemSpec::default()
        };
        match bad.validate() {
            Err(SimError::InvalidSpec(msg)) => assert!(msg.contains("recorder"), "{msg}"),
            other => panic!("recorder as L2 policy must be rejected, got {other:?}"),
        }
        // A managed L2 and a deeper leakage mode both validate.
        let ok = SystemSpec {
            hierarchy: HierarchySpec {
                levels: 3,
                l2_policy: PolicyKind::Gated { threshold: 100 },
                leakage_mode: bitline_energy::LeakageKind::Drowsy,
            },
            ..SystemSpec::default()
        };
        assert!(ok.validate().is_ok());
        assert!(ok.hierarchy.active());
        assert!(!ok.hierarchy.is_default());
    }

    #[test]
    fn vdd_nominal_is_inert_and_validation_rejects_bad_supplies() {
        let nominal = VddSpec::nominal();
        assert!(nominal.is_default());
        assert!(nominal.validate().is_ok());
        // A governed nominal supply is *not* the inert default: it keys a
        // distinct run-cache entry and a distinct checkpoint spec block.
        assert!(!VddSpec { governor: true, ..nominal }.is_default());
        assert!(!VddSpec { scale: 0.9, governor: false }.is_default());
        // The modelled band validates; outside it fails fast.
        assert!(VddSpec { scale: 0.6, governor: false }.validate().is_ok());
        assert!(VddSpec { scale: 1.1, governor: true }.validate().is_ok());
        for bad in [0.5, 1.2, -1.0, 0.0] {
            assert!(VddSpec { scale: bad, governor: false }.validate().is_err(), "{bad}");
        }
        // Satellite: non-finite supplies carry an explicit message.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = VddSpec { scale: bad, governor: false }.validate().unwrap_err();
            assert!(err.contains("finite"), "{err}");
        }
        // And the whole-spec validator routes through it.
        let bad = SystemSpec {
            vdd: VddSpec { scale: f64::NAN, governor: false },
            ..SystemSpec::default()
        };
        match bad.validate() {
            Err(SimError::InvalidSpec(msg)) => assert!(msg.contains("finite"), "{msg}"),
            other => panic!("NaN vdd must be rejected, got {other:?}"),
        }
        // NaN compares equal to itself by bit pattern (run-cache keying).
        let a = VddSpec { scale: f64::NAN, governor: false };
        assert_eq!(a, a);
    }

    #[test]
    fn vdd_ladders_expand_aggressive_to_nominal() {
        // Static: one rung at the requested scale.
        let static_cfg = VddSpec { scale: 0.8, governor: false }
            .to_config(TechnologyNode::N70)
            .expect("non-default spec expands");
        assert_eq!(static_cfg.steps.len(), 1);
        assert_eq!(static_cfg.steps[0].scale.to_bits(), 0.8f64.to_bits());
        assert!(static_cfg.governor.is_none());
        assert!(static_cfg.speculating(), "0.8 Vdd at 70nm is below the guardband");
        assert!(static_cfg.validate().is_ok());
        // Governed: aggressive -> halfway -> nominal, nominal upset-free.
        let governed = VddSpec { scale: 0.8, governor: true }
            .to_config(TechnologyNode::N70)
            .expect("non-default spec expands");
        assert_eq!(governed.steps.len(), 3);
        assert_eq!(governed.steps[1].scale.to_bits(), 0.9f64.to_bits());
        assert_eq!(governed.steps[2].scale.to_bits(), 1.0f64.to_bits());
        assert_eq!(governed.steps[2].upset_probability, 0.0);
        assert!(governed.governor.is_some());
        assert!(governed.validate().is_ok());
        // Overdrive never ladders and never speculates.
        let over = VddSpec { scale: 1.05, governor: true }
            .to_config(TechnologyNode::N70)
            .expect("non-default spec expands");
        assert_eq!(over.steps.len(), 1);
        assert!(!over.speculating());
        // The inert default expands to nothing at all.
        assert!(VddSpec::nominal().to_config(TechnologyNode::N70).is_none());
        // A guardband-safe undervolt expands (for pricing) but does not
        // speculate (no decorator).
        let safe = VddSpec { scale: 0.98, governor: false }
            .to_config(TechnologyNode::N70)
            .expect("expands");
        assert!(!safe.speculating());
    }

    /// Every variant, with arbitrary parameters and any finite slack.
    fn any_policy() -> impl Strategy<Value = PolicyKind> {
        (0u8..9, any::<u64>(), any::<u64>()).prop_map(|(tag, n, bits)| {
            let slack = f64::from_bits(bits);
            // Flipping an exponent bit makes an inf/NaN pattern finite.
            let slack = if slack.is_finite() { slack } else { f64::from_bits(bits ^ (1 << 62)) };
            match tag {
                0 => PolicyKind::StaticPullUp,
                1 => PolicyKind::Oracle,
                2 => PolicyKind::OnDemand,
                3 => PolicyKind::Gated { threshold: n },
                4 => PolicyKind::GatedPredecode { threshold: n },
                5 => PolicyKind::AdaptiveGated { interval_accesses: n },
                6 => PolicyKind::Drowsy { threshold: n },
                7 => PolicyKind::Resizable { interval_accesses: n, slack },
                _ => PolicyKind::LocalityRecorder,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// `Display` is the canonical spelling: parsing it gives the
        /// policy back bit for bit.
        fn policy_display_parses_back_exactly(p in any_policy()) {
            prop_assert_eq!(p.to_string().parse::<PolicyKind>(), Ok(p));
        }
    }

    #[test]
    fn policy_aliases_and_bare_names_keep_their_meaning() {
        for (text, want) in [
            ("on-demand", PolicyKind::OnDemand),
            ("predecode", PolicyKind::GatedPredecode { threshold: 100 }),
            ("predecode:32", PolicyKind::GatedPredecode { threshold: 32 }),
            ("gated", PolicyKind::Gated { threshold: 100 }),
            ("drowsy", PolicyKind::Drowsy { threshold: 100 }),
            ("adaptive", PolicyKind::AdaptiveGated { interval_accesses: 2_000 }),
            ("resizable", PolicyKind::Resizable { interval_accesses: 10_000, slack: 0.005 }),
            ("resizable:500", PolicyKind::Resizable { interval_accesses: 500, slack: 0.005 }),
            ("resizable:500:0.02", PolicyKind::Resizable { interval_accesses: 500, slack: 0.02 }),
            ("recorder", PolicyKind::LocalityRecorder),
        ] {
            assert_eq!(text.parse::<PolicyKind>(), Ok(want), "{text}");
        }
        for bad in [
            "warp",
            "gated:x",
            "gated:1:2",
            "resizable:1:nan",
            "resizable:1:inf",
            "",
            "lbb",
            "leakage-biased",
        ] {
            assert!(bad.parse::<PolicyKind>().is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn predecode_flag_only_for_gated_predecode() {
        assert!(PolicyKind::GatedPredecode { threshold: 100 }.wants_predecode());
        assert!(!PolicyKind::Gated { threshold: 100 }.wants_predecode());
        assert!(!PolicyKind::OnDemand.wants_predecode());
    }
}
