//! One full-system simulation run.

use std::cell::RefCell;
use std::rc::Rc;

use bitline_cache::{ActivityReport, CacheConfig, MemorySystem, MemorySystemConfig, WayStats};
use bitline_circuit::DecoderModel;
use bitline_circuit::{vdd_dynamic_energy_factor, vdd_leakage_energy_factor};
use bitline_cmos::TechnologyNode;
use bitline_cpu::{Cpu, CpuConfig, SimStats};
use bitline_ecc::ReliabilityReport;
use bitline_energy::{CacheEnergyBreakdown, EccActivity, LeakageKind};
use bitline_exec::CancelToken;
use bitline_faults::{FaultInjectingPolicy, FaultReport, VddReport};

use crate::config::{PolicyKind, SystemSpec};
use crate::error::SimError;
use crate::execution;
use crate::recorder::LocalityStats;
use crate::supervise;

/// How many committed instructions the hot loop runs between cancellation
/// polls. Small enough that even a tiny `--run-budget` is honoured within
/// a chunk of simulation (microseconds of host time), large enough that
/// the poll — one relaxed load plus one `Instant::now` — is invisible in
/// profile.
const CANCEL_POLL_INSTRS: u64 = 2_048;

/// Energy breakdowns for both L1s.
#[derive(Debug, Clone, Copy)]
pub struct RunEnergy {
    /// Data cache breakdown.
    pub d: CacheEnergyBreakdown,
    /// Instruction cache breakdown.
    pub i: CacheEnergyBreakdown,
}

/// `(policy, static-baseline)` energy pair at one node.
pub type EnergyPair = (RunEnergy, RunEnergy);

/// Everything measured in one run. Architectural results are
/// node-independent (the 8-FO4 pipeline has identical cycle counts at
/// every node); energies are priced per node via [`RunResult::energy`].
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark name.
    pub benchmark: String,
    /// The spec that produced this run.
    pub spec: SystemSpec,
    /// Core statistics.
    pub stats: SimStats,
    /// D-cache activity report.
    pub d_report: ActivityReport,
    /// I-cache activity report.
    pub i_report: ActivityReport,
    /// D-cache (hits, misses).
    pub d_hit_miss: (u64, u64),
    /// I-cache (hits, misses).
    pub i_hit_miss: (u64, u64),
    /// Locality statistics when the D policy was a recorder.
    pub d_locality: Option<LocalityStats>,
    /// Locality statistics when the I policy was a recorder.
    pub i_locality: Option<LocalityStats>,
    /// D-cache way-prediction outcomes (when enabled).
    pub d_way_stats: Option<WayStats>,
    /// I-cache way-prediction outcomes (when enabled).
    pub i_way_stats: Option<WayStats>,
    /// D-cache fault accounting (when fault injection was enabled).
    pub d_faults: Option<FaultReport>,
    /// I-cache fault accounting (when fault injection was enabled).
    pub i_faults: Option<FaultReport>,
    /// D-cache reliability accounting (when SECDED protection was armed).
    pub d_reliability: Option<ReliabilityReport>,
    /// I-cache reliability accounting (when SECDED protection was armed).
    pub i_reliability: Option<ReliabilityReport>,
    /// L2 activity report (when the hierarchy spec is active).
    pub l2_report: Option<ActivityReport>,
    /// L2 `(hits, misses, writebacks)` (when the hierarchy spec is active).
    pub l2_traffic: Option<(u64, u64, u64)>,
    /// L3 activity report (when the spec asks for three levels).
    pub l3_report: Option<ActivityReport>,
    /// L3 `(hits, misses, writebacks)` (when the spec asks for three
    /// levels).
    pub l3_traffic: Option<(u64, u64, u64)>,
    /// D-cache timing-speculation accounting (when the supply spec put
    /// cold reads below the sense guardband).
    pub d_vdd: Option<VddReport>,
    /// I-cache timing-speculation accounting (when the supply spec put
    /// cold reads below the sense guardband).
    pub i_vdd: Option<VddReport>,
}

impl RunResult {
    /// Cycles the run took.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// D-cache miss ratio.
    #[must_use]
    pub fn d_miss_ratio(&self) -> f64 {
        let (h, m) = self.d_hit_miss;
        m as f64 / (h + m).max(1) as f64
    }

    /// I-cache miss ratio.
    #[must_use]
    pub fn i_miss_ratio(&self) -> f64 {
        let (h, m) = self.i_hit_miss;
        m as f64 / (h + m).max(1) as f64
    }

    /// Slowdown relative to a baseline run of the same benchmark/length
    /// (positive = slower).
    #[must_use]
    pub fn slowdown_vs(&self, baseline: &RunResult) -> f64 {
        self.cycles() as f64 / baseline.cycles() as f64 - 1.0
    }

    /// Prices both caches at `node`, returning `(policy, baseline)` where
    /// the baseline is the analytic static-pull-up cache over the same
    /// cycles and access counts.
    ///
    /// The accountants (cache geometry + energy models) are memoized per
    /// `(node, subarray_bytes)` process-wide: sweeps re-pricing hundreds
    /// of runs across nodes build each model once.
    #[must_use]
    pub fn energy(&self, node: TechnologyNode) -> EnergyPair {
        self.energy_with_mode(node, self.spec.hierarchy.leakage_mode)
    }

    /// [`RunResult::energy`] under an explicit cell [`LeakageKind`],
    /// regardless of what the spec asked for — the hierarchy experiment
    /// prices one architectural run under every mode in the zoo without
    /// re-simulating. The full-Vdd mode collapses to the historical
    /// accounting, bit for bit; the baseline is always the conventional
    /// full-Vdd static-pull-up machine the modes compete against.
    #[must_use]
    pub fn energy_with_mode(&self, node: TechnologyNode, kind: LeakageKind) -> EnergyPair {
        let mode = kind.mode();
        let (d_acct, i_acct) = execution::accountants(node, self.spec.subarray_bytes);
        let d_reads = self.stats.loads;
        let d_writes = self.stats.stores;
        let i_reads = self.i_hit_miss.0 + self.i_hit_miss.1;
        // ECC is priced only when the run actually carried SECDED state;
        // unprotected runs hit the plain accounting path and stay
        // bit-identical to the pre-ECC model.
        let d_ecc = self.d_reliability.as_ref().map(|rel| EccActivity {
            protected_accesses: d_reads + d_writes,
            scrub_words: rel.scrub_words(),
        });
        let i_ecc = self
            .i_reliability
            .as_ref()
            .map(|rel| EccActivity { protected_accesses: i_reads, scrub_words: rel.scrub_words() });
        let policy = RunEnergy {
            d: scale_breakdown(
                d_acct.account_with_mode(
                    &self.d_report,
                    d_reads,
                    d_writes,
                    self.spec.d_policy.has_decay_counters(),
                    self.d_way_stats,
                    d_ecc,
                    mode,
                ),
                self.vdd_energy_factors(self.d_vdd.as_ref()),
            ),
            i: scale_breakdown(
                i_acct.account_with_mode(
                    &self.i_report,
                    i_reads,
                    0,
                    self.spec.i_policy.has_decay_counters(),
                    self.i_way_stats,
                    i_ecc,
                    mode,
                ),
                self.vdd_energy_factors(self.i_vdd.as_ref()),
            ),
        };
        let baseline = RunEnergy {
            d: d_acct.static_baseline_with_ecc(
                self.cycles(),
                d_reads,
                d_writes,
                self.d_reliability.is_some(),
            ),
            i: i_acct.static_baseline_with_ecc(
                self.cycles(),
                i_reads,
                0,
                self.i_reliability.is_some(),
            ),
        };
        (policy, baseline)
    }

    /// Per-cache `(dynamic, leakage)` energy multipliers for the supply
    /// the run actually sensed at. Exactly `(1, 1)` for the inert nominal
    /// spec (no arithmetic at all, so every pre-voltage figure stays
    /// bit-identical). A static undervolted run prices at the requested
    /// scale; a governed run prices each speculative access at the ladder
    /// rung it was actually sensed at, via the integer per-step census —
    /// deterministic and identical across job counts. The L2/L3 are not
    /// undervolted (the ladder is an L1 mechanism) and stay at nominal.
    fn vdd_energy_factors(&self, report: Option<&VddReport>) -> (f64, f64) {
        if self.spec.vdd.is_default() {
            return (1.0, 1.0);
        }
        let scale = self.spec.vdd.scale;
        match report {
            Some(r) => {
                let scales = self.spec.vdd.ladder_scales();
                (
                    r.access_weighted_factor(&scales, scale, vdd_dynamic_energy_factor),
                    r.access_weighted_factor(&scales, scale, vdd_leakage_energy_factor),
                )
            }
            None => (vdd_dynamic_energy_factor(scale), vdd_leakage_energy_factor(scale)),
        }
    }

    /// Prices the L2's activity at `node` under a leakage mode, when the
    /// run carried an active hierarchy. Reads are lookups (hits + misses);
    /// each miss fills a line, which is the write stream.
    #[must_use]
    pub fn l2_energy(
        &self,
        node: TechnologyNode,
        kind: LeakageKind,
    ) -> Option<CacheEnergyBreakdown> {
        let report = self.l2_report.as_ref()?;
        let (hits, misses, _) = self.l2_traffic.unwrap_or_default();
        let cfg = MemorySystem::l2_config(&MemorySystemConfig::default());
        let acct = execution::level_accountant(node, cfg);
        Some(acct.account_with_mode(
            report,
            hits + misses,
            misses,
            self.spec.hierarchy.l2_policy.has_decay_counters(),
            None,
            None,
            kind.mode(),
        ))
    }

    /// Prices the L3's activity at `node` under a leakage mode, when the
    /// run had three levels.
    #[must_use]
    pub fn l3_energy(
        &self,
        node: TechnologyNode,
        kind: LeakageKind,
    ) -> Option<CacheEnergyBreakdown> {
        let report = self.l3_report.as_ref()?;
        let (hits, misses, _) = self.l3_traffic.unwrap_or_default();
        let cfg = MemorySystem::l3_config(&MemorySystemConfig::default());
        let acct = execution::level_accountant(node, cfg);
        Some(acct.account_with_mode(
            report,
            hits + misses,
            misses,
            self.spec.hierarchy.l2_policy.has_decay_counters(),
            None,
            None,
            kind.mode(),
        ))
    }

    /// L2 miss ratio, when the hierarchy was active.
    #[must_use]
    pub fn l2_miss_ratio(&self) -> Option<f64> {
        let (h, m) = self.l2_traffic.map(|(h, m, _)| (h, m))?;
        Some(m as f64 / (h + m).max(1) as f64)
    }
}

/// Applies the `(dynamic, leakage)` supply factors to one breakdown.
/// Switching energy (reads/writes, isolation episodes, decay counters,
/// codec) scales with the dynamic factor; both leakage terms scale with
/// the steeper leakage factor (DIBL). An exactly-unity pair returns the
/// breakdown untouched, preserving bit-identity at nominal.
fn scale_breakdown(b: CacheEnergyBreakdown, (f_dyn, f_leak): (f64, f64)) -> CacheEnergyBreakdown {
    if f_dyn == 1.0 && f_leak == 1.0 {
        return b;
    }
    CacheEnergyBreakdown {
        dynamic_j: b.dynamic_j * f_dyn,
        episode_j: b.episode_j * f_dyn,
        counter_j: b.counter_j * f_dyn,
        ecc_j: b.ecc_j * f_dyn,
        pullup_leak_j: b.pullup_leak_j * f_leak,
        cell_leak_j: b.cell_leak_j * f_leak,
    }
}

/// Runs one benchmark under a system spec, reporting failures as values.
///
/// The run is supervised by the *ambient* cancel token — the one the
/// experiment harness installed for this unit of work, or a fresh token
/// armed with the process-wide `--run-budget` when none is installed.
/// Cancellation is cooperative: the hot loop polls the token every few
/// thousand committed instructions and returns [`SimError::TimedOut`]
/// with its progress instead of hanging the worker.
///
/// # Errors
///
/// [`SimError::UnknownBenchmark`] when `name` is not in the suite;
/// [`SimError::InvalidSpec`] when [`SystemSpec::validate`] rejects `spec`;
/// [`SimError::TimedOut`] when the budget expires mid-run.
pub fn try_run_benchmark(name: &str, spec: &SystemSpec) -> Result<RunResult, SimError> {
    try_run_benchmark_supervised(name, spec, &supervise::ambient_token())
}

/// [`try_run_benchmark`] under an explicit [`CancelToken`].
///
/// # Errors
///
/// As [`try_run_benchmark`].
pub fn try_run_benchmark_supervised(
    name: &str,
    spec: &SystemSpec,
    token: &CancelToken,
) -> Result<RunResult, SimError> {
    spec.validate()?;
    // Replay the benchmark's shared trace: the synthetic stream for this
    // (benchmark, seed) is generated once per process and every run —
    // concurrent or repeated — reads the same materialised prefix.
    let mut trace = execution::trace_cursor(name, spec.seed)
        .ok_or_else(|| SimError::UnknownBenchmark(name.to_owned()))?;

    // The architectural pipeline is node-independent; build policies at the
    // newest node (their cycle penalties are identical across nodes).
    let node = TechnologyNode::N70;
    let mut d_cfg = CacheConfig::l1_data().with_subarray_bytes(spec.subarray_bytes);
    let mut i_cfg = CacheConfig::l1_inst().with_subarray_bytes(spec.subarray_bytes);
    if spec.way_prediction {
        d_cfg = d_cfg.with_way_prediction();
        i_cfg = i_cfg.with_way_prediction();
    }

    let d_sink = matches!(spec.d_policy, PolicyKind::LocalityRecorder)
        .then(|| Rc::new(RefCell::new(LocalityStats::default())));
    let i_sink = matches!(spec.i_policy, PolicyKind::LocalityRecorder)
        .then(|| Rc::new(RefCell::new(LocalityStats::default())));

    let mut d_policy = spec.d_policy.build(&d_cfg, node, d_sink.clone());
    let mut i_policy = spec.i_policy.build(&i_cfg, node, i_sink.clone());
    // Decorate with the fault layer only when armed: a disabled FaultSpec
    // leaves the policy objects — and hence every cycle and every joule —
    // exactly as before this layer existed.
    let mut d_fault_sink = None;
    let mut i_fault_sink = None;
    let mut d_rel_sink = None;
    let mut i_rel_sink = None;
    let mut d_vdd_sink = None;
    let mut i_vdd_sink = None;
    // A supply below the sense guardband turns cold reads speculative —
    // that arms the same decorator even with the leakage-fault source off.
    // An undervolt still *inside* the guardband never mis-senses, so it is
    // pricing-only: no decorator, trivially cycle-identical.
    let vdd_config = spec.vdd.to_config(node);
    let vdd_armed = vdd_config.as_ref().is_some_and(bitline_faults::VddConfig::speculating);
    if spec.faults.enabled() || vdd_armed {
        let penalty = |cfg: &CacheConfig| {
            DecoderModel::new(node, cfg.geometry()).cold_access_penalty_cycles()
        };
        let d_fs = Rc::new(RefCell::new(FaultReport::new(d_cfg.subarrays())));
        let i_fs = Rc::new(RefCell::new(FaultReport::new(i_cfg.subarrays())));
        let words = spec.subarray_words();
        let mut d_dec = FaultInjectingPolicy::new(
            d_policy,
            spec.faults.to_config(penalty(&d_cfg), 0, words),
            d_cfg.subarrays(),
        )
        .with_sink(d_fs.clone());
        let mut i_dec = FaultInjectingPolicy::new(
            i_policy,
            spec.faults.to_config(penalty(&i_cfg), 1, words),
            i_cfg.subarrays(),
        )
        .with_sink(i_fs.clone());
        if spec.faults.ecc {
            // With the codec armed, every upset — leakage or timing —
            // classifies through SECDED, so the run carries reliability
            // accounting whichever source is active.
            let d_rs = Rc::new(RefCell::new(ReliabilityReport::new(d_cfg.subarrays())));
            let i_rs = Rc::new(RefCell::new(ReliabilityReport::new(i_cfg.subarrays())));
            d_dec = d_dec.with_reliability_sink(d_rs.clone());
            i_dec = i_dec.with_reliability_sink(i_rs.clone());
            d_rel_sink = Some(d_rs);
            i_rel_sink = Some(i_rs);
        }
        if vdd_armed {
            let cfg = vdd_config.clone().expect("armed implies a ladder");
            let d_vs = Rc::new(RefCell::new(VddReport::new(d_cfg.subarrays(), cfg.steps.len())));
            let i_vs = Rc::new(RefCell::new(VddReport::new(i_cfg.subarrays(), cfg.steps.len())));
            d_dec = d_dec.with_vdd(cfg.clone()).with_vdd_sink(d_vs.clone());
            i_dec = i_dec.with_vdd(cfg).with_vdd_sink(i_vs.clone());
            d_vdd_sink = Some(d_vs);
            i_vdd_sink = Some(i_vs);
        }
        d_policy = Box::new(d_dec);
        i_policy = Box::new(i_dec);
        d_fault_sink = Some(d_fs);
        i_fault_sink = Some(i_fs);
    }

    let mem_cfg = MemorySystemConfig { l1d: d_cfg, l1i: i_cfg, ..MemorySystemConfig::default() };
    // An inert hierarchy spec builds the stock two-level system through the
    // exact constructor the pre-hierarchy code used; only an explicit
    // `levels >= 2` swaps in managed outer levels (the L3 shares the L2's
    // policy kind — outer levels see the same filtered miss stream).
    let mem = if spec.hierarchy.active() {
        let l2_policy =
            spec.hierarchy.l2_policy.build(&MemorySystem::l2_config(&mem_cfg), node, None);
        let l3_policy = (spec.hierarchy.levels >= 3).then(|| {
            spec.hierarchy.l2_policy.build(&MemorySystem::l3_config(&mem_cfg), node, None)
        });
        MemorySystem::with_hierarchy(mem_cfg, d_policy, i_policy, l2_policy, l3_policy)
    } else {
        MemorySystem::new(mem_cfg, d_policy, i_policy)
    };
    let cpu_cfg =
        CpuConfig { predecode_hints: spec.d_policy.wants_predecode(), ..CpuConfig::default() };
    let mut cpu = Cpu::new(cpu_cfg, mem);
    // Run in chunks of committed instructions, polling the cancel token
    // between chunks. `Cpu::run` is incremental (it runs until `committed
    // + n`), so chunked execution is cycle-identical to one long call.
    let mut stats = cpu.stats();
    // Chunk-boundary instrumentation: one interned-handle counter add per
    // 2048 committed instructions, the same cadence as the cancel poll.
    let chunk_counter = bitline_obs::counter!("sim.runner.chunks");
    // Wall time spent inside `Cpu::run` proper — the data-oriented hot
    // loop — excluding setup, energy modelling and reporting. This is
    // what the MIPS throughput gauge measures.
    let mut busy = std::time::Duration::ZERO;
    while stats.committed < spec.instructions {
        if token.cancelled() {
            bitline_obs::counter!("sim.runner.timeouts").incr();
            return Err(SimError::TimedOut {
                benchmark: name.to_owned(),
                budget: token.budget().unwrap_or_default(),
                progress: stats.committed,
            });
        }
        let chunk = (spec.instructions - stats.committed).min(CANCEL_POLL_INSTRS);
        let t = std::time::Instant::now();
        stats = cpu.run(&mut trace, chunk);
        busy += t.elapsed();
        chunk_counter.incr();
    }
    let end_cycle = stats.cycles;
    let mut mem = cpu.into_memory();
    let d_hit_miss = (mem.l1d().hits(), mem.l1d().misses());
    let i_hit_miss = (mem.l1i().hits(), mem.l1i().misses());
    let d_way_stats = mem.l1d().way_stats();
    let i_way_stats = mem.l1i().way_stats();
    let l2_traffic = spec
        .hierarchy
        .active()
        .then(|| (mem.l2().hits(), mem.l2().misses(), mem.l2().writebacks()));
    let l3_traffic = mem.l3().map(|l3| (l3.hits(), l3.misses(), l3.writebacks()));
    let (d_report, i_report) = mem.finalize(end_cycle);
    let l2_report = spec.hierarchy.active().then(|| mem.finalize_l2(end_cycle));
    let l3_report = mem.finalize_l3(end_cycle);

    // Run-completion accounting: every counter below except the wall-time
    // `busy_micros` is a pure function of (benchmark, spec), so their
    // totals are identical across job counts. `busy_micros` is timing
    // telemetry (how long the hot loop actually ran) and is excluded from
    // the cross-jobs differential alongside `exec.pool.*`.
    bitline_obs::counter!("sim.runner.runs").incr();
    let committed_counter = bitline_obs::counter!("sim.runner.committed_instructions");
    committed_counter.add(stats.committed);
    bitline_obs::counter!("sim.runner.cycles").add(stats.cycles);
    let busy_counter = bitline_obs::counter!("sim.runner.busy_micros");
    busy_counter.add(u64::try_from(busy.as_micros()).unwrap_or(u64::MAX));
    // Cumulative simulation throughput: committed instructions per
    // microsecond of hot-loop time is exactly MIPS; the gauge carries
    // thousandths of a MIPS (milli-MIPS) so integer storage keeps three
    // decimal places. Under a parallel sweep this is per-worker
    // throughput, since each worker's busy time accumulates.
    if let Some(milli_mips) =
        committed_counter.get().saturating_mul(1000).checked_div(busy_counter.get())
    {
        bitline_obs::gauge!("sim.runner.mips").set(i64::try_from(milli_mips).unwrap_or(i64::MAX));
    }
    let registry = bitline_obs::registry();
    registry
        .counter(&format!("sim.runner.precharges.d.{}", spec.d_policy.label()))
        .add(d_report.total_precharge_events());
    registry
        .counter(&format!("sim.runner.precharges.i.{}", spec.i_policy.label()))
        .add(i_report.total_precharge_events());
    if let Some(fr) = d_fault_sink.as_ref() {
        fr.borrow().record_metrics("d");
    }
    if let Some(fr) = i_fault_sink.as_ref() {
        fr.borrow().record_metrics("i");
    }
    if let Some(rel) = d_rel_sink.as_ref() {
        rel.borrow().record_metrics("d");
    }
    if let Some(rel) = i_rel_sink.as_ref() {
        rel.borrow().record_metrics("i");
    }
    if let Some(vdd) = d_vdd_sink.as_ref() {
        vdd.borrow().record_metrics("d");
    }
    if let Some(vdd) = i_vdd_sink.as_ref() {
        vdd.borrow().record_metrics("i");
    }

    Ok(RunResult {
        benchmark: name.to_owned(),
        spec: *spec,
        stats,
        d_report,
        i_report,
        d_hit_miss,
        i_hit_miss,
        d_locality: d_sink.map(|s| s.borrow().clone()),
        i_locality: i_sink.map(|s| s.borrow().clone()),
        d_way_stats,
        i_way_stats,
        d_faults: d_fault_sink.map(|s| s.borrow().clone()),
        i_faults: i_fault_sink.map(|s| s.borrow().clone()),
        d_reliability: d_rel_sink.map(|s| s.borrow().clone()),
        i_reliability: i_rel_sink.map(|s| s.borrow().clone()),
        l2_report,
        l2_traffic,
        l3_report,
        l3_traffic,
        d_vdd: d_vdd_sink.map(|s| s.borrow().clone()),
        i_vdd: i_vdd_sink.map(|s| s.borrow().clone()),
    })
}

/// Runs one benchmark under a system spec.
///
/// # Panics
///
/// Panics when [`try_run_benchmark`] would return an error (unknown
/// benchmark or invalid spec). Use the fallible variant in drivers that
/// want to keep going.
#[must_use]
pub fn run_benchmark(name: &str, spec: &SystemSpec) -> RunResult {
    try_run_benchmark(name, spec).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(d: PolicyKind, i: PolicyKind) -> SystemSpec {
        SystemSpec { d_policy: d, i_policy: i, instructions: 8_000, ..SystemSpec::default() }
    }

    #[test]
    fn oracle_never_slows_down_and_saves_discharge() {
        let base =
            run_benchmark("health", &spec(PolicyKind::StaticPullUp, PolicyKind::StaticPullUp));
        let oracle = run_benchmark("health", &spec(PolicyKind::Oracle, PolicyKind::Oracle));
        assert_eq!(oracle.cycles(), base.cycles(), "the oracle is delay-free");
        let (pol, basln) = oracle.energy(TechnologyNode::N70);
        assert!(pol.d.relative_discharge(&basln.d) < 0.5);
        assert!(pol.i.relative_discharge(&basln.i) < 0.5);
    }

    #[test]
    fn on_demand_slows_execution() {
        let base = run_benchmark("mesa", &spec(PolicyKind::StaticPullUp, PolicyKind::StaticPullUp));
        let od = run_benchmark("mesa", &spec(PolicyKind::OnDemand, PolicyKind::StaticPullUp));
        assert!(od.slowdown_vs(&base) > 0.005, "slowdown {}", od.slowdown_vs(&base));
    }

    #[test]
    fn gated_saves_discharge_with_small_slowdown() {
        let base = run_benchmark("mesa", &spec(PolicyKind::StaticPullUp, PolicyKind::StaticPullUp));
        let gated = run_benchmark(
            "mesa",
            &spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 }),
        );
        let slowdown = gated.slowdown_vs(&base);
        assert!(slowdown < 0.08, "gated slowdown {slowdown}");
        let (pol, basln) = gated.energy(TechnologyNode::N70);
        assert!(pol.d.relative_discharge(&basln.d) < 0.6);
    }

    #[test]
    fn recorder_produces_locality_stats() {
        let run = run_benchmark(
            "health",
            &spec(PolicyKind::LocalityRecorder, PolicyKind::LocalityRecorder),
        );
        let d = run.d_locality.expect("d locality recorded");
        assert!(d.intervals_total > 0);
        let cdf = d.cumulative_access_fraction();
        assert!(cdf.windows(2).all(|w| w[1] >= w[0]), "CDF must be monotone");
        let hot = d.hot_subarray_fraction();
        assert!(hot.windows(2).all(|w| w[1] >= w[0]), "hot fraction grows with threshold");
    }

    #[test]
    fn unknown_benchmark_is_an_error_not_a_panic() {
        let err = try_run_benchmark("nosuch", &SystemSpec::default()).unwrap_err();
        assert_eq!(err, SimError::UnknownBenchmark("nosuch".into()));
    }

    #[test]
    fn invalid_spec_is_rejected_before_running() {
        let bad = SystemSpec { subarray_bytes: 48, ..SystemSpec::default() };
        assert!(matches!(try_run_benchmark("mesa", &bad), Err(SimError::InvalidSpec(_))));
    }

    #[test]
    fn zero_fault_rate_is_cycle_identical() {
        let s = spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 });
        let plain = run_benchmark("mesa", &s);
        let zeroed = run_benchmark(
            "mesa",
            &SystemSpec {
                faults: crate::FaultSpec {
                    rate: 0.0,
                    seed: 99,
                    fail_safe: true,
                    ecc: false,
                    scrub_period: None,
                },
                ..s
            },
        );
        assert_eq!(plain.cycles(), zeroed.cycles());
        assert_eq!(plain.d_report, zeroed.d_report);
        assert_eq!(plain.i_report, zeroed.i_report);
        assert!(zeroed.d_faults.is_none(), "disabled faults leave no report");
    }

    #[test]
    fn fault_injection_on_gated_replays_and_completes() {
        let s = SystemSpec {
            faults: crate::FaultSpec {
                rate: 0.05,
                seed: 7,
                fail_safe: false,
                ecc: false,
                scrub_period: None,
            },
            ..spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 })
        };
        let run = run_benchmark("mesa", &s);
        let d = run.d_faults.as_ref().expect("fault report present");
        assert!(d.is_consistent(), "{}", d.summary());
        assert!(d.injected() > 0, "{}", d.summary());
        assert!(d.replayed() > 0, "{}", d.summary());
        // Replays cost cycles: the faulty run is slower than the clean one.
        let clean = run_benchmark(
            "mesa",
            &spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 }),
        );
        assert!(run.cycles() > clean.cycles());
    }

    #[test]
    fn fail_safe_degrades_instead_of_thrashing() {
        let s = SystemSpec {
            faults: crate::FaultSpec {
                rate: 0.9,
                seed: 11,
                fail_safe: true,
                ecc: false,
                scrub_period: None,
            },
            ..spec(PolicyKind::Gated { threshold: 50 }, PolicyKind::Gated { threshold: 50 })
        };
        let run = run_benchmark("health", &s);
        let d = run.d_faults.expect("fault report present");
        assert!(d.degraded_subarrays() > 0, "{}", d.summary());
        assert!(d.is_consistent(), "{}", d.summary());
    }

    #[test]
    fn ecc_runs_carry_reliability_and_price_the_codec() {
        let gated =
            spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 });
        let s = SystemSpec {
            faults: crate::FaultSpec {
                rate: 0.05,
                seed: 7,
                fail_safe: false,
                ecc: true,
                scrub_period: Some(4_096),
            },
            ..gated
        };
        let run = run_benchmark("mesa", &s);
        let rel = run.d_reliability.as_ref().expect("reliability report present");
        let faults = run.d_faults.as_ref().expect("fault report present");
        assert!(faults.is_consistent(), "{}", faults.summary());
        assert_eq!(
            rel.corrected() + rel.due() + rel.sdc(),
            faults.injected(),
            "every upset classifies to exactly one outcome"
        );
        assert!(rel.scrub_words() > 0, "background scrubbing swept words");
        let (pol, _) = run.energy(TechnologyNode::N70);
        assert!(pol.d.ecc_j > 0.0, "protected run pays codec + check columns");
        // The same spec without ECC pays nothing into the ECC meter.
        let bare = run_benchmark(
            "mesa",
            &SystemSpec {
                faults: crate::FaultSpec { ecc: false, scrub_period: None, ..s.faults },
                ..gated
            },
        );
        let (bare_pol, _) = bare.energy(TechnologyNode::N70);
        assert_eq!(bare_pol.d.ecc_j, 0.0);
        assert!(bare.d_reliability.is_none());
    }

    #[test]
    fn stock_runs_carry_no_hierarchy_state() {
        let run = run_benchmark("mesa", &spec(PolicyKind::StaticPullUp, PolicyKind::StaticPullUp));
        assert!(run.l2_report.is_none());
        assert!(run.l2_traffic.is_none());
        assert!(run.l3_report.is_none());
        assert!(run.l3_traffic.is_none());
        assert!(run.l2_energy(TechnologyNode::N70, LeakageKind::Drowsy).is_none());
        assert!(run.l2_miss_ratio().is_none());
    }

    #[test]
    fn managed_static_l2_is_cycle_identical_to_stock() {
        use crate::HierarchySpec;
        let s = spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 });
        let stock = run_benchmark("mesa", &s);
        let managed = run_benchmark(
            "mesa",
            &SystemSpec { hierarchy: HierarchySpec { levels: 2, ..HierarchySpec::default() }, ..s },
        );
        // A statically pulled-up managed L2 adds zero latency anywhere, so
        // the architectural run is identical — only the reports appear.
        assert_eq!(stock.cycles(), managed.cycles());
        assert_eq!(stock.d_report, managed.d_report);
        assert_eq!(stock.d_hit_miss, managed.d_hit_miss);
        let (h, m, _) = managed.l2_traffic.expect("managed L2 reports traffic");
        assert!(h + m > 0, "L1 misses must reach the L2");
        assert!(managed.l2_report.is_some());
        assert!(managed.l2_miss_ratio().is_some());
        assert!(managed.l3_report.is_none(), "two levels carry no L3");
    }

    #[test]
    fn three_levels_interpose_the_l3_and_price_it() {
        use crate::HierarchySpec;
        let s = spec(PolicyKind::StaticPullUp, PolicyKind::StaticPullUp);
        let two = run_benchmark(
            "mesa",
            &SystemSpec { hierarchy: HierarchySpec { levels: 2, ..HierarchySpec::default() }, ..s },
        );
        let three = run_benchmark(
            "mesa",
            &SystemSpec { hierarchy: HierarchySpec { levels: 3, ..HierarchySpec::default() }, ..s },
        );
        // Every L2 miss now pays the 30-cycle L3 lookup on its way to
        // memory (and some fills it spares), so cycles move.
        let (l3h, l3m, _) = three.l3_traffic.expect("three levels report L3 traffic");
        assert!(l3h + l3m > 0, "L2 misses must reach the L3");
        let l3_energy =
            three.l3_energy(TechnologyNode::N70, LeakageKind::FullVdd).expect("L3 priced");
        assert!(l3_energy.total_j() > 0.0);
        assert!(two.l3_report.is_none());
        assert!(three.l2_energy(TechnologyNode::N70, LeakageKind::FullVdd).is_some());
    }

    #[test]
    fn leakage_mode_reprices_energy_but_never_touches_cycles() {
        use crate::HierarchySpec;
        let s = spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 });
        let plain = run_benchmark("mesa", &s);
        let drowsy = run_benchmark(
            "mesa",
            &SystemSpec {
                hierarchy: HierarchySpec {
                    leakage_mode: LeakageKind::Drowsy,
                    ..HierarchySpec::default()
                },
                ..s
            },
        );
        assert_eq!(plain.cycles(), drowsy.cycles(), "leakage modes are pricing-only");
        assert_eq!(plain.d_report, drowsy.d_report);
        let (p, _) = plain.energy(TechnologyNode::N70);
        let (d, _) = drowsy.energy(TechnologyNode::N70);
        assert!(
            d.d.cell_leak_j < p.d.cell_leak_j,
            "gated idle episodes must leak less under drowsy cells"
        );
        // Explicit-mode pricing of the plain run matches the spec-driven
        // pricing of the drowsy run: the mode is orthogonal to simulation.
        let (explicit, _) = plain.energy_with_mode(TechnologyNode::N70, LeakageKind::Drowsy);
        assert_eq!(explicit.d.total_j().to_bits(), d.d.total_j().to_bits());
    }

    #[test]
    fn nominal_vdd_is_bit_identical_to_stock() {
        use crate::VddSpec;
        let s = spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 });
        let plain = run_benchmark("mesa", &s);
        let nominal = run_benchmark("mesa", &SystemSpec { vdd: VddSpec::nominal(), ..s });
        assert_eq!(format!("{plain:?}"), format!("{nominal:?}"));
        let (p, _) = plain.energy(TechnologyNode::N70);
        let (n, _) = nominal.energy(TechnologyNode::N70);
        assert_eq!(p.d.total_j().to_bits(), n.d.total_j().to_bits());
        assert!(nominal.d_vdd.is_none(), "nominal supply leaves no report");
    }

    #[test]
    fn guardband_safe_undervolt_is_pricing_only() {
        use crate::VddSpec;
        let s = spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 });
        let plain = run_benchmark("mesa", &s);
        // 0.98 of nominal stretches delay well inside the 8% guardband:
        // no speculation, no decorator, identical cycles — only joules move.
        let safe = run_benchmark(
            "mesa",
            &SystemSpec { vdd: VddSpec { scale: 0.98, governor: false }, ..s },
        );
        assert_eq!(plain.cycles(), safe.cycles());
        assert_eq!(plain.d_report, safe.d_report);
        assert!(safe.d_vdd.is_none(), "in-guardband supply arms no decorator");
        let (p, _) = plain.energy(TechnologyNode::N70);
        let (u, _) = safe.energy(TechnologyNode::N70);
        assert!(u.d.total_j() < p.d.total_j(), "less supply, less energy");
        assert!(u.d.dynamic_j < p.d.dynamic_j);
        assert!(u.d.cell_leak_j < p.d.cell_leak_j);
    }

    #[test]
    fn deep_undervolt_speculates_replays_and_costs_cycles() {
        use crate::VddSpec;
        let s = spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 });
        let clean = run_benchmark("mesa", &s);
        let hot = run_benchmark(
            "mesa",
            &SystemSpec { vdd: VddSpec { scale: 0.8, governor: false }, ..s },
        );
        let d = hot.d_vdd.as_ref().expect("speculative run carries a vdd report");
        assert!(d.accesses() > 0, "cold reads must be censused");
        assert!(d.upsets > 0, "0.8 Vdd at 70nm mis-senses");
        assert!(d.replays > 0, "the detector replays most upsets");
        assert!(d.is_consistent(), "{}", d.summary());
        // Mis-sensed replays flow through the fault machinery and cost
        // real cycles.
        let faults = hot.d_faults.as_ref().expect("upsets are injected faults");
        assert!(faults.is_consistent(), "{}", faults.summary());
        assert!(hot.cycles() > clean.cycles(), "replays are not free");
        // Undervolt still wins on energy despite the replay overhead.
        let (hot_e, _) = hot.energy(TechnologyNode::N70);
        let (clean_e, _) = clean.energy(TechnologyNode::N70);
        assert!(hot_e.d.total_j() < clean_e.d.total_j());
    }

    #[test]
    fn governed_undervolt_escalates_and_recovers() {
        use crate::VddSpec;
        let s = SystemSpec {
            instructions: 20_000,
            ..spec(PolicyKind::Gated { threshold: 50 }, PolicyKind::Gated { threshold: 50 })
        };
        let governed =
            run_benchmark("mesa", &SystemSpec { vdd: VddSpec { scale: 0.8, governor: true }, ..s });
        let d = governed.d_vdd.as_ref().expect("governed run carries a vdd report");
        assert!(d.is_consistent(), "{}", d.summary());
        assert!(d.escalations() > 0, "a 40%-upset rung must escalate");
        assert!(
            d.step_accesses.iter().skip(1).any(|&n| n > 0),
            "escalation must move traffic up the ladder: {:?}",
            d.step_accesses
        );
        // The governor holds the replay rate below the static ladder's.
        let hot = run_benchmark(
            "mesa",
            &SystemSpec { vdd: VddSpec { scale: 0.8, governor: false }, ..s },
        );
        let hot_d = hot.d_vdd.as_ref().expect("static run carries a vdd report");
        assert!(
            d.upsets * hot_d.accesses() < hot_d.upsets * d.accesses(),
            "governed upset rate ({}/{}) must undercut static ({}/{})",
            d.upsets,
            d.accesses(),
            hot_d.upsets,
            hot_d.accesses()
        );
        // Governed pricing sits between the aggressive rung and nominal.
        let (gov_e, _) = governed.energy(TechnologyNode::N70);
        let (hot_e, _) = hot.energy(TechnologyNode::N70);
        let (nom_e, _) = run_benchmark("mesa", &s).energy(TechnologyNode::N70);
        assert!(gov_e.d.dynamic_j > hot_e.d.dynamic_j * 0.99);
        assert!(gov_e.d.total_j() < nom_e.d.total_j() * 1.05);
    }

    #[test]
    fn undervolted_ecc_runs_classify_timing_upsets_through_secded() {
        use crate::VddSpec;
        let s = SystemSpec {
            faults: crate::FaultSpec { ecc: true, ..crate::FaultSpec::default() },
            vdd: VddSpec { scale: 0.8, governor: false },
            ..spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 })
        };
        let run = run_benchmark("mesa", &s);
        let d = run.d_vdd.as_ref().expect("vdd report present");
        let rel = run.d_reliability.as_ref().expect("ecc run carries reliability");
        assert!(d.upsets > 0);
        assert_eq!(
            rel.corrected() + rel.due() + rel.sdc(),
            d.upsets,
            "every timing upset classifies to exactly one SECDED outcome"
        );
        assert!(d.corrected > 0, "SECDED corrects single flips in the read path");
        assert!(d.is_consistent(), "{}", d.summary());
    }

    #[test]
    fn runs_are_deterministic() {
        let s = spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::StaticPullUp);
        let a = run_benchmark("tsp", &s);
        let b = run_benchmark("tsp", &s);
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.stats.committed, b.stats.committed);
        assert_eq!(a.d_hit_miss, b.d_hit_miss);
    }
}

#[cfg(test)]
mod debug_probe {
    use super::*;

    #[test]
    #[ignore]
    fn probe_ondemand() {
        for name in ["mesa", "health", "gcc"] {
            for n in [8_000u64, 40_000] {
                let s = SystemSpec { instructions: n, ..SystemSpec::default() };
                let base = run_benchmark(name, &s);
                let od = run_benchmark(name, &SystemSpec { d_policy: PolicyKind::OnDemand, ..s });
                println!(
                    "{name} n={n}: base {} cyc (fstall {} mispred {} dmiss {:.3} loads {}), od {} cyc (fstall {} mispred {} dmiss {:.3} loads {}), slowdown {:.3}",
                    base.cycles(), base.stats.fetch_stall_cycles, base.stats.mispredicts, base.d_miss_ratio(), base.stats.loads,
                    od.cycles(), od.stats.fetch_stall_cycles, od.stats.mispredicts, od.d_miss_ratio(), od.stats.loads,
                    od.slowdown_vs(&base)
                );
            }
        }
    }
}
