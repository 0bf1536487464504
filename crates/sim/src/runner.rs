//! One full-system simulation run.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bitline_cache::{
    ActivityReport, CacheConfig, L1Cache, MemorySystem, MemorySystemConfig, WayStats,
};
use bitline_circuit::{vdd_dynamic_energy_factor, vdd_leakage_energy_factor, DecoderModel};
use bitline_cmos::TechnologyNode;
use bitline_cpu::{Cpu, CpuConfig, SimStats};
use bitline_ecc::ReliabilityReport;
use bitline_energy::{CacheEnergyBreakdown, EccActivity, EnergyAccountant, LeakageKind, LevelUse};
use bitline_exec::{CancelToken, TraceCursor};
use bitline_faults::{FaultInjectingPolicy, FaultReport, VddConfig, VddReport};

use crate::config::{HierarchySpec, PolicyKind, SystemSpec};
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

/// A cache level a run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The L1 data cache.
    L1D,
    /// The L1 instruction cache.
    L1I,
    /// The managed L2 (two or more levels).
    L2,
    /// The L3 behind it (three levels).
    L3,
}

impl Level {
    /// The levels a run under `hierarchy` records, in order: both L1s,
    /// then the L2 and the L3 it manages. `None` for a level count outside
    /// 1..=3, which the spec table accepts and only
    /// [`SystemSpec::validate`] rejects.
    #[must_use]
    pub fn of(hierarchy: &HierarchySpec) -> Option<&'static [Level]> {
        static ALL: [Level; 4] = [Level::L1D, Level::L1I, Level::L2, Level::L3];
        (1..=3).contains(&hierarchy.levels).then(|| &ALL[..=usize::from(hierarchy.levels)])
    }

    /// The level's segment in metric names and report lines: `d`, `i`,
    /// `l2` or `l3`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Level::L1D => "d",
            Level::L1I => "i",
            Level::L2 => "l2",
            Level::L3 => "l3",
        }
    }

    /// The precharge policy `spec` runs on this level; the L3 shares the
    /// L2's.
    fn policy(self, spec: &SystemSpec) -> PolicyKind {
        match self {
            Level::L1D => spec.d_policy,
            Level::L1I => spec.i_policy,
            Level::L2 | Level::L3 => spec.hierarchy.l2_policy,
        }
    }
}

/// What one cache level recorded in a run.
#[derive(Debug, Clone)]
pub struct LevelRun {
    /// Which level this is.
    pub level: Level,
    /// Precharge activity report.
    pub report: ActivityReport,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Locality statistics when the level's policy was a recorder.
    pub locality: Option<LocalityStats>,
    /// Way-prediction outcomes (when enabled).
    pub way_stats: Option<WayStats>,
    /// Fault accounting (when faults or timing speculation were armed).
    pub faults: Option<FaultReport>,
    /// Reliability accounting (when SECDED protection was armed).
    pub reliability: Option<ReliabilityReport>,
    /// Timing-speculation accounting (when cold reads sensed below the
    /// guardband).
    pub vdd: Option<VddReport>,
}

impl LevelRun {
    /// Hits plus misses.
    pub(crate) fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Misses per lookup.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        self.misses as f64 / self.lookups().max(1) as f64
    }
}

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
    /// One record per cache level, in [`Level::of`] order.
    pub levels: Vec<LevelRun>,
}

impl RunResult {
    /// Cycles the run took.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// The record of `level`, when the run had that level.
    #[must_use]
    pub fn level(&self, level: Level) -> Option<&LevelRun> {
        self.levels.iter().find(|l| l.level == level)
    }

    /// The L1 data cache's record, which every run has.
    #[must_use]
    pub fn l1d(&self) -> &LevelRun {
        self.level(Level::L1D).expect("every run records the L1D")
    }

    /// The L1 instruction cache's record, which every run has.
    #[must_use]
    pub fn l1i(&self) -> &LevelRun {
        self.level(Level::L1I).expect("every run records the L1I")
    }

    /// Slowdown relative to a baseline run of the same benchmark/length
    /// (positive = slower).
    #[must_use]
    pub fn slowdown_vs(&self, baseline: &RunResult) -> f64 {
        self.cycles() as f64 / baseline.cycles() as f64 - 1.0
    }

    /// Prices both L1s at `node` under the spec's leakage mode, returning
    /// `(policy, baseline)` where the baseline is the analytic
    /// static-pull-up, full-Vdd cache over the same cycles and access
    /// counts, at nominal supply.
    ///
    /// The accountants (cache geometry + energy models) are memoized per
    /// `(node, subarray_bytes)` process-wide: sweeps re-pricing hundreds
    /// of runs across nodes build each model once.
    #[must_use]
    pub fn energy(&self, node: TechnologyNode) -> EnergyPair {
        let accountants = execution::accountants(node, self.spec.subarray_bytes);
        let priced = |acct: &EnergyAccountant, level: &LevelRun| {
            let usage = self.level_use(level, self.spec.hierarchy.leakage_mode);
            let protected = usage.ecc.is_some();
            let baseline =
                acct.static_baseline(self.cycles(), usage.reads, usage.writes, protected);
            (acct.price(&usage), baseline)
        };
        let (d, d_base) = priced(&accountants.0, self.l1d());
        let (i, i_base) = priced(&accountants.1, self.l1i());
        (RunEnergy { d, i }, RunEnergy { d: d_base, i: i_base })
    }

    /// Prices `level` at `node` under an explicit cell [`LeakageKind`],
    /// whatever the spec asked for, at the supply the level sensed at;
    /// `None` for a level the run did not have. Leakage modes never touch
    /// cycles, so the hierarchy experiment prices one architectural run
    /// under every mode in the zoo without re-simulating.
    #[must_use]
    pub fn level_energy(
        &self,
        level: Level,
        node: TechnologyNode,
        mode: LeakageKind,
    ) -> Option<CacheEnergyBreakdown> {
        let usage = self.level_use(self.level(level)?, mode);
        let outer = |cfg| execution::level_accountant(node, cfg).price(&usage);
        let l1s = || execution::accountants(node, self.spec.subarray_bytes);
        Some(match level {
            Level::L1D => l1s().0.price(&usage),
            Level::L1I => l1s().1.price(&usage),
            Level::L2 => outer(MemorySystem::l2_config(&MemorySystemConfig::default())),
            Level::L3 => outer(MemorySystem::l3_config(&MemorySystemConfig::default())),
        })
    }

    /// What one level's joules depend on, under a leakage mode. A level
    /// is priced on its `(reads, writes)`: the core's loads and stores at
    /// the L1D, fetch lookups at the L1I, and at an outer level its
    /// lookups, each miss filling a line. ECC is priced only when the run
    /// actually carried SECDED state.
    fn level_use<'a>(&self, level: &'a LevelRun, leakage: LeakageKind) -> LevelUse<'a> {
        let (reads, writes) = match level.level {
            Level::L1D => (self.stats.loads, self.stats.stores),
            Level::L1I => (level.lookups(), 0),
            Level::L2 | Level::L3 => (level.lookups(), level.misses),
        };
        LevelUse {
            report: &level.report,
            reads,
            writes,
            decay_counters: level.level.policy(&self.spec).has_decay_counters(),
            way_stats: level.way_stats,
            ecc: level.reliability.as_ref().map(|rel| EccActivity {
                protected_accesses: reads + writes,
                scrub_words: rel.scrub_words(),
            }),
            leakage,
            supply: self.vdd_energy_factors(level),
        }
    }

    /// Per-cache `(dynamic, leakage)` energy multipliers for the supply
    /// the run actually sensed at. Exactly `(1, 1)` for the inert nominal
    /// spec, which multiplies every term exactly, so every pre-voltage
    /// figure stays bit-identical. A static undervolted run prices at the
    /// requested scale; a governed run prices each speculative access at
    /// the ladder rung it was actually sensed at, via the integer per-step
    /// census — deterministic and identical across job counts. The L2/L3
    /// are not undervolted (the ladder is an L1 mechanism) and stay at
    /// nominal.
    fn vdd_energy_factors(&self, level: &LevelRun) -> (f64, f64) {
        if self.spec.vdd.is_default() || matches!(level.level, Level::L2 | Level::L3) {
            return (1.0, 1.0);
        }
        let scale = self.spec.vdd.scale;
        match &level.vdd {
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
}

/// The report sinks one level's policy stack writes into, read back when
/// the run finalises.
#[derive(Default)]
struct Sinks {
    locality: Option<Rc<RefCell<LocalityStats>>>,
    faults: Option<Rc<RefCell<FaultReport>>>,
    reliability: Option<Rc<RefCell<ReliabilityReport>>>,
    vdd: Option<Rc<RefCell<VddReport>>>,
}

impl Sinks {
    /// The record of a finished level: `cache`'s traffic, its closed
    /// `report`, and whatever the sinks collected.
    fn into_level(self, level: Level, cache: &L1Cache, report: ActivityReport) -> LevelRun {
        LevelRun {
            level,
            report,
            hits: cache.hits(),
            misses: cache.misses(),
            writebacks: cache.writebacks(),
            locality: self.locality.map(|s| s.borrow().clone()),
            way_stats: cache.way_stats(),
            faults: self.faults.map(|s| s.borrow().clone()),
            reliability: self.reliability.map(|s| s.borrow().clone()),
            vdd: self.vdd.map(|s| s.borrow().clone()),
        }
    }
}

/// Builds one L1's precharge policy stack and its report sinks. The fault
/// layer decorates the policy only when armed — by a fault rate, or by a
/// `vdd` ladder that speculates — so a disabled spec leaves the policy
/// object, and hence every cycle and every joule, exactly as before the
/// layer existed. `stream` salts the injector: 0 for the L1D, 1 for the
/// L1I.
fn arm_l1(
    spec: &SystemSpec,
    kind: PolicyKind,
    cfg: &CacheConfig,
    node: TechnologyNode,
    vdd: Option<&VddConfig>,
    stream: u64,
) -> (Box<dyn bitline_cache::PrechargePolicy>, Sinks) {
    let mut sinks = Sinks {
        locality: matches!(kind, PolicyKind::LocalityRecorder)
            .then(|| Rc::new(RefCell::new(LocalityStats::default()))),
        ..Sinks::default()
    };
    let policy = kind.build(cfg, node, sinks.locality.clone());
    if !spec.faults.enabled() && vdd.is_none() {
        return (policy, sinks);
    }
    let penalty = DecoderModel::new(node, cfg.geometry()).cold_access_penalty_cycles();
    let faults = Rc::new(RefCell::new(FaultReport::new(cfg.subarrays())));
    let mut policy = FaultInjectingPolicy::new(
        policy,
        spec.faults.to_config(penalty, stream, spec.subarray_words()),
        cfg.subarrays(),
    )
    .with_sink(faults.clone());
    sinks.faults = Some(faults);
    if spec.faults.ecc {
        // With the codec armed, every upset — leakage or timing —
        // classifies through SECDED, so the run carries reliability
        // accounting whichever source is active.
        let rel = Rc::new(RefCell::new(ReliabilityReport::new(cfg.subarrays())));
        policy = policy.with_reliability_sink(rel.clone());
        sinks.reliability = Some(rel);
    }
    if let Some(vdd) = vdd {
        let report = Rc::new(RefCell::new(VddReport::new(cfg.subarrays(), vdd.steps.len())));
        policy = policy.with_vdd(vdd.clone()).with_vdd_sink(report.clone());
        sinks.vdd = Some(report);
    }
    (Box::new(policy), sinks)
}

/// The conservation laws every finished run obeys, checked in debug
/// builds: each level's hits and misses account for every access its
/// policy saw, the L1D serves exactly the core's loads and stores, and
/// each outer level serves exactly the misses of the levels inside it.
fn check_level_laws(stats: &SimStats, levels: &[LevelRun]) {
    let misses = |level| levels.iter().find(|l| l.level == level).map_or(0, |l| l.misses);
    for l in levels {
        let label = l.level.label();
        debug_assert_eq!(l.lookups(), l.report.total_accesses(), "{label}: hits + misses");
        let served = match l.level {
            Level::L1D => stats.loads + stats.stores,
            Level::L1I => continue,
            Level::L2 => misses(Level::L1D) + misses(Level::L1I),
            Level::L3 => misses(Level::L2),
        };
        debug_assert_eq!(l.lookups(), served, "{label}: lookups");
    }
}

/// One simulation in progress: [`Run::start`] builds the machine over a
/// trace cursor, [`Run::advance`] commits the next chunk of at most
/// [`CANCEL_POLL_INSTRS`] instructions, and [`Run::finish`] finalises the
/// caches into the [`RunResult`]. `Cpu::run` is incremental (it runs until
/// `committed + n`), so a run advanced chunk by chunk, alone or
/// interleaved with others, is cycle-identical to one long call.
struct Run {
    spec: SystemSpec,
    trace: TraceCursor,
    cpu: Cpu,
    d_sinks: Sinks,
    i_sinks: Sinks,
    stats: SimStats,
    /// Wall time spent inside `Cpu::run` proper — the data-oriented hot
    /// loop — excluding setup, energy modelling and reporting. This is
    /// what the MIPS throughput gauge measures.
    busy: Duration,
}

impl Run {
    /// Builds the machine `spec` describes (already validated) over
    /// `trace`.
    fn start(spec: &SystemSpec, trace: TraceCursor) -> Run {
        // The architectural pipeline is node-independent; build policies at
        // the newest node (their cycle penalties are identical across
        // nodes).
        let node = TechnologyNode::N70;
        let mut d_cfg = CacheConfig::l1_data().with_subarray_bytes(spec.subarray_bytes);
        let mut i_cfg = CacheConfig::l1_inst().with_subarray_bytes(spec.subarray_bytes);
        if spec.way_prediction {
            d_cfg = d_cfg.with_way_prediction();
            i_cfg = i_cfg.with_way_prediction();
        }
        // A supply below the sense guardband turns cold reads speculative —
        // that arms the fault decorator even with the leakage-fault source
        // off. An undervolt still *inside* the guardband never mis-senses,
        // so it is pricing-only: no decorator, trivially cycle-identical.
        let vdd = spec.vdd.to_config(node).filter(VddConfig::speculating);
        let (d_policy, d_sinks) = arm_l1(spec, spec.d_policy, &d_cfg, node, vdd.as_ref(), 0);
        let (i_policy, i_sinks) = arm_l1(spec, spec.i_policy, &i_cfg, node, vdd.as_ref(), 1);

        let mem_cfg =
            MemorySystemConfig { l1d: d_cfg, l1i: i_cfg, ..MemorySystemConfig::default() };
        // An inert hierarchy spec builds the stock two-level system through
        // the exact constructor the pre-hierarchy code used; only an
        // explicit `levels >= 2` swaps in managed outer levels (the L3
        // shares the L2's policy kind — outer levels see the same filtered
        // miss stream).
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
        let cpu = Cpu::new(cpu_cfg, mem);
        let stats = cpu.stats();
        Run { spec: *spec, trace, cpu, d_sinks, i_sinks, stats, busy: Duration::ZERO }
    }

    /// Whether every instruction the spec asks for has committed.
    fn done(&self) -> bool {
        self.stats.committed >= self.spec.instructions
    }

    /// Commits the next chunk of instructions.
    fn advance(&mut self) {
        let chunk = (self.spec.instructions - self.stats.committed).min(CANCEL_POLL_INSTRS);
        let t = Instant::now();
        self.stats = self.cpu.run(&mut self.trace, chunk);
        self.busy += t.elapsed();
        // Chunk-boundary instrumentation: one interned-handle counter add
        // per chunk, the same cadence as the cancel poll.
        bitline_obs::counter!("sim.runner.chunks").incr();
    }

    /// Finalises the caches, records the run's counters and returns its
    /// result. Dropping the trace cursor here lets a windowed stream drop
    /// what only this run still needed.
    fn finish(self, name: &str) -> RunResult {
        let Run { spec, trace, cpu, d_sinks, i_sinks, stats, busy } = self;
        drop(trace);
        let end_cycle = stats.cycles;
        let work = cpu.work();
        let mut mem = cpu.into_memory();
        let (d_report, i_report) = mem.finalize(end_cycle);
        let mut levels = vec![
            d_sinks.into_level(Level::L1D, mem.l1d(), d_report),
            i_sinks.into_level(Level::L1I, mem.l1i(), i_report),
        ];
        if spec.hierarchy.active() {
            let report = mem.finalize_l2(end_cycle);
            levels.push(Sinks::default().into_level(Level::L2, mem.l2(), report));
        }
        if let Some(report) = mem.finalize_l3(end_cycle) {
            let l3 = mem.l3().expect("a finalised L3 exists");
            levels.push(Sinks::default().into_level(Level::L3, l3, report));
        }
        check_level_laws(&stats, &levels);

        // Run-completion accounting: every counter below except the
        // wall-time `busy_micros` is a pure function of (benchmark, spec),
        // so their totals are identical across job counts. `busy_micros`
        // is timing telemetry (how long the hot loop actually ran) and is
        // excluded from the cross-jobs differential alongside `exec.pool.*`.
        bitline_obs::counter!("sim.runner.runs").incr();
        let committed_counter = bitline_obs::counter!("sim.runner.committed_instructions");
        committed_counter.add(stats.committed);
        bitline_obs::counter!("sim.runner.cycles").add(stats.cycles);
        // What the core's loop did to simulate those cycles (see `CoreWork`).
        bitline_obs::counter!("sim.core.stepped_cycles").add(work.stepped_cycles);
        bitline_obs::counter!("sim.core.skipped_cycles").add(work.skipped_cycles);
        bitline_obs::counter!("sim.core.awake_visits").add(work.awake_visits);
        bitline_obs::counter!("sim.core.operand_checks").add(work.operand_checks);
        bitline_obs::counter!("sim.core.wheel_events").add(work.wheel_events);
        bitline_obs::counter!("sim.core.replay_slots").add(work.replay_slots);
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
            bitline_obs::gauge!("sim.runner.mips")
                .set(i64::try_from(milli_mips).unwrap_or(i64::MAX));
        }
        let registry = bitline_obs::registry();
        for l in &levels {
            let label = l.level.label();
            if matches!(l.level, Level::L1D | Level::L1I) {
                let policy = l.level.policy(&spec).label();
                registry
                    .counter(&format!("sim.runner.precharges.{label}.{policy}"))
                    .add(l.report.total_precharge_events());
            }
            if let Some(faults) = &l.faults {
                faults.record_metrics(label);
            }
            if let Some(rel) = &l.reliability {
                rel.record_metrics(label);
            }
            if let Some(vdd) = &l.vdd {
                vdd.record_metrics(label);
            }
        }

        RunResult { benchmark: name.to_owned(), spec, stats, levels }
    }
}

/// Advances `runs` of benchmark `name` round-robin, one chunk each per
/// turn, polling `token` before every chunk, and finishes each run as it
/// completes. The one stepping loop: a single run is a set of one.
fn step_until_done(
    name: &str,
    runs: Vec<Run>,
    token: &CancelToken,
) -> Result<Vec<RunResult>, SimError> {
    let mut runs: Vec<Option<Run>> = runs.into_iter().map(Some).collect();
    let mut results: Vec<Option<RunResult>> = runs.iter().map(|_| None).collect();
    loop {
        for (slot, result) in runs.iter_mut().zip(&mut results) {
            if slot.as_ref().is_some_and(Run::done) {
                *result = slot.take().map(|run| run.finish(name));
            }
        }
        if runs.iter().all(Option::is_none) {
            break;
        }
        for run in runs.iter_mut().flatten() {
            if token.cancelled() {
                bitline_obs::counter!("sim.runner.timeouts").incr();
                return Err(SimError::TimedOut {
                    benchmark: name.to_owned(),
                    budget: token.budget().unwrap_or_default(),
                    progress: run.stats.committed,
                });
            }
            run.advance();
        }
    }
    Ok(results.into_iter().map(|r| r.expect("every run finished")).collect())
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
    // Replay the benchmark's retained trace: the synthetic stream for this
    // (benchmark, seed) is generated once per store and every run of it —
    // concurrent or repeated — reads the same materialised prefix.
    let trace = execution::trace_cursor(name, spec.seed)
        .ok_or_else(|| SimError::UnknownBenchmark(name.to_owned()))?;
    let mut runs = step_until_done(name, vec![Run::start(spec, trace)], token)?;
    Ok(runs.pop().expect("one run in, one result out"))
}

/// Runs several specs of benchmark `name` at one seed in lockstep, one
/// chunk of each in turn, over one windowed stream: the runs read the
/// stream together, so it holds only the segments between the slowest
/// run and the fastest, however long the runs. Each result is identical
/// to a [`try_run_benchmark_supervised`] call of its spec.
///
/// # Errors
///
/// As [`try_run_benchmark`], for any of the specs, and
/// [`SimError::InvalidSpec`] when the specs name different seeds, which
/// are different streams; a timeout returns no result at all.
pub(crate) fn try_run_lockstep_supervised(
    name: &str,
    specs: &[SystemSpec],
    token: &CancelToken,
) -> Result<Vec<RunResult>, SimError> {
    let Some(seed) = specs.first().map(|s| s.seed) else { return Ok(Vec::new()) };
    for spec in specs {
        spec.validate()?;
        if spec.seed != seed {
            return Err(SimError::InvalidSpec(format!(
                "seed = {}; a lockstep set reads one stream, at seed {seed}",
                spec.seed
            )));
        }
    }
    let cursors = TraceCursor::window(name, seed, specs.len())
        .ok_or_else(|| SimError::UnknownBenchmark(name.to_owned()))?;
    let runs = specs.iter().zip(cursors).map(|(spec, trace)| Run::start(spec, trace)).collect();
    step_until_done(name, runs, token)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(d: PolicyKind, i: PolicyKind) -> SystemSpec {
        SystemSpec { d_policy: d, i_policy: i, instructions: 8_000, ..SystemSpec::default() }
    }

    /// Runs `name` under `spec`; a test has no use for a failed run.
    fn simulate(name: &str, spec: &SystemSpec) -> RunResult {
        try_run_benchmark(name, spec).unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    #[test]
    fn oracle_never_slows_down_and_saves_discharge() {
        let base = simulate("health", &spec(PolicyKind::StaticPullUp, PolicyKind::StaticPullUp));
        let oracle = simulate("health", &spec(PolicyKind::Oracle, PolicyKind::Oracle));
        assert_eq!(oracle.cycles(), base.cycles(), "the oracle is delay-free");
        let (pol, basln) = oracle.energy(TechnologyNode::N70);
        assert!(pol.d.relative_discharge(&basln.d) < 0.5);
        assert!(pol.i.relative_discharge(&basln.i) < 0.5);
    }

    #[test]
    fn on_demand_slows_execution() {
        let base = simulate("mesa", &spec(PolicyKind::StaticPullUp, PolicyKind::StaticPullUp));
        let od = simulate("mesa", &spec(PolicyKind::OnDemand, PolicyKind::StaticPullUp));
        assert!(od.slowdown_vs(&base) > 0.005, "slowdown {}", od.slowdown_vs(&base));
    }

    #[test]
    fn gated_saves_discharge_with_small_slowdown() {
        let base = simulate("mesa", &spec(PolicyKind::StaticPullUp, PolicyKind::StaticPullUp));
        let gated = simulate(
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
        let run =
            simulate("health", &spec(PolicyKind::LocalityRecorder, PolicyKind::LocalityRecorder));
        let d = run.l1d().locality.clone().expect("d locality recorded");
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
        let plain = simulate("mesa", &s);
        let zeroed = simulate(
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
        assert_eq!(plain.l1d().report, zeroed.l1d().report);
        assert_eq!(plain.l1i().report, zeroed.l1i().report);
        assert!(zeroed.l1d().faults.is_none(), "disabled faults leave no report");
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
        let run = simulate("mesa", &s);
        let d = run.l1d().faults.as_ref().expect("fault report present");
        assert!(d.is_consistent(), "{}", d.summary());
        assert!(d.injected() > 0, "{}", d.summary());
        assert!(d.replayed() > 0, "{}", d.summary());
        // Replays cost cycles: the faulty run is slower than the clean one.
        let clean = simulate(
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
        let run = simulate("health", &s);
        let d = run.l1d().faults.clone().expect("fault report present");
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
        let run = simulate("mesa", &s);
        let rel = run.l1d().reliability.as_ref().expect("reliability report present");
        let faults = run.l1d().faults.as_ref().expect("fault report present");
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
        let bare = simulate(
            "mesa",
            &SystemSpec {
                faults: crate::FaultSpec { ecc: false, scrub_period: None, ..s.faults },
                ..gated
            },
        );
        let (bare_pol, _) = bare.energy(TechnologyNode::N70);
        assert_eq!(bare_pol.d.ecc_j, 0.0);
        assert!(bare.l1d().reliability.is_none());
    }

    #[test]
    fn stock_runs_carry_no_hierarchy_state() {
        let run = simulate("mesa", &spec(PolicyKind::StaticPullUp, PolicyKind::StaticPullUp));
        let levels: Vec<Level> = run.levels.iter().map(|l| l.level).collect();
        assert_eq!(levels, [Level::L1D, Level::L1I]);
        assert!(run.level_energy(Level::L2, TechnologyNode::N70, LeakageKind::Drowsy).is_none());
    }

    #[test]
    fn managed_static_l2_is_cycle_identical_to_stock() {
        use crate::HierarchySpec;
        let s = spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 });
        let stock = simulate("mesa", &s);
        let managed = simulate(
            "mesa",
            &SystemSpec { hierarchy: HierarchySpec { levels: 2, ..HierarchySpec::default() }, ..s },
        );
        // A statically pulled-up managed L2 adds zero latency anywhere, so
        // the architectural run is identical — only the reports appear.
        assert_eq!(stock.cycles(), managed.cycles());
        assert_eq!(format!("{:?}", stock.levels), format!("{:?}", &managed.levels[..2]));
        let l2 = managed.level(Level::L2).expect("managed L2 is recorded");
        assert!(l2.lookups() > 0, "L1 misses must reach the L2");
        assert!(managed.level(Level::L3).is_none(), "two levels carry no L3");
    }

    #[test]
    fn three_levels_interpose_the_l3_and_price_it() {
        use crate::HierarchySpec;
        let s = spec(PolicyKind::StaticPullUp, PolicyKind::StaticPullUp);
        let two = simulate(
            "mesa",
            &SystemSpec { hierarchy: HierarchySpec { levels: 2, ..HierarchySpec::default() }, ..s },
        );
        let three = simulate(
            "mesa",
            &SystemSpec { hierarchy: HierarchySpec { levels: 3, ..HierarchySpec::default() }, ..s },
        );
        // Every L2 miss now pays the 30-cycle L3 lookup on its way to
        // memory (and some fills it spares), so cycles move.
        let l3 = three.level(Level::L3).expect("three levels record the L3");
        assert!(l3.lookups() > 0, "L2 misses must reach the L3");
        let l3_energy = three.level_energy(Level::L3, TechnologyNode::N70, LeakageKind::FullVdd);
        assert!(l3_energy.expect("L3 priced").total_j() > 0.0);
        assert!(two.level(Level::L3).is_none());
        assert!(three.level_energy(Level::L2, TechnologyNode::N70, LeakageKind::FullVdd).is_some());
    }

    #[test]
    fn leakage_mode_reprices_energy_but_never_touches_cycles() {
        use crate::HierarchySpec;
        let s = spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 });
        let plain = simulate("mesa", &s);
        let drowsy = simulate(
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
        assert_eq!(plain.l1d().report, drowsy.l1d().report);
        let (p, _) = plain.energy(TechnologyNode::N70);
        let (d, _) = drowsy.energy(TechnologyNode::N70);
        assert!(
            d.d.cell_leak_j < p.d.cell_leak_j,
            "gated idle episodes must leak less under drowsy cells"
        );
        // Explicit-mode pricing of the plain run matches the spec-driven
        // pricing of the drowsy run: the mode is orthogonal to simulation.
        let explicit = plain.level_energy(Level::L1D, TechnologyNode::N70, LeakageKind::Drowsy);
        assert_eq!(explicit.map(|e| e.total_j().to_bits()), Some(d.d.total_j().to_bits()));
    }

    #[test]
    fn nominal_vdd_is_bit_identical_to_stock() {
        use crate::VddSpec;
        let s = spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 });
        let plain = simulate("mesa", &s);
        let nominal = simulate("mesa", &SystemSpec { vdd: VddSpec::nominal(), ..s });
        assert_eq!(format!("{plain:?}"), format!("{nominal:?}"));
        let (p, _) = plain.energy(TechnologyNode::N70);
        let (n, _) = nominal.energy(TechnologyNode::N70);
        assert_eq!(p.d.total_j().to_bits(), n.d.total_j().to_bits());
        assert!(nominal.l1d().vdd.is_none(), "nominal supply leaves no report");
    }

    #[test]
    fn guardband_safe_undervolt_is_pricing_only() {
        use crate::VddSpec;
        let s = spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 });
        let plain = simulate("mesa", &s);
        // 0.98 of nominal stretches delay well inside the 8% guardband:
        // no speculation, no decorator, identical cycles — only joules move.
        let safe =
            simulate("mesa", &SystemSpec { vdd: VddSpec { scale: 0.98, governor: false }, ..s });
        assert_eq!(plain.cycles(), safe.cycles());
        assert_eq!(plain.l1d().report, safe.l1d().report);
        assert!(safe.l1d().vdd.is_none(), "in-guardband supply arms no decorator");
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
        let clean = simulate("mesa", &s);
        let hot =
            simulate("mesa", &SystemSpec { vdd: VddSpec { scale: 0.8, governor: false }, ..s });
        let d = hot.l1d().vdd.as_ref().expect("speculative run carries a vdd report");
        assert!(d.accesses() > 0, "cold reads must be censused");
        assert!(d.upsets > 0, "0.8 Vdd at 70nm mis-senses");
        assert!(d.replays > 0, "the detector replays most upsets");
        assert!(d.is_consistent(), "{}", d.summary());
        // Mis-sensed replays flow through the fault machinery and cost
        // real cycles.
        let faults = hot.l1d().faults.as_ref().expect("upsets are injected faults");
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
            simulate("mesa", &SystemSpec { vdd: VddSpec { scale: 0.8, governor: true }, ..s });
        let d = governed.l1d().vdd.as_ref().expect("governed run carries a vdd report");
        assert!(d.is_consistent(), "{}", d.summary());
        assert!(d.escalations() > 0, "a 40%-upset rung must escalate");
        assert!(
            d.step_accesses.iter().skip(1).any(|&n| n > 0),
            "escalation must move traffic up the ladder: {:?}",
            d.step_accesses
        );
        // The governor holds the replay rate below the static ladder's.
        let hot =
            simulate("mesa", &SystemSpec { vdd: VddSpec { scale: 0.8, governor: false }, ..s });
        let hot_d = hot.l1d().vdd.as_ref().expect("static run carries a vdd report");
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
        let (nom_e, _) = simulate("mesa", &s).energy(TechnologyNode::N70);
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
        let run = simulate("mesa", &s);
        let d = run.l1d().vdd.as_ref().expect("vdd report present");
        let rel = run.l1d().reliability.as_ref().expect("ecc run carries reliability");
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
    fn each_l1_records_its_reports_under_its_label() {
        let s = SystemSpec {
            faults: crate::FaultSpec { ecc: true, ..crate::FaultSpec::default() },
            vdd: crate::VddSpec { scale: 0.8, governor: false },
            ..spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::Gated { threshold: 100 })
        };
        let names = [
            "faults.d.injected",
            "ecc.i.corrected",
            "vdd.d.upsets",
            "sim.runner.precharges.i.gated",
        ];
        let count = |name: &str| bitline_obs::registry().counter(name).get();
        let before = names.map(count);
        let run = simulate("mesa", &s);
        let (d, i) = (run.l1d(), run.l1i());
        let own = [
            d.faults.as_ref().map_or(0, FaultReport::injected),
            i.reliability.as_ref().map_or(0, ReliabilityReport::corrected),
            d.vdd.as_ref().map_or(0, |v| v.upsets),
            i.report.total_precharge_events(),
        ];
        // Tests running alongside may move a counter further, never less.
        for ((name, before), own) in names.into_iter().zip(before).zip(own) {
            assert!(own > 0 && count(name) - before >= own, "{name}: {own} not recorded");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn the_level_laws_catch_a_miscounted_level() {
        use crate::HierarchySpec;
        let s = spec(PolicyKind::StaticPullUp, PolicyKind::StaticPullUp);
        let three = HierarchySpec { levels: 3, ..HierarchySpec::default() };
        let run = simulate("mesa", &SystemSpec { hierarchy: three, ..s });
        for (i, as_access) in (0..run.levels.len()).flat_map(|i| [(i, false), (i, true)]) {
            // An extra miss breaks hits + misses = accesses; counted as an
            // access too, it breaks this level's or the next one's traffic.
            let mut levels = run.levels.clone();
            levels[i].misses += 1;
            levels[i].report.per_subarray[0].accesses += u64::from(as_access);
            let caught = std::panic::catch_unwind(|| check_level_laws(&run.stats, &levels));
            assert!(caught.is_err(), "{:?} miscounted unnoticed", levels[i].level);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let s = spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::StaticPullUp);
        let a = simulate("tsp", &s);
        let b = simulate("tsp", &s);
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.stats.committed, b.stats.committed);
        assert_eq!(format!("{:?}", a.levels), format!("{:?}", b.levels));
    }
}
