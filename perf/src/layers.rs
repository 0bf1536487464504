//! The traced run's layers, each replayed in isolation over the workload's
//! own inputs. Spans are this file's own `Instant`s around calls into each
//! crate's public functions; nothing inside the program is instrumented.
//!
//! Layer boundaries, outermost first:
//!
//! * `workloads` — the synthetic generator (`SyntheticWorkload::next_instr`);
//! * `traces` — columnar materialisation (cold `TraceStore` cursor, which
//!   includes generation) and warm decode;
//! * `cpu` — `Cpu::run` over a warm cursor, memory system included; its
//!   self time is that minus warm decode and the cache replay below;
//! * `cache` — `MemorySystem::data_access` / `inst_fetch` driven by the
//!   trace's own addresses at cycle = instruction index × CPI;
//! * `policy` — the exact D-cache `PrechargePolicy` call stream of a real
//!   run, captured by a recording wrapper and replayed into fresh policies,
//!   bare and behind the fault/Vdd decorator;
//! * `energy`, `checkpoint`, `journal`, `serve` — pricing, the run codec,
//!   the fsync'd journal and request parsing, over the workload's own runs
//!   and request lines.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bitline_cache::{
    ActivityReport, CacheConfig, FaultEvent, MemorySystem, MemorySystemConfig, PrechargePolicy,
    ResizeRequest,
};
use bitline_circuit::DecoderModel;
use bitline_cmos::TechnologyNode;
use bitline_cpu::{Cpu, CpuConfig, SimStats};
use bitline_energy::EnergyAccountant;
use bitline_exec::{Journal, TraceStore};
use bitline_faults::FaultInjectingPolicy;
use bitline_sim::checkpoint::{decode_run, encode_run, spec_key};
use bitline_sim::{FaultSpec, HierarchySpec, PolicyKind, RunResult, SystemSpec, VddSpec};
use bitline_trace::TraceSource;
use bitline_workloads::suite;

use crate::stats::median;

/// The node every architectural run is built at (cycle counts are
/// node-independent; see `bitline_sim::runner`).
const NODE: TechnologyNode = TechnologyNode::N70;

/// One benchmark stream a workload simulates.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    pub benchmark: &'static str,
    pub seed: u64,
    pub len: u64,
}

/// What a workload feeds its layers.
pub struct Inputs {
    /// Instruction streams, already capped to the layer budget.
    pub streams: Vec<Stream>,
    /// Nodes the workload prices at.
    pub nodes: Vec<TechnologyNode>,
    /// A sample of the workload's run specs.
    pub runs: Vec<(&'static str, SystemSpec)>,
    /// The request lines a client would send for the workload.
    pub request_lines: Vec<String>,
}

/// The three policies every CPU and cache layer row is measured under.
const CPU_POLICIES: [(&str, PolicyKind); 3] = [
    ("static", PolicyKind::StaticPullUp),
    ("gated", PolicyKind::Gated { threshold: 100 }),
    ("gated-predecode", PolicyKind::GatedPredecode { threshold: 100 }),
];

/// An env-free spec: the defaults `bitline-sim` and `bitline-serve` use,
/// spelled out so the benchmark's own environment cannot leak in.
pub fn spec(d_policy: PolicyKind, instructions: u64, seed: u64, vdd: VddSpec) -> SystemSpec {
    SystemSpec {
        d_policy,
        i_policy: d_policy.icache_default(),
        subarray_bytes: 1024,
        instructions,
        seed,
        way_prediction: false,
        faults: FaultSpec {
            rate: 0.0,
            seed: 0xB17F_A017,
            fail_safe: false,
            ecc: false,
            scrub_period: None,
        },
        hierarchy: HierarchySpec::default(),
        vdd,
    }
}

fn l1d() -> CacheConfig {
    CacheConfig::l1_data().with_subarray_bytes(1024)
}

fn l1i() -> CacheConfig {
    CacheConfig::l1_inst().with_subarray_bytes(1024)
}

fn ns_per(d: Duration, n: u64) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

/// The memory system and core configuration a run of `kind` builds, with
/// the D-cache policy optionally wrapped in a [`Recorder`].
fn machine(kind: PolicyKind, record: Option<&Rc<RefCell<Vec<Ev>>>>) -> (MemorySystem, CpuConfig) {
    let mut d = kind.build(&l1d(), NODE, None);
    if let Some(log) = record {
        d = Box::new(Recorder { inner: d, log: Rc::clone(log) });
    }
    let i = kind.icache_default().build(&l1i(), NODE, None);
    let cfg = MemorySystemConfig { l1d: l1d(), l1i: l1i(), ..MemorySystemConfig::default() };
    let cpu = CpuConfig { predecode_hints: kind.wants_predecode(), ..CpuConfig::default() };
    (MemorySystem::new(cfg, d, i), cpu)
}

/// One D-cache policy call, as the cache made it.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Access {
        sub: u32,
        cycle: u64,
    },
    Predicted {
        sub: u32,
        predicted: u32,
        cycle: u64,
    },
    Hint {
        sub: u32,
        cycle: u64,
    },
    /// `observe_outcome`, after which the cache polls `take_fault` and
    /// `resize_request`.
    Outcome(bool),
}

/// Forwards every call to `inner`, logging the call stream.
struct Recorder {
    inner: Box<dyn PrechargePolicy>,
    log: Rc<RefCell<Vec<Ev>>>,
}

impl PrechargePolicy for Recorder {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn access(&mut self, sub: usize, cycle: u64) -> u32 {
        self.log.borrow_mut().push(Ev::Access { sub: sub as u32, cycle });
        self.inner.access(sub, cycle)
    }
    fn access_with_prediction(&mut self, sub: usize, predicted: usize, cycle: u64) -> u32 {
        let ev = Ev::Predicted { sub: sub as u32, predicted: predicted as u32, cycle };
        self.log.borrow_mut().push(ev);
        self.inner.access_with_prediction(sub, predicted, cycle)
    }
    fn hint(&mut self, sub: usize, cycle: u64) {
        self.log.borrow_mut().push(Ev::Hint { sub: sub as u32, cycle });
        self.inner.hint(sub, cycle);
    }
    fn observe_outcome(&mut self, hit: bool) {
        self.log.borrow_mut().push(Ev::Outcome(hit));
        self.inner.observe_outcome(hit);
    }
    fn resize_request(&mut self) -> Option<ResizeRequest> {
        self.inner.resize_request()
    }
    fn take_fault(&mut self) -> Option<FaultEvent> {
        self.inner.take_fault()
    }
    fn notify_resize(&mut self, active: usize, fraction: f64, cycle: u64) {
        self.inner.notify_resize(active, fraction, cycle);
    }
    fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
        self.inner.finalize(end_cycle)
    }
}

/// Replays a captured call stream into `policy`; returns the time taken.
fn replay(policy: &mut dyn PrechargePolicy, events: &[Ev]) -> Duration {
    let t = Instant::now();
    let mut extra = 0u64;
    for ev in events {
        match *ev {
            Ev::Access { sub, cycle } => extra += u64::from(policy.access(sub as usize, cycle)),
            Ev::Predicted { sub, predicted, cycle } => {
                extra += u64::from(policy.access_with_prediction(
                    sub as usize,
                    predicted as usize,
                    cycle,
                ));
            }
            Ev::Hint { sub, cycle } => policy.hint(sub as usize, cycle),
            Ev::Outcome(hit) => {
                policy.observe_outcome(hit);
                black_box(policy.take_fault());
                black_box(policy.resize_request());
            }
        }
    }
    black_box(extra);
    t.elapsed()
}

fn accesses(events: &[Ev]) -> u64 {
    events.iter().filter(|e| matches!(e, Ev::Access { .. } | Ev::Predicted { .. })).count() as u64
}

/// The trace's own memory references, for the cache replay.
struct Refs {
    /// `(instruction index, addr, base register, is_store)`.
    data: Vec<(u64, u64, u64, bool)>,
    /// `(instruction index, pc)` at each change of I-cache line.
    fetch: Vec<(u64, u64)>,
}

fn refs(store: &TraceStore, s: &Stream) -> Refs {
    let mut cursor = store.cursor(s.benchmark, s.seed).expect("suite benchmark");
    let line_bytes = l1i().line_bytes as u64;
    let (mut data, mut fetch, mut line) = (Vec::new(), Vec::new(), u64::MAX);
    for idx in 0..s.len {
        let instr = cursor.next_instr();
        if instr.pc / line_bytes != line {
            line = instr.pc / line_bytes;
            fetch.push((idx, instr.pc));
        }
        if let Some(m) = instr.mem {
            data.push((idx, m.addr, m.base, instr.kind == bitline_trace::InstrKind::Store));
        }
    }
    Refs { data, fetch }
}

/// Per-policy totals of the CPU layer.
#[derive(Default, Clone, Copy)]
struct CpuTotals {
    time: Duration,
    committed: u64,
    cycles: u64,
    replays: u64,
}

fn add(t: &mut CpuTotals, d: Duration, s: &SimStats) {
    t.time += d;
    t.committed += s.committed;
    t.cycles += s.cycles;
    t.replays += s.replays;
}

/// Measures every layer over `inputs` once, then again while another
/// repetition fits before `deadline`, and keeps each metric's median over
/// the repetitions; `dir` holds the scratch journal.
pub fn measure_until(
    inputs: &Inputs,
    dir: &Path,
    deadline: Instant,
) -> BTreeMap<&'static str, f64> {
    let started = Instant::now();
    let mut reps = vec![measure(inputs, dir)];
    let per_rep = started.elapsed();
    while Instant::now() + per_rep < deadline {
        reps.push(measure(inputs, dir));
    }
    let median_of = |k| median(&reps.iter().map(|r| r[k]).collect::<Vec<_>>());
    reps[0].keys().map(|&k| (k, median_of(k).expect("at least one repetition"))).collect()
}

/// Measures every layer over `inputs` once.
fn measure(inputs: &Inputs, dir: &Path) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let streams = &inputs.streams;
    let total: u64 = streams.iter().map(|s| s.len).sum();

    // workloads: the bare generator.
    let t = Instant::now();
    for s in streams {
        let mut g = suite::by_name(s.benchmark).expect("suite benchmark").build(s.seed);
        for _ in 0..s.len {
            black_box(g.next_instr());
        }
    }
    out.insert("workloads.gen_ns_per_instr", ns_per(t.elapsed(), total));

    // traces: cold materialisation, then warm decode of the same store.
    let store = TraceStore::new();
    let drain = |store: &TraceStore| {
        let t = Instant::now();
        for s in streams {
            let mut c = store.cursor(s.benchmark, s.seed).expect("suite benchmark");
            for _ in 0..s.len {
                black_box(c.next_instr());
            }
        }
        t.elapsed()
    };
    out.insert("traces.materialise_ns_per_instr", ns_per(drain(&store), total));
    let decode_ns = ns_per(drain(&store), total);
    out.insert("traces.replay_ns_per_instr", decode_ns);
    let st = store.stats();
    out.insert("traces.bytes_per_instr", st.bytes as f64 / st.instructions.max(1) as f64);

    // cpu: Cpu::run over warm cursors, per policy and stream.
    let mut cpu: BTreeMap<&str, (CpuTotals, Vec<f64>)> = BTreeMap::new();
    for (label, kind) in CPU_POLICIES {
        let (mut totals, mut cpis) = (CpuTotals::default(), Vec::new());
        for s in streams {
            let (mem, cfg) = machine(kind, None);
            let mut core = Cpu::new(cfg, mem);
            let mut cursor = store.cursor(s.benchmark, s.seed).expect("suite benchmark");
            let t = Instant::now();
            let stats = core.run(&mut cursor, s.len);
            add(&mut totals, t.elapsed(), &stats);
            cpis.push(stats.cycles as f64 / stats.committed.max(1) as f64);
        }
        out.insert(cpu_key(label), ns_per(totals.time, totals.committed));
        cpu.insert(label, (totals, cpis));
    }
    let all = cpu.values().fold(CpuTotals::default(), |mut a, (t, _)| {
        a.cycles += t.cycles;
        a.committed += t.committed;
        a.replays += t.replays;
        a
    });
    out.insert("cpu.cpi", all.cycles as f64 / all.committed.max(1) as f64);
    out.insert("cpu.replays_per_kinstr", 1000.0 * all.replays as f64 / all.committed.max(1) as f64);

    // cache: the trace's own addresses at cycle = index × that run's CPI.
    let refs: Vec<Refs> = streams.iter().map(|s| refs(&store, s)).collect();
    let mut cache_ns_per_instr = BTreeMap::new();
    let mut i_time_gated = Duration::ZERO;
    for (label, kind) in CPU_POLICIES {
        let cpis = &cpu[label].1;
        let (mut d_time, mut i_time) = (Duration::ZERO, Duration::ZERO);
        let (mut d_n, mut i_n, mut misses, mut delayed) = (0u64, 0u64, 0u64, 0u64);
        for (r, &cpi) in refs.iter().zip(cpis) {
            let at = |idx: u64| (idx as f64 * cpi) as u64;
            let data: Vec<_> = r.data.iter().map(|&(i, a, b, st)| (at(i), a, b, st)).collect();
            let (mut mem, _) = machine(kind, None);
            let predecode = kind.wants_predecode();
            let t = Instant::now();
            for &(cycle, addr, base, store) in &data {
                let o = if predecode {
                    mem.data_access_predicted(addr, Some(base), store, cycle)
                } else {
                    mem.data_access(addr, store, cycle)
                };
                misses += u64::from(!o.l1_hit);
                delayed += u64::from(o.delayed);
            }
            d_time += t.elapsed();
            d_n += data.len() as u64;
            if label != "gated-predecode" {
                // The predecode I-cache runs plain gating: same as `gated`.
                let fetch: Vec<_> = r.fetch.iter().map(|&(i, pc)| (at(i), pc)).collect();
                let (mut mem, _) = machine(kind, None);
                let t = Instant::now();
                for &(cycle, pc) in &fetch {
                    black_box(mem.inst_fetch(pc, cycle));
                }
                i_time += t.elapsed();
                i_n += fetch.len() as u64;
            }
        }
        out.insert(l1d_key(label), ns_per(d_time, d_n));
        match label {
            "static" => {
                out.insert("cache.l1d_miss_ratio", misses as f64 / d_n.max(1) as f64);
                out.insert("cache.l1i_ns_per_fetch.static", ns_per(i_time, i_n));
            }
            "gated" => {
                out.insert("cache.l1i_ns_per_fetch.gated", ns_per(i_time, i_n));
                i_time_gated = i_time;
            }
            _ => {
                out.insert("cache.delayed_fraction", delayed as f64 / d_n.max(1) as f64);
                i_time = i_time_gated;
            }
        }
        cache_ns_per_instr.insert(label, ns_per(d_time + i_time, total));
    }
    let self_ns: Vec<f64> = CPU_POLICIES
        .iter()
        .map(|(label, _)| out[cpu_key(label)] - decode_ns - cache_ns_per_instr[label])
        .collect();
    out.insert("cpu.self_ns_per_instr", self_ns.iter().sum::<f64>() / self_ns.len() as f64);

    policy_layer(&store, streams, &mut out);
    energy_and_codec_layers(inputs, dir, &mut out);
    out
}

fn cpu_key(label: &str) -> &'static str {
    match label {
        "static" => "cpu.ns_per_instr.static",
        "gated" => "cpu.ns_per_instr.gated",
        _ => "cpu.ns_per_instr.gated-predecode",
    }
}

fn l1d_key(label: &str) -> &'static str {
    match label {
        "static" => "cache.l1d_ns_per_access.static",
        "gated" => "cache.l1d_ns_per_access.gated",
        _ => "cache.l1d_ns_per_access.gated-predecode",
    }
}

/// The policy rows: each policy's captured stream replayed into a fresh
/// instance; the gated stream also behind the Vdd decorator, static and
/// governed, at the voltage table's deepest rung.
fn policy_layer(store: &TraceStore, streams: &[Stream], out: &mut BTreeMap<&'static str, f64>) {
    let policies = [
        ("static", PolicyKind::StaticPullUp),
        ("gated", PolicyKind::Gated { threshold: 100 }),
        ("gated-predecode", PolicyKind::GatedPredecode { threshold: 100 }),
        ("oracle", PolicyKind::Oracle),
    ];
    let (mut vdd_time, mut gov_time) = (Duration::ZERO, Duration::ZERO);
    let (mut replays, mut escalations, mut gated_time) = (0u64, 0u64, Duration::ZERO);
    let mut gated_n = 0u64;
    for (label, kind) in policies {
        let (mut time, mut n, mut precharges) = (Duration::ZERO, 0u64, 0u64);
        for s in streams {
            let log = Rc::new(RefCell::new(Vec::new()));
            let (mem, cfg) = machine(kind, Some(&log));
            let mut core = Cpu::new(cfg, mem);
            let mut cursor = store.cursor(s.benchmark, s.seed).expect("suite benchmark");
            let end = core.run(&mut cursor, s.len).cycles;
            drop(core);
            let events = Rc::try_unwrap(log).expect("the core is gone").into_inner();
            let mut fresh = kind.build(&l1d(), NODE, None);
            time += replay(fresh.as_mut(), &events);
            precharges += fresh.finalize(end).total_precharge_events();
            n += accesses(&events);
            if label == "gated" {
                for governor in [false, true] {
                    let mut decorated = vdd_decorated(kind, governor);
                    let d = replay(&mut decorated, &events);
                    let report = decorated.vdd_report().expect("a speculating ladder is armed");
                    if governor {
                        gov_time += d;
                        escalations += report.escalations();
                    } else {
                        vdd_time += d;
                        replays += report.replays;
                    }
                }
            }
        }
        if label == "gated" {
            gated_time = time;
            gated_n = n;
        }
        out.insert(policy_key(label, false), ns_per(time, n));
        out.insert(policy_key(label, true), 1000.0 * precharges as f64 / n.max(1) as f64);
    }
    out.insert("faults.ns_per_access.vdd-static", ns_per(vdd_time, gated_n));
    out.insert("faults.ns_per_access.vdd-governor", ns_per(gov_time, gated_n));
    out.insert(
        "faults.overhead_ratio",
        vdd_time.as_secs_f64() / gated_time.as_secs_f64().max(1e-12),
    );
    out.insert("faults.replays_per_kaccess", 1000.0 * replays as f64 / gated_n.max(1) as f64);
    out.insert("vdd.escalations", escalations as f64);
}

fn policy_key(label: &str, precharges: bool) -> &'static str {
    match (label, precharges) {
        ("static", false) => "policy.ns_per_access.static",
        ("gated", false) => "policy.ns_per_access.gated",
        ("gated-predecode", false) => "policy.ns_per_access.gated-predecode",
        (_, false) => "policy.ns_per_access.oracle",
        ("static", true) => "policy.precharges_per_kaccess.static",
        ("gated", true) => "policy.precharges_per_kaccess.gated",
        ("gated-predecode", true) => "policy.precharges_per_kaccess.gated-predecode",
        (_, true) => "policy.precharges_per_kaccess.oracle",
    }
}

/// `kind` behind the fault decorator with timing speculation at 0.8 of
/// nominal Vdd, built the way `bitline_sim` arms it for a `--vdd 0.8` run.
fn vdd_decorated(kind: PolicyKind, governor: bool) -> FaultInjectingPolicy {
    let cfg = l1d();
    let s = spec(kind, 1, 0, VddSpec { scale: 0.8, governor });
    let penalty = DecoderModel::new(NODE, cfg.geometry()).cold_access_penalty_cycles();
    let ladder = s.vdd.to_config(NODE).expect("0.8 of nominal speculates");
    FaultInjectingPolicy::new(
        kind.build(&cfg, NODE, None),
        s.faults.to_config(penalty, 0, s.subarray_words()),
        cfg.subarrays(),
    )
    .with_vdd(ladder)
}

/// Repetitions of each sub-microsecond call, so one timing spans many calls.
const REPS: u32 = 50;

fn energy_and_codec_layers(inputs: &Inputs, dir: &Path, out: &mut BTreeMap<&'static str, f64>) {
    // energy: accountant construction per cache, then warm pricing.
    let mut builds = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for &node in &inputs.nodes {
            black_box(EnergyAccountant::new(node, l1d()));
            black_box(EnergyAccountant::new(node, l1i()));
        }
        builds.push(t.elapsed().as_secs_f64() * 1e3 / (2 * inputs.nodes.len()) as f64);
    }
    out.insert("energy.accountant_build_ms", median(&builds).unwrap_or(0.0));
    let runs: Vec<RunResult> = inputs
        .runs
        .iter()
        .map(|(b, s)| bitline_sim::try_run_benchmark(b, s).expect("sample spec runs"))
        .collect();
    for run in &runs {
        for &node in &inputs.nodes {
            black_box(run.energy(node));
        }
    }
    let t = Instant::now();
    for _ in 0..REPS {
        for run in &runs {
            for &node in &inputs.nodes {
                black_box(run.energy(node));
            }
        }
    }
    let calls = u64::from(REPS) * (runs.len() * inputs.nodes.len()) as u64;
    out.insert("energy.price_us_per_call", ns_per(t.elapsed(), calls) / 1e3);

    // checkpoint: the run codec and the spec key.
    let frames: Vec<Vec<u8>> = runs.iter().map(encode_run).collect();
    let n = u64::from(REPS) * runs.len() as u64;
    let t = Instant::now();
    for _ in 0..REPS {
        for run in &runs {
            black_box(encode_run(run));
        }
    }
    out.insert("checkpoint.encode_us_per_run", ns_per(t.elapsed(), n) / 1e3);
    let t = Instant::now();
    for _ in 0..REPS {
        for f in &frames {
            black_box(decode_run(f).expect("frames round-trip"));
        }
    }
    out.insert("checkpoint.decode_us_per_run", ns_per(t.elapsed(), n) / 1e3);
    let bytes: usize = frames.iter().map(Vec::len).sum();
    out.insert("checkpoint.bytes_per_run", bytes as f64 / frames.len().max(1) as f64);
    let t = Instant::now();
    for _ in 0..REPS {
        for (b, s) in &inputs.runs {
            black_box(spec_key(b, s));
        }
    }
    out.insert("checkpoint.spec_key_us", ns_per(t.elapsed(), n) / 1e3);

    // journal: fsync'd appends of a warm set's worth of frames, then the
    // open-and-verify a restarting daemon pays.
    let jdir = dir.join("layer-journal");
    let mut journal = Journal::open_fresh(&jdir).expect("scratch journal opens");
    let t = Instant::now();
    for i in 0..JOURNAL_FRAMES {
        let (b, s) = &inputs.runs[i % runs.len()];
        journal
            .append(&format!("{}#{i}", spec_key(b, s)), &frames[i % frames.len()])
            .expect("append");
    }
    out.insert("journal.append_ms_per_frame", ns_per(t.elapsed(), JOURNAL_FRAMES as u64) / 1e6);
    drop(journal);
    let t = Instant::now();
    let (_, entries, _) = Journal::open(&jdir).expect("scratch journal reopens");
    out.insert("journal.open_ms", t.elapsed().as_secs_f64() * 1e3);
    assert_eq!(entries.len(), JOURNAL_FRAMES, "every appended frame reloads");

    // serve: protocol parsing of the workload's request lines.
    let t = Instant::now();
    for _ in 0..REPS {
        for line in &inputs.request_lines {
            black_box(bitline_serve::parse_request(line).expect("generated lines parse"));
        }
    }
    let n = u64::from(REPS) * inputs.request_lines.len() as u64;
    out.insert("serve.parse_us_per_line", ns_per(t.elapsed(), n) / 1e3);
}

/// Frames per journal measurement: the serve workload's warm set.
const JOURNAL_FRAMES: usize = 64;
