//! The four workloads and how one run of each is measured: end to end
//! (spawning the release binaries, tracing off) or traced (the layer
//! ledger).

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use bitline_cmos::TechnologyNode;
use bitline_exec::backoff::fnv64;
use bitline_obs::Record;
use bitline_sim::{PolicyKind, VddSpec};
use bitline_workloads::suite;

use crate::layers::{self, Inputs, Stream};
use crate::metrics::{na_row, row, Tally};
use crate::proc::{clean_env, Guarded, TempDir};
use crate::serve::{self, Daemon, Req};
use crate::stats::{median, percentile, quartiles, tail_permille};

/// A benchmark workload; see `BENCHMARK.json` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Headline,
    LongGcc,
    Voltage,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Headline, Workload::LongGcc, Workload::Voltage, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Headline => "headline",
            Workload::LongGcc => "long-gcc",
            Workload::Voltage => "voltage",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The D-cache policies of the runs the workload actually simulates,
    /// which weight the CPU layer in the ledger.
    fn simulated_policies(self) -> &'static [&'static str] {
        match self {
            Workload::Headline => &["static", "gated", "gated-predecode"],
            Workload::LongGcc => &["static", "gated-predecode"],
            Workload::Voltage | Workload::ServeMixed => &["gated"],
        }
    }
}

/// How much work one unit of each workload does. A unit takes well under a
/// second on a 2-core host, so a 20 s run measures dozens of them. The
/// host is shared: identical units run up to 1.8× slower for seconds at a
/// time while neighbours are busy, and that noise only ever adds time.
/// Over the same stretch of host load, the median unit of a 10 s window
/// spread 3–15% between windows, while the fastest unit spread 0.5–7%, so
/// the timing metrics report the fastest of many short units.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Instructions per simulated run of `headline` (244 runs).
    pub headline_instrs: u64,
    /// Instructions of the `long-gcc` stream (simulated twice).
    pub gcc_instrs: u64,
    /// Instructions per simulated run of `voltage` (160 runs).
    pub voltage_instrs: u64,
    /// Instructions per `serve-mixed` spec, warm and cold.
    pub serve_instrs: u64,
    /// Requests per `serve-mixed` session. A multiple of 160, so every
    /// benchmark gets the same number of cold specs and the seed changes
    /// which work a session does but not how much.
    pub serve_requests: usize,
    /// Units measured per run at least, however long they take.
    pub min_units: usize,
    /// Untraced units a traced run compares against.
    pub untraced_units: usize,
    /// Extra daemon restarts per `serve-mixed` run, timed for `setup_s`.
    pub setup_reps: usize,
    /// Instructions each layer replays at most.
    pub layer_instrs: u64,
}

/// The benchmark of record.
pub const FULL: Sizes = Sizes {
    headline_instrs: 5_000,
    gcc_instrs: 800_000,
    voltage_instrs: 8_000,
    serve_instrs: 8_000,
    serve_requests: 320,
    min_units: 5,
    untraced_units: 3,
    setup_reps: 7,
    layer_instrs: 1_000_000,
};

/// `--quick`: every path exercised at toy sizes, for smoke tests.
pub const QUICK: Sizes = Sizes {
    headline_instrs: 2_000,
    gcc_instrs: 20_000,
    voltage_instrs: 2_000,
    serve_instrs: 2_000,
    serve_requests: 160,
    min_units: 1,
    untraced_units: 1,
    setup_reps: 1,
    layer_instrs: 20_000,
};

/// What a CLI workload prints and simulates at the benchmark-of-record
/// sizes: the fnv64 digest of its stdout, and the `sim.runner.cycles`
/// total of its runs, which catches changes the rounded figures hide.
/// `long-gcc`'s are at seed 42; the other two ignore the seed.
#[derive(Debug, Clone, Copy)]
struct Pinned {
    stdout_fnv64: u64,
    cycles: u64,
}

const HEADLINE: Pinned = Pinned { stdout_fnv64: 0xf3ea_159d_b2de_28d2, cycles: 4_647_169 };
const VOLTAGE: Pinned = Pinned { stdout_fnv64: 0x6793_a997_4bfd_0f3b, cycles: 4_443_469 };
const LONG_GCC_SEED42: Pinned = Pinned { stdout_fnv64: 0x249b_30e4_d50b_9b34, cycles: 2_694_047 };

/// fnv64 of the warm set's prefill answers, without their ids, one per
/// line in warm-set order.
const SERVE_WARM_DIGEST: u64 = 0xefb2_c51e_e0d9_48e0;

/// Everything one run needs.
pub struct Ctx {
    pub sim: PathBuf,
    pub serve: PathBuf,
    pub tmp: TempDir,
    pub seed: u64,
    pub seconds: f64,
    pub sizes: Sizes,
    pub quick: bool,
}

/// One finished CLI invocation.
struct Unit {
    wall: Duration,
    max_rss_kib: u64,
    stdout: Vec<u8>,
}

impl Ctx {
    fn cli_command(&self, w: Workload, jobs: u32, metrics: Option<&Path>) -> io::Result<Command> {
        let mut cmd = Command::new(&self.sim);
        clean_env(&mut cmd).args(["--jobs", &jobs.to_string()]);
        match w {
            Workload::Headline => {
                cmd.env("BITLINE_INSTRS", self.sizes.headline_instrs.to_string()).arg("headline");
            }
            Workload::Voltage => {
                cmd.env("BITLINE_INSTRS", self.sizes.voltage_instrs.to_string()).arg("voltage");
            }
            Workload::LongGcc => {
                let (n, seed) = (self.sizes.gcc_instrs.to_string(), self.seed.to_string());
                cmd.args(["-b", "gcc", "-p", "gated-predecode:100", "-i", &n, "--seed", &seed]);
            }
            Workload::ServeMixed => unreachable!("serve-mixed is not a CLI workload"),
        }
        if let Some(path) = metrics {
            cmd.arg("--metrics").arg(path);
        }
        let dir = self.tmp.path();
        cmd.stdin(Stdio::null())
            .stdout(File::create(dir.join("unit.out"))?)
            .stderr(File::create(dir.join("unit.err"))?);
        Ok(cmd)
    }

    /// Runs one CLI unit and checks it: exit 0, no skipped unit of work,
    /// stdout matching `reference` (set from the first unit when unset).
    /// Counts it in `tally`; returns it when it exited 0 with nothing
    /// skipped.
    fn unit(
        &self,
        w: Workload,
        jobs: u32,
        metrics: Option<&Path>,
        reference: &mut Option<u64>,
        tally: &mut Tally,
    ) -> Option<Unit> {
        let run = || -> io::Result<(crate::proc::Exit, Vec<u8>, String)> {
            let exit = Guarded::spawn(&mut self.cli_command(w, jobs, metrics)?)?.reap()?;
            let dir = self.tmp.path();
            Ok((exit, fs::read(dir.join("unit.out"))?, fs::read_to_string(dir.join("unit.err"))?))
        };
        let (exit, stdout, stderr) = match run() {
            Ok(r) => r,
            Err(e) => {
                tally.record(false, || format!("{}: cannot run bitline-sim: {e}", w.name()));
                return None;
            }
        };
        let digest = fnv64(&stdout);
        let expected = *reference.get_or_insert(digest);
        let skipped = stderr.contains("skipped");
        let completed = exit.success() && !skipped;
        tally.record(completed && digest == expected, || {
            format!(
                "{}: exit {:?}, skipped units: {skipped}, stdout digest {digest:016x} \
                 (expected {expected:016x}); stderr: {}",
                w.name(),
                exit.code,
                stderr.trim()
            )
        });
        // A wrong stdout fails the run, but the unit did all its work, so it
        // is still timed.
        completed.then_some(Unit { wall: exit.wall, max_rss_kib: exit.max_rss_kib, stdout })
    }

    fn pinned(&self, w: Workload) -> Option<Pinned> {
        match w {
            _ if self.quick => None,
            Workload::Headline => Some(HEADLINE),
            Workload::Voltage => Some(VOLTAGE),
            Workload::LongGcc if self.seed == 42 => Some(LONG_GCC_SEED42),
            _ => None,
        }
    }

    /// Runs the unit that exports the program's counters, checks its
    /// simulated cycle total against the pinned one, and returns both.
    fn exported_unit(
        &self,
        w: Workload,
        reference: &mut Option<u64>,
        tally: &mut Tally,
    ) -> Option<(Unit, BTreeMap<String, u64>)> {
        let export = self.tmp.path().join("export.jsonl");
        let unit = self.unit(w, 1, Some(&export), reference, tally)?;
        let c = counters(&read_export(&export)?);
        if let Some(p) = self.pinned(w) {
            let cycles = c.get("sim.runner.cycles").copied();
            tally.record(cycles == Some(p.cycles), || {
                format!("{}: simulated {cycles:?} cycles, pinned {}", w.name(), p.cycles)
            });
        }
        Some((unit, c))
    }

    fn deadline(&self, from: Instant) -> Instant {
        from + Duration::from_secs_f64(self.seconds)
    }

    /// A traced run times untraced units until here, and the layers for the
    /// rest of the run.
    fn halfway(&self, from: Instant) -> Instant {
        from + Duration::from_secs_f64(self.seconds / 2.0)
    }
}

/// Counters of a `bitline-obs/v1` export, by name.
fn counters(records: &[Record]) -> BTreeMap<String, u64> {
    records
        .iter()
        .filter_map(|r| match r {
            Record::Counter { name, value } => Some((name.clone(), *value)),
            _ => None,
        })
        .collect()
}

fn read_export(path: &Path) -> Option<Vec<Record>> {
    bitline_obs::parse_jsonl(&fs::read_to_string(path).ok()?).ok()
}

fn count(c: &BTreeMap<String, u64>, name: &str) -> f64 {
    c.get(name).copied().unwrap_or(0) as f64
}

fn distribution(samples: &[f64]) -> String {
    let med = median(samples).unwrap_or(f64::NAN);
    match quartiles(samples) {
        Some((q1, q3)) => format!("median {med:.6}  q1 {q1:.6}  q3 {q3:.6}  n {}", samples.len()),
        None => format!("median {med:.6}  n {}", samples.len()),
    }
}

/// Prints a metric as the median of `samples`, with quartiles and count.
fn median_row(name: &str, samples: &[f64], unit: &str) -> f64 {
    let med = median(samples).unwrap_or(f64::NAN);
    row(name, med, unit, &distribution(samples));
    med
}

/// `wall_s` is the fastest unit of the run (see [`Sizes`] for why) and
/// `sim_mips` the simulated instructions of one unit over it; both print
/// beside the median and quartiles of every unit.
fn timing_metrics(out: &mut BTreeMap<&'static str, f64>, walls: &[f64], committed: f64) {
    let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
    row("wall_s", fastest, "s", &format!("fastest unit; {}", distribution(walls)));
    let mips: Vec<f64> = walls.iter().map(|w| committed / w / 1e6).collect();
    let best = committed / fastest / 1e6;
    row("sim_mips", best, "MIPS", &format!("fastest unit; {}", distribution(&mips)));
    out.insert("wall_s", fastest);
    out.insert("sim_mips", best);
}

/// The end-to-end run of a CLI workload. Each unit is followed by one
/// set-up sample, so both spread over the whole run. Nothing heavy runs in
/// this process before the last child is spawned: a child's peak RSS as
/// `wait4` reports it includes the spawning process's own peak.
pub fn cli_end_to_end(
    ctx: &Ctx,
    w: Workload,
    tally: &mut Tally,
) -> Option<BTreeMap<&'static str, f64>> {
    let mut reference = ctx.pinned(w).map(|p| p.stdout_fnv64);
    // Warm-up unit, exporting metrics for the committed-instruction count;
    // figure output is byte-identical with metrics on or off.
    let (warm, c) = ctx.exported_unit(w, &mut reference, tally)?;
    let committed = count(&c, "sim.runner.committed_instructions");

    let started = Instant::now();
    let (mut walls, mut rss, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    while walls.len() < ctx.sizes.min_units || Instant::now() < ctx.deadline(started) {
        if let Some(u) = ctx.unit(w, 1, None, &mut reference, tally) {
            walls.push(u.wall.as_secs_f64());
            rss.push(u.max_rss_kib as f64 / 1024.0);
        } else if walls.is_empty() && tally.failed > 3 {
            return None;
        }
        match setup_sample(w, ctx.seed, per_stream(&c)) {
            Ok(s) => setups.push(s),
            Err(e) => tally.record(false, || format!("{}: set-up probe: {e}", w.name())),
        }
    }

    if w == Workload::LongGcc && ctx.pinned(w).is_none() {
        cross_check_gcc(ctx, &warm.stdout, tally);
    }
    if w == Workload::Headline {
        model_rows(&String::from_utf8_lossy(&warm.stdout), ctx.sizes.headline_instrs);
    }
    let mut out = BTreeMap::new();
    timing_metrics(&mut out, &walls, committed);
    out.insert("setup_s", median_row("setup_s", &setups, "s"));
    out.insert("peak_rss_mb", median_row("peak_rss_mb", &rss, "MiB"));
    for (name, unit) in [("req_p50_ms", "ms"), ("req_p99_ms", "ms"), ("req_per_s", "1/s")] {
        na_row(name, unit, "serve-mixed only");
    }
    row("committed_instructions", committed, "instr", "per unit, from the warm-up export");
    Some(out)
}

/// Instructions each stream of the traced unit materialised.
fn per_stream(c: &BTreeMap<String, u64>) -> u64 {
    let materialised = c.get("exec.traces.materialised").copied().unwrap_or(0);
    materialised / c.get("exec.traces.streams").copied().unwrap_or(1).max(1)
}

/// The set-up work a CLI unit does lazily: each workload stream's trace
/// materialised up to what the unit consumed, and the energy accountants
/// of every node it prices.
fn setup_plan(w: Workload, seed: u64, per_stream: u64) -> (Vec<Stream>, Vec<TechnologyNode>) {
    let streams = match w {
        Workload::LongGcc => vec![Stream { benchmark: "gcc", seed, len: per_stream }],
        _ => suite::names()
            .into_iter()
            .map(|benchmark| Stream { benchmark, seed: 42, len: per_stream })
            .collect(),
    };
    let nodes = match w {
        Workload::Voltage => TechnologyNode::ALL.to_vec(),
        _ => vec![TechnologyNode::N70],
    };
    (streams, nodes)
}

/// One set-up sample, timed inside a fresh `bitline-perf setup-probe`
/// process so the work never inflates this process's peak RSS.
fn setup_sample(w: Workload, seed: u64, per_stream: u64) -> io::Result<f64> {
    let out = Command::new(std::env::current_exe()?)
        .args(["setup-probe", w.name(), &seed.to_string(), &per_stream.to_string()])
        .stderr(Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(s) if out.status.success() => Ok(s),
        _ => Err(io::Error::other(format!("probe said {text:?} ({})", out.status))),
    }
}

/// `bitline-perf setup-probe WORKLOAD SEED PER_STREAM`: times one cold
/// set-up in this process and prints the seconds it took.
pub fn setup_probe(args: &[String]) -> std::process::ExitCode {
    let parsed = match args {
        [w, seed, len] => Workload::parse(w).zip(seed.parse().ok()).zip(len.parse().ok()),
        _ => None,
    };
    let Some(((w, seed), len)) = parsed else {
        eprintln!("usage: bitline-perf setup-probe WORKLOAD SEED PER_STREAM");
        return std::process::ExitCode::from(2);
    };
    let (streams, nodes) = setup_plan(w, seed, len);
    println!("{}", cli_setup(&streams, &nodes));
    std::process::ExitCode::SUCCESS
}

fn cli_setup(streams: &[Stream], nodes: &[TechnologyNode]) -> f64 {
    use bitline_trace::TraceSource;
    let t = Instant::now();
    let store = bitline_exec::TraceStore::new();
    for s in streams {
        let mut cursor = store.cursor(s.benchmark, s.seed).expect("suite benchmark");
        for _ in 0..s.len {
            std::hint::black_box(cursor.next_instr());
        }
    }
    for &node in nodes {
        std::hint::black_box(bitline_energy::EnergyAccountant::new(node, l1(true)));
        std::hint::black_box(bitline_energy::EnergyAccountant::new(node, l1(false)));
    }
    t.elapsed().as_secs_f64()
}

fn l1(data: bool) -> bitline_cache::CacheConfig {
    let cfg = if data {
        bitline_cache::CacheConfig::l1_data()
    } else {
        bitline_cache::CacheConfig::l1_inst()
    };
    cfg.with_subarray_bytes(1024)
}

/// Off the pinned seed, `long-gcc`'s printed cycle count must equal the
/// library's own simulation of the same spec.
fn cross_check_gcc(ctx: &Ctx, stdout: &[u8], tally: &mut Tally) {
    let spec = layers::spec(
        PolicyKind::GatedPredecode { threshold: 100 },
        ctx.sizes.gcc_instrs,
        ctx.seed,
        VddSpec::nominal(),
    );
    let expected = bitline_sim::try_run_benchmark("gcc", &spec).map(|r| r.cycles()).ok();
    let text = String::from_utf8_lossy(stdout);
    let printed = text
        .split_whitespace()
        .skip_while(|t| *t != "cycles")
        .nth(1)
        .and_then(|t| t.parse::<u64>().ok());
    tally.record(expected.is_some() && printed == expected, || {
        format!("long-gcc: printed cycles {printed:?}, library simulates {expected:?}")
    });
}

/// The headline's model-accuracy context beside the paper's values;
/// reported only, never a regression metric.
fn model_rows(stdout: &str, instrs: u64) {
    let rows = [
        ("discharge reduction", "discharge_reduction", [83.0, 87.0]),
        ("overall reduction", "overall_reduction", [42.0, 36.0]),
        ("slowdown", "slowdown", [1.0, 1.0]),
    ];
    for line in stdout.lines().map(str::trim) {
        for (prefix, field, paper) in rows {
            let Some(rest) = line.strip_prefix(prefix) else { continue };
            let tokens: Vec<&str> = rest.split_whitespace().collect();
            for (cache, want) in ["D", "I"].into_iter().zip(paper) {
                let value = tokens
                    .iter()
                    .position(|t| *t == cache)
                    .and_then(|i| tokens.get(i + 1))
                    .and_then(|t| t.trim_end_matches('%').parse::<f64>().ok());
                if let Some(v) = value {
                    let name = format!("model.{}_{field}", cache.to_lowercase());
                    row(&name, v, "%", &format!("paper {want}%; {instrs} instructions/run"));
                }
            }
        }
    }
}

/// The traced run of a CLI workload.
pub fn cli_layers(
    ctx: &Ctx,
    w: Workload,
    tally: &mut Tally,
) -> Option<BTreeMap<&'static str, f64>> {
    let mut reference = ctx.pinned(w).map(|p| p.stdout_fnv64);
    let (traced, c) = ctx.exported_unit(w, &mut reference, tally)?;
    let started = Instant::now();
    let mut untraced = Vec::new();
    while untraced.len() < ctx.sizes.untraced_units || Instant::now() < ctx.halfway(started) {
        match ctx.unit(w, 1, None, &mut reference, tally) {
            Some(u) => untraced.push(u.wall.as_secs_f64()),
            None if untraced.is_empty() && tally.failed > 3 => return None,
            None => {}
        }
    }
    let untraced = median(&untraced)?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if nproc >= 2 {
        if let Some(u) = ctx.unit(w, 2, None, &mut reference, tally) {
            let detail = format!("jobs=1 / jobs=2 wall, nproc {nproc}; informational");
            row("pool.speedup_jobs2", untraced / u.wall.as_secs_f64(), "ratio", &detail);
        }
    } else {
        na_row("pool.speedup_jobs2", "ratio", &format!("nproc {nproc}"));
    }

    let (streams, nodes) = setup_plan(w, ctx.seed, per_stream(&c));
    let instrs = match w {
        Workload::Headline => ctx.sizes.headline_instrs,
        Workload::Voltage => ctx.sizes.voltage_instrs,
        _ => ctx.sizes.gcc_instrs,
    };
    let inputs = cli_inputs(ctx, w, streams, nodes, instrs);
    let mut values = layers::measure_until(&inputs, ctx.tmp.path(), ctx.deadline(started));
    sim_counters(&mut values, &c, traced.wall.as_secs_f64());
    ledger(&mut values, &c, w, traced.wall.as_secs_f64(), untraced, 0.0);
    Some(values)
}

/// Caps the streams to the layer budget and samples the workload's runs
/// and request lines.
fn cli_inputs(
    ctx: &Ctx,
    w: Workload,
    streams: Vec<Stream>,
    nodes: Vec<TechnologyNode>,
    instrs: u64,
) -> Inputs {
    let streams = capped(streams, ctx.sizes.layer_instrs);
    let sample = instrs.min(20_000);
    let nominal = VddSpec::nominal();
    let gated = PolicyKind::Gated { threshold: 100 };
    let predecode = PolicyKind::GatedPredecode { threshold: 100 };
    let names = suite::names();
    let runs: Vec<(&'static str, bitline_sim::SystemSpec)> = match w {
        Workload::LongGcc => [PolicyKind::StaticPullUp, predecode]
            .into_iter()
            .map(|p| ("gcc", layers::spec(p, sample, ctx.seed, nominal)))
            .collect(),
        Workload::Voltage => names[..4]
            .iter()
            .flat_map(|&b| {
                [
                    nominal,
                    VddSpec { scale: 0.8, governor: false },
                    VddSpec { scale: 0.8, governor: true },
                ]
                .map(|vdd| (b, layers::spec(gated, sample, 42, vdd)))
            })
            .collect(),
        _ => names[..4]
            .iter()
            .flat_map(|&b| {
                [PolicyKind::StaticPullUp, predecode]
                    .map(|p| (b, layers::spec(p, sample, 42, nominal)))
            })
            .collect(),
    };
    let request_lines = runs
        .iter()
        .enumerate()
        .map(|(i, (b, s))| {
            serve::request_line(&format!("r{i}"), b, &policy_arg(s.d_policy), instrs)
        })
        .collect();
    Inputs { streams, nodes, runs, request_lines }
}

fn policy_arg(p: PolicyKind) -> String {
    match p {
        PolicyKind::Gated { threshold } => format!("gated:{threshold}"),
        PolicyKind::GatedPredecode { threshold } => format!("gated-predecode:{threshold}"),
        other => other.label().to_owned(),
    }
}

fn capped(streams: Vec<Stream>, budget: u64) -> Vec<Stream> {
    let per = budget / streams.len().max(1) as u64;
    streams.into_iter().map(|s| Stream { len: s.len.min(per), ..s }).collect()
}

/// The program's own counters for the traced span.
fn sim_counters(
    values: &mut BTreeMap<&'static str, f64>,
    c: &BTreeMap<String, u64>,
    traced_wall: f64,
) {
    let (hits, misses) = (count(c, "sim.run_cache.hits"), count(c, "sim.run_cache.misses"));
    values.insert("sim.runs", count(c, "sim.runner.runs"));
    values.insert("sim.run_cache.hit_ratio", hits / (hits + misses).max(1.0));
    values.insert("sim.busy_share", count(c, "sim.runner.busy_micros") / (traced_wall * 1e6));
    values.insert("energy.pricing_calls", pricing_calls(c));
}

fn pricing_calls(c: &BTreeMap<String, u64>) -> f64 {
    [
        "sim.accountants.hits",
        "sim.accountants.misses",
        "sim.level_accountants.hits",
        "sim.level_accountants.misses",
    ]
    .iter()
    .map(|k| count(c, k))
    .sum()
}

/// The ledger: the traced span's time attributed to layers by their
/// measured per-unit cost times the span's own unit counts, and the
/// unattributed residual. `extra_s` is time already attributed elsewhere
/// (the serve-only layers).
fn ledger(
    values: &mut BTreeMap<&'static str, f64>,
    c: &BTreeMap<String, u64>,
    w: Workload,
    traced_wall: f64,
    untraced_wall: f64,
    extra_s: f64,
) {
    let policies = w.simulated_policies();
    let sim_ns =
        policies.iter().map(|p| values[format!("cpu.ns_per_instr.{p}").as_str()]).sum::<f64>()
            / policies.len() as f64;
    // A cold cursor drain decodes too; materialisation alone is the rest.
    let materialise_ns =
        values["traces.materialise_ns_per_instr"] - values["traces.replay_ns_per_instr"];
    let attributed = count(c, "exec.traces.materialised") * materialise_ns * 1e-9
        + count(c, "sim.runner.committed_instructions") * sim_ns * 1e-9
        + pricing_calls(c) * values["energy.price_us_per_call"] * 1e-6
        + 2.0 * count(c, "sim.accountants.misses") * values["energy.accountant_build_ms"] * 1e-3
        + extra_s;
    values.insert("ledger.attributed_s", attributed);
    values.insert("ledger.residual_s", traced_wall - attributed);
    values.insert("trace.overhead_s", traced_wall - untraced_wall);
    row("ledger.traced_wall_s", traced_wall, "s", "traced whole-workload span");
    row("ledger.untraced_wall_s", untraced_wall, "s", "median of untraced units");
}

// ---------------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------------

/// The warm journal every session restarts from, and each warm spec's
/// answer as the prefill daemon gave it.
struct Prefill {
    checkpoint: PathBuf,
    payloads: HashMap<(&'static str, String), String>,
}

fn prefill(ctx: &Ctx, tally: &mut Tally) -> Option<Prefill> {
    let checkpoint = ctx.tmp.path().join("prefill");
    let daemon = match Daemon::start(&ctx.serve, ctx.tmp.path(), &checkpoint) {
        Ok(d) => d,
        Err(e) => {
            tally.record(false, || format!("serve-mixed: prefill daemon: {e}"));
            return None;
        }
    };
    let (mut payloads, mut all) = (HashMap::new(), String::new());
    let mut conn = daemon.connect().ok()?;
    for req in serve::warm_set() {
        let reply = conn.call(&req.line(ctx.sizes.serve_instrs)).ok();
        let payload = reply.as_deref().filter(|l| serve::is_ok(l)).and_then(serve::payload);
        tally.record(payload.is_some(), || format!("serve-mixed: prefill {req:?}: {reply:?}"));
        all.push_str(payload?);
        all.push('\n');
        payloads.insert((req.benchmark, req.policy.clone()), payload?.to_owned());
    }
    drop(conn);
    stop(daemon, tally);
    if !ctx.quick {
        let digest = fnv64(all.as_bytes());
        tally.record(digest == SERVE_WARM_DIGEST, || {
            format!("serve-mixed: warm rows digest {digest:016x}, pinned {SERVE_WARM_DIGEST:016x}")
        });
    }
    Some(Prefill { checkpoint, payloads })
}

fn stop(daemon: Daemon, tally: &mut Tally) -> Option<crate::proc::Exit> {
    let exit = daemon.stop();
    let ok = exit.as_ref().is_ok_and(crate::proc::Exit::success);
    tally.record(ok, || format!("serve-mixed: daemon did not drain cleanly: {exit:?}"));
    exit.ok()
}

/// One timed session's results.
struct Session {
    ready_after: f64,
    wall: f64,
    max_rss_kib: u64,
    /// `(cold, latency in ms)` per answered request.
    latencies: Vec<(bool, f64)>,
    cold_committed: u64,
    stats: HashMap<String, u64>,
    export: Option<Vec<Record>>,
}

/// Restarts the daemon on a copy of the warm journal and sends the mix.
/// Warm answers must be byte-identical to the prefill's; cold answers to
/// the first session's.
fn session(
    ctx: &Ctx,
    prefill: &Prefill,
    reqs: &[Req],
    cold_answers: &mut HashMap<(&'static str, String), String>,
    export: bool,
    tally: &mut Tally,
) -> Option<Session> {
    let checkpoint = ctx.tmp.path().join("session");
    if let Err(e) = serve::copy_checkpoint(&prefill.checkpoint, &checkpoint) {
        tally.record(false, || format!("serve-mixed: copying the warm journal: {e}"));
        return None;
    }
    let daemon = match Daemon::start(&ctx.serve, ctx.tmp.path(), &checkpoint) {
        Ok(d) => d,
        Err(e) => {
            tally.record(false, || format!("serve-mixed: daemon: {e}"));
            return None;
        }
    };
    let (answers, wall) = serve::drive(&daemon, reqs, ctx.sizes.serve_instrs);
    let stats = serve::stats(&daemon).unwrap_or_default();
    let export = if export { serve::metrics_export(&daemon).ok() } else { None };
    let ready_after = daemon.ready_after.as_secs_f64();
    let exit = stop(daemon, tally)?;
    let (mut latencies, mut cold_committed) = (Vec::new(), 0);
    for (req, answer) in reqs.iter().zip(&answers) {
        let line = answer.line.as_deref().filter(|l| serve::is_ok(l));
        let got = line.and_then(serve::payload);
        let key = (req.benchmark, req.policy.clone());
        let expected = if req.cold {
            got.map(|g| cold_answers.entry(key).or_insert_with(|| g.to_owned()).clone())
        } else {
            prefill.payloads.get(&key).cloned()
        };
        let ok = got.is_some() && got == expected.as_deref();
        tally.record(ok, || format!("serve-mixed: {req:?} answered {:?}", answer.line));
        if ok {
            latencies.push((req.cold, answer.latency.as_secs_f64() * 1e3));
            if req.cold {
                cold_committed += line.and_then(serve::committed).unwrap_or(0);
            }
        }
    }
    Some(Session {
        ready_after,
        wall: wall.as_secs_f64(),
        max_rss_kib: exit.max_rss_kib,
        latencies,
        cold_committed,
        stats,
        export,
    })
}

/// Prints the serve-only request metrics: latency percentiles with their
/// sample count, throughput, and the daemon's own counters.
fn request_rows(sessions: &[Session], requests: usize) {
    let all: Vec<f64> = sessions.iter().flat_map(|s| s.latencies.iter().map(|l| l.1)).collect();
    let pick = |cold: bool| -> Vec<f64> {
        sessions
            .iter()
            .flat_map(|s| s.latencies.iter().filter(|l| l.0 == cold).map(|l| l.1))
            .collect()
    };
    let n = all.len();
    let tail =
        tail_permille(n).map_or("none".to_owned(), |pm| format!("p{}", f64::from(pm) / 10.0));
    row("req_p50_ms", percentile(&all, 500).unwrap_or(0.0), "ms", &format!("n {n}"));
    row(
        "req_p99_ms",
        percentile(&all, 990).unwrap_or(0.0),
        "ms",
        &format!("n {n}; highest percentile with 10 samples beyond: {tail}"),
    );
    let walls: Vec<f64> = sessions.iter().map(|s| s.wall).collect();
    row("req_per_s", requests as f64 / median(&walls).unwrap_or(f64::NAN), "1/s", "per session");
    for (name, xs) in [("serve.warm_p50_ms", pick(false)), ("serve.cold_p50_ms", pick(true))] {
        row(name, percentile(&xs, 500).unwrap_or(0.0), "ms", &format!("n {}", xs.len()));
    }
    if let Some(last) = sessions.last() {
        let s = |k: &str| last.stats.get(k).copied().unwrap_or(0) as f64;
        row("serve.dedup_ratio", s("deduped") / s("accepted").max(1.0), "ratio", "last session");
        for k in ["replayed", "recomputed", "appended"] {
            row(&format!("serve.{k}"), s(k), "count", "last session");
        }
    }
}

/// The end-to-end run of `serve-mixed`.
pub fn serve_end_to_end(ctx: &Ctx, tally: &mut Tally) -> Option<BTreeMap<&'static str, f64>> {
    let prefill = prefill(ctx, tally)?;
    let mut ready = Vec::new();
    for _ in 0..ctx.sizes.setup_reps {
        match Daemon::start(&ctx.serve, ctx.tmp.path(), &prefill.checkpoint) {
            Ok(d) => {
                ready.push(d.ready_after.as_secs_f64());
                stop(d, tally);
            }
            Err(e) => tally.record(false, || format!("serve-mixed: restart: {e}")),
        }
    }
    let reqs = serve::generate(ctx.seed, ctx.sizes.serve_requests);
    let mut cold_answers = HashMap::new();
    let mut sessions = Vec::new();
    let started = Instant::now();
    while sessions.len() < ctx.sizes.min_units || Instant::now() < ctx.deadline(started) {
        match session(ctx, &prefill, &reqs, &mut cold_answers, false, tally) {
            Some(s) => sessions.push(s),
            None if sessions.is_empty() && tally.failed > 3 => return None,
            None => {}
        }
    }
    ready.extend(sessions.iter().map(|s| s.ready_after));
    let walls: Vec<f64> = sessions.iter().map(|s| s.wall).collect();
    let rss: Vec<f64> = sessions.iter().map(|s| s.max_rss_kib as f64 / 1024.0).collect();
    let committed = sessions.first()?.cold_committed as f64;
    let mut out = BTreeMap::new();
    timing_metrics(&mut out, &walls, committed);
    out.insert("setup_s", median_row("setup_s", &ready, "s"));
    out.insert("peak_rss_mb", median_row("peak_rss_mb", &rss, "MiB"));
    request_rows(&sessions, reqs.len());
    Some(out)
}

/// The traced run of `serve-mixed`.
pub fn serve_layers(ctx: &Ctx, tally: &mut Tally) -> Option<BTreeMap<&'static str, f64>> {
    let prefill = prefill(ctx, tally)?;
    let reqs = serve::generate(ctx.seed, ctx.sizes.serve_requests);
    let mut cold_answers = HashMap::new();
    let traced = session(ctx, &prefill, &reqs, &mut cold_answers, true, tally)?;
    let records = traced.export.clone()?;
    let c = counters(&records);
    for r in &records {
        if let Record::Histogram { name, snapshot } = r {
            if name.starts_with("serve.") && snapshot.count > 0 {
                let mean = snapshot.sum as f64 / snapshot.count as f64;
                row(name, mean, "us", &format!("mean of {} (daemon histogram)", snapshot.count));
            }
        }
    }
    let started = Instant::now();
    let mut untraced = Vec::new();
    while untraced.len() < ctx.sizes.untraced_units || Instant::now() < ctx.halfway(started) {
        if let Some(s) = session(ctx, &prefill, &reqs, &mut cold_answers, false, tally) {
            untraced.push(s.wall);
        } else if untraced.is_empty() && tally.failed > 3 {
            return None;
        }
    }
    request_rows(std::slice::from_ref(&traced), reqs.len());
    na_row("pool.speedup_jobs2", "ratio", "the daemon runs one worker");

    let (streams, nodes) = setup_plan(Workload::ServeMixed, ctx.seed, per_stream(&c));
    let warm = serve::warm_set();
    let sample = ctx.sizes.serve_instrs.min(20_000);
    let inputs = Inputs {
        streams: capped(streams, ctx.sizes.layer_instrs),
        nodes,
        runs: warm[..8]
            .iter()
            .map(|r| {
                let p: PolicyKind = r.policy.parse().expect("warm policies parse");
                (r.benchmark, layers::spec(p, sample, 42, VddSpec::nominal()))
            })
            .collect(),
        request_lines: reqs.iter().map(|r| r.line(ctx.sizes.serve_instrs)).collect(),
    };
    let mut values = layers::measure_until(&inputs, ctx.tmp.path(), ctx.deadline(started));
    sim_counters(&mut values, &c, traced.wall);
    let appends = count(&c, "exec.journal.appends");
    let extra = appends
        * (values["journal.append_ms_per_frame"] * 1e-3
            + values["checkpoint.encode_us_per_run"] * 1e-6)
        + reqs.len() as f64 * values["serve.parse_us_per_line"] * 1e-6;
    ledger(&mut values, &c, Workload::ServeMixed, traced.wall, median(&untraced)?, extra);
    Some(values)
}
