//! Ablations of the design choices DESIGN.md calls out:
//!
//! * predecoding, which the paper credits with ~6% extra discharge
//!   reduction on data caches (Section 6.4);
//! * replay scope: the paper argues a 16-stage pipeline needs
//!   Pentium-4-style dependent-only replay rather than R10000-style
//!   squash-all (Section 6.3);
//! * way prediction composed with gated precharging (related work, Section
//!   7): one attacks dynamic read energy, the other static discharge.
//!
//! Each study runs a fixed benchmark list at seed 42, whatever
//! `BITLINE_SUITE` says, one harness unit per benchmark: the unit runs
//! every study of its benchmark over one stream, and a benchmark that
//! fails any of them is skipped with a warning, as in every experiment.

use std::fmt::Write as _;

use bitline_cache::{MemorySystem, MemorySystemConfig, PrechargePolicy};
use bitline_cmos::TechnologyNode;
use bitline_cpu::{Cpu, CpuConfig, ReplayScope};
use gated_precharge::{GatedPolicy, StaticPullUp};

use crate::execution;
use crate::experiments::harness;
use crate::experiments::sweep::{d_discharge, gated_d, pick_at, sweep, THRESHOLDS, THRESHOLD_100};
use crate::{try_run_benchmark_cached, PolicyKind, SimError, SystemSpec};

/// Benchmarks of the predecoding and replay-scope studies.
const NAMES: [&str; 6] = ["gcc", "mcf", "mesa", "health", "vpr", "art"];

/// Benchmarks of the way-prediction study, in row order.
const WAY_NAMES: [&str; 3] = ["gcc", "mesa", "mcf"];

/// One benchmark's rows of the three studies.
struct Unit {
    benchmark: String,
    predecode: [f64; 4],
    /// `(p4_slowdown, r10k_slowdown, p4_replays, r10k_replays)`.
    replay: (f64, f64, u64, u64),
    /// For a [`WAY_NAMES`] benchmark.
    waypred: Option<[f64; 4]>,
}

/// One benchmark's three studies at `instrs` instructions per run.
fn unit(benchmark: &str, instrs: u64) -> Result<Unit, SimError> {
    let node = TechnologyNode::N70;
    let spec = SystemSpec { instructions: instrs, ..SystemSpec::default() };
    let baseline = try_run_benchmark_cached(benchmark, &spec)?;

    // The gated D-cache at its per-benchmark optimum threshold, with and
    // without predecode hints.
    let with = sweep(benchmark, &baseline, &gated_d(spec))?;
    let without = THRESHOLDS
        .map(|threshold| SystemSpec { d_policy: PolicyKind::Gated { threshold }, ..spec });
    let without = sweep(benchmark, &baseline, &without)?;
    let (w, wo) = (pick_at(&with, node, d_discharge), pick_at(&without, node, d_discharge));
    let predecode = [w.cost, wo.cost, w.candidate.slowdown, wo.candidate.slowdown];

    // A gated D-cache (threshold 100) under dependents-only (Pentium 4)
    // and squash-all (R10000) replay.
    let (p4_slowdown, p4_replays) = replay_scope(benchmark, ReplayScope::DependentsOnly, instrs)?;
    let (r10k_slowdown, r10k_replays) = replay_scope(benchmark, ReplayScope::AllYounger, instrs)?;

    // Gated precharging with predecode hints (threshold 100), with and
    // without MRU way prediction.
    let waypred = if WAY_NAMES.contains(&benchmark) {
        let gated_only = &with[THRESHOLD_100].run;
        let combined = try_run_benchmark_cached(
            benchmark,
            &SystemSpec {
                d_policy: PolicyKind::GatedPredecode { threshold: 100 },
                way_prediction: true,
                ..spec
            },
        )?;
        let (g, gb) = gated_only.energy(node);
        let (c, cb) = combined.energy(node);
        let accuracy = combined
            .l1d()
            .way_stats
            .map_or(0.0, |ws| ws.correct as f64 / (ws.correct + ws.wrong).max(1) as f64);
        let extra_slowdown = combined.cycles() as f64 / gated_only.cycles() as f64 - 1.0;
        Some([accuracy, g.d.overall_reduction(&gb.d), c.d.overall_reduction(&cb.d), extra_slowdown])
    } else {
        None
    };
    Ok(Unit {
        benchmark: benchmark.to_owned(),
        predecode,
        replay: (p4_slowdown, r10k_slowdown, p4_replays, r10k_replays),
        waypred,
    })
}

/// Runs the three studies at `instrs` instructions per run and renders
/// them one row per line, each row led by its study: `predecode` (per
/// benchmark, then `AVG`), `replay` and `waypred`, each under its own `#`
/// header.
///
/// # Errors
///
/// The first skipped unit's [`SimError`] when every benchmark failed.
pub fn run(instrs: u64) -> Result<String, SimError> {
    let _span = bitline_obs::span("ablations/run").field("instrs", instrs);
    let units = harness::map_names("ablations", &NAMES, |benchmark| unit(benchmark, instrs))?;

    let mut out = String::from(
        "# predecode  benchmark  discharge_with  discharge_without  slowdown_with  \
         slowdown_without\n",
    );
    let mut sum = [0.0; 4];
    for u in &units {
        write_row(&mut out, "predecode", &u.benchmark, u.predecode);
        for (s, v) in sum.iter_mut().zip(u.predecode) {
            *s += v;
        }
    }
    write_row(&mut out, "predecode", "AVG", sum.map(|s| s / units.len() as f64));

    out.push_str("# replay  benchmark  p4_slowdown  r10k_slowdown  p4_replays  r10k_replays\n");
    for u in &units {
        let (p4_slowdown, r10k_slowdown, p4_replays, r10k_replays) = u.replay;
        let _ = writeln!(
            out,
            "replay {} {p4_slowdown:.5} {r10k_slowdown:.5} {p4_replays} {r10k_replays}",
            u.benchmark
        );
    }

    out.push_str("# waypred  benchmark  accuracy  d_saved  d_saved_waypred  extra_slowdown\n");
    for benchmark in WAY_NAMES {
        if let Some(row) = units.iter().find(|u| u.benchmark == benchmark).and_then(|u| u.waypred) {
            write_row(&mut out, "waypred", benchmark, row);
        }
    }
    Ok(out)
}

/// Appends `study benchmark` and four values to five places.
fn write_row(out: &mut String, study: &str, benchmark: &str, v: [f64; 4]) {
    let _ = writeln!(out, "{study} {benchmark} {:.5} {:.5} {:.5} {:.5}", v[0], v[1], v[2], v[3]);
}

/// Slowdown and replays of a gated D-cache (threshold 100) under `scope`,
/// each run built directly on the core, over the running unit's stream,
/// against a static-pull-up machine with the same scope.
///
/// # Errors
///
/// [`SimError::UnknownBenchmark`] for a benchmark not in the suite.
fn replay_scope(benchmark: &str, scope: ReplayScope, instrs: u64) -> Result<(f64, u64), SimError> {
    let cfg = MemorySystemConfig::default();
    let run = |d_policy: Box<dyn PrechargePolicy>| {
        let mem =
            MemorySystem::new(cfg, d_policy, Box::new(StaticPullUp::new(cfg.l1i.subarrays())));
        let mut cpu = Cpu::new(CpuConfig { replay_scope: scope, ..CpuConfig::default() }, mem);
        let mut trace = execution::trace_cursor(benchmark, 42)
            .ok_or_else(|| SimError::UnknownBenchmark(benchmark.to_owned()))?;
        Ok::<_, SimError>(cpu.run(&mut trace, instrs))
    };
    let stats = run(Box::new(GatedPolicy::new(cfg.l1d.subarrays(), 100, 1)))?;
    let base = run(Box::new(StaticPullUp::new(cfg.l1d.subarrays())))?;
    Ok((stats.cycles as f64 / base.cycles as f64 - 1.0, stats.replays))
}
