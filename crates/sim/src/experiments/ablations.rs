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
//! `BITLINE_SUITE` says.

use std::fmt::Write as _;

use bitline_cache::{MemorySystem, MemorySystemConfig, PrechargePolicy};
use bitline_cmos::TechnologyNode;
use bitline_cpu::{Cpu, CpuConfig, ReplayScope};
use gated_precharge::{GatedPolicy, StaticPullUp};

use crate::experiments::{optimal_gated, SweptCache};
use crate::{try_run_benchmark_cached, PolicyKind, SimError, SystemSpec};

/// Benchmarks of the predecoding and replay-scope studies.
const NAMES: [&str; 6] = ["gcc", "mcf", "mesa", "health", "vpr", "art"];

/// Benchmarks of the way-prediction study.
const WAY_NAMES: [&str; 3] = ["gcc", "mesa", "mcf"];

/// Runs the three studies at `instrs` instructions per run and renders
/// them one row per line, each row led by its study: `predecode` (per
/// benchmark, then `AVG`), `replay` and `waypred`, each under its own `#`
/// header.
///
/// # Errors
///
/// The first [`SimError`] of a baseline or way-prediction run.
pub fn run(instrs: u64) -> Result<String, SimError> {
    let _span = bitline_obs::span("ablations/run").field("instrs", instrs);
    let node = TechnologyNode::N70;
    let spec = |d_policy, way_prediction| SystemSpec {
        d_policy,
        instructions: instrs,
        way_prediction,
        ..SystemSpec::default()
    };

    // The gated D-cache at its per-benchmark optimum threshold, with and
    // without predecode hints.
    let mut out = String::from(
        "# predecode  benchmark  discharge_with  discharge_without  slowdown_with  \
         slowdown_without\n",
    );
    let mut sum = [0.0; 4];
    for benchmark in NAMES {
        let baseline = try_run_benchmark_cached(benchmark, &spec(PolicyKind::StaticPullUp, false))?;
        let with = optimal_gated(benchmark, SweptCache::Data, node, &baseline, instrs);
        let without =
            optimal_gated(benchmark, SweptCache::DataNoPredecode, node, &baseline, instrs);
        let row =
            [with.relative_discharge, without.relative_discharge, with.slowdown, without.slowdown];
        write_row(&mut out, "predecode", benchmark, row);
        for (s, v) in sum.iter_mut().zip(row) {
            *s += v;
        }
    }
    write_row(&mut out, "predecode", "AVG", sum.map(|s| s / NAMES.len() as f64));

    // A gated D-cache (threshold 100) under dependents-only (Pentium 4)
    // and squash-all (R10000) replay.
    out.push_str("# replay  benchmark  p4_slowdown  r10k_slowdown  p4_replays  r10k_replays\n");
    for benchmark in NAMES {
        let (p4_slowdown, p4_replays) =
            replay_scope(benchmark, ReplayScope::DependentsOnly, instrs);
        let (r10k_slowdown, r10k_replays) =
            replay_scope(benchmark, ReplayScope::AllYounger, instrs);
        let _ = writeln!(
            out,
            "replay {benchmark} {p4_slowdown:.5} {r10k_slowdown:.5} {p4_replays} {r10k_replays}"
        );
    }

    // Gated precharging with predecode hints (threshold 100), with and
    // without MRU way prediction.
    out.push_str("# waypred  benchmark  accuracy  d_saved  d_saved_waypred  extra_slowdown\n");
    for benchmark in WAY_NAMES {
        let gated = PolicyKind::GatedPredecode { threshold: 100 };
        let gated_only = try_run_benchmark_cached(benchmark, &spec(gated, false))?;
        let combined = try_run_benchmark_cached(benchmark, &spec(gated, true))?;
        let (g, gb) = gated_only.energy(node);
        let (c, cb) = combined.energy(node);
        let accuracy = combined
            .l1d()
            .way_stats
            .map_or(0.0, |ws| ws.correct as f64 / (ws.correct + ws.wrong).max(1) as f64);
        let extra_slowdown = combined.cycles() as f64 / gated_only.cycles() as f64 - 1.0;
        let row =
            [accuracy, g.d.overall_reduction(&gb.d), c.d.overall_reduction(&cb.d), extra_slowdown];
        write_row(&mut out, "waypred", benchmark, row);
    }
    Ok(out)
}

/// Appends `study benchmark` and four values to five places.
fn write_row(out: &mut String, study: &str, benchmark: &str, v: [f64; 4]) {
    let _ = writeln!(out, "{study} {benchmark} {:.5} {:.5} {:.5} {:.5}", v[0], v[1], v[2], v[3]);
}

/// Slowdown and replays of a gated D-cache (threshold 100) under `scope`,
/// each run built directly on the core against a static-pull-up machine
/// with the same scope.
fn replay_scope(benchmark: &str, scope: ReplayScope, instrs: u64) -> (f64, u64) {
    let cfg = MemorySystemConfig::default();
    let run = |d_policy: Box<dyn PrechargePolicy>| {
        let mem =
            MemorySystem::new(cfg, d_policy, Box::new(StaticPullUp::new(cfg.l1i.subarrays())));
        let mut cpu = Cpu::new(CpuConfig { replay_scope: scope, ..CpuConfig::default() }, mem);
        let mut trace =
            bitline_workloads::suite::by_name(benchmark).expect("known benchmark").build(42);
        cpu.run(&mut trace, instrs)
    };
    let stats = run(Box::new(GatedPolicy::new(cfg.l1d.subarrays(), 100, 1)));
    let base = run(Box::new(StaticPullUp::new(cfg.l1d.subarrays())));
    (stats.cycles as f64 / base.cycles as f64 - 1.0, stats.replays)
}
