//! Criterion micro-benchmarks for the data-oriented OoO hot loop.
//!
//! `Cpu::run` is the innermost kernel of every experiment; these local
//! harnesses let a hot-loop change be measured in seconds instead of
//! through the end-to-end headline smoke. Three variants: a static-pull-up
//! run (pure issue/complete/commit throughput), a gated run (delayed
//! precharges drive detect-and-replay through the squash path), and one
//! short run in the shape of each of the headline's 244 runs, where
//! building and dropping the core and its caches count beside the loop.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use bitline_cache::{MemorySystem, MemorySystemConfig};
use bitline_cpu::{Cpu, CpuConfig};
use bitline_trace::{Instr, TraceSource};
use bitline_workloads::suite;
use gated_precharge::{GatedPolicy, StaticPullUp};

const INSTRS: u64 = 20_000;

fn run_static(bench: &str) -> u64 {
    let cfg = MemorySystemConfig::default();
    let mem = MemorySystem::new(
        cfg,
        Box::new(StaticPullUp::new(cfg.l1d.subarrays())),
        Box::new(StaticPullUp::new(cfg.l1i.subarrays())),
    );
    let mut cpu = Cpu::new(CpuConfig::default(), mem);
    let mut trace = suite::by_name(bench).unwrap().build(1);
    cpu.run(&mut trace, INSTRS).cycles
}

fn run_gated(bench: &str) -> u64 {
    let cfg = MemorySystemConfig::default();
    let mem = MemorySystem::new(
        cfg,
        Box::new(GatedPolicy::new(cfg.l1d.subarrays(), 100, 1)),
        Box::new(GatedPolicy::new(cfg.l1i.subarrays(), 100, 1)),
    );
    let mut cpu = Cpu::new(CpuConfig::default(), mem);
    let mut trace = suite::by_name(bench).unwrap().build(1);
    let stats = cpu.run(&mut trace, INSTRS);
    stats.cycles.wrapping_add(stats.replays)
}

/// Replays a materialised trace, so a short run times the core rather
/// than the workload generator.
struct Materialised<'a>(&'a [Instr], usize);

impl TraceSource for Materialised<'_> {
    fn next_instr(&mut self) -> Instr {
        let instr = self.0[self.1 % self.0.len()];
        self.1 += 1;
        instr
    }
}

const HEADLINE_INSTRS: u64 = 5_000;

/// One headline-sized run: build the memory system and core, run, then
/// finalize the precharge accounting.
fn run_headline_shape(trace: &[Instr]) -> u64 {
    let cfg = MemorySystemConfig::default();
    let mem = MemorySystem::new(
        cfg,
        Box::new(GatedPolicy::new(cfg.l1d.subarrays(), 100, 1)),
        Box::new(GatedPolicy::new(cfg.l1i.subarrays(), 100, 1)),
    );
    let mut cpu = Cpu::new(CpuConfig::default().with_predecode_hints(), mem);
    let stats = cpu.run(&mut Materialised(trace, 0), HEADLINE_INSTRS);
    let mut mem = cpu.into_memory();
    let (d, i) = mem.finalize(stats.cycles);
    stats.cycles + d.total_precharge_events() + i.total_precharge_events()
}

fn bench_cpu_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu");
    g.throughput(Throughput::Elements(INSTRS));
    g.bench_function("run_20k_mesa_static", |b| b.iter(|| run_static("mesa")));
    g.bench_function("run_20k_gcc_static", |b| b.iter(|| run_static("gcc")));
    g.bench_function("run_20k_gcc_gated", |b| b.iter(|| run_gated("gcc")));
    g.finish();

    // Materialise generously: fetch runs ahead of commit.
    let mut gcc = suite::by_name("gcc").unwrap().build(1);
    let trace: Vec<Instr> = (0..2 * HEADLINE_INSTRS).map(|_| gcc.next_instr()).collect();
    let mut g = c.benchmark_group("cpu_per_run");
    g.throughput(Throughput::Elements(HEADLINE_INSTRS));
    g.bench_function("run_5k_headline_shape", |b| b.iter(|| run_headline_shape(&trace)));
    g.finish();
}

criterion_group!(benches, bench_cpu_run);
criterion_main!(benches);
