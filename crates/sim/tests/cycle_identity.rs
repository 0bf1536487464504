//! Cycle-identity goldens for the out-of-order core.
//!
//! The SoA hot-loop rewrite must be architecturally invisible: every
//! cycle count, replay, precharge event and hit/miss split stays exactly
//! what the original pointer-chasing core produced. This test pins a
//! matrix of benchmark × policy (plus a fault-injected row, which
//! exercises the replay machinery hardest) to a text golden generated
//! *before* the refactor, so any semantic drift in the core shows up as
//! a diff rather than a silently skewed figure.
//!
//! Regenerate after an intentional model change with:
//!
//! ```sh
//! BITLINE_BLESS=1 cargo test -p bitline-sim --test cycle_identity
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use bitline_sim::{try_run_benchmark, FaultSpec, PolicyKind, SystemSpec};

const INSTRS: u64 = 3_000;

const BENCHMARKS: &[&str] = &["mesa", "bisort", "gcc", "health"];

fn policies() -> Vec<(&'static str, PolicyKind)> {
    vec![
        ("static", PolicyKind::StaticPullUp),
        ("oracle", PolicyKind::Oracle),
        ("ondemand", PolicyKind::OnDemand),
        ("gated100", PolicyKind::Gated { threshold: 100 }),
        ("gatedpre100", PolicyKind::GatedPredecode { threshold: 100 }),
        ("adaptive256", PolicyKind::AdaptiveGated { interval_accesses: 256 }),
        ("drowsy200", PolicyKind::Drowsy { threshold: 200 }),
    ]
}

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("goldens")
}

/// One run rendered as a stable, human-diffable line.
fn render_run(label: &str, bench: &str, spec: &SystemSpec) -> String {
    let run = try_run_benchmark(bench, spec)
        .unwrap_or_else(|e| panic!("{bench}/{label}: run failed: {e}"));
    let s = run.stats;
    format!(
        "{bench} {label} cyc={} com={} fet={} br={} mis={} ld={} st={} rep={} lms={} fsc={} \
         hint={} d={}h/{}m i={}h/{}m pre_d={} pre_i={}\n",
        s.cycles,
        s.committed,
        s.fetched,
        s.branches,
        s.mispredicts,
        s.loads,
        s.stores,
        s.replays,
        s.load_misspeculations,
        s.fetch_stall_cycles,
        s.hints,
        run.l1d().hits,
        run.l1d().misses,
        run.l1i().hits,
        run.l1i().misses,
        run.l1d().report.total_precharge_events(),
        run.l1i().report.total_precharge_events(),
    )
}

#[test]
fn core_semantics_match_the_pinned_goldens() {
    let bless = std::env::var("BITLINE_BLESS").is_ok_and(|v| v == "1");
    let mut got = String::new();
    for bench in BENCHMARKS {
        for (label, policy) in policies() {
            // Predecode is D-cache only (instruction fetch has no base
            // register), mirroring how the experiments build specs.
            let i_policy = match policy {
                PolicyKind::GatedPredecode { threshold } => PolicyKind::Gated { threshold },
                p => p,
            };
            let spec = SystemSpec {
                d_policy: policy,
                i_policy,
                instructions: INSTRS,
                ..SystemSpec::default()
            };
            got.push_str(&render_run(label, bench, &spec));
        }
        // Fault injection drives detect-and-replay through the core's
        // squash path far harder than clean runs do.
        let faulted = SystemSpec {
            d_policy: PolicyKind::Gated { threshold: 100 },
            i_policy: PolicyKind::Gated { threshold: 100 },
            instructions: INSTRS,
            faults: FaultSpec {
                rate: 0.05,
                seed: 7,
                fail_safe: false,
                ecc: false,
                scrub_period: None,
            },
            ..SystemSpec::default()
        };
        got.push_str(&render_run("gated100+faults", bench, &faulted));
        // The AllYounger replay-scope ablation squashes along a different
        // rule; pin it too so both scopes stay cycle-identical.
        let spec = SystemSpec {
            d_policy: PolicyKind::Gated { threshold: 100 },
            i_policy: PolicyKind::Gated { threshold: 100 },
            instructions: INSTRS,
            ..SystemSpec::default()
        };
        let mut line = String::new();
        write!(line, "{}", render_run_all_younger(bench, &spec)).unwrap();
        got.push_str(&line);
    }

    let golden_path = goldens_dir().join("cycle_identity.txt");
    if bless {
        std::fs::create_dir_all(goldens_dir()).expect("goldens dir");
        std::fs::write(&golden_path, &got).expect("bless golden");
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!("{}: {e}\n(run with BITLINE_BLESS=1 to generate the goldens)", golden_path.display())
    });
    assert_eq!(
        got, want,
        "core semantics drifted from the pinned golden — the SoA hot loop \
         must be cycle-identical; if the model change is intentional, \
         regenerate with BITLINE_BLESS=1"
    );
}

/// The headline's shape: every suite benchmark at the headline sweep's
/// 5 000 instructions, under the baseline, both ends of the gated
/// threshold sweep (predecode-hinted D with plain gated I, as fig8 builds
/// them) and on-demand. Blessed on the per-cycle core before it became
/// event-driven; never re-bless it for a performance change.
#[test]
fn headline_suite_matches_the_pinned_golden() {
    let bless = std::env::var("BITLINE_BLESS").is_ok_and(|v| v == "1");
    let gated =
        |threshold| (PolicyKind::GatedPredecode { threshold }, PolicyKind::Gated { threshold });
    let configs = [
        ("static", (PolicyKind::StaticPullUp, PolicyKind::StaticPullUp)),
        ("gatedpre25", gated(25)),
        ("gatedpre1600", gated(1600)),
        ("ondemand", (PolicyKind::OnDemand, PolicyKind::OnDemand)),
    ];
    let mut got = String::new();
    for bench in bitline_workloads::suite::names() {
        for (label, (d_policy, i_policy)) in configs {
            let spec =
                SystemSpec { d_policy, i_policy, instructions: 5_000, ..SystemSpec::default() };
            got.push_str(&render_run(label, bench, &spec));
        }
    }

    let golden_path = goldens_dir().join("cycle_identity_suite.txt");
    if bless {
        std::fs::write(&golden_path, &got).expect("bless golden");
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let want = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
    assert_eq!(got, want, "the headline suite drifted from the pinned golden");
}

/// Runs the AllYounger replay scope directly through the core (the
/// experiment drivers only use DependentsOnly, so cover it here).
fn render_run_all_younger(bench: &str, spec: &SystemSpec) -> String {
    use bitline_cpu::{CpuConfig, ReplayScope};

    let cfg = CpuConfig { replay_scope: ReplayScope::AllYounger, ..CpuConfig::default() };
    let s = run_core(bench, spec, cfg);
    format!(
        "{bench} allyounger cyc={} com={} rep={} lms={} fsc={}\n",
        s.cycles, s.committed, s.replays, s.load_misspeculations, s.fetch_stall_cycles,
    )
}

/// Runs `bench` straight through a core built from `cfg` (the experiment
/// drivers always use the Table 2 core, so non-default windows and replay
/// scopes are covered here).
fn run_core(bench: &str, spec: &SystemSpec, cfg: bitline_cpu::CpuConfig) -> bitline_cpu::SimStats {
    use bitline_cache::{CacheConfig, MemorySystem, MemorySystemConfig};
    use bitline_cmos::TechnologyNode;
    use bitline_cpu::Cpu;

    let d_cfg = CacheConfig::l1_data().with_subarray_bytes(spec.subarray_bytes);
    let i_cfg = CacheConfig::l1_inst().with_subarray_bytes(spec.subarray_bytes);
    let node = TechnologyNode::N70;
    let d_policy = spec.d_policy.build(&d_cfg, node, None);
    let i_policy = spec.i_policy.build(&i_cfg, node, None);
    let mem = MemorySystem::new(
        MemorySystemConfig { l1d: d_cfg, l1i: i_cfg, ..MemorySystemConfig::default() },
        d_policy,
        i_policy,
    );
    let mut cpu = Cpu::new(cfg, mem);
    let store = bitline_exec::TraceStore::new();
    let mut trace = store.cursor(bench, spec.seed).unwrap_or_else(|| panic!("{bench} in suite"));
    cpu.run(&mut trace, spec.instructions)
}

/// Scheduler edge cases, pinned in their own golden so the matrix above
/// stays byte-identical: windows far below and off a power of two of the
/// 128-slot ring, timing-speculation replays under an undervolted
/// governor, a three-level hierarchy (long fills), and one run long
/// enough to wrap every cycle-indexed scheduler structure many times.
#[test]
fn scheduler_edge_cases_match_the_pinned_goldens() {
    use bitline_cpu::CpuConfig;
    use bitline_sim::{HierarchySpec, VddSpec};

    let bless = std::env::var("BITLINE_BLESS").is_ok_and(|v| v == "1");
    let gated = |instructions| SystemSpec {
        d_policy: PolicyKind::Gated { threshold: 100 },
        i_policy: PolicyKind::Gated { threshold: 100 },
        instructions,
        ..SystemSpec::default()
    };
    let mut got = String::new();
    for bench in ["gcc", "health"] {
        for rob_entries in [8, 100] {
            for hints in [false, true] {
                let cfg = CpuConfig { rob_entries, predecode_hints: hints, ..CpuConfig::default() };
                let s = run_core(bench, &gated(INSTRS), cfg);
                writeln!(
                    got,
                    "{bench} rob{rob_entries}{} cyc={} com={} fet={} br={} mis={} ld={} st={} \
                     rep={} lms={} fsc={} hint={}",
                    if hints { "+hints" } else { "" },
                    s.cycles,
                    s.committed,
                    s.fetched,
                    s.branches,
                    s.mispredicts,
                    s.loads,
                    s.stores,
                    s.replays,
                    s.load_misspeculations,
                    s.fetch_stall_cycles,
                    s.hints,
                )
                .unwrap();
            }
        }
    }
    for bench in ["gcc", "mesa"] {
        let vdd = SystemSpec { vdd: VddSpec { scale: 0.8, governor: true }, ..gated(INSTRS) };
        got.push_str(&render_run("gated100+vdd0.8gov", bench, &vdd));
        let levels = SystemSpec {
            hierarchy: HierarchySpec {
                levels: 3,
                l2_policy: PolicyKind::Gated { threshold: 100 },
                ..HierarchySpec::default()
            },
            ..gated(INSTRS)
        };
        got.push_str(&render_run("gated100+levels3", bench, &levels));
    }
    got.push_str(&render_run("gated100x20k", "gcc", &gated(20_000)));

    let golden_path = goldens_dir().join("cycle_identity_scheduler.txt");
    if bless {
        std::fs::create_dir_all(goldens_dir()).expect("goldens dir");
        std::fs::write(&golden_path, &got).expect("bless golden");
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!("{}: {e}\n(run with BITLINE_BLESS=1 to generate the goldens)", golden_path.display())
    });
    assert_eq!(got, want, "scheduler edge cases drifted from the pinned golden");
}
