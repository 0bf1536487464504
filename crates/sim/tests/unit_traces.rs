//! A harness unit of work owns the traces its runs read. Every experiment
//! generates each benchmark's stream once, inside the one unit that reads
//! it, and the stream is freed when that unit returns; a sweep over
//! several configurations runs them all in its benchmark's unit, so a
//! benchmark that fails one configuration is left out of every row. A
//! unit also looks each of its runs up once: a cold experiment's run
//! cache answers no lookup it has not just computed for another.
//!
//! The stream counts are read from the process-wide metrics registry and
//! the suite restriction from the process environment, so that test is
//! the only one in this binary that runs experiments in-process; the
//! others drive the binary.

use std::process::Command;

use bitline_exec::pool;
use bitline_sim::experiments;
use bitline_sim::{clear_run_caches, run_cache_stats, spec, PolicyKind, SystemSpec, VddSpec};

/// The golden budget: one 4 096-instruction segment per stream.
const INSTRS: u64 = 2_000;
const SEGMENT: u64 = 4_096;

/// Streams an experiment generates at `BITLINE_SUITE=mesa,bisort`: one per
/// benchmark it reads, however many configurations it sweeps.
fn expected_streams(experiment: &str) -> u64 {
    match experiment {
        "table1" | "table2" | "table3" | "fig2" => 0,
        // Its own six benchmarks, whatever the suite.
        "ablations" => 6,
        _ => 2,
    }
}

/// Run-cache hits of a cold experiment at `BITLINE_SUITE=mesa,bisort`.
fn expected_cold_hits(experiment: &str) -> u64 {
    match experiment {
        // A fault-free reference run serves its cell at all four nodes:
        // looked up 4 times, computed once.
        "reliability" => 36,
        _ => 0,
    }
}

fn counter(name: &str) -> u64 {
    bitline_obs::registry().counter(name).get()
}

#[test]
fn every_experiment_generates_each_stream_once_and_frees_it_with_its_unit() {
    std::env::set_var("BITLINE_SUITE", "mesa,bisort");
    let spec = spec::front_end_default();
    for jobs in [1, 2] {
        for e in &experiments::ALL {
            clear_run_caches();
            let streams = counter("exec.traces.streams");
            let materialised = counter("exec.traces.materialised");
            pool::with_jobs(jobs, || (e.run)(INSTRS, &spec))
                .unwrap_or_else(|err| panic!("{}: {err}", e.name));
            let want = expected_streams(e.name);
            assert_eq!(
                (
                    counter("exec.traces.streams") - streams,
                    counter("exec.traces.materialised") - materialised
                ),
                (want, want * SEGMENT),
                "{} at -j {jobs}: (streams, instructions) generated; each benchmark's \
                 stream is generated once, in the one unit that reads it",
                e.name
            );
            assert_eq!(
                bitline_exec::retained_trace_bytes(),
                0,
                "{} at -j {jobs}: a stream outlived the unit that opened it",
                e.name
            );
            assert_eq!(
                run_cache_stats().hits,
                expected_cold_hits(e.name),
                "{} at -j {jobs}: cold run-cache hits; a unit looks each run up once",
                e.name
            );
        }
    }
    std::env::remove_var("BITLINE_SUITE");
}

/// `bitline-sim --jobs JOBS EXPERIMENT` at the golden budget over `suite`
/// with `failpoints` armed: its stdout and stderr.
fn run(experiment: &str, jobs: &str, suite: &str, failpoints: &str) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_bitline-sim"))
        .args(["--jobs", jobs, experiment])
        .env_clear()
        .env("BITLINE_SUITE", suite)
        .env("BITLINE_INSTRS", INSTRS.to_string())
        .env("BITLINE_FAILPOINTS", failpoints)
        .output()
        .expect("bitline-sim runs");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert!(output.status.success(), "{stderr}");
    (String::from_utf8(output.stdout).expect("utf-8 stdout"), stderr)
}

#[test]
fn a_benchmark_that_fails_one_voltage_spec_is_left_out_of_every_row() {
    let governed = SystemSpec {
        d_policy: PolicyKind::Gated { threshold: 100 },
        i_policy: PolicyKind::Gated { threshold: 100 },
        instructions: INSTRS,
        vdd: VddSpec { scale: 0.8, governor: true },
        ..SystemSpec::default()
    };
    let key = bitline_sim::checkpoint::spec_key("bisort", &governed);
    let (mesa, _) = run("voltage", "1", "mesa", "");
    for jobs in ["1", "2"] {
        let (rows, stderr) = run("voltage", jobs, "mesa,bisort", &format!("sim.run[{key}]=panic"));
        assert!(stderr.contains("warning: voltage: skipped bisort"), "{stderr}");
        assert_eq!(rows, mesa, "-j {jobs}: bisort's other specs still count in some rows");
    }
}

#[test]
fn a_benchmark_whose_context_run_fails_is_left_out_of_every_headline_average() {
    let context = SystemSpec {
        d_policy: PolicyKind::GatedPredecode { threshold: 100 },
        i_policy: PolicyKind::Gated { threshold: 100 },
        instructions: INSTRS,
        ..SystemSpec::default()
    };
    let key = bitline_sim::checkpoint::spec_key("mesa", &context);
    // Every fourth benchmark is a context benchmark: bisort and mesa of
    // these five, bisort alone of the first four.
    let (four, _) = run("headline", "1", "bisort,em3d,gcc,health", "");
    for jobs in ["1", "2"] {
        let suite = "bisort,em3d,gcc,health,mesa";
        let (rows, stderr) = run("headline", jobs, suite, &format!("sim.run[{key}]=panic"));
        assert!(stderr.contains("warning: headline: skipped mesa"), "{stderr}");
        assert_eq!(rows, four, "-j {jobs}: mesa's Figure 8 runs still count");
    }
}
