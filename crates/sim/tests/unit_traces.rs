//! A harness unit of work owns the traces its runs read. Every experiment
//! generates each benchmark's stream once, inside the one unit that reads
//! it, and the stream is freed when that unit returns; a sweep over
//! several configurations runs them all in its benchmark's unit, so a
//! benchmark that fails one configuration is left out of every row.
//!
//! The stream counts are read from the process-wide metrics registry and
//! the suite restriction from the process environment, so that test is
//! the only one in this binary that runs experiments in-process; the
//! other drives the binary.

use std::process::Command;

use bitline_exec::pool;
use bitline_sim::experiments;
use bitline_sim::{clear_run_caches, spec, trace_store_stats, PolicyKind, SystemSpec, VddSpec};

/// The golden budget: one 4 096-instruction segment per stream.
const INSTRS: u64 = 2_000;
const SEGMENT: u64 = 4_096;

/// Streams an experiment generates at `BITLINE_SUITE=mesa,bisort`: one per
/// benchmark it reads, however many configurations it sweeps.
fn expected_streams(experiment: &str) -> u64 {
    match experiment {
        "table1" | "table2" | "table3" | "fig2" => 0,
        // Its own six benchmarks, whatever the suite, outside any unit.
        "ablations" => 6,
        // Figure 8's two units, then bisort again in the processor
        // context's unit.
        "headline" => 3,
        _ => 2,
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
                trace_store_stats().bytes,
                "{} at -j {jobs}: a stream outlived the unit that opened it",
                e.name
            );
        }
    }
    std::env::remove_var("BITLINE_SUITE");
}

/// `bitline-sim --jobs JOBS voltage` at the golden budget over `suite` with
/// `failpoints` armed: its stdout and stderr.
fn voltage(jobs: &str, suite: &str, failpoints: &str) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_bitline-sim"))
        .args(["--jobs", jobs, "voltage"])
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
    let (mesa, _) = voltage("1", "mesa", "");
    for jobs in ["1", "2"] {
        let (rows, stderr) = voltage(jobs, "mesa,bisort", &format!("sim.run[{key}]=panic"));
        assert!(stderr.contains("warning: voltage: skipped bisort"), "{stderr}");
        assert_eq!(rows, mesa, "-j {jobs}: bisort's other specs still count in some rows");
    }
}
