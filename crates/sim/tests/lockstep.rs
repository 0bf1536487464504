//! `bitline-sim -b NAME` runs its policy spec and its static baseline in
//! lockstep over one windowed trace, simulating only the specs the run
//! cache lacks, each once.
//!
//! Each test drives the binary, so the counters of its metrics export
//! belong to exactly one invocation.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use bitline_obs::Record;

/// What one invocation exported, by name: counters and gauges alike.
struct Export {
    values: BTreeMap<String, i128>,
    stderr: String,
}

impl Export {
    fn get(&self, name: &str) -> i128 {
        *self.values.get(name).unwrap_or_else(|| panic!("{name} missing: {:?}", self.values))
    }
}

/// Runs `bitline-sim ARGS --metrics DIR/metrics.jsonl`.
fn run(dir: &Path, args: &[&str]) -> Export {
    let metrics = dir.join("metrics.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_bitline-sim"))
        .args(args)
        .arg("--metrics")
        .arg(&metrics)
        .env_clear()
        .output()
        .expect("bitline-sim runs");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert!(output.status.success(), "{stderr}");
    let export = std::fs::read_to_string(&metrics).expect("the export is written");
    let values = bitline_obs::parse_jsonl(&export)
        .expect("a valid export")
        .into_iter()
        .filter_map(|record| match record {
            Record::Counter { name, value } => Some((name, i128::from(value))),
            Record::Gauge { name, value } => Some((name, i128::from(value))),
            _ => None,
        })
        .collect();
    Export { values, stderr }
}

/// A fresh directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bitline-lockstep-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn a_spec_equal_to_its_baseline_is_simulated_once() {
    let dir = scratch("equal");
    let e = run(&dir, &["-b", "mesa", "-p", "static", "-i", "2000"]);
    assert_eq!(e.get("sim.runner.runs"), 1);
    assert_eq!(e.get("sim.run_cache.misses"), 1);
    assert_eq!(e.get("sim.run_cache.hits"), 1, "the baseline is the spec again");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cached_baseline_is_not_simulated_again() {
    let dir = scratch("cached");
    let checkpoint = dir.join("ck");
    let ck = checkpoint.to_str().expect("utf-8 path");
    let journaled = run(&dir, &["-b", "mesa", "-p", "static", "-i", "2000", "--checkpoint", ck]);
    assert_eq!(journaled.get("sim.checkpoint.appended"), 1);

    // The gated run's baseline is that static run, replayed from the journal.
    let e = run(&dir, &["-b", "mesa", "-p", "gated:100", "-i", "2000", "--checkpoint", ck]);
    assert_eq!(e.get("sim.checkpoint.replayed"), 1);
    assert_eq!(e.get("sim.runner.runs"), 1, "only the gated spec is simulated");
    assert_eq!(e.get("sim.run_cache.misses"), 1);
    assert_eq!(e.get("sim.run_cache.hits"), 1);
    assert_eq!(e.get("sim.checkpoint.appended"), 1);
    assert_eq!(e.get("sim.checkpoint.recomputed"), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_pair_holds_two_segments_however_long_it_runs() {
    let dir = scratch("window");
    for instrs in ["20000", "60000"] {
        let e = run(&dir, &["-b", "gcc", "-p", "gated-predecode:100", "-i", instrs]);
        assert_eq!(e.get("sim.runner.runs"), 2);
        assert_eq!(e.get("exec.traces.streams"), 1);
        assert_eq!(e.get("exec.traces.windows"), 1);
        assert_eq!(e.get("exec.traces.retained_peak_bytes"), 0, "a window retains no stream");
        assert_eq!(e.get("exec.traces.window_peak_segments"), 2, "-i {instrs}");
        let bytes = e.get("exec.traces.window_peak_bytes");
        assert!(bytes > 0 && bytes <= 2 * 8 * 4096, "{bytes} B in two segments");
        assert!(
            e.stderr.contains("1 shared traces")
                && e.stderr.contains("1 windowed, at most 2 segments"),
            "{}",
            e.stderr
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_suite_sweep_counts_its_windows_as_shared_traces_at_any_job_count() {
    let dir = scratch("all");
    let peak_bytes = ["1", "2"].map(|jobs| {
        let e = run(&dir, &["-b", "all", "-i", "2000", "-j", jobs]);
        assert_eq!(e.get("exec.traces.streams"), 16);
        assert_eq!(e.get("exec.traces.windows"), 16);
        assert_eq!(e.get("exec.traces.materialised"), 16 * 4096);
        assert_eq!(e.get("exec.traces.window_peak_segments"), 1, "2 000 instructions fit one");
        assert!(
            e.stderr.contains("16 shared traces, 65536 instrs materialised")
                && e.stderr.contains("16 windowed"),
            "{}",
            e.stderr
        );
        e.get("exec.traces.window_peak_bytes")
    });
    assert!(peak_bytes[0] > 0);
    assert_eq!(peak_bytes[0], peak_bytes[1], "the largest window is the same at any job count");
    std::fs::remove_dir_all(&dir).ok();
}
