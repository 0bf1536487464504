//! Each run setting has one source, the command line. `BITLINE_JOBS`,
//! `BITLINE_RUN_BUDGET`, `BITLINE_CHECKPOINT` and `BITLINE_NO_RESUME` are
//! read nowhere, and `bitline-sim` refuses to start while one is set,
//! naming the flag to pass instead. When the variables were still read, a
//! stale `BITLINE_CHECKPOINT` replayed its journal into the run cache
//! beside `--checkpoint`'s, so the flag's journal missed every run the
//! variable's journal already held.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bitline_exec::journal::{read_entries, JOURNAL_FILE};

/// `bitline-sim -b mesa -i 2000 -p POLICY --checkpoint DIR` with only
/// `env` in its environment.
fn sim(policy: &str, dir: &Path, env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bitline-sim"))
        .args(["-b", "mesa", "-i", "2000", "-p", policy, "--checkpoint"])
        .arg(dir)
        .env_clear()
        .envs(env.iter().copied())
        .output()
        .expect("bitline-sim runs")
}

/// A fresh, empty directory for this test.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bitline-retired-env-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn a_retired_variable_stops_bitline_sim_before_any_run() {
    let root = scratch();
    let (a, b) = (root.join("a"), root.join("b"));
    // Journal A holds the static run: with `-p static` the run is its own
    // baseline.
    let made = sim("static", &a, &[]);
    assert!(made.status.success(), "{}", String::from_utf8_lossy(&made.stderr));
    let (frames, _) = read_entries(&a.join(JOURNAL_FILE)).expect("journal A reads");
    assert_eq!(frames.len(), 1, "one static run");
    let journal_a = std::fs::read(a.join(JOURNAL_FILE)).expect("journal A");

    let a_text = a.to_str().expect("utf-8 temp path");
    for (var, value, flag) in [
        ("BITLINE_CHECKPOINT", a_text, "--checkpoint"),
        ("BITLINE_JOBS", "2", "--jobs"),
        ("BITLINE_RUN_BUDGET", "1s", "--run-budget"),
        ("BITLINE_NO_RESUME", "1", "--no-resume"),
    ] {
        let out = sim("gated:100", &b, &[(var, value)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{var} set: bitline-sim must refuse to start");
        assert!(stderr.contains(var) && stderr.contains(flag), "{var}: {stderr}");
        assert!(out.stdout.is_empty(), "{var}: no report is printed");
        assert!(!b.join(JOURNAL_FILE).exists(), "{var}: no journal is armed, no run made");
        let after = std::fs::read(a.join(JOURNAL_FILE)).expect("journal A");
        assert!(after == journal_a, "{var}: journal A is untouched");
    }
    std::fs::remove_dir_all(&root).ok();
}
