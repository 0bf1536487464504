//! `bitline-sim` refuses an input it would misread, before any run, naming
//! it. An experiment chooses its own benchmarks and nodes, so `-b` and
//! `--node` beside one were once ignored without a word; and a run budget
//! under 1 ns parsed to zero, which bounded a single run at once and left
//! an experiment unbounded.

use std::process::{Command, Output};

/// `bitline-sim ARGS` at a small budget with an otherwise empty
/// environment.
fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bitline-sim"))
        .args(args)
        .env_clear()
        .env("BITLINE_INSTRS", "2000")
        .env("BITLINE_SUITE", "mesa")
        .output()
        .expect("bitline-sim runs")
}

/// Asserts that `args` exit 1 before any run, with `message` on stderr.
fn refused(args: &[&str], message: &str) {
    let out = sim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: no row is printed");
    assert!(!stderr.contains("run-cache"), "{args:?}: no run is made");
}

#[test]
fn an_experiment_refuses_the_single_run_flags_naming_them() {
    for (args, flag) in [
        (&["-b", "mesa", "--node", "180nm", "table1"][..], "--benchmark"),
        (&["--benchmark", "mesa", "fig3"], "--benchmark"),
        (&["--node", "180nm", "fig3"], "--node"),
        (&["fig8", "-n", "130nm"], "--node"),
    ] {
        let name = args.iter().find(|a| a.starts_with("fig") || a.starts_with("table")).unwrap();
        refused(args, &format!("`{name}` does not take {flag}"));
    }
    assert!(sim(&["table1"]).status.success(), "the experiment alone still runs");
}

#[test]
fn a_budget_under_a_nanosecond_is_refused_as_zero_is() {
    for args in [
        &["--run-budget", "0.0000001ms", "fig3"][..],
        &["-b", "mesa", "--run-budget", "0.0000001ms"],
        &["--run-budget", "0", "fig3"],
    ] {
        refused(args, "must be positive");
    }
}
