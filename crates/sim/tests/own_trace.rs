//! A run outside any trace store reads a stream of its own and frees it
//! when it returns: no process-wide store keeps the stream behind it.
//!
//! The retained bytes are counted process-wide, so this binary holds this
//! one test alone.

use bitline_exec::retained_trace_bytes;
use bitline_sim::{try_run_benchmark, SystemSpec};

#[test]
fn a_run_outside_any_store_retains_no_trace_once_it_returns() {
    let spec = SystemSpec { instructions: 2_000, ..SystemSpec::default() };
    let peak = || bitline_obs::gauge!("exec.traces.retained_peak_bytes").get();
    let streams = || bitline_obs::counter!("exec.traces.streams").get();
    for run in 1..=2 {
        try_run_benchmark("mesa", &spec).expect("mesa runs");
        assert!(peak() > 0, "run {run}: the stream was retained while the run read it");
        assert_eq!(retained_trace_bytes(), 0, "run {run}: the stream outlived its run");
        assert_eq!(streams(), run, "each run outside a store generates its own stream");
    }
}
