//! The observability layer's core contract: *semantic* counters are a
//! pure function of the work performed, never of how it was scheduled.
//!
//! The same headline experiment (plus one faulted run, so the fault
//! counters are exercised) runs at `jobs=1` and `jobs=8`; every counter
//! outside the scheduling family (`exec.pool.*`) must move by exactly the
//! same amount in both legs — committed instructions, the core's work
//! counts, precharge events, cache hits and misses, fault detections and
//! replays. Wall-time histograms and pool queue/busy metrics are
//! explicitly scheduling telemetry and are excluded.
//!
//! One `#[test]`: the metrics registry, run cache, and `BITLINE_SUITE`
//! restriction are all process-global, so concurrent test functions would
//! race.

use std::collections::BTreeMap;

use bitline_exec::pool;
use bitline_sim::experiments::headline;
use bitline_sim::{clear_run_caches, try_run_benchmark_cached, FaultSpec, SystemSpec};

const INSTRS: u64 = 2_000;

fn counters() -> BTreeMap<String, u64> {
    bitline_obs::registry().snapshot().counters
}

/// Per-key movement between two counter snapshots (keys are a union;
/// a key absent from `before` started at zero).
fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .filter(|(_, moved)| *moved > 0)
        .collect()
}

/// Counters excluded from the per-key equality: `exec.pool.*` measures
/// *scheduling* (how work spread over workers legitimately differs
/// between job counts), `sim.runner.busy_micros` is wall-clock timing of
/// the hot loop (feeding the `sim.runner.mips` throughput gauge), and
/// `sim.accountants.*` rides on a cache that intentionally survives
/// `clear_run_caches()`, so its hit/miss *split* depends on process
/// history — the hits+misses total is still compared below.
fn is_excluded(name: &str) -> bool {
    name.starts_with("exec.pool.")
        || name.starts_with("sim.accountants.")
        || name == "sim.runner.busy_micros"
}

fn accountant_lookups(d: &BTreeMap<String, u64>) -> u64 {
    d.iter().filter(|(k, _)| k.starts_with("sim.accountants.")).map(|(_, v)| *v).sum()
}

/// One cold leg of the experiment at `jobs` workers, returning how much
/// every counter moved.
fn leg(jobs: usize) -> BTreeMap<String, u64> {
    clear_run_caches();
    let before = counters();
    pool::with_jobs(jobs, || {
        headline::run(INSTRS).expect("headline completes");
        // One faulted run so the faults.* counters move too.
        let spec = SystemSpec {
            instructions: INSTRS,
            faults: FaultSpec { rate: 0.05, ..FaultSpec::default() },
            ..SystemSpec::default()
        };
        try_run_benchmark_cached("mesa", &spec).expect("faulted run completes");
    });
    delta(&before, &counters())
}

#[test]
fn semantic_counters_are_identical_across_job_counts() {
    std::env::set_var("BITLINE_SUITE", "mesa,bisort");
    let serial = leg(1);
    let parallel = leg(8);
    std::env::remove_var("BITLINE_SUITE");

    let semantic = |d: &BTreeMap<String, u64>| -> BTreeMap<String, u64> {
        d.iter().filter(|(k, _)| !is_excluded(k)).map(|(k, v)| (k.clone(), *v)).collect()
    };
    let serial_semantic = semantic(&serial);
    let parallel_semantic = semantic(&parallel);
    assert_eq!(
        serial_semantic, parallel_semantic,
        "semantic counters must not depend on the job count"
    );
    assert_eq!(
        accountant_lookups(&serial),
        accountant_lookups(&parallel),
        "accountant lookups (hits + misses) must not depend on the job count"
    );

    // The interesting families actually moved — a vacuous equality of
    // all-zero deltas would prove nothing.
    for key in [
        "sim.runner.runs",
        "sim.runner.committed_instructions",
        "sim.runner.cycles",
        "sim.core.stepped_cycles",
        "sim.core.skipped_cycles",
        "sim.core.awake_visits",
        "sim.core.operand_checks",
        "sim.core.wheel_events",
        "sim.core.replay_slots",
        "sim.run_cache.misses",
        "sim.run_cache.hits",
        "exec.traces.materialised",
        "sim.harness.ok",
    ] {
        assert!(
            serial_semantic.get(key).copied().unwrap_or(0) > 0,
            "expected {key} to move during the experiment; moved: {serial_semantic:?}"
        );
    }
    // The core either steps a cycle or skips it as idle.
    let count = |key: &str| serial_semantic.get(key).copied().unwrap_or(0);
    assert_eq!(
        count("sim.core.stepped_cycles") + count("sim.core.skipped_cycles"),
        count("sim.runner.cycles"),
        "every simulated cycle is either stepped or skipped"
    );
    let precharges: u64 = serial_semantic
        .iter()
        .filter(|(k, _)| k.starts_with("sim.runner.precharges."))
        .map(|(_, v)| *v)
        .sum();
    assert!(precharges > 0, "per-policy precharge counters must move");
    let fault_events: u64 =
        serial_semantic.iter().filter(|(k, _)| k.starts_with("faults.")).map(|(_, v)| *v).sum();
    assert!(fault_events > 0, "the faulted run must move the faults.* family");

    // Scheduling telemetry recorded in both legs (the *values* may differ).
    for d in [&serial, &parallel] {
        assert!(
            d.get("exec.pool.units").copied().unwrap_or(0) > 0,
            "pool must have processed units: {d:?}"
        );
    }
}
