//! The execution layer's core contract: figure output is byte-identical
//! whatever the job count, and cache hits replay exactly what a cold run
//! computed.
//!
//! Everything lives in one `#[test]` because the run cache and trace store
//! are process-wide: concurrent test functions would see each other's
//! entries and the hit/miss assertions would race.

use bitline_exec::pool;
use bitline_sim::experiments::{fig8, harness};
use bitline_sim::{clear_run_caches, run_cache_stats, try_run_benchmark_cached, SystemSpec};

const INSTRS: u64 = 2_500;

fn suite_rows(jobs: usize) -> Vec<String> {
    pool::with_jobs(jobs, || {
        harness::map_suite("determinism probe", |name| {
            let run = try_run_benchmark_cached(
                name,
                &SystemSpec { instructions: INSTRS, ..SystemSpec::default() },
            )?;
            Ok(format!("{name}: cycles={} ipc={:.6}", run.cycles(), run.stats.ipc()))
        })
        .expect("suite completes")
    })
}

#[test]
fn parallel_execution_is_deterministic_and_cache_replay_is_exact() {
    // --- map_suite rows are identical at jobs=1 and jobs=8 ---
    clear_run_caches();
    let serial = suite_rows(1);
    clear_run_caches();
    let parallel = suite_rows(8);
    assert_eq!(serial.len(), 16);
    assert_eq!(serial, parallel, "suite rows must not depend on the job count");

    // --- a full figure is byte-identical at jobs=1 and jobs=8 ---
    clear_run_caches();
    let cold_serial = pool::with_jobs(1, || format!("{:?}", fig8::run(INSTRS)));
    clear_run_caches();
    let cold_parallel = pool::with_jobs(8, || format!("{:?}", fig8::run(INSTRS)));
    assert_eq!(cold_serial, cold_parallel, "fig8 must not depend on the job count");

    // --- a warm rerun replays the cold run exactly, from cache hits ---
    let before = run_cache_stats();
    let warm = pool::with_jobs(8, || format!("{:?}", fig8::run(INSTRS)));
    let after = run_cache_stats();
    assert_eq!(warm, cold_parallel, "cache hits must replay the cold run's results");
    assert!(
        after.hits > before.hits,
        "warm rerun must hit the run cache (before {before}, after {after})"
    );
    assert_eq!(
        after.misses, before.misses,
        "warm rerun must not recompute any run (before {before}, after {after})"
    );
}
