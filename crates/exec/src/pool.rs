//! Scoped work pool for suite-wide experiments.
//!
//! [`run_indexed`] fans `n` independent units of work out over a set of
//! scoped worker threads and reassembles the results *by index*, so the
//! output is identical whatever the job count or scheduling order. It is
//! safe to drive the simulator with: each run is self-contained
//! (`Rc`/`RefCell` only ever live inside one run) and run results are
//! owned `Send` data.
//!
//! The job count resolves, in order of precedence:
//!
//! 1. a thread-local override installed by [`with_jobs`] (tests),
//! 2. a process-global override installed by [`set_jobs`] (the
//!    `bitline-sim --jobs` flag),
//! 3. [`std::thread::available_parallelism`].
//!
//! The pool knows nothing of budgets: a unit that wants one arms it itself
//! when it starts, which is when a worker picks it up, so queueing behind
//! earlier units is never charged to it.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bitline_obs::{counter, gauge, histo};

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Process-global override; 0 means "unset".
static GLOBAL: AtomicUsize = AtomicUsize::new(0);

/// The number of worker threads [`run_indexed`] will use (at least 1).
#[must_use]
pub fn jobs() -> usize {
    if let Some(n) = OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    let global = GLOBAL.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Installs a process-global job count (the `--jobs` CLI flag). Pass 0 to
/// clear the override.
pub fn set_jobs(n: usize) {
    GLOBAL.store(n, Ordering::Relaxed);
}

/// Parses a `--jobs` value, rejecting zero and garbage with an actionable
/// message. Zero is an error, not "auto": a pool with no workers would
/// hang every batch, so it fails fast like `--scrub-period 0` does.
///
/// # Errors
///
/// A message naming the offending value and the accepted form.
pub fn parse_jobs_value(v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(0) => {
            Err("job count must be at least 1 (0 would run no workers; unset for auto)".into())
        }
        Ok(n) => Ok(n),
        Err(_) => Err(format!("invalid job count `{v}` (want a positive integer)")),
    }
}

/// Runs `f` with the job count pinned to `n` on this thread (nested calls
/// restore the previous override). Used by determinism tests to compare
/// serial and parallel executions without touching the environment.
pub fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = OVERRIDE.with(|o| o.replace(Some(n)));
    // Restore on unwind too, so a panicking closure cannot leak the pin
    // into unrelated tests on the same thread.
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Maps `f` over `0..n` on [`jobs`] scoped worker threads, returning the
/// results in index order.
///
/// Work is handed out through a shared atomic counter, so long units do
/// not convoy behind short ones. With one job (or one unit) the work runs
/// inline on the caller's thread — byte-identical to the pre-parallel
/// drivers.
///
/// # Panics
///
/// Propagates a panic from `f`. Callers that need per-unit isolation wrap
/// `f` in their own `catch_unwind` (as `bitline-sim`'s experiment harness
/// does) so one poisoned run cannot take down the whole suite.
pub fn run_indexed<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = jobs().min(n);
    let units = u64::try_from(n).unwrap_or(u64::MAX);
    counter!("exec.pool.batches").incr();
    counter!("exec.pool.units").add(units);
    gauge!("exec.pool.workers").set(i64::try_from(workers).unwrap_or(i64::MAX));
    if workers <= 1 {
        counter!("exec.pool.inline_units").add(units);
        return (0..n)
            .map(|i| {
                bitline_failpoint::failpoint!("pool.worker");
                f(i)
            })
            .collect();
    }
    // All units are submitted at once, so a unit's queue wait is the time
    // from batch start to its pickup by a worker.
    let submitted = Instant::now();
    let next = AtomicUsize::new(0);
    let mut collected = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                let f = &f;
                std::thread::Builder::new()
                    .name(format!("exec-worker-{w}"))
                    .spawn_scoped(s, move || {
                        let spawned = Instant::now();
                        let mut busy = Duration::ZERO;
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            // Worker pickup seam: a `pool.worker=panic`
                            // schedule exercises the batch's isolation
                            // story; delay/stall model a descheduled core.
                            bitline_failpoint::failpoint!("pool.worker");
                            histo!("exec.pool.queue_wait_us").record_duration(submitted.elapsed());
                            let picked = Instant::now();
                            out.push((i, f(i)));
                            busy += picked.elapsed();
                        }
                        histo!("exec.pool.worker_busy_us").record_duration(busy);
                        histo!("exec.pool.worker_idle_us")
                            .record_duration(spawned.elapsed().saturating_sub(busy));
                        out
                    })
                    .expect("spawn exec worker")
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("exec worker panicked"))
            .collect::<Vec<(usize, T)>>()
    });
    collected.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(collected.len(), n);
    counter!("exec.pool.reassembled").add(units);
    collected.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = with_jobs(8, || {
            run_indexed(64, |i| {
                // Finish in roughly reverse order to stress reassembly.
                std::thread::sleep(std::time::Duration::from_micros(64 - i as u64));
                i * 2
            })
        });
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = with_jobs(1, || run_indexed(33, |i| i * i + 1));
        let parallel = with_jobs(7, || run_indexed(33, |i| i * i + 1));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn with_jobs_pins_and_restores() {
        let outer = jobs();
        with_jobs(3, || {
            assert_eq!(jobs(), 3);
            with_jobs(5, || assert_eq!(jobs(), 5));
            assert_eq!(jobs(), 3);
        });
        assert_eq!(jobs(), outer);
    }

    #[test]
    fn with_jobs_restores_on_panic() {
        let outer = jobs();
        let caught = std::panic::catch_unwind(|| with_jobs(9, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(jobs(), outer);
    }

    #[test]
    fn zero_units_is_fine() {
        let out: Vec<u32> = with_jobs(4, || run_indexed(0, |_| unreachable!()));
        assert!(out.is_empty());
    }

    #[test]
    fn parse_jobs_value_rejects_zero_and_garbage() {
        assert!(parse_jobs_value("0").unwrap_err().contains("at least 1"));
        assert!(parse_jobs_value("-3").unwrap_err().contains("invalid job count"));
        assert!(parse_jobs_value("many").unwrap_err().contains("invalid job count"));
        assert!(parse_jobs_value("").unwrap_err().contains("invalid job count"));
        assert_eq!(parse_jobs_value("1"), Ok(1));
        assert_eq!(parse_jobs_value(" 8 "), Ok(8));
    }

    #[test]
    fn every_index_is_visited_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let visits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        with_jobs(6, || {
            run_indexed(100, |i| {
                visits[i].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
    }
}
