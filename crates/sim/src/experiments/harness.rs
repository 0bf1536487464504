//! Per-run failure isolation, retry, and supervision for suite-wide
//! experiments.
//!
//! Experiment drivers loop over sixteen benchmarks × several
//! configurations; one poisoned run (a panic deep in the model, an invalid
//! derived spec) used to abort the whole figure, and one *hung* run used
//! to stall it forever. This harness catches panics, bounds each run with
//! the process-wide `--run-budget`, retries once with a deterministic
//! jittered backoff (transient state is rebuilt from scratch each run, so
//! a retry is cheap and occasionally saves a flaky run; timeouts retry at
//! 2× budget), and lets the driver finish with partial results plus an
//! explicit skip summary.
//!
//! There is one failure path. A driver's unit of work returns its
//! [`SimError`] with `?`; [`map_suite`]/[`map_names`] fan the units out
//! over the `bitline-exec` work pool (`--jobs` jobs), run each through
//! [`isolated`] under the process-wide run budget, print the skipped
//! units and the suite tail, and hand back the completed rows in suite
//! order whatever the job count — or the first error when no unit
//! completed.
//!
//! A unit is one benchmark, and it owns the traces its runs read: each
//! unit gets a trace store of its own, freed when it returns, so trace
//! memory is one stream per worker, not one per benchmark. A driver that
//! sweeps several configurations therefore maps the suite once, with
//! [`map_suite_grid`]: each unit runs every configuration of its
//! benchmark over one stream, and a benchmark that fails in one
//! configuration is dropped from every row. A process-wide panic hook
//! records the panic *location and thread* so a failure on
//! `exec-worker-3` is still attributable in the skip summary.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use bitline_exec::backoff::retry_backoff;
use bitline_exec::{CancelToken, TraceStore};

use crate::error::SimError;
use crate::{execution, supervise};

/// A run the harness gave up on.
#[derive(Debug, Clone)]
pub struct SkippedRun {
    /// Which unit of work was skipped (a benchmark name, or the spec key
    /// of a served request).
    pub name: String,
    /// Attempts made before giving up (1 for deterministic spec errors,
    /// 2 after a retried panic or timeout).
    pub attempts: u32,
    /// The terminal error.
    pub error: SimError,
    /// Wall-clock time of each attempt, in attempt order.
    pub wall: Vec<Duration>,
}

impl SkippedRun {
    /// Stable kind tag of the terminal error (see [`SimError::kind`]).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.error.kind()
    }
}

impl std::fmt::Display for SkippedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}] (after {} attempt(s)", self.name, self.kind(), self.attempts)?;
        for (i, w) in self.wall.iter().enumerate() {
            write!(f, "{}{:.1?}", if i == 0 { ": " } else { " + " }, w)?;
        }
        write!(f, "): {}", self.error)
    }
}

/// Attempt accounting for one isolated unit, successful or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RunAttempts {
    /// Total attempts made (1, or 2 after a retry).
    attempts: u32,
    /// Attempts that ended in a timeout. A unit can time out once and
    /// still succeed on its doubled-budget retry; such a unit is *ok*, not
    /// *timed out*, in the suite tail.
    timed_out: u32,
}

/// Results of a suite-wide map: the rows that completed plus the units
/// that did not.
#[derive(Debug, Clone)]
struct SuiteOutcome<T> {
    /// One entry per completed unit of work, in suite order.
    rows: Vec<T>,
    /// Units of work that failed terminally, in suite order.
    skipped: Vec<SkippedRun>,
    /// Units that timed out on an attempt but completed on the retry.
    /// Tracked separately so the tail never double-counts them as both
    /// "ok" and "timed out".
    recovered_timeouts: usize,
}

/// The deduplicated suite tail: every unit is counted exactly once, by its
/// *terminal* outcome. `ok + skipped` equals the number of units mapped,
/// `timed_out <= skipped` counts terminal timeouts only, and a
/// timeout-then-success unit lands in `ok` (and `recovered_timeouts`),
/// never in `timed_out`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SuiteTail {
    /// Units that completed.
    ok: usize,
    /// Units that failed terminally.
    skipped: usize,
    /// Skipped units whose terminal error was a timeout.
    timed_out: usize,
    /// Completed units that needed a timeout retry to get there.
    recovered_timeouts: usize,
}

impl std::fmt::Display for SuiteTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ok, {} skipped, {} timed out", self.ok, self.skipped, self.timed_out)?;
        if self.recovered_timeouts > 0 {
            write!(f, " ({} recovered after a timeout retry)", self.recovered_timeouts)?;
        }
        Ok(())
    }
}

impl<T> SuiteOutcome<T> {
    /// The suite tail, computed in one place so every report line agrees
    /// on the arithmetic (see [`SuiteTail`]).
    fn tail(&self) -> SuiteTail {
        SuiteTail {
            ok: self.rows.len(),
            skipped: self.skipped.len(),
            timed_out: self
                .skipped
                .iter()
                .filter(|s| matches!(s.error, SimError::TimedOut { .. }))
                .count(),
            recovered_timeouts: self.recovered_timeouts,
        }
    }

    /// Prints one stderr line per skipped unit plus the suite tail (`N
    /// ok, M skipped, K timed out`), then returns the completed rows — or
    /// the first skip's error when *no* unit completed: partial results
    /// are useful, an empty figure is not.
    fn into_rows(self, what: &str) -> Result<Vec<T>, SimError> {
        for s in &self.skipped {
            eprintln!("warning: {what}: skipped {s}");
        }
        if !self.skipped.is_empty() {
            eprintln!("warning: {what}: suite degraded: {}", self.tail());
        }
        if self.rows.is_empty() {
            if let Some(first) = self.skipped.into_iter().next() {
                eprintln!("error: {what}: every run failed");
                return Err(first.error);
            }
        }
        Ok(self.rows)
    }
}

thread_local! {
    /// Location + thread of the most recent panic on this thread, captured
    /// by the harness panic hook.
    static LAST_PANIC_SITE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Installs (once, process-wide) a panic hook that records the panic
/// location and thread name into a thread-local before delegating to the
/// previous hook. A literal scoped swap (`take_hook`/`set_hook` around
/// each run) would race under the parallel suite map — the hook registry
/// is process-global — so the delegating hook is installed permanently and
/// the thread-local keeps attribution per worker.
fn install_panic_site_capture() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let location =
                info.location().map_or_else(|| "unknown location".to_owned(), ToString::to_string);
            let thread = std::thread::current().name().unwrap_or("unnamed").to_owned();
            LAST_PANIC_SITE.with(|site| {
                *site.borrow_mut() = Some(format!("{location}, thread {thread}"));
            });
            previous(info);
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// The panic message plus the site the hook captured on this thread (the
/// panic unwound to here, so the capturing thread is this one).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    let message = panic_message(payload);
    match LAST_PANIC_SITE.with(|site| site.borrow_mut().take()) {
        Some(site) => format!("{message} (at {site})"),
        None => message,
    }
}

/// Runs `f` with panic isolation and a single retry, each attempt under a
/// fresh [`CancelToken`] armed with `budget` (`None` = unbounded) and
/// installed as the ambient token. This is where a run's token is built:
/// the first when `isolated` starts, which on the work pool is when a
/// worker picks the unit up, so queue wait is not charged to the budget.
///
/// Panics become [`SimError::RunFailed`] — carrying the originating panic
/// location and thread — and are retried once after a deterministic
/// jittered backoff; a [`SimError::TimedOut`] is retried once with the
/// budget doubled (slow ≠ hung: one generous second chance, bounded);
/// deterministic errors ([`SimError::UnknownBenchmark`],
/// [`SimError::InvalidSpec`]) are not retried — they would fail
/// identically.
///
/// # Errors
///
/// The [`SkippedRun`] (name, attempt count, per-attempt wall clock,
/// terminal error) when every attempt fails.
pub fn isolated<T>(
    name: &str,
    budget: Option<Duration>,
    f: impl Fn() -> Result<T, SimError>,
) -> Result<T, SkippedRun> {
    isolated_tracked(name, budget, f).0
}

/// [`isolated`] that also reports attempt accounting, so the suite mapper
/// can tell a clean success from a timeout-then-success.
fn isolated_tracked<T>(
    name: &str,
    mut budget: Option<Duration>,
    f: impl Fn() -> Result<T, SimError>,
) -> (Result<T, SkippedRun>, RunAttempts) {
    install_panic_site_capture();
    let mut track = RunAttempts::default();
    let mut wall = Vec::new();
    loop {
        track.attempts += 1;
        let token = CancelToken::for_budget(budget);
        let started = Instant::now();
        let outcome = supervise::with_token(&token, || panic::catch_unwind(AssertUnwindSafe(&f)));
        let attempt_wall = started.elapsed();
        bitline_obs::histo!("sim.harness.unit_wall_us").record_duration(attempt_wall);
        wall.push(attempt_wall);
        let error = match outcome {
            Ok(Ok(value)) => {
                bitline_obs::counter!("sim.harness.ok").incr();
                if track.timed_out > 0 {
                    bitline_obs::counter!("sim.harness.recovered_timeouts").incr();
                }
                return (Ok(value), track);
            }
            Ok(Err(e)) => e,
            Err(payload) => SimError::RunFailed {
                benchmark: name.to_owned(),
                reason: panic_reason(payload.as_ref()),
            },
        };
        if matches!(error, SimError::TimedOut { .. }) {
            track.timed_out += 1;
            bitline_obs::counter!("sim.harness.timeout_attempts").incr();
        }
        let give_up = match &error {
            // Deterministic errors fail identically; don't retry.
            SimError::UnknownBenchmark(_) | SimError::InvalidSpec(_) => true,
            SimError::RunFailed { .. } | SimError::TimedOut { .. } => track.attempts >= 2,
        };
        if give_up {
            bitline_obs::counter!("sim.harness.skipped").incr();
            let skip = SkippedRun { name: name.to_owned(), attempts: track.attempts, error, wall };
            return (Err(skip), track);
        }
        // One more try: timeouts get a doubled budget (the run was making
        // progress, just slowly); panics retry with the original budget.
        // The retry's token is armed after the backoff, so the sleep is
        // not charged to its budget.
        bitline_obs::counter!("sim.harness.retries").incr();
        std::thread::sleep(retry_backoff(name));
        if matches!(error, SimError::TimedOut { .. }) {
            budget = budget.map(|b| b * 2);
        }
    }
}

/// The benchmark names suite-wide experiments map over: the full suite,
/// or the benchmarks the `BITLINE_SUITE` env var names (comma-separated,
/// suite order preserved; empty is the full suite). The golden-figure
/// regression tests use the restriction to pin every driver to the two
/// smallest workloads.
///
/// # Panics
///
/// Panics when `BITLINE_SUITE` names an unknown benchmark. Entry points
/// reject that at startup ([`crate::init_supervision_from_env`]).
#[must_use]
pub fn suite_names() -> Vec<&'static str> {
    suite_from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// `BITLINE_SUITE` as benchmark names, in suite order.
pub(crate) fn suite_from_env() -> Result<Vec<&'static str>, String> {
    parse_suite(&std::env::var("BITLINE_SUITE").unwrap_or_default())
        .map_err(|e| format!("BITLINE_SUITE: {e}"))
}

/// The benchmarks a comma-separated list names, in suite order; an empty
/// list names the whole suite.
fn parse_suite(list: &str) -> Result<Vec<&'static str>, String> {
    let all = bitline_workloads::suite::names();
    let wanted: Vec<&str> = list.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
    if let Some(unknown) = wanted.iter().find(|w| !all.contains(w)) {
        return Err(format!("unknown benchmark `{unknown}` (see bitline-sim --list)"));
    }
    if wanted.is_empty() {
        return Ok(all);
    }
    Ok(all.into_iter().filter(|n| wanted.contains(n)).collect())
}

/// Maps `f` over the benchmark suite (see [`suite_names`]) in parallel,
/// each benchmark one isolated unit of work: see [`map_names`].
///
/// # Errors
///
/// As [`map_names`].
pub fn map_suite<T: Send>(
    what: &str,
    f: impl Fn(&str) -> Result<T, SimError> + Sync,
) -> Result<Vec<T>, SimError> {
    map_names(what, &suite_names(), f)
}

/// Maps a grid of configurations over the benchmark suite: one isolated
/// unit per benchmark (see [`map_names`]) evaluates `f` on every cell of
/// `grid`, in grid order, so the benchmark's stream is generated once for
/// all of them. Returns, per cell, the values of the benchmarks that
/// completed, in suite order — what a [`map_suite`] per cell would give,
/// except that a benchmark failing in any cell is missing from every cell.
///
/// # Errors
///
/// As [`map_names`].
pub fn map_suite_grid<C: Sync, T: Send>(
    what: &str,
    grid: &[C],
    f: impl Fn(&str, &C) -> Result<T, SimError> + Sync,
) -> Result<Vec<Vec<T>>, SimError> {
    let units = map_suite(what, |name| {
        grid.iter().map(|cell| f(name, cell)).collect::<Result<Vec<_>, _>>()
    })?;
    let mut cells: Vec<Vec<T>> = grid.iter().map(|_| Vec::with_capacity(units.len())).collect();
    for unit in units {
        for (cell, value) in cells.iter_mut().zip(unit) {
            cell.push(value);
        }
    }
    Ok(cells)
}

/// Maps `f` over `names`, each name one unit of work run through
/// [`isolated`], and returns the completed rows in `names` order.
///
/// Units run on the `bitline-exec` pool — `--jobs` workers, default
/// available parallelism — but rows always come back in `names` order, so
/// driver output is independent of the job count. Each unit runs under
/// the process-wide run budget ([`supervise::run_budget`]) with a trace
/// store of its own, dropped with its streams when the unit returns. A
/// failed unit is skipped: the skips and the suite tail go to stderr,
/// prefixed with `what`.
///
/// # Errors
///
/// The first skipped unit's [`SimError`] when no unit completed.
pub fn map_names<T: Send>(
    what: &str,
    names: &[&str],
    f: impl Fn(&str) -> Result<T, SimError> + Sync,
) -> Result<Vec<T>, SimError> {
    let started = Instant::now();
    let budget = supervise::run_budget();
    let results = bitline_exec::pool::run_indexed(names.len(), |i| {
        let traces = Arc::new(TraceStore::new());
        execution::with_traces(traces, || isolated_tracked(names[i], budget, || f(names[i])))
    });
    bitline_obs::histo!("sim.harness.suite_wall_us").record_duration(started.elapsed());
    let mut outcome = SuiteOutcome {
        rows: Vec::with_capacity(names.len()),
        skipped: Vec::new(),
        recovered_timeouts: 0,
    };
    for (result, attempts) in results {
        match result {
            Ok(row) => {
                outcome.recovered_timeouts += usize::from(attempts.timed_out > 0);
                outcome.rows.push(row);
            }
            Err(skip) => outcome.skipped.push(skip),
        }
    }
    outcome.into_rows(what)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    #[test]
    fn a_suite_list_names_known_benchmarks_in_suite_order() {
        let all = bitline_workloads::suite::names();
        for empty in ["", " ", " , ,"] {
            assert_eq!(parse_suite(empty), Ok(all.clone()), "`{empty}`");
        }
        assert_eq!(parse_suite("mesa, bisort,mesa"), Ok(vec!["bisort", "mesa"]));
        for (list, unknown) in [("mesa,bisrot", "bisrot"), ("nope", "nope"), ("MESA", "MESA")] {
            let err = parse_suite(list).expect_err(list);
            assert!(err.contains(&format!("`{unknown}`")), "{err}");
        }
    }

    #[test]
    fn isolated_passes_values_through() {
        assert_eq!(isolated("ok", None, || Ok::<_, SimError>(7)).unwrap(), 7);
    }

    #[test]
    fn isolated_retries_panics_once() {
        let calls = Cell::new(0u32);
        let out = isolated("flaky", None, || {
            calls.set(calls.get() + 1);
            if calls.get() == 1 {
                panic!("transient");
            }
            Ok::<_, SimError>(42)
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn isolated_gives_up_after_two_panics() {
        let skip =
            isolated("poisoned", None, || -> Result<(), SimError> { panic!("boom") }).unwrap_err();
        assert_eq!(skip.attempts, 2);
        assert_eq!(skip.wall.len(), 2, "one wall-clock sample per attempt");
        assert_eq!(skip.kind(), "run-failed");
        assert!(matches!(skip.error, SimError::RunFailed { ref reason, .. }
            if reason.starts_with("boom")));
    }

    #[test]
    fn panic_reasons_carry_the_originating_location() {
        let skip = isolated("located", None, || -> Result<(), SimError> { panic!("find me") })
            .unwrap_err();
        let SimError::RunFailed { reason, .. } = skip.error else {
            panic!("expected RunFailed, got {:?}", skip.error)
        };
        assert!(reason.contains("find me"), "message survives: {reason}");
        assert!(reason.contains("harness.rs"), "location captured: {reason}");
        assert!(reason.contains("thread "), "thread captured: {reason}");
    }

    #[test]
    fn deterministic_errors_are_not_retried() {
        let calls = Cell::new(0u32);
        let skip = isolated("bad", None, || -> Result<(), SimError> {
            calls.set(calls.get() + 1);
            Err(SimError::InvalidSpec("subarray_bytes = 48".into()))
        })
        .unwrap_err();
        assert_eq!(skip.attempts, 1);
        assert_eq!(skip.wall.len(), 1);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn timeouts_retry_once_at_double_budget() {
        let budget = Duration::from_millis(40);
        let budgets = RefCell::new(Vec::new());
        let skip = isolated("slowpoke", Some(budget), || -> Result<(), SimError> {
            let token = supervise::ambient_token();
            budgets.borrow_mut().push(token.budget());
            Err(SimError::TimedOut {
                benchmark: "slowpoke".into(),
                budget: token.budget().unwrap_or_default(),
                progress: 10,
            })
        })
        .unwrap_err();
        assert_eq!(skip.attempts, 2);
        assert_eq!(skip.kind(), "timed-out");
        assert_eq!(*budgets.borrow(), vec![Some(budget), Some(budget * 2)]);
        assert!(
            matches!(skip.error, SimError::TimedOut { budget: b, .. } if b == budget * 2),
            "terminal error reports the doubled budget: {:?}",
            skip.error
        );
    }

    #[test]
    fn a_retry_is_not_charged_for_its_backoff() {
        // The backoff before retrying "sleeper" outlasts the doubled
        // budget, so a token armed before the sleep would be spent before
        // the retry began.
        let budget = Duration::from_millis(8);
        assert!(retry_backoff("sleeper") > budget * 2);
        let live = RefCell::new(Vec::new());
        let skip = isolated("sleeper", Some(budget), || -> Result<(), SimError> {
            live.borrow_mut().push(!supervise::ambient_token().cancelled());
            Err(SimError::TimedOut { benchmark: "sleeper".into(), budget, progress: 0 })
        })
        .unwrap_err();
        assert_eq!(skip.attempts, 2);
        assert_eq!(*live.borrow(), vec![true, true], "each attempt starts with budget left");
    }

    #[test]
    fn a_zero_budget_cancels_the_attempt() {
        let cancelled = isolated("spent", Some(Duration::ZERO), || {
            Ok::<_, SimError>(supervise::ambient_token().cancelled())
        });
        assert!(matches!(cancelled, Ok(true)));
    }

    #[test]
    fn map_names_arms_each_unit_with_the_run_budget() {
        // An hour: no unit of the tests running beside this one can spend
        // it, so they run as if unbudgeted while the global is set.
        let budget = Duration::from_secs(3600);
        supervise::set_run_budget(Some(budget));
        let rows = [1, 4].map(|jobs| {
            bitline_exec::pool::with_jobs(jobs, || {
                map_names("probe", &["a", "b", "c", "d", "e", "f"], |_| {
                    // Cancelling the unit's token is seen through the next
                    // `ambient_token()` only if the harness installed it:
                    // the fallback builds a fresh token per call.
                    let token = supervise::ambient_token();
                    let fresh = !token.cancelled();
                    token.cancel();
                    Ok((token.budget(), fresh, supervise::ambient_token().cancelled()))
                })
            })
        });
        supervise::set_run_budget(None);
        for row in rows {
            assert_eq!(row, Ok(vec![(Some(budget), true, true); 6]));
        }
    }

    #[test]
    fn a_unit_queued_behind_a_slower_one_starts_uncancelled() {
        // The pool and `isolated`, composed as `map_names` composes them:
        // the first `jobs` units outlast the budget, and the rest wait
        // behind them for a worker.
        let budget = Duration::from_millis(100);
        for jobs in [1, 2] {
            let live = bitline_exec::pool::with_jobs(jobs, || {
                bitline_exec::pool::run_indexed(jobs + 2, |i| {
                    isolated("queued", Some(budget), || {
                        if i < jobs {
                            std::thread::sleep(budget * 2);
                        }
                        Ok::<_, SimError>(!supervise::ambient_token().cancelled())
                    })
                })
            });
            let live: Vec<bool> = live.into_iter().map(|r| r.expect("no unit fails")).collect();
            assert!(live[..jobs].iter().all(|&l| !l), "the slow units spend their budget");
            assert!(live[jobs..].iter().all(|&l| l), "queue wait is not charged: {live:?}");
        }
    }

    #[test]
    fn into_rows_keeps_partial_results() {
        let outcome = SuiteOutcome {
            rows: vec![1, 2],
            skipped: vec![SkippedRun {
                name: "x".into(),
                attempts: 2,
                error: SimError::RunFailed { benchmark: "x".into(), reason: "boom".into() },
                wall: vec![Duration::ZERO, Duration::ZERO],
            }],
            recovered_timeouts: 0,
        };
        assert_eq!(outcome.into_rows("probe").expect("partial is ok"), vec![1, 2]);
    }

    #[test]
    fn into_rows_surfaces_the_first_error_when_empty() {
        let outcome: SuiteOutcome<u32> = SuiteOutcome {
            rows: vec![],
            skipped: vec![SkippedRun {
                name: "x".into(),
                attempts: 1,
                error: SimError::InvalidSpec("bad".into()),
                wall: vec![Duration::ZERO],
            }],
            recovered_timeouts: 0,
        };
        assert_eq!(outcome.into_rows("probe").unwrap_err(), SimError::InvalidSpec("bad".into()));
    }

    #[test]
    fn into_rows_accepts_an_entirely_empty_outcome() {
        let outcome: SuiteOutcome<u32> =
            SuiteOutcome { rows: vec![], skipped: vec![], recovered_timeouts: 0 };
        assert_eq!(outcome.into_rows("probe").expect("nothing asked, nothing failed"), vec![]);
    }

    #[test]
    fn skipped_run_display_names_kind_and_wall() {
        let skip = SkippedRun {
            name: "gcc".into(),
            attempts: 2,
            error: SimError::TimedOut {
                benchmark: "gcc".into(),
                budget: Duration::from_millis(80),
                progress: 4096,
            },
            wall: vec![Duration::from_millis(40), Duration::from_millis(81)],
        };
        let line = skip.to_string();
        assert!(line.contains("[timed-out]"), "{line}");
        assert!(line.contains("2 attempt(s)"), "{line}");
        assert!(line.contains("gcc"), "{line}");
    }

    #[test]
    fn tail_counts_every_unit_exactly_once() {
        // Three units: two completed (one of which needed a timeout retry)
        // and one that timed out terminally. The recovered unit must land
        // in `ok` only — the old summary counted it as both "ok" and
        // "timed out", overstating the degradation.
        let outcome = SuiteOutcome {
            rows: vec![1, 2],
            skipped: vec![SkippedRun {
                name: "hung".into(),
                attempts: 2,
                error: SimError::TimedOut {
                    benchmark: "hung".into(),
                    budget: Duration::from_millis(80),
                    progress: 0,
                },
                wall: vec![Duration::from_millis(40), Duration::from_millis(81)],
            }],
            recovered_timeouts: 1,
        };
        let tail = outcome.tail();
        assert_eq!(tail, SuiteTail { ok: 2, skipped: 1, timed_out: 1, recovered_timeouts: 1 });
        assert_eq!(tail.ok + tail.skipped, 3, "every unit counted exactly once");
        assert_eq!(
            tail.to_string(),
            "2 ok, 1 skipped, 1 timed out (1 recovered after a timeout retry)"
        );
    }

    #[test]
    fn tail_omits_the_recovery_note_when_nothing_recovered() {
        let outcome: SuiteOutcome<u32> =
            SuiteOutcome { rows: vec![4, 5, 6], skipped: vec![], recovered_timeouts: 0 };
        assert_eq!(outcome.tail().to_string(), "3 ok, 0 skipped, 0 timed out");
    }

    #[test]
    fn timeout_then_success_is_recovered_not_timed_out() {
        let calls = Cell::new(0u32);
        let (result, attempts) =
            isolated_tracked("recovers", Some(Duration::from_millis(40)), || {
                calls.set(calls.get() + 1);
                if calls.get() == 1 {
                    return Err(SimError::TimedOut {
                        benchmark: "recovers".into(),
                        budget: Duration::from_millis(40),
                        progress: 10,
                    });
                }
                Ok(11)
            });
        assert_eq!(result.unwrap(), 11);
        assert_eq!(attempts, RunAttempts { attempts: 2, timed_out: 1 });
        // Fold the tracked attempt into a suite outcome the way map_names
        // does, and pin that the unit counts as ok + recovered, never as
        // timed out.
        let outcome = SuiteOutcome { rows: vec![11], skipped: vec![], recovered_timeouts: 1 };
        assert_eq!(
            outcome.tail(),
            SuiteTail { ok: 1, skipped: 0, timed_out: 0, recovered_timeouts: 1 }
        );
    }

    #[test]
    fn map_names_collects_partial_results_around_a_poisoned_run() {
        let rows = map_names("probe", &["a", "b", "c"], |name| {
            if name == "b" {
                panic!("poisoned");
            }
            Ok(name.to_owned())
        });
        assert_eq!(rows, Ok(vec!["a".to_owned(), "c".to_owned()]));
    }

    #[test]
    fn a_grid_drops_a_benchmark_that_fails_any_cell_from_every_cell() {
        let cells = [1, 2, 3];
        let want: Vec<Vec<String>> = cells
            .iter()
            .map(|cell| {
                suite_names()
                    .iter()
                    .filter(|&&n| n != "mesa")
                    .map(|n| format!("{n}{cell}"))
                    .collect()
            })
            .collect();
        for jobs in [1, 2] {
            let by_cell = bitline_exec::pool::with_jobs(jobs, || {
                map_suite_grid("probe", &cells, |name, &cell| {
                    if name == "mesa" && cell == 2 {
                        return Err(SimError::InvalidSpec("mesa fails cell 2".into()));
                    }
                    Ok(format!("{name}{cell}"))
                })
            });
            assert_eq!(by_cell.as_ref(), Ok(&want), "-j {jobs}");
        }
    }

    #[test]
    fn map_names_order_is_job_count_independent() {
        let run = |jobs| {
            bitline_exec::pool::with_jobs(jobs, || {
                map_names("probe", &["w", "x", "y", "z"], |name| {
                    if name == "y" {
                        return Err(SimError::InvalidSpec("y is bad".into()));
                    }
                    Ok(name.to_owned())
                })
            })
        };
        let serial = run(1).expect("three units complete");
        assert_eq!(serial, vec!["w", "x", "z"]);
        assert_eq!(run(4), Ok(serial));
    }
}
