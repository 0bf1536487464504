//! Admission control: the bounded queue, in-flight dedup map, and drain
//! latch, all under one lock.
//!
//! A single `Mutex<State>` guards both the pending queue and the waiter
//! map. That is what makes dedup race-free: attaching a subscriber to an
//! in-flight key and removing the key's waiters on completion happen
//! under the same lock, so a subscriber can never attach to a job whose
//! responses were already taken, and a completed key's next request
//! re-enqueues (and hits the memoized run cache, so the recompute is a
//! table lookup).
//!
//! The three-stage robustness ladder lives here:
//!
//! 1. **normal** — requests queue FIFO within priority (a `BTreeMap` keyed
//!    by `(priority, arrival seq)`), identical in-flight specs coalesce;
//! 2. **overload** — a full queue sheds with a [`retry hint`](Admission::offer)
//!    derived from the observed request-wall histogram;
//! 3. **drain** — admission closes (`shed` with reason `draining`),
//!    **pending** jobs are shed back to their subscribers with a terminal
//!    line ([`Admission::begin_drain`] returns the notices), in-flight
//!    runs finish and answer, and [`Admission::next_job`] returns `None`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use bitline_obs::{counter, gauge, histo};
use bitline_sim::SystemSpec;

use crate::conn::ConnHandle;
use crate::protocol::RunRequest;

/// One response destination: a request id on some connection.
pub struct Subscriber {
    /// The request id to echo in the response line.
    pub id: String,
    /// The connection's bounded response queue.
    pub out: ConnHandle,
}

/// A unit of admitted work (one spec key, N subscribers).
#[derive(Debug, Clone)]
pub struct Job {
    /// Dedup key: `checkpoint::spec_key(benchmark, spec)`.
    pub key: String,
    /// Benchmark name.
    pub benchmark: String,
    /// The spec to run.
    pub spec: SystemSpec,
    /// Deadline of the request that *opened* the job, in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// A pending job shed by [`Admission::begin_drain`]: every subscriber
/// still owed a response, with the backoff hint to send them.
pub struct ShedNotice {
    /// The subscriber owed a terminal `shed` line.
    pub subscriber: Subscriber,
    /// Suggested client backoff, at least [`MIN_RETRY_AFTER_MS`].
    pub retry_after_ms: u64,
}

/// The outcome of offering a request to admission.
pub enum Offer {
    /// Queued as a fresh job; a worker will respond.
    Queued,
    /// Attached to an identical in-flight job; its worker will respond.
    Deduped,
    /// Rejected; the caller must send the `shed` response itself.
    Shed {
        /// Why (`queue full` or `draining`).
        reason: &'static str,
        /// Suggested client backoff, always at least 1.
        retry_after_ms: u64,
    },
}

/// Per-instance serving counters, mirrored into the global `serve.*`
/// metric family. The instance copy keeps the `stats` op (and the Rust
/// tests) isolated from other servers in the same process.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests admitted as fresh jobs.
    pub accepted: AtomicU64,
    /// Requests coalesced onto an in-flight job.
    pub deduped: AtomicU64,
    /// Requests rejected by overload or drain.
    pub shed: AtomicU64,
    /// Runs that exhausted their deadline (terminal `timeout`).
    pub timed_out: AtomicU64,
    /// Runs that failed (terminal `error`, including isolated panics).
    pub errored: AtomicU64,
    /// Requests completed after drain began.
    pub drained: AtomicU64,
}

impl ServeStats {
    /// Snapshot as `(name, value)` pairs for the `stats` response.
    #[must_use]
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("accepted", self.accepted.load(Ordering::Relaxed)),
            ("deduped", self.deduped.load(Ordering::Relaxed)),
            ("shed", self.shed.load(Ordering::Relaxed)),
            ("timed_out", self.timed_out.load(Ordering::Relaxed)),
            ("errored", self.errored.load(Ordering::Relaxed)),
            ("drained", self.drained.load(Ordering::Relaxed)),
        ]
    }
}

struct State {
    /// Admitted-but-not-picked-up jobs, ordered by (priority, arrival).
    pending: BTreeMap<(u8, u64), Job>,
    /// Spec key → response destinations, for every queued *or running* job.
    waiters: HashMap<String, Vec<Subscriber>>,
    /// Arrival sequence for FIFO-within-priority ordering.
    seq: u64,
    /// Jobs picked up by a worker and not yet completed.
    in_flight: usize,
    /// Drain latch: once set, admission sheds and workers exit when idle.
    draining: bool,
}

/// The admission queue shared by the accept loop and the workers.
pub struct Admission {
    state: Mutex<State>,
    work: Condvar,
    queue_depth: usize,
    workers: usize,
    stats: Arc<ServeStats>,
}

impl Admission {
    /// A new admission queue bounded at `queue_depth` pending jobs,
    /// feeding `workers` worker threads.
    #[must_use]
    pub fn new(queue_depth: usize, workers: usize, stats: Arc<ServeStats>) -> Arc<Admission> {
        Arc::new(Admission {
            state: Mutex::new(State {
                pending: BTreeMap::new(),
                waiters: HashMap::new(),
                seq: 0,
                in_flight: 0,
                draining: false,
            }),
            work: Condvar::new(),
            queue_depth: queue_depth.max(1),
            workers: workers.max(1),
            stats,
        })
    }

    /// The per-instance counters.
    #[must_use]
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The shared state, tolerating poison: an admission lock is only
    /// ever held for map operations, so a panicking holder (e.g. an
    /// injected failpoint) leaves consistent state worth continuing with.
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Offers a validated request under its spec `key`. On
    /// [`Offer::Queued`] or [`Offer::Deduped`] the responder owns the
    /// request id and `out` and will write the terminal response; on
    /// [`Offer::Shed`] the caller writes it.
    pub fn offer(&self, key: &str, request: RunRequest, out: ConnHandle) -> Offer {
        let RunRequest { id, benchmark, spec, priority, deadline_ms } = request;
        let mut s = self.lock();
        if let Some(subs) = s.waiters.get_mut(key) {
            subs.push(Subscriber { id, out });
            self.stats.deduped.fetch_add(1, Ordering::Relaxed);
            counter!("serve.deduped").incr();
            return Offer::Deduped;
        }
        let shed = if s.draining {
            Some("draining")
        } else if s.pending.len() >= self.queue_depth {
            Some("queue full")
        } else {
            None
        };
        if let Some(reason) = shed {
            let backlog = s.pending.len() + s.in_flight;
            drop(s);
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            counter!("serve.shed").incr();
            return Offer::Shed {
                reason,
                retry_after_ms: retry_after_ms(key, backlog, self.workers),
            };
        }
        let seq = s.seq;
        s.seq += 1;
        s.pending
            .insert((priority, seq), Job { key: key.to_owned(), benchmark, spec, deadline_ms });
        s.waiters.insert(key.to_owned(), vec![Subscriber { id, out }]);
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        counter!("serve.accepted").incr();
        gauge!("serve.queue_depth").set(i64::try_from(s.pending.len()).unwrap_or(i64::MAX));
        drop(s);
        self.work.notify_one();
        Offer::Queued
    }

    /// Blocks until a job is available (lowest `(priority, seq)` first) or
    /// the queue has fully drained; `None` tells the worker to exit.
    pub fn next_job(&self) -> Option<Job> {
        let mut s = self.lock();
        loop {
            if let Some((_, job)) = s.pending.pop_first() {
                s.in_flight += 1;
                gauge!("serve.queue_depth").set(i64::try_from(s.pending.len()).unwrap_or(i64::MAX));
                return Some(job);
            }
            if s.draining {
                return None;
            }
            s = self.work.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Completes `key`, returning every subscriber accumulated while it
    /// was queued or running. Called by the worker that ran the job.
    pub fn complete(&self, key: &str) -> Vec<Subscriber> {
        let mut s = self.lock();
        let subs = s.waiters.remove(key).unwrap_or_default();
        s.in_flight -= 1;
        if s.draining {
            let n = u64::try_from(subs.len()).unwrap_or(u64::MAX);
            self.stats.drained.fetch_add(n, Ordering::Relaxed);
            counter!("serve.drained").add(n);
        }
        drop(s);
        // Wake the other workers: with an empty queue they must observe a
        // drain latch set after they went to sleep.
        self.work.notify_all();
        subs
    }

    /// Latches the drain stage: admission starts shedding with reason
    /// `draining`, every **pending** (not yet picked-up) job is removed
    /// and its subscribers returned so the caller can send them terminal
    /// `shed` lines, in-flight runs complete and answer normally, and
    /// workers exit once idle. Idempotent: a second latch returns no
    /// notices.
    pub fn begin_drain(&self) -> Vec<ShedNotice> {
        let mut s = self.lock();
        s.draining = true;
        // Shed the pending backlog: a drain must terminate promptly, and
        // every owed response must still get a terminal line.
        let pending = std::mem::take(&mut s.pending);
        let mut notices = Vec::new();
        let backlog = pending.len() + s.in_flight;
        for (_, job) in pending {
            let hint = retry_after_ms(&job.key, backlog, self.workers);
            for subscriber in s.waiters.remove(&job.key).unwrap_or_default() {
                notices.push(ShedNotice { subscriber, retry_after_ms: hint });
            }
        }
        gauge!("serve.queue_depth").set(0);
        drop(s);
        let n = u64::try_from(notices.len()).unwrap_or(u64::MAX);
        self.stats.shed.fetch_add(n, Ordering::Relaxed);
        counter!("serve.shed").add(n);
        self.work.notify_all();
        notices
    }
}

/// Floor on every `retry_after_ms` hint. A cold daemon (empty
/// request-wall histogram, tiny backlog, many workers) can estimate an
/// arbitrarily small backoff — and a `0` tells clients to hammer the
/// socket immediately. No hint below this leaves the daemon.
pub const MIN_RETRY_AFTER_MS: u64 = 25;

/// The shed-response backoff hint: median observed request wall time
/// (from the `serve.request_wall_us` histogram) scaled by the backlog the
/// request would be behind, divided across workers, plus the shared
/// deterministic jitter so synchronized clients desynchronise. Falls back
/// to 100 ms per queued request before any run has completed. Always at
/// least [`MIN_RETRY_AFTER_MS`].
#[must_use]
pub fn retry_after_ms(key: &str, backlog: usize, workers: usize) -> u64 {
    let per_run_us =
        histo!("serve.request_wall_us").snapshot().quantile_upper_bound(0.5).unwrap_or(100_000);
    let backlog = u64::try_from(backlog).unwrap_or(u64::MAX).max(1);
    let workers = u64::try_from(workers.max(1)).unwrap_or(1);
    let estimate_ms = per_run_us.saturating_mul(backlog) / workers / 1_000;
    let jitter = u64::try_from(bitline_exec::backoff::retry_backoff(key).as_millis()).unwrap_or(21);
    estimate_ms.saturating_add(jitter).max(MIN_RETRY_AFTER_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink() -> ConnHandle {
        ConnHandle::spawn("adm-sink", Box::new(std::io::sink()), 8, Box::new(|| {}))
    }

    fn spec() -> SystemSpec {
        bitline_sim::spec::front_end_default()
    }

    fn offer(adm: &Admission, key: &str, priority: u8) -> Offer {
        let request = RunRequest {
            id: format!("id-{key}"),
            benchmark: "gcc".to_owned(),
            spec: spec(),
            priority,
            deadline_ms: None,
        };
        adm.offer(key, request, sink())
    }

    #[test]
    fn fifo_within_priority_and_priority_order_across() {
        let adm = Admission::new(8, 1, Arc::new(ServeStats::default()));
        assert!(matches!(offer(&adm, "c", 1), Offer::Queued));
        assert!(matches!(offer(&adm, "a", 0), Offer::Queued));
        assert!(matches!(offer(&adm, "b", 0), Offer::Queued));
        let order: Vec<String> = (0..3).map(|_| adm.next_job().unwrap().key).collect();
        assert_eq!(order, ["a", "b", "c"]);
        for key in ["a", "b", "c"] {
            assert_eq!(adm.complete(key).len(), 1);
        }
    }

    #[test]
    fn identical_keys_coalesce_until_completed() {
        let adm = Admission::new(8, 1, Arc::new(ServeStats::default()));
        assert!(matches!(offer(&adm, "k", 0), Offer::Queued));
        assert!(matches!(offer(&adm, "k", 0), Offer::Deduped));
        let job = adm.next_job().unwrap();
        // Still dedups while running, not just while queued.
        assert!(matches!(offer(&adm, "k", 0), Offer::Deduped));
        let subs = adm.complete(&job.key);
        assert_eq!(subs.len(), 3);
        assert_eq!(adm.stats().deduped.load(Ordering::Relaxed), 2);
        // After completion the key is free again: a repeat re-enqueues.
        assert!(matches!(offer(&adm, "k", 0), Offer::Queued));
    }

    #[test]
    fn full_queue_sheds_with_a_positive_hint_and_drain_sheds_pending() {
        let adm = Admission::new(1, 1, Arc::new(ServeStats::default()));
        assert!(matches!(offer(&adm, "first", 0), Offer::Queued));
        match offer(&adm, "second", 0) {
            Offer::Shed { reason, retry_after_ms } => {
                assert_eq!(reason, "queue full");
                assert!(retry_after_ms >= MIN_RETRY_AFTER_MS);
            }
            _ => panic!("expected shed"),
        }
        // Drain with "first" still pending: it is shed back to its
        // subscriber with a terminal hint, and workers see an empty queue.
        let notices = adm.begin_drain();
        assert_eq!(notices.len(), 1);
        assert_eq!(notices[0].subscriber.id, "id-first");
        assert!(notices[0].retry_after_ms >= MIN_RETRY_AFTER_MS);
        match offer(&adm, "third", 0) {
            Offer::Shed { reason, .. } => assert_eq!(reason, "draining"),
            _ => panic!("expected shed"),
        }
        assert!(adm.next_job().is_none(), "shed pending jobs never reach a worker");
        assert!(adm.begin_drain().is_empty(), "a second latch is a no-op");
        // 1 queue-full + 1 draining + 1 shed-by-drain.
        assert_eq!(adm.stats().shed.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn drain_with_a_job_in_flight_answers_it_and_sheds_the_rest() {
        let adm = Admission::new(8, 1, Arc::new(ServeStats::default()));
        assert!(matches!(offer(&adm, "running", 0), Offer::Queued));
        assert!(matches!(offer(&adm, "queued", 0), Offer::Queued));
        let job = adm.next_job().unwrap();
        assert_eq!(job.key, "running");

        let notices = adm.begin_drain();
        assert_eq!(notices.len(), 1, "only the pending job is shed");
        assert_eq!(notices[0].subscriber.id, "id-queued");

        // The in-flight job still completes and reaches its subscriber.
        let subs = adm.complete(&job.key);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].id, "id-running");
        assert_eq!(adm.stats().drained.load(Ordering::Relaxed), 1);
        assert!(adm.next_job().is_none());
    }

    #[test]
    fn retry_hint_is_deterministic_for_a_key_and_floored() {
        let a = retry_after_ms("gcc@0000000000000000", 4, 2);
        let b = retry_after_ms("gcc@0000000000000000", 4, 2);
        assert_eq!(a, b);
        assert!(a >= MIN_RETRY_AFTER_MS);
        // The degenerate case that used to yield ~0: nothing in the wall
        // histogram for the estimate to use, no backlog, a huge worker
        // count. The floor must bind no matter what the estimate says.
        assert!(retry_after_ms("cold@0000000000000000", 0, 1_000_000) >= MIN_RETRY_AFTER_MS);
    }
}
