//! Execution layer for suite-wide experiments.
//!
//! Every figure/table driver walks the sixteen-benchmark suite through the
//! same three steps: generate a synthetic trace, simulate it under some
//! system configuration, and price the result. That work is
//! embarrassingly parallel across benchmarks and heavily redundant across
//! configurations (every sweep re-runs the static baseline, every driver
//! regenerates the same trace). This crate supplies the three primitives
//! the drivers are rebuilt on:
//!
//! * [`pool`] — a scoped work pool over [`std::thread::scope`] whose job
//!   count a caller pins with [`pool::set_jobs`] (`bitline-sim --jobs`;
//!   default: available parallelism). Results are returned in submission
//!   order, so callers are deterministic regardless of the job count.
//! * [`MemoCache`] — a concurrent memoization table with per-key
//!   once-only computation and hit/miss counters. `bitline-sim` keys it by
//!   the benchmark and the spec's canonical text, so baselines and
//!   repeated sweep points are simulated once per process.
//! * [`TraceStore`] — a shared, lazily-materialised store of synthetic
//!   workload traces keyed by `(benchmark, seed)`; concurrent runs replay
//!   the same generated prefix through cheap [`TraceCursor`]s instead of
//!   regenerating it. A stream has one owner: `bitline-sim` gives each
//!   unit of work a store of its own, so a unit's streams are freed when
//!   it returns, `bitline-serve` keeps one store for the daemon's life, and
//!   a lockstep set of runs reads a [`TraceCursor::window`] of its own.
//!
//! Two supervision primitives ride on top: a [`CancelToken`] gives a unit
//! of work a pollable wall-clock budget (the pool arms none; the unit's
//! supervisor creates one per attempt when the unit starts), and
//! [`journal`] is a crash-safe append-only checkpoint journal so a killed
//! sweep can resume from its completed prefix instead of recomputing it.
//!
//! The determinism argument is simple: each unit of work is a pure
//! function of its inputs (simulations are seeded and self-contained), the
//! pool reorders only *scheduling*, never results, and both caches hand
//! every reader the exact value a cold computation would have produced.
//!
//! # Examples
//!
//! ```
//! use bitline_exec::{pool, MemoCache};
//!
//! let squares = pool::run_indexed(4, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9]);
//!
//! let cache: MemoCache<u32, u32> = MemoCache::new();
//! assert_eq!(cache.get_or_insert_with(7, || 49), 49);
//! assert_eq!(cache.get_or_insert_with(7, || unreachable!()), 49);
//! assert_eq!(cache.stats().hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod journal;
mod memo;
pub mod pool;
mod supervise;
mod traces;

pub use journal::{atomic_write, Journal, JournalEntry, LoadReport};
pub use memo::{CacheStats, MemoCache};
pub use supervise::CancelToken;
pub use traces::{retained_trace_bytes, TraceCursor, TraceStore, TraceStoreStats};
