//! `bitline-serve` — a crash-tolerant simulation daemon in front of the
//! run cache, journal and exec pool.
//!
//! Experiment requests arrive as line-delimited JSON over a unix socket
//! (TCP optional), are validated fail-fast with `SystemSpec::validate`,
//! deduplicated by their spec key (`checkpoint::spec_key`) while in
//! flight (one computation, N subscribers), and scheduled on a worker
//! pool that passes each request's deadline to the experiment harness's
//! `isolated`, which arms the run's `CancelToken`. Results stream back
//! with explicit `ok | timeout | shed | error` terminal statuses.
//!
//! Robustness is a three-stage ladder, mirroring the precharge policies'
//! own staged-degradation framing (and the ECC crate's fail-safe ladder):
//!
//! 1. **normal** — bounded admission queue, FIFO within priority;
//! 2. **overload** — a full queue sheds with a `retry_after_ms` hint
//!    derived from the observed request-wall histogram;
//! 3. **drain** — SIGTERM (or the `drain` op) closes admission, finishes
//!    in-flight runs, and exits 0.
//!
//! SIGKILL at any point is recoverable by construction: every completed
//! run is appended to the crash-safe `exec::journal` *before* its
//! response is sent, so a restarted daemon warms its cache from the
//! journal and answers repeat requests with `replayed > 0,
//! recomputed == 0`. A worker panic is isolated per request (the
//! experiment harness's `isolated` semantics) and yields an `error`
//! response for that request only — never a dead daemon.
//!
//! See DESIGN.md ("Serving") for the protocol grammar and the degradation
//! ladder's exact semantics.

// `deny`, not the workspace's usual `forbid`: the signal module needs one
// audited `unsafe` block to reach libc's `signal(2)` (see its module docs)
// and carries a scoped `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod conn;
pub mod protocol;
pub mod server;
#[allow(unsafe_code)]
pub mod signal;

pub use admission::{Admission, ServeStats, MIN_RETRY_AFTER_MS};
pub use conn::ConnHandle;
pub use protocol::{parse_request, Request, RunRequest, RunRow};
pub use server::{production_runner, Runner, ServeConfig, Server};
