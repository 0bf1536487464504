//! Minimal SIGTERM hook for the drain stage.
//!
//! The workspace is std-only, so instead of a signal-handling crate this
//! module declares libc's `signal(2)` directly (std already links libc on
//! unix) and installs a handler that only stores to an `AtomicBool` —
//! the one thing that is unconditionally async-signal-safe. The daemon's
//! main thread polls [`termination_requested`] while the acceptor threads
//! block in `accept`, and it wakes them itself to drain, so glibc's
//! default BSD `signal` semantics (`SA_RESTART`) never matter: no
//! blocking call needs to be interrupted.
//!
//! SIGKILL needs no handler by design: every completed run was journaled
//! before its response was sent, so a killed daemon restarts warm.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    /// `SIGTERM` on every unix this workspace targets.
    const SIGTERM: i32 = 15;

    extern "C" fn on_term(_sig: i32) {
        super::TERM.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub(super) fn install() {
        // SAFETY: `signal` is the POSIX libc entry point; the handler only
        // performs an atomic store, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_term);
        }
    }
}

/// Installs the SIGTERM handler (idempotent; no-op on non-unix targets).
pub fn install_sigterm() {
    #[cfg(unix)]
    sys::install();
}

/// Whether a SIGTERM has arrived since [`install_sigterm`].
#[must_use]
pub fn termination_requested() -> bool {
    TERM.load(Ordering::Relaxed)
}
