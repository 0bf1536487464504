//! Child processes measured the way a user runs them: spawn-to-exit wall
//! time, exit status and peak RSS read through `wait4(2)`, plus the guards
//! that make sure no child outlives the benchmark.
//!
//! `std` already links libc, so the two calls needed here are declared
//! directly instead of pulling in a crate.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("bitline-perf reads `struct rusage` through the 64-bit Linux ABI");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which only `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// How a child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Peak resident set size in KiB.
    pub max_rss_kib: u64,
    /// Spawn to reap.
    pub wall: Duration,
}

impl Exit {
    /// Whether the child exited with status 0.
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// A spawned child that is killed and reaped if dropped unreaped, so a
/// panic or an early return never leaves a daemon or a simulation behind.
pub struct Guarded {
    child: Child,
    started: Instant,
    /// Set once `wait4` has reaped the child, after which `Drop` must not
    /// signal its (possibly recycled) pid.
    reaped: bool,
}

impl Guarded {
    /// Spawns `cmd`, starting the wall clock just before the fork.
    pub fn spawn(cmd: &mut Command) -> io::Result<Guarded> {
        let started = Instant::now();
        let child = cmd.spawn()?;
        Ok(Guarded { child, started, reaped: false })
    }

    /// When the child was spawned.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Waits for the child to exit on its own. On error the child is
    /// killed and reaped by `Drop`.
    pub fn reap(mut self) -> io::Result<Exit> {
        let pid = self.pid()?;
        let mut status = 0i32;
        let mut usage = Rusage::default();
        loop {
            // SAFETY: both out-pointers refer to live locals of the right
            // type and size; `pid` is our own child, which nothing else
            // reaps.
            let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if r == pid {
                break;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        self.reaped = true;
        let wall = self.started.elapsed();
        // WIFEXITED / WEXITSTATUS.
        let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
        Ok(Exit { code, max_rss_kib: u64::try_from(usage.ru_maxrss).unwrap_or(0), wall })
    }

    /// Sends SIGTERM and waits for the child to exit.
    pub fn terminate(self) -> io::Result<Exit> {
        // SAFETY: `kill` has no memory-safety preconditions; the pid is our
        // own child, not yet reaped, so the id cannot have been recycled.
        if unsafe { kill(self.pid()?, SIGTERM) } != 0 {
            return Err(io::Error::last_os_error());
        }
        self.reap()
    }

    fn pid(&self) -> io::Result<i32> {
        i32::try_from(self.child.id()).map_err(|_| io::Error::other("child pid out of range"))
    }
}

impl Drop for Guarded {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Strips every `BITLINE_*` variable from a child's environment, so the
/// benchmark's own environment cannot arm ECC, undervolt, failpoints or a
/// different instruction count behind its back.
pub fn clean_env(cmd: &mut Command) -> &mut Command {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BITLINE_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// The one scratch directory for sockets, journals and child output,
/// relative to the repository root (short enough for a unix socket path)
/// and removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `.perf-tmp-<pid>` in the current directory.
    pub fn new() -> io::Result<TempDir> {
        let path = PathBuf::from(format!(".perf-tmp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
