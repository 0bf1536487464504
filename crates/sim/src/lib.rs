//! Full-system simulation driver and experiment harness.
//!
//! Binds the workspace together — synthetic workloads feeding the
//! out-of-order core, whose L1s run a chosen precharge policy — and
//! provides a typed driver and a renderer per table/figure of the paper
//! under [`experiments`], whose [`experiments::ALL`] table is the list of
//! `bitline-sim` experiment commands.
//!
//! A key structural property the harness exploits: the pipeline is scaled
//! so cycle-counted latencies are identical across technology nodes
//! (8-FO4 clock, Section 3), so one *architectural* run per (benchmark,
//! policy) serves every node — only the energy pricing is node-specific
//! ([`RunResult::energy`]).
//!
//! Suite-wide experiments run on the `bitline-exec` execution layer:
//! benchmarks execute in parallel (`--jobs` jobs, default available
//! parallelism), completed runs are memoized by `(benchmark,
//! [`SystemSpec`])` ([`try_run_benchmark_cached`], stats via
//! [`run_cache_stats`]), and each `(benchmark, seed)` synthetic trace is
//! generated once per owner ([`with_traces`]) and replayed into every run
//! of it that reads it. Figure output is byte-identical regardless of job
//! count.
//!
//! # Examples
//!
//! ```
//! use bitline_cmos::TechnologyNode;
//! use bitline_sim::{PolicyKind, SystemSpec};
//!
//! let spec = SystemSpec {
//!     d_policy: PolicyKind::Gated { threshold: 100 },
//!     i_policy: PolicyKind::Gated { threshold: 100 },
//!     instructions: 5_000,
//!     ..SystemSpec::default()
//! };
//! let run = bitline_sim::try_run_benchmark("health", &spec)?;
//! let (policy, baseline) = run.energy(TechnologyNode::N70);
//! assert!(policy.d.bitline_discharge_j() < baseline.d.bitline_discharge_j());
//! # Ok::<(), bitline_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod config;
mod error;
mod execution;
pub mod experiments;
pub mod metrics;
mod recorder;
mod runner;
pub mod spec;
pub mod supervise;

pub use bitline_energy::LeakageKind;
pub use config::{FaultSpec, HierarchySpec, PolicyKind, SystemSpec, VddSpec};
pub use error::SimError;
pub use execution::{
    checkpoint_stats, clear_checkpoint, clear_run_caches, exec_summary_line, run_cache_stats,
    set_checkpoint, try_run_benchmark_cached, try_run_lockstep_cached, with_traces,
    CheckpointStats,
};
pub use recorder::{LocalityRecorder, LocalityStats, FIG5_BUCKETS, FIG6_THRESHOLDS};
pub use runner::{
    try_run_benchmark, try_run_benchmark_supervised, EnergyPair, Level, LevelRun, RunEnergy,
    RunResult,
};

/// Validates `BITLINE_INSTRS` and `BITLINE_SUITE` fail-fast (zero,
/// garbage or an unknown benchmark is an error, not a silent fallback) and
/// arms `BITLINE_FAILPOINTS`, so a malformed spec kills the driver at
/// startup. Failpoints are armed nowhere else.
///
/// # Errors
///
/// A human-readable message naming the malformed variable.
pub fn init_supervision_from_env() -> Result<(), String> {
    instructions_from_env()?;
    experiments::harness::suite_from_env()?;
    bitline_failpoint::init_from_env()?;
    Ok(())
}

/// Environment variables that once duplicated a command-line flag, with
/// the flag that replaced each. They are read nowhere now, so a stale one
/// in a shell would be silently ignored; [`reject_retired_env`] refuses to
/// start instead.
pub const RETIRED_ENV: [(&str, &str); 4] = [
    ("BITLINE_JOBS", "--jobs"),
    ("BITLINE_RUN_BUDGET", "--run-budget (bitline-sim) or --request-budget (bitline-serve)"),
    ("BITLINE_CHECKPOINT", "--checkpoint"),
    ("BITLINE_NO_RESUME", "--no-resume"),
];

/// Fails when a retired environment variable is set, naming the flag that
/// replaced it. `bitline-sim` and `bitline-serve --serve` call this before
/// any run.
///
/// # Errors
///
/// A message naming the variable and its flag.
pub fn reject_retired_env() -> Result<(), String> {
    match RETIRED_ENV.iter().find(|(var, _)| std::env::var_os(var).is_some()) {
        Some((var, flag)) => Err(format!("{var} is no longer read; unset it and pass {flag}")),
        None => Ok(()),
    }
}

/// Instructions per run for the experiment drivers: `BITLINE_INSTRS`,
/// else [`SystemSpec::default`]'s 150 000. Entry points validate the
/// variable at startup ([`init_supervision_from_env`]).
#[must_use]
pub fn default_instructions() -> u64 {
    instructions_from_env().ok().flatten().unwrap_or(SystemSpec::default().instructions)
}

/// `BITLINE_INSTRS`, `None` when unset.
fn instructions_from_env() -> Result<Option<u64>, String> {
    let Ok(v) = std::env::var("BITLINE_INSTRS") else { return Ok(None) };
    match v.trim().parse() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!("BITLINE_INSTRS: `{v}` is not a positive instruction count")),
    }
}
