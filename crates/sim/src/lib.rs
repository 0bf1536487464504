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
//! benchmarks execute in parallel (`BITLINE_JOBS` jobs, default available
//! parallelism), completed runs are memoized by `(benchmark,
//! [`SystemSpec`])` ([`try_run_benchmark_cached`], stats via
//! [`run_cache_stats`]), and each `(benchmark, seed)` synthetic trace is
//! generated once and replayed into every run that wants it. Figure
//! output is byte-identical regardless of job count.
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
//! let run = bitline_sim::run_benchmark("health", &spec);
//! let (policy, baseline) = run.energy(TechnologyNode::N70);
//! assert!(policy.d.bitline_discharge_j() < baseline.d.bitline_discharge_j());
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
    checkpoint_stats, clear_checkpoint, clear_run_caches, exec_summary_line, run_benchmark_cached,
    run_cache_stats, set_checkpoint, trace_store_stats, try_run_benchmark_cached, CheckpointStats,
};
pub use recorder::{LocalityRecorder, LocalityStats, FIG5_BUCKETS, FIG6_THRESHOLDS};
pub use runner::{
    run_benchmark, try_run_benchmark, try_run_benchmark_supervised, EnergyPair, Level, LevelRun,
    RunEnergy, RunResult,
};

/// Applies the supervision environment variables: `BITLINE_RUN_BUDGET`
/// (per-run wall-clock budget) and `BITLINE_CHECKPOINT` (checkpoint
/// directory; `BITLINE_NO_RESUME=1` starts its journal afresh), and
/// validates `BITLINE_JOBS`, `BITLINE_INSTRS` and `BITLINE_SUITE`
/// fail-fast (zero, garbage or an unknown benchmark is an error, not a
/// silent fallback). `bitline-sim`'s flags override these.
///
/// # Errors
///
/// A human-readable message for a malformed variable or an unopenable
/// checkpoint directory.
pub fn init_supervision_from_env() -> Result<(), String> {
    // Fail fast on BITLINE_JOBS=0 or garbage instead of the pool's silent
    // auto fallback, matching the `--scrub-period 0` precedent.
    bitline_exec::pool::jobs_from_env()?;
    instructions_from_env()?;
    experiments::harness::suite_from_env()?;
    supervise::init_run_budget_from_env()?;
    // Arm BITLINE_FAILPOINTS (and its seed) now so a malformed spec kills
    // the driver at startup instead of a one-time warning mid-run.
    bitline_failpoint::init_from_env()?;
    if let Ok(dir) = std::env::var("BITLINE_CHECKPOINT") {
        let resume = std::env::var("BITLINE_NO_RESUME").map_or(true, |v| v != "1");
        set_checkpoint(std::path::Path::new(&dir), resume)
            .map_err(|e| format!("BITLINE_CHECKPOINT: {e}"))?;
    }
    Ok(())
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
