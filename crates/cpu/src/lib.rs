//! Trace-driven out-of-order superscalar simulator.
//!
//! Models the paper's base system (Table 2): an 8-wide, 16-stage
//! out-of-order core with a 128-entry reorder buffer, 64-entry issue queue
//! and load/store queue, a combining branch predictor, and — crucially for
//! this study — **load-hit speculation with selective (Pentium-4-style)
//! replay** (Section 6.3): instructions dependent on a load issue
//! speculatively assuming the L1 hit latency; when the load takes longer
//! (a miss, or a gated-precharging pull-up delay) the dependent chain is
//! squashed and reissued, costing issue bandwidth and energy.
//!
//! The core is trace-driven by any [`bitline_trace::TraceSource`] and sends
//! every fetch and data access through a [`bitline_cache::MemorySystem`],
//! whose precharge policies create the latency variation under study.
//!
//! # Examples
//!
//! ```
//! use bitline_cache::{MemorySystem, MemorySystemConfig};
//! use bitline_cpu::{Cpu, CpuConfig};
//! use bitline_workloads::suite;
//! use gated_precharge::StaticPullUp;
//!
//! let mem_cfg = MemorySystemConfig::default();
//! let mem = MemorySystem::new(
//!     mem_cfg,
//!     Box::new(StaticPullUp::new(mem_cfg.l1d.subarrays())),
//!     Box::new(StaticPullUp::new(mem_cfg.l1i.subarrays())),
//! );
//! let mut cpu = Cpu::new(CpuConfig::default(), mem);
//! let mut trace = suite::by_name("mesa").unwrap().build(1);
//! let stats = cpu.run(&mut trace, 10_000);
//! assert!(stats.ipc() > 0.1 && stats.ipc() < 8.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bpred;
mod config;
mod core;
mod stats;

pub use bpred::{BranchPredictor, BtbEntry};
pub use config::{CpuConfig, ReplayScope};
pub use core::{CoreWork, Cpu};
pub use stats::SimStats;
