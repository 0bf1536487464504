//! # bitline — near-optimal precharging in nanoscale CMOS caches
//!
//! Facade crate for the `bitline` workspace: a Rust reproduction of
//! Yang & Falsafi, *"Near-Optimal Precharging in High-Performance Nanoscale
//! CMOS Caches"*, MICRO-36 (2003).
//!
//! The workspace implements the paper's contribution — **gated precharging**
//! of cache subarrays based on subarray reference locality — together with
//! every substrate its evaluation depends on: CMOS technology models, a
//! CACTI/SPICE-like circuit layer, a subarray-organised cache hierarchy, an
//! 8-wide out-of-order superscalar simulator with load-hit speculation and
//! selective replay, synthetic SPEC2000/Olden-like workloads, and
//! Wattch-like energy accounting.
//!
//! Each subsystem lives in its own crate and is re-exported here under a
//! short module name:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`cmos`] | `bitline-cmos` | technology nodes, scaling laws (Table 1) |
//! | [`circuit`] | `bitline-circuit` | RC transients, decoder timing, energies (Fig 2, Table 3) |
//! | [`trace`] | `bitline-trace` | dynamic instruction records |
//! | [`workloads`] | `bitline-workloads` | 16 synthetic SPEC2000/Olden-like generators |
//! | [`cache`] | `bitline-cache` | subarray-organised caches, MSHRs, hierarchy |
//! | [`precharge`] | `gated-precharge` | **the paper's contribution**: precharge policies |
//! | [`cpu`] | `bitline-cpu` | 8-wide 16-stage out-of-order core |
//! | [`energy`] | `bitline-energy` | Wattch-like accounting and reductions |
//! | [`faults`] | `bitline-faults` | leakage-upset injection, detection/replay, fail-safe pinning |
//! | [`sim`] | `bitline-sim` | full-system runner and per-figure experiments |
//!
//! # Quick start
//!
//! ```
//! use bitline::cmos::TechnologyNode;
//!
//! // The four nodes of Table 1.
//! assert_eq!(TechnologyNode::ALL.len(), 4);
//! ```

#![forbid(unsafe_code)]

pub use bitline_cache as cache;
pub use bitline_circuit as circuit;
pub use bitline_cmos as cmos;
pub use bitline_cpu as cpu;
pub use bitline_energy as energy;
pub use bitline_faults as faults;
pub use bitline_sim as sim;
pub use bitline_trace as trace;
pub use bitline_workloads as workloads;
pub use gated_precharge as precharge;
