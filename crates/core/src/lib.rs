//! Bitline precharge policies — the paper's contribution.
//!
//! High-performance caches statically pull up the bitlines of **all**
//! subarrays to hide precharge latency, burning leakage energy in every
//! unaccessed subarray. *Bitline isolation* turns off the precharge devices
//! of subarrays that will not be accessed soon; the architectural question
//! is *which* subarrays, *when*. This crate implements the full spectrum of
//! answers studied in Yang & Falsafi (MICRO-36, 2003):
//!
//! | Policy | Timeliness | Accuracy | Paper section |
//! |---|---|---|---|
//! | [`StaticPullUp`] | — (baseline) | — | §2 |
//! | [`OraclePolicy`] | perfect | perfect | §4 (potential) |
//! | [`OnDemandPolicy`] | **late** (+1 cycle/access) | perfect | §5 |
//! | [`GatedPolicy`] | early (locality) | high | §6 (**contribution**) |
//! | [`ResizablePolicy`] | early (coarse) | coarse | §6.4 baseline [22] |
//!
//! Gated precharging keeps a subarray precharged for `threshold` cycles
//! after its last access (a per-subarray decay counter + comparator); cold
//! accesses pay one pull-up cycle. For data caches, *predecoding* hints
//! (from base-register values, via [`GatedPolicy::hint`] /
//! [`bitline_cache::PrechargePolicy::hint`]) precharge the predicted
//! subarray before the access arrives.
//!
//! # Examples
//!
//! ```
//! use bitline_cache::PrechargePolicy;
//! use gated_precharge::GatedPolicy;
//!
//! let mut gated = GatedPolicy::new(32, 100, 1);
//! assert_eq!(gated.access(5, 10), 0, "initially precharged");
//! assert_eq!(gated.access(5, 50), 0, "still hot");
//! assert_eq!(gated.access(5, 500), 1, "went cold after 100 idle cycles");
//! let report = gated.finalize(1000);
//! assert_eq!(report.total_delayed(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod drowsy;
mod gated;
mod on_demand;
mod oracle;
mod resizable;
mod static_pullup;

pub use adaptive::{AdaptiveConfig, AdaptiveGatedPolicy};
pub use drowsy::DrowsyPolicy;
pub use gated::{GatedPolicy, HINT_WINDOW};
pub use on_demand::OnDemandPolicy;
pub use oracle::OraclePolicy;
pub use resizable::{ResizableConfig, ResizablePolicy};
pub use static_pullup::StaticPullUp;

/// Default decay threshold in cycles. The paper's per-benchmark optima are
/// "on the order of 10 to 1000, with most clustered around 100"
/// (Section 6.4); 100 is also its constant-threshold reference point.
pub const DEFAULT_THRESHOLD: u64 = 100;
