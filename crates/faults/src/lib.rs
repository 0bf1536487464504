//! Fault injection and recovery for gated-precharge caches.
//!
//! Gated precharging deliberately lets cold subarrays' bitlines leak
//! (Section 6 of the paper); in real nanoscale CMOS that means a read
//! against a partially discharged subarray can fall below sense margin —
//! the variability regime of Mukhopadhyay et al.'s leakage analysis and the
//! read-failure territory TS Cache guards with timing speculation and
//! replay. This crate makes that failure mode simulable:
//!
//! * [`FaultInjector`] — deterministic, seeded fault source: sense-margin
//!   read upsets on cold accesses, per-subarray process-variation leakage
//!   multipliers (log-normal), and decay-counter bit flips;
//! * [`FaultInjectingPolicy`] — a decorator over any
//!   [`PrechargePolicy`](bitline_cache::PrechargePolicy) that injects those
//!   faults and raises [`FaultEvent`](bitline_cache::FaultEvent)s for the
//!   cache to recover from (full-precharge replay on detection);
//! * [`FaultReport`] — injected / detected / replayed / silent accounting,
//!   per subarray, with graceful-degradation (fail-safe pinning) status.
//!
//! With [`FaultConfig::ecc`] armed the decorator routes every upset
//! through the (72,64) SECDED codec of `bitline-ecc` instead of the
//! binary detector: outcomes become corrected / DUE / SDC (tracked in a
//! [`ReliabilityReport`](bitline_ecc::ReliabilityReport)), latent
//! corrected-on-read errors accumulate until a background or demand scrub
//! clears them, and subarrays walk a three-stage degradation ladder
//! (correct in place → scrub-on-detect → fail-safe pin).
//!
//! # Examples
//!
//! ```
//! use bitline_cache::{PrechargePolicy, StaticPullUp};
//! use bitline_faults::{FaultConfig, FaultInjectingPolicy};
//!
//! let inner = Box::new(StaticPullUp::new(8));
//! let mut p = FaultInjectingPolicy::new(inner, FaultConfig::disabled(), 8);
//! // Disabled injection is fully transparent.
//! assert_eq!(p.access(3, 10), 0);
//! assert!(p.take_fault().is_none());
//! assert!(p.report().is_consistent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod injector;
mod policy;
mod report;
mod rng;
mod vdd;

pub use config::FaultConfig;
pub use injector::FaultInjector;
pub use policy::FaultInjectingPolicy;
pub use report::{FaultReport, SubarrayFaults};
pub use rng::SplitMix64;
pub use vdd::{GovernorConfig, SubarrayVdd, VddConfig, VddReport, VddStep};
