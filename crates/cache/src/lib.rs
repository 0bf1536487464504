//! Subarray-organised cache models for the `bitline` workspace.
//!
//! High-performance L1 caches divide their data array into subarrays to
//! shorten bitlines (Section 2 of the paper); which subarrays are kept
//! precharged is the knob the paper's techniques turn. This crate provides:
//!
//! * [`CacheConfig`] — geometry of a cache (Table 2's L1s by default) and
//!   the address → set → subarray mapping;
//! * [`L1Cache`] — a set-associative tag/data model with per-subarray
//!   activity accounting, pluggable [`PrechargePolicy`], and support for
//!   dynamic resizing (for the resizable-cache baseline);
//! * [`Mshr`], [`MemorySystem`] — the rest of the hierarchy (a 512 KB
//!   unified L2, itself an [`L1Cache`] behind [`StaticPullUp`], 8 MSHRs,
//!   100-cycle + 4-cycle/8 B memory);
//! * [`PrechargePolicy`] and [`ActivityReport`] — the interface the
//!   policies in the `gated-precharge` crate implement, and the activity
//!   statistics the Wattch-like accounting in `bitline-energy` consumes.
//!   [`StaticPullUp`], the conventional baseline, lives here.
//!
//! # Examples
//!
//! ```
//! use bitline_cache::CacheConfig;
//!
//! let l1d = CacheConfig::l1_data();
//! assert_eq!(l1d.sets(), 512);
//! assert_eq!(l1d.subarrays(), 32);
//! // Consecutive 512 B regions map to different subarrays.
//! assert_ne!(l1d.subarray_of(0x1000), l1d.subarray_of(0x1000 + 512));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod l1;
mod mshr;
mod policy;
mod static_pullup;
mod system;
mod waypred;

pub use config::CacheConfig;
pub use l1::{AccessResult, L1Cache};
pub use mshr::Mshr;
pub use policy::{
    ActivityReport, FaultEvent, IdleHistogram, PrechargePolicy, ResizeRequest, SubarrayActivity,
    IDLE_BUCKETS,
};
pub use static_pullup::StaticPullUp;
pub use system::{AccessOutcome, MemorySystem, MemorySystemConfig};
pub use waypred::{WayPredictor, WayStats};
