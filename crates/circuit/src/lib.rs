//! Circuit-level models for the `bitline` workspace.
//!
//! This crate stands in for the paper's modified CACTI 3.2 + SPICE setup
//! (Section 3). It provides:
//!
//! * [`SubarrayGeometry`] — rows/columns/bitline organisation of a cache
//!   subarray, derived from subarray size, line size and port count;
//! * [`BitlineModel`] — capacitance, leakage and static power of the bitline
//!   network of one subarray;
//! * [`TransientSim`] — the post-isolation bitline power transient of
//!   Figure 2, integrated with forward Euler, plus episode-energy accounting
//!   (isolation-event overhead vs. static pull-up burn);
//! * [`DecoderModel`] — the three-stage address decoder delays and the
//!   worst-case bitline pull-up delay of Table 3, which together decide that
//!   on-demand precharging cannot hide under address decode (Section 5);
//! * [`SubarrayEnergyModel`] — per-event and per-cycle energies consumed by
//!   the Wattch-like accounting in `bitline-energy`.
//!
//! # Examples
//!
//! ```
//! use bitline_circuit::{DecoderModel, SubarrayGeometry};
//! use bitline_cmos::TechnologyNode;
//!
//! let geom = SubarrayGeometry::for_cache(1024, 32, 2, 32 * 1024);
//! let decoder = DecoderModel::new(TechnologyNode::N70, geom);
//! // The paper's central timing fact: worst-case pull-up exceeds the final
//! // decode stage, so on-demand precharging costs an extra cycle.
//! assert!(decoder.worst_case_pullup_ns() > decoder.final_decode_ns());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitline;
mod decoder;
mod energy;
mod geometry;
mod transient;

pub use bitline::BitlineModel;
pub use decoder::{DecodeDelays, DecoderModel};
pub use energy::{vdd_dynamic_energy_factor, vdd_leakage_energy_factor, SubarrayEnergyModel};
pub use geometry::SubarrayGeometry;
pub use transient::{TransientPoint, TransientSim};
