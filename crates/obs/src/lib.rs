//! Observability for the bitline workspace: a process-global metrics
//! registry, a structured span recorder, and a JSON-lines exporter.
//!
//! The design splits along the cost gradient of the simulator:
//!
//! * **Metrics** ([`registry`](mod@registry)) are atomic counters, gauges, and
//!   power-of-two histograms behind `Arc` handles. The [`counter!`],
//!   [`gauge!`] and [`histo!`] macros cache their handle in a `static
//!   OnceLock`, so a hot-path increment costs one `OnceLock` load plus one
//!   relaxed atomic add — cheap enough for the simulator's
//!   per-2048-instruction chunk boundary, the same cadence as the
//!   cancel-token poll.
//! * **Spans** ([`span`](mod@span)) are coarse, allocating markers for unit-of-work
//!   scopes (a figure driver, one benchmark run). A dropped span records
//!   its wall time into a bounded ring buffer; nothing in the simulator
//!   hot loop ever opens a span.
//! * **Export** ([`export`]) renders a snapshot of both worlds as
//!   schema-checked JSON lines and validates them; the file is written by
//!   the caller (`bitline-sim --metrics` writes it atomically through
//!   `bitline-exec`'s temp-file-and-rename).
//!
//! Everything is hand-rolled on `std` — no external dependencies, no
//! `unsafe` — so the crate stays hermetic under the workspace's offline
//! shim policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod registry;
pub mod span;

pub use export::{
    parse_jsonl, render_jsonl, summary_table, validate_jsonl, Record, ValidationReport,
};
pub use registry::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use span::{clear_spans, epoch_micros, recent_spans, span, Span, SpanRecord};

/// Resets every global observable: metric values are zeroed in place (all
/// cached handles stay valid) and the span ring buffer is emptied.
/// Intended for tests and for the CLI's per-invocation baseline.
pub fn reset() {
    registry().reset();
    clear_spans();
}
