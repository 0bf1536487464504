//! Structured spans: coarse unit-of-work markers with wall-clock timing
//! and key/value fields, recorded into a bounded process-global ring
//! buffer on drop.
//!
//! Spans are for figure drivers, benchmark runs and suite units — scopes
//! measured in milliseconds — never for the simulator hot loop. Opening a
//! span allocates; closing one takes the ring-buffer mutex once.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Ring-buffer capacity; older spans are dropped (and counted in the
/// `obs.spans.dropped` counter) once the buffer is full.
pub const SPAN_CAPACITY: usize = 8_192;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Hierarchical span name, e.g. `fig8/run`.
    pub name: String,
    /// Key/value annotations in the order they were attached.
    pub fields: Vec<(String, String)>,
    /// Start time in microseconds since the process epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Name of the thread the span closed on (empty when unnamed).
    pub thread: String,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the (lazily armed) process epoch.
#[must_use]
pub fn epoch_micros() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn ring() -> &'static Mutex<VecDeque<SpanRecord>> {
    static RING: Mutex<VecDeque<SpanRecord>> = Mutex::new(VecDeque::new());
    &RING
}

fn push(record: SpanRecord) {
    let mut ring = ring().lock().unwrap_or_else(PoisonError::into_inner);
    if ring.len() >= SPAN_CAPACITY {
        ring.pop_front();
        crate::counter!("obs.spans.dropped").incr();
    }
    ring.push_back(record);
}

/// An open span; records itself into the ring buffer when dropped.
#[derive(Debug)]
pub struct Span {
    name: String,
    fields: Vec<(String, String)>,
    start_us: u64,
    started: Instant,
}

impl Span {
    /// Attaches a `key = value` annotation; chainable.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.fields.push((key.to_owned(), value.to_string()));
        self
    }

    /// Closes the span now (otherwise it closes on drop).
    pub fn close(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let record = SpanRecord {
            name: std::mem::take(&mut self.name),
            fields: std::mem::take(&mut self.fields),
            start_us: self.start_us,
            dur_us: u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX),
            thread: std::thread::current().name().unwrap_or_default().to_owned(),
        };
        push(record);
    }
}

/// Opens a span named `name`; annotate it with [`Span::field`] and let the
/// guard drop (or call [`Span::close`]) to record it.
///
/// ```
/// let _span = bitline_obs::span("fig8/run").field("benchmark", "mesa");
/// ```
#[must_use]
pub fn span(name: &str) -> Span {
    // Arm the epoch before reading the start offset so the first span of
    // the process starts at ~0.
    let start_us = epoch_micros();
    Span { name: name.to_owned(), fields: Vec::new(), start_us, started: Instant::now() }
}

/// All spans currently in the ring buffer, oldest first.
#[must_use]
pub fn recent_spans() -> Vec<SpanRecord> {
    ring().lock().unwrap_or_else(PoisonError::into_inner).iter().cloned().collect()
}

/// Empties the span ring buffer.
pub fn clear_spans() {
    ring().lock().unwrap_or_else(PoisonError::into_inner).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring is process-global and tests run on parallel threads: a test
    /// that clears and then inspects it holds this lock, so another test's
    /// `clear_spans` cannot empty the ring under it.
    fn exclusive_ring() -> std::sync::MutexGuard<'static, ()> {
        static RING_TESTS: Mutex<()> = Mutex::new(());
        RING_TESTS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn spans_record_name_fields_and_duration() {
        let _ring = exclusive_ring();
        clear_spans();
        {
            let _s = span("test/outer").field("benchmark", "mesa").field("n", 3);
        }
        let spans = recent_spans();
        let s = spans.iter().find(|s| s.name == "test/outer").expect("span recorded");
        assert_eq!(
            s.fields,
            vec![("benchmark".to_owned(), "mesa".to_owned()), ("n".to_owned(), "3".to_owned())]
        );
        assert!(s.start_us <= epoch_micros());
    }

    #[test]
    fn close_records_immediately() {
        let _ring = exclusive_ring();
        clear_spans();
        span("test/closed").close();
        assert!(recent_spans().iter().any(|s| s.name == "test/closed"));
    }

    #[test]
    fn ring_is_bounded() {
        let _ring = exclusive_ring();
        clear_spans();
        for i in 0..SPAN_CAPACITY + 10 {
            span("test/bulk").field("i", i).close();
        }
        assert_eq!(recent_spans().len(), SPAN_CAPACITY);
    }
}
