//! Shared, lazily-materialised synthetic traces.
//!
//! `WorkloadSpec::build(seed)` is deterministic, so every run of the same
//! `(benchmark, seed)` pair consumes the same instruction stream — yet the
//! serial drivers used to regenerate it for every configuration of every
//! sweep. A [`TraceStore`] generates each stream once, on demand, into
//! immutable columnar [`Segment`]s (`bitline_trace::columnar`); concurrent
//! runs replay it through [`TraceCursor`]s that share segments by
//! reference count — no copying, no lock on the hot path, and about a
//! tenth of the memory an `Instr` array would hold (6.3–6.6 bytes per
//! instruction on the suite).
//!
//! Generation batches a whole segment into a local builder before a
//! single locked append, so concurrent readers stall for one `Vec` push,
//! not one push per instruction. Laziness subsumes the instruction-count
//! dimension of the key: a run that consumes more instructions simply
//! extends the shared stream segment by segment, and every other reader
//! sees the identical prefix it would have generated itself.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use bitline_trace::columnar::{Segment, SegmentBuilder, SegmentCursor, StreamState};
use bitline_trace::{Instr, TraceSource};
use bitline_workloads::{suite, SyntheticWorkload};

/// Instructions per columnar segment: one generator+encode batch, and the
/// sharing granule between cursors.
const SEG_LEN: usize = 4096;

/// Generator plus encoder state; the encoder's cross-segment stream
/// state (implied pc, previous address) must advance in lockstep with the
/// generator, so they share a mutex.
#[derive(Debug)]
struct Producer {
    generator: SyntheticWorkload,
    builder: SegmentBuilder,
}

/// One benchmark's shared stream for one seed.
#[derive(Debug)]
struct SharedTrace {
    name: String,
    /// Locked only while generating and encoding the next segment.
    producer: Mutex<Producer>,
    /// Everything materialised so far, in stream order. Each segment is
    /// immutable and shared with cursors by refcount.
    segments: RwLock<Vec<Arc<Segment>>>,
}

impl SharedTrace {
    /// The segment at `idx`, materialising the stream up to it if needed.
    fn segment(&self, idx: usize) -> Arc<Segment> {
        loop {
            {
                let segments =
                    self.segments.read().unwrap_or_else(std::sync::PoisonError::into_inner);
                if let Some(seg) = segments.get(idx) {
                    return Arc::clone(seg);
                }
            }
            // Lock order is always producer → segments, and appends happen
            // in stream order under the producer lock, so the segment list
            // extends deterministically no matter which reader gets here
            // first.
            let mut producer =
                self.producer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let have =
                self.segments.read().unwrap_or_else(std::sync::PoisonError::into_inner).len();
            // Another thread may have produced it while we waited.
            for _ in have..=idx {
                // Materialisation seam: delay/stall here model a slow
                // producer with readers queued on the segment lock.
                bitline_failpoint::failpoint!("traces.materialise");
                debug_assert!(producer.builder.is_empty());
                for _ in 0..SEG_LEN {
                    let instr = producer.generator.next_instr();
                    producer.builder.push(&instr);
                }
                let seg = Arc::new(producer.builder.finish_segment());
                bitline_obs::counter!("exec.traces.materialised").add(SEG_LEN as u64);
                // Readers only ever stall for this one push.
                self.segments.write().unwrap_or_else(std::sync::PoisonError::into_inner).push(seg);
            }
        }
    }

    fn len(&self) -> u64 {
        let segments = self.segments.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        segments.iter().map(|s| s.len() as u64).sum()
    }

    fn heap_bytes(&self) -> u64 {
        let segments = self.segments.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        segments.iter().map(|s| s.heap_bytes() as u64).sum()
    }
}

/// Size and coverage of a [`TraceStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStoreStats {
    /// Distinct `(benchmark, seed)` streams materialised.
    pub traces: usize,
    /// Total instructions held across all streams.
    pub instructions: u64,
    /// Heap bytes held by the columnar segments (shared across cursors).
    pub bytes: u64,
}

impl std::fmt::Display for TraceStoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} shared traces, {} instrs materialised ({} KiB columnar)",
            self.traces,
            self.instructions,
            self.bytes / 1024
        )
    }
}

/// A process-wide store of shared synthetic traces.
#[derive(Debug, Default)]
pub struct TraceStore {
    traces: Mutex<HashMap<(String, u64), Arc<SharedTrace>>>,
}

impl TraceStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    /// A cursor over the shared stream of `benchmark` at `seed`, or `None`
    /// when the benchmark is not in the suite.
    #[must_use]
    pub fn cursor(&self, benchmark: &str, seed: u64) -> Option<TraceCursor> {
        let mut traces = self.traces.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let trace = match traces.get(&(benchmark.to_owned(), seed)) {
            Some(t) => Arc::clone(t),
            None => {
                let spec = suite::by_name(benchmark)?;
                let t = Arc::new(SharedTrace {
                    name: benchmark.to_owned(),
                    producer: Mutex::new(Producer {
                        generator: spec.build(seed),
                        builder: SegmentBuilder::new(),
                    }),
                    segments: RwLock::new(Vec::new()),
                });
                traces.insert((benchmark.to_owned(), seed), Arc::clone(&t));
                bitline_obs::counter!("exec.traces.streams").incr();
                t
            }
        };
        Some(TraceCursor { trace, seg: None, seg_idx: 0, state: StreamState::new() })
    }

    /// Stream count, total materialised instructions, and columnar bytes.
    #[must_use]
    pub fn stats(&self) -> TraceStoreStats {
        let traces = self.traces.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        TraceStoreStats {
            traces: traces.len(),
            instructions: traces.values().map(|t| t.len()).sum(),
            bytes: traces.values().map(|t| t.heap_bytes()).sum(),
        }
    }

    /// Drops every stream (for cold-vs-warm comparisons in tests).
    pub fn clear(&self) {
        self.traces.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    }
}

/// A per-run replay position into a `SharedTrace`.
///
/// Implements [`TraceSource`] by decoding the current shared segment in
/// place: the hot `next_instr` path touches only refcounted immutable
/// columns — no locking, no copies. The decode state (the stream state
/// and the side-column positions) advances strictly forward, exactly how
/// the builder encoded the stream.
#[derive(Debug)]
pub struct TraceCursor {
    trace: Arc<SharedTrace>,
    /// Current segment, shared by refcount, and the position in it
    /// (`None` before the first read).
    seg: Option<(Arc<Segment>, SegmentCursor)>,
    /// Index of `seg` in the stream.
    seg_idx: usize,
    /// Carried from each segment into the next.
    state: StreamState,
}

impl TraceSource for TraceCursor {
    fn next_instr(&mut self) -> Instr {
        loop {
            if let Some((seg, cur)) = &mut self.seg {
                if let Some(instr) = seg.decode(cur, &mut self.state) {
                    return instr;
                }
                self.seg_idx += 1;
            }
            let seg = self.trace.segment(self.seg_idx);
            let cur = seg.cursor();
            self.seg = Some((seg, cur));
        }
    }

    fn name(&self) -> &str {
        &self.trace.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool;

    #[test]
    fn cursor_replays_the_generator_stream_exactly() {
        let store = TraceStore::new();
        for spec in suite::all() {
            for seed in [42, 7] {
                let mut cursor = store.cursor(spec.name, seed).expect("suite benchmark");
                let mut direct = spec.build(seed);
                // Three full segments and a partial fourth.
                for i in 0..(3 * SEG_LEN + 17) {
                    let want = direct.next_instr();
                    assert_eq!(cursor.next_instr(), want, "{} seed {seed} instr {i}", spec.name);
                }
                assert_eq!(cursor.name(), spec.name);
            }
        }
    }

    #[test]
    fn unknown_benchmark_has_no_cursor() {
        assert!(TraceStore::new().cursor("linpack", 42).is_none());
    }

    #[test]
    fn seeds_get_distinct_streams() {
        let store = TraceStore::new();
        let a: Vec<Instr> = std::iter::repeat_with({
            let mut c = store.cursor("gcc", 1).unwrap();
            move || c.next_instr()
        })
        .take(200)
        .collect();
        let b: Vec<Instr> = std::iter::repeat_with({
            let mut c = store.cursor("gcc", 2).unwrap();
            move || c.next_instr()
        })
        .take(200)
        .collect();
        assert_ne!(a, b);
        assert_eq!(store.stats().traces, 2);
    }

    #[test]
    fn concurrent_cursors_see_the_identical_prefix() {
        let store = TraceStore::new();
        let reference: Vec<Instr> = {
            let mut direct = suite::by_name("health").unwrap().build(7);
            std::iter::repeat_with(|| direct.next_instr()).take(SEG_LEN + 100).collect()
        };
        let streams = pool::with_jobs(8, || {
            pool::run_indexed(8, |i| {
                let mut cursor = store.cursor("health", 7).expect("health is in the suite");
                // Readers consume different lengths to exercise extension
                // racing: every prefix must still match the generator.
                let n = SEG_LEN / 2 + i * 64;
                std::iter::repeat_with(|| cursor.next_instr()).take(n).collect::<Vec<_>>()
            })
        });
        for (i, stream) in streams.iter().enumerate() {
            assert_eq!(stream.as_slice(), &reference[..stream.len()], "reader {i}");
        }
        let stats = store.stats();
        assert_eq!(stats.traces, 1);
        assert!(stats.instructions >= (SEG_LEN / 2) as u64);
    }

    #[test]
    fn columnar_segments_hold_at_most_8_bytes_per_instr() {
        for spec in suite::all() {
            let store = TraceStore::new();
            let mut cursor = store.cursor(spec.name, 3).unwrap();
            for _ in 0..(3 * SEG_LEN) {
                let _ = cursor.next_instr();
            }
            let stats = store.stats();
            assert_eq!(stats.instructions, 3 * SEG_LEN as u64);
            assert!(
                stats.bytes <= 8 * stats.instructions,
                "{}: columnar {} B for {} instrs — expected <= 8 B/instr",
                spec.name,
                stats.bytes,
                stats.instructions
            );
        }
    }

    #[test]
    fn cursors_share_segments_by_refcount() {
        let store = TraceStore::new();
        let mut a = store.cursor("mesa", 1).unwrap();
        let mut b = store.cursor("mesa", 1).unwrap();
        for _ in 0..SEG_LEN {
            let _ = a.next_instr();
            let _ = b.next_instr();
        }
        let (sa, sb) = (&a.seg.as_ref().unwrap().0, &b.seg.as_ref().unwrap().0);
        assert!(Arc::ptr_eq(sa, sb), "both cursors decode the same shared segment");
        // One segment materialised once, not per cursor.
        assert_eq!(store.stats().instructions, SEG_LEN as u64);
    }
}
