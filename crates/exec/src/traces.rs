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
//!
//! A stream has one owner, and comes in one of two kinds, built from the
//! same producer, segments and cursor:
//!
//! * **retained** ([`TraceStore::cursor`]): every segment stays for as long
//!   as the store that owns the stream, so any number of cursors, opened at
//!   any time, can replay it from the start. Sweeps read each stream many
//!   times. A store lives as long as its owner keeps it (a unit of work, or
//!   a daemon), and a store made for one cursor alone is freed with that
//!   cursor. The `exec.traces.retained_peak_bytes` gauge records the most
//!   bytes retained streams held at once, over every store
//!   ([`retained_trace_bytes`] is the amount held now).
//! * **windowed** ([`TraceCursor::window`]): a fixed set of cursors, all
//!   opened together, owns the stream and reads it front to back, and a
//!   segment is dropped once every cursor has moved past it. Cursors that
//!   advance in lockstep keep only the segments between the slowest and
//!   the fastest of them, however long the stream. The
//!   `exec.traces.windows` counter counts windows, and the
//!   `exec.traces.window_peak_segments` and `exec.traces.window_peak_bytes`
//!   gauges record the most any one window held.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use bitline_trace::columnar::{Segment, SegmentBuilder, SegmentCursor, StreamState};
use bitline_trace::{Instr, TraceSource};
use bitline_workloads::{suite, SyntheticWorkload};

/// Instructions per columnar segment: one generator+encode batch, and the
/// sharing granule between cursors.
const SEG_LEN: usize = 4096;

/// Heap bytes the retained streams of every store hold right now.
static RETAINED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Columnar bytes that retained streams hold right now, summed over every
/// [`TraceStore`] in the process. A stream's bytes count from when each
/// segment is materialised until the stream is dropped with its store and
/// its last cursor.
#[must_use]
pub fn retained_trace_bytes() -> u64 {
    RETAINED_BYTES.load(Ordering::Relaxed)
}

/// Generator plus encoder state; the encoder's cross-segment stream
/// state (implied pc, previous address) must advance in lockstep with the
/// generator, so they share a mutex.
#[derive(Debug)]
struct Producer {
    generator: SyntheticWorkload,
    builder: SegmentBuilder,
}

/// The segments a stream holds.
#[derive(Debug, Default)]
struct Segments {
    /// Stream index of `held[0]`; a windowed stream has dropped every
    /// segment before it.
    first: usize,
    /// Segments materialised and still held, in stream order. Each one is
    /// immutable and shared with cursors by refcount.
    held: VecDeque<Arc<Segment>>,
    /// Heap bytes of `held`.
    bytes: u64,
    /// A windowed stream's cursors: the index of the segment each one
    /// reads, `usize::MAX` once it is dropped. Empty for a retained
    /// stream, which drops nothing.
    readers: Vec<usize>,
}

impl Segments {
    fn get(&self, idx: usize) -> Option<&Arc<Segment>> {
        self.held.get(idx.checked_sub(self.first)?)
    }

    /// Stream index one past the last materialised segment.
    fn end(&self) -> usize {
        self.first + self.held.len()
    }

    /// Moves windowed `reader` to segment `idx` and drops every segment
    /// that no reader still needs.
    fn move_reader(&mut self, reader: usize, idx: usize) {
        self.readers[reader] = idx;
        let needed = self.readers.iter().copied().min().unwrap_or(usize::MAX);
        while self.first < needed {
            let Some(seg) = self.held.pop_front() else { break };
            self.bytes -= seg.heap_bytes() as u64;
            self.first += 1;
        }
    }
}

/// A gauge value for a count or a size.
fn gauge(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// One benchmark's stream for one seed, retained or windowed.
#[derive(Debug)]
struct SharedTrace {
    name: String,
    /// Locked only while generating and encoding the next segment.
    producer: Mutex<Producer>,
    segments: RwLock<Segments>,
}

impl SharedTrace {
    /// A stream of `name` from `generator`, windowed over `readers`
    /// cursors, or retained when `readers` is 0.
    fn new(name: &str, generator: SyntheticWorkload, readers: usize) -> Self {
        bitline_obs::counter!("exec.traces.streams").incr();
        SharedTrace {
            name: name.to_owned(),
            producer: Mutex::new(Producer { generator, builder: SegmentBuilder::new() }),
            segments: RwLock::new(Segments { readers: vec![0; readers], ..Segments::default() }),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Segments> {
        self.segments.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Segments> {
        self.segments.write().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The segment at `idx` for a cursor that has read every segment
    /// before it, materialising the stream up to it if needed. `reader`
    /// is the cursor's slot in a windowed stream.
    fn segment(&self, idx: usize, reader: Option<usize>) -> Arc<Segment> {
        if let Some(reader) = reader {
            self.write().move_reader(reader, idx);
        }
        loop {
            if let Some(seg) = self.read().get(idx) {
                return Arc::clone(seg);
            }
            // Lock order is always producer → segments, and appends happen
            // in stream order under the producer lock, so the segment list
            // extends deterministically no matter which reader gets here
            // first.
            let mut producer =
                self.producer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            // Another thread may have produced it while we waited.
            let have = {
                let segments = self.read();
                assert!(idx >= segments.first, "{}: segment {idx} dropped unread", self.name);
                segments.end()
            };
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
                let bytes = seg.heap_bytes() as u64;
                // Readers only ever stall for this one push.
                let mut segments = self.write();
                segments.bytes += bytes;
                segments.held.push_back(seg);
                if segments.readers.is_empty() {
                    let held = RETAINED_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
                    bitline_obs::gauge!("exec.traces.retained_peak_bytes").set_max(gauge(held));
                } else {
                    let held = segments.held.len() as u64;
                    bitline_obs::gauge!("exec.traces.window_peak_segments").set_max(gauge(held));
                    bitline_obs::gauge!("exec.traces.window_peak_bytes")
                        .set_max(gauge(segments.bytes));
                }
            }
        }
    }

    /// Releases a windowed stream's `reader`: what only it still needed
    /// is dropped.
    fn release(&self, reader: usize) {
        self.write().move_reader(reader, usize::MAX);
    }

    fn len(&self) -> u64 {
        let segments = self.read();
        segments.held.iter().map(|s| s.len() as u64).sum()
    }
}

impl Drop for SharedTrace {
    fn drop(&mut self) {
        let segments = self.segments.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner);
        if segments.readers.is_empty() {
            RETAINED_BYTES.fetch_sub(segments.bytes, Ordering::Relaxed);
        }
    }
}

/// Size and coverage of a [`TraceStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStoreStats {
    /// Distinct `(benchmark, seed)` streams the store holds.
    pub traces: usize,
    /// Instructions the streams hold.
    pub instructions: u64,
    /// Heap bytes held by the streams' columnar segments (shared across
    /// cursors).
    pub bytes: u64,
}

/// The owner of a set of retained traces: a unit of work, a daemon, or
/// one cursor.
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

    /// A cursor over the retained stream of `benchmark` at `seed`, or
    /// `None` when the benchmark is not in the suite.
    #[must_use]
    pub fn cursor(&self, benchmark: &str, seed: u64) -> Option<TraceCursor> {
        let mut traces = self.traces.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let trace = match traces.get(&(benchmark.to_owned(), seed)) {
            Some(t) => Arc::clone(t),
            None => {
                let spec = suite::by_name(benchmark)?;
                let t = Arc::new(SharedTrace::new(benchmark, spec.build(seed), 0));
                traces.insert((benchmark.to_owned(), seed), Arc::clone(&t));
                t
            }
        };
        Some(TraceCursor::new(trace, None))
    }

    /// Stream count, materialised instructions and columnar bytes.
    #[must_use]
    pub fn stats(&self) -> TraceStoreStats {
        let traces = self.traces.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        TraceStoreStats {
            traces: traces.len(),
            instructions: traces.values().map(|t| t.len()).sum(),
            bytes: traces.values().map(|t| t.read().bytes).sum(),
        }
    }
}

/// A per-run replay position into a stream.
///
/// Implements [`TraceSource`] by decoding the current shared segment in
/// place: the hot `next_instr` path touches only refcounted immutable
/// columns — no locking, no copies. The decode state (the stream state
/// and the side-column positions) advances strictly forward, exactly how
/// the builder encoded the stream.
#[derive(Debug)]
pub struct TraceCursor {
    trace: Arc<SharedTrace>,
    /// This cursor's slot among a windowed stream's readers; `None` on a
    /// retained stream.
    reader: Option<usize>,
    /// Current segment, shared by refcount, and the position in it
    /// (`None` before the first read).
    seg: Option<(Arc<Segment>, SegmentCursor)>,
    /// Index of `seg` in the stream.
    seg_idx: usize,
    /// Carried from each segment into the next.
    state: StreamState,
}

impl TraceCursor {
    fn new(trace: Arc<SharedTrace>, reader: Option<usize>) -> TraceCursor {
        TraceCursor { trace, reader, seg: None, seg_idx: 0, state: StreamState::new() }
    }

    /// `readers` cursors over a new windowed stream of `benchmark` at
    /// `seed`, or `None` when the benchmark is not in the suite. The
    /// cursors own the stream: it is generated afresh, shared with no other
    /// caller, and drops each segment once every one of them has moved past
    /// it (or been dropped).
    #[must_use]
    pub fn window(benchmark: &str, seed: u64, readers: usize) -> Option<Vec<TraceCursor>> {
        let spec = suite::by_name(benchmark)?;
        let trace = Arc::new(SharedTrace::new(benchmark, spec.build(seed), readers));
        bitline_obs::counter!("exec.traces.windows").incr();
        Some((0..readers).map(|r| TraceCursor::new(Arc::clone(&trace), Some(r))).collect())
    }
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
            let seg = self.trace.segment(self.seg_idx, self.reader);
            let cur = seg.cursor();
            self.seg = Some((seg, cur));
        }
    }

    fn name(&self) -> &str {
        &self.trace.name
    }
}

impl Drop for TraceCursor {
    fn drop(&mut self) {
        if let Some(reader) = self.reader {
            self.trace.release(reader);
        }
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

    /// The segments `cursor`'s stream holds now.
    fn held(cursor: &TraceCursor) -> usize {
        cursor.trace.read().held.len()
    }

    #[test]
    fn lockstep_cursors_replay_exactly_through_a_two_segment_window() {
        let spec = suite::by_name("gcc").unwrap();
        let mut cursors = TraceCursor::window("gcc", 9, 2).expect("gcc is in the suite");
        let mut direct = [spec.build(9), spec.build(9)];
        // Alternating 2 048-instruction chunks, as the runner steps a pair.
        let chunk = 2_048;
        let mut peak = 0;
        for turn in 0..(100 * SEG_LEN / chunk) {
            for (k, (cursor, direct)) in cursors.iter_mut().zip(&mut direct).enumerate() {
                for i in 0..chunk {
                    let at = turn * chunk + i;
                    assert_eq!(cursor.next_instr(), direct.next_instr(), "cursor {k} instr {at}");
                }
                peak = peak.max(held(cursor));
            }
            assert!(peak <= 2, "the window held {peak} segments by turn {turn}");
        }
        assert_eq!(peak, 2, "the leader's segment and the laggard's");
        let trace = Arc::clone(&cursors[0].trace);
        assert_eq!(trace.read().end(), 100, "each segment is materialised once");
        drop(cursors);
        assert!(trace.read().held.is_empty(), "the last reader's drop frees the window");
    }

    #[test]
    fn a_dropped_reader_holds_no_segment_back() {
        let mut cursors = TraceCursor::window("mesa", 1, 2).expect("mesa is in the suite");
        drop(cursors.pop());
        for _ in 0..10 {
            for _ in 0..SEG_LEN {
                let _ = cursors[0].next_instr();
            }
            assert_eq!(held(&cursors[0]), 1);
        }
        assert!(TraceCursor::window("linpack", 1, 2).is_none());
    }
}
