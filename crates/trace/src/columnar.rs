//! Columnar, bit-width-reduced instruction segments.
//!
//! A [`Segment`] holds a fixed run of instructions in struct-of-arrays
//! form, sized for sharing: a full [`Instr`] is ~56 bytes, while the
//! columnar encoding averages ~12–14 bytes per instruction on the
//! synthetic suite (meta byte + three register bytes + a 4-byte pc
//! delta, with memory and branch payloads in side columns that only
//! their instructions pay for). Segments are immutable once built, so
//! concurrent readers share them by reference count instead of copying
//! — see `bitline-exec`'s trace store.
//!
//! The encoding is *exact*: decoding reproduces the original [`Instr`]
//! stream bit-for-bit (pinned by round-trip tests, including pathological
//! values that overflow every delta column and fall back to escape
//! lists).
//!
//! Layout per instruction:
//!
//! - `meta` (1 B): instruction kind in the low 3 bits, presence flags
//!   for dest/src0/src1/mem/branch plus the branch-taken bit above.
//! - `regs` (3 B): dest, src0, src1 register names (meaningful only when
//!   the corresponding flag is set).
//! - `pc_delta` (4 B): pc relative to the previous instruction's pc
//!   (wrapping); [`ESCAPE`] diverts to a full-width escape list.
//! - memory side columns (13 B, loads/stores only): 8-byte address, a
//!   4-byte base-relative-to-address delta (escaped when wide), and the
//!   access size byte.
//! - branch side columns (4 B, control only): target relative to pc
//!   (escaped when wide). The taken bit rides in `meta`.
//!
//! Decoding is strictly sequential — exactly how trace cursors consume
//! streams — so side columns need no per-row index: a [`SegmentCursor`]
//! carries running positions for every column.
//!
//! # Examples
//!
//! ```
//! use bitline_trace::columnar::{SegmentBuilder, SegmentCursor};
//! use bitline_trace::{Instr, InstrKind};
//!
//! let mut b = SegmentBuilder::new();
//! b.push(&Instr::new(0x1000, InstrKind::IntAlu).with_dest(3));
//! b.push(&Instr::new(0x1004, InstrKind::Jump));
//! let seg = b.finish_segment();
//!
//! let mut cur = SegmentCursor::new();
//! let mut prev_pc = 0;
//! assert_eq!(seg.decode(&mut cur, &mut prev_pc).unwrap().pc, 0x1000);
//! assert_eq!(seg.decode(&mut cur, &mut prev_pc).unwrap().pc, 0x1004);
//! assert!(seg.decode(&mut cur, &mut prev_pc).is_none());
//! ```

use crate::{BranchInfo, Instr, InstrKind, MemRef};

/// Delta-column sentinel: the real value lives in the escape list.
const ESCAPE: i32 = i32::MIN;

mod meta {
    /// Low three bits: [`super::InstrKind`] code.
    pub const KIND_MASK: u8 = 0b111;
    pub const HAS_DEST: u8 = 1 << 3;
    pub const HAS_SRC0: u8 = 1 << 4;
    pub const HAS_SRC1: u8 = 1 << 5;
    pub const HAS_MEM: u8 = 1 << 6;
    /// Presence of branch info; the direction bit lives in the branch
    /// side column (one byte per branch, not per instruction).
    pub const HAS_BRANCH: u8 = 1 << 7;
}

fn kind_code(kind: InstrKind) -> u8 {
    match kind {
        InstrKind::IntAlu => 0,
        InstrKind::IntMul => 1,
        InstrKind::FpAlu => 2,
        InstrKind::Load => 3,
        InstrKind::Store => 4,
        InstrKind::Branch => 5,
        InstrKind::Jump => 6,
    }
}

fn kind_from_code(code: u8) -> InstrKind {
    match code {
        0 => InstrKind::IntAlu,
        1 => InstrKind::IntMul,
        2 => InstrKind::FpAlu,
        3 => InstrKind::Load,
        4 => InstrKind::Store,
        5 => InstrKind::Branch,
        6 => InstrKind::Jump,
        _ => unreachable!("corrupt segment meta byte"),
    }
}

/// A delta that fits the narrow column, or the escape sentinel plus a
/// push onto the wide list.
fn encode_delta(value: u64, base: u64, escapes: &mut Vec<u64>) -> i32 {
    let delta = value.wrapping_sub(base) as i64;
    match i32::try_from(delta) {
        Ok(d) if d != ESCAPE => d,
        _ => {
            escapes.push(value);
            ESCAPE
        }
    }
}

fn decode_delta(delta: i32, base: u64, escapes: &[u64], escape_idx: &mut usize) -> u64 {
    if delta == ESCAPE {
        let v = escapes[*escape_idx];
        *escape_idx += 1;
        v
    } else {
        base.wrapping_add(delta as i64 as u64)
    }
}

/// An immutable columnar run of instructions.
///
/// Built by [`SegmentBuilder`], decoded sequentially via
/// [`Segment::decode`]. All columns are boxed slices: no spare capacity,
/// no mutation after construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    meta: Box<[u8]>,
    regs: Box<[u8]>,
    pc_delta: Box<[i32]>,
    pc_escape: Box<[u64]>,
    mem_addr: Box<[u64]>,
    mem_base_delta: Box<[i32]>,
    mem_base_escape: Box<[u64]>,
    mem_size: Box<[u8]>,
    br_taken: Box<[u8]>,
    br_target_delta: Box<[i32]>,
    br_target_escape: Box<[u64]>,
}

impl Segment {
    /// Number of instructions in the segment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True when the segment holds no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Heap bytes held by the columns (the footprint shared between
    /// cursors; an equivalent `Vec<Instr>` costs `len * size_of::<Instr>()`).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.meta.len()
            + self.regs.len()
            + 4 * self.pc_delta.len()
            + 8 * self.pc_escape.len()
            + 8 * self.mem_addr.len()
            + 4 * self.mem_base_delta.len()
            + 8 * self.mem_base_escape.len()
            + self.mem_size.len()
            + self.br_taken.len()
            + 4 * self.br_target_delta.len()
            + 8 * self.br_target_escape.len()
    }

    /// Decodes the instruction at the cursor, advancing it; `None` at the
    /// end of the segment.
    ///
    /// `prev_pc` is the pc of the previously decoded instruction and must
    /// be threaded across segments in stream order (starting from 0),
    /// mirroring the builder's encoding state.
    #[inline]
    pub fn decode(&self, cur: &mut SegmentCursor, prev_pc: &mut u64) -> Option<Instr> {
        let i = cur.pos;
        if i >= self.meta.len() {
            return None;
        }
        cur.pos += 1;
        let m = self.meta[i];
        let kind = kind_from_code(m & meta::KIND_MASK);
        let pc = decode_delta(self.pc_delta[i], *prev_pc, &self.pc_escape, &mut cur.pc_escape);
        *prev_pc = pc;
        let r = 3 * i;
        let dest = (m & meta::HAS_DEST != 0).then(|| self.regs[r]);
        let srcs = [
            (m & meta::HAS_SRC0 != 0).then(|| self.regs[r + 1]),
            (m & meta::HAS_SRC1 != 0).then(|| self.regs[r + 2]),
        ];
        let mem = (m & meta::HAS_MEM != 0).then(|| {
            let j = cur.mem;
            cur.mem += 1;
            let addr = self.mem_addr[j];
            let base = decode_delta(
                self.mem_base_delta[j],
                addr,
                &self.mem_base_escape,
                &mut cur.base_escape,
            );
            MemRef { addr, base, size: self.mem_size[j] }
        });
        let branch = (m & meta::HAS_BRANCH != 0).then(|| {
            let j = cur.br;
            cur.br += 1;
            let target = decode_delta(
                self.br_target_delta[j],
                pc,
                &self.br_target_escape,
                &mut cur.target_escape,
            );
            BranchInfo { taken: self.br_taken[j] != 0, target }
        });
        Some(Instr { pc, kind, dest, srcs, mem, branch })
    }
}

/// Sequential decode position within one [`Segment`]: the row index plus
/// running positions into every side column.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentCursor {
    pos: usize,
    mem: usize,
    br: usize,
    pc_escape: usize,
    base_escape: usize,
    target_escape: usize,
}

impl SegmentCursor {
    /// A cursor at the start of a segment.
    #[must_use]
    pub fn new() -> SegmentCursor {
        SegmentCursor::default()
    }
}

/// Streaming encoder producing [`Segment`]s.
///
/// Holds the cross-segment pc-delta state: instruction pcs are encoded
/// relative to the previous instruction *in the stream*, not the
/// segment, so the builder must see the stream in order and decoders
/// must thread `prev_pc` the same way.
#[derive(Debug, Default)]
pub struct SegmentBuilder {
    prev_pc: u64,
    meta: Vec<u8>,
    regs: Vec<u8>,
    pc_delta: Vec<i32>,
    pc_escape: Vec<u64>,
    mem_addr: Vec<u64>,
    mem_base_delta: Vec<i32>,
    mem_base_escape: Vec<u64>,
    mem_size: Vec<u8>,
    br_taken: Vec<u8>,
    br_target_delta: Vec<i32>,
    br_target_escape: Vec<u64>,
}

impl SegmentBuilder {
    /// An empty builder at stream position zero.
    #[must_use]
    pub fn new() -> SegmentBuilder {
        SegmentBuilder::default()
    }

    /// Instructions in the currently open (unfinished) segment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True when no instructions are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Appends one instruction to the open segment.
    pub fn push(&mut self, instr: &Instr) {
        let mut m = kind_code(instr.kind);
        self.pc_delta.push(encode_delta(instr.pc, self.prev_pc, &mut self.pc_escape));
        self.prev_pc = instr.pc;
        if let Some(d) = instr.dest {
            m |= meta::HAS_DEST;
            self.regs.push(d);
        } else {
            self.regs.push(0);
        }
        for (k, src) in instr.srcs.iter().enumerate() {
            if let Some(s) = src {
                m |= if k == 0 { meta::HAS_SRC0 } else { meta::HAS_SRC1 };
                self.regs.push(*s);
            } else {
                self.regs.push(0);
            }
        }
        if let Some(mem) = instr.mem {
            m |= meta::HAS_MEM;
            self.mem_addr.push(mem.addr);
            self.mem_base_delta.push(encode_delta(mem.base, mem.addr, &mut self.mem_base_escape));
            self.mem_size.push(mem.size);
        }
        if let Some(b) = instr.branch {
            m |= meta::HAS_BRANCH;
            self.br_taken.push(u8::from(b.taken));
            self.br_target_delta.push(encode_delta(b.target, instr.pc, &mut self.br_target_escape));
        }
        self.meta.push(m);
    }

    /// Seals the open segment, leaving the builder empty but keeping the
    /// cross-segment pc state for the next one.
    pub fn finish_segment(&mut self) -> Segment {
        Segment {
            meta: std::mem::take(&mut self.meta).into_boxed_slice(),
            regs: std::mem::take(&mut self.regs).into_boxed_slice(),
            pc_delta: std::mem::take(&mut self.pc_delta).into_boxed_slice(),
            pc_escape: std::mem::take(&mut self.pc_escape).into_boxed_slice(),
            mem_addr: std::mem::take(&mut self.mem_addr).into_boxed_slice(),
            mem_base_delta: std::mem::take(&mut self.mem_base_delta).into_boxed_slice(),
            mem_base_escape: std::mem::take(&mut self.mem_base_escape).into_boxed_slice(),
            mem_size: std::mem::take(&mut self.mem_size).into_boxed_slice(),
            br_taken: std::mem::take(&mut self.br_taken).into_boxed_slice(),
            br_target_delta: std::mem::take(&mut self.br_target_delta).into_boxed_slice(),
            br_target_escape: std::mem::take(&mut self.br_target_escape).into_boxed_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(segments: &[Segment]) -> Vec<Instr> {
        let mut out = Vec::new();
        let mut prev_pc = 0;
        for seg in segments {
            let mut cur = SegmentCursor::new();
            while let Some(i) = seg.decode(&mut cur, &mut prev_pc) {
                out.push(i);
            }
        }
        out
    }

    fn round_trip(instrs: &[Instr], split_at: usize) {
        let mut b = SegmentBuilder::new();
        let mut segments = Vec::new();
        for (k, i) in instrs.iter().enumerate() {
            if k == split_at && !b.is_empty() {
                segments.push(b.finish_segment());
            }
            b.push(i);
        }
        if !b.is_empty() {
            segments.push(b.finish_segment());
        }
        assert_eq!(decode_all(&segments), instrs, "split at {split_at}");
    }

    /// Deterministic pseudo-random instruction mix, including values that
    /// overflow every delta column.
    fn awkward_stream(n: usize) -> Vec<Instr> {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pc = 0x40_0000_u64;
        (0..n)
            .map(|_| {
                let r = rng();
                // Occasionally teleport the pc so deltas escape.
                pc = if r % 97 == 0 { rng() } else { pc.wrapping_add(4) };
                let kind = match r % 7 {
                    0 => InstrKind::IntAlu,
                    1 => InstrKind::IntMul,
                    2 => InstrKind::FpAlu,
                    3 => InstrKind::Load,
                    4 => InstrKind::Store,
                    5 => InstrKind::Branch,
                    _ => InstrKind::Jump,
                };
                let mut i = Instr::new(pc, kind);
                if r % 3 != 0 {
                    i = i.with_dest((r % 64) as u8);
                }
                i = i.with_srcs(
                    (r % 5 != 0).then_some((r % 61) as u8),
                    (r % 4 == 0).then_some(((r >> 8) % 64) as u8),
                );
                if kind.is_mem() {
                    let addr = rng();
                    // Mix near bases (delta fits) and far bases (escape).
                    let base = if r % 11 == 0 { rng() } else { addr.wrapping_sub(r % 4096) };
                    i = i.with_mem(MemRef { addr, base, size: 1 << (r % 4) });
                }
                if kind.is_control() {
                    let target = if r % 13 == 0 { rng() } else { pc.wrapping_add(r % 65536) };
                    i = i.with_branch(BranchInfo { taken: r % 2 == 0, target });
                }
                i
            })
            .collect()
    }

    #[test]
    fn round_trips_exactly_across_segment_splits() {
        let instrs = awkward_stream(500);
        for split in [0, 1, 7, 250, 499, 500] {
            round_trip(&instrs, split);
        }
    }

    #[test]
    fn round_trips_extreme_values() {
        let instrs = vec![
            Instr::new(u64::MAX, InstrKind::Load).with_dest(63).with_mem(MemRef {
                addr: 0,
                base: u64::MAX,
                size: 8,
            }),
            Instr::new(0, InstrKind::Branch)
                .with_branch(BranchInfo { taken: true, target: u64::MAX / 2 }),
            // Delta of exactly i32::MIN must take the escape path (it is
            // the sentinel).
            Instr::new(i32::MIN as i64 as u64, InstrKind::Jump)
                .with_branch(BranchInfo { taken: false, target: 0 }),
        ];
        round_trip(&instrs, 1);
    }

    #[test]
    fn columnar_layout_is_at_least_4x_smaller_on_a_typical_mix() {
        // A representative mix: ~30% memory ops, ~15% control, contiguous
        // pcs — what the synthetic suite produces.
        let mut pc = 0x1000_u64;
        let instrs: Vec<Instr> = (0..4096)
            .map(|k| {
                pc += 4;
                match k % 20 {
                    0..=5 => Instr::new(pc, InstrKind::Load).with_dest(1).with_mem(MemRef {
                        addr: 0x10_0000 + k,
                        base: 0x10_0000,
                        size: 8,
                    }),
                    6..=8 => Instr::new(pc, InstrKind::Branch)
                        .with_srcs(Some(2), None)
                        .with_branch(BranchInfo { taken: k % 2 == 0, target: pc - 64 }),
                    _ => Instr::new(pc, InstrKind::IntAlu).with_dest(3).with_srcs(Some(1), Some(2)),
                }
            })
            .collect();
        let mut b = SegmentBuilder::new();
        for i in &instrs {
            b.push(i);
        }
        let seg = b.finish_segment();
        let soa = seg.heap_bytes();
        let aos = instrs.len() * std::mem::size_of::<Instr>();
        assert!(
            soa * 4 <= aos,
            "columnar {soa} B vs Instr array {aos} B — expected >= 4x reduction"
        );
        assert_eq!(decode_all(&[seg]), instrs);
    }

    #[test]
    fn builder_reports_open_segment_length() {
        let mut b = SegmentBuilder::new();
        assert!(b.is_empty());
        b.push(&Instr::new(4, InstrKind::IntAlu));
        assert_eq!(b.len(), 1);
        let seg = b.finish_segment();
        assert_eq!(seg.len(), 1);
        assert!(!seg.is_empty());
        assert!(b.is_empty(), "finish drains the builder");
    }
}
