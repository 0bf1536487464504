//! Columnar, bit-width-reduced instruction segments.
//!
//! A [`Segment`] holds a fixed run of instructions in struct-of-arrays
//! form, sized for sharing: a full [`Instr`] is 64 bytes, while the
//! columnar encoding holds 6.3–6.6 bytes per instruction on every
//! benchmark of the synthetic suite (800k instructions at seed 42), as
//! each row stores only what earlier rows do not imply. Segments are
//! immutable once built, so concurrent readers share them by reference
//! count instead of copying — see `bitline-exec`'s trace store.
//!
//! The encoding is *exact*: decoding reproduces the original [`Instr`]
//! stream bit-for-bit (pinned by round-trip tests, including values at
//! and past every narrow column's limit, which take the escape lists).
//!
//! Layout per instruction:
//!
//! - `meta` (1 B): instruction kind in the low 3 bits, presence flags
//!   for dest/src0/src1/mem/branch above.
//! - `regs` (0–3 B): the dest, src0 and src1 register names the flags
//!   say are present, packed in that order; decode reads them as one
//!   little-endian word at a running position.
//! - the pc costs nothing: it is the predecessor's fall-through (the
//!   taken target, else pc + 4). Rows where it is not — the stream's
//!   first row and a generator's phase jumps, a handful per million
//!   instructions — sit on a `(row, pc)` escape list.
//! - memory side columns (7 B, loads/stores only): the address as an
//!   `i32` delta from the previous memory operation's address, the base
//!   register as a `u16` displacement below the address, and the access
//!   size byte.
//! - branch side columns (3 B, control only): the taken byte, and the
//!   target as an `i16` delta from the pc.
//!
//! Each narrow column reserves one value as a sentinel that diverts to a
//! full-width escape list: `i32::MIN`, `u16::MAX` and `i16::MIN`.
//!
//! Decoding is strictly sequential — exactly how trace cursors consume
//! streams — so side columns need no per-row index: a [`SegmentCursor`]
//! carries running positions for every column, and a [`StreamState`]
//! carries what the previous rows imply (the expected pc and the last
//! memory address) from one segment into the next.
//!
//! # Examples
//!
//! ```
//! use bitline_trace::columnar::{SegmentBuilder, StreamState};
//! use bitline_trace::{Instr, InstrKind};
//!
//! let mut b = SegmentBuilder::new();
//! b.push(&Instr::new(0x1000, InstrKind::IntAlu).with_dest(3));
//! b.push(&Instr::new(0x1004, InstrKind::Jump));
//! let seg = b.finish_segment();
//!
//! let mut cur = seg.cursor();
//! let mut state = StreamState::new();
//! assert_eq!(seg.decode(&mut cur, &mut state).unwrap().pc, 0x1000);
//! assert_eq!(seg.decode(&mut cur, &mut state).unwrap().pc, 0x1004);
//! assert!(seg.decode(&mut cur, &mut state).is_none());
//! ```

use std::mem::size_of_val;

use crate::{BranchInfo, Instr, InstrKind, MemRef};

/// Bytes decode reads at a row's register position: the row's present
/// registers, then whatever follows.
const REG_WINDOW: usize = 4;

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

#[inline]
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

/// The pc that follows an instruction unless the stream jumps: the
/// taken target, else the next sequential slot (wrapping, so every pc
/// encodes).
fn fall_through(pc: u64, branch: Option<BranchInfo>) -> u64 {
    match branch {
        Some(b) if b.taken => b.target,
        _ => pc.wrapping_add(4),
    }
}

/// A narrow column's element type, with the value reserved as the escape
/// sentinel.
trait Narrow: Copy + PartialEq + TryFrom<i64> + Into<i64> {
    const ESCAPE: Self;
}

impl Narrow for i32 {
    const ESCAPE: i32 = i32::MIN;
}

impl Narrow for i16 {
    const ESCAPE: i16 = i16::MIN;
}

impl Narrow for u16 {
    const ESCAPE: u16 = u16::MAX;
}

/// `diff` when it fits the column (read as a signed 64-bit value), or the
/// escape sentinel plus a push of the full `value` onto the wide list.
fn narrow<T: Narrow>(diff: u64, value: u64, escapes: &mut Vec<u64>) -> T {
    match T::try_from(diff as i64) {
        Ok(d) if d != T::ESCAPE => d,
        _ => {
            escapes.push(value);
            T::ESCAPE
        }
    }
}

/// The value a narrow entry stands for: `from(diff)`, or the next entry
/// of the wide list when it is the sentinel.
#[inline]
fn widen<T: Narrow>(d: T, escapes: &[u64], next: &mut usize, from: impl FnOnce(u64) -> u64) -> u64 {
    if d == T::ESCAPE {
        let v = escapes[*next];
        *next += 1;
        v
    } else {
        from(d.into() as u64)
    }
}

/// What the rows decoded so far imply about the rest of the stream: the
/// pc the next row falls through to, and the address the next memory
/// operation's delta is taken from.
///
/// A builder and every decoder of its segments start from
/// [`StreamState::new`] and thread the state through the segments in
/// stream order.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamState {
    next_pc: u64,
    prev_addr: u64,
}

impl StreamState {
    /// The state at the start of a stream.
    #[must_use]
    pub fn new() -> StreamState {
        StreamState::default()
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
    /// `(row, pc)` of every row whose pc is not its predecessor's
    /// fall-through, in row order.
    pc_escape: Box<[(usize, u64)]>,
    mem_addr_delta: Box<[i32]>,
    mem_addr_escape: Box<[u64]>,
    mem_disp: Box<[u16]>,
    mem_base_escape: Box<[u64]>,
    mem_size: Box<[u8]>,
    br_taken: Box<[u8]>,
    br_target_delta: Box<[i16]>,
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
        size_of_val(&*self.meta)
            + size_of_val(&*self.regs)
            + size_of_val(&*self.pc_escape)
            + size_of_val(&*self.mem_addr_delta)
            + size_of_val(&*self.mem_addr_escape)
            + size_of_val(&*self.mem_disp)
            + size_of_val(&*self.mem_base_escape)
            + size_of_val(&*self.mem_size)
            + size_of_val(&*self.br_taken)
            + size_of_val(&*self.br_target_delta)
            + size_of_val(&*self.br_target_escape)
    }

    /// A cursor at the start of this segment.
    #[must_use]
    pub fn cursor(&self) -> SegmentCursor {
        SegmentCursor {
            row: 0,
            reg: 0,
            next_jump: self.jump_row(0),
            jump: 0,
            mem: 0,
            br: 0,
            addr_escape: 0,
            base_escape: 0,
            target_escape: 0,
        }
    }

    /// Row of the `k`th pc escape, or `usize::MAX` past the last.
    fn jump_row(&self, k: usize) -> usize {
        self.pc_escape.get(k).map_or(usize::MAX, |&(row, _)| row)
    }

    /// Decodes the instruction at the cursor, advancing it; `None` at the
    /// end of the segment.
    ///
    /// `cur` must come from this segment's [`Segment::cursor`], and
    /// `state` must be threaded across segments in stream order (starting
    /// from [`StreamState::new`]), mirroring the builder's.
    #[inline]
    pub fn decode(&self, cur: &mut SegmentCursor, state: &mut StreamState) -> Option<Instr> {
        let i = cur.row;
        if i >= self.meta.len() {
            return None;
        }
        cur.row += 1;
        let m = self.meta[i];
        let kind = kind_from_code(m & meta::KIND_MASK);
        let pc = if i == cur.next_jump {
            let pc = self.pc_escape[cur.jump].1;
            cur.jump += 1;
            cur.next_jump = self.jump_row(cur.jump);
            pc
        } else {
            state.next_pc
        };
        // One little-endian word at the register position holds the row's
        // present registers in order; shifts pick them out.
        let (has_dest, has_src0, has_src1) =
            (m & meta::HAS_DEST != 0, m & meta::HAS_SRC0 != 0, m & meta::HAS_SRC1 != 0);
        let window = &self.regs[cur.reg..cur.reg + REG_WINDOW];
        let regs = u32::from_le_bytes(window.try_into().expect("a four-byte window"));
        let src0_at = u32::from(has_dest);
        let src1_at = src0_at + u32::from(has_src0);
        cur.reg += (src1_at + u32::from(has_src1)) as usize;
        let dest = has_dest.then_some(regs as u8);
        let srcs = [
            has_src0.then_some((regs >> (8 * src0_at)) as u8),
            has_src1.then_some((regs >> (8 * src1_at)) as u8),
        ];
        let mem = (m & meta::HAS_MEM != 0).then(|| {
            let j = cur.mem;
            cur.mem += 1;
            let addr =
                widen(self.mem_addr_delta[j], &self.mem_addr_escape, &mut cur.addr_escape, |d| {
                    state.prev_addr.wrapping_add(d)
                });
            state.prev_addr = addr;
            let base = widen(self.mem_disp[j], &self.mem_base_escape, &mut cur.base_escape, |d| {
                addr.wrapping_sub(d)
            });
            MemRef { addr, base, size: self.mem_size[j] }
        });
        let branch = (m & meta::HAS_BRANCH != 0).then(|| {
            let j = cur.br;
            cur.br += 1;
            let target = widen(
                self.br_target_delta[j],
                &self.br_target_escape,
                &mut cur.target_escape,
                |d| pc.wrapping_add(d),
            );
            BranchInfo { taken: self.br_taken[j] != 0, target }
        });
        state.next_pc = fall_through(pc, branch);
        Some(Instr { pc, kind, dest, srcs, mem, branch })
    }
}

/// Sequential decode position within one [`Segment`]: the row index plus
/// running positions into every side column and escape list, and the row
/// of the next pc escape (so a row that follows its predecessor pays one
/// compare, not a lookup).
#[derive(Debug, Clone, Copy)]
pub struct SegmentCursor {
    row: usize,
    reg: usize,
    next_jump: usize,
    jump: usize,
    mem: usize,
    br: usize,
    addr_escape: usize,
    base_escape: usize,
    target_escape: usize,
}

/// Streaming encoder producing [`Segment`]s.
///
/// Holds the cross-segment [`StreamState`]: pcs are implied by the
/// previous instruction *in the stream* and addresses are deltas from the
/// previous memory operation in the stream, not the segment, so the
/// builder must see the stream in order and decoders must thread the
/// state the same way.
#[derive(Debug, Default)]
pub struct SegmentBuilder {
    state: StreamState,
    meta: Vec<u8>,
    regs: Vec<u8>,
    pc_escape: Vec<(usize, u64)>,
    mem_addr_delta: Vec<i32>,
    mem_addr_escape: Vec<u64>,
    mem_disp: Vec<u16>,
    mem_base_escape: Vec<u64>,
    mem_size: Vec<u8>,
    br_taken: Vec<u8>,
    br_target_delta: Vec<i16>,
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
        if instr.pc != self.state.next_pc {
            self.pc_escape.push((self.meta.len(), instr.pc));
        }
        self.state.next_pc = fall_through(instr.pc, instr.branch);
        let mut m = kind_code(instr.kind);
        if let Some(d) = instr.dest {
            m |= meta::HAS_DEST;
            self.regs.push(d);
        }
        for (k, src) in instr.srcs.iter().enumerate() {
            if let Some(s) = src {
                m |= if k == 0 { meta::HAS_SRC0 } else { meta::HAS_SRC1 };
                self.regs.push(*s);
            }
        }
        if let Some(mem) = instr.mem {
            m |= meta::HAS_MEM;
            let delta = mem.addr.wrapping_sub(self.state.prev_addr);
            self.mem_addr_delta.push(narrow(delta, mem.addr, &mut self.mem_addr_escape));
            self.state.prev_addr = mem.addr;
            let disp = mem.addr.wrapping_sub(mem.base);
            self.mem_disp.push(narrow(disp, mem.base, &mut self.mem_base_escape));
            self.mem_size.push(mem.size);
        }
        if let Some(b) = instr.branch {
            m |= meta::HAS_BRANCH;
            self.br_taken.push(u8::from(b.taken));
            let delta = b.target.wrapping_sub(instr.pc);
            self.br_target_delta.push(narrow(delta, b.target, &mut self.br_target_escape));
        }
        self.meta.push(m);
    }

    /// Seals the open segment, leaving the builder empty but keeping the
    /// cross-segment stream state for the next one.
    pub fn finish_segment(&mut self) -> Segment {
        // Padding, so the last row's register window stays in bounds.
        self.regs.extend([0; REG_WINDOW]);
        Segment {
            meta: std::mem::take(&mut self.meta).into_boxed_slice(),
            regs: std::mem::take(&mut self.regs).into_boxed_slice(),
            pc_escape: std::mem::take(&mut self.pc_escape).into_boxed_slice(),
            mem_addr_delta: std::mem::take(&mut self.mem_addr_delta).into_boxed_slice(),
            mem_addr_escape: std::mem::take(&mut self.mem_addr_escape).into_boxed_slice(),
            mem_disp: std::mem::take(&mut self.mem_disp).into_boxed_slice(),
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
        let mut state = StreamState::new();
        for seg in segments {
            let mut cur = seg.cursor();
            while let Some(i) = seg.decode(&mut cur, &mut state) {
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
    /// overflow every narrow column.
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
                // Occasionally teleport the pc so it escapes.
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
                    // Mix near bases (displacement fits) and far bases
                    // (escape).
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
        let load = |pc: u64, addr: u64, base: u64| {
            Instr::new(pc, InstrKind::Load).with_dest(63).with_mem(MemRef { addr, base, size: 8 })
        };
        let branch = |pc: u64, taken: bool, target: u64| {
            Instr::new(pc, InstrKind::Branch).with_branch(BranchInfo { taken, target })
        };
        let addr = 0x1000_0000_u64;
        let target_at = |delta: i64| 0x8000_u64.wrapping_add(delta as u64);
        let instrs = vec![
            // Wrapping pcs, bases and targets far from their anchors.
            load(u64::MAX, 0, u64::MAX),
            branch(0, true, u64::MAX / 2),
            Instr::new(i32::MIN as i64 as u64, InstrKind::Jump)
                .with_branch(BranchInfo { taken: false, target: 0 }),
            // Displacements at, on and past the u16 column's limit.
            load(0x100, addr, addr - 0xFFFE),
            load(0x104, addr, addr - 0xFFFF),
            load(0x108, addr, addr - 0x1_0000),
            // Address deltas at the i32 column's limits: i32::MAX fits,
            // i32::MIN is the sentinel.
            load(0x10c, addr + i32::MAX as u64, addr),
            load(0x110, addr, addr),
            load(0x114, addr.wrapping_add(i32::MIN as i64 as u64), addr),
            // Target deltas at, on and one below the i16 column's limits.
            branch(0x8000, false, target_at(i64::from(i16::MAX))),
            branch(0x8004, false, target_at(i64::from(i16::MIN) + 4)),
            branch(0x8008, false, target_at(i64::from(i16::MIN) + 8 - 1)),
            // A taken branch whose successor is not its target.
            branch(0x800c, true, 0x9000),
            Instr::new(0x8010, InstrKind::IntAlu),
            // A not-taken branch followed by a jump.
            branch(0x8014, false, 0x8100),
            Instr::new(0x8018, InstrKind::Jump).with_branch(BranchInfo { taken: true, target: 0 }),
            Instr::new(0, InstrKind::Store).with_mem(MemRef { addr: 8, base: 8, size: 4 }),
        ];
        for split in 0..=instrs.len() {
            round_trip(&instrs, split);
        }
    }

    #[test]
    fn narrow_columns_escape_exactly_past_their_limits() {
        let mut escapes = Vec::new();
        assert_eq!(narrow::<u16>(0xFFFE, 1, &mut escapes), 0xFFFE);
        assert_eq!(narrow::<u16>(0xFFFF, 2, &mut escapes), u16::MAX);
        assert_eq!(narrow::<u16>(0x1_0000, 3, &mut escapes), u16::MAX);
        assert_eq!(narrow::<i16>(i16::MAX as u64, 4, &mut escapes), i16::MAX);
        assert_eq!(narrow::<i16>(i16::MIN as i64 as u64, 5, &mut escapes), i16::MIN);
        assert_eq!(narrow::<i16>((i16::MIN as i64 - 1) as u64, 6, &mut escapes), i16::MIN);
        assert_eq!(narrow::<i32>(i32::MAX as u64, 7, &mut escapes), i32::MAX);
        assert_eq!(narrow::<i32>(i32::MIN as i64 as u64, 8, &mut escapes), i32::MIN);
        assert_eq!(escapes, [2, 3, 5, 6, 8], "exactly the sentinels and the overflows escape");
    }

    #[test]
    fn columnar_layout_is_at_least_8x_smaller_on_a_typical_mix() {
        // A representative mix: ~30% memory ops, ~15% control, taken
        // branches landing on their targets — what the synthetic suite
        // produces.
        let mut pc = 0x1000_u64;
        let instrs: Vec<Instr> = (0..4096)
            .map(|k| {
                let i = match k % 20 {
                    0..=5 => Instr::new(pc, InstrKind::Load).with_dest(1).with_mem(MemRef {
                        addr: 0x10_0000 + k,
                        base: 0x10_0000,
                        size: 8,
                    }),
                    6..=8 => Instr::new(pc, InstrKind::Branch)
                        .with_srcs(Some(2), None)
                        .with_branch(BranchInfo { taken: k % 2 == 0, target: pc + 64 }),
                    _ => Instr::new(pc, InstrKind::IntAlu).with_dest(3).with_srcs(Some(1), Some(2)),
                };
                pc = i.next_pc();
                i
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
            soa * 8 <= aos,
            "columnar {soa} B vs Instr array {aos} B — expected >= 8x reduction"
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
