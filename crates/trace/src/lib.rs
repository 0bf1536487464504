//! Dynamic instruction records for the trace-driven simulators.
//!
//! The out-of-order core in `bitline-cpu` is trace-driven: a
//! [`TraceSource`] feeds it a stream of [`Instr`] records carrying
//! everything the timing model needs — program counter, operation class,
//! register dependences, resolved memory address (plus the base-register
//! value, which the predecoding heuristic of the paper's Section 6.3 uses),
//! and resolved branch direction/target.
//!
//! # Examples
//!
//! ```
//! use bitline_trace::{Instr, InstrKind, MemRef, TraceSource};
//!
//! struct Nops(u64);
//! impl TraceSource for Nops {
//!     fn next_instr(&mut self) -> Instr {
//!         let pc = self.0;
//!         self.0 += 4;
//!         Instr::new(pc, InstrKind::IntAlu)
//!     }
//! }
//!
//! let mut t = Nops(0x1000);
//! assert_eq!(t.next_instr().pc, 0x1000);
//! assert_eq!(t.next_instr().pc, 0x1004);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columnar;

use serde::{Deserialize, Serialize};

/// A logical (architectural) register name.
///
/// The synthetic ISA has 64 integer/float registers, which is enough to
/// express the dependence patterns the issue logic cares about.
pub type Reg = u8;

/// Number of logical registers in the synthetic ISA.
pub const NUM_REGS: usize = 64;

/// Operation class of a dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstrKind {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Multi-cycle integer multiply/divide.
    IntMul,
    /// Floating-point operation.
    FpAlu,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch (direction in [`Instr::branch`]).
    Branch,
    /// Unconditional jump / call / return.
    Jump,
}

impl InstrKind {
    /// True for loads and stores.
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, InstrKind::Load | InstrKind::Store)
    }

    /// True for control-flow instructions.
    #[must_use]
    pub fn is_control(self) -> bool {
        matches!(self, InstrKind::Branch | InstrKind::Jump)
    }
}

/// A resolved memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemRef {
    /// Effective (virtual) address of the access.
    pub addr: u64,
    /// Value of the base register before displacement addition.
    ///
    /// Predecoding (Section 6.3 of the paper) predicts the accessed
    /// subarray from this value as soon as the base register is read; the
    /// prediction is correct exactly when `addr` and `base` select the same
    /// subarray.
    pub base: u64,
    /// Access size in bytes.
    pub size: u8,
}

/// Resolved outcome of a control-flow instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BranchInfo {
    /// Whether the branch is taken.
    pub taken: bool,
    /// Target address if taken.
    pub target: u64,
}

/// One dynamic instruction as delivered by a [`TraceSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Instr {
    /// Program counter of the instruction.
    pub pc: u64,
    /// Operation class.
    pub kind: InstrKind,
    /// Destination register, if the instruction writes one.
    pub dest: Option<Reg>,
    /// Source registers (up to two).
    pub srcs: [Option<Reg>; 2],
    /// Memory reference for loads/stores.
    pub mem: Option<MemRef>,
    /// Branch outcome for control instructions.
    pub branch: Option<BranchInfo>,
}

impl Instr {
    /// A bare instruction of the given class with no operands.
    ///
    /// Builder-style helpers ([`Instr::with_dest`], [`Instr::with_srcs`],
    /// [`Instr::with_mem`], [`Instr::with_branch`]) fill in the rest.
    #[must_use]
    pub fn new(pc: u64, kind: InstrKind) -> Instr {
        Instr { pc, kind, dest: None, srcs: [None, None], mem: None, branch: None }
    }

    /// Sets the destination register.
    #[must_use]
    pub fn with_dest(mut self, dest: Reg) -> Instr {
        self.dest = Some(dest);
        self
    }

    /// Sets up to two source registers.
    #[must_use]
    pub fn with_srcs(mut self, a: Option<Reg>, b: Option<Reg>) -> Instr {
        self.srcs = [a, b];
        self
    }

    /// Attaches a memory reference.
    #[must_use]
    pub fn with_mem(mut self, mem: MemRef) -> Instr {
        self.mem = Some(mem);
        self
    }

    /// Attaches a branch outcome.
    #[must_use]
    pub fn with_branch(mut self, branch: BranchInfo) -> Instr {
        self.branch = Some(branch);
        self
    }

    /// Fall-through program counter (fixed 4-byte encoding).
    #[must_use]
    pub fn next_pc(&self) -> u64 {
        match self.branch {
            Some(b) if b.taken => b.target,
            _ => self.pc + 4,
        }
    }
}

/// A source of dynamic instructions.
///
/// Sources are infinite: simulators decide how many instructions to
/// consume. Implementations must be deterministic for a fixed seed so
/// experiments are reproducible.
pub trait TraceSource {
    /// Produces the next dynamic instruction.
    fn next_instr(&mut self) -> Instr;

    /// Human-readable name (benchmark name for workloads).
    fn name(&self) -> &str {
        "anonymous"
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_instr(&mut self) -> Instr {
        (**self).next_instr()
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// A replayable in-memory trace, useful in tests.
///
/// # Examples
///
/// ```
/// use bitline_trace::{Instr, InstrKind, ReplayTrace, TraceSource};
///
/// let mut t = ReplayTrace::new(vec![Instr::new(0, InstrKind::IntAlu)]);
/// assert_eq!(t.next_instr().pc, 0);
/// // Wraps around.
/// assert_eq!(t.next_instr().pc, 0);
/// ```
#[derive(Debug, Clone)]
pub struct ReplayTrace {
    instrs: Vec<Instr>,
    pos: usize,
}

impl ReplayTrace {
    /// Wraps a vector of instructions into a cyclic trace.
    ///
    /// # Panics
    ///
    /// Panics if `instrs` is empty.
    #[must_use]
    pub fn new(instrs: Vec<Instr>) -> ReplayTrace {
        assert!(!instrs.is_empty(), "replay trace cannot be empty");
        ReplayTrace { instrs, pos: 0 }
    }

    /// Number of distinct instructions before the trace repeats.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Always false (construction rejects empty traces).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl TraceSource for ReplayTrace {
    fn next_instr(&mut self) -> Instr {
        let i = self.instrs[self.pos];
        self.pos = (self.pos + 1) % self.instrs.len();
        i
    }

    fn name(&self) -> &str {
        "replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pc_follows_taken_branches() {
        let b =
            Instr::new(100, InstrKind::Branch).with_branch(BranchInfo { taken: true, target: 64 });
        assert_eq!(b.next_pc(), 64);
        let n =
            Instr::new(100, InstrKind::Branch).with_branch(BranchInfo { taken: false, target: 64 });
        assert_eq!(n.next_pc(), 104);
        let plain = Instr::new(100, InstrKind::IntAlu);
        assert_eq!(plain.next_pc(), 104);
    }

    #[test]
    fn kind_classification() {
        assert!(InstrKind::Load.is_mem());
        assert!(InstrKind::Store.is_mem());
        assert!(!InstrKind::Branch.is_mem());
        assert!(InstrKind::Branch.is_control());
        assert!(InstrKind::Jump.is_control());
        assert!(!InstrKind::FpAlu.is_control());
    }

    #[test]
    fn replay_wraps_and_reports_len() {
        let mut t = ReplayTrace::new(vec![
            Instr::new(0, InstrKind::IntAlu),
            Instr::new(4, InstrKind::Load),
        ]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.next_instr().pc, 0);
        assert_eq!(t.next_instr().pc, 4);
        assert_eq!(t.next_instr().pc, 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn replay_rejects_empty() {
        let _ = ReplayTrace::new(vec![]);
    }

    #[test]
    fn builder_composes() {
        let i = Instr::new(8, InstrKind::Load)
            .with_dest(3)
            .with_srcs(Some(1), None)
            .with_mem(MemRef { addr: 0x1008, base: 0x1000, size: 8 });
        assert_eq!(i.dest, Some(3));
        assert_eq!(i.srcs, [Some(1), None]);
        assert_eq!(i.mem.unwrap().base, 0x1000);
    }
}
