//! The out-of-order pipeline.
//!
//! A cycle-level, trace-driven model. Every cycle runs, in order:
//! complete (fetch redirect and load-latency resolution, with replay),
//! commit, issue, dispatch, fetch. Instructions are identified by
//! monotonically increasing sequence numbers.
//!
//! # Data-oriented layout
//!
//! The reorder buffer is a structure-of-arrays ring ([`Rob`]): entry `seq`
//! lives at slot `seq % 128` (the live window never exceeds
//! `rob_entries <= 128`). Every set of entries the scheduler tracks is a
//! `u128` mask over slots: `waiting` holds the entries not yet issued;
//! issue scans only the awake mask, oldest first; an entry whose operands
//! are not ready sleeps on a timer and in its producers' consumer masks.
//!
//! The scheduler pays per dependence edge, not per ROB slot:
//!
//! - **Operand readiness** is a window test on three cycles the producer
//!   wrote at issue ([`Visibility`]): no branch on its kind or state.
//! - **Dependents-only replay** walks the dependents masks set at
//!   dispatch, from the misspeculated load outwards, instead of scanning
//!   every younger issued entry.
//!
//! # Event-driven execution
//!
//! A run pays for its events, not its cycles:
//!
//! - **Implicit completion.** An issued entry is complete once its ready
//!   cycle has passed (`ready_cycle <= now`); nothing marks it done. Only
//!   the mispredicted branch fetch is blocked on needs noticing, and
//!   `complete` checks that one branch directly.
//! - **Two timing wheels** ([`Wheel`]) hold the remaining events: sleep
//!   expiries and load-latency resolutions. A slot bit carries no seq, so
//!   every drain re-checks state and cycles; a stale bit at worst wakes an
//!   entry early, which costs one operand re-check.
//! - **Sleep at dispatch.** Dispatch runs the operand check the next
//!   cycle's issue would run, so an entry whose operands cannot be ready
//!   goes straight to sleep instead of through the awake mask.
//! - **Idle-cycle skipping.** When no stage can act, the clock jumps to the
//!   next cycle that can change state: a wheel event, the end of a fetch
//!   stall, the blocking branch's result or the head's commit cycle. A
//!   skipped cycle would only have counted a fetch stall, so the span is
//!   credited to `fetch_stall_cycles` when fetch was blocked or stalled.
//!
//! All of this is architecturally invisible (pinned by the
//! `cycle_identity` goldens in `bitline-sim`); [`CoreWork`] counts what the
//! loop did.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use bitline_cache::MemorySystem;
use bitline_trace::{Instr, InstrKind, TraceSource, NUM_REGS};

use crate::bpred::BranchPredictor;
use crate::config::{CpuConfig, ReplayScope, MAX_ROB_ENTRIES};
use crate::stats::SimStats;

/// Sentinel for "no producer" in the packed producer arrays.
const NO_PRODUCER: u64 = u64::MAX;

/// Flag bits in [`Rob::flags`].
mod flag {
    /// Load latency exceeded the speculative hit assumption.
    pub const MISSPECULATED: u8 = 1 << 0;
    /// Replay already processed for this load.
    pub const REPLAY_HANDLED: u8 = 1 << 1;
    /// This instruction is the mispredicted branch the front end is
    /// blocked on.
    pub const BLOCKED_FETCH: u8 = 1 << 2;
}

/// Ring slots: one bit each in a [`SlotMask`].
const SLOTS: usize = MAX_ROB_ENTRIES;

/// A set of ring slots, bit `s` for slot `s`.
type SlotMask = u128;

#[inline]
fn slot(seq: u64) -> usize {
    seq as usize % SLOTS
}

#[inline]
fn bit(slot: usize) -> SlotMask {
    1 << slot
}

/// The reorder buffer as flat parallel arrays over the slot ring. Per-kind
/// payloads sit in side arrays instead of inline `Option`s: `mem_addr` and
/// `mem_base` are only meaningful for loads and stores, `mem_first_ready`
/// (0 = never executed) only for loads.
struct Rob {
    kind: [InstrKind; SLOTS],
    /// Producer seqs, [`NO_PRODUCER`] when absent.
    producers: [[u64; 2]; SLOTS],
    issue_cycle: [u64; SLOTS],
    /// Cycle the result is available (valid once issued; always later
    /// than the issue cycle).
    ready_cycle: [u64; SLOTS],
    /// For loads: cycle the scheduler learns the true latency.
    resolve_cycle: [u64; SLOTS],
    flags: [u8; SLOTS],
    /// For loads: the cycle the data was actually available after the
    /// first execution (0 = none). A replayed load may re-access the
    /// cache (the line has been filled functionally), but its data cannot
    /// materialise before the original fill completes.
    mem_first_ready: [u64; SLOTS],
    /// Memory-op payload (valid only when `kind` is a load/store).
    mem_addr: [u64; SLOTS],
    mem_base: [u64; SLOTS],
    /// For waiting entries: a lower bound on the first cycle their
    /// operands could all be ready; the entry sleeps until then. 0 = check
    /// now; squash resets to 0; producer (re-)issue may pull it forward.
    wake_cycle: [u64; SLOTS],
    /// Consumers that went to sleep on this entry. Drained (and min-woken)
    /// when the entry (re-)issues — a re-issued load opens a fresh
    /// speculation window that can start earlier than the bound the
    /// sleeper computed from the previous execution.
    consumers: [SlotMask; SLOTS],
    /// Every younger entry that named this one as a producer, set at their
    /// dispatch: the edges the dependents-only replay walks. Cleared when
    /// the slot is reused; commit is in order, so each bit names a live
    /// entry for as long as this one is live.
    dependents: [SlotMask; SLOTS],
    /// When consumers may read the result, written at issue.
    vis: [Visibility; SLOTS],
}

impl Rob {
    fn new() -> Rob {
        Rob {
            kind: [InstrKind::IntAlu; SLOTS],
            producers: [[NO_PRODUCER; 2]; SLOTS],
            issue_cycle: [0; SLOTS],
            ready_cycle: [0; SLOTS],
            resolve_cycle: [0; SLOTS],
            flags: [0; SLOTS],
            mem_first_ready: [0; SLOTS],
            mem_addr: [0; SLOTS],
            mem_base: [0; SLOTS],
            wake_cycle: [0; SLOTS],
            consumers: [0; SLOTS],
            dependents: [0; SLOTS],
            vis: [Visibility::NEVER; SLOTS],
        }
    }
}

/// The cycles at which an entry's result is visible to a consumer issuing
/// at `t`: `from <= t < until` (a load's speculative window: consumers
/// assume the hit latency until the scheduler learns the true one) or
/// `ready <= t`. A non-load's window opens at its ready cycle and never
/// closes. Kept apart from `ready_cycle` because a squashed load still
/// replays from its old cycles while nothing may read it.
#[derive(Debug, Clone, Copy)]
struct Visibility {
    from: u64,
    until: u64,
    ready: u64,
}

impl Visibility {
    /// A waiting entry's: nothing reads it until it issues.
    const NEVER: Visibility = Visibility { from: u64::MAX, until: u64::MAX, ready: u64::MAX };

    /// A result visible from its ready cycle on.
    fn at(ready: u64) -> Visibility {
        Visibility { from: ready, until: u64::MAX, ready }
    }
}

/// Cycles ahead a [`Wheel`] schedules without its overflow heap.
const HORIZON: u64 = 1024;

/// A timing wheel of slot masks: bucket `cycle % HORIZON` holds the slots
/// due at `cycle`; only events beyond the horizon wait in the heap.
struct Wheel {
    buckets: Box<[SlotMask; HORIZON as usize]>,
    overflow: BinaryHeap<Reverse<(u64, usize)>>,
    /// Events scheduled so far (a [`CoreWork`] count).
    scheduled: u64,
}

impl Wheel {
    fn new() -> Wheel {
        Wheel {
            buckets: Box::new([0; HORIZON as usize]),
            overflow: BinaryHeap::new(),
            scheduled: 0,
        }
    }

    /// Schedules `slot` for cycle `at`. An event at or before `now` fires
    /// at `now + 1`, the next drain — exactly when a heap would pop it.
    fn schedule(&mut self, now: u64, at: u64, slot: usize) {
        self.scheduled += 1;
        let at = at.max(now + 1);
        if at - now <= HORIZON {
            self.buckets[(at % HORIZON) as usize] |= bit(slot);
        } else {
            self.overflow.push(Reverse((at, slot)));
        }
    }

    /// Takes the slots due at `now`. Runs on every stepped cycle, before
    /// anything is scheduled that cycle, and a cycle is only skipped when
    /// its bucket is empty, so a bucket never mixes two laps.
    fn drain(&mut self, now: u64) -> SlotMask {
        let mut due = std::mem::take(&mut self.buckets[(now % HORIZON) as usize]);
        while let Some(&Reverse((at, slot))) = self.overflow.peek() {
            if at > now {
                break;
            }
            self.overflow.pop();
            due |= bit(slot);
        }
        due
    }

    /// The first cycle in `[now, limit)` with an event scheduled (stale
    /// ones included), or `limit` when there is none. Events scheduled
    /// before `now` lie at most `HORIZON - 1` cycles past it, so one lap
    /// of buckets covers them all.
    fn next_event(&self, now: u64, limit: u64) -> u64 {
        let limit = match self.overflow.peek() {
            Some(&Reverse((at, _))) => limit.min(at),
            None => limit,
        };
        (now..limit.min(now + HORIZON))
            .find(|&at| self.buckets[(at % HORIZON) as usize] != 0)
            .unwrap_or(limit)
    }
}

/// What the core's loop did, counted exactly. The counts are a pure
/// function of the run, so they are identical at any job count; they stay
/// out of [`SimStats`], so results and their encodings keep their bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreWork {
    /// Cycles on which the pipeline stages ran.
    pub stepped_cycles: u64,
    /// Idle cycles the clock jumped over without running a stage.
    pub skipped_cycles: u64,
    /// Entries the issue stage visited in the awake mask.
    pub awake_visits: u64,
    /// Visibility tests of a consumer's producers, one per named producer
    /// (an operand with none costs nothing), at dispatch and at issue.
    pub operand_checks: u64,
    /// Sleep-expiry and load-resolution events put on a wheel.
    pub wheel_events: u64,
    /// Entries the replay walk visited: issued dependents of the load or of
    /// an entry it squashed, or under [`ReplayScope::AllYounger`] every
    /// issued entry younger than the load.
    pub replay_slots: u64,
}

/// The 8-wide out-of-order core (see crate docs).
pub struct Cpu {
    cfg: CpuConfig,
    mem: MemorySystem,
    bpred: BranchPredictor,
    rob: Rob,
    head_seq: u64,
    next_seq: u64,
    rename: [Option<u64>; NUM_REGS],
    fetch_queue: VecDeque<Instr>,
    /// One-instruction lookahead pulled from the trace but not yet fetched.
    fetch_buffer: Option<Instr>,
    iq_count: usize,
    lsq_count: usize,
    cycle: u64,
    fetch_stall_until: u64,
    /// Sequence number of a mispredicted branch blocking the front end.
    fetch_blocked_on: Option<u64>,
    /// An I-cache line whose fill/pull-up we already paid for: `(line,
    /// ready_cycle)`. Prevents re-charging the access on fetch retry.
    fetch_line_ready: Option<(u64, u64)>,
    /// Entries not yet issued: set at dispatch and at squash, cleared at
    /// issue. A live entry outside it is issued, and complete once its
    /// ready cycle has passed.
    waiting: SlotMask,
    /// Misspeculated loads, at each one's resolve cycle.
    replay_events: Wheel,
    /// Waiting entries eligible for an operand check this cycle (their
    /// `wake_cycle` has passed). The issue stage scans only this mask —
    /// sleeping entries cost nothing until a timer or producer wakes them.
    awake: SlotMask,
    /// Sleep-expiry timers, at each sleeper's `wake_cycle`.
    wake_events: Wheel,
    stats: SimStats,
    /// Work counts, except wheel events: each wheel counts its own.
    work: CoreWork,
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("cycle", &self.cycle)
            .field("rob", &(self.next_seq - self.head_seq))
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Cpu {
    /// Builds a core over a memory system.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CpuConfig::validate`], or if the L1 data
    /// cache's hit latency is 0 (every result must be ready after the
    /// cycle its instruction issues).
    #[must_use]
    pub fn new(cfg: CpuConfig, mem: MemorySystem) -> Cpu {
        cfg.validate();
        assert!(mem.config().l1d.hit_latency > 0, "l1d.hit_latency = 0; it must be at least 1");
        Cpu {
            cfg,
            mem,
            bpred: BranchPredictor::new(),
            rob: Rob::new(),
            head_seq: 0,
            next_seq: 0,
            rename: [None; NUM_REGS],
            fetch_queue: VecDeque::with_capacity(cfg.fetch_queue),
            fetch_buffer: None,
            iq_count: 0,
            lsq_count: 0,
            cycle: 0,
            fetch_stall_until: 0,
            fetch_blocked_on: None,
            fetch_line_ready: None,
            waiting: 0,
            replay_events: Wheel::new(),
            awake: 0,
            wake_events: Wheel::new(),
            stats: SimStats::default(),
            work: CoreWork::default(),
        }
    }

    /// Runs until `instructions` have committed; returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline makes no forward progress for an extended
    /// period (a simulator bug, not a workload property).
    pub fn run(&mut self, trace: &mut dyn TraceSource, instructions: u64) -> SimStats {
        let target = self.stats.committed + instructions;
        let mut last_progress = (self.cycle, self.stats.committed);
        while self.stats.committed < target {
            self.step(trace);
            if self.cycle - last_progress.0 > 100_000 {
                let head = (self.head_seq < self.next_seq).then(|| {
                    let s = slot(self.head_seq);
                    (
                        self.rob.kind[s],
                        self.waiting & bit(s) != 0,
                        self.rob.ready_cycle[s],
                        self.rob.resolve_cycle[s],
                        self.rob.flags[s],
                    )
                });
                assert!(
                    self.stats.committed > last_progress.1,
                    "pipeline deadlock at cycle {}: rob={} iq={} lsq={} fq={} \
                     head(kind, waiting, ready, resolve, flags)={:?} \
                     blocked_on={:?} stall_until={}",
                    self.cycle,
                    self.next_seq - self.head_seq,
                    self.iq_count,
                    self.lsq_count,
                    self.fetch_queue.len(),
                    head,
                    self.fetch_blocked_on,
                    self.fetch_stall_until,
                );
                last_progress = (self.cycle, self.stats.committed);
            }
        }
        self.stats.cycles = self.cycle;
        self.stats
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.cycles = self.cycle;
        s
    }

    /// What the core's loop has done so far.
    #[must_use]
    pub fn work(&self) -> CoreWork {
        CoreWork {
            wheel_events: self.wake_events.scheduled + self.replay_events.scheduled,
            ..self.work
        }
    }

    /// The memory system (for cache statistics).
    #[must_use]
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Consumes the core, returning the memory system for finalisation.
    #[must_use]
    pub fn into_memory(self) -> MemorySystem {
        self.mem
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    fn step(&mut self, trace: &mut dyn TraceSource) {
        self.skip_idle_cycles();
        self.work.stepped_cycles += 1;
        self.complete();
        self.commit();
        self.issue();
        self.dispatch();
        self.fetch(trace);
        self.cycle += 1;
    }

    /// Jumps the clock over cycles on which no stage can act. Such a cycle
    /// has nothing awake to issue, no wheel event due, a head that cannot
    /// commit, a blocked dispatch and a fetch that is blocked, stalled or
    /// full — and the blocking branch, if any, has no result yet. Only
    /// the events listed below change any of that, so the clock moves to
    /// the earliest of them, and each skipped cycle is credited as the
    /// fetch stall it would have counted.
    fn skip_idle_cycles(&mut self) {
        let cycle = self.cycle;
        let fetch_blocked = self.fetch_blocked_on.is_some();
        let fetch_stalled = cycle < self.fetch_stall_until;
        if self.awake != 0
            || (!fetch_blocked && !fetch_stalled && self.fetch_queue.len() < self.cfg.fetch_queue)
            || !self.dispatch_blocked()
        {
            return;
        }
        let mut next = u64::MAX;
        // The head's commit cycle (a waiting head issues on a wheel event).
        if self.head_seq < self.next_seq && self.waiting & bit(slot(self.head_seq)) == 0 {
            next = self.commit_cycle(slot(self.head_seq));
        }
        match self.fetch_blocked_on {
            // The blocking branch's result, once it has issued.
            Some(b) if self.live(b) && self.waiting & bit(slot(b)) == 0 => {
                next = next.min(self.rob.ready_cycle[slot(b)]);
            }
            Some(_) => {}
            None if fetch_stalled => next = next.min(self.fetch_stall_until),
            None => {}
        }
        let next = self.wake_events.next_event(cycle, next);
        let next = self.replay_events.next_event(cycle, next);
        // `next <= cycle`: something can act now. `u64::MAX`: nothing is
        // pending at all, a deadlock the watchdog in `run` should see.
        if next <= cycle || next == u64::MAX {
            return;
        }
        let skipped = next - cycle;
        if fetch_blocked || fetch_stalled {
            self.stats.fetch_stall_cycles += skipped;
        }
        self.work.skipped_cycles += skipped;
        self.cycle = next;
    }

    #[inline]
    fn live(&self, seq: u64) -> bool {
        seq >= self.head_seq && seq < self.next_seq
    }

    /// The live entries from `from` on among `mask`'s slots, oldest first:
    /// rotating by `from`'s slot turns ring order into bit order.
    fn seqs_from(&self, from: u64, mask: SlotMask) -> impl Iterator<Item = u64> {
        let len = self.next_seq - from;
        let mut rest = mask.rotate_right(slot(from) as u32);
        std::iter::from_fn(move || {
            let offset = u64::from(rest.trailing_zeros());
            rest &= rest.wrapping_sub(1);
            (offset < len).then_some(from + offset)
        })
    }

    /// The live entries among `mask`'s slots, oldest first.
    fn live_seqs(&self, mask: SlotMask) -> impl Iterator<Item = u64> {
        self.seqs_from(self.head_seq, mask)
    }

    /// Fetch redirect + load-latency resolution.
    fn complete(&mut self) {
        let cycle = self.cycle;
        // The front end resumes, after the redirect penalty, once the
        // mispredicted branch it is blocked on has produced its result.
        if let Some(b) = self.fetch_blocked_on {
            let s = slot(b);
            if self.live(b) && self.waiting & bit(s) == 0 && self.rob.ready_cycle[s] <= cycle {
                let resume = self.rob.ready_cycle[s] + self.cfg.redirect_penalty;
                self.fetch_blocked_on = None;
                self.fetch_stall_until = self.fetch_stall_until.max(resume);
            }
        }
        // Load-hit speculation resolution, in ascending seq order. A load
        // re-issued since has fresh flags and resolve cycle, so its stale
        // event does not fire. Whether it waits is deliberately NOT
        // consulted — a squashed misspeculated load still replays at its
        // resolve cycle.
        let due = self.replay_events.drain(cycle);
        for seq in self.live_seqs(due) {
            let s = slot(seq);
            if self.rob.kind[s] == InstrKind::Load
                && self.rob.flags[s] & (flag::MISSPECULATED | flag::REPLAY_HANDLED)
                    == flag::MISSPECULATED
                && self.rob.resolve_cycle[s] <= cycle
            {
                self.rob.flags[s] |= flag::REPLAY_HANDLED;
                self.replay(seq);
            }
        }
    }

    /// Squashes and re-queues the speculatively issued consumers of the
    /// mispredicted load `load_seq`: the entries that issued before its
    /// data was actually ready, among its dependents (transitively) or,
    /// under [`ReplayScope::AllYounger`], among everything issued after it.
    ///
    /// An entry that issued at or after the load's data-ready cycle is
    /// never squashed, and the dependents-only walk does not continue
    /// through it, even when one of its producers is squashed.
    fn replay(&mut self, load_seq: u64) {
        self.stats.load_misspeculations += 1;
        let load_slot = slot(load_seq);
        let load_ready = self.rob.ready_cycle[load_slot];
        // Only issued entries can be squashed, and a squash re-queues only
        // the entry it visits, so one snapshot of the mask serves the pass.
        let issued = !self.waiting;
        match self.cfg.replay_scope {
            ReplayScope::DependentsOnly => {
                // Edges point from older to younger, so taking the oldest
                // entry of the frontier each time visits the transitive
                // dependents in seq order, each once.
                let first = load_seq + 1;
                let mut frontier = self.rob.dependents[load_slot] & issued;
                while frontier != 0 {
                    let offset = frontier.rotate_right(slot(first) as u32).trailing_zeros();
                    let seq = first + u64::from(offset);
                    let s = slot(seq);
                    frontier &= !bit(s);
                    self.work.replay_slots += 1;
                    if self.rob.issue_cycle[s] < load_ready {
                        self.squash(seq);
                        frontier |= self.rob.dependents[s] & issued;
                    }
                }
            }
            ReplayScope::AllYounger => {
                let load_issue = self.rob.issue_cycle[load_slot];
                for seq in self.seqs_from(load_seq + 1, issued) {
                    self.work.replay_slots += 1;
                    let issue = self.rob.issue_cycle[slot(seq)];
                    if issue < load_ready && issue > load_issue {
                        self.squash(seq);
                    }
                }
            }
        }
    }

    /// Returns the issued entry `seq` to the waiting, awake set.
    fn squash(&mut self, seq: u64) {
        let s = slot(seq);
        self.waiting |= bit(s);
        self.rob.vis[s] = Visibility::NEVER;
        self.rob.wake_cycle[s] = 0;
        self.awake |= bit(s);
        self.stats.replays += 1;
        self.iq_count += 1;
        if self.rob.flags[s] & flag::BLOCKED_FETCH != 0 {
            // The branch that unblocked the front end was fed speculative
            // data: re-block until it re-executes.
            self.fetch_blocked_on = Some(seq);
        }
    }

    /// The first cycle the issued entry in slot `s` may retire: once its
    /// result is ready and, for a load, once the scheduler has resolved
    /// its latency (and run any replay) — everything younger is held too.
    #[inline]
    fn commit_cycle(&self, s: usize) -> u64 {
        let ready = self.rob.ready_cycle[s];
        let resolve = self.rob.resolve_cycle[s];
        if resolve == u64::MAX || self.rob.flags[s] & flag::REPLAY_HANDLED != 0 {
            ready
        } else {
            ready.max(resolve)
        }
    }

    fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            if self.head_seq == self.next_seq {
                break;
            }
            let s = slot(self.head_seq);
            if self.waiting & bit(s) != 0 || self.commit_cycle(s) > self.cycle {
                break;
            }
            if self.rob.kind[s].is_mem() {
                self.lsq_count -= 1;
            }
            self.head_seq += 1;
            self.stats.committed += 1;
        }
    }

    /// Checks the operands of the waiting entry in slot `s` for an issue
    /// at `cycle`: registers it with every producer that cannot deliver by
    /// then, and returns the latest bound (0 when every operand is ready).
    ///
    /// A producer delivers when it has retired or its [`Visibility`]
    /// covers `cycle`. Otherwise the bound is a strict lower bound on the
    /// first cycle it could: its window's opening while that lies ahead,
    /// else its ready cycle (`u64::MAX` while it waits; its issue wakes
    /// the consumer). Under-estimating the bound only costs a recheck;
    /// over-estimating would change timing.
    fn operand_check(&mut self, s: usize, cycle: u64) -> u64 {
        let mut wake = 0;
        for p in self.rob.producers[s] {
            if p == NO_PRODUCER {
                continue;
            }
            self.work.operand_checks += 1;
            let ps = slot(p);
            let v = self.rob.vis[ps];
            // A retired producer's slot may hold a younger entry; its value
            // is architectural state.
            let visible =
                (p < self.head_seq) | ((v.from <= cycle) & (cycle < v.until)) | (v.ready <= cycle);
            if !visible {
                wake = wake.max(if cycle < v.from { v.from } else { v.ready });
                // Register for a wake: if the producer (re-)issues, its
                // fresh speculation window may open before this bound.
                self.rob.consumers[ps] |= bit(s);
            }
        }
        wake
    }

    /// Puts the entry in slot `s` to sleep until `wake`, which exceeds
    /// every cycle it could issue in. A `u64::MAX` bound gets no timer:
    /// the registered producer's issue wakes it.
    fn sleep(&mut self, s: usize, wake: u64) {
        self.rob.wake_cycle[s] = wake;
        if wake != u64::MAX {
            self.wake_events.schedule(self.cycle, wake, s);
        }
    }

    fn dcache_hit_latency(&self) -> u32 {
        self.mem.config().l1d.hit_latency
    }

    fn exec_latency(&self, kind: InstrKind) -> u64 {
        match kind {
            InstrKind::IntAlu | InstrKind::Store => self.cfg.int_latency,
            InstrKind::IntMul => self.cfg.mul_latency,
            InstrKind::FpAlu => self.cfg.fp_latency,
            InstrKind::Branch | InstrKind::Jump => self.cfg.int_latency,
            InstrKind::Load => unreachable!("load latency comes from the memory system"),
        }
    }

    fn issue(&mut self) {
        let cycle = self.cycle;
        // Admit entries whose sleep just expired. A due slot is stale when
        // its entry issued in the meantime (no longer waiting) or re-slept
        // with a later bound (its own fresh event is still scheduled).
        let due = self.wake_events.drain(cycle);
        for seq in self.live_seqs(due) {
            let s = slot(seq);
            if self.waiting & bit(s) != 0 && self.rob.wake_cycle[s] <= cycle {
                self.awake |= bit(s);
            }
        }
        debug_assert_eq!(self.awake & !self.waiting, 0, "only waiting entries are awake");
        let mut issued = 0;
        let mut dcache_ops = 0;
        let mut store_ops = 0;
        // Oldest first. Nothing joins the mask during the scan (squashes
        // happen in `complete`, dispatch runs after issue).
        for seq in self.live_seqs(self.awake) {
            if issued >= self.cfg.issue_width {
                break; // width exhausted; the rest stay candidates next cycle
            }
            self.work.awake_visits += 1;
            let s = slot(seq);
            let kind = self.rob.kind[s];
            let is_mem = kind.is_mem();
            let is_store = kind == InstrKind::Store;
            if (is_mem && dcache_ops >= self.cfg.dcache_ports)
                || (is_store && store_ops >= self.cfg.dcache_write_ports)
            {
                // Structurally blocked with (possibly) ready operands:
                // stays awake and retries every cycle, as the full scan did.
                continue;
            }
            // Whether it issues or sleeps, it leaves the awake mask.
            self.awake &= !bit(s);
            let wake = self.operand_check(s, cycle);
            if wake > 0 {
                // All bounds exceed the current cycle, so the entry cannot
                // issue before `wake`.
                self.sleep(s, wake);
                continue;
            }
            // Issue it. With predecode hints on, every load and store
            // carries its hint (the base-register value) into its access.
            let prior_ready = self.rob.mem_first_ready[s];
            let predicted = (self.cfg.predecode_hints && is_mem).then(|| {
                self.stats.hints += 1;
                self.rob.mem_base[s]
            });
            let vis = match kind {
                InstrKind::Load => {
                    let addr = self.rob.mem_addr[s];
                    let out = self.mem.data_access_predicted(addr, predicted, false, cycle);
                    self.stats.loads += 1;
                    // A replayed load re-accesses the cache, but the line
                    // fill from its first execution is still in flight: the
                    // data arrives no earlier than originally established.
                    let ready = (cycle + u64::from(out.latency)).max(prior_ready);
                    // Load-hit speculation: consumers assume the hit latency
                    // until the scheduler learns the true one.
                    Visibility {
                        from: cycle + u64::from(self.dcache_hit_latency()),
                        until: cycle + self.cfg.load_resolution_delay,
                        ready,
                    }
                }
                InstrKind::Store => {
                    let addr = self.rob.mem_addr[s];
                    let out = self.mem.data_access_predicted(addr, predicted, true, cycle);
                    self.stats.stores += 1;
                    // Stores drain through the store buffer: commit waits
                    // only for the cache port (plus any pull-up delay), not
                    // for the line fill.
                    let delay = u64::from(out.delayed as u32);
                    Visibility::at(cycle + u64::from(self.dcache_hit_latency()) + delay)
                }
                k => Visibility::at(cycle + self.exec_latency(k)),
            };
            self.waiting &= !bit(s);
            self.rob.issue_cycle[s] = cycle;
            self.rob.ready_cycle[s] = vis.ready;
            self.rob.resolve_cycle[s] = vis.until;
            self.rob.vis[s] = vis;
            if kind == InstrKind::Load {
                self.rob.mem_first_ready[s] = vis.ready;
            }
            let mut flags = self.rob.flags[s] & !(flag::MISSPECULATED | flag::REPLAY_HANDLED);
            // Misspeculated: the value arrives after the cycle consumers
            // were allowed to assume it (only a load's can).
            if vis.ready > vis.from {
                flags |= flag::MISSPECULATED;
                // A re-issued load may misspeculate again (replay storms
                // are real); each misspeculating issue schedules a fresh
                // replay round.
                self.replay_events.schedule(cycle, vis.until, s);
            }
            self.rob.flags[s] = flags;
            // Wake sleeping consumers: their stored bound may predate this
            // (re-)issue, whose value can arrive earlier than they assumed.
            // `min` never extends a sleep, so waking is always safe.
            let consumers = std::mem::take(&mut self.rob.consumers[s]);
            if consumers != 0 {
                for w in self.live_seqs(consumers & self.waiting) {
                    let ds = slot(w);
                    let wc = &mut self.rob.wake_cycle[ds];
                    *wc = (*wc).min(vis.from);
                    // Re-admit the sleeper at its (possibly pulled
                    // forward) wake cycle; stale events filter out.
                    self.wake_events.schedule(cycle, *wc, ds);
                }
            }
            if kind.is_control() {
                self.stats.branches += 1;
            }
            issued += 1;
            self.iq_count -= 1;
            if is_mem {
                dcache_ops += 1;
            }
            if is_store {
                store_ops += 1;
            }
        }
    }

    /// Can dispatch move nothing this cycle? The ROB or issue queue is
    /// full, the fetch queue is empty, or a memory op at its front finds
    /// the load/store queue full.
    fn dispatch_blocked(&self) -> bool {
        (self.next_seq - self.head_seq) as usize >= self.cfg.rob_entries
            || self.iq_count >= self.cfg.iq_entries
            || self
                .fetch_queue
                .front()
                .is_none_or(|i| i.kind.is_mem() && self.lsq_count >= self.cfg.lsq_entries)
    }

    fn dispatch(&mut self) {
        for _ in 0..self.cfg.dispatch_width {
            if self.dispatch_blocked() {
                break;
            }
            let instr = self.fetch_queue.pop_front().expect("dispatch is not blocked");
            let is_mem = instr.kind.is_mem();
            let seq = self.next_seq;
            self.next_seq += 1;
            let producers = [
                instr.srcs[0].and_then(|r| self.rename[r as usize]).unwrap_or(NO_PRODUCER),
                instr.srcs[1].and_then(|r| self.rename[r as usize]).unwrap_or(NO_PRODUCER),
            ];
            if let Some(d) = instr.dest {
                self.rename[d as usize] = Some(seq);
            }
            if is_mem {
                self.lsq_count += 1;
            }
            self.iq_count += 1;
            let s = slot(seq);
            self.waiting |= bit(s);
            self.rob.kind[s] = instr.kind;
            self.rob.producers[s] = producers;
            self.rob.flags[s] =
                if self.fetch_blocked_on == Some(seq) { flag::BLOCKED_FETCH } else { 0 };
            self.rob.mem_first_ready[s] = 0;
            self.rob.consumers[s] = 0;
            self.rob.dependents[s] = 0;
            self.rob.vis[s] = Visibility::NEVER;
            for p in producers {
                if self.live(p) {
                    self.rob.dependents[slot(p)] |= bit(s);
                }
            }
            if is_mem {
                let m = instr.mem.expect("memory ops carry a memory reference");
                self.rob.mem_addr[s] = m.addr;
                self.rob.mem_base[s] = m.base;
            }
            // The check the next cycle's issue would make: only an entry
            // whose operands will be ready joins the awake mask.
            let wake = self.operand_check(s, self.cycle + 1);
            if wake > 0 {
                self.sleep(s, wake);
            } else {
                self.rob.wake_cycle[s] = 0;
                self.awake |= bit(s);
            }
        }
    }

    fn fetch(&mut self, trace: &mut dyn TraceSource) {
        if self.fetch_blocked_on.is_some() || self.cycle < self.fetch_stall_until {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        let mut lines_used = 0;
        let mut current_line = u64::MAX;
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_queue.len() >= self.cfg.fetch_queue {
                break;
            }
            let instr = match self.fetch_buffer.take() {
                Some(i) => i,
                None => trace.next_instr(),
            };
            let line = self.mem.l1i().line_of(instr.pc);
            if line != current_line {
                if lines_used >= self.cfg.fetch_lines_per_cycle {
                    self.fetch_buffer = Some(instr);
                    break;
                }
                // An access we already paid for (fill or pull-up delay)?
                let prepaid = match self.fetch_line_ready {
                    Some((l, ready)) => l == line && ready <= self.cycle,
                    None => false,
                };
                if prepaid {
                    self.fetch_line_ready = None;
                } else {
                    let out = self.mem.inst_fetch(instr.pc, self.cycle);
                    let extra = u64::from(out.latency)
                        .saturating_sub(u64::from(self.mem.config().l1i.hit_latency));
                    if extra > 0 {
                        // Line not ready: remember that this access is paid
                        // for, stall the front end, and consume it on
                        // resume without re-accessing.
                        let ready = self.cycle + extra;
                        self.fetch_line_ready = Some((line, ready));
                        self.fetch_stall_until = self.fetch_stall_until.max(ready);
                        self.fetch_buffer = Some(instr);
                        break;
                    }
                }
                lines_used += 1;
                current_line = line;
            }
            self.stats.fetched += 1;
            let seq_if_dispatched = self.next_seq + self.fetch_queue.len() as u64;
            self.fetch_queue.push_back(instr);
            if let Some(b) = instr.branch {
                let (pred_taken, pred_target) = self.bpred.predict(instr.pc);
                let mispredict =
                    pred_taken != b.taken || (b.taken && pred_target != Some(b.target));
                self.bpred.update(instr.pc, b.taken, b.target);
                if mispredict {
                    self.stats.mispredicts += 1;
                    self.fetch_blocked_on = Some(seq_if_dispatched);
                    break;
                }
                if b.taken {
                    break; // redirect: fetch resumes at the target next cycle
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitline_cache::{ActivityReport, MemorySystemConfig, PrechargePolicy};
    use bitline_trace::{BranchInfo, MemRef, ReplayTrace};
    use gated_precharge::StaticPullUp;

    fn memsys() -> MemorySystem {
        let cfg = MemorySystemConfig::default();
        MemorySystem::new(
            cfg,
            Box::new(StaticPullUp::new(cfg.l1d.subarrays())),
            Box::new(StaticPullUp::new(cfg.l1i.subarrays())),
        )
    }

    fn alu_chain(n: usize) -> ReplayTrace {
        // Fully serial dependence chain: IPC must approach 1.
        let mut v = Vec::new();
        for i in 0..n {
            let pc = 0x40_0000 + 4 * i as u64;
            v.push(Instr::new(pc, InstrKind::IntAlu).with_dest(1).with_srcs(Some(1), None));
        }
        ReplayTrace::new(v)
    }

    fn independent_alus(n: usize) -> ReplayTrace {
        let mut v = Vec::new();
        for i in 0..n {
            let pc = 0x40_0000 + 4 * i as u64;
            let d = (8 + (i % 32)) as u8;
            v.push(Instr::new(pc, InstrKind::IntAlu).with_dest(d));
        }
        ReplayTrace::new(v)
    }

    #[test]
    #[should_panic(expected = "l1d.hit_latency = 0; it must be at least 1")]
    fn a_zero_cycle_data_cache_is_rejected() {
        let mut cfg = MemorySystemConfig::default();
        cfg.l1d.hit_latency = 0;
        let d = Box::new(StaticPullUp::new(cfg.l1d.subarrays()));
        let i = Box::new(StaticPullUp::new(cfg.l1i.subarrays()));
        let _ = Cpu::new(CpuConfig::default(), MemorySystem::new(cfg, d, i));
    }

    #[test]
    fn serial_chain_runs_at_ipc_one() {
        let mut cpu = Cpu::new(CpuConfig::default(), memsys());
        let stats = cpu.run(&mut alu_chain(64), 20_000);
        let ipc = stats.ipc();
        assert!((0.85..=1.05).contains(&ipc), "serial IPC {ipc}");
    }

    #[test]
    fn independent_work_exploits_width() {
        let mut cpu = Cpu::new(CpuConfig::default(), memsys());
        let stats = cpu.run(&mut independent_alus(64), 40_000);
        let ipc = stats.ipc();
        assert!(ipc > 4.0, "independent IPC {ipc} should exploit the 8-wide core");
    }

    #[test]
    fn loads_hit_with_three_cycle_latency() {
        // load -> dependent ALU chain; steady state ~ 1 load per 4 cycles
        // if latency is respected serially.
        let mut v = Vec::new();
        for i in 0..8 {
            let pc = 0x40_0000 + 8 * i as u64;
            v.push(
                Instr::new(pc, InstrKind::Load)
                    .with_dest(1)
                    .with_srcs(Some(1), None)
                    .with_mem(MemRef { addr: 0x1000, base: 0x1000, size: 8 }),
            );
            v.push(Instr::new(pc + 4, InstrKind::IntAlu).with_dest(1).with_srcs(Some(1), None));
        }
        let mut trace = ReplayTrace::new(v);
        let mut cpu = Cpu::new(CpuConfig::default(), memsys());
        let stats = cpu.run(&mut trace, 8000);
        // Serial load(3) + alu(1): 2 instructions per 4 cycles = IPC 0.5.
        let ipc = stats.ipc();
        assert!((0.4..=0.6).contains(&ipc), "load-chain IPC {ipc}");
    }

    /// A policy that delays every access: forces load latency variation.
    struct ColdEveryTime;
    impl PrechargePolicy for ColdEveryTime {
        fn name(&self) -> String {
            "cold".into()
        }
        fn access(&mut self, _s: usize, _c: u64) -> u32 {
            1
        }
        fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
            ActivityReport { policy: self.name(), end_cycle, per_subarray: vec![] }
        }
    }

    #[test]
    fn delayed_loads_trigger_replays() {
        let cfg = MemorySystemConfig::default();
        let mem = MemorySystem::new(
            cfg,
            Box::new(ColdEveryTime),
            Box::new(StaticPullUp::new(cfg.l1i.subarrays())),
        );
        let mut v = Vec::new();
        for i in 0..8 {
            let pc = 0x40_0000 + 8 * i as u64;
            v.push(Instr::new(pc, InstrKind::Load).with_dest(2).with_mem(MemRef {
                addr: 0x2000,
                base: 0x2000,
                size: 8,
            }));
            v.push(Instr::new(pc + 4, InstrKind::IntAlu).with_dest(3).with_srcs(Some(2), None));
        }
        let mut trace = ReplayTrace::new(v);
        let mut cpu = Cpu::new(CpuConfig::default(), mem);
        let stats = cpu.run(&mut trace, 4000);
        assert!(stats.load_misspeculations > 0, "every load is delayed");
        assert!(stats.replays > 0, "dependents must replay");
    }

    /// Which entries one dependents-only replay squashes. A warm-up load
    /// fills the line, so the load under test hits and pays only the
    /// 1-cycle pull-up: issued at `t`, it is assumed visible at `t + 3`,
    /// ready at `t + 4` and resolved at `t + 6`.
    #[test]
    fn dependents_only_replay_squashes_the_loads_shadow() {
        let cfg = MemorySystemConfig::default();
        let mem = MemorySystem::new(
            cfg,
            Box::new(ColdEveryTime),
            Box::new(StaticPullUp::new(cfg.l1i.subarrays())),
        );
        let at = MemRef { addr: 0x2000, base: 0x2000, size: 8 };
        let filler = |pc| Instr::new(pc, InstrKind::IntAlu).with_dest(20);
        let mut v = vec![Instr::new(0x40_0000, InstrKind::Load).with_dest(5).with_mem(at)];
        v.extend((1..=300).map(|i| filler(0x40_0000 + 4 * i)));
        let pc = 0x40_1000;
        v.extend([
            Instr::new(pc, InstrKind::IntAlu).with_dest(10),
            Instr::new(pc + 4, InstrKind::Load).with_dest(2).with_mem(at),
            // Direct dependent: issues at t + 3, in the load's shadow.
            Instr::new(pc + 8, InstrKind::IntAlu).with_dest(3).with_srcs(Some(2), None),
            // Independent of the load, issued in its shadow too.
            Instr::new(pc + 12, InstrKind::IntAlu).with_dest(9).with_srcs(Some(10), None),
            // Dependent of the squashed one, issued at t + 4.
            Instr::new(pc + 16, InstrKind::IntAlu).with_dest(4).with_srcs(Some(3), None),
        ]);
        v.extend((0..300).map(|i| filler(0x40_2000 + 4 * i)));
        let (load, direct, independent, transitive) = (302, 303, 304, 305);

        let mut cpu = Cpu::new(CpuConfig::default(), mem);
        let mut trace = ReplayTrace::new(v);
        // Step until the second misspeculation (the warm-up load's miss is
        // the first) has replayed, keeping the state from just before.
        let issued = |cpu: &Cpu, seq: u64| {
            let s = slot(seq);
            (cpu.waiting & bit(s) == 0).then_some(cpu.rob.issue_cycle[s])
        };
        let mut before;
        loop {
            before = (cpu.stats, [direct, independent, transitive].map(|q| issued(&cpu, q)));
            cpu.step(&mut trace);
            if cpu.stats.load_misspeculations == 2 {
                break;
            }
            assert!(cpu.cycle < 10_000, "the load under test never misspeculated");
        }
        let (stats, [direct_at, independent_at, transitive_at]) = before;
        let issue = cpu.rob.issue_cycle[slot(load)];
        let ready = cpu.rob.ready_cycle[slot(load)];
        assert_eq!(ready, issue + 4, "the load hits and pays one pull-up cycle");
        let shadow = issue + 1..ready;
        assert!(direct_at.is_some_and(|c| shadow.contains(&c)), "{direct_at:?} in {shadow:?}");
        assert!(independent_at.is_some_and(|c| shadow.contains(&c)), "{independent_at:?}");
        assert!(transitive_at.is_some_and(|c| c >= ready), "{transitive_at:?} at/after {ready}");

        // The direct dependent is squashed (and may re-issue at once).
        assert_ne!(issued(&cpu, direct), direct_at, "the direct dependent is squashed");
        assert_eq!(cpu.stats.replays, stats.replays + 1, "exactly one entry is squashed");
        assert_eq!(issued(&cpu, independent), independent_at, "an independent entry is not");
        // The escape: an entry that issued at or after the load's data-ready
        // cycle is never squashed, even though its producer was, so it keeps
        // a value computed from the squashed result (ROADMAP item 2).
        assert_eq!(issued(&cpu, transitive), transitive_at, "the transitive dependent escapes");
    }

    #[test]
    fn replay_slows_execution_down() {
        let run = |delay: bool| -> f64 {
            let cfg = MemorySystemConfig::default();
            let d: Box<dyn PrechargePolicy> = if delay {
                Box::new(ColdEveryTime)
            } else {
                Box::new(StaticPullUp::new(cfg.l1d.subarrays()))
            };
            let mem = MemorySystem::new(cfg, d, Box::new(StaticPullUp::new(cfg.l1i.subarrays())));
            let mut v = Vec::new();
            for i in 0..16 {
                let pc = 0x40_0000 + 8 * i as u64;
                v.push(
                    Instr::new(pc, InstrKind::Load)
                        .with_dest(2)
                        .with_srcs(Some(2), None)
                        .with_mem(MemRef { addr: 0x2000 + 8 * i as u64, base: 0x2000, size: 8 }),
                );
                v.push(Instr::new(pc + 4, InstrKind::IntAlu).with_dest(2).with_srcs(Some(2), None));
            }
            let mut trace = ReplayTrace::new(v);
            let mut cpu = Cpu::new(CpuConfig::default(), mem);
            cpu.run(&mut trace, 6000).ipc()
        };
        let fast = run(false);
        let slow = run(true);
        assert!(slow < fast, "pull-up delays must cost performance: {slow} vs {fast}");
    }

    /// Emits alu/branch pairs whose branch outcome is freshly random every
    /// execution (a periodic "random" pattern would be learnable by
    /// gshare's global history).
    struct RandomBranches {
        x: u64,
        i: u64,
        random: bool,
    }

    impl bitline_trace::TraceSource for RandomBranches {
        fn next_instr(&mut self) -> Instr {
            let pc = 0x40_0000 + 4 * (self.i % 16);
            self.i += 1;
            if self.i % 2 == 1 {
                Instr::new(pc, InstrKind::IntAlu).with_dest(1)
            } else {
                let t = if self.random {
                    self.x ^= self.x << 13;
                    self.x ^= self.x >> 7;
                    self.x ^= self.x << 17;
                    self.x & 1 == 1
                } else {
                    true
                };
                Instr::new(pc, InstrKind::Branch)
                    .with_srcs(Some(1), None)
                    .with_branch(BranchInfo { taken: t, target: 0x40_0000 + 4 * (self.i % 16) })
            }
        }
    }

    #[test]
    fn branch_mispredicts_cost_cycles() {
        let ipc = |random: bool| {
            let mut cpu = Cpu::new(CpuConfig::default(), memsys());
            let mut t = RandomBranches { x: 0x2545_f491_4f6c_dd1d, i: 0, random };
            cpu.run(&mut t, 20_000).ipc()
        };
        let p = ipc(false);
        let u = ipc(true);
        assert!(u < 0.8 * p, "mispredicts must hurt: predictable {p}, random {u}");
    }

    #[test]
    fn predecode_hints_are_emitted_when_enabled() {
        let mut v = Vec::new();
        for i in 0..4 {
            v.push(Instr::new(0x40_0000 + 4 * i, InstrKind::Load).with_dest(1).with_mem(MemRef {
                addr: 0x3000,
                base: 0x3000,
                size: 8,
            }));
        }
        let mut cpu = Cpu::new(CpuConfig::default().with_predecode_hints(), memsys());
        let stats = cpu.run(&mut ReplayTrace::new(v), 400);
        // Each hint rides on its load's or store's access at issue.
        assert_eq!(stats.hints, stats.loads + stats.stores);
        assert!(stats.hints > 0);
    }

    #[test]
    fn all_younger_replay_squashes_more() {
        let run = |scope: ReplayScope| -> u64 {
            let cfg = MemorySystemConfig::default();
            let mem = MemorySystem::new(
                cfg,
                Box::new(ColdEveryTime),
                Box::new(StaticPullUp::new(cfg.l1i.subarrays())),
            );
            let mut v = Vec::new();
            for i in 0..8 {
                let pc = 0x40_0000 + 20 * i as u64;
                v.push(Instr::new(pc, InstrKind::Load).with_dest(2).with_mem(MemRef {
                    addr: 0x2000,
                    base: 0x2000,
                    size: 8,
                }));
                v.push(Instr::new(pc + 4, InstrKind::IntAlu).with_dest(3).with_srcs(Some(2), None));
                // Independent fillers that only AllYounger squashes.
                v.push(Instr::new(pc + 8, InstrKind::IntAlu).with_dest(9));
                v.push(Instr::new(pc + 12, InstrKind::IntAlu).with_dest(10));
            }
            let mut cpu = Cpu::new(CpuConfig { replay_scope: scope, ..CpuConfig::default() }, mem);
            cpu.run(&mut ReplayTrace::new(v), 4000).replays
        };
        let p4 = run(ReplayScope::DependentsOnly);
        let r10k = run(ReplayScope::AllYounger);
        assert!(r10k > p4, "AllYounger ({r10k}) must squash more than DependentsOnly ({p4})");
    }
}
