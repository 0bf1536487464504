//! Codec for journaling [`RunResult`]s.
//!
//! The checkpoint journal (`bitline_exec::journal`) stores opaque bytes;
//! this module is the domain half: a hand-rolled, versioned, fixed-order
//! encoding of a completed run. The spec travels as the spec table's
//! canonical `key=value` text ([`crate::spec::canonical_text`]), read
//! back by the same row parsers the CLI and serve use; everything else is
//! binary, with floats as `f64::to_bits`. A replayed run is therefore
//! **bit-exact** — warm figure output is byte-identical to a cold
//! computation, which is what the resume acceptance test diffs on.
//!
//! The journal is a cache of recomputable runs, so decoding is total and
//! unforgiving: any truncation, bad tag, implausible length, or version
//! other than [`VERSION`] yields `None`, and the caller quarantines the
//! entry and recomputes the run rather than reading an old layout.

use bitline_cache::{ActivityReport, IdleHistogram, SubarrayActivity, WayStats, IDLE_BUCKETS};
use bitline_cpu::SimStats;
use bitline_ecc::{DegradationStage, ReliabilityReport, SubarrayReliability};
use bitline_faults::{FaultReport, SubarrayFaults, SubarrayVdd, VddReport};

use bitline_energy::LeakageKind;

use crate::config::{PolicyKind, SystemSpec};
use crate::recorder::LocalityStats;
use crate::runner::{Level, LevelRun, RunResult};
use crate::spec;
use crate::supervise::fnv64;

/// Codec version; bump on any layout change and older frames are
/// quarantined and recomputed. Version 5 journals the spec as text;
/// version 6 writes one record per cache level.
pub(crate) const VERSION: u8 = 6;

/// Upper bound for decoded collection lengths — far above any real cache
/// (a 32 KB L1 has at most 1024 subarrays) but small enough that a
/// corrupt length cannot trigger a giant allocation.
const MAX_VEC: usize = 1 << 20;

/// The journal key for a run: `benchmark@<16-hex spec hash>`. The hash is
/// FNV-1a over a binary canonical spec encoding, so it is stable across
/// processes and Rust versions (unlike `DefaultHasher`).
///
/// The key is frozen: every serve response and journal entry carries it.
/// The encoding is write-only (nothing decodes it) and its layout never
/// changes. A new spec axis appends a tagged block only when its value is
/// non-default, so every existing key survives the new axis.
#[must_use]
pub fn spec_key(benchmark: &str, spec: &SystemSpec) -> String {
    let mut enc = Enc::default();
    enc.spec_canonical(spec);
    format!("{benchmark}@{:016x}", fnv64(&enc.out))
}

/// Encodes a run for the journal. One record per level follows the stats;
/// the spec decides which levels there are ([`Level::of`]).
#[must_use]
pub fn encode_run(run: &RunResult) -> Vec<u8> {
    let mut enc = Enc::default();
    enc.u8(VERSION);
    enc.str(&run.benchmark);
    enc.str(&spec::canonical_text(&run.spec));
    enc.stats(&run.stats);
    for level in &run.levels {
        enc.level(level);
    }
    enc.out
}

/// Decodes a journaled run; `None` on any corruption or version skew.
#[must_use]
pub fn decode_run(bytes: &[u8]) -> Option<RunResult> {
    let mut dec = Dec { bytes, pos: 0 };
    if dec.u8()? != VERSION {
        return None;
    }
    let benchmark = dec.str()?;
    let spec = spec::parse_text(&dec.str()?)?;
    let stats = dec.stats()?;
    let levels =
        Level::of(&spec.hierarchy)?.iter().map(|&l| dec.level(l)).collect::<Option<_>>()?;
    // Trailing garbage means the entry is not what we wrote.
    (dec.pos == bytes.len()).then_some(RunResult { benchmark, spec, stats, levels })
}

#[derive(Default)]
struct Enc {
    out: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.out.extend_from_slice(s.as_bytes());
    }
    fn opt<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut Enc, &T)) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                f(self, v);
            }
        }
    }

    fn policy(&mut self, p: &PolicyKind) {
        match *p {
            PolicyKind::StaticPullUp => self.u8(0),
            PolicyKind::Oracle => self.u8(1),
            PolicyKind::OnDemand => self.u8(2),
            PolicyKind::Gated { threshold } => {
                self.u8(3);
                self.u64(threshold);
            }
            PolicyKind::GatedPredecode { threshold } => {
                self.u8(4);
                self.u64(threshold);
            }
            PolicyKind::AdaptiveGated { interval_accesses } => {
                self.u8(5);
                self.u64(interval_accesses);
            }
            // Tag 6 named leakage-biased bitlines, a copy of the oracle;
            // it stays unused so no other policy's key can collide with an
            // old one.
            PolicyKind::Drowsy { threshold } => {
                self.u8(7);
                self.u64(threshold);
            }
            PolicyKind::Resizable { interval_accesses, slack } => {
                self.u8(8);
                self.u64(interval_accesses);
                self.f64(slack);
            }
            PolicyKind::LocalityRecorder => self.u8(9),
        }
    }

    /// The [`spec_key`] encoding: the original fields in a fixed layout,
    /// then one block per later axis, appended only when that axis is
    /// non-default (the hierarchy block predates tagging; the supply
    /// block leads with tag `0xD1`). A new axis follows the same rule with
    /// a fresh tag byte, so no existing key moves.
    fn spec_canonical(&mut self, s: &SystemSpec) {
        self.policy(&s.d_policy);
        self.policy(&s.i_policy);
        self.usize(s.subarray_bytes);
        self.u64(s.instructions);
        self.u64(s.seed);
        self.bool(s.way_prediction);
        self.f64(s.faults.rate);
        self.u64(s.faults.seed);
        self.bool(s.faults.fail_safe);
        self.bool(s.faults.ecc);
        self.opt(s.faults.scrub_period.as_ref(), |e, &p| e.u64(p));
        if !s.hierarchy.is_default() {
            let h = &s.hierarchy;
            self.u8(h.levels);
            self.policy(&h.l2_policy);
            self.u8(match h.leakage_mode {
                LeakageKind::FullVdd => 0,
                LeakageKind::Drowsy => 1,
                LeakageKind::GatedVdd => 2,
                LeakageKind::LowPower6T => 3,
            });
        }
        if !s.vdd.is_default() {
            self.u8(0xD1);
            self.f64(s.vdd.scale);
            self.bool(s.vdd.governor);
        }
    }

    fn level(&mut self, l: &LevelRun) {
        self.report(&l.report);
        self.u64(l.hits);
        self.u64(l.misses);
        self.u64(l.writebacks);
        self.opt(l.locality.as_ref(), Enc::locality);
        self.opt(l.way_stats.as_ref(), Enc::way_stats);
        self.opt(l.faults.as_ref(), Enc::faults);
        self.opt(l.reliability.as_ref(), Enc::reliability);
        self.opt(l.vdd.as_ref(), Enc::vdd_report);
    }

    fn stats(&mut self, s: &SimStats) {
        for v in [
            s.cycles,
            s.committed,
            s.fetched,
            s.branches,
            s.mispredicts,
            s.loads,
            s.stores,
            s.replays,
            s.load_misspeculations,
            s.fetch_stall_cycles,
            s.hints,
        ] {
            self.u64(v);
        }
    }

    fn report(&mut self, r: &ActivityReport) {
        self.str(&r.policy);
        self.u64(r.end_cycle);
        self.usize(r.per_subarray.len());
        for s in &r.per_subarray {
            self.u64(s.accesses);
            self.u64(s.delayed_accesses);
            self.f64(s.pulled_up_cycles);
            self.u64(s.precharge_events);
            self.f64(s.drowsy_cycles);
            // Every frame carries all IDLE_BUCKETS; the ones above the
            // highest recorded bucket are zero.
            let buckets = s.idle_histogram.buckets();
            for &c in buckets {
                self.u64(c);
            }
            self.out.resize(self.out.len() + 8 * (IDLE_BUCKETS - buckets.len()), 0);
        }
    }

    fn locality(&mut self, l: &LocalityStats) {
        for &c in &l.interval_counts {
            self.u64(c);
        }
        self.u64(l.intervals_total);
        for &h in &l.hot_cycles {
            self.f64(h);
        }
        self.usize(l.subarrays);
        self.u64(l.end_cycle);
    }

    fn way_stats(&mut self, w: &WayStats) {
        self.u64(w.correct);
        self.u64(w.wrong);
    }

    fn faults(&mut self, f: &FaultReport) {
        self.usize(f.per_subarray.len());
        for s in &f.per_subarray {
            self.u64(s.injected);
            self.u64(s.detected);
            self.u64(s.silent);
            self.u64(s.replayed);
            self.u64(s.decay_flips);
            self.bool(s.pinned);
        }
    }

    fn vdd_report(&mut self, r: &VddReport) {
        self.usize(r.per_subarray.len());
        for s in &r.per_subarray {
            self.u8(s.step);
            self.u64(s.escalations);
            self.u64(s.deescalations);
            self.bool(s.pinned);
        }
        self.u64(r.upsets);
        self.u64(r.replays);
        self.u64(r.corrected);
        self.u64(r.sdc);
        self.usize(r.step_accesses.len());
        for &a in &r.step_accesses {
            self.u64(a);
        }
    }

    fn reliability(&mut self, r: &ReliabilityReport) {
        self.usize(r.per_subarray.len());
        for s in &r.per_subarray {
            self.u64(s.corrected);
            self.u64(s.due);
            self.u64(s.sdc);
            self.u64(s.demand_scrubs);
            self.u64(s.latent_cleared);
            self.u8(s.stage.index());
        }
        self.u64(r.background_scrub_words);
        self.u64(r.demand_scrub_words);
        self.u64(r.pinned_residency_cycles);
        self.u64(r.end_cycle);
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Dec<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let slice = self.bytes.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(slice)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }
    fn len(&mut self) -> Option<usize> {
        self.usize().filter(|&n| n <= MAX_VEC)
    }
    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> Option<String> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(f(self)?)),
            _ => None,
        }
    }

    fn level(&mut self, level: Level) -> Option<LevelRun> {
        Some(LevelRun {
            level,
            report: self.report()?,
            hits: self.u64()?,
            misses: self.u64()?,
            writebacks: self.u64()?,
            locality: self.opt(Dec::locality)?,
            way_stats: self.opt(Dec::way_stats)?,
            faults: self.opt(Dec::faults)?,
            reliability: self.opt(Dec::reliability)?,
            vdd: self.opt(Dec::vdd_report)?,
        })
    }

    fn stats(&mut self) -> Option<SimStats> {
        Some(SimStats {
            cycles: self.u64()?,
            committed: self.u64()?,
            fetched: self.u64()?,
            branches: self.u64()?,
            mispredicts: self.u64()?,
            loads: self.u64()?,
            stores: self.u64()?,
            replays: self.u64()?,
            load_misspeculations: self.u64()?,
            fetch_stall_cycles: self.u64()?,
            hints: self.u64()?,
        })
    }

    fn report(&mut self) -> Option<ActivityReport> {
        let policy = self.str()?;
        let end_cycle = self.u64()?;
        let n = self.len()?;
        let mut per_subarray = Vec::with_capacity(n);
        for _ in 0..n {
            let accesses = self.u64()?;
            let delayed_accesses = self.u64()?;
            let pulled_up_cycles = self.f64()?;
            let precharge_events = self.u64()?;
            let drowsy_cycles = self.f64()?;
            let block = self.take(8 * IDLE_BUCKETS)?;
            let mut counts = [0u64; IDLE_BUCKETS];
            for (c, bytes) in counts.iter_mut().zip(block.chunks_exact(8)) {
                *c = u64::from_le_bytes(bytes.try_into().ok()?);
            }
            per_subarray.push(SubarrayActivity {
                accesses,
                delayed_accesses,
                pulled_up_cycles,
                precharge_events,
                drowsy_cycles,
                idle_histogram: IdleHistogram::from_counts(counts),
            });
        }
        Some(ActivityReport { policy, end_cycle, per_subarray })
    }

    fn locality(&mut self) -> Option<LocalityStats> {
        let mut interval_counts = [0u64; 6];
        for c in &mut interval_counts {
            *c = self.u64()?;
        }
        let intervals_total = self.u64()?;
        let mut hot_cycles = [0.0f64; 5];
        for h in &mut hot_cycles {
            *h = self.f64()?;
        }
        Some(LocalityStats {
            interval_counts,
            intervals_total,
            hot_cycles,
            subarrays: self.usize()?,
            end_cycle: self.u64()?,
        })
    }

    fn way_stats(&mut self) -> Option<WayStats> {
        Some(WayStats { correct: self.u64()?, wrong: self.u64()? })
    }

    fn faults(&mut self) -> Option<FaultReport> {
        let n = self.len()?;
        let mut per_subarray = Vec::with_capacity(n);
        for _ in 0..n {
            per_subarray.push(SubarrayFaults {
                injected: self.u64()?,
                detected: self.u64()?,
                silent: self.u64()?,
                replayed: self.u64()?,
                decay_flips: self.u64()?,
                pinned: self.bool()?,
            });
        }
        Some(FaultReport { per_subarray })
    }

    fn vdd_report(&mut self) -> Option<VddReport> {
        let n = self.len()?;
        let mut per_subarray = Vec::with_capacity(n);
        for _ in 0..n {
            per_subarray.push(SubarrayVdd {
                step: self.u8()?,
                escalations: self.u64()?,
                deescalations: self.u64()?,
                pinned: self.bool()?,
            });
        }
        let upsets = self.u64()?;
        let replays = self.u64()?;
        let corrected = self.u64()?;
        let sdc = self.u64()?;
        let steps = self.len()?;
        let mut step_accesses = Vec::with_capacity(steps);
        for _ in 0..steps {
            step_accesses.push(self.u64()?);
        }
        Some(VddReport { per_subarray, upsets, replays, corrected, sdc, step_accesses })
    }

    fn reliability(&mut self) -> Option<ReliabilityReport> {
        let n = self.len()?;
        let mut per_subarray = Vec::with_capacity(n);
        for _ in 0..n {
            per_subarray.push(SubarrayReliability {
                corrected: self.u64()?,
                due: self.u64()?,
                sdc: self.u64()?,
                demand_scrubs: self.u64()?,
                latent_cleared: self.u64()?,
                stage: DegradationStage::from_index(self.u8()?)?,
            });
        }
        Some(ReliabilityReport {
            per_subarray,
            background_scrub_words: self.u64()?,
            demand_scrub_words: self.u64()?,
            pinned_residency_cycles: self.u64()?,
            end_cycle: self.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultSpec, HierarchySpec, VddSpec};

    /// A level record with nothing attached.
    fn bare(level: Level, report: ActivityReport, traffic: (u64, u64, u64)) -> LevelRun {
        LevelRun {
            level,
            report,
            hits: traffic.0,
            misses: traffic.1,
            writebacks: traffic.2,
            locality: None,
            way_stats: None,
            faults: None,
            reliability: None,
            vdd: None,
        }
    }

    fn sample_run() -> RunResult {
        let spec = SystemSpec {
            d_policy: PolicyKind::Resizable { interval_accesses: 512, slack: 0.015 },
            i_policy: PolicyKind::Gated { threshold: 200 },
            instructions: 9_000,
            way_prediction: true,
            faults: FaultSpec {
                rate: 0.01,
                seed: 5,
                fail_safe: true,
                ecc: true,
                scrub_period: Some(4_096),
            },
            ..SystemSpec::default()
        };
        let mut hist = IdleHistogram::default();
        hist.record(7);
        hist.record(700);
        let d_report = ActivityReport {
            policy: "resizable".into(),
            end_cycle: 101,
            per_subarray: vec![SubarrayActivity {
                accesses: 31,
                delayed_accesses: 2,
                pulled_up_cycles: 64.5,
                precharge_events: 3,
                drowsy_cycles: 0.0,
                idle_histogram: hist,
            }],
        };
        let d = LevelRun {
            locality: Some(LocalityStats {
                interval_counts: [1, 2, 3, 4, 5, 6],
                intervals_total: 21,
                hot_cycles: [0.1, 0.2, 0.3, 0.4, 0.5],
                subarrays: 32,
                end_cycle: 101,
            }),
            way_stats: Some(WayStats { correct: 28, wrong: 1 }),
            faults: Some(FaultReport {
                per_subarray: vec![SubarrayFaults {
                    injected: 2,
                    detected: 2,
                    silent: 0,
                    replayed: 2,
                    decay_flips: 1,
                    pinned: false,
                }],
            }),
            reliability: Some(ReliabilityReport {
                per_subarray: vec![SubarrayReliability {
                    corrected: 2,
                    due: 1,
                    sdc: 0,
                    demand_scrubs: 1,
                    latent_cleared: 2,
                    stage: DegradationStage::ScrubOnDetect,
                }],
                background_scrub_words: 128,
                demand_scrub_words: 64,
                pinned_residency_cycles: 0,
                end_cycle: 101,
            }),
            ..bare(Level::L1D, d_report, (29, 2, 3))
        };
        let i_report =
            ActivityReport { policy: "gated".into(), end_cycle: 101, per_subarray: vec![] };
        RunResult {
            benchmark: "health".into(),
            spec,
            stats: SimStats { cycles: 101, committed: 99, loads: 31, ..SimStats::default() },
            levels: vec![d, bare(Level::L1I, i_report, (99, 1, 0))],
        }
    }

    /// A run with an active three-level hierarchy, a non-default leakage
    /// mode, and L2/L3 records.
    fn sample_hierarchy_run() -> RunResult {
        let mut run = sample_run();
        run.spec.hierarchy = HierarchySpec {
            levels: 3,
            l2_policy: PolicyKind::Gated { threshold: 150 },
            leakage_mode: LeakageKind::Drowsy,
        };
        let l2_report = ActivityReport {
            policy: "gated".into(),
            end_cycle: 101,
            per_subarray: vec![SubarrayActivity {
                accesses: 4,
                delayed_accesses: 1,
                pulled_up_cycles: 12.5,
                precharge_events: 2,
                drowsy_cycles: 0.0,
                idle_histogram: IdleHistogram::default(),
            }],
        };
        let l3_report =
            ActivityReport { policy: "gated".into(), end_cycle: 101, per_subarray: vec![] };
        run.levels.push(bare(Level::L2, l2_report, (3, 1, 1)));
        run.levels.push(bare(Level::L3, l3_report, (1, 0, 0)));
        run
    }

    /// A run with a speculative supply, a governed ladder, and both
    /// voltage reports attached.
    fn sample_vdd_run() -> RunResult {
        let mut run = sample_run();
        run.spec.vdd = VddSpec { scale: 0.85, governor: true };
        run.levels[0].vdd = Some(VddReport {
            per_subarray: vec![
                SubarrayVdd { step: 2, escalations: 3, deescalations: 0, pinned: true },
                SubarrayVdd { step: 1, escalations: 1, deescalations: 1, pinned: false },
            ],
            upsets: 17,
            replays: 15,
            corrected: 0,
            sdc: 2,
            step_accesses: vec![40, 25, 10],
        });
        run.levels[1].vdd = Some(VddReport {
            per_subarray: vec![SubarrayVdd {
                step: 0,
                escalations: 0,
                deescalations: 0,
                pinned: false,
            }],
            upsets: 0,
            replays: 0,
            corrected: 0,
            sdc: 0,
            step_accesses: vec![12, 0, 0],
        });
        run
    }

    #[test]
    fn roundtrip_is_exact_and_truncation_or_trailing_bytes_never_decode() {
        for run in [sample_run(), sample_hierarchy_run(), sample_vdd_run()] {
            let mut bytes = encode_run(&run);
            let decoded = decode_run(&bytes).expect("decodes");
            assert_eq!(format!("{run:?}"), format!("{decoded:?}"));
            for cut in 0..bytes.len() {
                assert!(decode_run(&bytes[..cut]).is_none(), "truncated at {cut} must not decode");
            }
            bytes.push(0);
            assert!(decode_run(&bytes).is_none(), "trailing garbage must not decode");
        }
    }

    #[test]
    fn v6_frames_are_frozen() {
        // A journal written by any v6 binary must replay on every later one,
        // so a v6 frame's bytes never move. The literals were computed
        // before idle histograms stored only their filled buckets; never
        // re-bless them.
        let gated = PolicyKind::Gated { threshold: 100 };
        let spec = SystemSpec {
            d_policy: gated,
            i_policy: gated,
            instructions: 2_000,
            ..SystemSpec::default()
        };
        let cases = [
            (sample_run(), 0x94df_1864_badc_0ac9_u64),
            (sample_hierarchy_run(), 0xbf67_f25b_6035_c4cc),
            (sample_vdd_run(), 0x5103_a8e0_bd7c_7d35),
            (crate::run_benchmark("mesa", &spec), 0x397d_a58e_4202_154e),
        ];
        for (run, digest) in cases {
            assert_eq!(fnv64(&encode_run(&run)), digest, "{}", run.benchmark);
        }
    }

    #[test]
    fn spec_key_discriminates_and_is_stable() {
        let a = SystemSpec::default();
        let b = SystemSpec { seed: 43, ..a };
        assert_ne!(spec_key("gcc", &a), spec_key("gcc", &b));
        assert_ne!(spec_key("gcc", &a), spec_key("mesa", &a));
        assert_eq!(spec_key("gcc", &a), spec_key("gcc", &a));
        assert!(spec_key("gcc", &a).starts_with("gcc@"));
        // Each optional block discriminates within its axis and beside
        // the other.
        let levels_2 = HierarchySpec { levels: 2, ..HierarchySpec::default() };
        let drowsy = HierarchySpec { leakage_mode: LeakageKind::Drowsy, ..levels_2 };
        let undervolted = VddSpec { scale: 0.9, governor: false };
        let governed = VddSpec { governor: true, ..undervolted };
        let keys: std::collections::HashSet<String> = [
            a,
            SystemSpec { hierarchy: levels_2, ..a },
            SystemSpec { hierarchy: drowsy, ..a },
            SystemSpec { vdd: undervolted, ..a },
            SystemSpec { vdd: governed, ..a },
            SystemSpec { hierarchy: levels_2, vdd: undervolted, ..a },
        ]
        .iter()
        .map(|spec| spec_key("gcc", spec))
        .collect();
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn spec_keys_are_frozen() {
        // Every serve `ok` line and every journal entry carries these keys;
        // the literals were computed before the spec table existed. Default
        // hierarchy and supply add no bytes, so each optional block only
        // moves the keys of specs that set it.
        let front_end = SystemSpec {
            d_policy: PolicyKind::GatedPredecode { threshold: 100 },
            i_policy: PolicyKind::Gated { threshold: 100 },
            ..SystemSpec::default()
        };
        let hierarchy = HierarchySpec {
            levels: 3,
            l2_policy: PolicyKind::Gated { threshold: 150 },
            leakage_mode: LeakageKind::Drowsy,
        };
        let governed = VddSpec { scale: 0.8, governor: true };
        let scrubbed = FaultSpec { ecc: true, scrub_period: Some(4096), ..FaultSpec::default() };
        let cases = [
            (SystemSpec::default(), "gcc@52a6c675132dab17"),
            (SystemSpec { instructions: 2_000, ..front_end }, "gcc@9fb95b11ef089492"),
            (SystemSpec { hierarchy, ..front_end }, "gcc@1aa94ae47b1593d1"),
            (SystemSpec { vdd: governed, ..front_end }, "gcc@5b76493956b13b07"),
            (SystemSpec { hierarchy, vdd: governed, ..front_end }, "gcc@6da052f2a6d3b434"),
            (SystemSpec { faults: scrubbed, ..front_end }, "gcc@6e7b65319d4a4774"),
        ];
        for (spec, key) in cases {
            assert_eq!(spec_key("gcc", &spec), key, "{spec:?}");
        }
    }

    #[test]
    fn every_policy_tag_is_frozen() {
        // The literals predate the retirement of tag 6 (leakage-biased
        // bitlines): the tags after it must not move.
        let cases = [
            (PolicyKind::StaticPullUp, "gcc@52a6c675132dab17"),
            (PolicyKind::Oracle, "gcc@f2b9ede9194dd7d2"),
            (PolicyKind::OnDemand, "gcc@538ffc40574d59f9"),
            (PolicyKind::Gated { threshold: 64 }, "gcc@aa0d4efac63a8bac"),
            (PolicyKind::GatedPredecode { threshold: 64 }, "gcc@af35d8d10cede83b"),
            (PolicyKind::AdaptiveGated { interval_accesses: 2_000 }, "gcc@cb2baf3f05ee9b01"),
            (PolicyKind::Drowsy { threshold: 100 }, "gcc@4e3e43ce3d4c141c"),
            (
                PolicyKind::Resizable { interval_accesses: 10_000, slack: 0.005 },
                "gcc@7ecff099d610a0a2",
            ),
            (PolicyKind::LocalityRecorder, "gcc@fd9c2fce923dae8a"),
        ];
        for (policy, key) in cases {
            let spec = SystemSpec { d_policy: policy, ..SystemSpec::default() };
            assert_eq!(spec_key("gcc", &spec), key, "{policy}");
        }
    }

    #[test]
    fn other_version_frames_are_rejected_not_misread() {
        // A frame stamped with any other codec version, older or newer,
        // must yield `None` even when the rest of the bytes happen to
        // parse — the resume path quarantines it, counts it under
        // `sim.checkpoint.version_skew`, and recomputes the run.
        for version in [2, 3, 4, 5, 7, 99] {
            let mut bytes = encode_run(&sample_run());
            bytes[0] = version;
            assert!(decode_run(&bytes).is_none(), "v{version}");
        }
    }

    #[test]
    fn a_level_count_outside_the_spec_range_is_rejected_not_indexed() {
        // The spec table takes any `u8` for `levels`; only a run rejects a
        // count outside 1..=3. A frame whose spec text carries one decodes
        // to `None` instead of slicing past the level list.
        for levels in [0, 4, 9, u8::MAX] {
            let mut run = sample_run();
            run.spec.hierarchy.levels = levels;
            assert!(spec::canonical_text(&run.spec).contains(&format!("levels={levels}")));
            assert!(decode_run(&encode_run(&run)).is_none(), "levels={levels}");
        }
    }

    #[test]
    fn a_frame_naming_leakage_biased_bitlines_is_rejected_not_misread() {
        // Leakage-biased bitlines left the policy grammar: they simulated
        // exactly what the oracle does. A frame journaled before then
        // names them in its spec text and must decode to `None`.
        let run = sample_hierarchy_run();
        let bytes = encode_run(&run);
        let text = spec::canonical_text(&run.spec);
        let tail = &bytes[1 + 8 + run.benchmark.len() + 8 + text.len()..];
        let frame = |text: &str| {
            let mut enc = Enc::default();
            enc.u8(VERSION);
            enc.str(&run.benchmark);
            enc.str(text);
            enc.out.extend_from_slice(tail);
            enc.out
        };
        assert_eq!(frame(&text), bytes);
        for key in ["d_policy", "i_policy", "l2_policy"] {
            let stale: Vec<String> = text
                .split(' ')
                .map(|pair| match pair.split_once('=') {
                    Some((k, _)) if k == key => format!("{key}=leakage-biased"),
                    _ => pair.to_owned(),
                })
                .collect();
            let stale = stale.join(" ");
            assert!(stale.contains(&format!("{key}=leakage-biased")), "{stale}");
            assert!(decode_run(&frame(&stale)).is_none(), "{key}");
        }
    }

    #[test]
    fn level_records_that_disagree_with_the_spec_never_decode() {
        // A frame carries no record count: the spec decides it, so more or
        // fewer records than the spec's levels must not decode.
        let mut more = sample_hierarchy_run();
        more.spec.hierarchy.levels = 2;
        let mut fewer = sample_run();
        fewer.spec.hierarchy.levels = 3;
        for run in [more, fewer] {
            assert!(decode_run(&encode_run(&run)).is_none(), "{:?}", run.spec.hierarchy);
        }
    }

    #[test]
    fn any_single_byte_mutation_decodes_or_is_rejected_without_panicking() {
        // The text spec decoder must stay as total as the binary blocks
        // around it: every byte, every replacement value.
        for run in [sample_run(), sample_hierarchy_run(), sample_vdd_run()] {
            let bytes = encode_run(&run);
            let mut mutated = bytes.clone();
            for i in 0..bytes.len() {
                for value in 0..=u8::MAX {
                    mutated[i] = value;
                    let _ = decode_run(&mutated);
                }
                mutated[i] = bytes[i];
            }
        }
    }
}
