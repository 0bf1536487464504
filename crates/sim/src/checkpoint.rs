//! Codec for journaling [`RunResult`]s.
//!
//! The checkpoint journal (`bitline_exec::journal`) stores opaque bytes;
//! this module is the domain half: a hand-rolled, versioned, fixed-order
//! encoding of a completed run. The spec travels as the spec table's
//! canonical `key=value` text ([`crate::spec::canonical_text`]), read
//! back by the same row parsers the CLI and serve use; everything else is
//! binary. A replayed run is therefore **bit-exact** — warm figure output
//! is byte-identical to a cold computation, which is what the resume
//! acceptance test diffs on. The process-wide run cache behind
//! [`crate::try_run_benchmark_cached`] holds each run as this frame too,
//! so a cached result is decoded from the bytes a journal would replay.
//!
//! Each record lists its fields once, in frame order, in the `records!`
//! invocation at the end of the codec; the writer and the reader are both
//! generated from that list. Only the leaves (integers, floats, strings,
//! arrays, vectors, options, the idle histogram and the degradation stage)
//! are laid out by hand.
//!
//! Version 8 writes every integer leaf (`u64`, `usize`, collection and
//! string lengths, idle buckets) as a minimal LEB128 varint, and every
//! `f64` as the varint `v << 1` when it is a whole number `v` in
//! `[0, 2^53)` other than −0.0 (most cycle totals are), else as the
//! varint 1 and its 8 raw bytes. Bytes, flags and tags stay one byte
//! each. The reader rejects a varint with a trailing zero byte or past 64
//! bits and a long-form float the short form covers, so every value has
//! exactly one encoding and a decoded frame re-encodes to its own bytes.
//! Over 64 runs (16 benchmarks under static, gated:100,
//! gated-predecode:100 and oracle on both L1s, 8 000 instructions) a frame
//! averages 1 126 bytes at 1 KB subarrays, where a v7 frame, with 8 fixed
//! bytes per integer and float, averaged 5 806, and 12 163 at 64 B
//! subarrays, where a v7 frame averaged 79 741.
//!
//! [`spec_key`] hashes the spec table's fixed-width key words
//! (`spec::key_words`), not the frame: a key names a run in every journal
//! and serve answer, so its bytes never move with the frame layout.
//!
//! The journal is a cache of recomputable runs, so decoding is total and
//! unforgiving: any truncation, bad tag, non-minimal varint, implausible
//! length, or version other than `VERSION` yields `None`, and the caller
//! quarantines the entry and recomputes the run rather than reading an old
//! layout.

use bitline_cache::{ActivityReport, IdleHistogram, SubarrayActivity, WayStats};
use bitline_cpu::SimStats;
use bitline_ecc::{DegradationStage, ReliabilityReport, SubarrayReliability};
use bitline_exec::backoff::fnv64;
use bitline_faults::{FaultReport, SubarrayFaults, SubarrayVdd, VddReport};

use crate::config::SystemSpec;
use crate::recorder::LocalityStats;
use crate::runner::{Level, LevelRun, RunResult};
use crate::spec;

/// Codec version; bump on any layout change and older frames are
/// quarantined and recomputed. Version 5 journals the spec as text;
/// version 6 writes one record per cache level; version 7 writes only the
/// idle buckets a histogram stores; version 8 writes integers as varints
/// and whole floats in their short form.
pub(crate) const VERSION: u8 = 8;

/// Upper bound for decoded collection lengths — far above any real cache
/// (a 32 KB L1 has at most 1024 subarrays) but small enough that a
/// corrupt length cannot trigger a giant allocation.
const MAX_VEC: usize = 1 << 20;

/// The journal key for a run: `benchmark@<16-hex spec hash>`. The hash is
/// FNV-1a over the spec table's key words, so it is stable across
/// processes and Rust versions (unlike `DefaultHasher`).
///
/// The key is frozen: every serve response and journal entry carries it.
/// The words are write-only (nothing decodes them) and their layout never
/// changes. A new spec axis opens a tagged block, written only when its
/// value is non-default, so every existing key survives the new axis.
#[must_use]
pub fn spec_key(benchmark: &str, spec: &SystemSpec) -> String {
    format!("{benchmark}@{:016x}", fnv64(&spec::key_words(spec)))
}

/// Encodes a run for the journal. One record per level follows the stats;
/// the spec decides which levels there are ([`Level::of`]).
#[must_use]
pub fn encode_run(run: &RunResult) -> Vec<u8> {
    let mut out = Vec::new();
    VERSION.put(&mut out);
    run.benchmark.put(&mut out);
    spec::canonical_text(&run.spec).put(&mut out);
    run.stats.put(&mut out);
    for level in &run.levels {
        level.put(&mut out);
    }
    out
}

/// Decodes a journaled run; `None` on any corruption or version skew.
#[must_use]
pub fn decode_run(bytes: &[u8]) -> Option<RunResult> {
    let mut input = bytes;
    if u8::take(&mut input)? != VERSION {
        return None;
    }
    let benchmark = String::take(&mut input)?;
    let spec = spec::parse_text(&String::take(&mut input)?)?;
    let stats = SimStats::take(&mut input)?;
    let levels = Level::of(&spec.hierarchy)?
        .iter()
        .map(|&level| Some(LevelRun { level, ..LevelRun::take(&mut input)? }))
        .collect::<Option<_>>()?;
    // Trailing garbage means the entry is not what we wrote.
    input.is_empty().then_some(RunResult { benchmark, spec, stats, levels })
}

/// A value with a fixed frame layout: `put` appends it and `take` reads it
/// back from the front of `input`, advancing past it, or yields `None` on
/// bytes `put` never writes.
trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn take(input: &mut &[u8]) -> Option<Self>;
}

/// Splits `N` bytes off the front of `input`.
fn chunk<'a, const N: usize>(input: &mut &'a [u8]) -> Option<&'a [u8; N]> {
    let (head, rest) = input.split_first_chunk()?;
    *input = rest;
    Some(head)
}

/// Appends `v` as a minimal LEB128 varint: seven bits a byte, lowest
/// first, the top bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v & 0x7F) as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a varint [`put_varint`] writes: `None` when the bytes run out, run
/// past 64 bits, or end in a zero byte after the first (a longer spelling
/// of a value with a shorter one).
fn take_varint(input: &mut &[u8]) -> Option<u64> {
    // Most counts fit one byte: reading them apart from the loop makes a
    // frame decode about a quarter faster.
    if let Some((&byte @ 0..0x80, rest)) = input.split_first() {
        *input = rest;
        return Some(u64::from(byte));
    }
    let mut v = 0;
    for (i, &byte) in input.iter().enumerate() {
        // The tenth byte holds bit 63 alone.
        if i == 9 && byte > 1 {
            return None;
        }
        v |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            if byte == 0 && i > 0 {
                return None;
            }
            *input = &input[i + 1..];
            return Some(v);
        }
    }
    None
}

/// A collection length, bounded by [`MAX_VEC`].
fn len(input: &mut &[u8]) -> Option<usize> {
    usize::take(input).filter(|&n| n <= MAX_VEC)
}

impl Field for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn take(input: &mut &[u8]) -> Option<Self> {
        chunk::<1>(input).map(|b| b[0])
    }
}

impl Field for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn take(input: &mut &[u8]) -> Option<Self> {
        take_varint(input)
    }
}

impl Field for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn take(input: &mut &[u8]) -> Option<Self> {
        usize::try_from(u64::take(input)?).ok()
    }
}

/// The largest whole float the short form holds, plus one: every `u64`
/// below it converts to `f64` and back exactly.
const SHORT_FLOAT_END: u64 = 1 << 53;

/// The whole number `f` is, when the short form holds it: `f` in
/// `[0, 2^53)` with no fraction, and not −0.0, whose sign a whole number
/// would drop.
fn short_float(f: f64) -> Option<u64> {
    // `as` saturates: NaN and negatives give 0, which only ±0.0 equal.
    let whole = f as u64;
    (whole < SHORT_FLOAT_END && whole as f64 == f && f.is_sign_positive()).then_some(whole)
}

/// A whole number `v` (see [`short_float`]) as the varint `v << 1`; any
/// other value as the varint 1, then its 8 raw bytes.
impl Field for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        match short_float(*self) {
            Some(whole) => put_varint(out, whole << 1),
            None => {
                out.push(1);
                out.extend_from_slice(&self.to_bits().to_le_bytes());
            }
        }
    }
    fn take(input: &mut &[u8]) -> Option<Self> {
        match take_varint(input)? {
            1 => {
                let f = f64::from_bits(u64::from_le_bytes(*chunk(input)?));
                short_float(f).is_none().then_some(f)
            }
            v if v & 1 == 0 && v >> 1 < SHORT_FLOAT_END => Some((v >> 1) as f64),
            _ => None,
        }
    }
}

impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        u8::from(*self).put(out);
    }
    fn take(input: &mut &[u8]) -> Option<Self> {
        match u8::take(input)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Field for String {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn take(input: &mut &[u8]) -> Option<Self> {
        let n = len(input)?;
        let (bytes, rest) = input.split_at_checked(n)?;
        *input = rest;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl<T: Field + Copy + Default, const N: usize> Field for [T; N] {
    fn put(&self, out: &mut Vec<u8>) {
        for v in self {
            v.put(out);
        }
    }
    fn take(input: &mut &[u8]) -> Option<Self> {
        let mut array = [T::default(); N];
        for v in &mut array {
            *v = T::take(input)?;
        }
        Some(array)
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }
    fn take(input: &mut &[u8]) -> Option<Self> {
        let n = len(input)?;
        // Every item takes a byte or more, so a length past the input's
        // reserves no more than a well-formed frame could fill.
        let mut items = Vec::with_capacity(n.min(input.len()));
        for _ in 0..n {
            items.push(T::take(input)?);
        }
        Some(items)
    }
}

/// A presence byte, then the value when there is one.
impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn take(input: &mut &[u8]) -> Option<Self> {
        Some(if bool::take(input)? { Some(T::take(input)?) } else { None })
    }
}

/// A bucket count byte, then the stored buckets
/// ([`IdleHistogram::buckets`]) as varints. Each histogram has exactly one
/// encoding: [`IdleHistogram::from_buckets`] rejects a count above
/// [`IDLE_BUCKETS`](bitline_cache::IDLE_BUCKETS) and a zero top bucket,
/// neither of which `put` writes.
impl Field for IdleHistogram {
    fn put(&self, out: &mut Vec<u8>) {
        let buckets = self.buckets();
        u8::try_from(buckets.len()).expect("at most IDLE_BUCKETS buckets").put(out);
        for c in buckets {
            c.put(out);
        }
    }
    fn take(input: &mut &[u8]) -> Option<Self> {
        let n = usize::from(u8::take(input)?);
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            buckets.push(u64::take(input)?);
        }
        IdleHistogram::from_buckets(buckets)
    }
}

impl Field for DegradationStage {
    fn put(&self, out: &mut Vec<u8>) {
        self.index().put(out);
    }
    fn take(input: &mut &[u8]) -> Option<Self> {
        DegradationStage::from_index(u8::take(input)?)
    }
}

/// Implements [`Field`] for each record from its field list, in frame
/// order. A field after `;` is not in the frame: `take` sets it to the
/// value given. The impls are `#[inline]` so a record is read inside its
/// container's loop, as a hand-written reader would: a call per
/// subarray made decoding about 15% slower.
macro_rules! records {
    ($($record:ident { $($field:ident),+ $(; $fixed:ident: $value:expr)? })+) => {$(
        impl Field for $record {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)+
            }
            #[inline]
            fn take(input: &mut &[u8]) -> Option<Self> {
                Some($record { $($field: Field::take(input)?,)+ $($fixed: $value)? })
            }
        }
    )+};
}

records! {
    SimStats {
        cycles, committed, fetched, branches, mispredicts, loads, stores, replays,
        load_misspeculations, fetch_stall_cycles, hints
    }
    // The spec decides a record's level, and `decode_run` sets it.
    LevelRun {
        report, hits, misses, writebacks, locality, way_stats, faults, reliability, vdd;
        level: Level::L1D
    }
    ActivityReport { policy, end_cycle, per_subarray }
    SubarrayActivity {
        accesses, delayed_accesses, pulled_up_cycles, precharge_events, drowsy_cycles,
        idle_histogram
    }
    LocalityStats { interval_counts, intervals_total, hot_cycles, subarrays, end_cycle }
    WayStats { correct, wrong }
    FaultReport { per_subarray }
    SubarrayFaults { injected, detected, silent, replayed, decay_flips, pinned }
    VddReport { per_subarray, upsets, replays, corrected, sdc, step_accesses }
    SubarrayVdd { step, escalations, deescalations, pinned }
    ReliabilityReport {
        per_subarray, background_scrub_words, demand_scrub_words, pinned_residency_cycles,
        end_cycle
    }
    SubarrayReliability { corrected, due, sdc, demand_scrubs, latent_cleared, stage }
}

#[cfg(test)]
mod tests {
    use bitline_cache::IDLE_BUCKETS;
    use bitline_energy::LeakageKind;

    use super::*;
    use crate::config::{FaultSpec, HierarchySpec, PolicyKind, VddSpec};

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

    /// A simulated run: mesa under gated:100 on both L1s, 2 000
    /// instructions.
    fn simulated_run() -> RunResult {
        let gated = PolicyKind::Gated { threshold: 100 };
        let spec = SystemSpec {
            d_policy: gated,
            i_policy: gated,
            instructions: 2_000,
            ..SystemSpec::default()
        };
        crate::try_run_benchmark("mesa", &spec).expect("mesa runs")
    }

    #[test]
    fn v8_frames_are_frozen() {
        // A journal written by any v8 binary must replay on every later one,
        // so a v8 frame's bytes never move. The literals were computed on
        // the v8 codec when it was introduced; never re-bless them.
        let cases = [
            (sample_run(), 0xca8f_6785_3d5b_6f13_u64),
            (sample_hierarchy_run(), 0x8085_061e_c2b9_970f),
            (sample_vdd_run(), 0x2098_ad0d_a872_13df),
            (simulated_run(), 0x3bf9_a59d_a0da_ad74),
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
        for version in [2, 3, 4, 5, 6, 7, 99] {
            let mut bytes = encode_run(&sample_run());
            bytes[0] = version;
            assert!(decode_run(&bytes).is_none(), "v{version}");
        }
    }

    #[test]
    fn an_idle_histogram_writes_its_count_and_stored_buckets() {
        let mut hist = IdleHistogram::default();
        hist.record(7);
        hist.record(700);
        let mut bytes = Vec::new();
        hist.put(&mut bytes);
        assert_eq!(bytes.len(), 1 + 10, "700 cycles land in bucket 9, each count one byte");
        assert_eq!(bytes[0], 10);
        assert_eq!(IdleHistogram::take(&mut &bytes[..]), Some(hist));
        let mut empty = Vec::new();
        IdleHistogram::default().put(&mut empty);
        assert_eq!(empty, [0]);
        let full = IdleHistogram::from_counts([1; IDLE_BUCKETS]);
        let mut bytes = Vec::new();
        full.put(&mut bytes);
        assert_eq!(IdleHistogram::take(&mut &bytes[..]), Some(full));
    }

    #[test]
    fn a_bucket_count_above_idle_buckets_is_rejected() {
        // The bytes for every counted bucket are there; only the count
        // is out of range.
        for count in [IDLE_BUCKETS + 1, 64, usize::from(u8::MAX)] {
            let mut bytes = vec![u8::try_from(count).expect("a count byte")];
            bytes.extend(std::iter::repeat_n(1_u64.to_le_bytes(), count).flatten());
            assert_eq!(IdleHistogram::take(&mut &bytes[..]), None, "{count} buckets");
        }
    }

    #[test]
    fn a_zero_top_bucket_is_rejected() {
        // `put` never writes one, so reading it back would give a
        // histogram whose frame re-encodes to other bytes.
        let mut hist = IdleHistogram::default();
        hist.record(7);
        let mut bytes = Vec::new();
        hist.put(&mut bytes);
        bytes[0] += 1;
        bytes.extend(0_u64.to_le_bytes());
        assert_eq!(IdleHistogram::take(&mut &bytes[..]), None);
        assert_eq!(IdleHistogram::take(&mut &[1, 0, 0, 0, 0, 0, 0, 0, 0][..]), None);
    }

    #[test]
    fn reencoding_a_decoded_frame_returns_its_bytes() {
        for run in [sample_run(), sample_hierarchy_run(), sample_vdd_run(), simulated_run()] {
            let bytes = encode_run(&run);
            let decoded = decode_run(&bytes).expect("decodes");
            assert_eq!(encode_run(&decoded), bytes, "{}", run.benchmark);
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
        let mut head = Vec::new();
        VERSION.put(&mut head);
        run.benchmark.put(&mut head);
        text.clone().put(&mut head);
        let tail = &bytes[head.len()..];
        let frame = |text: &str| {
            let mut out = Vec::new();
            VERSION.put(&mut out);
            run.benchmark.put(&mut out);
            text.to_owned().put(&mut out);
            out.extend_from_slice(tail);
            out
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

    /// `value`'s frame bytes.
    fn frame_of<T: Field>(value: &T) -> Vec<u8> {
        let mut out = Vec::new();
        value.put(&mut out);
        out
    }

    /// `T` read from the whole of `bytes`: `None` unless it reads every
    /// byte.
    fn read_all<T: Field>(mut bytes: &[u8]) -> Option<T> {
        T::take(&mut bytes).filter(|_| bytes.is_empty())
    }

    #[test]
    fn integers_are_minimal_varints() {
        for (v, bytes) in [
            (0_u64, &[0x00][..]),
            (127, &[0x7F]),
            (128, &[0x80, 0x01]),
            (300, &[0xAC, 0x02]),
            (u64::MAX, &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]),
        ] {
            assert_eq!(frame_of(&v), bytes, "{v}");
            assert_eq!(read_all::<u64>(bytes), Some(v), "{v}");
        }
    }

    #[test]
    fn a_non_minimal_varint_is_rejected() {
        // Zero, 1 and 300 spelt with a trailing zero byte: each value keeps
        // one encoding, so these are not it.
        for bytes in [&[0x80, 0x00][..], &[0x81, 0x00], &[0xAC, 0x82, 0x00]] {
            assert_eq!(read_all::<u64>(bytes), None, "{bytes:02x?}");
        }
        assert_eq!(read_all::<u64>(&[0x80]), None, "a varint cut short");
    }

    #[test]
    fn a_varint_past_64_bits_is_rejected() {
        let mut bytes = vec![0xFF; 9];
        bytes.push(0x02);
        assert_eq!(read_all::<u64>(&bytes), None, "bit 64 set in the tenth byte");
        bytes[9] = 0x81;
        bytes.push(0x01);
        assert_eq!(read_all::<u64>(&bytes), None, "an eleventh byte");
        bytes.truncate(9);
        bytes.push(0x01);
        assert_eq!(read_all::<u64>(&bytes), Some(u64::MAX));
    }

    #[test]
    fn a_long_form_float_the_short_form_covers_is_rejected() {
        for f in [0.0_f64, 1.0, 101.0, 2f64.powi(53) - 1.0] {
            let mut long = vec![1];
            long.extend_from_slice(&f.to_bits().to_le_bytes());
            assert_eq!(read_all::<f64>(&long), None, "{f}");
            assert_eq!(read_all::<f64>(&frame_of(&f)), Some(f), "{f}");
        }
        // An odd varint other than 1, and an even one at or past 2^53, are
        // no float at all.
        assert_eq!(read_all::<f64>(&[0x03]), None);
        assert_eq!(read_all::<f64>(&frame_of(&(1_u64 << 54))), None);
    }

    #[test]
    fn whole_cycle_counts_take_the_short_form() {
        assert_eq!(frame_of(&0.0_f64), [0x00]);
        assert_eq!(frame_of(&63.0_f64), [0x7E]);
        assert_eq!(frame_of(&8_270.0_f64), frame_of(&16_540_u64));
    }

    #[test]
    fn floats_the_short_form_cannot_hold_round_trip_bit_exactly() {
        let nan = f64::from_bits(0x7FF8_0000_0000_0001);
        for f in [-0.0, nan, f64::NAN, 2f64.powi(53), 64.5, -3.0, f64::INFINITY, 1e300] {
            let bytes = frame_of(&f);
            assert_eq!(bytes.len(), 9, "{f}: the long form");
            let back = read_all::<f64>(&bytes).expect("decodes");
            assert_eq!(back.to_bits(), f.to_bits(), "{f}");
        }
    }

    #[test]
    fn any_single_byte_mutation_decodes_or_is_rejected_without_panicking() {
        // The text spec decoder must stay as total as the binary blocks
        // around it: every byte is replaced. A debug build tries the values
        // that break lengths, counts, tags and flags (0x00, 0x80, 0xFF and
        // each single-bit flip); a release build, which `./ci.sh` runs,
        // tries all 256.
        for run in [sample_run(), sample_hierarchy_run(), sample_vdd_run()] {
            let bytes = encode_run(&run);
            let mut mutated = bytes.clone();
            for (i, &original) in bytes.iter().enumerate() {
                let values: Vec<u8> = if cfg!(debug_assertions) {
                    let flips = (0..8).map(|bit| original ^ (1 << bit));
                    [0x00, 0x80, 0xFF].into_iter().chain(flips).collect()
                } else {
                    (0..=u8::MAX).collect()
                };
                for value in values {
                    mutated[i] = value;
                    let _ = decode_run(&mutated);
                }
                mutated[i] = original;
            }
        }
    }
}
