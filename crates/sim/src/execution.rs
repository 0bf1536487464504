//! Process-wide memoization behind the experiment drivers.
//!
//! Two process-wide caches, both built on `bitline-exec`, and the trace
//! store a run reads from:
//!
//! * the **run cache** — completed [`RunResult`]s keyed by the benchmark
//!   and the spec's canonical text ([`spec::canonical_text`], the text the
//!   run's frame carries), so the static baseline every figure recomputes
//!   and the repeated points of a threshold sweep are simulated once per
//!   process. Each run is held as its journal frame
//!   ([`checkpoint::encode_run`]), a fraction of the decoded run's heap,
//!   and every lookup decodes it;
//! * the **accountant cache** — the `(d, i)` [`EnergyAccountant`] pair per
//!   `(node, subarray bytes)`, so re-pricing a run at another node does
//!   not rebuild cache geometry and energy models. Entries are `Arc`s:
//!   pricing reads the shared models and never copies their transient
//!   voltage tables;
//! * the **trace store** — each stream has one owner. A run reads its
//!   `(benchmark, seed)` stream from the store [`with_traces`] installed,
//!   where it is generated once for every run of that store's owner: a
//!   harness unit of work, freed with its streams when the unit returns,
//!   or the `bitline-serve` daemon. Outside one, a run reads a stream of
//!   its own, freed when the run finishes, and a lockstep set of runs
//!   reads one windowed stream, dropped behind the slowest of them.
//!
//! Every cached value is a pure function of its key (runs are seeded and
//! deterministic), so cache hits are indistinguishable from recomputation
//! and figure output stays byte-identical whatever the hit pattern.

use std::cell::RefCell;
use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use bitline_cache::CacheConfig;
use bitline_cmos::TechnologyNode;
use bitline_energy::EnergyAccountant;
use bitline_exec::{CacheStats, Journal, MemoCache, TraceCursor, TraceStore};

use crate::checkpoint;
use crate::config::SystemSpec;
use crate::error::SimError;
use crate::runner::{try_run_benchmark, try_run_lockstep_supervised, RunResult};
use crate::spec;
use crate::supervise;

/// A run as the run cache holds it: its codec frame, the bytes the journal
/// stores.
type Frame = Arc<[u8]>;

/// A run's name in the run cache: its benchmark and its spec's canonical
/// text. The text reads back to the spec bit for bit for every spec
/// [`SystemSpec::validate`] admits, and no other spec is looked up, so two
/// runs share a key exactly when they are the same run.
type RunKey = (String, String);

fn run_key(name: &str, spec: &SystemSpec) -> RunKey {
    (name.to_owned(), spec::canonical_text(spec))
}

fn run_cache() -> &'static MemoCache<RunKey, Frame> {
    static CACHE: OnceLock<MemoCache<RunKey, Frame>> = OnceLock::new();
    CACHE.get_or_init(|| MemoCache::named("sim.run_cache"))
}

/// Encodes a fresh run once, for the run cache and the journal alike.
fn frame(run: &RunResult) -> Frame {
    checkpoint::encode_run(run).into()
}

/// The run a cached frame holds. Every result the cache returns comes from
/// here, a fresh run's as much as a hit's or a replayed one's, so none of
/// them can differ.
fn unframe(frame: &[u8]) -> RunResult {
    checkpoint::decode_run(frame).expect("a frame the codec wrote or checked decodes")
}

thread_local! {
    /// The trace store [`with_traces`] installed. A unit of work or a
    /// daemon's request stays on one thread for its whole life, so the
    /// thread-local is exactly its scope.
    static TRACES: RefCell<Option<Arc<TraceStore>>> = const { RefCell::new(None) };
}

/// Runs `f` with `store` installed: every retained stream a run in `f`
/// reads comes from `store`, generated there at most once. The previous
/// store, if any, is restored when `f` returns, panic or not. A harness
/// unit of work passes a fresh store, freed with its streams when the unit
/// returns; the `bitline-serve` daemon passes one store for its life.
pub fn with_traces<R>(store: Arc<TraceStore>, f: impl FnOnce() -> R) -> R {
    let prev = TRACES.with(|t| t.replace(Some(store)));
    struct Restore(Option<Arc<TraceStore>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TRACES.with(|t| *t.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The `(data, inst)` accountant pair of one node and subarray size.
type AccountantPair = Arc<(EnergyAccountant, EnergyAccountant)>;

fn accountant_cache() -> &'static MemoCache<(TechnologyNode, usize), AccountantPair> {
    static CACHE: OnceLock<MemoCache<(TechnologyNode, usize), AccountantPair>> = OnceLock::new();
    CACHE.get_or_init(|| MemoCache::named("sim.accountants"))
}

/// A replay cursor into the retained trace of `benchmark` at `seed`, from
/// the store [`with_traces`] installed or, outside one, from a store of the
/// cursor's own, freed with it; `None` when the benchmark is not in the
/// suite.
pub(crate) fn trace_cursor(benchmark: &str, seed: u64) -> Option<TraceCursor> {
    TRACES.with(|t| match &*t.borrow() {
        Some(store) => store.cursor(benchmark, seed),
        None => TraceStore::new().cursor(benchmark, seed),
    })
}

/// The cached `(data, inst)` accountant pair for a node and subarray size.
pub(crate) fn accountants(node: TechnologyNode, subarray_bytes: usize) -> AccountantPair {
    accountant_cache().get_or_insert_with((node, subarray_bytes), || {
        let d_cfg = CacheConfig::l1_data().with_subarray_bytes(subarray_bytes);
        let i_cfg = CacheConfig::l1_inst().with_subarray_bytes(subarray_bytes);
        Arc::new((EnergyAccountant::new(node, d_cfg), EnergyAccountant::new(node, i_cfg)))
    })
}

fn level_accountant_cache(
) -> &'static MemoCache<(TechnologyNode, CacheConfig), Arc<EnergyAccountant>> {
    static CACHE: OnceLock<MemoCache<(TechnologyNode, CacheConfig), Arc<EnergyAccountant>>> =
        OnceLock::new();
    CACHE.get_or_init(|| MemoCache::named("sim.level_accountants"))
}

/// The cached accountant for an arbitrary cache geometry — the outer
/// hierarchy levels (L2/L3), whose subarray structure differs from both
/// L1s. Memoized per `(node, geometry)` like [`accountants`].
pub(crate) fn level_accountant(node: TechnologyNode, cfg: CacheConfig) -> Arc<EnergyAccountant> {
    level_accountant_cache()
        .get_or_insert_with((node, cfg), || Arc::new(EnergyAccountant::new(node, cfg)))
}

/// The process-wide checkpoint journal, when `--checkpoint` is active.
struct CheckpointState {
    journal: Journal,
    stats: CheckpointStats,
}

fn checkpoint_state() -> &'static Mutex<Option<CheckpointState>> {
    static STATE: Mutex<Option<CheckpointState>> = Mutex::new(None);
    &STATE
}

/// What [`set_checkpoint`] found on disk, and what the process journaled
/// since.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Runs replayed from the journal into the run cache.
    pub replayed: u64,
    /// Corrupt entries quarantined (logged and skipped).
    pub quarantined: u64,
    /// Of the quarantined entries, frames stamped with another codec
    /// version, older or newer — skipped and recomputed, never misread
    /// as damage. The journal is a cache: changing builds under it costs
    /// recomputation, not a failed resume.
    pub version_skew: u64,
    /// Fresh runs journaled this process.
    pub appended: u64,
    /// Fresh computations of already-journaled keys — zero on a healthy
    /// warm resume; the CI smoke fails on anything else.
    pub recomputed: u64,
}

/// Arms the checkpoint journal in `dir`. With `resume`, entries already
/// on disk are decoded, cross-checked against their key, and warmed into
/// the run cache; without it (`--no-resume`) the journal starts afresh.
/// A key's newest entry supersedes older ones. Corrupt or stale entries
/// are quarantined, never trusted, and their runs are recomputed and
/// journaled again.
///
/// Only a key's newest frame, decoded and matching its key, is live. When
/// any other frame is found — superseded, from another codec version, or
/// undecodable — the journal is rewritten with the live frames alone
/// (temp file + rename, as damage compaction does), so no later open reads
/// a dead frame again.
///
/// # Errors
///
/// A human-readable message on I/O failure opening or compacting the
/// journal.
pub fn set_checkpoint(dir: &Path, resume: bool) -> Result<CheckpointStats, String> {
    let mut state = lock_checkpoint();
    let io_error = |e: std::io::Error| format!("checkpoint {}: {e}", dir.display());
    let (mut journal, entries, report) = if resume {
        Journal::open(dir).map_err(io_error)?
    } else {
        (
            Journal::open_fresh(dir).map_err(io_error)?,
            Vec::new(),
            bitline_exec::LoadReport::default(),
        )
    };

    let mut replayed = 0u64;
    let mut quarantined = u64::try_from(report.quarantined).unwrap_or(u64::MAX);
    let mut version_skew = 0u64;
    let mut seen = HashSet::new();
    let mut live = vec![false; entries.len()];
    // Newest first, so a key's newest frame supersedes older ones. Each
    // frame is decoded once, to check it, and its bytes fill the cache.
    for (i, entry) in entries.into_iter().enumerate().rev() {
        if !seen.insert(entry.key.clone()) {
            continue;
        }
        // An entry is trusted only when it decodes *and* its key matches a
        // recomputation of the decoded run's identity.
        match checkpoint::decode_run(&entry.value) {
            Some(run) if checkpoint::spec_key(&run.benchmark, &run.spec) == entry.key => {
                run_cache().insert(run_key(&run.benchmark, &run.spec), entry.value.into());
                replayed += 1;
                live[i] = true;
            }
            _ => {
                // The CRC passed (the journal layer already dropped torn
                // frames), so a leading version byte other than ours means
                // another build wrote this entry — count it apart so a
                // build change reads as "skipped other work", not damage.
                if entry.value.first().is_some_and(|&v| v != checkpoint::VERSION) {
                    version_skew += 1;
                }
                quarantined += 1;
            }
        }
    }
    if live.contains(&false) {
        journal.retain(|i| live[i]).map_err(io_error)?;
    }
    if version_skew > 0 {
        eprintln!(
            "[sim] warning: checkpoint {}: skipped {version_skew} journal \
             frame(s) from another codec version (not v{}); those runs will \
             be recomputed",
            dir.display(),
            checkpoint::VERSION,
        );
    }
    bitline_obs::counter!("sim.checkpoint.replayed").add(replayed);
    bitline_obs::counter!("sim.checkpoint.quarantined").add(quarantined);
    bitline_obs::counter!("sim.checkpoint.version_skew").add(version_skew);
    let stats = CheckpointStats { replayed, quarantined, version_skew, appended: 0, recomputed: 0 };
    *state = Some(CheckpointState { journal, stats });
    Ok(stats)
}

/// Disarms the checkpoint journal (tests).
pub fn clear_checkpoint() {
    *lock_checkpoint() = None;
}

fn lock_checkpoint() -> std::sync::MutexGuard<'static, Option<CheckpointState>> {
    checkpoint_state().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Journals the frame of a freshly computed run under its
/// [`checkpoint::spec_key`], if a checkpoint is armed. Failures to write
/// are reported on stderr but never fail the run itself.
fn journal_record(key: &str, frame: &[u8]) {
    let mut state = lock_checkpoint();
    let Some(cp) = state.as_mut() else { return };
    if cp.journal.contains(key) {
        // A fresh compute of a journaled key — every one the journal still
        // holds was replayed — means the warm path failed to serve it.
        // Counted so CI can assert resume actually resumes.
        cp.stats.recomputed += 1;
        bitline_obs::counter!("sim.checkpoint.recomputed").incr();
        return;
    }
    // Record seam: an injected error here models "computed but never
    // journaled" — warm restart must recompute the key, never invent it.
    if let Err(e) = bitline_failpoint::io_result("checkpoint.record") {
        eprintln!("[exec] warning: checkpoint append failed for {key}: {e}");
        return;
    }
    match cp.journal.append(key, frame) {
        Ok(()) => {
            cp.stats.appended += 1;
            bitline_obs::counter!("sim.checkpoint.appended").incr();
        }
        Err(e) => eprintln!("[exec] warning: checkpoint append failed for {key}: {e}"),
    }
}

/// Counters of the armed checkpoint journal, if any.
#[must_use]
pub fn checkpoint_stats() -> Option<CheckpointStats> {
    lock_checkpoint().as_ref().map(|cp| cp.stats)
}

/// Memoized [`try_run_benchmark`]: the first request for a
/// `(benchmark, spec)` pair simulates it and stores its frame, and every
/// request, the first included, returns the run decoded from that frame.
/// A spec [`SystemSpec::validate`] rejects is refused before the lookup.
/// Errors are returned but never cached.
///
/// When a checkpoint journal is armed ([`set_checkpoint`]), every fresh
/// computation's frame is appended to it before the result is returned, so
/// a crash after this function returns cannot lose the run.
///
/// # Errors
///
/// Exactly those of [`try_run_benchmark`].
pub fn try_run_benchmark_cached(name: &str, spec: &SystemSpec) -> Result<RunResult, SimError> {
    spec.validate()?;
    let frame = run_cache().get_or_try_insert_with(run_key(name, spec), || {
        let key = checkpoint::spec_key(name, spec);
        let _span = bitline_obs::span("sim/run").field("benchmark", name).field("spec_key", &key);
        // Run seam, tagged with the spec key: a fault here fails exactly
        // one run of one benchmark.
        bitline_failpoint::failpoint!("sim.run", &key);
        let frame = frame(&try_run_benchmark(name, spec)?);
        journal_record(&key, &frame);
        Ok(frame)
    })?;
    Ok(unframe(&frame))
}

/// Memoized lockstep runs of several specs of benchmark `name` at one
/// seed, one result per spec in `specs` order. Only the specs missing from
/// the run cache are simulated, equal specs once, one chunk of each in
/// turn over one windowed trace, so the trace held stays a couple of
/// segments however long the runs. Each result is identical to a
/// [`try_run_benchmark`] of its spec. Each fresh result enters the run
/// cache and the checkpoint journal exactly as [`try_run_benchmark_cached`]
/// would put it there, once every run of the set has finished: a process
/// killed mid-set recomputes all of them.
///
/// # Errors
///
/// Those of [`try_run_benchmark`] for any spec, and
/// [`SimError::InvalidSpec`] when the specs to simulate name different
/// seeds; on an error no spec is cached or journaled.
pub fn try_run_lockstep_cached(
    name: &str,
    specs: &[SystemSpec],
) -> Result<Vec<RunResult>, SimError> {
    for spec in specs {
        spec.validate()?;
    }
    let keys: Vec<RunKey> = specs.iter().map(|s| run_key(name, s)).collect();
    let frames = run_cache().get_or_try_insert_all(&keys, |missing| {
        let spec_of = |key| specs[keys.iter().position(|k| k == key).expect("one of the keys")];
        let specs: Vec<SystemSpec> = missing.iter().map(|key| spec_of(*key)).collect();
        let spec_keys: Vec<String> = specs.iter().map(|s| checkpoint::spec_key(name, s)).collect();
        let _span =
            bitline_obs::span("sim/lockstep").field("benchmark", name).field("runs", specs.len());
        for key in &spec_keys {
            bitline_failpoint::failpoint!("sim.run", key);
        }
        let runs = try_run_lockstep_supervised(name, &specs, &supervise::ambient_token())?;
        Ok(runs
            .iter()
            .zip(&spec_keys)
            .map(|(run, key)| {
                let frame = frame(run);
                journal_record(key, &frame);
                frame
            })
            .collect())
    })?;
    Ok(frames.iter().map(|f| unframe(f)).collect())
}

/// Counters of the process-wide run cache.
#[must_use]
pub fn run_cache_stats() -> CacheStats {
    run_cache().stats()
}

/// One-line execution summary for driver output (written to stderr by
/// `bitline-sim` so stdout rows stay byte-identical across job counts).
/// Its trace part reads the `exec.traces.*` metrics: how many streams
/// were generated, their instructions, the most bytes retained streams
/// held at once and, when runs read a window, how many windows and the
/// most one held.
#[must_use]
pub fn exec_summary_line() -> String {
    let mut line = format!(
        "jobs={}; run-cache: {}; {} shared traces, {} instrs materialised, at most {} KiB \
         retained at once",
        bitline_exec::pool::jobs(),
        run_cache_stats(),
        bitline_obs::counter!("exec.traces.streams").get(),
        bitline_obs::counter!("exec.traces.materialised").get(),
        bitline_obs::gauge!("exec.traces.retained_peak_bytes").get() / 1024,
    );
    let windows = bitline_obs::counter!("exec.traces.windows").get();
    if windows > 0 {
        line.push_str(&format!(
            "; {windows} windowed, at most {} segments ({} KiB) in one window",
            bitline_obs::gauge!("exec.traces.window_peak_segments").get(),
            bitline_obs::gauge!("exec.traces.window_peak_bytes").get() / 1024
        ));
    }
    if let Some(cp) = checkpoint_stats() {
        line.push_str(&format!(
            "; journal: {} replayed, {} appended, {} recomputed, {} quarantined",
            cp.replayed, cp.appended, cp.recomputed, cp.quarantined
        ));
    }
    line
}

/// Empties the run cache (cold-vs-warm comparisons in tests and the CI
/// smoke target). The accountant cache is kept — it holds no run state.
pub fn clear_run_caches() {
    run_cache().clear();
}

#[cfg(test)]
mod tests {
    use bitline_cache::{MemorySystem, MemorySystemConfig};

    use super::*;
    use crate::PolicyKind;

    #[test]
    fn cached_run_equals_cold_run_and_counts_hits() {
        use bitline_exec::CancelToken;

        use crate::{FaultSpec, HierarchySpec, VddSpec};

        // A spec per record kind a frame carries, each run three ways: a
        // miss, a hit, and a frame replayed from a journal.
        let gated = PolicyKind::Gated { threshold: 75 };
        let drowsy = PolicyKind::Drowsy { threshold: 100 };
        let base = SystemSpec {
            d_policy: gated,
            instructions: 3_000,
            seed: 1234,
            ..SystemSpec::default()
        };
        let ecc =
            FaultSpec { rate: 0.05, seed: 7, fail_safe: false, ecc: true, scrub_period: None };
        let specs = [
            base,
            SystemSpec { faults: ecc, ..base },
            SystemSpec { vdd: VddSpec { scale: 0.8, governor: true }, ..base },
            SystemSpec {
                hierarchy: HierarchySpec {
                    levels: 3,
                    l2_policy: gated,
                    ..HierarchySpec::default()
                },
                ..base
            },
            SystemSpec { way_prediction: true, ..base },
            SystemSpec { subarray_bytes: 64, ..base },
            SystemSpec { d_policy: PolicyKind::LocalityRecorder, ..base },
            SystemSpec { d_policy: drowsy, i_policy: drowsy, ..base },
        ];
        let dir = std::env::temp_dir().join(format!("bitline-run-cache-{}", std::process::id()));
        let mut journal = Journal::open_fresh(&dir).expect("a scratch journal");
        let mut journaled = Vec::new();
        for (k, spec) in specs.into_iter().enumerate() {
            let cold = format!("{:?}", try_run_benchmark("tsp", &spec).expect("cold run"));
            let miss = try_run_benchmark_cached("tsp", &spec).expect("fill");
            let before = run_cache_stats();
            let hit = try_run_benchmark_cached("tsp", &spec).expect("hit");
            assert!(run_cache_stats().hits > before.hits, "second lookup must hit");
            assert_eq!(format!("{miss:?}"), cold, "miss: {spec:?}");
            assert_eq!(format!("{hit:?}"), cold, "hit: {spec:?}");
            // The same spec at a seed of its own, which nothing has cached.
            let spec = SystemSpec { seed: 31_000 + k as u64, ..spec };
            let run = try_run_benchmark("tsp", &spec).expect("cold run");
            let key = checkpoint::spec_key("tsp", &spec);
            journal.append(&key, &checkpoint::encode_run(&run)).expect("the frame appends");
            journaled.push((spec, format!("{run:?}")));
        }
        drop(journal);
        let stats = set_checkpoint(&dir, true).expect("the journal opens");
        clear_checkpoint();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(stats.replayed, journaled.len() as u64);
        // Under a cancelled token only the run cache can answer.
        let cancelled = CancelToken::unbounded();
        cancelled.cancel();
        for (spec, cold) in journaled {
            let replayed =
                supervise::with_token(&cancelled, || try_run_benchmark_cached("tsp", &spec))
                    .expect("the replayed frame answers");
            assert_eq!(format!("{replayed:?}"), cold, "replayed: {spec:?}");
        }
    }

    #[test]
    fn errors_pass_through_uncached() {
        let err = try_run_benchmark_cached("nosuch", &SystemSpec::default()).unwrap_err();
        assert_eq!(err, SimError::UnknownBenchmark("nosuch".into()));
        let bad = SystemSpec { subarray_bytes: 48, ..SystemSpec::default() };
        assert!(matches!(try_run_benchmark_cached("mesa", &bad), Err(SimError::InvalidSpec(_))));
        // A zero scrub period has the text of an unset one; the cached
        // unset run must not answer for it.
        let faults = crate::FaultSpec { ecc: true, ..crate::FaultSpec::default() };
        let unset =
            SystemSpec { instructions: 2_000, seed: 27_400, faults, ..SystemSpec::default() };
        try_run_benchmark_cached("mesa", &unset).expect("the unset run");
        let zero =
            SystemSpec { faults: crate::FaultSpec { scrub_period: Some(0), ..faults }, ..unset };
        assert_eq!(run_key("mesa", &zero), run_key("mesa", &unset));
        assert!(matches!(try_run_benchmark_cached("mesa", &zero), Err(SimError::InvalidSpec(_))));
    }

    /// A slack the policy grammar cannot spell has no text to key the run
    /// cache or fill a frame with, so the spec is refused naming the field.
    #[test]
    fn a_non_finite_slack_is_rejected_naming_the_field() {
        use crate::HierarchySpec;
        let base = SystemSpec {
            instructions: 2_000,
            hierarchy: HierarchySpec { levels: 3, ..HierarchySpec::default() },
            ..SystemSpec::default()
        };
        for slack in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let policy = PolicyKind::Resizable { interval_accesses: 1_000, slack };
            for (field, spec) in [
                ("d_policy", SystemSpec { d_policy: policy, ..base }),
                ("i_policy", SystemSpec { i_policy: policy, ..base }),
                (
                    "l2_policy",
                    SystemSpec {
                        hierarchy: HierarchySpec { l2_policy: policy, ..base.hierarchy },
                        ..base
                    },
                ),
            ] {
                match try_run_benchmark_cached("mesa", &spec) {
                    Err(SimError::InvalidSpec(msg)) => {
                        assert!(msg.starts_with(&format!("{field} = {policy};")), "{msg}");
                        assert!(msg.ends_with("slack must be finite"), "{msg}");
                    }
                    other => panic!("{field} slack {slack}: got {other:?}"),
                }
            }
        }
    }

    /// Specs that differ only in a float's sign bit are two runs, as their
    /// spec keys are: the cache keys them by text, where `-0` is not `0`.
    #[test]
    fn a_sign_bit_keeps_its_own_run_cache_entry() {
        use bitline_exec::CancelToken;

        use crate::FaultSpec;

        let zero = SystemSpec { instructions: 2_000, seed: 27_300, ..SystemSpec::default() };
        let negative = SystemSpec { faults: FaultSpec { rate: -0.0, ..zero.faults }, ..zero };
        assert!(negative.validate().is_ok(), "a -0 fault rate is a valid, disabled rate");
        assert_ne!(checkpoint::spec_key("mesa", &zero), checkpoint::spec_key("mesa", &negative));
        try_run_benchmark_cached("mesa", &zero).expect("the +0 run");
        // Under a cancelled token only the run cache can answer.
        let cancelled = CancelToken::unbounded();
        cancelled.cancel();
        let cached = |spec: &SystemSpec| {
            supervise::with_token(&cancelled, || try_run_benchmark_cached("mesa", spec))
        };
        assert!(cached(&zero).is_ok(), "the +0 run is cached");
        assert!(
            matches!(cached(&negative), Err(SimError::TimedOut { .. })),
            "the -0 spec was answered from the +0 entry"
        );
        let cold = format!("{:?}", try_run_benchmark("mesa", &negative).expect("cold run"));
        try_run_benchmark_cached("mesa", &negative).expect("the -0 run");
        let run = cached(&negative).expect("the -0 entry");
        assert_eq!(format!("{run:?}"), cold);
        assert_eq!(run.spec.faults.rate.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn lockstep_pairs_match_independent_runs() {
        use crate::{FaultSpec, HierarchySpec, VddSpec};
        let gated = PolicyKind::Gated { threshold: 100 };
        let both = |p: PolicyKind| SystemSpec { d_policy: p, i_policy: p, ..SystemSpec::default() };
        let specs = [
            both(PolicyKind::StaticPullUp),
            both(gated),
            SystemSpec { d_policy: PolicyKind::GatedPredecode { threshold: 100 }, ..both(gated) },
            both(PolicyKind::Oracle),
            both(PolicyKind::OnDemand),
            both(PolicyKind::Drowsy { threshold: 100 }),
            both(PolicyKind::Resizable { interval_accesses: 1_000, slack: 0.005 }),
            SystemSpec {
                faults: FaultSpec {
                    rate: 0.05,
                    seed: 7,
                    fail_safe: false,
                    ecc: true,
                    scrub_period: Some(4_096),
                },
                ..both(gated)
            },
            SystemSpec { vdd: VddSpec { scale: 0.8, governor: true }, ..both(gated) },
            SystemSpec {
                hierarchy: HierarchySpec {
                    levels: 3,
                    l2_policy: gated,
                    ..HierarchySpec::default()
                },
                ..both(gated)
            },
            SystemSpec { way_prediction: true, ..both(gated) },
            SystemSpec { subarray_bytes: 64, ..both(gated) },
        ];
        for (k, spec) in specs.into_iter().enumerate() {
            // A seed of its own, so the run cache holds neither spec yet
            // and the pair is simulated in lockstep, three segments long.
            let spec = SystemSpec { instructions: 9_000, seed: 27_100 + k as u64, ..spec };
            let pair = [spec, spec.static_baseline()];
            let lockstep = try_run_lockstep_cached("mesa", &pair).expect("the pair runs");
            for (run, spec) in lockstep.iter().zip(&pair) {
                let alone = try_run_benchmark("mesa", spec).expect("the run alone");
                assert_eq!(format!("{run:?}"), format!("{alone:?}"), "{spec:?}");
            }
        }
    }

    #[test]
    fn a_budget_that_expires_mid_pair_caches_neither_run() {
        use std::time::Duration;

        use bitline_exec::CancelToken;

        let spec = SystemSpec {
            d_policy: PolicyKind::Gated { threshold: 100 },
            instructions: 400_000,
            seed: 27_200,
            ..SystemSpec::default()
        };
        let pair = [spec, spec.static_baseline()];
        let budget = CancelToken::with_budget(Duration::from_millis(20));
        let err = supervise::with_token(&budget, || try_run_lockstep_cached("mesa", &pair))
            .expect_err("400k instructions outlast 20 ms");
        assert!(
            matches!(err, SimError::TimedOut { progress, .. } if progress < spec.instructions),
            "{err:?}"
        );
        // Under a cancelled token, a spec the cache lacks times out before
        // its first chunk; a cached one would be returned.
        let cancelled = CancelToken::unbounded();
        cancelled.cancel();
        for spec in &pair {
            let probe =
                supervise::with_token(&cancelled, || try_run_benchmark_cached("mesa", spec));
            assert!(
                matches!(probe, Err(SimError::TimedOut { progress: 0, .. })),
                "{spec:?} entered the run cache"
            );
        }
    }

    #[test]
    fn a_unit_reads_a_store_of_its_own_and_drops_it_on_return() {
        use bitline_trace::TraceSource;

        let current = || TRACES.with(|t| t.borrow().clone());
        let (outer, inner) = with_traces(Arc::new(TraceStore::new()), || {
            let outer = current().expect("a store is installed");
            let mut cursor = trace_cursor("mesa", 27_500).expect("mesa is in the suite");
            let _ = cursor.next_instr();
            assert_eq!(outer.stats().traces, 1, "the cursor reads the installed store");
            let inner = with_traces(Arc::new(TraceStore::new()), || {
                Arc::downgrade(&current().expect("a nested store"))
            });
            assert!(Arc::ptr_eq(&current().expect("restored"), &outer), "the outer store is back");
            (Arc::downgrade(&outer), inner)
        });
        assert!(
            outer.upgrade().is_none() && inner.upgrade().is_none(),
            "a store outlived its unit"
        );
        assert!(current().is_none(), "outside with_traces, no store is installed");
    }

    #[test]
    fn accountants_are_shared_per_node_and_size() {
        let first = accountants(TechnologyNode::N70, 1024);
        let second = accountants(TechnologyNode::N70, 1024);
        assert!(Arc::ptr_eq(&first, &second), "a lookup shares the cached models");
        let l2 = MemorySystem::l2_config(&MemorySystemConfig::default());
        assert!(Arc::ptr_eq(
            &level_accountant(TechnologyNode::N70, l2),
            &level_accountant(TechnologyNode::N70, l2)
        ));
        let ((d1, i1), (d2, _)) = (&*first, &*second);
        // Same models, as priced: identical static baselines.
        let a = d1.static_baseline(10_000, 500, 100, false);
        let b = d2.static_baseline(10_000, 500, 100, false);
        assert!((a.total_j() - b.total_j()).abs() < 1e-18);
        let c = i1.static_baseline(10_000, 500, 0, false);
        assert!(c.total_j() > 0.0);
    }
}
