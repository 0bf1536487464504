//! Process-wide memoization behind the experiment drivers.
//!
//! Three shared stores, all built on `bitline-exec`:
//!
//! * the **run cache** — completed [`RunResult`]s keyed by
//!   `(benchmark, SystemSpec)`, so the static baseline every figure
//!   recomputes and the repeated points of a threshold sweep are simulated
//!   once per process;
//! * the **trace store** — each `(benchmark, seed)` synthetic instruction
//!   stream, generated once and replayed into concurrent runs, plus the
//!   windowed streams a lockstep set of runs reads once and drops behind
//!   it;
//! * the **accountant cache** — the `(d, i)` [`EnergyAccountant`] pair per
//!   `(node, subarray bytes)`, so re-pricing a run at another node does
//!   not rebuild cache geometry and energy models. Entries are `Arc`s:
//!   pricing reads the shared models and never copies their transient
//!   voltage tables.
//!
//! Every cached value is a pure function of its key (runs are seeded and
//! deterministic), so cache hits are indistinguishable from recomputation
//! and figure output stays byte-identical whatever the hit pattern.

use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use bitline_cache::CacheConfig;
use bitline_cmos::TechnologyNode;
use bitline_energy::EnergyAccountant;
use bitline_exec::{CacheStats, Journal, MemoCache, TraceCursor, TraceStore, TraceStoreStats};

use crate::checkpoint;
use crate::config::SystemSpec;
use crate::error::SimError;
use crate::runner::{try_run_benchmark, try_run_lockstep_supervised, RunResult};
use crate::supervise;

fn run_cache() -> &'static MemoCache<(String, SystemSpec), RunResult> {
    static CACHE: OnceLock<MemoCache<(String, SystemSpec), RunResult>> = OnceLock::new();
    CACHE.get_or_init(|| MemoCache::named("sim.run_cache"))
}

fn trace_store() -> &'static TraceStore {
    static STORE: OnceLock<TraceStore> = OnceLock::new();
    STORE.get_or_init(TraceStore::new)
}

/// The `(data, inst)` accountant pair of one node and subarray size.
type AccountantPair = Arc<(EnergyAccountant, EnergyAccountant)>;

fn accountant_cache() -> &'static MemoCache<(TechnologyNode, usize), AccountantPair> {
    static CACHE: OnceLock<MemoCache<(TechnologyNode, usize), AccountantPair>> = OnceLock::new();
    CACHE.get_or_init(|| MemoCache::named("sim.accountants"))
}

/// A replay cursor into the shared trace of `benchmark` at `seed`, or
/// `None` when the benchmark is not in the suite.
pub(crate) fn trace_cursor(benchmark: &str, seed: u64) -> Option<TraceCursor> {
    trace_store().cursor(benchmark, seed)
}

/// `readers` cursors over a fresh windowed stream of `benchmark` at
/// `seed`, or `None` when the benchmark is not in the suite.
pub(crate) fn trace_window(benchmark: &str, seed: u64, readers: usize) -> Option<Vec<TraceCursor>> {
    trace_store().window(benchmark, seed, readers)
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
    // Newest first, so a key's newest frame supersedes older ones; each
    // frame is dropped once decoded, as decoded runs fill the cache.
    for (i, entry) in entries.into_iter().enumerate().rev() {
        if !seen.insert(entry.key.clone()) {
            continue;
        }
        // An entry is trusted only when it decodes *and* its key matches a
        // recomputation of the decoded run's identity.
        match checkpoint::decode_run(&entry.value) {
            Some(run) if checkpoint::spec_key(&run.benchmark, &run.spec) == entry.key => {
                run_cache().insert((run.benchmark.clone(), run.spec), run);
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

/// Journals a freshly computed run, if a checkpoint is armed. Failures to
/// write are reported on stderr but never fail the run itself.
fn journal_record(name: &str, spec: &SystemSpec, run: &RunResult) {
    let mut state = lock_checkpoint();
    let Some(cp) = state.as_mut() else { return };
    let key = checkpoint::spec_key(name, spec);
    if cp.journal.contains(&key) {
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
    match cp.journal.append(&key, &checkpoint::encode_run(run)) {
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
/// `(benchmark, spec)` pair simulates it, every later request returns the
/// stored result. Errors are returned but never cached.
///
/// When a checkpoint journal is armed ([`set_checkpoint`]), every fresh
/// computation is appended to it before the result is returned, so a
/// crash after this function returns cannot lose the run.
///
/// # Errors
///
/// Exactly those of [`try_run_benchmark`].
pub fn try_run_benchmark_cached(name: &str, spec: &SystemSpec) -> Result<RunResult, SimError> {
    run_cache().get_or_try_insert_with((name.to_owned(), *spec), || {
        let _span = bitline_obs::span("sim/run")
            .field("benchmark", name)
            .field("spec_key", checkpoint::spec_key(name, spec));
        let run = try_run_benchmark(name, spec)?;
        journal_record(name, spec, &run);
        Ok(run)
    })
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
    let keys: Vec<(String, SystemSpec)> = specs.iter().map(|s| (name.to_owned(), *s)).collect();
    run_cache().get_or_try_insert_all(&keys, |missing| {
        let specs: Vec<SystemSpec> = missing.iter().map(|(_, spec)| *spec).collect();
        let _span =
            bitline_obs::span("sim/lockstep").field("benchmark", name).field("runs", specs.len());
        let runs = try_run_lockstep_supervised(name, &specs, &supervise::ambient_token())?;
        for run in &runs {
            journal_record(name, &run.spec, run);
        }
        Ok(runs)
    })
}

/// Counters of the process-wide run cache.
#[must_use]
pub fn run_cache_stats() -> CacheStats {
    run_cache().stats()
}

/// Size of the process-wide shared trace store.
#[must_use]
pub fn trace_store_stats() -> TraceStoreStats {
    trace_store().stats()
}

/// One-line execution summary for driver output (written to stderr by
/// `bitline-sim` so stdout rows stay byte-identical across job counts).
#[must_use]
pub fn exec_summary_line() -> String {
    let mut line = format!(
        "jobs={}; run-cache: {}; {}",
        bitline_exec::pool::jobs(),
        run_cache_stats(),
        trace_store_stats()
    );
    if let Some(cp) = checkpoint_stats() {
        line.push_str(&format!(
            "; journal: {} replayed, {} appended, {} recomputed, {} quarantined",
            cp.replayed, cp.appended, cp.recomputed, cp.quarantined
        ));
    }
    line
}

/// Empties the run cache and trace store (cold-vs-warm comparisons in
/// tests and the CI smoke target). The accountant cache is kept — it holds
/// no run state.
pub fn clear_run_caches() {
    run_cache().clear();
    trace_store().clear();
}

#[cfg(test)]
mod tests {
    use bitline_cache::{MemorySystem, MemorySystemConfig};

    use super::*;
    use crate::PolicyKind;

    #[test]
    fn cached_run_equals_cold_run_and_counts_hits() {
        let spec = SystemSpec {
            d_policy: PolicyKind::Gated { threshold: 75 },
            instructions: 3_000,
            seed: 1234,
            ..SystemSpec::default()
        };
        let cold = try_run_benchmark("tsp", &spec).expect("cold run");
        let first = try_run_benchmark_cached("tsp", &spec).expect("fill");
        let before = run_cache_stats();
        let second = try_run_benchmark_cached("tsp", &spec).expect("hit");
        let after = run_cache_stats();
        assert!(after.hits > before.hits, "second lookup must hit");
        for run in [&first, &second] {
            assert_eq!(run.cycles(), cold.cycles());
            assert_eq!(run.stats.committed, cold.stats.committed);
            assert_eq!(format!("{:?}", run.levels), format!("{:?}", cold.levels));
        }
    }

    #[test]
    fn errors_pass_through_uncached() {
        let err = try_run_benchmark_cached("nosuch", &SystemSpec::default()).unwrap_err();
        assert_eq!(err, SimError::UnknownBenchmark("nosuch".into()));
        let bad = SystemSpec { subarray_bytes: 48, ..SystemSpec::default() };
        assert!(matches!(try_run_benchmark_cached("mesa", &bad), Err(SimError::InvalidSpec(_))));
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
