//! Deterministic, seeded fault injection for the bitline workspace.
//!
//! A *failpoint* is a named seam in crash-critical code — a journal
//! write, an fsync, a worker pickup, a socket read — where a fault can be
//! injected on demand. Disarmed (the default, and the only state the
//! figure suites ever run in) a failpoint is one atomic load; armed, it
//! draws from a per-point [`rand::rngs::SmallRng`] seeded from a
//! process-global seed, so any observed failure schedule is **replayable
//! from its seed**: same seed, same evaluation order, same faults.
//!
//! Points are armed only on request: by [`init_from_env`], which reads
//! the `BITLINE_FAILPOINTS` environment variable and which both binaries
//! call at startup (a malformed spec stops them before any run), or
//! programmatically with [`arm`] in tests. Evaluating a point never reads
//! the environment.
//!
//! ```text
//! BITLINE_FAILPOINTS='journal.append.write=err(ENOSPC)@0.02;serve.conn.write=delay(50ms)@0.1;pool.worker=panic@1e-4'
//! ```
//!
//! Grammar (entries joined by `;`):
//!
//! ```text
//! entry  := point ('[' tag ']')? '=' action ('@' probability)?
//! action := 'err(' errno ')'        -- return an io::Error (named or raw errno)
//!         | 'shortwrite(' n ')'     -- a torn write: n bytes land, then an error
//!         | 'delay(' duration ')'   -- sleep, then proceed normally
//!         | 'panic'                 -- panic at the seam (isolation is the caller's story)
//!         | 'stall' ('(' duration ')')?  -- block until re-armed/disarmed (or the bound)
//! errno  := ENOSPC | EIO | EPIPE | EINTR | EAGAIN | ECONNRESET | <integer>
//! duration := float 'us' | 'ms' | 's'      (e.g. 50ms, 0.5s, 250us)
//! probability := float in [0, 1], default 1 (scientific notation fine: 1e-4)
//! ```
//!
//! An optional `[tag]` scopes an entry to matching [`eval_tagged`] calls:
//! the journal tags evaluations with its checkpoint directory name and the
//! daemon tags socket seams with the connection label, so a test can stall
//! exactly one connection (`serve.conn.write[conn-0]=stall`) or tear
//! exactly one journal without perturbing concurrent tests in the same
//! process. An entry with no tag matches every evaluation of its point.
//!
//! Every evaluation and fire is counted — internally (see [`snapshot`])
//! and as obs counters `failpoint.<point>.evaluated` /
//! `failpoint.<point>.fired` — and the draw happens under the registry
//! lock, so for a fixed seed the *number* of fires is a deterministic
//! function of the number of evaluations, independent of thread
//! interleaving. That is what lets the chaos harness assert fired counts
//! are identical at `jobs=1` and `jobs=N`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub mod io;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Return an `io::Error` built from this raw errno (e.g. 28 = ENOSPC).
    Err(i32),
    /// A torn write: the first `n` bytes reach the sink, then the call
    /// fails with ENOSPC. Outside write seams this degrades to a no-op.
    ShortWrite(usize),
    /// Sleep for the duration, then proceed normally.
    Delay(Duration),
    /// Panic at the seam; whatever isolation the caller has is exercised.
    Panic,
    /// Block until the point is re-armed or disarmed ([`stall_while`]
    /// watches the arm epoch), or until the optional bound elapses.
    Stall(Option<Duration>),
}

/// One parsed `point[tag]=action@prob` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmSpec {
    /// Failpoint name (e.g. `journal.append.write`).
    pub point: String,
    /// Optional tag filter; `None` matches every evaluation.
    pub tag: Option<String>,
    /// What to do when the entry fires.
    pub action: Action,
    /// Fire probability per matching evaluation, in `[0, 1]`.
    pub probability: f64,
}

/// Evaluation/fire counts for one armed point (see [`snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointStats {
    /// Failpoint name.
    pub name: String,
    /// Evaluations since the point was (re-)armed.
    pub evaluated: u64,
    /// Fires since the point was (re-)armed.
    pub fired: u64,
}

struct Entry {
    tag: Option<String>,
    action: Action,
    probability: f64,
    rng: SmallRng,
}

struct Point {
    entries: Vec<Entry>,
    evaluated: u64,
    fired: u64,
    obs_evaluated: std::sync::Arc<bitline_obs::Counter>,
    obs_fired: std::sync::Arc<bitline_obs::Counter>,
}

struct Registry {
    points: HashMap<String, Point>,
    seed: u64,
}

/// Number of armed points; the disarmed fast path is this single load.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Bumped on every arm/disarm; [`stall_while`] watches it so a stalled
/// thread is released the moment the schedule changes.
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// Default process-global seed when neither `BITLINE_FAILPOINT_SEED` nor
/// [`set_seed`] supplied one.
pub const DEFAULT_SEED: u64 = 42;

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry { points: HashMap::new(), seed: DEFAULT_SEED }))
}

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// FNV-1a 64-bit, used to derive per-entry seeds from point names so two
/// points armed under the same global seed draw independent schedules.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn entry_seed(global: u64, point: &str, tag: Option<&str>, index: usize) -> u64 {
    let label = format!("{point}[{}]#{index}", tag.unwrap_or(""));
    fnv64(label.as_bytes()) ^ global.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

// ---------------------------------------------------------------------------
// Environment arming
// ---------------------------------------------------------------------------

fn init_from_env_inner() -> Result<usize, String> {
    if let Ok(seed) = std::env::var("BITLINE_FAILPOINT_SEED") {
        let seed = seed
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("BITLINE_FAILPOINT_SEED: invalid seed `{seed}`"))?;
        set_seed(seed);
    }
    match std::env::var("BITLINE_FAILPOINTS") {
        Err(_) => Ok(0),
        Ok(spec) if spec.trim().is_empty() => Ok(0),
        Ok(spec) => arm(&spec).map_err(|e| format!("BITLINE_FAILPOINTS: {e}")),
    }
}

/// Reads `BITLINE_FAILPOINT_SEED` and `BITLINE_FAILPOINTS` and arms the
/// configured points, exactly once per process (later calls return the
/// first outcome). Drivers call this at startup so a malformed spec fails
/// fast; a process that never calls it runs with every point disarmed.
///
/// # Errors
///
/// The grammar violation, prefixed with the variable name.
pub fn init_from_env() -> Result<usize, String> {
    static ENV_INIT: OnceLock<Result<usize, String>> = OnceLock::new();
    ENV_INIT.get_or_init(init_from_env_inner).clone()
}

// ---------------------------------------------------------------------------
// Arming / disarming
// ---------------------------------------------------------------------------

/// Parses a `BITLINE_FAILPOINTS`-grammar spec and arms every entry,
/// *replacing* any prior configuration of the points it names (their
/// counters and RNGs reset). Returns the number of entries armed.
///
/// # Errors
///
/// A message naming the malformed entry and the accepted form.
pub fn arm(spec: &str) -> Result<usize, String> {
    let specs = parse_spec(spec)?;
    let count = specs.len();
    let mut reg = lock();
    let seed = reg.seed;
    // Replace named points wholesale so re-arming is a clean slate.
    for s in &specs {
        reg.points.remove(&s.point);
    }
    for spec in specs {
        let ArmSpec { point, tag, action, probability } = spec;
        let index = reg.points.get(&point).map_or(0, |p| p.entries.len());
        let rng = SmallRng::seed_from_u64(entry_seed(seed, &point, tag.as_deref(), index));
        let entry = Entry { tag, action, probability, rng };
        match reg.points.get_mut(&point) {
            Some(p) => p.entries.push(entry),
            None => {
                let obs = bitline_obs::registry();
                let p = Point {
                    entries: vec![entry],
                    evaluated: 0,
                    fired: 0,
                    obs_evaluated: obs.counter(&format!("failpoint.{point}.evaluated")),
                    obs_fired: obs.counter(&format!("failpoint.{point}.fired")),
                };
                reg.points.insert(point, p);
            }
        }
    }
    ACTIVE.store(reg.points.len(), Ordering::Release);
    drop(reg);
    EPOCH.fetch_add(1, Ordering::Release);
    Ok(count)
}

/// Disarms one point (all its entries). Returns whether it was armed.
pub fn disarm(point: &str) -> bool {
    let mut reg = lock();
    let removed = reg.points.remove(point).is_some();
    ACTIVE.store(reg.points.len(), Ordering::Release);
    drop(reg);
    EPOCH.fetch_add(1, Ordering::Release);
    removed
}

/// Disarms every point and releases every stalled thread.
pub fn disarm_all() {
    let mut reg = lock();
    reg.points.clear();
    ACTIVE.store(0, Ordering::Release);
    drop(reg);
    EPOCH.fetch_add(1, Ordering::Release);
}

/// Sets the process-global seed used when points are (re-)armed. Existing
/// armed points keep the RNG state they were armed with.
pub fn set_seed(seed: u64) {
    lock().seed = seed;
}

/// Number of currently armed points.
#[must_use]
pub fn active() -> usize {
    ACTIVE.load(Ordering::Acquire)
}

/// Fires of `point` since it was (re-)armed; 0 when disarmed.
#[must_use]
pub fn fired(point: &str) -> u64 {
    lock().points.get(point).map_or(0, |p| p.fired)
}

/// Evaluations of `point` since it was (re-)armed; 0 when disarmed.
#[must_use]
pub fn evaluated(point: &str) -> u64 {
    lock().points.get(point).map_or(0, |p| p.evaluated)
}

/// Counters for every armed point, sorted by name.
#[must_use]
pub fn snapshot() -> Vec<PointStats> {
    let reg = lock();
    let mut out: Vec<PointStats> = reg
        .points
        .iter()
        .map(|(name, p)| PointStats { name: name.clone(), evaluated: p.evaluated, fired: p.fired })
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// Evaluates `point` with no tag: only untagged entries can fire.
#[must_use]
pub fn eval(point: &str) -> Option<Action> {
    eval_tagged(point, "")
}

/// Evaluates `point` for a caller identified by `tag`. Entries armed with
/// a tag fire only when it equals `tag`; untagged entries always match.
/// Returns the fired action, or `None` (the overwhelmingly common case:
/// disarmed costs one atomic load).
#[must_use]
pub fn eval_tagged(point: &str, tag: &str) -> Option<Action> {
    if ACTIVE.load(Ordering::Acquire) == 0 {
        return None;
    }
    let mut reg = lock();
    let p = reg.points.get_mut(point)?;
    p.evaluated += 1;
    p.obs_evaluated.incr();
    let mut fired_action = None;
    for entry in &mut p.entries {
        if let Some(t) = &entry.tag {
            if t != tag {
                continue;
            }
        }
        let fire = if entry.probability >= 1.0 {
            true
        } else if entry.probability <= 0.0 {
            false
        } else {
            entry.rng.gen_bool(entry.probability)
        };
        if fire {
            fired_action = Some(entry.action.clone());
            break;
        }
    }
    if fired_action.is_some() {
        p.fired += 1;
        p.obs_fired.incr();
    }
    fired_action
}

/// Blocks until the failpoint schedule changes (any [`arm`]/[`disarm`]),
/// `cancelled` returns true, or the optional `limit` elapses. This is the
/// `stall` action's wait loop, factored out so seams can pass their own
/// cancellation (e.g. "this connection was condemned").
pub fn stall_while(limit: Option<Duration>, cancelled: impl Fn() -> bool) {
    let started = Instant::now();
    let epoch0 = EPOCH.load(Ordering::Acquire);
    loop {
        if cancelled() {
            return;
        }
        if let Some(limit) = limit {
            if started.elapsed() >= limit {
                return;
            }
        }
        if EPOCH.load(Ordering::Acquire) != epoch0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The outcome a write seam should apply (see [`write_fate_tagged`]).
#[derive(Debug)]
pub enum WriteFate {
    /// No fault: perform the write normally.
    Full,
    /// Torn write: land at most this many bytes, then fail with ENOSPC.
    Short(usize),
    /// Fail the write with this error without landing any bytes.
    Fail(std::io::Error),
}

/// Evaluates a write seam for a caller identified by `tag` (see
/// [`eval_tagged`]): delay/stall are applied inline (stall with no
/// cancellation), err/short-write map onto [`WriteFate`], panic panics.
#[must_use]
pub fn write_fate_tagged(point: &str, tag: &str) -> WriteFate {
    match eval_tagged(point, tag) {
        None => WriteFate::Full,
        Some(Action::Err(errno)) => WriteFate::Fail(std::io::Error::from_raw_os_error(errno)),
        Some(Action::ShortWrite(n)) => WriteFate::Short(n),
        Some(Action::Delay(d)) => {
            std::thread::sleep(d);
            WriteFate::Full
        }
        Some(Action::Stall(limit)) => {
            stall_while(limit, || false);
            WriteFate::Full
        }
        Some(Action::Panic) => panic!("failpoint `{point}` fired: panic"),
    }
}

/// Evaluates a fallible non-write seam (fsync, record, read): `err` maps
/// to `Err`, delay/stall apply inline, panic panics, short-write is
/// meaningless here and degrades to `Ok`.
///
/// # Errors
///
/// The injected `io::Error` when an `err` entry fires.
pub fn io_result(point: &str) -> std::io::Result<()> {
    io_result_tagged(point, "")
}

/// [`io_result`] with a caller tag.
///
/// # Errors
///
/// The injected `io::Error` when an `err` entry fires.
pub fn io_result_tagged(point: &str, tag: &str) -> std::io::Result<()> {
    match write_fate_tagged(point, tag) {
        WriteFate::Full | WriteFate::Short(_) => Ok(()),
        WriteFate::Fail(e) => Err(e),
    }
}

/// Evaluates an infallible seam (worker pickup, segment materialisation):
/// delay/stall apply inline, panic panics, err/short-write degrade to a
/// no-op (the seam has no error channel to carry them).
pub fn hit(point: &str) {
    hit_tagged(point, "");
}

/// [`hit`] with a caller tag.
pub fn hit_tagged(point: &str, tag: &str) {
    match eval_tagged(point, tag) {
        None | Some(Action::Err(_)) | Some(Action::ShortWrite(_)) => {}
        Some(Action::Delay(d)) => std::thread::sleep(d),
        Some(Action::Stall(limit)) => stall_while(limit, || false),
        Some(Action::Panic) => panic!("failpoint `{point}` fired: panic"),
    }
}

/// Evaluates a failpoint at an infallible seam: `failpoint!("name")` or
/// `failpoint!("name", tag)`. Expands to [`hit`] / [`hit_tagged`]; seams
/// with an error or length channel use [`io_result`] /
/// [`write_fate_tagged`] directly.
#[macro_export]
macro_rules! failpoint {
    ($name:expr) => {
        $crate::hit($name)
    };
    ($name:expr, $tag:expr) => {
        $crate::hit_tagged($name, $tag)
    };
}

// ---------------------------------------------------------------------------
// Grammar
// ---------------------------------------------------------------------------

/// Parses a full `BITLINE_FAILPOINTS` spec (entries joined by `;`,
/// empties ignored) without arming anything.
///
/// # Errors
///
/// A message naming the malformed entry and the accepted form.
pub fn parse_spec(spec: &str) -> Result<Vec<ArmSpec>, String> {
    let mut out = Vec::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        out.push(parse_entry(entry)?);
    }
    Ok(out)
}

fn parse_entry(entry: &str) -> Result<ArmSpec, String> {
    let (lhs, rhs) =
        entry.split_once('=').ok_or_else(|| format!("`{entry}`: expected point=action[@prob]"))?;
    let lhs = lhs.trim();
    let (point, tag) = match lhs.split_once('[') {
        None => (lhs, None),
        Some((point, rest)) => {
            let tag =
                rest.strip_suffix(']').ok_or_else(|| format!("`{lhs}`: unclosed tag bracket"))?;
            if tag.is_empty() {
                return Err(format!("`{lhs}`: empty tag (drop the brackets to match all)"));
            }
            (point.trim(), Some(tag.to_owned()))
        }
    };
    if point.is_empty() {
        return Err(format!("`{entry}`: empty point name"));
    }
    let rhs = rhs.trim();
    let (action_str, probability) = match rhs.rsplit_once('@') {
        // `@` only splits a probability when what follows parses as one;
        // this keeps the grammar open to `@` inside future action args.
        Some((a, p)) => match p.trim().parse::<f64>() {
            Ok(prob) => {
                if !(0.0..=1.0).contains(&prob) {
                    return Err(format!("`{entry}`: probability {prob} not in [0, 1]"));
                }
                (a.trim(), prob)
            }
            Err(_) => return Err(format!("`{entry}`: invalid probability `{}`", p.trim())),
        },
        None => (rhs, 1.0),
    };
    let action = parse_action(action_str).map_err(|e| format!("`{entry}`: {e}"))?;
    Ok(ArmSpec { point: point.to_owned(), tag, action, probability })
}

fn parse_action(s: &str) -> Result<Action, String> {
    if s == "panic" {
        return Ok(Action::Panic);
    }
    if s == "stall" {
        return Ok(Action::Stall(None));
    }
    let call = |name: &str| -> Option<&str> {
        s.strip_prefix(name).and_then(|r| r.strip_prefix('(')).and_then(|r| r.strip_suffix(')'))
    };
    if let Some(arg) = call("err") {
        return Ok(Action::Err(parse_errno(arg.trim())?));
    }
    if let Some(arg) = call("shortwrite") {
        let n = arg
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("shortwrite wants a byte count, got `{arg}`"))?;
        return Ok(Action::ShortWrite(n));
    }
    if let Some(arg) = call("delay") {
        return Ok(Action::Delay(parse_duration(arg.trim())?));
    }
    if let Some(arg) = call("stall") {
        return Ok(Action::Stall(Some(parse_duration(arg.trim())?)));
    }
    Err(format!(
        "unknown action `{s}` (want err(E), shortwrite(N), delay(D), panic, stall or stall(D))"
    ))
}

fn parse_errno(s: &str) -> Result<i32, String> {
    match s {
        "ENOSPC" => Ok(28),
        "EIO" => Ok(5),
        "EPIPE" => Ok(32),
        "EINTR" => Ok(4),
        "EAGAIN" => Ok(11),
        "ECONNRESET" => Ok(104),
        _ => s.parse::<i32>().map_err(|_| {
            format!("unknown errno `{s}` (want ENOSPC, EIO, EPIPE, EINTR, EAGAIN, ECONNRESET or a number)")
        }),
    }
}

fn parse_duration(s: &str) -> Result<Duration, String> {
    let (value, unit) = s
        .find(|c: char| c.is_ascii_alphabetic())
        .map(|i| s.split_at(i))
        .ok_or_else(|| format!("duration `{s}` needs a unit (us, ms or s)"))?;
    let value: f64 =
        value.trim().parse().map_err(|_| format!("invalid duration value `{value}`"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("duration `{s}` must be finite and non-negative"));
    }
    let micros = match unit {
        "us" => value,
        "ms" => value * 1_000.0,
        "s" => value * 1_000_000.0,
        _ => return Err(format!("duration unit `{unit}` (want us, ms or s)")),
    };
    Ok(Duration::from_micros(micros as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Failpoint state is process-global; tests that arm points use
    /// unique names so parallel test threads cannot collide.
    #[test]
    fn grammar_parses_every_action_class() {
        let specs = parse_spec(
            "journal.append.write=err(ENOSPC)@0.02; serve.conn.write=delay(50ms)@0.1;\
             pool.worker=panic@1e-4;a.b=shortwrite(12);c.d[conn-3]=stall(2s)@0.5;e.f=stall",
        )
        .unwrap();
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0].action, Action::Err(28));
        assert!((specs[0].probability - 0.02).abs() < 1e-12);
        assert_eq!(specs[1].action, Action::Delay(Duration::from_millis(50)));
        assert_eq!(specs[2].action, Action::Panic);
        assert!((specs[2].probability - 1e-4).abs() < 1e-18);
        assert_eq!(specs[3].action, Action::ShortWrite(12));
        assert!((specs[3].probability - 1.0).abs() < 1e-12);
        assert_eq!(specs[4].tag.as_deref(), Some("conn-3"));
        assert_eq!(specs[4].action, Action::Stall(Some(Duration::from_secs(2))));
        assert_eq!(specs[5].action, Action::Stall(None));
    }

    #[test]
    fn grammar_rejects_malformed_entries() {
        for bad in [
            "nameonly",
            "p=explode",
            "p=err(EWHAT)",
            "p=err(ENOSPC)@1.5",
            "p=err(ENOSPC)@soon",
            "p=delay(50)",
            "p=delay(50fortnights)",
            "p[=stall",
            "p[]=stall",
            "=panic",
            "p=shortwrite(lots)",
        ] {
            assert!(parse_spec(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn disarmed_points_evaluate_to_none() {
        assert_eq!(eval("test.never.armed"), None);
        assert_eq!(fired("test.never.armed"), 0);
    }

    #[test]
    fn probability_one_always_fires_and_zero_never_does() {
        arm("test.p1.always=err(EIO)@1;test.p1.never=err(EIO)@0").unwrap();
        for _ in 0..16 {
            assert_eq!(eval("test.p1.always"), Some(Action::Err(5)));
            assert_eq!(eval("test.p1.never"), None);
        }
        assert_eq!(fired("test.p1.always"), 16);
        assert_eq!(evaluated("test.p1.never"), 16);
        assert_eq!(fired("test.p1.never"), 0);
        disarm("test.p1.always");
        disarm("test.p1.never");
    }

    #[test]
    fn seeded_schedules_replay_exactly() {
        set_seed(0xDEAD_BEEF);
        arm("test.replay.point=err(ENOSPC)@0.3").unwrap();
        let first: Vec<bool> = (0..64).map(|_| eval("test.replay.point").is_some()).collect();
        let fired_first = fired("test.replay.point");
        // Re-arming under the same seed resets the RNG: same schedule.
        arm("test.replay.point=err(ENOSPC)@0.3").unwrap();
        let second: Vec<bool> = (0..64).map(|_| eval("test.replay.point").is_some()).collect();
        assert_eq!(first, second, "same seed must replay the same schedule");
        assert_eq!(fired("test.replay.point"), fired_first);
        assert!(fired_first > 0 && fired_first < 64, "p=0.3 over 64 draws fires some");
        // A different seed gives a different schedule.
        set_seed(1);
        arm("test.replay.point=err(ENOSPC)@0.3").unwrap();
        let third: Vec<bool> = (0..64).map(|_| eval("test.replay.point").is_some()).collect();
        assert_ne!(first, third, "a different seed must reshuffle the schedule");
        disarm("test.replay.point");
        set_seed(DEFAULT_SEED);
    }

    #[test]
    fn tags_scope_entries_to_matching_callers() {
        arm("test.tags.point[conn-1]=err(EPIPE)").unwrap();
        assert_eq!(eval_tagged("test.tags.point", "conn-0"), None);
        assert_eq!(eval_tagged("test.tags.point", "conn-1"), Some(Action::Err(32)));
        assert_eq!(eval("test.tags.point"), None, "untagged eval must not match a tagged entry");
        // An untagged entry matches everything.
        arm("test.tags.point=delay(1us)").unwrap();
        assert!(eval_tagged("test.tags.point", "anything").is_some());
        disarm("test.tags.point");
    }

    #[test]
    fn stall_releases_on_disarm() {
        arm("test.stall.point=stall").unwrap();
        let t = std::thread::spawn(|| {
            let started = Instant::now();
            // Any arm or disarm ends a stall, and parallel tests arm their
            // own points; re-evaluate until this point itself is disarmed.
            while let Some(action) = eval("test.stall.point") {
                match action {
                    Action::Stall(limit) => stall_while(limit, || false),
                    other => panic!("expected stall, got {other:?}"),
                }
            }
            started.elapsed()
        });
        while evaluated("test.stall.point") == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(30));
        disarm("test.stall.point");
        let held = t.join().expect("stalled thread");
        assert!(held >= Duration::from_millis(25), "stall held for {held:?}");
    }

    #[test]
    fn fired_counts_mirror_to_obs() {
        let obs = bitline_obs::registry().counter("failpoint.test.obs.point.fired");
        let before = obs.get();
        arm("test.obs.point=err(EIO)@1").unwrap();
        for _ in 0..5 {
            let _ = eval("test.obs.point");
        }
        assert_eq!(obs.get() - before, 5);
        assert_eq!(fired("test.obs.point"), 5);
        assert_eq!(snapshot().iter().find(|p| p.name == "test.obs.point").unwrap().fired, 5);
        disarm("test.obs.point");
    }

    #[test]
    fn write_fate_and_io_result_map_actions() {
        arm("test.fate.err=err(ENOSPC);test.fate.short=shortwrite(7)").unwrap();
        match write_fate_tagged("test.fate.err", "") {
            WriteFate::Fail(e) => assert_eq!(e.raw_os_error(), Some(28)),
            other => panic!("expected fail, got {other:?}"),
        }
        match write_fate_tagged("test.fate.short", "") {
            WriteFate::Short(7) => {}
            other => panic!("expected short(7), got {other:?}"),
        }
        assert!(io_result("test.fate.err").is_err());
        assert!(io_result("test.fate.short").is_ok(), "short-write degrades to Ok off write seams");
        disarm("test.fate.err");
        disarm("test.fate.short");
    }
}
