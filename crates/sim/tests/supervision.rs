//! End-to-end supervision: a real simulation times out under a tiny
//! budget, the harness retries timeouts once at twice the budget, and a
//! crash-safe checkpoint journal replays finished runs — including after
//! deliberate on-disk damage.
//!
//! Everything lives in one `#[test]` because the run cache, the ambient
//! budget, and the checkpoint journal are process-wide: concurrent test
//! functions would trample each other's global state.

use std::time::Duration;

use bitline_exec::journal::JOURNAL_FILE;
use bitline_exec::CancelToken;
use bitline_sim::experiments::harness;
use bitline_sim::{
    checkpoint_stats, clear_checkpoint, clear_run_caches, set_checkpoint, supervise,
    try_run_benchmark, try_run_benchmark_cached, try_run_benchmark_supervised, SimError,
    SystemSpec,
};

#[test]
fn supervision_times_out_retries_and_resumes_from_the_journal() {
    let spec = SystemSpec { instructions: 50_000, ..SystemSpec::default() };

    // --- An expired token stops a real run mid-flight as TimedOut ---
    match try_run_benchmark_supervised("gcc", &spec, &CancelToken::with_budget(Duration::ZERO)) {
        Err(SimError::TimedOut { benchmark, budget, progress }) => {
            assert_eq!(benchmark, "gcc");
            assert_eq!(budget, Duration::ZERO);
            assert!(progress < spec.instructions, "cancelled before completion");
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }

    // --- A generous budget does not perturb the run at all ---
    let generous = CancelToken::with_budget(Duration::from_secs(120));
    let unsupervised = try_run_benchmark("gcc", &spec).expect("unsupervised run completes");
    let supervised =
        try_run_benchmark_supervised("gcc", &spec, &generous).expect("supervised run completes");
    assert_eq!(
        format!("{unsupervised:?}"),
        format!("{supervised:?}"),
        "cooperative polling must be cycle-invisible"
    );

    // --- The harness retries a timeout once, at twice the budget ---
    // (1 ns, not zero: a zero duration means "unset" in the process-global
    // budget encoding.)
    supervise::set_run_budget(Some(Duration::from_nanos(1)));
    let skip = harness::isolated("gcc", || try_run_benchmark("gcc", &spec).map(|_| ()))
        .expect_err("a zero budget cannot complete");
    assert_eq!(skip.kind(), "timed-out");
    assert_eq!(skip.attempts, 2, "timeouts are retried exactly once");
    assert_eq!(skip.wall.len(), 2, "each attempt's wall clock is recorded");
    supervise::set_run_budget(None);

    // --- Checkpoint: cold pass journals, warm pass replays ---
    let dir = std::env::temp_dir().join(format!("bitline-supervision-it-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    clear_run_caches();
    let cold_stats = set_checkpoint(&dir, true).expect("arm cold checkpoint");
    assert_eq!(cold_stats.replayed, 0, "nothing to replay on a fresh directory");
    let gcc_cold = try_run_benchmark_cached("gcc", &spec).expect("gcc completes");
    let mcf_cold = try_run_benchmark_cached("mcf", &spec).expect("mcf completes");
    let after_cold = checkpoint_stats().expect("checkpoint armed");
    assert_eq!(after_cold.appended, 2, "both fresh runs are journaled");
    assert_eq!(after_cold.recomputed, 0);

    // Simulate a crash: drop all in-memory state, re-arm from disk.
    clear_checkpoint();
    clear_run_caches();
    let warm_stats = set_checkpoint(&dir, true).expect("arm warm checkpoint");
    assert_eq!(warm_stats.replayed, 2, "the journal replays both finished runs");
    assert_eq!(warm_stats.quarantined, 0);
    let gcc_warm = try_run_benchmark_cached("gcc", &spec).expect("gcc replays");
    let mcf_warm = try_run_benchmark_cached("mcf", &spec).expect("mcf replays");
    assert_eq!(
        format!("{gcc_cold:?}"),
        format!("{gcc_warm:?}"),
        "replayed run is bit-identical to the cold compute"
    );
    assert_eq!(format!("{mcf_cold:?}"), format!("{mcf_warm:?}"));
    let after_warm = checkpoint_stats().expect("checkpoint armed");
    assert_eq!(after_warm.appended, 0, "warm pass appends nothing");
    assert_eq!(after_warm.recomputed, 0, "warm pass recomputes nothing");

    // --- Damage the journal: one flipped bit quarantines one entry ---
    clear_checkpoint();
    clear_run_caches();
    let path = dir.join(JOURNAL_FILE);
    let mut bytes = std::fs::read(&path).expect("journal bytes");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write damaged journal");
    let damaged_stats = set_checkpoint(&dir, true).expect("arm damaged checkpoint");
    assert_eq!(damaged_stats.replayed, 1, "the undamaged entry still replays");
    assert_eq!(damaged_stats.quarantined, 1, "the flipped entry is quarantined");

    // The quarantined run is recomputed and re-journaled transparently.
    let mcf_again = try_run_benchmark_cached("mcf", &spec).expect("mcf recomputes");
    assert_eq!(format!("{mcf_cold:?}"), format!("{mcf_again:?}"));
    let after_repair = checkpoint_stats().expect("checkpoint armed");
    assert_eq!(after_repair.appended + after_repair.recomputed, 1);

    // --- A future-codec frame is skipped and counted, never fatal ---
    // Write a CRC-valid frame whose payload claims codec version 99 (a
    // newer build's work): resume must quarantine it, report it under
    // `version_skew`, and still replay every frame it understands.
    clear_checkpoint();
    clear_run_caches();
    {
        let (mut journal, _, _) = bitline_exec::Journal::open(&dir).expect("reopen journal");
        journal
            .append("benchmark@ffffffffffffffff", &[99, 0xDE, 0xAD, 0xBE, 0xEF])
            .expect("append synthetic v99 frame");
    }
    let future_stats = set_checkpoint(&dir, true).expect("a future frame must not abort resume");
    assert_eq!(future_stats.replayed, 2, "both understood entries still replay");
    assert_eq!(future_stats.quarantined, 1, "the v99 frame is quarantined");
    assert_eq!(future_stats.version_skew, 1, "and counted as version skew, not damage");

    // --- An older-codec frame is quarantined, recomputed and re-journaled ---
    // Supersede gcc's frame with a CRC-valid copy stamped codec v4, as an
    // older build could have left it: resume must quarantine it under
    // `version_skew`, recompute the run, and journal it afresh so the
    // next resume replays it.
    clear_checkpoint();
    clear_run_caches();
    let gcc_key = bitline_sim::checkpoint::spec_key("gcc", &spec);
    {
        let (mut journal, entries, _) = bitline_exec::Journal::open(&dir).expect("reopen journal");
        let gcc_entry = entries.iter().rev().find(|e| e.key == gcc_key).expect("gcc journaled");
        let mut v4_frame = gcc_entry.value.clone();
        v4_frame[0] = 4;
        journal.append(&gcc_key, &v4_frame).expect("append v4 frame");
    }
    let old_stats = set_checkpoint(&dir, true).expect("an old frame must not abort resume");
    assert_eq!(old_stats.replayed, 1, "mcf still replays");
    assert_eq!(old_stats.quarantined, 2, "the v4 gcc frame and the v99 frame");
    assert_eq!(old_stats.version_skew, 2);
    let gcc_again = try_run_benchmark_cached("gcc", &spec).expect("gcc recomputes");
    assert_eq!(format!("{gcc_cold:?}"), format!("{gcc_again:?}"));
    let after_recompute = checkpoint_stats().expect("checkpoint armed");
    assert_eq!(after_recompute.appended, 1, "the recomputed run is journaled afresh");
    assert_eq!(after_recompute.recomputed, 0, "a quarantined key is not a trusted one");
    clear_checkpoint();
    clear_run_caches();
    let healed = set_checkpoint(&dir, true).expect("arm healed checkpoint");
    assert_eq!(healed.replayed, 2, "the fresh gcc frame supersedes the v4 one");
    assert_eq!(healed.version_skew, 1, "only the v99 frame remains skewed");

    // --- --no-resume: journal restarts empty but keeps recording ---
    clear_checkpoint();
    clear_run_caches();
    let fresh_stats = set_checkpoint(&dir, false).expect("arm no-resume checkpoint");
    assert_eq!(fresh_stats.replayed, 0, "--no-resume ignores the existing journal");
    let _ = try_run_benchmark_cached("gcc", &spec).expect("gcc recomputes");
    assert_eq!(checkpoint_stats().expect("checkpoint armed").appended, 1);

    clear_checkpoint();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bitline_sim_rejects_an_unknown_suite_name_before_any_run() {
    for suite in ["mesa,bisrot", "nope"] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_bitline-sim"))
            .arg("ondemand")
            .env_clear()
            .env("BITLINE_SUITE", suite)
            .env("BITLINE_INSTRS", "2000")
            .output()
            .expect("bitline-sim runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{suite}: {stderr}");
        assert!(output.stdout.is_empty(), "{suite}: no rows before the error");
        let unknown = suite.rsplit(',').next().expect("a name");
        assert!(
            stderr.contains(&format!("BITLINE_SUITE: unknown benchmark `{unknown}`")),
            "{stderr}"
        );
    }
}
