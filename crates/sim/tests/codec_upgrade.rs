//! A journal an older codec wrote is recomputed once, then replays.
//!
//! `journals/v6-mesa/runs.journal` holds the two v6 frames that
//! `bitline-sim -b mesa -i 2000 --checkpoint DIR` wrote before codec v7:
//! the run and its static baseline. `journals/v7-mesa/runs.journal` holds
//! the two v7 frames the same command wrote before codec v8. Resuming a
//! copy of either with the same command must count both frames as version
//! skew, recompute each run once and journal it again; resuming it a
//! second time must replay both and recompute nothing.
//!
//! The same command checks how a resume treats current-version frames it
//! cannot trust: a frame filed under another run's key, and a key whose
//! newest frame does not decode, are quarantined and recomputed, while a
//! damaged frame that a newer good one supersedes costs nothing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use bitline_exec::journal::{read_entries, Journal, JournalEntry, JOURNAL_FILE};
use bitline_obs::Record;

/// Runs `bitline-sim -b mesa -i 2000` on checkpoint `dir`; returns its
/// stdout and the counters of its metrics export.
fn resume(dir: &Path) -> (String, BTreeMap<String, u64>) {
    let metrics = dir.join("metrics.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_bitline-sim"))
        .args(["-b", "mesa", "-i", "2000", "--checkpoint"])
        .arg(dir)
        .arg("--metrics")
        .arg(&metrics)
        .env_clear()
        .output()
        .expect("bitline-sim runs");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let export = std::fs::read_to_string(&metrics).expect("the export is written");
    let counters = bitline_obs::parse_jsonl(&export)
        .expect("a valid export")
        .into_iter()
        .filter_map(|record| match record {
            Record::Counter { name, value } => Some((name, value)),
            _ => None,
        })
        .collect();
    (String::from_utf8(output.stdout).expect("utf-8 stdout"), counters)
}

fn count(counters: &BTreeMap<String, u64>, name: &str) -> u64 {
    counters.get(name).copied().unwrap_or_else(|| panic!("{name} missing: {counters:?}"))
}

/// A fresh checkpoint directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bitline-codec-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("checkpoint dir");
    dir
}

/// Runs the command once on an empty `dir`; returns its stdout and the
/// two frames it journaled (the run and its static baseline).
fn journaled(dir: &Path) -> (String, Vec<JournalEntry>) {
    let (stdout, counters) = resume(dir);
    assert_eq!(count(&counters, "sim.checkpoint.appended"), 2);
    let (entries, _) = read_entries(&dir.join(JOURNAL_FILE)).expect("journal reads");
    assert_eq!(entries.len(), 2, "the run and its baseline");
    (stdout, entries)
}

/// Replaces the journal in `dir` with `frames`, in order.
fn rewrite(dir: &Path, frames: &[(&str, &[u8])]) {
    let mut journal = Journal::open_fresh(dir).expect("journal opens");
    for (key, value) in frames {
        journal.append(key, value).expect("frame appends");
    }
}

/// A frame stamped with this build's codec version that decodes to no run.
fn undecodable(like: &JournalEntry) -> Vec<u8> {
    let mut bytes = vec![like.value[0]];
    bytes.extend_from_slice(b"not a run");
    bytes
}

#[test]
fn a_frame_filed_under_another_key_is_quarantined_and_recomputed() {
    let dir = scratch("swapped-keys");
    let (computed, entries) = journaled(&dir);
    let [a, b] = &entries[..] else { unreachable!() };
    rewrite(&dir, &[(a.key.as_str(), &b.value[..]), (b.key.as_str(), &a.value[..])]);

    let (stdout, first) = resume(&dir);
    assert_eq!(count(&first, "sim.checkpoint.quarantined"), 2, "neither frame is trusted");
    assert_eq!(count(&first, "sim.checkpoint.version_skew"), 0, "both are this version");
    assert_eq!(count(&first, "sim.checkpoint.replayed"), 0);
    assert_eq!(count(&first, "sim.runner.runs"), 2, "each run is recomputed");
    assert_eq!(count(&first, "sim.checkpoint.appended"), 2, "and journaled under its key");
    assert_eq!(stdout, computed, "no run is read back under the wrong spec");

    let (_, second) = resume(&dir);
    assert_eq!(count(&second, "sim.checkpoint.replayed"), 2);
    assert_eq!(count(&second, "sim.runner.runs"), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_newer_good_frame_supersedes_an_older_undecodable_one() {
    let dir = scratch("superseded");
    let (computed, entries) = journaled(&dir);
    let garbage = undecodable(&entries[0]);
    let mut frames = Vec::new();
    for e in &entries {
        frames.extend([(e.key.as_str(), &garbage[..]), (e.key.as_str(), &e.value[..])]);
    }
    rewrite(&dir, &frames);

    let (stdout, counters) = resume(&dir);
    assert_eq!(count(&counters, "sim.checkpoint.replayed"), 2, "the newest frames replay");
    assert_eq!(count(&counters, "sim.checkpoint.quarantined"), 0, "the older ones are skipped");
    assert_eq!(count(&counters, "sim.runner.runs"), 0);
    assert_eq!(count(&counters, "sim.checkpoint.appended"), 0);
    assert_eq!(stdout, computed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_newest_frame_that_does_not_decode_is_damage_not_version_skew() {
    let dir = scratch("newest-damaged");
    let (computed, entries) = journaled(&dir);
    let garbage = undecodable(&entries[0]);
    let mut frames = Vec::new();
    for e in &entries {
        frames.extend([(e.key.as_str(), &e.value[..]), (e.key.as_str(), &garbage[..])]);
    }
    rewrite(&dir, &frames);

    let (stdout, first) = resume(&dir);
    assert_eq!(count(&first, "sim.checkpoint.quarantined"), 2, "a key's newest frame decides");
    assert_eq!(count(&first, "sim.checkpoint.version_skew"), 0, "the version byte is ours");
    assert_eq!(count(&first, "sim.checkpoint.replayed"), 0, "an older good frame is not used");
    assert_eq!(count(&first, "sim.runner.runs"), 2);
    assert_eq!(count(&first, "sim.checkpoint.appended"), 2);
    assert_eq!(count(&first, "sim.checkpoint.recomputed"), 0, "a quarantined key may recompute");
    assert_eq!(stdout, computed);

    let (_, second) = resume(&dir);
    assert_eq!(count(&second, "sim.checkpoint.replayed"), 2);
    assert_eq!(count(&second, "sim.checkpoint.quarantined"), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Resumes a copy of the two-frame journal `journals/<fixture>`, whose
/// frames an older codec `version` wrote, twice.
fn upgrades_once_then_replays(fixture: &str, version: u8) {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/journals").join(fixture);
    let (entries, report) = read_entries(&fixture.join(JOURNAL_FILE)).expect("fixture reads");
    assert_eq!((report.loaded, report.quarantined), (2, 0), "two intact frames");
    assert!(entries.iter().all(|e| e.value.first() == Some(&version)), "both stamped v{version}");

    let dir = scratch(&format!("upgrade-v{version}"));
    std::fs::copy(fixture.join(JOURNAL_FILE), dir.join(JOURNAL_FILE)).expect("copy the journal");

    let (recomputed, first) = resume(&dir);
    assert_eq!(count(&first, "sim.checkpoint.version_skew"), 2, "both frames are v{version}");
    assert_eq!(count(&first, "sim.checkpoint.quarantined"), 2);
    assert_eq!(count(&first, "sim.checkpoint.replayed"), 0);
    assert_eq!(count(&first, "sim.runner.runs"), 2, "each run is recomputed once");
    assert_eq!(count(&first, "sim.checkpoint.appended"), 2, "and journaled again");
    assert_eq!(count(&first, "sim.checkpoint.recomputed"), 0);
    let size = std::fs::metadata(dir.join(JOURNAL_FILE)).expect("the journal").len();
    assert_eq!(
        size, 2_041,
        "the magic and the two v8 frames: the dead v{version} frames are dropped"
    );

    let (replayed, second) = resume(&dir);
    assert_eq!(count(&second, "exec.journal.loaded"), 2, "only the live frames are read");
    assert_eq!(count(&second, "sim.checkpoint.replayed"), 2, "both v8 frames replay");
    assert_eq!(count(&second, "sim.checkpoint.quarantined"), 0);
    assert_eq!(count(&second, "sim.checkpoint.version_skew"), 0);
    assert_eq!(count(&second, "sim.runner.runs"), 0, "nothing is simulated");
    assert_eq!(count(&second, "sim.checkpoint.appended"), 0);
    assert_eq!(count(&second, "sim.checkpoint.recomputed"), 0);
    assert_eq!(replayed, recomputed, "a replayed run prints what its computation did");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_v6_journal_is_recomputed_once_then_replays() {
    upgrades_once_then_replays("v6-mesa", 6);
}

#[test]
fn a_v7_journal_is_recomputed_once_then_replays() {
    upgrades_once_then_replays("v7-mesa", 7);
}
