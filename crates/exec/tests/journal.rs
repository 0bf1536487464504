//! Crash-safety properties of the checkpoint journal: arbitrary entry
//! sets survive a write/reopen cycle, a torn tail cut at *every* byte
//! offset never loses a fully synced entry, a flipped bit quarantines
//! exactly the damaged entry, and armed `journal.*` failpoints tear real
//! appends without ever desynchronising the frames that follow.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use bitline_exec::journal::{atomic_write, crc32, JOURNAL_FILE};
use bitline_exec::Journal;
use bitline_failpoint::io::FallibleWriter;
use proptest::prelude::*;

/// A scratch directory unique to this process and call site.
fn scratch(label: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bitline-journal-it-{}-{label}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn write_journal(dir: &std::path::Path, entries: &[(String, Vec<u8>)]) {
    let mut journal = Journal::open_fresh(dir).expect("fresh journal");
    for (key, value) in entries {
        journal.append(key, value).expect("append");
    }
}

/// Journal entries: printable unique-ish keys plus arbitrary payload bytes.
fn entry_sets() -> impl Strategy<Value = Vec<(String, Vec<u8>)>> {
    prop::collection::vec((any::<u64>(), prop::collection::vec(any::<u8>(), 0..96)), 1..12)
        .prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (tag, value))| (format!("bench{i}@{tag:016x}"), value))
                .collect()
        })
}

proptest! {
    /// Whatever was appended comes back verbatim, in order, with nothing
    /// quarantined.
    #[test]
    fn roundtrip_preserves_every_entry(entries in entry_sets()) {
        let dir = scratch("roundtrip");
        write_journal(&dir, &entries);

        let (_, loaded, report) = Journal::open(&dir).expect("reopen");
        prop_assert_eq!(loaded.len(), entries.len());
        prop_assert_eq!(report.loaded, entries.len());
        prop_assert_eq!(report.quarantined, 0);
        prop_assert!(!report.truncated_tail);
        for (got, (key, value)) in loaded.iter().zip(&entries) {
            prop_assert_eq!(&got.key, key);
            prop_assert_eq!(&got.value, value);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Simulates a crash mid-append: the journal cut at **every** byte offset
/// still yields each entry whose bytes were fully flushed, and never
/// invents data.
#[test]
fn truncated_tail_recovers_every_complete_entry() {
    let dir = scratch("truncate");
    let entries: Vec<(String, Vec<u8>)> =
        (0..4).map(|i| (format!("bench{i}@{i:016x}"), vec![i as u8; 5 + i * 7])).collect();
    write_journal(&dir, &entries);
    let full = std::fs::read(dir.join(JOURNAL_FILE)).expect("journal bytes");

    // Byte offsets where each entry's frame ends (magic is 8 bytes).
    let mut ends = vec![8usize];
    for (key, value) in &entries {
        ends.push(ends.last().unwrap() + 8 + 4 + key.len() + value.len());
    }
    assert_eq!(*ends.last().unwrap(), full.len(), "frame arithmetic matches the file");

    for cut in 0..=full.len() {
        let case = scratch("truncate-case");
        std::fs::write(case.join(JOURNAL_FILE), &full[..cut]).expect("write prefix");
        let (_, loaded, report) = Journal::open(&case).expect("open truncated");

        // Every entry fully contained in the prefix must survive.
        let complete = ends.iter().filter(|&&e| e <= cut.max(8)).count().saturating_sub(1);
        assert_eq!(loaded.len(), complete, "cut at byte {cut}/{}", full.len());
        for (got, (key, value)) in loaded.iter().zip(&entries) {
            assert_eq!(&got.key, key, "cut at byte {cut}");
            assert_eq!(&got.value, value, "cut at byte {cut}");
        }
        // A clean cut on an entry boundary is not a torn tail; anything
        // else — including a partial magic — is. An empty file is pristine.
        let on_boundary = ends.contains(&cut) || cut == 0;
        assert_eq!(report.truncated_tail, !on_boundary, "cut at byte {cut}");

        // The damaged file was compacted: reopening is clean and appends
        // still work.
        let (mut journal, reloaded, clean) = Journal::open(&case).expect("reopen compacted");
        assert_eq!(reloaded.len(), complete);
        assert!(!clean.truncated_tail, "compaction must leave a clean file (cut {cut})");
        journal.append("after@0000000000000000", b"tail").expect("append after damage");
        std::fs::remove_dir_all(&case).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Frames one entry exactly as the journal does:
/// `[len:u32le][crc32:u32le][klen:u32le|key|value]`.
fn chaos_frame(key: &str, value: &[u8]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&u32::try_from(key.len()).expect("key fits").to_le_bytes());
    payload.extend_from_slice(key.as_bytes());
    payload.extend_from_slice(value);
    let mut out = Vec::new();
    out.extend_from_slice(&u32::try_from(payload.len()).expect("entry fits").to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Chaos leg: a writer that dies of `ENOSPC` mid-frame — at *every*
/// possible byte budget, under pathologically short writes — leaves a
/// journal that `open` recovers without ever inventing, duplicating, or
/// quarantining a fully flushed entry.
#[test]
fn enospc_mid_frame_loses_only_the_torn_tail() {
    let entries: Vec<(String, Vec<u8>)> =
        (0..3).map(|i| (format!("bench{i}@{i:016x}"), vec![0xA5 ^ i as u8; 9 + i * 11])).collect();

    // The full image the journal would have written: magic then frames.
    let mut full: Vec<u8> = b"BLJRNL1\n".to_vec();
    let mut ends = vec![full.len()];
    for (key, value) in &entries {
        full.extend_from_slice(&chaos_frame(key, value));
        ends.push(full.len());
    }

    for max_chunk in [1usize, 3, 64, usize::MAX] {
        for budget in 0..=full.len() {
            // Write through the failing writer until it reports ENOSPC.
            let mut w = FallibleWriter::new(budget, max_chunk);
            let outcome = w.write_all(&full);
            assert_eq!(outcome.is_err(), budget < full.len(), "budget {budget}");
            if let Err(e) = outcome {
                assert_eq!(e.raw_os_error(), Some(28), "the chaos error is ENOSPC");
            }
            assert_eq!(w.out, &full[..budget], "short writes must still land in order");

            let dir = scratch("enospc");
            std::fs::write(dir.join(JOURNAL_FILE), &w.out).expect("write torn journal");
            let (_, loaded, report) = Journal::open(&dir).expect("open survives ENOSPC damage");

            // Every frame fully inside the budget survives; nothing else.
            let complete = ends.iter().filter(|&&e| e <= budget.max(8)).count() - 1;
            assert_eq!(loaded.len(), complete, "budget {budget} chunk {max_chunk}");
            assert_eq!(report.loaded, complete);
            for (got, (key, value)) in loaded.iter().zip(&entries) {
                assert_eq!(&got.key, key, "budget {budget}");
                assert_eq!(&got.value, value, "budget {budget}");
            }
            // A tear is truncation, not corruption: the quarantine counter
            // stays untouched except for the no-magic degenerate case.
            let expected_quarantined = usize::from(budget > 0 && budget < 8);
            assert_eq!(report.quarantined, expected_quarantined, "budget {budget}");
            let on_boundary = budget == 0 || ends.contains(&budget);
            assert_eq!(report.truncated_tail, !on_boundary, "budget {budget}");

            // Recovery is durable: the reopened journal is clean and
            // writable once space is back.
            let (mut journal, reloaded, clean) = Journal::open(&dir).expect("reopen");
            assert_eq!(reloaded.len(), complete);
            assert_eq!(clean.quarantined, 0, "compaction scrubbed the tear");
            assert!(!clean.truncated_tail);
            journal.append("after@enospc", b"recovered").expect("append after recovery");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Compaction racing a crash: `open` rewrites a damaged journal via
/// temp-file-then-rename, so a SIGKILL landing mid-compaction leaves a
/// partial temp image next to an untouched original. Simulate that crash
/// at **every** byte budget of the compacted image (written through the
/// same short-write `FallibleWriter` the ENOSPC leg uses) and reopen: the
/// original must remain authoritative with zero lost frames, the partial
/// temp must be ignored and cleaned up, and the journal must stay
/// appendable.
#[test]
fn interrupted_compaction_leaves_the_original_authoritative() {
    let entries: Vec<(String, Vec<u8>)> =
        (0..4).map(|i| (format!("bench{i}@{i:016x}"), vec![0xC3 ^ i as u8; 7 + i * 5])).collect();

    // The damaged on-disk journal: all frames, then a torn half-frame —
    // enough damage that every reopen triggers a compaction rewrite.
    let mut damaged: Vec<u8> = b"BLJRNL1\n".to_vec();
    for (key, value) in &entries {
        damaged.extend_from_slice(&chaos_frame(key, value));
    }
    let torn = chaos_frame("torn@ffffffffffffffff", b"never fully flushed");
    damaged.extend_from_slice(&torn[..torn.len() / 2]);

    // The clean image a completed compaction would have produced.
    let mut compacted: Vec<u8> = b"BLJRNL1\n".to_vec();
    for (key, value) in &entries {
        compacted.extend_from_slice(&chaos_frame(key, value));
    }

    // `atomic_write` stages into `.{name}.tmp.{pid}` in the same directory;
    // a crash before the rename leaves exactly a prefix of the image there.
    let tmp_name = format!(".{JOURNAL_FILE}.tmp.{}", std::process::id());
    for budget in 0..=compacted.len() {
        let dir = scratch("compact-race");
        std::fs::write(dir.join(JOURNAL_FILE), &damaged).expect("write damaged journal");
        let mut w = FallibleWriter::new(budget, 7);
        let _ = w.write_all(&compacted);
        std::fs::write(dir.join(&tmp_name), &w.out).expect("write partial compaction");

        let (mut journal, loaded, report) =
            Journal::open(&dir).expect("open after interrupted compaction");
        assert_eq!(loaded.len(), entries.len(), "budget {budget}: zero lost frames");
        for (got, (key, value)) in loaded.iter().zip(&entries) {
            assert_eq!(&got.key, key, "budget {budget}");
            assert_eq!(&got.value, value, "budget {budget}");
        }
        assert!(report.truncated_tail, "the torn tail is what made open() recompact");

        // The recovery compaction completed this time: only the clean
        // journal remains, with no stale temp beside it.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![JOURNAL_FILE.to_owned()], "budget {budget}: no temp residue");
        assert_eq!(std::fs::read(dir.join(JOURNAL_FILE)).expect("clean bytes"), compacted);

        journal.append("after@compaction", b"still writable").expect("append after recovery");
        let (_, reloaded, clean) = Journal::open(&dir).expect("reopen clean");
        assert_eq!(reloaded.len(), entries.len() + 1);
        assert_eq!(clean.quarantined, 0);
        assert!(!clean.truncated_tail);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Tag helper: journal failpoints are tagged with the checkpoint
/// directory *name*, so a test can tear exactly its own journal while
/// unrelated journal tests run concurrently in the same process.
fn dir_tag(dir: &std::path::Path) -> String {
    dir.file_name().expect("scratch dir name").to_string_lossy().into_owned()
}

/// An armed `journal.append.write=shortwrite(N)` failpoint tears a live
/// append mid-frame; the rollback must leave the journal byte-exact at
/// the last good frame so every later append still round-trips.
#[test]
fn armed_shortwrite_failpoint_tears_one_append_and_rolls_back() {
    let dir = scratch("fp-shortwrite");
    let tag = dir_tag(&dir);
    let (mut journal, _, _) = Journal::open(&dir).expect("open");
    journal.append("before@0", b"kept").expect("append before fault");

    bitline_failpoint::arm(&format!("journal.append.write[{tag}]=shortwrite(5)")).unwrap();
    let fired_before = bitline_failpoint::fired("journal.append.write");
    let err = journal.append("torn@1", b"never lands").expect_err("torn append fails");
    assert_eq!(err.raw_os_error(), Some(28), "the tear surfaces as ENOSPC");
    assert_eq!(bitline_failpoint::fired("journal.append.write"), fired_before + 1);
    bitline_failpoint::disarm("journal.append.write");

    // Disarmed, appends work again — and land *after* the rolled-back
    // frame boundary, not after torn residue.
    journal.append("after@2", b"also kept").expect("append after fault");
    assert!(!journal.contains("torn@1"), "the torn key is not remembered");

    let (_, entries, report) = Journal::open(&dir).expect("reopen");
    assert_eq!(
        entries.iter().map(|e| e.key.as_str()).collect::<Vec<_>>(),
        vec!["before@0", "after@2"],
        "exactly the successful appends survive, in order"
    );
    assert_eq!(report.quarantined, 0, "rollback leaves no torn bytes to quarantine");
    assert!(!report.truncated_tail, "rollback leaves no partial frame");
    std::fs::remove_dir_all(&dir).ok();
}

/// An injected fsync error fails the append cleanly (rolled back, key not
/// recorded), modelling a disk that accepts bytes it cannot make durable.
#[test]
fn armed_fsync_failpoint_fails_the_append_cleanly() {
    let dir = scratch("fp-fsync");
    let tag = dir_tag(&dir);
    let (mut journal, _, _) = Journal::open(&dir).expect("open");

    bitline_failpoint::arm(&format!("journal.append.fsync[{tag}]=err(EIO)")).unwrap();
    let err = journal.append("unsynced@0", b"gone").expect_err("fsync fault fails the append");
    assert_eq!(err.raw_os_error(), Some(5));
    bitline_failpoint::disarm("journal.append.fsync");

    journal.append("synced@1", b"kept").expect("append after fault");
    let (_, entries, report) = Journal::open(&dir).expect("reopen");
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].key, "synced@1");
    assert_eq!(report.quarantined, 0);
    assert!(!report.truncated_tail);
    std::fs::remove_dir_all(&dir).ok();
}

/// An injected failure in `atomic_write` leaves the target untouched and
/// no temp residue: callers see old-or-new, never a torn mix.
#[test]
fn armed_atomic_write_failpoint_leaves_old_contents_and_no_residue() {
    let dir = scratch("fp-atomic");
    let tag = dir_tag(&dir);
    let path = dir.join("out.bin");
    atomic_write(&path, b"original").expect("seed contents");

    bitline_failpoint::arm(&format!("journal.atomic_write[{tag}]=shortwrite(3)")).unwrap();
    let err = atomic_write(&path, b"replacement").expect_err("torn tmp-write fails");
    assert_eq!(err.raw_os_error(), Some(28));
    bitline_failpoint::disarm("journal.atomic_write");

    assert_eq!(std::fs::read(&path).expect("read"), b"original", "target untouched");
    let residue: Vec<String> = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(residue.is_empty(), "failed atomic_write cleans its temp: {residue:?}");

    atomic_write(&path, b"replacement").expect("disarmed write succeeds");
    assert_eq!(std::fs::read(&path).expect("read"), b"replacement");
    std::fs::remove_dir_all(&dir).ok();
}

/// A single flipped payload bit fails that entry's CRC: the entry is
/// quarantined, its neighbours are untouched.
#[test]
fn flipped_bit_quarantines_only_the_damaged_entry() {
    let dir = scratch("bitflip");
    let entries: Vec<(String, Vec<u8>)> =
        (0..3).map(|i| (format!("bench{i}@{i:016x}"), vec![0x5a; 16])).collect();
    write_journal(&dir, &entries);
    let mut bytes = std::fs::read(dir.join(JOURNAL_FILE)).expect("journal bytes");

    // Flip one bit in the middle entry's *value* bytes, leaving both length
    // prefixes intact so framing still walks the file.
    let frame = |k: &str, v: &[u8]| 8 + 4 + k.len() + v.len();
    let entry1_start = 8 + frame(&entries[0].0, &entries[0].1);
    let target = entry1_start + frame(&entries[1].0, &entries[1].1) - 1;
    bytes[target] ^= 0x10;
    std::fs::write(dir.join(JOURNAL_FILE), &bytes).expect("write damaged");

    let (_, loaded, report) = Journal::open(&dir).expect("open damaged");
    assert_eq!(report.quarantined, 1, "exactly the flipped entry is dropped");
    assert_eq!(loaded.len(), 2);
    assert_eq!(loaded[0].key, entries[0].0);
    assert_eq!(loaded[1].key, entries[2].0, "the entry *after* the damage survives");
    assert!(report.compacted, "damage triggers a compaction rewrite");

    // The quarantine is durable: the rewritten file no longer carries the
    // bad frame.
    let (_, reloaded, clean) = Journal::open(&dir).expect("reopen");
    assert_eq!(reloaded.len(), 2);
    assert_eq!(clean.quarantined, 0);
    std::fs::remove_dir_all(&dir).ok();
}
