//! Crash-safe append-only checkpoint journal.
//!
//! A [`Journal`] records completed units of work so a killed sweep can be
//! resumed without recomputing the finished prefix. The format is built
//! for exactly one failure model — the process dies (crash, SIGKILL, power
//! loss) at an arbitrary byte boundary — and favours simplicity over
//! density:
//!
//! ```text
//! file   := magic entry*
//! magic  := "BLJRNL1\n"                      (8 bytes)
//! entry  := len:u32le crc:u32le payload      (crc = CRC-32/IEEE of payload)
//! payload:= klen:u32le key[klen] value[..]   (value = len - 4 - klen bytes)
//! ```
//!
//! * **Appends are atomic enough**: an entry is written with a single
//!   `write_all` and flushed + `sync_data`'d before `append` returns. A
//!   crash mid-append leaves a truncated tail, which the loader detects
//!   (length runs past EOF) and drops — every previously synced entry
//!   survives.
//! * **Corruption is quarantined, never trusted**: a CRC mismatch skips
//!   that entry (its length prefix still frames it) and keeps scanning;
//!   an implausible length ends the scan. Either way the journal is
//!   compacted — rewritten with only the verified entries via a temp file
//!   in the same directory plus an atomic rename — so damage cannot
//!   accumulate.
//! * **Duplicate keys resolve to the newest entry**, letting a writer
//!   re-append rather than rewrite in place. The reader that decides which
//!   frames are still live drops the rest with [`Journal::retain`], the
//!   same temp-file + rename rewrite, so dead frames are read only once.
//!
//! The journal stores opaque byte values; serialization of the domain type
//! (`RunResult` in `bitline-sim`) lives with the domain.

use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use bitline_obs::counter;

/// File magic: identifies a bitline run journal, version 1.
const MAGIC: &[u8; 8] = b"BLJRNL1\n";

/// Journal filename inside a checkpoint directory.
pub const JOURNAL_FILE: &str = "runs.journal";

/// Upper bound on a single entry's length prefix. Entries are run results
/// (a few KiB); anything past this is treated as corruption, not data.
const MAX_ENTRY_BYTES: u32 = 64 * 1024 * 1024;

/// One verified entry loaded from a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The unit-of-work key (e.g. `benchmark@spec-hash`).
    pub key: String,
    /// Opaque serialized value.
    pub value: Vec<u8>,
}

/// What a [`Journal::open`] scan found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Entries that passed framing + CRC and were returned.
    pub loaded: usize,
    /// Entries dropped for CRC mismatch or bad framing.
    pub quarantined: usize,
    /// Whether the file ended in a partial entry (crash mid-append).
    pub truncated_tail: bool,
    /// Whether the file was compacted (rewritten without damage).
    pub compacted: bool,
}

/// Append-only checkpoint journal; see the module docs for the format.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    keys: HashSet<String>,
    /// Byte length of the last fully synced frame: a failed append — real
    /// or injected via the `journal.append.*` failpoints — rolls the file
    /// back here so torn bytes never desynchronise later frames.
    good_len: u64,
    /// Failpoint tag (the checkpoint directory name), so tests can arm
    /// `journal.append.write[<dir>]=...` against exactly one journal.
    tag: String,
}

impl Journal {
    /// Opens (or creates) the journal in `dir`, returning the verified
    /// entries already on disk and a report of what the scan found.
    ///
    /// If the scan detects any damage — a truncated tail or quarantined
    /// entries — the file is compacted: rewritten with only the verified
    /// entries via temp-file + rename, so the damage is gone before the
    /// first new append.
    ///
    /// # Errors
    ///
    /// I/O failure creating the directory, reading, or rewriting the
    /// journal. Corruption inside the file is never an error — it is
    /// quarantined and reported.
    pub fn open(dir: &Path) -> std::io::Result<(Journal, Vec<JournalEntry>, LoadReport)> {
        Journal::open_inner(dir, true)
    }

    /// Opens the journal in `dir`, discarding any existing entries
    /// (`--no-resume`): the file is truncated and started afresh.
    ///
    /// # Errors
    ///
    /// I/O failure creating the directory or the journal file.
    pub fn open_fresh(dir: &Path) -> std::io::Result<Journal> {
        let (journal, _, _) = Journal::open_inner(dir, false)?;
        Ok(journal)
    }

    fn open_inner(
        dir: &Path,
        resume: bool,
    ) -> std::io::Result<(Journal, Vec<JournalEntry>, LoadReport)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);

        let (entries, report) = if resume && path.exists() {
            let bytes = fs::read(&path)?;
            scan(&bytes)
        } else {
            (Vec::new(), LoadReport::default())
        };

        let needs_rewrite = !resume || report.quarantined > 0 || report.truncated_tail;
        let mut report = report;
        if needs_rewrite {
            let mut clean = Vec::with_capacity(MAGIC.len());
            clean.extend_from_slice(MAGIC);
            for e in &entries {
                clean.extend_from_slice(&frame(&e.key, &e.value));
            }
            atomic_write(&path, &clean)?;
            report.compacted = resume;
        } else if !path.exists() {
            atomic_write(&path, MAGIC)?;
        }

        counter!("exec.journal.loaded").add(u64::try_from(report.loaded).unwrap_or(u64::MAX));
        counter!("exec.journal.quarantined")
            .add(u64::try_from(report.quarantined).unwrap_or(u64::MAX));
        if report.compacted {
            counter!("exec.journal.compactions").incr();
        }

        let file = OpenOptions::new().append(true).open(&path)?;
        let good_len = file.metadata()?.len();
        let keys = entries.iter().map(|e| e.key.clone()).collect();
        let tag = dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        Ok((Journal { file, path, keys, good_len, tag }, entries, report))
    }

    /// Whether `key` already has a journaled entry (loaded or appended).
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.keys.contains(key)
    }

    /// Number of distinct journaled keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the journal holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Path of the journal file on disk.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rewrites the journal with only the entries `keep` selects, by their
    /// index in the order [`Journal::open`] returned them, via temp file +
    /// rename like damage compaction. The caller drops the frames it found
    /// dead (superseded, stale or undecodable), so no later open reads
    /// them again; a crash mid-rewrite leaves the old file whole.
    ///
    /// # Errors
    ///
    /// I/O failure reading, rewriting or reopening the journal.
    pub fn retain(&mut self, keep: impl Fn(usize) -> bool) -> std::io::Result<()> {
        let (entries, _) = scan(&fs::read(&self.path)?);
        let mut clean = MAGIC.to_vec();
        let mut keys = HashSet::new();
        for (_, e) in entries.iter().enumerate().filter(|&(i, _)| keep(i)) {
            clean.extend_from_slice(&frame(&e.key, &e.value));
            keys.insert(e.key.clone());
        }
        atomic_write(&self.path, &clean)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.good_len = clean.len() as u64;
        self.keys = keys;
        counter!("exec.journal.compactions").incr();
        Ok(())
    }

    /// Appends one entry and syncs it to disk before returning; a crash
    /// after `append` returns cannot lose the entry. A *failed* append —
    /// ENOSPC, a torn write, an fsync error, or the `journal.append.write`
    /// / `journal.append.fsync` failpoints — leaves no trace: the file is
    /// rolled back to the last good frame boundary so later appends stay
    /// framed correctly.
    ///
    /// # Errors
    ///
    /// I/O failure writing or syncing the journal file.
    pub fn append(&mut self, key: &str, value: &[u8]) -> std::io::Result<()> {
        let bytes = frame(key, value);
        if let Err(e) = self.append_synced(&bytes) {
            // Best-effort rollback; if even the truncate fails, the torn
            // tail is dropped by the scan on the next open instead.
            if let Err(trunc) = self.file.set_len(self.good_len) {
                eprintln!(
                    "[journal] warning: could not roll back torn append in {}: {trunc}",
                    self.path.display()
                );
            }
            return Err(e);
        }
        self.good_len += bytes.len() as u64;
        counter!("exec.journal.appends").incr();
        counter!("exec.journal.fsyncs").incr();
        self.keys.insert(key.to_owned());
        Ok(())
    }

    /// Writes one framed entry through the `journal.append.*` failpoints
    /// and syncs it. On `shortwrite(n)` only the first `n` bytes land —
    /// a torn frame, exactly what a crash mid-`write_all` leaves.
    fn append_synced(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match bitline_failpoint::write_fate_tagged("journal.append.write", &self.tag) {
            bitline_failpoint::WriteFate::Full => self.file.write_all(bytes)?,
            bitline_failpoint::WriteFate::Fail(e) => return Err(e),
            bitline_failpoint::WriteFate::Short(n) => {
                self.file.write_all(&bytes[..n.min(bytes.len())])?;
                self.file.flush()?;
                return Err(std::io::Error::from_raw_os_error(28)); // ENOSPC
            }
        }
        self.file.flush()?;
        bitline_failpoint::io_result_tagged("journal.append.fsync", &self.tag)?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// Frames one `(key, value)` pair as a journal entry.
fn frame(key: &str, value: &[u8]) -> Vec<u8> {
    let klen = u32::try_from(key.len()).expect("journal key fits in u32");
    let mut payload = Vec::with_capacity(4 + key.len() + value.len());
    payload.extend_from_slice(&klen.to_le_bytes());
    payload.extend_from_slice(key.as_bytes());
    payload.extend_from_slice(value);

    let len = u32::try_from(payload.len()).expect("journal entry fits in u32");
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Scans raw journal bytes, returning every verified entry (newest wins on
/// duplicate keys is the *caller's* concern — entries are returned in file
/// order) and a report of the damage encountered.
fn scan(bytes: &[u8]) -> (Vec<JournalEntry>, LoadReport) {
    let mut report = LoadReport::default();
    let mut entries = Vec::new();

    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        // Wrong or missing magic: nothing in the file can be trusted.
        if !bytes.is_empty() {
            report.quarantined += 1;
        }
        report.truncated_tail = !bytes.is_empty() && bytes.len() < MAGIC.len();
        return (entries, report);
    }

    let mut pos = MAGIC.len();
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + 8) else {
            report.truncated_tail = true;
            break;
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4-byte slice"));
        if len < 4 || len > MAX_ENTRY_BYTES as usize {
            // Implausible frame: cannot re-synchronise, stop scanning.
            report.quarantined += 1;
            break;
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            report.truncated_tail = true;
            break;
        };
        pos += 8 + len;
        if crc32(payload) != crc {
            report.quarantined += 1;
            continue;
        }
        let klen = u32::from_le_bytes(payload[..4].try_into().expect("4-byte slice")) as usize;
        let Some(key_bytes) = payload.get(4..4 + klen) else {
            report.quarantined += 1;
            continue;
        };
        let Ok(key) = std::str::from_utf8(key_bytes) else {
            report.quarantined += 1;
            continue;
        };
        entries.push(JournalEntry { key: key.to_owned(), value: payload[4 + klen..].to_vec() });
        report.loaded += 1;
    }
    (entries, report)
}

/// Writes `bytes` to `path` atomically: temp file in the destination
/// directory, flush + sync, then rename over the target. Readers see
/// either the old contents or the new, never a truncated mix.
///
/// # Errors
///
/// I/O failure creating, writing, syncing, or renaming the temp file.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("out");
    let tag = dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    let outcome = (|| {
        let mut file = File::create(&tmp)?;
        // The compaction tmp-write seam: a torn tmp image is exactly what
        // a crash mid-compaction leaves. The error path below removes the
        // tmp (a *failed* write cleans up; only a process death leaves
        // residue for the next open to ignore).
        match bitline_failpoint::write_fate_tagged("journal.atomic_write", &tag) {
            bitline_failpoint::WriteFate::Full => file.write_all(bytes)?,
            bitline_failpoint::WriteFate::Fail(e) => return Err(e),
            bitline_failpoint::WriteFate::Short(n) => {
                file.write_all(&bytes[..n.min(bytes.len())])?;
                file.flush()?;
                return Err(std::io::Error::from_raw_os_error(28)); // ENOSPC
            }
        }
        file.flush()?;
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp, path)
    })();
    if outcome.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    outcome
}

/// Slice-by-8 tables for [`crc32`], built at compile time. Row 0 is the
/// classic byte-at-a-time table; row `k` advances a byte's contribution
/// through `k` more zero bytes, so one step folds eight input bytes with
/// eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
///
/// Sliced eight bytes a step, because a warm restart checksums every frame
/// before it can answer: the byte-at-a-time loop, in which each lookup
/// waits on the one before, ran at about 0.3 GB/s, so a 1 MB journal cost
/// over 3 ms of a warm `bitline-serve` start. The eight lookups of a step
/// are independent, and the sliced loop runs at about 1.2 GB/s (release
/// build, 2-vCPU VM). The checksum is the same, so every journal on disk
/// still verifies.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        let [a, b, c, d] = (crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).to_le_bytes();
        crc = t[7][usize::from(a)]
            ^ t[6][usize::from(b)]
            ^ t[5][usize::from(c)]
            ^ t[4][usize::from(d)]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in tail {
        crc = t[0][usize::from(crc as u8 ^ b)] ^ (crc >> 8);
    }
    !crc
}

/// Reads a journal file's verified entries without opening it for append.
///
/// # Errors
///
/// I/O failure reading the file; a missing file yields zero entries.
pub fn read_entries(path: &Path) -> std::io::Result<(Vec<JournalEntry>, LoadReport)> {
    if !path.exists() {
        return Ok((Vec::new(), LoadReport::default()));
    }
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(scan(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bitline-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        // zlib's `crc32` (an independent implementation) of the first n
        // bytes of one pattern, n = 0..=17: every byte tail, with no
        // sliced word before it and with one or two.
        let pattern: Vec<u8> = (0..17_u32).map(|i| (i * 37 + 11) as u8).collect();
        let zlib = [
            0x0000_0000,
            0x45D0_3605,
            0x84F4_FB98,
            0x3753_A57B,
            0xA532_8CBE,
            0x9ECE_CD5F,
            0xB541_6B8C,
            0xEF6F_3B31,
            0x648B_AD8B,
            0x17DC_5F9E,
            0xA012_5457,
            0x0919_340F,
            0x7A6C_29EC,
            0x7EC4_7AE4,
            0xDCA7_A3C5,
            0x5360_5EE3,
            0x24E8_A988,
            0xCDFC_844A,
        ];
        for (n, want) in zlib.into_iter().enumerate() {
            assert_eq!(crc32(&pattern[..n]), want, "first {n} bytes");
        }
        assert_eq!(crc32(&[0; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
        assert_eq!(crc32(&(0..=255).collect::<Vec<u8>>()), 0x2905_8C73);
    }

    /// The byte-at-a-time loop the sliced [`crc32`] replaced: the reference
    /// it must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// A seeded xorshift64 stream of test bytes and choices.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// `len` bytes drawn from `next`.
    fn random_bytes(next: &mut impl FnMut() -> u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| next() as u8).collect()
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_reference() {
        // Seeded inputs of 0-4 KiB, every length up to 64 among them, each
        // checked from every start offset mod 8: every split between
        // sliced words and the byte tail, at every alignment.
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        let lens = (0..=64).chain((0..128).map(|_| next() as usize % 4097)).collect::<Vec<_>>();
        for len in lens {
            let bytes = random_bytes(&mut next, len + 8);
            for offset in 0..8 {
                let input = &bytes[offset..offset + len];
                assert_eq!(crc32(input), crc32_bytewise(input), "{len} bytes at offset {offset}");
            }
        }
    }

    #[test]
    fn every_burst_of_up_to_32_bits_changes_the_crc32() {
        // A degree-32 CRC detects every error burst no longer than 32
        // bits, single-bit flips among them: the guarantee behind every
        // quarantined frame. The reflected CRC reads each byte low bit
        // first, so bit `8 * byte + k` is the stream's bit order.
        let mut next = xorshift(0x1405_7B7E_F767_814F);
        let bytes = random_bytes(&mut next, 40);
        let crc = crc32(&bytes);
        let bits = bytes.len() * 8;
        for burst in 1..=32 {
            for start in 0..=bits - burst {
                let middle = next();
                let mut damaged = bytes.clone();
                for i in 0..burst {
                    if i == 0 || i == burst - 1 || middle >> i & 1 == 1 {
                        let at = start + i;
                        damaged[at / 8] ^= 1 << (at % 8);
                    }
                }
                assert_ne!(crc32(&damaged), crc, "{burst}-bit burst at bit {start}");
            }
        }
    }

    #[test]
    fn each_slice_table_row_carries_a_byte_through_more_zero_bytes() {
        // Row k, entry i is the register (from zero, no inversions) after
        // byte i and then k zero bytes, shifted through the polynomial a
        // bit at a time: a swapped or miscomputed row shows here by name.
        let step = |mut reg: u32, byte: u8| {
            reg ^= u32::from(byte);
            for _ in 0..8 {
                reg = if reg & 1 != 0 { 0xEDB8_8320 ^ (reg >> 1) } else { reg >> 1 };
            }
            reg
        };
        for (k, row) in CRC_TABLES.iter().enumerate() {
            for (i, &entry) in row.iter().enumerate() {
                let reg = std::iter::repeat_n(0, k).fold(step(0, i as u8), step);
                assert_eq!(entry, reg, "row {k}, byte {i:#04x}");
            }
        }
    }

    /// A journal image: the magic, then `frames` back to back.
    fn image(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for f in frames {
            bytes.extend_from_slice(f);
        }
        bytes
    }

    /// A frame around an arbitrary payload with its true CRC, so a scan
    /// gets past the checksum to the payload's own framing.
    fn payload_frame(payload: &[u8]) -> Vec<u8> {
        let len = u32::try_from(payload.len()).expect("test payload fits in u32");
        let mut out = len.to_le_bytes().to_vec();
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    fn entry(key: &str, value: &[u8]) -> JournalEntry {
        JournalEntry { key: key.into(), value: value.to_vec() }
    }

    #[test]
    fn a_frame_is_its_length_crc_and_payload() {
        // len = 4 + klen + vlen; the CRC (zlib's, for an independent
        // value) covers the payload only; every integer is little-endian.
        let mut want = vec![10, 0, 0, 0];
        want.extend_from_slice(&0x45F5_58B0_u32.to_le_bytes());
        want.extend_from_slice(&[3, 0, 0, 0]);
        want.extend_from_slice(b"keyval");
        assert_eq!(frame("key", b"val"), want);
    }

    #[test]
    fn an_empty_or_magic_only_file_scans_clean() {
        for bytes in [&[][..], &MAGIC[..]] {
            assert_eq!(scan(bytes), (Vec::new(), LoadReport::default()), "{} bytes", bytes.len());
        }
    }

    #[test]
    fn a_foreign_magic_quarantines_the_whole_file() {
        let mut bytes = image(&[frame("k", b"v")]);
        bytes[6] = b'2'; // "BLJRNL2\n": a format this build cannot read
        let (entries, report) = scan(&bytes);
        assert!(entries.is_empty());
        assert_eq!(report, LoadReport { quarantined: 1, ..LoadReport::default() });
    }

    #[test]
    fn a_file_cut_inside_its_magic_is_a_torn_tail() {
        let (entries, report) = scan(&MAGIC[..5]);
        assert!(entries.is_empty());
        assert!(report.truncated_tail);
        assert_eq!((report.loaded, report.quarantined), (0, 1));
    }

    #[test]
    fn a_header_cut_short_is_a_torn_tail() {
        let second = frame("b", b"beta");
        for cut in 1..8 {
            let (entries, report) = scan(&image(&[frame("a", b"alpha"), second[..cut].to_vec()]));
            assert_eq!(entries, [entry("a", b"alpha")], "{cut} header bytes");
            assert!(report.truncated_tail, "{cut} header bytes");
            assert_eq!(report.quarantined, 0, "{cut} header bytes");
        }
    }

    #[test]
    fn an_implausible_length_ends_the_scan() {
        // Three bytes cannot hold the key length, and no entry is larger
        // than the cap: nothing after such a frame can be framed again,
        // so the scan stops there.
        let mut short = 3_u32.to_le_bytes().to_vec();
        short.extend_from_slice(&crc32(&[1, 2, 3]).to_le_bytes());
        short.extend_from_slice(&[1, 2, 3]);
        let mut huge = (MAX_ENTRY_BYTES + 1).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0; 12]);
        for bad in [short, huge] {
            let (entries, report) = scan(&image(&[frame("a", b"alpha"), bad, frame("b", b"beta")]));
            assert_eq!(entries, [entry("a", b"alpha")]);
            assert_eq!(report, LoadReport { loaded: 1, quarantined: 1, ..LoadReport::default() });
        }
    }

    #[test]
    fn a_key_running_past_its_payload_is_quarantined_and_the_scan_goes_on() {
        let mut payload = 100_u32.to_le_bytes().to_vec();
        payload.extend_from_slice(b"short");
        let (entries, report) =
            scan(&image(&[frame("a", b"alpha"), payload_frame(&payload), frame("b", b"beta")]));
        assert_eq!(entries, [entry("a", b"alpha"), entry("b", b"beta")]);
        assert_eq!(report, LoadReport { loaded: 2, quarantined: 1, ..LoadReport::default() });
    }

    #[test]
    fn a_key_that_is_not_utf8_is_quarantined_and_the_scan_goes_on() {
        let mut payload = 2_u32.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0xC3, 0x28]); // a lead byte, then no continuation
        payload.extend_from_slice(b"value");
        let (entries, report) =
            scan(&image(&[frame("a", b"alpha"), payload_frame(&payload), frame("b", b"beta")]));
        assert_eq!(entries, [entry("a", b"alpha"), entry("b", b"beta")]);
        assert_eq!(report, LoadReport { loaded: 2, quarantined: 1, ..LoadReport::default() });
    }

    #[test]
    fn duplicate_keys_come_back_in_file_order() {
        // The scan keeps every copy; the caller lets the last one win.
        let (entries, report) =
            scan(&image(&[frame("k", b"old"), frame("other", b"x"), frame("k", b"new")]));
        assert_eq!(entries, [entry("k", b"old"), entry("other", b"x"), entry("k", b"new")]);
        assert_eq!(report.loaded, 3);
    }

    #[test]
    fn an_empty_key_and_value_frame_and_scan_back() {
        let empty = frame("", b"");
        assert_eq!(empty.len(), 8 + 4, "a header and the zero key length");
        let (entries, report) = scan(&image(&[empty, frame("", b"v"), frame("k", b"")]));
        assert_eq!(entries, [entry("", b""), entry("", b"v"), entry("k", b"")]);
        assert_eq!(report, LoadReport { loaded: 3, ..LoadReport::default() });
    }

    #[test]
    fn a_missing_journal_reads_as_empty() {
        let dir = tmp_dir("missing");
        let read = read_entries(&dir.join(JOURNAL_FILE)).expect("a missing file is no error");
        assert_eq!(read, (Vec::new(), LoadReport::default()));
        assert!(!dir.exists(), "reading creates nothing");
    }

    #[test]
    fn a_new_journal_holds_only_its_magic() {
        let dir = tmp_dir("new");
        let (j, entries, report) = Journal::open(&dir).expect("open");
        assert!(entries.is_empty() && j.is_empty());
        assert_eq!(report, LoadReport::default(), "a new file is not a compaction");
        assert_eq!(fs::read(j.path()).expect("read"), MAGIC);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_then_reopen_roundtrips() {
        let dir = tmp_dir("roundtrip");
        {
            let (mut j, entries, report) = Journal::open(&dir).expect("open");
            assert!(entries.is_empty());
            assert_eq!(report, LoadReport::default());
            j.append("a", b"alpha").expect("append");
            j.append("b", &[0, 1, 2, 255]).expect("append");
            assert!(j.contains("a") && j.contains("b"));
            assert_eq!(j.len(), 2);
        }
        let (j, entries, report) = Journal::open(&dir).expect("reopen");
        assert_eq!(report.loaded, 2);
        assert_eq!(report.quarantined, 0);
        assert!(!report.compacted);
        assert_eq!(
            entries,
            vec![
                JournalEntry { key: "a".into(), value: b"alpha".to_vec() },
                JournalEntry { key: "b".into(), value: vec![0, 1, 2, 255] },
            ]
        );
        assert!(j.contains("b"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_fresh_discards_existing_entries() {
        let dir = tmp_dir("fresh");
        {
            let (mut j, _, _) = Journal::open(&dir).expect("open");
            j.append("a", b"alpha").expect("append");
        }
        let j = Journal::open_fresh(&dir).expect("open fresh");
        assert!(j.is_empty());
        let (_, entries, _) = Journal::open(&dir).expect("reopen");
        assert!(entries.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_dropped_and_compacted() {
        let dir = tmp_dir("trunc");
        {
            let (mut j, _, _) = Journal::open(&dir).expect("open");
            j.append("whole", b"kept").expect("append");
            j.append("partial", b"lost-on-crash").expect("append");
        }
        let path = dir.join(JOURNAL_FILE);
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");

        let (_, entries, report) = Journal::open(&dir).expect("reopen");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key, "whole");
        assert!(report.truncated_tail);
        assert!(report.compacted);

        // After compaction the file is clean again.
        let (_, entries, report) = Journal::open(&dir).expect("re-reopen");
        assert_eq!(entries.len(), 1);
        assert!(!report.truncated_tail && !report.compacted);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_bit_is_quarantined() {
        let dir = tmp_dir("crc");
        {
            let (mut j, _, _) = Journal::open(&dir).expect("open");
            j.append("good", b"first").expect("append");
            j.append("bad", b"second").expect("append");
        }
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = fs::read(&path).expect("read");
        let n = bytes.len();
        bytes[n - 1] ^= 0x40; // flip a bit in the last entry's value
        fs::write(&path, &bytes).expect("write");

        let (j, entries, report) = Journal::open(&dir).expect("reopen");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key, "good");
        assert_eq!(report.quarantined, 1);
        assert!(report.compacted);
        assert!(!j.contains("bad"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retain_keeps_only_the_selected_frames_and_appends_after_them() {
        let dir = tmp_dir("retain");
        {
            let (mut j, _, _) = Journal::open(&dir).expect("open");
            for (key, value) in [("a", "old"), ("b", "dead"), ("a", "new")] {
                j.append(key, value.as_bytes()).expect("append");
            }
        }
        let (mut j, entries, _) = Journal::open(&dir).expect("reopen");
        assert_eq!(entries.len(), 3);
        j.retain(|i| i == 2).expect("retain");
        assert!(j.contains("a") && !j.contains("b"));
        j.append("c", b"later").expect("append after a rewrite");
        let (_, entries, report) = Journal::open(&dir).expect("re-reopen");
        assert_eq!(entries, [entry("a", b"new"), entry("c", b"later")]);
        assert_eq!(report, LoadReport { loaded: 2, ..LoadReport::default() });
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = tmp_dir("atomic");
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("out.txt");
        atomic_write(&path, b"one").expect("write");
        atomic_write(&path, b"two").expect("rewrite");
        assert_eq!(fs::read(&path).expect("read"), b"two");
        // No temp litter left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
