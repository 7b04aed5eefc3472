//! Append-only write-ahead log with CRC-guarded entries.
//!
//! Entry layout on disk:
//!
//! ```text
//! +----------------+----------------+------------------+
//! | len: u32 LE    | crc32: u32 LE  | payload: len × u8|
//! +----------------+----------------+------------------+
//! ```
//!
//! Replay scans entries in order and stops at the first frame whose length
//! or CRC does not check out — a torn tail from a crash mid-append — and
//! truncates the file there, restoring invariant 6 of DESIGN.md: *any
//! prefix of the log replays to a consistent store*.
//!
//! The backing file is held behind an `Arc` so the store's group
//! committer can run `sync_data` *outside* its commit lock while other
//! threads keep appending to the in-memory buffer; `append` itself never
//! issues a syscall until the buffer spills or a flush/sync is requested.
//!
//! All file I/O goes through a [`Vfs`] handle ([`crate::vfs`]): production
//! uses the passthrough `RealVfs` (the `open`/`replay` constructors), the
//! fault-injection harness substitutes a `SimVfs` via the `*_on` variants.
//!
//! A failed *flush* poisons the handle: a partial `write_all` can leave a
//! torn frame mid-file, and retrying the buffered bytes would lay a
//! duplicate copy after the tear — every later frame would be unreachable
//! to replay even though its fsync succeeded. Once poisoned, every write
//! path returns [`StorageError::Poisoned`] until the log is reopened
//! (replay truncates the tear). A failed `sync_data` does **not** poison:
//! no bytes were misplaced, so the group committer may simply retry.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::crc::crc32;
use crate::error::{StorageError, StorageResult};
use crate::vfs::{self, Vfs, VfsFile};

/// Maximum sane entry size (16 MiB). Longer frames are treated as torn
/// tails rather than honoured, bounding memory during recovery of a
/// corrupted file.
const MAX_ENTRY_LEN: u32 = 16 * 1024 * 1024;

/// Buffered bytes beyond which `append` spills to the OS on its own.
const SPILL_BYTES: usize = 64 * 1024;

/// An open write-ahead log.
pub struct Wal {
    path: PathBuf,
    file: Arc<dyn VfsFile>,
    buf: Vec<u8>,
    entries: u64,
    bytes: u64,
    /// Set when a flush failed partway; see the module docs.
    poisoned: bool,
}

/// Outcome of replaying a log file.
pub struct WalReplay {
    /// The valid entry payloads, in append order.
    pub entries: Vec<Vec<u8>>,
    /// True when a torn/corrupt tail was found (and truncated away).
    pub torn: bool,
}

impl Wal {
    /// Open (creating if needed) the log at `path` for appending.
    ///
    /// Existing entries are counted so [`Wal::entries_written`] and
    /// [`Wal::len_bytes`] describe the whole log, not just this handle's
    /// appends; a torn tail is truncated so new frames start on a clean
    /// boundary.
    pub fn open(path: impl Into<PathBuf>) -> StorageResult<Self> {
        Self::open_on(&*vfs::real(), path)
    }

    /// [`Wal::open`] against an explicit [`Vfs`] (fault-injection entry).
    pub fn open_on(vfs: &dyn Vfs, path: impl Into<PathBuf>) -> StorageResult<Self> {
        let path = path.into();
        let file = vfs.open_append(&path)?;
        let raw = file.read_all()?;
        let scan = scan_frames(&raw);
        if scan.valid_len < raw.len() {
            file.set_len(scan.valid_len as u64)?;
            file.sync_data()?;
        }
        Ok(Wal {
            path,
            file,
            buf: Vec::new(),
            entries: scan.entries,
            bytes: scan.valid_len as u64,
            poisoned: false,
        })
    }

    /// Append one entry to the in-memory buffer; a spill, flush or sync
    /// pushes it to the OS.
    pub fn append(&mut self, payload: &[u8]) -> StorageResult<()> {
        debug_assert!(payload.len() as u64 <= u64::from(MAX_ENTRY_LEN));
        if self.poisoned {
            return Err(StorageError::Poisoned(POISON_MSG));
        }
        let len = payload.len() as u32;
        let crc = crc32(payload);
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.entries += 1;
        self.bytes += 8 + u64::from(len);
        if self.buf.len() >= SPILL_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Flush buffered entries to the OS and fsync to the device.
    pub fn sync(&mut self) -> StorageResult<()> {
        self.flush()?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Flush to the OS without the fsync (fast path: survives a process
    /// crash but not a power failure). A failure here poisons the handle
    /// — the kernel may hold a partial frame, and retrying the buffer
    /// would lay duplicate bytes after the tear (see module docs).
    pub fn flush(&mut self) -> StorageResult<()> {
        if self.poisoned {
            return Err(StorageError::Poisoned(POISON_MSG));
        }
        if !self.buf.is_empty() {
            if let Err(e) = self.file.append(&self.buf) {
                self.poisoned = true;
                return Err(e);
            }
            self.buf.clear();
        }
        Ok(())
    }

    /// True once a failed flush has retired this handle (reopen the log
    /// to recover — replay truncates the torn frame).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// A shared handle to the backing file, for running `sync_data`
    /// without holding the lock that guards this `Wal`. The caller must
    /// have called [`Wal::flush`] first — only flushed bytes are covered.
    pub fn sync_handle(&self) -> Arc<dyn VfsFile> {
        Arc::clone(&self.file)
    }

    /// Total entries in the log: replayed-on-open plus appended here.
    pub fn entries_written(&self) -> u64 {
        self.entries
    }

    /// Total log size in bytes (pre-existing + appended, incl. buffered).
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Truncate the log to zero length (called after a snapshot compaction
    /// has captured all its effects). Resets both counters.
    pub fn truncate(&mut self) -> StorageResult<()> {
        self.buf.clear();
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.entries = 0;
        self.bytes = 0;
        // The file is empty and the buffer dropped: any torn frame a
        // poisoning flush left behind is gone, so the handle is clean.
        self.poisoned = false;
        Ok(())
    }

    /// Replay all valid entries from the file at `path`, truncating any
    /// torn tail in place.
    pub fn replay(path: impl AsRef<Path>) -> StorageResult<Vec<Vec<u8>>> {
        Ok(Self::replay_with_outcome(path)?.entries)
    }

    /// Like [`Wal::replay`], but also reports whether a torn tail was
    /// dropped — the store's rotation recovery needs to distinguish a
    /// cleanly-ended `WAL.old` from one that died mid-append.
    pub fn replay_with_outcome(path: impl AsRef<Path>) -> StorageResult<WalReplay> {
        Self::replay_with_outcome_on(&*vfs::real(), path.as_ref())
    }

    /// [`Wal::replay_with_outcome`] against an explicit [`Vfs`].
    pub fn replay_with_outcome_on(vfs: &dyn Vfs, path: &Path) -> StorageResult<WalReplay> {
        let Some(raw) = vfs.try_read(path)? else {
            return Ok(WalReplay { entries: Vec::new(), torn: false });
        };

        let mut entries = Vec::new();
        let mut valid_prefix = 0usize;
        while let Ok(body) = next_frame(&raw, valid_prefix) {
            entries.push(body.to_vec());
            valid_prefix += FRAME_HEADER + body.len();
        }

        let torn = valid_prefix < raw.len();
        if torn {
            // Drop the torn tail so a future append starts from a clean
            // frame boundary.
            let file = vfs.open_append(path)?;
            file.set_len(valid_prefix as u64)?;
            file.sync_data()?;
        }
        Ok(WalReplay { entries, torn })
    }
}

/// Message carried by every [`StorageError::Poisoned`] this module emits.
const POISON_MSG: &str = "WAL flush failed partway; reopen the store to truncate the torn frame";

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort: push buffered frames to the OS like the old
        // BufWriter-backed implementation did on drop.
        let _ = self.flush();
    }
}

/// How far a raw log image parses cleanly, and how many frames it holds.
struct FrameScan {
    entries: u64,
    valid_len: usize,
}

/// Walk the frames of `raw`, stopping at the first torn/corrupt one.
fn scan_frames(raw: &[u8]) -> FrameScan {
    let mut entries = 0u64;
    let mut valid_len = 0usize;
    while let Ok(body) = next_frame(raw, valid_len) {
        entries += 1;
        valid_len += FRAME_HEADER + body.len();
    }
    FrameScan { entries, valid_len }
}

/// Bytes of a frame header: `len` then `crc32`, both u32 LE.
pub(crate) const FRAME_HEADER: usize = 8;

/// Why [`next_frame`] found no valid frame at an offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameEnd {
    /// `raw` ends before the frame does: the frame (header included)
    /// needs `need` bytes from its offset. At the end of a whole log this
    /// is a torn tail; a reader holding only part of the log reads more.
    Short {
        /// Bytes the frame needs, counted from its first header byte.
        need: usize,
    },
    /// The length field is out of bounds or the CRC does not match.
    Corrupt,
}

/// The frame-acceptance rule, shared by replay, open's scan and the
/// store's replication page reader: decode the frame starting at `offset`
/// of `raw` and return its payload when its length is sane and its CRC
/// checks out.
pub(crate) fn next_frame(raw: &[u8], offset: usize) -> Result<&[u8], FrameEnd> {
    let short = |need| FrameEnd::Short { need };
    let header = offset
        .checked_add(FRAME_HEADER)
        .and_then(|end| raw.get(offset..end))
        .ok_or(short(FRAME_HEADER))?;
    let word =
        |at: usize| header.get(at..at + 4).and_then(|b| b.try_into().ok()).map(u32::from_le_bytes);
    let (Some(len), Some(crc)) = (word(0), word(4)) else { return Err(short(FRAME_HEADER)) };
    if len > MAX_ENTRY_LEN {
        return Err(FrameEnd::Corrupt);
    }
    let need = FRAME_HEADER + len as usize;
    let body = offset
        .checked_add(need)
        .and_then(|end| raw.get(offset + FRAME_HEADER..end))
        .ok_or(short(need))?;
    if crc32(body) != crc {
        return Err(FrameEnd::Corrupt);
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("softrep-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_then_replay_returns_entries_in_order() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("WAL");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.append(b"").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let entries = Wal::replay(&path).unwrap();
        assert_eq!(entries, vec![b"one".to_vec(), b"two".to_vec(), Vec::new()]);
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let dir = tmpdir("missing");
        let outcome = Wal::replay_with_outcome(dir.join("WAL")).unwrap();
        assert!(outcome.entries.is_empty());
        assert!(!outcome.torn);
    }

    #[test]
    fn counters_cover_preexisting_entries_and_reset_on_truncate() {
        let dir = tmpdir("counters");
        let path = dir.join("WAL");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
            wal.sync().unwrap();
        }
        // A fresh handle sees the whole log, not zero.
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.entries_written(), 2);
        assert_eq!(wal.len_bytes(), (8 + 5 + 8 + 6) as u64);
        wal.append(b"third").unwrap();
        assert_eq!(wal.entries_written(), 3);
        // Truncation resets *both* counters together.
        wal.truncate().unwrap();
        assert_eq!(wal.entries_written(), 0);
        assert_eq!(wal.len_bytes(), 0);
        wal.append(b"post").unwrap();
        assert_eq!(wal.entries_written(), 1);
        assert_eq!(wal.len_bytes(), (8 + 4) as u64);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let dir = tmpdir("torn");
        let path = dir.join("WAL");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"durable entry").unwrap();
        wal.append(b"casualty").unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Chop off the last 3 bytes to simulate a crash mid-write.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();

        let outcome = Wal::replay_with_outcome(&path).unwrap();
        assert_eq!(outcome.entries, vec![b"durable entry".to_vec()]);
        assert!(outcome.torn);
        // The file itself must have been truncated back to the valid prefix.
        let len_after = fs::metadata(&path).unwrap().len();
        assert_eq!(len_after, (8 + b"durable entry".len()) as u64);

        // Appending after recovery keeps the log consistent.
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.entries_written(), 1);
        wal.append(b"post-crash").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let entries = Wal::replay(&path).unwrap();
        assert_eq!(entries, vec![b"durable entry".to_vec(), b"post-crash".to_vec()]);
    }

    #[test]
    fn open_truncates_a_torn_tail_itself() {
        let dir = tmpdir("open-torn");
        let path = dir.join("WAL");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"whole").unwrap();
            wal.sync().unwrap();
        }
        let mut raw = fs::read(&path).unwrap();
        raw.extend_from_slice(&[9, 0, 0]); // half a header
        fs::write(&path, &raw).unwrap();

        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.entries_written(), 1);
        wal.append(b"next").unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap(), vec![b"whole".to_vec(), b"next".to_vec()]);
    }

    #[test]
    fn corrupted_crc_stops_replay_at_entry() {
        let dir = tmpdir("crc");
        let path = dir.join("WAL");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"good").unwrap();
        wal.append(b"flipped").unwrap();
        wal.sync().unwrap();
        drop(wal);

        let mut raw = fs::read(&path).unwrap();
        let second_body = 8 + 4 + 8; // header+body of first, header of second
        raw[second_body] ^= 0xff;
        fs::write(&path, &raw).unwrap();

        let entries = Wal::replay(&path).unwrap();
        assert_eq!(entries, vec![b"good".to_vec()]);
    }

    #[test]
    fn hostile_length_field_is_treated_as_torn() {
        let dir = tmpdir("hostile");
        let path = dir.join("WAL");
        let mut raw = Vec::new();
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        raw.extend_from_slice(&0u32.to_le_bytes());
        raw.extend_from_slice(b"junk");
        fs::write(&path, &raw).unwrap();
        assert!(Wal::replay(&path).unwrap().is_empty());
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
    }

    #[test]
    fn truncate_resets_log() {
        let dir = tmpdir("trunc");
        let path = dir.join("WAL");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"before snapshot").unwrap();
        wal.sync().unwrap();
        wal.truncate().unwrap();
        wal.append(b"after snapshot").unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap(), vec![b"after snapshot".to_vec()]);
    }

    #[test]
    fn drop_flushes_buffered_entries() {
        let dir = tmpdir("dropflush");
        let path = dir.join("WAL");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"buffered only").unwrap();
            // No flush/sync: Drop must push it to the OS.
        }
        assert_eq!(Wal::replay(&path).unwrap(), vec![b"buffered only".to_vec()]);
    }

    #[test]
    fn failed_flush_poisons_the_handle_until_reopen() {
        use crate::failpoint::{FailAction, Fault};
        use crate::vfs::SimVfs;
        let vfs = SimVfs::new();
        let mut wal = Wal::open_on(&vfs, "/sim/WAL").unwrap();
        wal.append(b"good").unwrap();
        wal.flush().unwrap();
        // The next flush tears partway: a partial frame reaches the file.
        vfs.failpoints().set("vfs.append", FailAction::Every(Fault::Torn));
        wal.append(b"doomed-entry").unwrap();
        assert!(matches!(wal.flush(), Err(StorageError::Io(_))));
        assert!(wal.is_poisoned());
        // Every later write path refuses with the typed poison error —
        // retrying would duplicate bytes after the tear.
        assert!(matches!(wal.append(b"more"), Err(StorageError::Poisoned(_))));
        assert!(matches!(wal.sync(), Err(StorageError::Poisoned(_))));
        vfs.failpoints().clear_all();
        drop(wal); // Drop's best-effort flush must not resurrect the buffer.
        let outcome = Wal::replay_with_outcome_on(&vfs, Path::new("/sim/WAL")).unwrap();
        assert_eq!(outcome.entries, vec![b"good".to_vec()], "clean prefix survives");
        assert!(outcome.torn, "the partial frame reads as a torn tail");
        // A fresh handle over the truncated log is serviceable again.
        let mut wal = Wal::open_on(&vfs, "/sim/WAL").unwrap();
        assert!(!wal.is_poisoned());
        wal.append(b"after").unwrap();
        wal.sync().unwrap();
    }

    #[test]
    fn truncate_clears_poisoning() {
        use crate::failpoint::{FailAction, Fault};
        use crate::vfs::SimVfs;
        let vfs = SimVfs::new();
        let mut wal = Wal::open_on(&vfs, "/sim/WAL").unwrap();
        vfs.failpoints().set("vfs.append", FailAction::Nth(Fault::Err, 1));
        wal.append(b"entry").unwrap();
        assert!(wal.flush().is_err());
        assert!(wal.is_poisoned());
        wal.truncate().unwrap();
        assert!(!wal.is_poisoned(), "an empty file has no torn frame to protect");
        wal.append(b"fresh").unwrap();
        wal.sync().unwrap();
        assert_eq!(
            Wal::replay_with_outcome_on(&vfs, Path::new("/sim/WAL")).unwrap().entries,
            vec![b"fresh".to_vec()]
        );
    }

    #[test]
    fn any_prefix_replays_consistently() {
        // DESIGN.md invariant 6, exhaustively over every byte prefix.
        let dir = tmpdir("prefix");
        let path = dir.join("WAL");
        let mut wal = Wal::open(&path).unwrap();
        for i in 0..5u8 {
            wal.append(&vec![i; (i as usize + 1) * 3]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let full = fs::read(&path).unwrap();

        for cut in 0..=full.len() {
            let p = dir.join(format!("WAL-{cut}"));
            fs::write(&p, &full[..cut]).unwrap();
            let entries = Wal::replay(&p).unwrap();
            // Each replayed entry must be one of the originals, in order.
            for (i, e) in entries.iter().enumerate() {
                assert_eq!(e, &vec![i as u8; (i + 1) * 3], "cut={cut}");
            }
        }
    }
}
