//! Reference reader for replication pages: the whole-log scan that
//! `Store::replication_read` used before it indexed the live WAL. It
//! reads `WAL.old` and `WAL` whole, walks every frame from the front and
//! keeps the ones after `from_seq`, so property tests can check the
//! indexed, positioned-read path against it page for page.

use std::path::Path;

use softwareputation::storage::crc::crc32;
use softwareputation::storage::{ReplEntry, ReplRead, Vfs};

/// The page `Store::replication_read(from_seq, max_entries, max_bytes)`
/// must return for the store rooted at `dir` on `vfs`, given its
/// `committed_seq`. Call it right after a `replication_read` (which
/// flushes the log) with no write in between.
pub fn whole_log_read(
    vfs: &dyn Vfs,
    dir: &Path,
    from_seq: u64,
    committed_seq: u64,
    max_entries: usize,
    max_bytes: usize,
) -> ReplRead {
    let max_entries = max_entries.max(1);
    if from_seq >= committed_seq {
        return ReplRead::Entries { entries: Vec::new(), committed_seq, backlog_bytes: 0 };
    }
    let mut entries = Vec::new();
    let mut taken_bytes = 0usize;
    let mut backlog_bytes = 0u64;
    let mut full = false;
    for name in ["WAL.old", "WAL"] {
        let Some(raw) = vfs.try_read(&dir.join(name)).expect("oracle read") else { continue };
        for payload in valid_frames(&raw) {
            let seq = u64::from_le_bytes(payload[..8].try_into().expect("seq header"));
            if seq <= from_seq || seq > committed_seq {
                continue;
            }
            if entries.len() >= max_entries || taken_bytes >= max_bytes {
                full = true;
            }
            if full {
                backlog_bytes += payload.len().saturating_sub(8) as u64;
                continue;
            }
            let batch = payload[8..].to_vec();
            taken_bytes += batch.len();
            entries.push(ReplEntry { seq, batch });
        }
    }
    match entries.first() {
        Some(first) if first.seq == from_seq + 1 => {
            ReplRead::Entries { entries, committed_seq, backlog_bytes }
        }
        _ => ReplRead::SnapshotNeeded { committed_seq },
    }
}

/// The payloads of `raw`'s frames (`len: u32 LE`, `crc32: u32 LE`,
/// payload), up to the first torn or corrupt one.
fn valid_frames(raw: &[u8]) -> Vec<&[u8]> {
    let mut frames = Vec::new();
    let mut offset = 0usize;
    while let Some(header) = raw.get(offset..offset + 8) {
        let len = u32::from_le_bytes(header[..4].try_into().expect("len")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("crc"));
        let Some(body) = raw.get(offset + 8..offset + 8 + len) else { break };
        if len > 16 * 1024 * 1024 || crc32(body) != crc {
            break;
        }
        frames.push(body);
        offset += 8 + len;
    }
    frames
}
