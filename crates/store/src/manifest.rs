//! The write-ahead manifest: the store's single source of truth.
//!
//! Every mutation appends one checksummed entry to `manifest.log`; a
//! record (or removal, or a whole level transition) is **committed**
//! exactly when its manifest entry is fully durable. Entry wire format:
//!
//! ```text
//! u8      kind (table below)
//! ...     kind-specific fields
//! u64 LE  FNV-1a of every preceding byte of the entry
//!
//! 1 Add:         key 16B · uvarint segment · uvarint offset · uvarint len
//!                · u8 algorithm tag · uvarint original_len
//! 2 Remove:      key 16B                            (an L0-resident key)
//! 3 DropSegment: uvarint segment
//! 4 AddRun:      run meta                           (checkpoint form)
//! 5 DropRun:     uvarint run
//! 6 Seal:        u8 has-run · [run meta] · uvarint n · n × uvarint segment
//! 7 Merge:       u8 has-run · [run meta] · uvarint n · n × uvarint run
//! 8 RemoveRun:   key 16B · uvarint run · uvarint record len
//! 9 Revive:      key 16B · uvarint run
//!
//! run meta: uvarint id · uvarint level · uvarint records · uvarint bytes
//!           · min_key 16B · max_key 16B
//! ```
//!
//! `Seal` and `Merge` are the engine's *atomic* level transitions: one
//! entry simultaneously introduces a new sorted run and retires every
//! source file, so replay can never see the same key accounted twice.
//! Their drop lists are capped at [`MAX_DROP_LIST`] ids (compaction
//! chunks larger batches), which bounds every entry under
//! [`MAX_ENTRY_BYTES`] — the decoder's affordability ceiling and the
//! replay buffer's lookahead.
//!
//! Replay parses entries front to back and stops at the first one that
//! is structurally invalid or fails its checksum — the standard WAL
//! torn-tail rule. Whatever parsed before that point is the committed
//! state; the caller truncates the log (and the active segment) back to
//! it. The log is *streamed* through a fixed-size buffer and folded
//! into the caller's visitor, so replaying a long history costs O(1)
//! memory, not O(history). Compaction rewrites the log via temp-file +
//! atomic rename, so a crash mid-checkpoint leaves the old log intact.

use crate::error::StoreError;
use crate::record::ContentKey;
use crate::sstable::RunMeta;
use dnacomp_algos::Algorithm;
use dnacomp_codec::checksum::Fnv1a;
use dnacomp_codec::varint::{read_u64_le, read_uvarint, write_u64_le, write_uvarint};
use std::fs::File;
use std::io::BufRead;
use std::path::{Path, PathBuf};

/// File name of the manifest log inside a store directory.
pub const MANIFEST_NAME: &str = "manifest.log";

/// Most file ids one `Seal`/`Merge` entry may retire. Compaction
/// chunks anything larger; the decoder refuses anything above this
/// before allocating.
pub const MAX_DROP_LIST: usize = 1024;

/// Upper bound on any legitimate encoded entry (a full drop list plus
/// meta and checksum is ~10 KiB; 32 KiB leaves generous margin). The
/// streaming replayer keeps this much lookahead, so "undecodable with
/// this lookahead" and "undecodable, full stop" coincide and the
/// torn-tail rule is bit-identical to whole-file parsing.
pub const MAX_ENTRY_BYTES: usize = 32 << 10;

/// Where a committed record lives on disk, plus the header fields
/// `stat` can answer without touching the segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Location {
    /// Segment the record was appended to.
    pub segment: u64,
    /// Byte offset of the record within the segment.
    pub offset: u64,
    /// Encoded record length in bytes.
    pub len: u64,
    /// Algorithm recorded for the payload.
    pub algorithm: Algorithm,
    /// Original sequence length in bases.
    pub original_len: u64,
}

/// One manifest entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Entry {
    /// A record became durable at `location` (level 0).
    Add {
        /// Content key of the record.
        key: ContentKey,
        /// Where its bytes live.
        location: Location,
    },
    /// The L0-resident record with `key` was logically deleted.
    Remove {
        /// Content key of the removed record.
        key: ContentKey,
    },
    /// Compaction finished moving every live record out of `segment`;
    /// its file is garbage from this entry on.
    DropSegment {
        /// The retired segment.
        segment: u64,
    },
    /// A sorted run exists (checkpoint form of the engine state).
    AddRun {
        /// The run's description.
        meta: RunMeta,
    },
    /// The run's file is garbage from this entry on.
    DropRun {
        /// The retired run.
        run: u64,
    },
    /// Atomic L0 flush: the live records of `segments` now live in
    /// `run` (already durable under its final name), and those segment
    /// files are garbage. `run` is `None` when every victim record was
    /// dead — a pure drop.
    Seal {
        /// The freshly written level-1 run, if any record survived.
        run: Option<RunMeta>,
        /// The retired L0 segments.
        segments: Vec<u64>,
    },
    /// Atomic level merge: the live records of `runs` now live in
    /// `run`; the input run files are garbage. `None` output means
    /// every input record was tombstoned.
    Merge {
        /// The merged output run, if any record survived.
        run: Option<RunMeta>,
        /// The retired input runs.
        runs: Vec<u64>,
    },
    /// The run-resident record with `key` was logically deleted
    /// (tombstone; the bytes die at the next merge of `run`).
    RemoveRun {
        /// Content key of the removed record.
        key: ContentKey,
        /// Run still physically holding the record.
        run: u64,
        /// Encoded record length (exact dead-byte accounting).
        len: u64,
    },
    /// A tombstoned key was re-put. Content addressing makes the bytes
    /// already in `run` identical to the new payload, so reviving the
    /// tombstone *is* the write.
    Revive {
        /// The revived key.
        key: ContentKey,
        /// Run holding the (again live) record.
        run: u64,
    },
}

impl Entry {
    /// Serialise to the log wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        match self {
            Entry::Add { key, location } => {
                out.push(1);
                out.extend_from_slice(&key.0);
                write_uvarint(&mut out, location.segment);
                write_uvarint(&mut out, location.offset);
                write_uvarint(&mut out, location.len);
                out.push(location.algorithm.tag());
                write_uvarint(&mut out, location.original_len);
            }
            Entry::Remove { key } => {
                out.push(2);
                out.extend_from_slice(&key.0);
            }
            Entry::DropSegment { segment } => {
                out.push(3);
                write_uvarint(&mut out, *segment);
            }
            Entry::AddRun { meta } => {
                out.push(4);
                meta.encode_into(&mut out);
            }
            Entry::DropRun { run } => {
                out.push(5);
                write_uvarint(&mut out, *run);
            }
            Entry::Seal { run, segments } => {
                out.push(6);
                encode_transition(&mut out, run, segments);
            }
            Entry::Merge { run, runs } => {
                out.push(7);
                encode_transition(&mut out, run, runs);
            }
            Entry::RemoveRun { key, run, len } => {
                out.push(8);
                out.extend_from_slice(&key.0);
                write_uvarint(&mut out, *run);
                write_uvarint(&mut out, *len);
            }
            Entry::Revive { key, run } => {
                out.push(9);
                out.extend_from_slice(&key.0);
                write_uvarint(&mut out, *run);
            }
        }
        let mut h = Fnv1a::new();
        h.update(&out);
        write_u64_le(&mut out, h.digest());
        out
    }

    /// Parse one entry from the front of `bytes`; `None` if the bytes
    /// do not form a complete, checksum-valid entry (the torn-tail
    /// signal for replay — never an error, never a panic, and never an
    /// allocation the bytes cannot pay for).
    pub fn decode(bytes: &[u8]) -> Option<(Entry, usize)> {
        let mut pos = 1;
        let entry = match *bytes.first()? {
            1 => {
                let key = take_key(bytes, &mut pos)?;
                let segment = read_uvarint(bytes, &mut pos).ok()?;
                let offset = read_uvarint(bytes, &mut pos).ok()?;
                let len = read_uvarint(bytes, &mut pos).ok()?;
                let algorithm = Algorithm::from_tag(*bytes.get(pos)?).ok()?;
                pos += 1;
                let original_len = read_uvarint(bytes, &mut pos).ok()?;
                Entry::Add {
                    key,
                    location: Location {
                        segment,
                        offset,
                        len,
                        algorithm,
                        original_len,
                    },
                }
            }
            2 => Entry::Remove {
                key: take_key(bytes, &mut pos)?,
            },
            3 => Entry::DropSegment {
                segment: read_uvarint(bytes, &mut pos).ok()?,
            },
            4 => Entry::AddRun {
                meta: RunMeta::decode(bytes, &mut pos)?,
            },
            5 => Entry::DropRun {
                run: read_uvarint(bytes, &mut pos).ok()?,
            },
            6 => {
                let (run, segments) = decode_transition(bytes, &mut pos)?;
                Entry::Seal { run, segments }
            }
            7 => {
                let (run, runs) = decode_transition(bytes, &mut pos)?;
                Entry::Merge { run, runs }
            }
            8 => {
                let key = take_key(bytes, &mut pos)?;
                let run = read_uvarint(bytes, &mut pos).ok()?;
                let len = read_uvarint(bytes, &mut pos).ok()?;
                Entry::RemoveRun { key, run, len }
            }
            9 => {
                let key = take_key(bytes, &mut pos)?;
                let run = read_uvarint(bytes, &mut pos).ok()?;
                Entry::Revive { key, run }
            }
            _ => return None,
        };
        let mut h = Fnv1a::new();
        h.update(&bytes[..pos]);
        let stored = read_u64_le(bytes, &mut pos).ok()?;
        (stored == h.digest()).then_some((entry, pos))
    }
}

fn encode_transition(out: &mut Vec<u8>, run: &Option<RunMeta>, dropped: &[u64]) {
    assert!(
        dropped.len() <= MAX_DROP_LIST,
        "compaction must chunk drop lists at {MAX_DROP_LIST}"
    );
    match run {
        Some(meta) => {
            out.push(1);
            meta.encode_into(out);
        }
        None => out.push(0),
    }
    write_uvarint(out, dropped.len() as u64);
    for id in dropped {
        write_uvarint(out, *id);
    }
}

fn decode_transition(bytes: &[u8], pos: &mut usize) -> Option<(Option<RunMeta>, Vec<u64>)> {
    let run = match *bytes.get(*pos)? {
        0 => {
            *pos += 1;
            None
        }
        1 => {
            *pos += 1;
            Some(RunMeta::decode(bytes, pos)?)
        }
        _ => return None,
    };
    let count = read_uvarint(bytes, pos).ok()? as usize;
    // Affordability: the cap bounds the allocation, and each id is at
    // least one byte, so the count must also fit the bytes present.
    if count > MAX_DROP_LIST || count > bytes.len().saturating_sub(*pos) {
        return None;
    }
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        ids.push(read_uvarint(bytes, pos).ok()?);
    }
    Some((run, ids))
}

fn take_key(bytes: &[u8], pos: &mut usize) -> Option<ContentKey> {
    let slice = bytes.get(*pos..*pos + 16)?;
    *pos += 16;
    let mut key = [0u8; 16];
    key.copy_from_slice(slice);
    Some(ContentKey(key))
}

/// Accounting from replaying a manifest log (the entries themselves
/// stream through the caller's visitor).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Committed entries seen.
    pub entries: u64,
    /// Byte length of the valid prefix (the commit frontier).
    pub valid_len: u64,
    /// Bytes past the frontier that were discarded — the torn tail of
    /// an interrupted append (zero on a clean shutdown).
    pub discarded: u64,
}

/// Path of the manifest log under a store directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_NAME)
}

/// Replay `dir`'s manifest, streaming each committed entry into `sink`
/// in log order. A missing log is an empty store, not an error. Memory
/// stays O([`MAX_ENTRY_BYTES`]) however long the history: the log is
/// read through a buffered reader and the parse buffer is drained as
/// entries complete.
pub fn replay(dir: &Path, mut sink: impl FnMut(Entry)) -> Result<ReplayStats, StoreError> {
    let file = match File::open(manifest_path(dir)) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ReplayStats::default()),
        Err(e) => return Err(StoreError::io("opening manifest", e)),
    };
    let file_len = file
        .metadata()
        .map_err(|e| StoreError::io("statting manifest", e))?
        .len();
    let mut reader = std::io::BufReader::with_capacity(64 << 10, file);
    let mut buf: Vec<u8> = Vec::new();
    let mut start = 0usize;
    let mut eof = false;
    let mut stats = ReplayStats::default();
    loop {
        // Keep MAX_ENTRY_BYTES of lookahead (or to EOF): any entry that
        // cannot decode with that much runway cannot decode at all.
        while !eof && buf.len() - start < MAX_ENTRY_BYTES {
            let chunk = reader
                .fill_buf()
                .map_err(|e| StoreError::io("reading manifest", e))?;
            if chunk.is_empty() {
                eof = true;
                break;
            }
            let n = chunk.len();
            buf.extend_from_slice(chunk);
            reader.consume(n);
        }
        if start >= buf.len() {
            break; // clean end of log
        }
        match Entry::decode(&buf[start..]) {
            Some((entry, used)) => {
                stats.entries += 1;
                stats.valid_len += used as u64;
                start += used;
                sink(entry);
                if start >= MAX_ENTRY_BYTES {
                    buf.drain(..start);
                    start = 0;
                }
            }
            None => break, // torn tail (or damage): the frontier is here
        }
    }
    stats.discarded = file_len - stats.valid_len;
    Ok(stats)
}

/// [`replay`] with the entries collected into a `Vec` — for tests and
/// tooling; the store itself folds entries as they stream.
pub fn replay_collect(dir: &Path) -> Result<(Vec<Entry>, ReplayStats), StoreError> {
    let mut entries = Vec::new();
    let stats = replay(dir, |e| entries.push(e))?;
    Ok((entries, stats))
}

/// Concatenated wire encoding of `entries` (a checkpoint image).
pub fn encode_all(entries: &[Entry]) -> Vec<u8> {
    let mut buf = Vec::new();
    for e in entries {
        buf.extend_from_slice(&e.encode());
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn add(n: u8) -> Entry {
        Entry::Add {
            key: ContentKey([n; 16]),
            location: Location {
                segment: n as u64,
                offset: 100 * n as u64,
                len: 40,
                algorithm: Algorithm::Ctw,
                original_len: 1u64 << (n % 60),
            },
        }
    }

    fn meta(id: u64, level: u32) -> RunMeta {
        RunMeta {
            id,
            level,
            records: 7 * id,
            bytes: 1000 + id,
            min_key: ContentKey([1; 16]),
            max_key: ContentKey([9; 16]),
        }
    }

    fn every_kind() -> Vec<Entry> {
        vec![
            add(3),
            Entry::Remove { key: ContentKey([9; 16]) },
            Entry::DropSegment { segment: 77 },
            Entry::AddRun { meta: meta(4, 1) },
            Entry::DropRun { run: 4 },
            Entry::Seal { run: Some(meta(5, 1)), segments: vec![0, 1, 2] },
            Entry::Seal { run: None, segments: vec![7] },
            Entry::Merge { run: Some(meta(6, 2)), runs: vec![4, 5] },
            Entry::Merge { run: None, runs: vec![6] },
            Entry::RemoveRun { key: ContentKey([8; 16]), run: 6, len: 120 },
            Entry::Revive { key: ContentKey([8; 16]), run: 6 },
        ]
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dnacomp-manifest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn entries_roundtrip() {
        for e in every_kind() {
            let bytes = e.encode();
            let (back, used) = Entry::decode(&bytes).unwrap();
            assert_eq!(back, e);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn every_kind_rejects_flips_and_cuts() {
        for e in every_kind() {
            let good = e.encode();
            for i in 0..good.len() {
                let mut bad = good.clone();
                bad[i] ^= 0x01;
                // A flip may still decode as a *different* valid prefix
                // only if the checksum matched — which it cannot.
                assert!(Entry::decode(&bad).is_none(), "{e:?} flip at {i}");
            }
            for cut in 0..good.len() {
                assert!(Entry::decode(&good[..cut]).is_none(), "{e:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn forged_drop_list_count_is_refused() {
        // Hand-build a Seal whose count field lies far past the cap and
        // the buffer; the decoder must refuse before allocating.
        let mut body = vec![6u8, 0u8];
        write_uvarint(&mut body, u64::MAX / 2);
        let mut h = Fnv1a::new();
        h.update(&body);
        write_u64_le(&mut body, h.digest());
        assert!(Entry::decode(&body).is_none());
        // And a count just past the cap with a valid checksum.
        let mut body = vec![7u8, 0u8];
        write_uvarint(&mut body, (MAX_DROP_LIST + 1) as u64);
        body.extend(vec![1u8; MAX_DROP_LIST + 1]);
        let mut h = Fnv1a::new();
        h.update(&body);
        write_u64_le(&mut body, h.digest());
        assert!(Entry::decode(&body).is_none());
    }

    #[test]
    fn replay_stops_at_torn_tail() {
        let dir = tmp_dir("torn");
        let mut log = Vec::new();
        log.extend_from_slice(&add(1).encode());
        log.extend_from_slice(&add(2).encode());
        let full = log.len();
        // Tear the third entry at every possible byte boundary: the two
        // committed entries must always replay; the torn one never.
        let third = Entry::Seal { run: Some(meta(3, 1)), segments: vec![0, 1] }.encode();
        for cut in 0..third.len() {
            let mut torn = log.clone();
            torn.extend_from_slice(&third[..cut]);
            fs::write(manifest_path(&dir), &torn).unwrap();
            let (entries, stats) = replay_collect(&dir).unwrap();
            assert_eq!(entries, vec![add(1), add(2)], "cut {cut}");
            assert_eq!(stats.valid_len, full as u64);
            assert_eq!(stats.discarded, cut as u64);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_empty_store() {
        let dir = tmp_dir("missing");
        let (entries, stats) = replay_collect(&dir).unwrap();
        assert!(entries.is_empty());
        assert_eq!(stats.valid_len, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_byte_ends_replay_there() {
        let dir = tmp_dir("flip");
        let mut log = Vec::new();
        log.extend_from_slice(&add(1).encode());
        let first = log.len();
        log.extend_from_slice(&add(2).encode());
        log[first + 5] ^= 0x01; // damage the second entry
        fs::write(manifest_path(&dir), &log).unwrap();
        let (entries, stats) = replay_collect(&dir).unwrap();
        assert_eq!(entries, vec![add(1)]);
        assert!(stats.discarded > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_replay_matches_whole_file_parse_on_a_long_log() {
        // A log several buffer-refills long, with a torn tail, replayed
        // entry-for-entry identically to an in-memory parse.
        let dir = tmp_dir("long");
        let mut log = Vec::new();
        let mut expect = Vec::new();
        let mut i = 0u64;
        while log.len() < 5 * MAX_ENTRY_BYTES {
            let e = match i % 4 {
                0 => add((i % 200) as u8),
                1 => Entry::RemoveRun { key: ContentKey([(i % 251) as u8; 16]), run: i, len: i },
                2 => Entry::Seal {
                    run: Some(meta(i, 1)),
                    segments: (0..(i % 60)).collect(),
                },
                _ => Entry::Revive { key: ContentKey([(i % 13) as u8; 16]), run: i },
            };
            log.extend_from_slice(&e.encode());
            expect.push(e);
            i += 1;
        }
        let frontier = log.len();
        log.extend_from_slice(&add(9).encode()[..7]); // torn tail
        fs::write(manifest_path(&dir), &log).unwrap();

        let (entries, stats) = replay_collect(&dir).unwrap();
        assert_eq!(entries.len(), expect.len());
        assert_eq!(entries, expect);
        assert_eq!(stats.valid_len, frontier as u64);
        assert_eq!(stats.discarded, 7);

        // Reference: parse the whole file in memory with Entry::decode.
        let bytes = fs::read(manifest_path(&dir)).unwrap();
        let mut pos = 0;
        let mut reference = Vec::new();
        while let Some((e, used)) = Entry::decode(&bytes[pos..]) {
            reference.push(e);
            pos += used;
        }
        assert_eq!(entries, reference);
        assert_eq!(pos, frontier);
        fs::remove_dir_all(&dir).unwrap();
    }
}
