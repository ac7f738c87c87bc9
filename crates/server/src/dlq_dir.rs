//! On-disk persistence for the dead-letter queue.
//!
//! `dnacomp serve --dlq-dir <dir>` drains the in-memory DLQ at
//! shutdown into one letter per content key; `dnacomp dlq
//! list|replay|drop` then operates on the directory offline. Each
//! letter is two files named by the key's hex form:
//!
//! - `<key>.dx` — the quarantined sequence as an [`Algorithm::Raw`]
//!   container (checksummed, so a corrupted letter is detected on
//!   load rather than replayed as garbage), framed in blocks of
//!   [`MAX_PREALLOC_BASES`] when it is longer than one flat container
//!   may hold. Written and fsynced first.
//! - `<key>.json` — the offense record plus the request's context,
//!   written to `<key>.json.tmp`, fsynced and renamed into place. The
//!   rename is the commit point, and the directory is fsynced after
//!   it: a crash before it leaves no record, so the letter is
//!   invisible to `list` and harmlessly overwritten by the next save.
//!
//! `list` skips a record it cannot read or parse (an older version
//! wrote records in place, so a crash could tear one) and reports how
//! many it skipped instead of failing.
//!
//! Replaying from disk rebuilds a [`CompressRequest`] at normal
//! priority with no deadline — a replay is a fresh human decision,
//! not a re-run of the original submission's scheduling.

use crate::dlq::{DeadLetter, DeadLetterInfo};
use crate::service::CompressRequest;
use dnacomp_algos::blob::MAX_PREALLOC_BASES;
use dnacomp_algos::{compressor_for, frame, Algorithm, CompressedBlob};
use dnacomp_core::Context;
use dnacomp_store::ContentKey;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The JSON half of one persisted letter: the listing summary plus
/// what `replay` needs to rebuild the request.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct PersistedLetter {
    info: DeadLetterInfo,
    ram_mb: u32,
    cpu_mhz: u32,
    bandwidth_mbps: f64,
    file_bytes: u64,
    exchange: bool,
}

/// Write `bytes` to a fresh `path` and fsync it.
fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), String> {
    File::create(path)
        .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// A directory of persisted dead letters.
pub struct DlqDir {
    dir: PathBuf,
}

impl DlqDir {
    /// Open (creating if needed) a dead-letter directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, String> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("creating dlq dir {}: {e}", dir.display()))?;
        Ok(DlqDir { dir })
    }

    fn json_path(&self, key: &ContentKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.to_hex()))
    }

    fn dx_path(&self, key: &ContentKey) -> PathBuf {
        self.dir.join(format!("{}.dx", key.to_hex()))
    }

    fn sync_dir(&self) -> Result<(), String> {
        File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| format!("syncing dlq dir {}: {e}", self.dir.display()))
    }

    /// Persist one letter durably (see module docs for the commit
    /// protocol). Saving a key that is already present overwrites it.
    pub fn save(&self, letter: &DeadLetter) -> Result<(), String> {
        let (seq, raw) = (&letter.request.sequence, compressor_for(Algorithm::Raw));
        let packed = if seq.len() > MAX_PREALLOC_BASES {
            frame::compress_serial(&*raw, seq, MAX_PREALLOC_BASES).map(|f| f.to_bytes())
        } else {
            raw.compress(seq).map(|b| b.to_bytes())
        };
        let packed = packed.map_err(|e| format!("packing letter {}: {e}", letter.key))?;
        write_synced(&self.dx_path(&letter.key), &packed)?;
        let record = PersistedLetter {
            info: letter.info(),
            ram_mb: letter.request.context.ram_mb,
            cpu_mhz: letter.request.context.cpu_mhz,
            bandwidth_mbps: letter.request.context.bandwidth_mbps,
            file_bytes: letter.request.context.file_bytes,
            exchange: letter.request.exchange,
        };
        let json = serde_json::to_string(&record)
            .map_err(|e| format!("encoding letter {}: {e}", letter.key.to_hex()))?;
        let path = self.json_path(&letter.key);
        let tmp = path.with_extension("json.tmp");
        write_synced(&tmp, json.as_bytes())?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("committing {}: {e}", path.display()))?;
        self.sync_dir()
    }

    /// Summaries of every persisted letter, sorted by key for
    /// deterministic listings, and how many records were skipped
    /// because they could not be read or parsed.
    pub fn list(&self) -> Result<(Vec<DeadLetterInfo>, usize), String> {
        let (mut infos, mut skipped) = (Vec::new(), 0);
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| format!("reading dlq dir {}: {e}", self.dir.display()))?;
        for entry in entries {
            let path = entry
                .map_err(|e| format!("reading dlq dir {}: {e}", self.dir.display()))?
                .path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let record = std::fs::read_to_string(&path).ok();
            match record.and_then(|t| serde_json::from_str::<PersistedLetter>(&t).ok()) {
                Some(record) => infos.push(record.info),
                None => skipped += 1,
            }
        }
        infos.sort_by(|a, b| a.key.cmp(&b.key));
        Ok((infos, skipped))
    }

    /// The listing as a JSON array (what `dnacomp dlq list --json`
    /// prints), and the count of skipped records.
    pub fn list_json(&self) -> Result<(String, usize), String> {
        let (infos, skipped) = self.list()?;
        let json =
            serde_json::to_string(&infos).map_err(|e| format!("encoding dlq listing: {e}"))?;
        Ok((json, skipped))
    }

    /// Load one letter: the offense record plus a replayable request
    /// (checksum-verified payload). Errors if the key is not persisted
    /// or the payload is corrupt.
    pub fn load(&self, key: &ContentKey) -> Result<(DeadLetterInfo, CompressRequest), String> {
        let path = self.json_path(key);
        let text = std::fs::read_to_string(&path)
            .map_err(|_| format!("no dead letter with key {}", key.to_hex()))?;
        let record: PersistedLetter = serde_json::from_str(&text)
            .map_err(|e| format!("parsing {}: {e}", path.display()))?;
        let dx = self.dx_path(key);
        let bytes =
            std::fs::read(&dx).map_err(|e| format!("reading {}: {e}", dx.display()))?;
        let blob = CompressedBlob::from_bytes(&bytes)
            .map_err(|e| format!("{}: {e}", dx.display()))?;
        let seq = compressor_for(blob.algorithm)
            .decompress(&blob)
            .map_err(|e| format!("unpacking {}: {e}", dx.display()))?;
        let mut req = CompressRequest::new(
            record.info.file.clone(),
            seq,
            Context {
                ram_mb: record.ram_mb,
                cpu_mhz: record.cpu_mhz,
                bandwidth_mbps: record.bandwidth_mbps,
                file_bytes: record.file_bytes,
            },
        );
        req.exchange = record.exchange;
        Ok((record.info, req))
    }

    /// Remove a persisted letter: record first (so a crash mid-removal
    /// never leaves a listed letter without its payload), then payload,
    /// then fsync the directory. Returns `false` if absent.
    pub fn remove(&self, key: &ContentKey) -> Result<bool, String> {
        let json = self.json_path(key);
        if !json.exists() {
            return Ok(false);
        }
        std::fs::remove_file(&json).map_err(|e| format!("removing {}: {e}", json.display()))?;
        let dx = self.dx_path(key);
        if dx.exists() {
            std::fs::remove_file(&dx).map_err(|e| format!("removing {}: {e}", dx.display()))?;
        }
        self.sync_dir()?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnacomp_seq::gen::GenomeModel;

    fn letter(i: u64) -> DeadLetter {
        let seq = GenomeModel::default().generate(200 + i as usize, i);
        let key = ContentKey::of_sequence(&seq);
        let mut request = CompressRequest::new(
            format!("poison_{i}"),
            seq,
            Context {
                ram_mb: 2048,
                cpu_mhz: 2393,
                bandwidth_mbps: 2.0,
                file_bytes: 200 + i,
            },
        );
        request.exchange = i.is_multiple_of(2);
        DeadLetter {
            key,
            strikes: 2,
            last_error: format!("injected panic {i}"),
            request,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dnacomp-dlqdir-{name}-{}", std::process::id()))
    }

    #[test]
    fn save_list_load_remove_roundtrip() {
        let dir = tmp("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let dlq = DlqDir::open(&dir).unwrap();
        let (a, b) = (letter(1), letter(2));
        dlq.save(&a).unwrap();
        dlq.save(&b).unwrap();

        let mut infos = dlq.list().unwrap().0;
        assert_eq!(infos.len(), 2);
        infos.sort_by(|x, y| x.file.cmp(&y.file));
        assert_eq!(infos[0].file, "poison_1");
        assert_eq!(infos[1].last_error, "injected panic 2");

        let (info, req) = dlq.load(&a.key).unwrap();
        assert_eq!(info, a.info());
        assert_eq!(req.sequence, a.request.sequence);
        assert_eq!(req.context.cpu_mhz, 2393);
        assert_eq!(req.exchange, a.request.exchange);

        assert!(dlq.remove(&a.key).unwrap());
        assert!(!dlq.remove(&a.key).unwrap());
        assert_eq!(dlq.list().unwrap().0.len(), 1);
        assert!(dlq.load(&a.key).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_payload_is_detected_on_load() {
        let dir = tmp("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let dlq = DlqDir::open(&dir).unwrap();
        let l = letter(3);
        dlq.save(&l).unwrap();
        // Flip a payload byte: the container checksum must catch it.
        let dx = dlq.dx_path(&l.key);
        let mut bytes = std::fs::read(&dx).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&dx, &bytes).unwrap();
        assert!(dlq.load(&l.key).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_letter_longer_than_one_flat_container_saves_loads_and_lists() {
        let dir = tmp("long");
        let _ = std::fs::remove_dir_all(&dir);
        let dlq = DlqDir::open(&dir).unwrap();
        let len = MAX_PREALLOC_BASES + 1;
        let codes: Vec<u8> = (0..len)
            .map(|i| ((i * 2_654_435_761) >> 13) as u8 & 3)
            .collect();
        let mut long = letter(4);
        long.request.sequence = dnacomp_seq::PackedSeq::from_codes(&codes);
        long.key = ContentKey::of_sequence(&long.request.sequence);
        dlq.save(&long).unwrap();
        let (info, req) = dlq.load(&long.key).unwrap();
        assert_eq!(info.original_len, len);
        assert_eq!(req.sequence, long.request.sequence);
        assert_eq!(dlq.list().unwrap(), (vec![long.info()], 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
