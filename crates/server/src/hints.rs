//! Hinted handoff: persisted IOUs for replicas that missed a write.
//!
//! When a quorum write commits but one replica was down (or failed in
//! transport), the router owes that shard a copy. The hint queue is
//! the durable record of that debt: one hint per `(shard, key)` pair,
//! stored as two files in the same commit-point discipline as
//! [`crate::dlq_dir`]:
//!
//! - `<key>-s<shard>.dx` — the canonical container bytes exactly as a
//!   committed replica serves them, written first;
//! - `<key>-s<shard>.json` — the hint record (shard id, key, FNV-1a
//!   checksum of the payload bytes), written second.
//!   The JSON file is the commit point: a hint without it (a crash
//!   between the two writes) is invisible and harmlessly overwritten
//!   by the next save. The record's checksum covers the *container
//!   bytes at rest* (the `DX` format's own checksum covers the
//!   original sequence and is only checked at decompress time), so a
//!   torn or bit-flipped hint is refused on load rather than shipped
//!   as garbage.
//!
//! The queue is **bounded**: once `cap` hints are pending, new ones
//! are dropped (and counted by the router) — anti-entropy
//! ([`crate::router::repair`]) is the backstop that converges what
//! hinting could not hold. The prober drains hints to a shard as soon
//! as it is healthy, shipping each payload over the checksummed
//! `MigrateBatch` path and deleting the hint only after the shard
//! acknowledges the batch. Re-opening the directory rebuilds the
//! pending index, so hints survive a router restart.
//!
//! The in-memory index is updated after its files, so it is valid after
//! any prefix of a save or remove: a panic that poisons its lock is
//! recovered from (`dlq::lock_recover`), never re-raised.

use crate::dlq::lock_recover;
use dnacomp_algos::CompressedBlob;
use dnacomp_codec::checksum::fnv1a;
use dnacomp_store::ContentKey;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The JSON half of one persisted hint.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct HintRecord {
    /// Ring id of the shard owed this copy.
    shard: u32,
    /// Content key, hex-encoded (matches the file stem). Records
    /// from older routers carry an `epoch` key too; unknown keys are
    /// ignored on load.
    key: String,
    /// FNV-1a over the `.dx` payload bytes, checked on load.
    #[serde(default)]
    checksum: u64,
}

/// A bounded directory of pending handoff hints.
#[derive(Debug)]
pub struct HintQueue {
    dir: PathBuf,
    cap: usize,
    /// Pending `(shard, key)` pairs, rebuilt from disk on open.
    index: Mutex<BTreeSet<(u32, [u8; 16])>>,
}

impl HintQueue {
    /// Open (creating if needed) a hint directory and rebuild the
    /// pending index from its commit points. Records that fail to
    /// parse are an error — a hint dir the router cannot account for
    /// is worse than no hint dir.
    pub fn open(dir: impl AsRef<Path>, cap: usize) -> Result<HintQueue, String> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("creating hint dir {}: {e}", dir.display()))?;
        let mut index = BTreeSet::new();
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| format!("reading hint dir {}: {e}", dir.display()))?;
        for entry in entries {
            let path = entry
                .map_err(|e| format!("reading hint dir {}: {e}", dir.display()))?
                .path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let record: HintRecord = serde_json::from_str(&text)
                .map_err(|e| format!("parsing {}: {e}", path.display()))?;
            let key = ContentKey::from_hex(&record.key)
                .ok_or_else(|| format!("{}: malformed key hex", path.display()))?;
            index.insert((record.shard, key.0));
        }
        Ok(HintQueue {
            dir,
            cap: cap.max(1),
            index: Mutex::new(index),
        })
    }

    fn stem(&self, shard: u32, key: &[u8; 16]) -> String {
        format!("{}-s{shard}", ContentKey(*key).to_hex())
    }

    fn dx_path(&self, shard: u32, key: &[u8; 16]) -> PathBuf {
        self.dir.join(format!("{}.dx", self.stem(shard, key)))
    }

    fn json_path(&self, shard: u32, key: &[u8; 16]) -> PathBuf {
        self.dir.join(format!("{}.json", self.stem(shard, key)))
    }

    /// Hints currently pending (all shards).
    pub fn pending(&self) -> usize {
        lock_recover(&self.index).len()
    }

    /// Persist one hint: the container bytes owed to `shard` under
    /// `key`. Returns `Ok(false)` when the queue is at capacity and
    /// the hint was **dropped** (the caller should count it — repair
    /// is now the only path that converges this replica). Re-hinting
    /// a pending `(shard, key)` overwrites in place and is not a drop.
    pub fn save(&self, shard: u32, key: &[u8; 16], container: &[u8]) -> Result<bool, String> {
        let mut index = lock_recover(&self.index);
        if !index.contains(&(shard, *key)) && index.len() >= self.cap {
            return Ok(false);
        }
        let dx = self.dx_path(shard, key);
        std::fs::write(&dx, container).map_err(|e| format!("writing {}: {e}", dx.display()))?;
        let record = HintRecord {
            shard,
            key: ContentKey(*key).to_hex(),
            checksum: fnv1a(container),
        };
        let json = serde_json::to_string(&record)
            .map_err(|e| format!("encoding hint {}: {e}", self.stem(shard, key)))?;
        let path = self.json_path(shard, key);
        std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        index.insert((shard, *key));
        Ok(true)
    }

    /// Keys with pending hints for `shard`, in key order.
    pub fn for_shard(&self, shard: u32) -> Vec<[u8; 16]> {
        lock_recover(&self.index)
            .range((shard, [0u8; 16])..=(shard, [0xffu8; 16]))
            .map(|&(_, k)| k)
            .collect()
    }

    /// Load one hint's container bytes, verified against the record's
    /// at-rest checksum and re-parsed as a `DX` container, so a torn
    /// or bit-flipped payload is refused here instead of shipped.
    pub fn load(&self, shard: u32, key: &[u8; 16]) -> Result<Vec<u8>, String> {
        let json = self.json_path(shard, key);
        let text =
            std::fs::read_to_string(&json).map_err(|e| format!("reading {}: {e}", json.display()))?;
        let record: HintRecord =
            serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", json.display()))?;
        let dx = self.dx_path(shard, key);
        let bytes = std::fs::read(&dx).map_err(|e| format!("reading {}: {e}", dx.display()))?;
        if fnv1a(&bytes) != record.checksum {
            return Err(format!("{}: payload checksum mismatch", dx.display()));
        }
        CompressedBlob::from_bytes(&bytes).map_err(|e| format!("{}: {e}", dx.display()))?;
        Ok(bytes)
    }

    /// Remove a delivered (or condemned) hint — record first, payload
    /// second, the reverse of `save`. Returns `false` if absent.
    pub fn remove(&self, shard: u32, key: &[u8; 16]) -> Result<bool, String> {
        let mut index = lock_recover(&self.index);
        let json = self.json_path(shard, key);
        if json.exists() {
            std::fs::remove_file(&json)
                .map_err(|e| format!("removing {}: {e}", json.display()))?;
        }
        let dx = self.dx_path(shard, key);
        if dx.exists() {
            std::fs::remove_file(&dx).map_err(|e| format!("removing {}: {e}", dx.display()))?;
        }
        Ok(index.remove(&(shard, *key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnacomp_algos::{compressor_for, Algorithm};
    use dnacomp_seq::gen::GenomeModel;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dnacomp-hints-{name}-{}", std::process::id()))
    }

    fn payload(i: u64) -> ([u8; 16], Vec<u8>) {
        let seq = GenomeModel::default().generate(150 + i as usize, i);
        let key = ContentKey::of_sequence(&seq).0;
        let blob = compressor_for(Algorithm::Raw).compress(&seq).unwrap();
        (key, blob.to_bytes())
    }

    #[test]
    fn save_load_remove_and_restart_recovery() {
        let dir = tmp("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let q = HintQueue::open(&dir, 16).unwrap();
        let (k1, b1) = payload(1);
        let (k2, b2) = payload(2);
        assert!(q.save(7, &k1, &b1).unwrap());
        assert!(q.save(7, &k2, &b2).unwrap());
        assert!(q.save(9, &k1, &b1).unwrap());
        assert_eq!(q.pending(), 3);
        assert_eq!(q.for_shard(7).len(), 2);
        assert_eq!(q.for_shard(9), vec![k1]);
        assert_eq!(q.load(7, &k1).unwrap(), b1);
        // Re-hinting a pending pair overwrites, not duplicates.
        assert!(q.save(7, &k1, &b1).unwrap());
        assert_eq!(q.pending(), 3);

        // A fresh open rebuilds the index from the commit points.
        drop(q);
        let q = HintQueue::open(&dir, 16).unwrap();
        assert_eq!(q.pending(), 3);
        assert_eq!(q.load(9, &k1).unwrap(), b1);

        assert!(q.remove(7, &k1).unwrap());
        assert!(!q.remove(7, &k1).unwrap());
        assert_eq!(q.pending(), 2);
        assert!(q.load(7, &k1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn capacity_bound_drops_new_hints_but_not_rehints() {
        let dir = tmp("cap");
        let _ = std::fs::remove_dir_all(&dir);
        let q = HintQueue::open(&dir, 2).unwrap();
        let (k1, b1) = payload(3);
        let (k2, b2) = payload(4);
        let (k3, b3) = payload(5);
        assert!(q.save(1, &k1, &b1).unwrap());
        assert!(q.save(1, &k2, &b2).unwrap());
        assert!(!q.save(1, &k3, &b3).unwrap(), "over-cap hint must drop");
        assert!(q.save(1, &k2, &b2).unwrap(), "re-hint is not a drop");
        assert_eq!(q.pending(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_poisoned_index_still_serves_every_operation() {
        let dir = tmp("poison");
        let _ = std::fs::remove_dir_all(&dir);
        let q = std::sync::Arc::new(HintQueue::open(&dir, 4).unwrap());
        let (k1, b1) = payload(7);
        assert!(q.save(3, &k1, &b1).unwrap());
        let holder = std::sync::Arc::clone(&q);
        let died = std::thread::spawn(move || {
            let _guard = holder.index.lock().unwrap();
            panic!("panic while holding the hint index");
        })
        .join();
        assert!(died.is_err() && q.index.is_poisoned());
        assert_eq!(q.pending(), 1);
        let (k2, b2) = payload(8);
        assert!(q.save(3, &k2, &b2).unwrap());
        assert_eq!(q.for_shard(3).len(), 2);
        assert!(q.remove(3, &k1).unwrap());
        assert_eq!(q.for_shard(3), vec![k2]);
        assert_eq!(q.load(3, &k2).unwrap(), b2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_payloads_are_refused_on_load() {
        let dir = tmp("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let q = HintQueue::open(&dir, 4).unwrap();
        let (k, b) = payload(6);
        assert!(q.save(2, &k, &b).unwrap());
        let dx = q.dx_path(2, &k);
        let mut bytes = std::fs::read(&dx).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&dx, &bytes).unwrap();
        assert!(q.load(2, &k).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
