//! Hinted handoff: persisted IOUs for replicas that missed a write.
//!
//! When a quorum write commits but a replica missed it (down, or failed
//! in transport), the router owes that shard a copy. The containers
//! owed to shard `id`, exactly as a committed replica serves them, live
//! in a [`SequenceStore`] at `<dir>/s<id>/`, keyed by content key. The
//! store is the commit point (its fsync'd manifest entry), the at-rest
//! checksum (a damaged hint is refused on load, never shipped) and the
//! crash recovery (a torn tail is truncated on open, so a torn hint
//! never stops the router). Re-hinting a pending `(shard, key)` keeps
//! the pending copy: both containers decode to the same bases.
//!
//! The queue is **bounded**: once `cap` hints are pending across all
//! shards, new ones are dropped (and counted by the router), and
//! `route repair` ([`crate::router::sweep`]) converges what hinting
//! could not hold. The prober drains a healthy shard's hints over the
//! checksummed `MigrateBatch` path, removing each only after the shard
//! acknowledges it. Re-opening the directory reopens every `s<id>`
//! store, so hints survive a restart; any other entry (such as an older
//! router's `<key>-s<id>.json`) is ignored. A panic that poisons the
//! queue's lock is recovered from (`dlq::lock_recover`): each store is
//! consistent at every commit point on its own.

use crate::dlq::lock_recover;
use dnacomp_algos::CompressedBlob;
use dnacomp_store::{ContentKey, SequenceStore, StoreConfig, StoreError};
use std::collections::btree_map::{BTreeMap, Entry};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A bounded set of per-shard hint stores.
#[derive(Debug)]
pub struct HintQueue {
    dir: PathBuf,
    cap: usize,
    /// One store per shard that has been owed a hint, by shard id.
    stores: Mutex<BTreeMap<u32, SequenceStore>>,
}

fn open_store(dir: &Path) -> Result<SequenceStore, String> {
    SequenceStore::open(dir, StoreConfig::default())
        .map_err(|e| format!("opening hint store {}: {e}", dir.display()))
}

fn total(stores: &BTreeMap<u32, SequenceStore>) -> usize {
    stores.values().map(SequenceStore::len).sum()
}

impl HintQueue {
    /// Open (creating if needed) a hint directory and every `s<id>`
    /// shard store in it, recovering each to its last commit point.
    pub fn open(dir: impl AsRef<Path>, cap: usize) -> Result<HintQueue, String> {
        let dir = dir.as_ref().to_path_buf();
        let io = |e: std::io::Error| format!("hint dir {}: {e}", dir.display());
        std::fs::create_dir_all(&dir).map_err(io)?;
        let mut stores = BTreeMap::new();
        for entry in std::fs::read_dir(&dir).map_err(io)? {
            let path = entry.map_err(io)?.path();
            let name = path.file_name().and_then(|n| n.to_str());
            if let Some(shard) = name.and_then(|n| n.strip_prefix('s')?.parse().ok()) {
                stores.insert(shard, open_store(&path)?);
            }
        }
        Ok(HintQueue {
            dir,
            cap: cap.max(1),
            stores: Mutex::new(stores),
        })
    }

    /// Run `f` on `shard`'s store, if it has one.
    fn with_store<T>(&self, shard: u32, f: impl FnOnce(&SequenceStore) -> T) -> Option<T> {
        lock_recover(&self.stores).get(&shard).map(f)
    }

    /// Hints currently pending (all shards).
    pub fn pending(&self) -> usize {
        total(&lock_recover(&self.stores))
    }

    /// Persist one hint: the container bytes owed to `shard` under
    /// `key`, checked to parse as a `DX` container first. Returns
    /// `Ok(false)` when the queue is at capacity and the hint was
    /// **dropped** (the caller should count it — repair is now the only
    /// path that converges this replica). Re-hinting a pending
    /// `(shard, key)` keeps the pending copy and is not a drop.
    pub fn save(&self, shard: u32, key: &[u8; 16], container: &[u8]) -> Result<bool, String> {
        let key = ContentKey(*key);
        let blob = CompressedBlob::from_bytes(container).map_err(|e| format!("hint {key}: {e}"))?;
        let mut stores = lock_recover(&self.stores);
        let pending = stores.get(&shard).is_some_and(|s| s.contains(&key));
        if !pending && total(&stores) >= self.cap {
            return Ok(false);
        }
        if let Entry::Vacant(e) = stores.entry(shard) {
            e.insert(open_store(&self.dir.join(format!("s{shard}")))?);
        }
        stores[&shard]
            .put_with_key(key, &blob)
            .map(|_| true)
            .map_err(|e| format!("saving hint {key} for shard {shard}: {e}"))
    }

    /// Keys with pending hints for `shard`, in key order.
    pub fn for_shard(&self, shard: u32) -> Vec<[u8; 16]> {
        self.with_store(shard, |s| s.keys().into_iter().map(|k| k.0).collect())
            .unwrap_or_default()
    }

    /// Load one hint's container bytes. The store refuses a record
    /// that fails its checksum, so a damaged hint errors here instead
    /// of being shipped.
    pub fn load(&self, shard: u32, key: &[u8; 16]) -> Result<Vec<u8>, String> {
        let key = ContentKey(*key);
        self.with_store(shard, |s| s.get(&key))
            .unwrap_or(Err(StoreError::NotFound(key)))
            .map(|blob| blob.to_bytes())
            .map_err(|e| format!("loading hint {key} for shard {shard}: {e}"))
    }

    /// Remove a delivered (or condemned) hint; `false` if absent.
    pub fn remove(&self, shard: u32, key: &[u8; 16]) -> Result<bool, String> {
        let key = ContentKey(*key);
        self.with_store(shard, |s| s.remove(&key))
            .unwrap_or(Ok(false))
            .map_err(|e| format!("removing hint {key} for shard {shard}: {e}"))
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
        // Re-hinting a pending pair keeps the pending copy, not a duplicate.
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
            let _guard = holder.stores.lock().unwrap();
            panic!("panic while holding the hint queue lock");
        })
        .join();
        assert!(died.is_err() && q.stores.is_poisoned());
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
        let seg = dir.join("s2").join(dnacomp_store::segment::segment_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&seg, &bytes).unwrap();
        assert!(q.load(2, &k).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
