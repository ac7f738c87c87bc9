//! The simulated storage account.
//!
//! §IV-A: *"a storage account (SAAS) was used to store the uploaded files
//! in the form of Blobs (Binary large object). A container is created and
//! these files are uploaded as BLOBs."* Uploading requires "the file to
//! be converted into a continuous stream and then uploaded as BLOB"
//! (§VI) — the CPU-bound step the perf model charges for.
//!
//! Blobs are stored **block-granular**, mirroring the Put Block / Put
//! Block List protocol of Azure block blobs: blocks are staged
//! individually (with a checksum recorded per block at staging time) and
//! the blob only materialises on [`BlobStore::commit`]. This is what
//! makes uploads *resumable* — after a transient failure only the missing
//! blocks need re-staging — and lets downloads verify and re-fetch
//! individual blocks.
//!
//! **Block-count invariant:** a blob of `len` bytes always occupies
//! exactly `len.div_ceil(block_bytes)` blocks. In particular a zero-byte
//! blob occupies **zero** blocks — an empty upload is a bare Put Blob
//! request that stages nothing, and every accounting surface
//! ([`BlobStore::upload`]'s block count, [`BlobStore::block_count`],
//! [`BlobStore::stored_bytes`]) agrees on that.

use dnacomp_codec::checksum::fnv1a;
use dnacomp_codec::CodecError;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Azure block blobs are staged in chunks; 4 MiB is the classic block
/// size for the 2014-era SDKs.
pub const BLOCK_BYTES: usize = 4 << 20;

/// Handle to a stored blob.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BlobHandle {
    /// Container name.
    pub container: String,
    /// Blob name within the container.
    pub name: String,
}

/// A committed blob: its staged blocks plus the checksum recorded for
/// each at staging time.
#[derive(Clone, Debug, Default)]
struct StoredBlob {
    blocks: Vec<Arc<[u8]>>,
    checksums: Vec<u64>,
}

impl StoredBlob {
    fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    fn concat(&self) -> Arc<[u8]> {
        let mut out = Vec::with_capacity(self.len());
        for b in &self.blocks {
            out.extend_from_slice(b);
        }
        out.into()
    }
}

/// The blocks staged for one in-flight upload: index → (data, checksum).
type Staged = BTreeMap<usize, (Arc<[u8]>, u64)>;

/// An in-memory storage account: containers of named blobs, plus the
/// staging area for in-flight block uploads.
#[derive(Clone, Debug)]
pub struct BlobStore {
    containers: HashMap<String, HashMap<String, StoredBlob>>,
    /// Staged-but-uncommitted blocks per (container, blob).
    pending: HashMap<(String, String), Staged>,
    block_bytes: usize,
}

impl Default for BlobStore {
    fn default() -> Self {
        BlobStore::new()
    }
}

impl BlobStore {
    /// Fresh empty account with the standard [`BLOCK_BYTES`] block size.
    pub fn new() -> Self {
        BlobStore::with_block_bytes(BLOCK_BYTES)
    }

    /// Fresh empty account with a custom block size (chaos tests shrink
    /// it to exercise multi-block uploads on small payloads).
    pub fn with_block_bytes(block_bytes: usize) -> Self {
        assert!(block_bytes > 0, "block size must be positive");
        BlobStore {
            containers: HashMap::new(),
            pending: HashMap::new(),
            block_bytes,
        }
    }

    /// The staging block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Number of blocks a `len`-byte blob occupies (zero for empty).
    pub fn blocks_for(&self, len: usize) -> usize {
        len.div_ceil(self.block_bytes)
    }

    /// Create a container (idempotent).
    pub fn create_container(&mut self, name: &str) {
        self.containers.entry(name.to_owned()).or_default();
    }

    /// `true` if the container exists.
    pub fn has_container(&self, name: &str) -> bool {
        self.containers.contains_key(name)
    }

    /// Stage one block of an in-flight upload (Azure Put Block). Its
    /// checksum is recorded now, so corruption on a later download is
    /// attributable to the wire, not the store. Re-staging an index
    /// replaces the previous attempt's block.
    pub fn stage_block(&mut self, container: &str, name: &str, index: usize, data: &[u8]) {
        assert!(
            data.len() <= self.block_bytes,
            "staged block exceeds block size"
        );
        self.pending
            .entry((container.to_owned(), name.to_owned()))
            .or_default()
            .insert(index, (Arc::from(data), fnv1a(data)));
    }

    /// How many blocks are currently staged for an in-flight upload.
    pub fn staged_blocks(&self, container: &str, name: &str) -> usize {
        self.pending
            .get(&(container.to_owned(), name.to_owned()))
            .map(|m| m.len())
            .unwrap_or(0)
    }

    /// Commit a staged upload (Azure Put Block List): blocks `0 ..
    /// n_blocks` must all be staged. The container is created on demand
    /// (the SDK's `CreateIfNotExists` pattern). On success the staging
    /// area is cleared and the blob becomes visible; on failure staged
    /// blocks are kept so the uploader can resume.
    pub fn commit(
        &mut self,
        container: &str,
        name: &str,
        n_blocks: usize,
    ) -> Result<BlobHandle, CodecError> {
        let key = (container.to_owned(), name.to_owned());
        let staged = self.pending.get(&key);
        let have = staged.map(|m| m.len()).unwrap_or(0);
        if have < n_blocks
            || (0..n_blocks).any(|i| !staged.map(|m| m.contains_key(&i)).unwrap_or(false))
        {
            return Err(CodecError::Corrupt("commit with missing staged blocks"));
        }
        let staged = self.pending.remove(&key).unwrap_or_default();
        let mut blob = StoredBlob::default();
        for (_, (data, sum)) in staged.into_iter().take(n_blocks) {
            blob.blocks.push(data);
            blob.checksums.push(sum);
        }
        self.containers
            .entry(container.to_owned())
            .or_default()
            .insert(name.to_owned(), blob);
        Ok(BlobHandle {
            container: container.to_owned(),
            name: name.to_owned(),
        })
    }

    /// Upload `data` as a block blob in one call: stage every block and
    /// commit. Returns the handle and the number of blocks staged —
    /// `data.len().div_ceil(block_bytes)`, so **zero for empty data**
    /// (see the module-level invariant).
    pub fn upload(&mut self, container: &str, name: &str, data: &[u8]) -> (BlobHandle, usize) {
        let blocks = self.blocks_for(data.len());
        for (i, chunk) in data.chunks(self.block_bytes).enumerate() {
            self.stage_block(container, name, i, chunk);
        }
        let handle = self
            .commit(container, name, blocks)
            .expect("all blocks just staged");
        (handle, blocks)
    }

    /// Download a whole blob (concatenation of its blocks).
    pub fn download(&self, handle: &BlobHandle) -> Option<Arc<[u8]>> {
        self.stored(handle).map(StoredBlob::concat)
    }

    /// Download a single block of a blob.
    pub fn download_block(&self, handle: &BlobHandle, index: usize) -> Option<Arc<[u8]>> {
        self.stored(handle)?.blocks.get(index).cloned()
    }

    /// The checksum recorded for a block at staging time.
    pub fn block_checksum(&self, handle: &BlobHandle, index: usize) -> Option<u64> {
        self.stored(handle)?.checksums.get(index).copied()
    }

    /// Number of blocks a committed blob occupies.
    pub fn block_count(&self, handle: &BlobHandle) -> Option<usize> {
        self.stored(handle).map(|b| b.blocks.len())
    }

    fn stored(&self, handle: &BlobHandle) -> Option<&StoredBlob> {
        self.containers.get(&handle.container)?.get(&handle.name)
    }

    /// Delete a blob; returns whether it existed.
    pub fn delete(&mut self, handle: &BlobHandle) -> bool {
        self.containers
            .get_mut(&handle.container)
            .map(|c| c.remove(&handle.name).is_some())
            .unwrap_or(false)
    }

    /// Blobs stored in `container`.
    pub fn list(&self, container: &str) -> Vec<String> {
        let mut names: Vec<String> = self
            .containers
            .get(container)
            .map(|c| c.keys().cloned().collect())
            .unwrap_or_default();
        names.sort_unstable();
        names
    }

    /// Total bytes held by the account (the storage-cost metric).
    /// Staged-but-uncommitted blocks are not stored bytes.
    pub fn stored_bytes(&self) -> u64 {
        self.containers
            .values()
            .flat_map(|c| c.values())
            .map(|b| b.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_download_roundtrip() {
        let mut store = BlobStore::new();
        let (h, blocks) = store.upload("genomes", "chmpxx.dx", b"payload");
        assert_eq!(blocks, 1);
        assert_eq!(store.download(&h).unwrap().as_ref(), b"payload");
        assert!(store.has_container("genomes"));
    }

    #[test]
    fn block_counting() {
        let mut store = BlobStore::with_block_bytes(8);
        let big = vec![0u8; 8 * 2 + 1];
        let (h, blocks) = store.upload("c", "big", &big);
        assert_eq!(blocks, 3);
        assert_eq!(store.block_count(&h), Some(3));
        // Zero-byte blobs occupy zero blocks — every accounting surface
        // agrees (the module-level invariant).
        let (h, blocks) = store.upload("c", "empty", b"");
        assert_eq!(blocks, 0);
        assert_eq!(store.block_count(&h), Some(0));
        assert_eq!(store.download(&h).unwrap().len(), 0);
        assert_eq!(store.blocks_for(0), 0);
    }

    #[test]
    fn staged_upload_resumes_and_commits() {
        let mut store = BlobStore::with_block_bytes(4);
        store.stage_block("c", "x", 0, b"aaaa");
        store.stage_block("c", "x", 2, b"cc");
        assert_eq!(store.staged_blocks("c", "x"), 2);
        // Commit with a hole must fail and keep the staged blocks.
        assert!(store.commit("c", "x", 3).is_err());
        assert_eq!(store.staged_blocks("c", "x"), 2);
        // Resume: stage only the missing block, then commit.
        store.stage_block("c", "x", 1, b"bbbb");
        let h = store.commit("c", "x", 3).unwrap();
        assert_eq!(store.download(&h).unwrap().as_ref(), b"aaaabbbbcc");
        assert_eq!(store.staged_blocks("c", "x"), 0);
    }

    #[test]
    fn restaging_replaces_a_block() {
        let mut store = BlobStore::with_block_bytes(4);
        store.stage_block("c", "x", 0, b"old!");
        store.stage_block("c", "x", 0, b"new!");
        let h = store.commit("c", "x", 1).unwrap();
        assert_eq!(store.download(&h).unwrap().as_ref(), b"new!");
    }

    #[test]
    fn block_checksums_detect_tampering() {
        let mut store = BlobStore::with_block_bytes(4);
        let (h, _) = store.upload("c", "x", b"aaaabbbb");
        for i in 0..2 {
            let block = store.download_block(&h, i).unwrap();
            assert_eq!(store.block_checksum(&h, i), Some(fnv1a(&block)));
            let mut wire = block.to_vec();
            wire[0] ^= 0x40; // corruption in flight
            assert_ne!(store.block_checksum(&h, i), Some(fnv1a(&wire)));
        }
        assert!(store.download_block(&h, 2).is_none());
        assert!(store.block_checksum(&h, 2).is_none());
    }

    #[test]
    fn overwrite_replaces() {
        let mut store = BlobStore::new();
        let (h, _) = store.upload("c", "x", b"one");
        store.upload("c", "x", b"two");
        assert_eq!(store.download(&h).unwrap().as_ref(), b"two");
        assert_eq!(store.stored_bytes(), 3);
    }

    #[test]
    fn delete_and_list() {
        let mut store = BlobStore::new();
        let (h1, _) = store.upload("c", "b", b"1");
        store.upload("c", "a", b"22");
        assert_eq!(store.list("c"), vec!["a".to_owned(), "b".to_owned()]);
        assert!(store.delete(&h1));
        assert!(!store.delete(&h1));
        assert_eq!(store.list("c"), vec!["a".to_owned()]);
        assert_eq!(store.stored_bytes(), 2);
        assert!(store.list("missing").is_empty());
    }

    #[test]
    fn missing_blob_is_none() {
        let store = BlobStore::new();
        let h = BlobHandle {
            container: "c".into(),
            name: "x".into(),
        };
        assert!(store.download(&h).is_none());
        assert!(store.block_count(&h).is_none());
    }
}
