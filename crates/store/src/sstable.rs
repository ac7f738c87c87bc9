//! Immutable sorted runs ("sstables"): the levelled generations that
//! hold the bulk of the store's data.
//!
//! A run file is written once by a seal or merge, fsynced, renamed into
//! place, and never modified again. Layout:
//!
//! ```text
//! run-000042.sst
//! ├── data blocks      encoded `Record`s, sorted by key, grouped into
//! │                    blocks of ~`run_block_bytes` (the cache unit)
//! ├── index block      "IX" · uvarint count · per block:
//! │                    first_key 16B · uvarint offset · uvarint len ·
//! │                    uvarint records — then u64 LE FNV-1a checksum
//! ├── bloom block      `Bloom::encode` (see `bloom`)
//! └── footer, 75 B     "DS" · version · records u64 · data_len u64 ·
//!                      index_len u64 · bloom_len u64 · min_key 16B ·
//!                      max_key 16B · u64 LE FNV-1a checksum
//! ```
//!
//! Only the footer has a fixed position (the last 75 bytes), so opening
//! a store never reads run *data*: the footer, index and bloom load
//! lazily on the first lookup that reaches the run, which is what keeps
//! `open` sub-linear in object count. The sparse index points at
//! blocks, not records — a lookup bloom-checks in memory, binary
//! searches the block index in memory, and reads exactly one block
//! (usually straight from the block cache) to scan for the key.
//!
//! Runs are written by streaming: a `RunWriter` emits each data block
//! as it closes, then the index, the bloom and the footer, and a
//! `RunCursor` reads a run back one block at a time. A seal or merge
//! therefore buffers one block per input and one for the output, never
//! the records it moves.
//!
//! Every decoder here refuses forged lengths/counts by an affordability
//! check against the bytes actually present *before* allocating.

use crate::bloom::Bloom;
use crate::error::StoreError;
use crate::record::{ContentKey, Record};
use dnacomp_codec::checksum::Fnv1a;
use dnacomp_codec::varint::{read_u64_le, read_uvarint, write_u64_le, write_uvarint};
use dnacomp_codec::CodecError;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// Magic prefix of a run footer.
pub const RUN_MAGIC: [u8; 2] = *b"DS";
/// Run format version.
pub const RUN_VERSION: u8 = 1;
/// Exact encoded footer size, read from the file tail.
pub const FOOTER_LEN: usize = 75;
/// Magic prefix of a run's block-index block.
pub const INDEX_MAGIC: [u8; 2] = *b"IX";
/// Smallest possible encoded index entry (affordability divisor).
const MIN_INDEX_ENTRY: usize = 19;

pub(crate) fn corrupt(what: &'static str, detail: &'static str) -> StoreError {
    StoreError::Corrupt {
        what,
        source: CodecError::Corrupt(detail),
    }
}

/// File name of run `id`: `run-000042.sst`.
pub fn run_name(id: u64) -> String {
    format!("run-{id:06}.sst")
}

/// Full path of run `id` under the store directory.
pub fn run_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(run_name(id))
}

/// Parse a run id back out of a file name (orphan cleanup).
pub fn parse_run_name(name: &str) -> Option<u64> {
    name.strip_prefix("run-")?
        .strip_suffix(".sst")?
        .parse()
        .ok()
}

/// Manifest-resident description of one run: everything `open` needs
/// without touching the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// Run id (never reused, shared counter across all levels).
    pub id: u64,
    /// Generation: 1 for freshly sealed L0 batches, +1 per merge.
    pub level: u32,
    /// Records in the run, tombstoned ones included.
    pub records: u64,
    /// Total file size in bytes.
    pub bytes: u64,
    /// Smallest key in the run.
    pub min_key: ContentKey,
    /// Largest key in the run.
    pub max_key: ContentKey,
}

impl RunMeta {
    /// Append the manifest wire encoding of this meta.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.id);
        write_uvarint(out, self.level as u64);
        write_uvarint(out, self.records);
        write_uvarint(out, self.bytes);
        out.extend_from_slice(&self.min_key.0);
        out.extend_from_slice(&self.max_key.0);
    }

    /// Parse a meta from a manifest entry body (`None` = torn/corrupt,
    /// the manifest replay convention).
    pub fn decode(bytes: &[u8], pos: &mut usize) -> Option<RunMeta> {
        let id = read_uvarint(bytes, pos).ok()?;
        let level = u32::try_from(read_uvarint(bytes, pos).ok()?).ok()?;
        let records = read_uvarint(bytes, pos).ok()?;
        let size = read_uvarint(bytes, pos).ok()?;
        let min = bytes.get(*pos..*pos + 16)?;
        let mut min_key = [0u8; 16];
        min_key.copy_from_slice(min);
        *pos += 16;
        let max = bytes.get(*pos..*pos + 16)?;
        let mut max_key = [0u8; 16];
        max_key.copy_from_slice(max);
        *pos += 16;
        Some(RunMeta {
            id,
            level,
            records,
            bytes: size,
            min_key: ContentKey(min_key),
            max_key: ContentKey(max_key),
        })
    }

    /// `true` when `key` falls inside this run's key range.
    pub fn covers(&self, key: &ContentKey) -> bool {
        *key >= self.min_key && *key <= self.max_key
    }
}

/// The fixed-size trailer of a run file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Footer {
    /// Records in the data region.
    pub records: u64,
    /// Byte length of the data region.
    pub data_len: u64,
    /// Byte length of the index block.
    pub index_len: u64,
    /// Byte length of the bloom block.
    pub bloom_len: u64,
    /// Smallest key in the run.
    pub min_key: ContentKey,
    /// Largest key in the run.
    pub max_key: ContentKey,
}

impl Footer {
    /// Serialise to exactly [`FOOTER_LEN`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FOOTER_LEN);
        out.extend_from_slice(&RUN_MAGIC);
        out.push(RUN_VERSION);
        write_u64_le(&mut out, self.records);
        write_u64_le(&mut out, self.data_len);
        write_u64_le(&mut out, self.index_len);
        write_u64_le(&mut out, self.bloom_len);
        out.extend_from_slice(&self.min_key.0);
        out.extend_from_slice(&self.max_key.0);
        let mut h = Fnv1a::new();
        h.update(&out);
        write_u64_le(&mut out, h.digest());
        debug_assert_eq!(out.len(), FOOTER_LEN);
        out
    }

    /// Parse a footer from exactly [`FOOTER_LEN`] bytes.
    pub fn decode(bytes: &[u8]) -> Result<Footer, StoreError> {
        if bytes.len() != FOOTER_LEN {
            return Err(corrupt("run footer", "footer is not exactly 75 bytes"));
        }
        if bytes[0..2] != RUN_MAGIC {
            return Err(corrupt("run footer", "bad run magic"));
        }
        if bytes[2] != RUN_VERSION {
            return Err(StoreError::Corrupt {
                what: "run footer",
                source: CodecError::UnknownFormat(bytes[2]),
            });
        }
        let mut pos = 3;
        let field = |pos: &mut usize| -> Result<u64, StoreError> {
            read_u64_le(bytes, pos).map_err(|source| StoreError::Corrupt {
                what: "run footer",
                source,
            })
        };
        let records = field(&mut pos)?;
        let data_len = field(&mut pos)?;
        let index_len = field(&mut pos)?;
        let bloom_len = field(&mut pos)?;
        let mut min_key = [0u8; 16];
        min_key.copy_from_slice(&bytes[pos..pos + 16]);
        pos += 16;
        let mut max_key = [0u8; 16];
        max_key.copy_from_slice(&bytes[pos..pos + 16]);
        pos += 16;
        let mut h = Fnv1a::new();
        h.update(&bytes[..pos]);
        let stored = field(&mut pos)?;
        if stored != h.digest() {
            return Err(StoreError::Corrupt {
                what: "run footer",
                source: CodecError::ChecksumMismatch {
                    expected: stored,
                    actual: h.digest(),
                },
            });
        }
        Ok(Footer {
            records,
            data_len,
            index_len,
            bloom_len,
            min_key: ContentKey(min_key),
            max_key: ContentKey(max_key),
        })
    }
}

/// One sparse-index entry: a data block's first key and extent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockEntry {
    /// First (smallest) key in the block.
    pub first_key: ContentKey,
    /// Block offset within the data region.
    pub offset: u64,
    /// Block length in bytes.
    pub len: u64,
    /// Records in the block.
    pub records: u64,
}

/// Encode the index block for `blocks`.
pub fn encode_index(blocks: &[BlockEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(blocks.len() * 24 + 16);
    out.extend_from_slice(&INDEX_MAGIC);
    write_uvarint(&mut out, blocks.len() as u64);
    for b in blocks {
        out.extend_from_slice(&b.first_key.0);
        write_uvarint(&mut out, b.offset);
        write_uvarint(&mut out, b.len);
        write_uvarint(&mut out, b.records);
    }
    let mut h = Fnv1a::new();
    h.update(&out);
    write_u64_le(&mut out, h.digest());
    out
}

/// Decode an index block. The declared entry count is checked against
/// the bytes present before any allocation.
pub fn decode_index(bytes: &[u8]) -> Result<Vec<BlockEntry>, StoreError> {
    if bytes.len() < 3 {
        return Err(corrupt("run index", "index shorter than its header"));
    }
    if bytes[0..2] != INDEX_MAGIC {
        return Err(corrupt("run index", "bad index magic"));
    }
    let mut pos = 2;
    let count = read_uvarint(bytes, &mut pos).map_err(|source| StoreError::Corrupt {
        what: "run index count",
        source,
    })? as usize;
    // Affordability: `count` entries need at least MIN_INDEX_ENTRY
    // bytes each plus the trailing checksum.
    if count > bytes.len().saturating_sub(pos + 8) / MIN_INDEX_ENTRY {
        return Err(corrupt("run index", "index count outside the affordable range"));
    }
    let mut blocks = Vec::with_capacity(count);
    for _ in 0..count {
        let raw = bytes
            .get(pos..pos + 16)
            .ok_or_else(|| corrupt("run index", "index entry runs past the block"))?;
        let mut first = [0u8; 16];
        first.copy_from_slice(raw);
        pos += 16;
        let mut varint = |what: &'static str| -> Result<u64, StoreError> {
            read_uvarint(bytes, &mut pos).map_err(|source| StoreError::Corrupt { what, source })
        };
        let offset = varint("run index offset")?;
        let len = varint("run index length")?;
        let records = varint("run index records")?;
        blocks.push(BlockEntry {
            first_key: ContentKey(first),
            offset,
            len,
            records,
        });
    }
    let mut h = Fnv1a::new();
    h.update(&bytes[..pos]);
    let stored = read_u64_le(bytes, &mut pos).map_err(|source| StoreError::Corrupt {
        what: "run index checksum",
        source,
    })?;
    if stored != h.digest() {
        return Err(StoreError::Corrupt {
            what: "run index",
            source: CodecError::ChecksumMismatch {
                expected: stored,
                actual: h.digest(),
            },
        });
    }
    if pos != bytes.len() {
        return Err(corrupt("run index", "trailing bytes after the index"));
    }
    Ok(blocks)
}

/// Streams a run file out in key order: each data block as it closes
/// (at `block_bytes`), then the index, the bloom and the footer, every
/// chunk through `sink`. Only the open block, the block index and the
/// bloom stay in memory.
///
/// The writer is told up front how many records the run holds, and the
/// bloom is sized from that count. A key that is not strictly above its
/// predecessor, or a final count that differs from the expected one, is
/// a typed [`StoreError::Corrupt`]: the input broke the store's
/// one-home-per-key invariant and must not be committed.
pub(crate) struct RunWriter<'a> {
    sink: &'a mut dyn FnMut(&[u8]) -> Result<(), StoreError>,
    block_bytes: usize,
    expected: u64,
    bloom: Bloom,
    blocks: Vec<BlockEntry>,
    /// The open data block.
    block: Vec<u8>,
    /// Bytes of the closed blocks already handed to the sink.
    data_len: u64,
    records: u64,
    last_key: Option<ContentKey>,
}

impl<'a> RunWriter<'a> {
    /// A writer for a run of exactly `expected` records; the bloom gets
    /// `bits_per_key` bits per record.
    pub(crate) fn new(
        sink: &'a mut dyn FnMut(&[u8]) -> Result<(), StoreError>,
        expected: u64,
        block_bytes: usize,
        bits_per_key: u32,
    ) -> RunWriter<'a> {
        RunWriter {
            sink,
            block_bytes,
            expected,
            bloom: Bloom::sized_for(expected as usize, bits_per_key),
            blocks: Vec::new(),
            block: Vec::new(),
            data_len: 0,
            records: 0,
            last_key: None,
        }
    }

    /// Append one encoded record, emitting the open block first if it
    /// has reached the block size.
    pub(crate) fn add(&mut self, key: ContentKey, record: &[u8]) -> Result<(), StoreError> {
        if self.last_key.is_some_and(|last| key <= last) {
            return Err(corrupt("run build", "run keys are not strictly increasing"));
        }
        if self.records == self.expected {
            return Err(corrupt("run build", "more records than the run expects"));
        }
        if self.blocks.is_empty() || self.block.len() >= self.block_bytes {
            self.emit_block()?;
            self.blocks.push(BlockEntry {
                first_key: key,
                offset: self.data_len,
                len: 0,
                records: 0,
            });
        }
        self.bloom.insert(&key);
        self.block.extend_from_slice(record);
        let entry = self.blocks.last_mut().expect("block just ensured");
        entry.len = self.block.len() as u64;
        entry.records += 1;
        self.records += 1;
        self.last_key = Some(key);
        Ok(())
    }

    fn emit_block(&mut self) -> Result<(), StoreError> {
        if !self.block.is_empty() {
            (self.sink)(&self.block)?;
            self.data_len += self.block.len() as u64;
            self.block.clear();
        }
        Ok(())
    }

    /// Emit the last block, the index, the bloom and the footer, and
    /// return the footer. The file is `footer.data_len + index_len +
    /// bloom_len + FOOTER_LEN` bytes long.
    pub(crate) fn finish(mut self) -> Result<Footer, StoreError> {
        if self.records != self.expected {
            return Err(corrupt("run build", "record count disagrees with the expected count"));
        }
        let (Some(first), Some(max_key)) = (self.blocks.first(), self.last_key) else {
            return Err(corrupt("run build", "a run holds at least one record"));
        };
        let min_key = first.first_key;
        self.emit_block()?;
        let index = encode_index(&self.blocks);
        let bloom = self.bloom.encode();
        let footer = Footer {
            records: self.records,
            data_len: self.data_len,
            index_len: index.len() as u64,
            bloom_len: bloom.len() as u64,
            min_key,
            max_key,
        };
        for part in [&index, &bloom, &footer.encode()] {
            (self.sink)(part)?;
        }
        Ok(footer)
    }
}

/// A run image built in memory.
pub struct BuiltRun {
    /// The complete file image: data ++ index ++ bloom ++ footer.
    pub bytes: Vec<u8>,
    /// Its footer.
    pub footer: Footer,
}

/// Assemble a run image from `records` — `(key, encoded record)` pairs
/// sorted by key, at least one — by driving the streaming run encoder
/// the store writes runs with into a `Vec<u8>`.
///
/// # Panics
///
/// If `records` is empty or its keys are not strictly increasing.
pub fn build_run(records: &[(ContentKey, Vec<u8>)], block_bytes: usize, bits_per_key: u32) -> BuiltRun {
    let mut bytes = Vec::new();
    let mut sink = |chunk: &[u8]| {
        bytes.extend_from_slice(chunk);
        Ok(())
    };
    let mut writer = RunWriter::new(&mut sink, records.len() as u64, block_bytes, bits_per_key);
    for (key, record) in records {
        writer.add(*key, record).expect("sorted, distinct keys");
    }
    let footer = writer.finish().expect("at least one record");
    BuiltRun { bytes, footer }
}

/// The lazily loaded in-memory side of a run: sparse index + bloom.
#[derive(Debug)]
pub struct RunIndex {
    /// The validated footer.
    pub footer: Footer,
    /// Sparse block index, sorted by first key.
    pub blocks: Vec<BlockEntry>,
    /// Membership filter over every record key.
    pub bloom: Bloom,
}

impl RunIndex {
    /// The block that could hold `key`: the last one whose first key is
    /// `<= key` (keys below every block land nowhere).
    pub fn find_block(&self, key: &ContentKey) -> Option<usize> {
        let n = self.blocks.partition_point(|b| b.first_key <= *key);
        n.checked_sub(1)
    }
}

/// One open run: manifest meta plus the lazily loaded index/bloom.
#[derive(Debug)]
pub struct RunHandle {
    /// The manifest's description of this run.
    pub meta: RunMeta,
    loaded: Mutex<Option<Arc<RunIndex>>>,
}

impl RunHandle {
    /// Wrap a manifest meta; nothing is read until the first lookup.
    pub fn new(meta: RunMeta) -> RunHandle {
        RunHandle {
            meta,
            loaded: Mutex::new(None),
        }
    }

    /// The index/bloom, reading and validating them on first use.
    pub fn load(&self, dir: &Path) -> Result<Arc<RunIndex>, StoreError> {
        let mut slot = self
            .loaded
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(idx) = slot.as_ref() {
            return Ok(Arc::clone(idx));
        }
        let path = run_path(dir, self.meta.id);
        let mut f = File::open(&path).map_err(|e| StoreError::io("opening run", e))?;
        let file_len = f
            .metadata()
            .map_err(|e| StoreError::io("statting run", e))?
            .len();
        if file_len < FOOTER_LEN as u64 {
            return Err(corrupt("run footer", "run file shorter than its footer"));
        }
        f.seek(SeekFrom::Start(file_len - FOOTER_LEN as u64))
            .map_err(|e| StoreError::io("seeking run footer", e))?;
        let mut tail = [0u8; FOOTER_LEN];
        f.read_exact(&mut tail)
            .map_err(|e| StoreError::io("reading run footer", e))?;
        let footer = Footer::decode(&tail)?;
        let expect = footer
            .data_len
            .checked_add(footer.index_len)
            .and_then(|n| n.checked_add(footer.bloom_len))
            .and_then(|n| n.checked_add(FOOTER_LEN as u64));
        if expect != Some(file_len) {
            return Err(corrupt("run footer", "footer extents do not sum to the file size"));
        }
        if footer.records != self.meta.records {
            return Err(corrupt("run footer", "footer record count disagrees with the manifest"));
        }
        // index_len/bloom_len are affordable by construction here: they
        // sum to the real file size, which bounds the reads below.
        f.seek(SeekFrom::Start(footer.data_len))
            .map_err(|e| StoreError::io("seeking run index", e))?;
        let mut index_bytes = vec![0u8; footer.index_len as usize];
        f.read_exact(&mut index_bytes)
            .map_err(|e| StoreError::io("reading run index", e))?;
        let blocks = decode_index(&index_bytes)?;
        let mut bloom_bytes = vec![0u8; footer.bloom_len as usize];
        f.read_exact(&mut bloom_bytes)
            .map_err(|e| StoreError::io("reading run bloom", e))?;
        let (bloom, used) = Bloom::decode(&bloom_bytes)?;
        if used != bloom_bytes.len() {
            return Err(corrupt("run bloom", "trailing bytes after the bloom block"));
        }
        let idx = Arc::new(RunIndex {
            footer,
            blocks,
            bloom,
        });
        *slot = Some(Arc::clone(&idx));
        Ok(idx)
    }

    /// Read one data block from disk (cache misses land here).
    pub fn read_block(&self, dir: &Path, entry: &BlockEntry) -> Result<Vec<u8>, StoreError> {
        let path = run_path(dir, self.meta.id);
        let mut f = File::open(&path).map_err(|e| StoreError::io("opening run", e))?;
        f.seek(SeekFrom::Start(entry.offset))
            .map_err(|e| StoreError::io("seeking run block", e))?;
        let mut buf = vec![0u8; entry.len as usize];
        f.read_exact(&mut buf)
            .map_err(|e| StoreError::io("reading run block", e))?;
        Ok(buf)
    }

    /// Decode every record in order, handing `(key, encoded bytes)` to
    /// `f`. Used by verify and key listing — always from disk, never
    /// through the cache, so bit rot cannot hide behind a cached copy.
    pub fn for_each_record(
        &self,
        dir: &Path,
        mut f: impl FnMut(ContentKey, &[u8]) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let mut cursor = RunCursor::open(self, dir)?;
        while let Some(key) = cursor.key() {
            f(key, cursor.record())?;
            cursor.advance()?;
        }
        Ok(())
    }
}

/// A forward cursor over one run's records in key order, holding one
/// data block at a time. Blocks come from disk, never through the
/// cache, so bit rot cannot hide behind a cached copy; each record is
/// checksum-validated as the cursor reaches it.
pub(crate) struct RunCursor<'a> {
    handle: &'a RunHandle,
    dir: &'a Path,
    index: Arc<RunIndex>,
    next_block: usize,
    block: Vec<u8>,
    /// Offset of the current record in `block`.
    pos: usize,
    /// Encoded length of the current record.
    len: usize,
    /// Records of `block` after the current one.
    left: u64,
    key: Option<ContentKey>,
}

impl<'a> RunCursor<'a> {
    /// A cursor on the first record of `handle`'s run.
    pub(crate) fn open(
        handle: &'a RunHandle,
        dir: &'a Path,
    ) -> Result<RunCursor<'a>, StoreError> {
        let mut cursor = RunCursor {
            handle,
            dir,
            index: handle.load(dir)?,
            next_block: 0,
            block: Vec::new(),
            pos: 0,
            len: 0,
            left: 0,
            key: None,
        };
        cursor.settle()?;
        Ok(cursor)
    }

    /// Key of the current record; `None` once the run is exhausted.
    pub(crate) fn key(&self) -> Option<ContentKey> {
        self.key
    }

    /// Encoded bytes of the current record (empty once exhausted).
    pub(crate) fn record(&self) -> &[u8] {
        &self.block[self.pos..self.pos + self.len]
    }

    /// Step to the next record, reading the next block when this one is
    /// used up.
    pub(crate) fn advance(&mut self) -> Result<(), StoreError> {
        self.pos += self.len;
        self.len = 0;
        self.settle()
    }

    /// Decode the record at `pos`, first moving to the next block if the
    /// current one has no records left.
    fn settle(&mut self) -> Result<(), StoreError> {
        while self.left == 0 {
            if self.pos != self.block.len() {
                return Err(corrupt("run block", "trailing bytes after the block's records"));
            }
            let Some(entry) = self.index.blocks.get(self.next_block).copied() else {
                self.key = None;
                return Ok(());
            };
            self.block = self.handle.read_block(self.dir, &entry)?;
            self.next_block += 1;
            self.pos = 0;
            self.left = entry.records;
        }
        let (record, used) = Record::decode(&self.block[self.pos..])?;
        self.left -= 1;
        self.len = used;
        self.key = Some(record.key);
        Ok(())
    }
}

/// Scan a data block for `key`, returning the decoded record and its
/// encoded length if present. Structural damage is a typed error.
pub fn scan_block(block: &[u8], key: &ContentKey) -> Result<Option<(Record, u64)>, StoreError> {
    let mut pos = 0usize;
    while pos < block.len() {
        let (record, used) = Record::decode(&block[pos..])?;
        if record.key == *key {
            return Ok(Some((record, used as u64)));
        }
        if record.key > *key {
            return Ok(None); // sorted: the key cannot appear later
        }
        pos += used;
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnacomp_algos::Algorithm;
    use dnacomp_codec::checksum::mix64;

    fn record(n: u64, payload_len: usize) -> (ContentKey, Vec<u8>) {
        let mut k = [0u8; 16];
        k[..8].copy_from_slice(&mix64(n).to_le_bytes());
        k[8..].copy_from_slice(&mix64(!n).to_le_bytes());
        let rec = Record {
            key: ContentKey(k),
            algorithm: Algorithm::Dnax,
            original_len: payload_len as u64 * 4,
            payload: vec![n as u8; payload_len],
        };
        (rec.key, rec.encode())
    }

    fn sorted_records(n: u64) -> Vec<(ContentKey, Vec<u8>)> {
        let mut recs: Vec<_> = (0..n).map(|i| record(i, 24 + (i % 7) as usize)).collect();
        recs.sort_by_key(|(k, _)| *k);
        recs
    }

    #[test]
    fn names_roundtrip() {
        assert_eq!(run_name(0), "run-000000.sst");
        for id in [0, 42, 1_000_000] {
            assert_eq!(parse_run_name(&run_name(id)), Some(id));
        }
        assert_eq!(parse_run_name("seg-000001.seg"), None);
        assert_eq!(parse_run_name("run-000001.sst.tmp"), None);
    }

    #[test]
    fn footer_roundtrip_and_flips() {
        let f = Footer {
            records: 12,
            data_len: 4096,
            index_len: 64,
            bloom_len: 48,
            min_key: ContentKey([1; 16]),
            max_key: ContentKey([200; 16]),
        };
        let bytes = f.encode();
        assert_eq!(bytes.len(), FOOTER_LEN);
        assert_eq!(Footer::decode(&bytes).unwrap(), f);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x04;
            assert!(Footer::decode(&bad).is_err(), "flip at {i} undetected");
        }
        assert!(Footer::decode(&bytes[..FOOTER_LEN - 1]).is_err());
    }

    #[test]
    fn index_roundtrip_and_forged_count() {
        let blocks: Vec<BlockEntry> = (0..5)
            .map(|i| BlockEntry {
                first_key: ContentKey([i as u8 * 10; 16]),
                offset: i * 4096,
                len: 4096,
                records: 17,
            })
            .collect();
        let bytes = encode_index(&blocks);
        assert_eq!(decode_index(&bytes).unwrap(), blocks);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x08;
            assert!(decode_index(&bad).is_err(), "flip at {i} undetected");
        }
        // Forge a huge count into a tiny buffer: affordability refuses
        // it before reserving anything.
        let mut forged = Vec::new();
        forged.extend_from_slice(&INDEX_MAGIC);
        write_uvarint(&mut forged, u64::MAX / 2);
        forged.resize(64, 0);
        assert!(matches!(decode_index(&forged), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn build_and_read_back_every_record() {
        let dir = std::env::temp_dir().join(format!("dnacomp-sst-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let recs = sorted_records(100);
        let built = build_run(&recs, 256, 10);
        assert_eq!(built.footer.records, 100);
        std::fs::write(run_path(&dir, 1), &built.bytes).unwrap();
        let handle = RunHandle::new(RunMeta {
            id: 1,
            level: 1,
            records: 100,
            bytes: built.bytes.len() as u64,
            min_key: built.footer.min_key,
            max_key: built.footer.max_key,
        });
        let idx = handle.load(&dir).unwrap();
        assert!(idx.blocks.len() > 1, "256-byte blocks must split 100 records");
        for (key, bytes) in &recs {
            assert!(idx.bloom.contains(key));
            let b = idx.find_block(key).expect("every key maps to a block");
            let block = handle.read_block(&dir, &idx.blocks[b]).unwrap();
            let (rec, used) = scan_block(&block, key).unwrap().expect("present");
            assert_eq!(&rec.encode(), bytes);
            assert_eq!(used as usize, bytes.len());
        }
        // A key below the whole range maps to no block.
        assert_eq!(idx.find_block(&ContentKey([0; 16])).is_none(),
                   recs[0].0 > ContentKey([0; 16]));
        // Full iteration sees every record in key order.
        let mut seen = Vec::new();
        handle
            .for_each_record(&dir, |k, _| {
                seen.push(k);
                Ok(())
            })
            .unwrap();
        assert_eq!(seen.len(), 100);
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_inconsistent_footer_extents() {
        let dir = std::env::temp_dir().join(format!("dnacomp-sst-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let recs = sorted_records(10);
        let built = build_run(&recs, 4096, 10);
        // Truncate a byte: extents no longer sum to the file size.
        std::fs::write(run_path(&dir, 2), &built.bytes[..built.bytes.len() - 1]).unwrap();
        let handle = RunHandle::new(RunMeta {
            id: 2,
            level: 1,
            records: 10,
            bytes: built.bytes.len() as u64 - 1,
            min_key: built.footer.min_key,
            max_key: built.footer.max_key,
        });
        assert!(handle.load(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// FNV-1a digests of run images made from `sorted_records(100)` by
    /// the collect-then-encode `build_run` that preceded `RunWriter`.
    /// The streamed encoder must reproduce them byte for byte, so stores
    /// written before it reopen unchanged.
    #[test]
    fn run_images_are_byte_identical_to_the_pinned_format() {
        let recs = sorted_records(100);
        // 110 bytes is exactly the first two records: a block that ends
        // on the boundary closes there.
        assert_eq!(recs[0].1.len() + recs[1].1.len(), 110);
        for (block_bytes, bits_per_key, len, digest) in [
            (256, 10, 6343, 0x962f_16fd_7221_98ff_u64),
            (4096, 10, 5965, 0xc7db_dd67_2718_316c),
            (110, 10, 6905, 0xde15_d963_d6a8_161f),
            (1, 7, 7881, 0x28f0_e0f0_1365_edaf),
        ] {
            let built = build_run(&recs, block_bytes, bits_per_key);
            let mut h = Fnv1a::new();
            h.update(&built.bytes);
            assert_eq!(built.bytes.len(), len, "block {block_bytes}");
            assert_eq!(h.digest(), digest, "block {block_bytes}");
        }
    }

    fn index_of(built: &BuiltRun) -> Vec<BlockEntry> {
        let start = built.footer.data_len as usize;
        decode_index(&built.bytes[start..start + built.footer.index_len as usize]).unwrap()
    }

    #[test]
    fn writer_emits_each_block_as_it_closes() {
        let recs = sorted_records(40);
        let built = build_run(&recs, 256, 10);
        let blocks = index_of(&built);
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        let mut sink = |chunk: &[u8]| {
            chunks.push(chunk.to_vec());
            Ok(())
        };
        let mut writer = RunWriter::new(&mut sink, recs.len() as u64, 256, 10);
        for (key, bytes) in &recs {
            writer.add(*key, bytes).unwrap();
        }
        writer.finish().unwrap();
        // One chunk per data block, then index, bloom and footer — and
        // together they are exactly the in-memory image.
        assert_eq!(chunks.len(), blocks.len() + 3);
        for (chunk, entry) in chunks.iter().zip(&blocks) {
            assert_eq!(chunk.len() as u64, entry.len);
        }
        assert_eq!(chunks.concat(), built.bytes);
    }

    #[test]
    fn writer_refuses_disorder_and_miscounts() {
        let recs = sorted_records(3);
        let mut sink = |_: &[u8]| Ok(());
        let corrupt = |r: Result<(), StoreError>| matches!(r, Err(StoreError::Corrupt { .. }));
        // A repeated or falling key.
        let mut w = RunWriter::new(&mut sink, 3, 256, 10);
        w.add(recs[1].0, &recs[1].1).unwrap();
        assert!(corrupt(w.add(recs[1].0, &recs[1].1)));
        assert!(corrupt(w.add(recs[0].0, &recs[0].1)));
        // Fewer records than expected.
        let mut w = RunWriter::new(&mut sink, 3, 256, 10);
        w.add(recs[0].0, &recs[0].1).unwrap();
        assert!(corrupt(w.finish().map(|_| ())));
        // More records than expected.
        let mut w = RunWriter::new(&mut sink, 1, 256, 10);
        w.add(recs[0].0, &recs[0].1).unwrap();
        assert!(corrupt(w.add(recs[1].0, &recs[1].1)));
        // An empty run.
        let w = RunWriter::new(&mut sink, 0, 256, 10);
        assert!(corrupt(w.finish().map(|_| ())));
    }

    #[test]
    fn cursor_rejects_bytes_the_index_does_not_count() {
        let dir = std::env::temp_dir().join(format!("dnacomp-sst-trail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // One record per block; then re-encode the index claiming the
        // last block holds none (same length, fresh checksum).
        let built = build_run(&sorted_records(4), 1, 10);
        let mut blocks = index_of(&built);
        blocks.last_mut().unwrap().records = 0;
        let mut image = built.bytes.clone();
        let start = built.footer.data_len as usize;
        let index = encode_index(&blocks);
        image[start..start + index.len()].copy_from_slice(&index);
        std::fs::write(run_path(&dir, 3), &image).unwrap();
        let handle = RunHandle::new(RunMeta {
            id: 3,
            level: 1,
            records: 4,
            bytes: image.len() as u64,
            min_key: built.footer.min_key,
            max_key: built.footer.max_key,
        });
        let mut seen = 0;
        let walk = handle.for_each_record(&dir, |_, _| {
            seen += 1;
            Ok(())
        });
        assert!(matches!(walk, Err(StoreError::Corrupt { .. })), "{walk:?}");
        assert_eq!(seen, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn meta_roundtrips_through_manifest_encoding() {
        let meta = RunMeta {
            id: 9,
            level: 3,
            records: 1_000,
            bytes: 123_456,
            min_key: ContentKey([3; 16]),
            max_key: ContentKey([240; 16]),
        };
        let mut out = Vec::new();
        meta.encode_into(&mut out);
        let mut pos = 0;
        assert_eq!(RunMeta::decode(&out, &mut pos), Some(meta));
        assert_eq!(pos, out.len());
        for cut in 0..out.len() {
            let mut p = 0;
            assert_eq!(RunMeta::decode(&out[..cut], &mut p), None, "cut {cut}");
        }
    }
}
