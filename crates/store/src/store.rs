//! The repository itself: open, put, get, stat, verify, compact.
//!
//! ## The LSM shape
//!
//! Fresh records land in **level 0**: append-only segments plus the
//! sharded in-memory index. Once enough L0 segments seal, their live
//! records are flushed into a **sorted run** (level 1) — an immutable
//! file with a sparse block index and a bloom filter — and the segments
//! are deleted. Runs merge level by level as they accumulate. A live
//! key exists in *exactly one* place (L0 or one run); a removed
//! run-resident key exists as exactly one tombstone. That uniqueness
//! invariant is what keeps `len` exact and dedup sound.
//!
//! ## Commit points
//!
//! Every durable state change is a single manifest append (or one
//! atomic checkpoint rename):
//!
//! ```text
//! put      record bytes → active segment, then ONE Add entry
//! remove   ONE Remove (L0) or RemoveRun (tombstone) entry
//! re-put   ONE Revive entry (content addressing: the bytes are
//!          already in the run, reviving the tombstone IS the write)
//! seal     run file written + fsynced + renamed, then ONE Seal entry
//!          carrying the run meta AND every victim segment id
//! merge    same shape: output run durable first, then ONE Merge entry
//! ckpt     manifest.tmp written + fsynced, then ONE rename
//! ```
//!
//! A torn write anywhere leaves the previous commit point intact:
//! replay stops at the torn entry, orphan run/tmp files are deleted on
//! reopen, and segment tails truncate back to the frontier. The chaos
//! tests sweep a byte-granular crash budget across *all* of these
//! writes.
//!
//! ## Durability: group commit
//!
//! With [`StoreConfig::sync`] on, appends only *write*; a committing
//! thread then waits on the group scheduler. If no batch is in flight
//! it leads one at once: under the writer lock it fsyncs every dirty
//! segment *then* the manifest on behalf of every append made so far.
//! Appends that land during that fsync wait and form the next batch
//! (see [`crate::wal`]). Level transitions fsync inline before any
//! source file is deleted, so the manifest never references bytes that
//! are gone.
//!
//! Maintenance (sealing, merging) piggybacks on `put` after its commit
//! point and swallows its own failures into a counter — a put whose
//! record committed reports success even if the housekeeping behind it
//! crashed.

use crate::cache::BlockCache;
use crate::error::StoreError;
use crate::index::ShardedIndex;
use crate::manifest::{self, Entry, Location};
use crate::record::{ContentKey, Record};
use crate::segment::{self, SegmentInfo};
use crate::sstable::{self, RunHandle};
use crate::wal::{GroupCommit, Queued};
use dnacomp_algos::CompressedBlob;
use dnacomp_cloud::FaultPlan;
use dnacomp_seq::PackedSeq;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Store tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Roll to a fresh segment once the active one reaches this size.
    pub segment_target_bytes: u64,
    /// `fsync` commits (the durable default). Disabling trades the
    /// power-loss guarantee for speed; the simulated-crash tests are
    /// unaffected either way.
    pub sync: bool,
    /// Seeded disk-fault schedule (torn writes). [`FaultPlan::none`]
    /// for production use.
    pub faults: FaultPlan,
    /// Test hook: total byte budget across all disk writes; the write
    /// that would exceed it is torn at the boundary and the store
    /// "crashes". Sweeping this over every byte of a workload proves
    /// recovery at every possible kill point.
    pub crash_after_bytes: Option<u64>,
    /// Seal level 0 into a sorted run once this many sealed segments
    /// accumulate. `0` disables automatic maintenance entirely
    /// (explicit [`SequenceStore::compact`] still works).
    pub l0_seal_segments: usize,
    /// Merge a level into the next once it holds this many runs.
    pub level_fanout: usize,
    /// Bloom filter budget per record in a run.
    pub bloom_bits_per_key: u32,
    /// Target data-block size inside a run (the cache unit).
    pub run_block_bytes: usize,
    /// Block cache budget in bytes; `0` disables the cache.
    pub cache_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_target_bytes: 8 << 20,
            sync: true,
            faults: FaultPlan::none(),
            crash_after_bytes: None,
            l0_seal_segments: 4,
            level_fanout: 4,
            bloom_bits_per_key: 10,
            run_block_bytes: 4096,
            cache_bytes: 32 << 20,
        }
    }
}

/// Outcome of a `put`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PutOutcome {
    /// Content key the sequence is stored under.
    pub key: ContentKey,
    /// `true` when the payload was already on disk: a live duplicate
    /// (nothing written) or a tombstoned one (revived by a single
    /// manifest entry). Either way the existing record stands.
    pub deduped: bool,
}

/// Per-record metadata answered without decompressing anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordStat {
    /// Content key.
    pub key: ContentKey,
    /// Algorithm that compressed the payload.
    pub algorithm: dnacomp_algos::Algorithm,
    /// Original sequence length in bases.
    pub original_len: u64,
    /// Encoded record size on disk in bytes.
    pub stored_bytes: u64,
    /// File holding the record: a segment id at level 0, a run id at
    /// level 1 and deeper.
    pub segment: u64,
    /// LSM level the record currently lives at.
    pub level: u32,
}

/// Point-in-time store counters. This is also the JSON a shard answers
/// `Stat` with; a router sums the replies with `+=`. Fields newer
/// stores added are `serde(default)`, so a mixed-version cluster still
/// aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// Live records (distinct content keys) across all levels.
    pub records: u64,
    /// Level-0 segment files holding committed data.
    pub segments: u64,
    /// Sorted run files (level 1 and deeper).
    #[serde(default)]
    pub runs: u64,
    /// Run-resident records logically removed but not yet merged away.
    #[serde(default)]
    pub tombstones: u64,
    /// Committed bytes on disk (segments + runs, dead bytes included).
    pub bytes_on_disk: u64,
    /// Bytes still logically live.
    pub live_bytes: u64,
    /// `put` calls since open.
    pub puts: u64,
    /// Puts answered by dedup or revive (no payload written).
    pub dedup_hits: u64,
    /// Records logically removed since open.
    pub removes: u64,
    /// Records that failed validation during verify/scrub runs.
    pub scrub_failures: u64,
    /// L0 → run seals since open.
    #[serde(default)]
    pub seals: u64,
    /// Run merges since open.
    #[serde(default)]
    pub merges: u64,
    /// Background-maintenance passes that failed after a put committed.
    #[serde(default)]
    pub maintenance_failures: u64,
    /// Run probes answered "definitely absent" by a bloom filter
    /// without touching disk.
    #[serde(default)]
    pub bloom_negatives: u64,
    /// Block-cache hits since open.
    #[serde(default)]
    pub cache_hits: u64,
    /// Block-cache misses since open.
    #[serde(default)]
    pub cache_misses: u64,
    /// Bytes currently held by the block cache.
    #[serde(default)]
    pub cache_bytes: u64,
    /// Manifest entries appended since open (WAL appends).
    #[serde(default)]
    pub wal_appends: u64,
    /// Fsync batches that made those appends durable; the gap to
    /// `wal_appends` is the group-commit win.
    #[serde(default)]
    pub wal_batches: u64,
}

/// Field-wise sum: the cluster-wide total over several stores.
impl std::ops::AddAssign for StoreSnapshot {
    fn add_assign(&mut self, o: StoreSnapshot) {
        self.records += o.records;
        self.segments += o.segments;
        self.runs += o.runs;
        self.tombstones += o.tombstones;
        self.bytes_on_disk += o.bytes_on_disk;
        self.live_bytes += o.live_bytes;
        self.puts += o.puts;
        self.dedup_hits += o.dedup_hits;
        self.removes += o.removes;
        self.scrub_failures += o.scrub_failures;
        self.seals += o.seals;
        self.merges += o.merges;
        self.maintenance_failures += o.maintenance_failures;
        self.bloom_negatives += o.bloom_negatives;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.cache_bytes += o.cache_bytes;
        self.wal_appends += o.wal_appends;
        self.wal_batches += o.wal_batches;
    }
}

/// Per-level occupancy, for `store stat` and capacity planning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelStat {
    /// LSM level (0 = append-only segments).
    pub level: u32,
    /// Files at this level.
    pub files: u64,
    /// Records at this level, dead ones included.
    pub records: u64,
    /// Records at this level awaiting reclamation.
    pub dead_records: u64,
    /// Bytes on disk at this level.
    pub bytes: u64,
    /// Bytes awaiting reclamation at this level.
    pub dead_bytes: u64,
}

/// One record `verify` could not validate.
#[derive(Clone, Debug)]
pub struct ScrubFailure {
    /// Key of the damaged record (for a run that cannot be walked at
    /// all, the run's smallest key).
    pub key: ContentKey,
    /// What validation reported.
    pub error: String,
}

/// Result of a `verify` pass or a batch of scrub steps.
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// Records examined.
    pub checked: u64,
    /// Records that failed validation (bit rot, outside writers).
    pub failures: Vec<ScrubFailure>,
}

impl ScrubReport {
    /// `true` when every record validated.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Result of a `compact` pass (or accumulated maintenance).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Data files removed: sealed L0 segments plus merged-away runs.
    pub segments_removed: u64,
    /// Dead bytes reclaimed from disk.
    pub bytes_reclaimed: u64,
    /// Live records rewritten into a new run.
    pub records_moved: u64,
}

/// A logically deleted run-resident record: where its (dead) bytes
/// still sit and how many there are.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tombstone {
    pub(crate) run: u64,
    pub(crate) len: u64,
}

/// A run-probe hit: which run holds the key and the decoded record.
pub(crate) struct RunHit {
    pub(crate) run: u64,
    pub(crate) level: u32,
    pub(crate) len: u64,
    pub(crate) record: Record,
}

/// Which store file a faulted append targets (fault keying + messages).
#[derive(Clone, Copy)]
enum Sink {
    Segment(u64),
    Manifest,
}

impl Sink {
    fn name(self) -> String {
        match self {
            Sink::Segment(id) => segment::segment_name(id),
            Sink::Manifest => manifest::MANIFEST_NAME.to_owned(),
        }
    }
}

/// Mutable writer-side state, all behind one mutex: appends are
/// serialised (one active segment), reads are not.
pub(crate) struct Writer {
    pub(crate) manifest: File,
    pub(crate) active: u64,
    pub(crate) active_file: Option<File>,
    pub(crate) active_end: u64,
    /// The active segment has appended, not-yet-fsynced bytes.
    pub(crate) active_dirty: bool,
    /// Segments rolled out of active with not-yet-fsynced bytes.
    pub(crate) dirty: Vec<File>,
    /// The manifest has appended, not-yet-fsynced entries.
    pub(crate) manifest_dirty: bool,
    /// Committed accounting per non-dropped segment.
    pub(crate) segments: BTreeMap<u64, SegmentInfo>,
    /// Highest segment id ever used (dropped ids are never reused).
    pub(crate) max_seen: u64,
    /// Next run id to assign (monotonic within this instance).
    pub(crate) next_run: u64,
    /// Disk-write operation counter (fault keying).
    pub(crate) op: u64,
    /// Remaining crash budget, if the test hook is armed.
    pub(crate) budget: Option<u64>,
    /// Set after a simulated crash; every later mutation fails fast.
    pub(crate) dead: bool,
}

pub(crate) fn lock_plain<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Runs/tombstones critical sections are single map operations that
    // cannot leave the value half-mutated; recover from poisoning.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A crash-safe, content-addressed repository of compressed sequences.
///
/// All methods take `&self`; the store is `Send + Sync` and is shared
/// across service workers behind an `Arc`.
pub struct SequenceStore {
    pub(crate) dir: PathBuf,
    pub(crate) config: StoreConfig,
    pub(crate) index: ShardedIndex,
    pub(crate) writer: Mutex<Writer>,
    /// Sorted runs by id (ids only grow, so iteration order is age).
    pub(crate) runs: Mutex<BTreeMap<u64, Arc<RunHandle>>>,
    /// Tombstoned run-resident keys. Mutated only under the writer
    /// lock; read freely.
    pub(crate) tombstones: Mutex<HashMap<ContentKey, Tombstone>>,
    pub(crate) cache: BlockCache,
    pub(crate) gc: GroupCommit,
    /// Incremental scrub cursor: (run id, block index).
    pub(crate) scrub_pos: Mutex<(u64, u32)>,
    pub(crate) puts: AtomicU64,
    pub(crate) dedup_hits: AtomicU64,
    pub(crate) removes: AtomicU64,
    pub(crate) scrub_failures: AtomicU64,
    pub(crate) seals: AtomicU64,
    pub(crate) merges: AtomicU64,
    pub(crate) maintenance_failures: AtomicU64,
    pub(crate) bloom_negatives: AtomicU64,
}

impl std::fmt::Debug for SequenceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SequenceStore")
            .field("dir", &self.dir)
            .field("l0_records", &self.index.len())
            .finish_non_exhaustive()
    }
}

impl SequenceStore {
    /// Open (or create) the store at `dir` and recover to the last
    /// committed state: stream-replay the manifest (O(1) memory in the
    /// history length), truncate torn tails, and delete orphaned
    /// segment, run, and temp files. Run contents are *not* read here —
    /// their indexes and blooms load lazily on first use, which keeps
    /// open time a function of file count, not object count.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> Result<SequenceStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| StoreError::io("creating store directory", e))?;

        let mut map: HashMap<ContentKey, Location> = HashMap::new();
        let mut dropped: HashSet<u64> = HashSet::new();
        let mut totals: BTreeMap<u64, SegmentInfo> = BTreeMap::new();
        let mut ends: BTreeMap<u64, u64> = BTreeMap::new();
        let mut max_seen = 0u64;
        let mut run_metas: BTreeMap<u64, sstable::RunMeta> = BTreeMap::new();
        let mut tombs: HashMap<ContentKey, Tombstone> = HashMap::new();
        let mut next_run = 0u64;
        let stats = manifest::replay(&dir, |entry| match entry {
            Entry::Add { key, location } => {
                max_seen = max_seen.max(location.segment);
                let info = totals.entry(location.segment).or_default();
                info.bytes += location.len;
                info.records += 1;
                let end = ends.entry(location.segment).or_default();
                *end = (*end).max(location.offset + location.len);
                map.insert(key, location);
            }
            Entry::Remove { key } => {
                map.remove(&key);
            }
            Entry::DropSegment { segment } => {
                max_seen = max_seen.max(segment);
                dropped.insert(segment);
                totals.remove(&segment);
                ends.remove(&segment);
            }
            Entry::AddRun { meta } => {
                next_run = next_run.max(meta.id + 1);
                run_metas.insert(meta.id, meta);
            }
            Entry::DropRun { run } => {
                next_run = next_run.max(run + 1);
                run_metas.remove(&run);
            }
            Entry::Seal { run, segments } => {
                for s in segments {
                    max_seen = max_seen.max(s);
                    dropped.insert(s);
                    totals.remove(&s);
                    ends.remove(&s);
                }
                if let Some(meta) = run {
                    next_run = next_run.max(meta.id + 1);
                    run_metas.insert(meta.id, meta);
                }
            }
            Entry::Merge { run, runs } => {
                let inputs: HashSet<u64> = runs.iter().copied().collect();
                for r in &runs {
                    next_run = next_run.max(r + 1);
                    run_metas.remove(r);
                }
                // Tombstones against the merged-away inputs died with
                // them: the dead records were not copied forward.
                tombs.retain(|_, t| !inputs.contains(&t.run));
                if let Some(meta) = run {
                    next_run = next_run.max(meta.id + 1);
                    run_metas.insert(meta.id, meta);
                }
            }
            Entry::RemoveRun { key, run, len } => {
                if run_metas.contains_key(&run) {
                    tombs.insert(key, Tombstone { run, len });
                }
            }
            Entry::Revive { key, run: _ } => {
                tombs.remove(&key);
            }
        })?;
        if stats.discarded > 0 {
            // Drop the torn tail of an interrupted append so the next
            // entry starts on a clean boundary.
            truncate_file(&manifest::manifest_path(&dir), stats.valid_len)?;
        }

        // A Seal's victims take their L0 index entries with them (the
        // records now live in the run); a DropSegment's victims were
        // fully rewritten. Either way: dropped segment ⇒ not in L0.
        map.retain(|_, loc| !dropped.contains(&loc.segment));
        for (_, loc) in map.iter() {
            if let Some(info) = totals.get_mut(&loc.segment) {
                info.live_bytes += loc.len;
                info.live_records += 1;
            }
        }

        // Truncate every surviving segment to its commit frontier (only
        // the segment that was active at crash time can actually have a
        // torn tail, but truncation is idempotent hygiene).
        for (&id, &end) in &ends {
            let path = segment::segment_path(&dir, id);
            if path.exists() {
                truncate_file(&path, end)?;
            }
        }
        // Delete files no manifest entry references: orphan segments
        // and runs from an interrupted seal/merge, and `.tmp` leftovers
        // of a crash before a rename.
        let entries =
            fs::read_dir(&dir).map_err(|e| StoreError::io("listing store directory", e))?;
        for f in entries {
            let f = f.map_err(|e| StoreError::io("listing store directory", e))?;
            let name = f.file_name();
            let Some(name) = name.to_str() else { continue };
            let orphan = if let Some(id) = segment::parse_segment_name(name) {
                !totals.contains_key(&id)
            } else if let Some(id) = sstable::parse_run_name(name) {
                !run_metas.contains_key(&id)
            } else {
                name.ends_with(".tmp")
            };
            if orphan {
                fs::remove_file(f.path())
                    .map_err(|e| StoreError::io("removing orphan store file", e))?;
            }
        }

        // The active segment: the highest surviving one, unless full.
        // Segment ids are never reused, so when every segment was
        // dropped the next fresh id comes after everything ever seen —
        // otherwise a DropSegment entry earlier in the log would
        // retroactively kill records appended after the reopen.
        let mut active = totals
            .keys()
            .next_back()
            .copied()
            .unwrap_or(if stats.entries == 0 { 0 } else { max_seen + 1 });
        let mut active_end = ends.get(&active).copied().unwrap_or(0);
        if active_end >= config.segment_target_bytes {
            active = max_seen + 1;
            active_end = 0;
        }

        let manifest = OpenOptions::new()
            .create(true)
            .append(true)
            .open(manifest::manifest_path(&dir))
            .map_err(|e| StoreError::io("opening manifest", e))?;

        let index = ShardedIndex::new();
        for (key, loc) in map {
            index.insert(key, loc);
        }
        let runs: BTreeMap<u64, Arc<RunHandle>> = run_metas
            .into_values()
            .map(|meta| (meta.id, Arc::new(RunHandle::new(meta))))
            .collect();
        Ok(SequenceStore {
            index,
            writer: Mutex::new(Writer {
                manifest,
                active,
                active_file: None,
                active_end,
                active_dirty: false,
                dirty: Vec::new(),
                manifest_dirty: false,
                segments: totals,
                max_seen: max_seen.max(active),
                next_run,
                op: 0,
                budget: config.crash_after_bytes,
                dead: false,
            }),
            runs: Mutex::new(runs),
            tombstones: Mutex::new(tombs),
            cache: BlockCache::new(config.cache_bytes),
            gc: GroupCommit::new(),
            scrub_pos: Mutex::new((0, 0)),
            dir,
            config,
            puts: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            removes: AtomicU64::new(0),
            scrub_failures: AtomicU64::new(0),
            seals: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            maintenance_failures: AtomicU64::new(0),
            bloom_negatives: AtomicU64::new(0),
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Lock the writer, converting poisoning into fail-stop. A panic
    /// while the writer lock was held may have left the in-memory
    /// accounting out of sync with the log, so the store marks itself
    /// dead (subsequent writes fail typed with [`StoreError::Crashed`])
    /// instead of either panicking the caller or trusting suspect
    /// state. Reopening recovers: the manifest is consistent at every
    /// commit point.
    pub(crate) fn lock_writer(&self) -> MutexGuard<'_, Writer> {
        match self.writer.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.dead = true;
                guard
            }
        }
    }

    fn tombstone_of(&self, key: &ContentKey) -> Option<Tombstone> {
        lock_plain(&self.tombstones).get(key).copied()
    }

    /// Store `blob` under the content key of `seq` (the original
    /// sequence `blob` encodes). Duplicate content is detected by key —
    /// across every level — and not written again.
    pub fn put(&self, seq: &PackedSeq, blob: &CompressedBlob) -> Result<PutOutcome, StoreError> {
        self.put_with_key(ContentKey::of_sequence(seq), blob)
    }

    /// Store `blob` under an explicit key (the caller owns the
    /// key-derivation contract; [`SequenceStore::put`] is the safe way).
    pub fn put_with_key(
        &self,
        key: ContentKey,
        blob: &CompressedBlob,
    ) -> Result<PutOutcome, StoreError> {
        self.puts.fetch_add(1, Ordering::Relaxed);
        let deduped = Ok(PutOutcome { key, deduped: true });
        // Fast paths outside the writer lock; all re-checked under it.
        if self.index.contains(&key) {
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            return deduped;
        }
        if self.tombstone_of(&key).is_none() {
            // Bloom filters make this probe memory-only for new keys,
            // the common case. Errors here are ignored — the locked
            // probe below is the authoritative one.
            if let Ok(Some(_)) = self.run_probe(&key) {
                self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                return deduped;
            }
        }
        let record = Record {
            key,
            algorithm: blob.algorithm,
            original_len: blob.original_len as u64,
            payload: blob.to_bytes(),
        };
        let bytes = record.encode();

        let queued = self.gc.queue();
        let mut w = self.lock_writer();
        if w.dead {
            return Err(StoreError::Crashed);
        }
        if self.index.contains(&key) {
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            return deduped;
        }
        if let Some(t) = self.tombstone_of(&key) {
            // Content addressing: the tombstoned record in the run is
            // byte-identical to what we were asked to store. One Revive
            // entry is the whole write.
            let seq_no = self.append_manifest(&mut w, &Entry::Revive { key, run: t.run })?;
            lock_plain(&self.tombstones).remove(&key);
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            drop(w);
            self.wait_durable(queued, seq_no)?;
            return deduped;
        }
        // Authoritative run-level dedup check. An error here is a real
        // failure: treating an unreadable run as "absent" could commit
        // the same key twice and break the uniqueness invariant.
        if self.run_probe(&key)?.is_some() {
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            return deduped;
        }
        let location = self.append_record(&mut w, &bytes, &record)?;
        let seq_no = self.append_manifest(&mut w, &Entry::Add { key, location })?;
        let info = w.segments.entry(location.segment).or_default();
        info.bytes += location.len;
        info.live_bytes += location.len;
        info.records += 1;
        info.live_records += 1;
        self.index.insert(key, location);
        // Housekeeping after the commit point: its failures must not
        // turn a committed put into an error.
        self.maybe_maintain(&mut w);
        drop(w);
        self.wait_durable(queued, seq_no)?;
        Ok(PutOutcome {
            key,
            deduped: false,
        })
    }

    /// Fetch the compressed container stored under `key`, from level 0
    /// or whichever run holds it.
    pub fn get(&self, key: &ContentKey) -> Result<CompressedBlob, StoreError> {
        // A concurrent seal/merge can retire the file between lookup
        // and read; a retry re-resolves the moved record. Corruption is
        // never retried — it would return the same damaged bytes.
        let mut last: Option<StoreError> = None;
        for _ in 0..3 {
            if let Some(loc) = self.index.get(key) {
                match self.read_l0(key, loc) {
                    Ok(blob) => return Ok(blob),
                    Err(e @ StoreError::Corrupt { .. }) => return Err(e),
                    Err(e) => {
                        last = Some(e);
                        continue;
                    }
                }
            }
            if self.tombstone_of(key).is_some() {
                return Err(StoreError::NotFound(*key));
            }
            match self.run_probe(key) {
                Ok(Some(hit)) => {
                    return CompressedBlob::from_bytes(&hit.record.payload).map_err(|source| {
                        StoreError::Corrupt {
                            what: "record payload container",
                            source,
                        }
                    })
                }
                Ok(None) => return Err(StoreError::NotFound(*key)),
                Err(e @ StoreError::Corrupt { .. }) => return Err(e),
                Err(e) => {
                    last = Some(e);
                    continue;
                }
            }
        }
        Err(last.unwrap_or(StoreError::NotFound(*key)))
    }

    fn read_l0(&self, key: &ContentKey, loc: Location) -> Result<CompressedBlob, StoreError> {
        let bytes = segment::read_at(&self.dir, loc.segment, loc.offset, loc.len as usize)?;
        let (record, _) = Record::decode(&bytes)?;
        if record.key != *key {
            return Err(StoreError::Corrupt {
                what: "record key",
                source: dnacomp_codec::CodecError::Corrupt(
                    "stored record carries a different key",
                ),
            });
        }
        CompressedBlob::from_bytes(&record.payload).map_err(|source| StoreError::Corrupt {
            what: "record payload container",
            source,
        })
    }

    /// Probe every run (newest first) for `key`: range check, then
    /// bloom (in memory — a negative touches zero disk), then one block
    /// read, usually from cache.
    pub(crate) fn run_probe(&self, key: &ContentKey) -> Result<Option<RunHit>, StoreError> {
        let handles: Vec<Arc<RunHandle>> = {
            let runs = lock_plain(&self.runs);
            runs.values().rev().cloned().collect()
        };
        for h in handles {
            if !h.meta.covers(key) {
                continue;
            }
            let idx = h.load(&self.dir)?;
            if !idx.bloom.contains(key) {
                self.bloom_negatives.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let Some(bi) = idx.find_block(key) else {
                continue;
            };
            let entry = idx.blocks[bi];
            let block = match self.cache.get(h.meta.id, bi as u32) {
                Some(cached) => cached,
                None => {
                    let fresh = Arc::new(h.read_block(&self.dir, &entry)?);
                    self.cache.insert(h.meta.id, bi as u32, Arc::clone(&fresh));
                    fresh
                }
            };
            if let Some((record, len)) = sstable::scan_block(&block, key)? {
                return Ok(Some(RunHit {
                    run: h.meta.id,
                    level: h.meta.level,
                    len,
                    record,
                }));
            }
        }
        Ok(None)
    }

    /// `true` if a record with this key is committed and live.
    pub fn contains(&self, key: &ContentKey) -> bool {
        if self.index.contains(key) {
            return true;
        }
        if self.tombstone_of(key).is_some() {
            return false;
        }
        matches!(self.run_probe(key), Ok(Some(_)))
    }

    /// Metadata for `key` without decompressing anything. Level-0 hits
    /// are answered from the index alone; run hits read (usually
    /// cached) one block. Unreadable runs answer `None` — `verify`
    /// is the API that *reports* damage.
    pub fn stat(&self, key: &ContentKey) -> Option<RecordStat> {
        if let Some(loc) = self.index.get(key) {
            return Some(RecordStat {
                key: *key,
                algorithm: loc.algorithm,
                original_len: loc.original_len,
                stored_bytes: loc.len,
                segment: loc.segment,
                level: 0,
            });
        }
        if self.tombstone_of(key).is_some() {
            return None;
        }
        let hit = self.run_probe(key).ok().flatten()?;
        Some(RecordStat {
            key: *key,
            algorithm: hit.record.algorithm,
            original_len: hit.record.original_len,
            stored_bytes: hit.len,
            segment: hit.run,
            level: hit.level,
        })
    }

    /// Logically delete `key`. Returns whether it was present. An L0
    /// record dies by a `Remove` entry; a run-resident record gets a
    /// tombstone (`RemoveRun`) and its bytes stay until the next merge
    /// of that run reclaims them.
    pub fn remove(&self, key: &ContentKey) -> Result<bool, StoreError> {
        let queued = self.gc.queue();
        let mut w = self.lock_writer();
        if w.dead {
            return Err(StoreError::Crashed);
        }
        if let Some(loc) = self.index.get(key) {
            let seq_no = self.append_manifest(&mut w, &Entry::Remove { key: *key })?;
            self.index.remove(key);
            if let Some(info) = w.segments.get_mut(&loc.segment) {
                info.live_bytes -= loc.len;
                info.live_records -= 1;
            }
            self.removes.fetch_add(1, Ordering::Relaxed);
            drop(w);
            self.wait_durable(queued, seq_no)?;
            return Ok(true);
        }
        if self.tombstone_of(key).is_some() {
            return Ok(false);
        }
        match self.run_probe(key)? {
            Some(hit) => {
                let entry = Entry::RemoveRun {
                    key: *key,
                    run: hit.run,
                    len: hit.len,
                };
                let seq_no = self.append_manifest(&mut w, &entry)?;
                lock_plain(&self.tombstones).insert(
                    *key,
                    Tombstone {
                        run: hit.run,
                        len: hit.len,
                    },
                );
                self.removes.fetch_add(1, Ordering::Relaxed);
                drop(w);
                self.wait_durable(queued, seq_no)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// All keys currently committed, sorted. Level 0 answers from
    /// memory; runs are walked from disk. Best-effort on damaged runs
    /// (their keys are simply missing here) — `verify` reports damage.
    pub fn keys(&self) -> Vec<ContentKey> {
        let mut keys: Vec<ContentKey> = self.index.snapshot().into_iter().map(|(k, _)| k).collect();
        let handles: Vec<Arc<RunHandle>> = {
            let runs = lock_plain(&self.runs);
            runs.values().cloned().collect()
        };
        let dead: HashSet<ContentKey> = lock_plain(&self.tombstones).keys().copied().collect();
        for h in handles {
            let _ = h.for_each_record(&self.dir, |key, _| {
                if !dead.contains(&key) {
                    keys.push(key);
                }
                Ok(())
            });
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Live record count: L0 index entries plus run records minus
    /// tombstones. Exact when quiescent; a concurrent writer can skew
    /// it by its in-flight operation.
    pub fn len(&self) -> usize {
        let run_records: u64 = lock_plain(&self.runs)
            .values()
            .map(|h| h.meta.records)
            .sum();
        let tombs = lock_plain(&self.tombstones).len();
        self.index.len() + run_records as usize - tombs
    }

    /// `true` when no records are committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read and checksum-validate every live record — level 0 and every
    /// run, always from disk, never through the cache — counting
    /// failures into the stats. A failure means bit rot or an outside
    /// writer — never a crash, which cannot damage committed records.
    pub fn verify(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for (key, loc) in self.index.snapshot() {
            report.checked += 1;
            let outcome = self.read_l0(&key, loc);
            if let Err(e) = outcome {
                report.failures.push(ScrubFailure {
                    key,
                    error: e.to_string(),
                });
            }
        }
        let handles: Vec<Arc<RunHandle>> = {
            let runs = lock_plain(&self.runs);
            runs.values().cloned().collect()
        };
        let dead: HashSet<ContentKey> = lock_plain(&self.tombstones).keys().copied().collect();
        for h in handles {
            let mut run_checked = 0u64;
            let walk = h.for_each_record(&self.dir, |key, bytes| {
                if dead.contains(&key) {
                    return Ok(()); // dead bytes: not part of the contract
                }
                run_checked += 1;
                let (record, _) = Record::decode(bytes)?;
                CompressedBlob::from_bytes(&record.payload).map_err(StoreError::from)?;
                Ok(())
            });
            report.checked += run_checked;
            if let Err(e) = walk {
                report.failures.push(ScrubFailure {
                    key: h.meta.min_key,
                    error: format!("run {}: {e}", h.meta.id),
                });
            }
        }
        self.scrub_failures
            .fetch_add(report.failures.len() as u64, Ordering::Relaxed);
        report
    }

    /// Current counters and sizes across all levels.
    pub fn snapshot(&self) -> StoreSnapshot {
        let w = self.lock_writer();
        let (mut bytes_on_disk, mut live_bytes, mut segments) = (0u64, 0u64, 0u64);
        for info in w.segments.values() {
            bytes_on_disk += info.bytes;
            live_bytes += info.live_bytes;
            segments += 1;
        }
        drop(w);
        let (run_files, run_records, run_bytes) = {
            let runs = lock_plain(&self.runs);
            let files = runs.len() as u64;
            let records: u64 = runs.values().map(|h| h.meta.records).sum();
            let bytes: u64 = runs.values().map(|h| h.meta.bytes).sum();
            (files, records, bytes)
        };
        let (tomb_count, tomb_bytes) = {
            let tombs = lock_plain(&self.tombstones);
            (tombs.len() as u64, tombs.values().map(|t| t.len).sum::<u64>())
        };
        let cache = self.cache.stats();
        let wal = self.gc.stats();
        StoreSnapshot {
            records: self.index.len() as u64 + run_records - tomb_count,
            segments,
            runs: run_files,
            tombstones: tomb_count,
            bytes_on_disk: bytes_on_disk + run_bytes,
            live_bytes: live_bytes + run_bytes - tomb_bytes,
            puts: self.puts.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            scrub_failures: self.scrub_failures.load(Ordering::Relaxed),
            seals: self.seals.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            maintenance_failures: self.maintenance_failures.load(Ordering::Relaxed),
            bloom_negatives: self.bloom_negatives.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_bytes: cache.bytes,
            wal_appends: wal.appends,
            wal_batches: wal.fsync_batches,
        }
    }

    /// Per-level occupancy breakdown (level 0 = segments, 1+ = runs).
    pub fn levels(&self) -> Vec<LevelStat> {
        let mut out: BTreeMap<u32, LevelStat> = BTreeMap::new();
        {
            let w = self.lock_writer();
            if !w.segments.is_empty() {
                let l0 = out.entry(0).or_default();
                for info in w.segments.values() {
                    l0.files += 1;
                    l0.records += info.records;
                    l0.dead_records += info.records - info.live_records;
                    l0.bytes += info.bytes;
                    l0.dead_bytes += info.bytes - info.live_bytes;
                }
            }
        }
        let mut run_level: HashMap<u64, u32> = HashMap::new();
        {
            let runs = lock_plain(&self.runs);
            for h in runs.values() {
                run_level.insert(h.meta.id, h.meta.level);
                let stat = out.entry(h.meta.level).or_insert_with(|| LevelStat {
                    level: h.meta.level,
                    ..LevelStat::default()
                });
                stat.files += 1;
                stat.records += h.meta.records;
                stat.bytes += h.meta.bytes;
            }
        }
        {
            let tombs = lock_plain(&self.tombstones);
            for t in tombs.values() {
                if let Some(&level) = run_level.get(&t.run) {
                    if let Some(stat) = out.get_mut(&level) {
                        stat.dead_records += 1;
                        stat.dead_bytes += t.len;
                    }
                }
            }
        }
        out.into_iter()
            .map(|(level, mut s)| {
                s.level = level;
                s
            })
            .collect()
    }

    /// Append encoded record bytes to the active segment (rolling it if
    /// full) and return the committed-to-be location. The bytes are
    /// only *written* here; the batch leader fsyncs them (segments
    /// always before manifest).
    pub(crate) fn append_record(
        &self,
        w: &mut Writer,
        bytes: &[u8],
        record: &Record,
    ) -> Result<Location, StoreError> {
        let len = bytes.len() as u64;
        if w.active_end > 0 && w.active_end + len > self.config.segment_target_bytes {
            if w.active_dirty {
                // The rolled segment still owes an fsync; park the
                // handle for the next batch leader.
                if let Some(f) = w.active_file.take() {
                    w.dirty.push(f);
                }
                w.active_dirty = false;
            }
            w.active = w.max_seen + 1;
            w.max_seen = w.active;
            w.active_end = 0;
            w.active_file = None;
        }
        if w.active_file.is_none() {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(segment::segment_path(&self.dir, w.active))
                .map_err(|e| StoreError::io("opening active segment", e))?;
            w.active_file = Some(file);
        }
        let offset = w.active_end;
        let sink = Sink::Segment(w.active);
        self.faulted_write(w, sink, bytes)?;
        if self.config.sync {
            w.active_dirty = true;
        }
        w.active_end = offset + len;
        Ok(Location {
            segment: w.active,
            offset,
            len,
            algorithm: record.algorithm,
            original_len: record.original_len,
        })
    }

    /// Append one manifest entry — a commit point — and return its WAL
    /// sequence number for [`SequenceStore::wait_durable`].
    pub(crate) fn append_manifest(&self, w: &mut Writer, entry: &Entry) -> Result<u64, StoreError> {
        let bytes = entry.encode();
        self.faulted_write(w, Sink::Manifest, &bytes)?;
        if self.config.sync {
            w.manifest_dirty = true;
        }
        Ok(self.gc.note_append())
    }

    /// Leave the append queue, then block until `seq_no` is durable,
    /// leading an fsync batch if none is in flight and no writer is
    /// queued behind this one (a no-op when `sync` is off).
    fn wait_durable(&self, queued: Queued<'_>, seq_no: u64) -> Result<(), StoreError> {
        drop(queued);
        if self.config.sync {
            self.gc.wait_durable(seq_no, || self.sync_dirty())
        } else {
            Ok(())
        }
    }

    /// The batch leader's sync closure: fsync every dirty data file,
    /// then the manifest, covering every append made so far.
    fn sync_dirty(&self) -> Result<u64, StoreError> {
        let mut w = self.lock_writer();
        if w.dead {
            return Err(StoreError::Crashed);
        }
        let covered = self.gc.appended();
        self.fsync_data_files(&mut w)?;
        if w.manifest_dirty {
            w.manifest
                .sync_all()
                .map_err(|e| StoreError::io("syncing manifest", e))?;
            w.manifest_dirty = false;
        }
        Ok(covered)
    }

    fn fsync_data_files(&self, w: &mut Writer) -> Result<(), StoreError> {
        for f in w.dirty.drain(..) {
            f.sync_all()
                .map_err(|e| StoreError::io("syncing rolled segment", e))?;
        }
        if w.active_dirty {
            if let Some(f) = w.active_file.as_ref() {
                f.sync_all()
                    .map_err(|e| StoreError::io("syncing segment", e))?;
            }
            w.active_dirty = false;
        }
        Ok(())
    }

    /// Make everything appended so far durable *now*, inline. Level
    /// transitions call this right after their commit entry, before any
    /// source file is deleted — the manifest must never reference bytes
    /// that are gone.
    pub(crate) fn fsync_commit(&self, w: &mut Writer) -> Result<(), StoreError> {
        if !self.config.sync {
            return Ok(());
        }
        self.fsync_data_files(w)?;
        w.manifest
            .sync_all()
            .map_err(|e| StoreError::io("syncing manifest", e))?;
        w.manifest_dirty = false;
        self.gc.note_synced(self.gc.appended());
        Ok(())
    }

    /// Decide where (if anywhere) this write gets torn: the crash
    /// budget first, then the seeded fault schedule.
    fn faulted_cut(&self, w: &mut Writer, name: &str, len: usize) -> Option<usize> {
        let op = w.op;
        w.op += 1;
        let mut cut: Option<usize> = None;
        if let Some(budget) = w.budget.as_mut() {
            if (len as u64) > *budget {
                cut = Some(*budget as usize);
            } else {
                *budget -= len as u64;
            }
        }
        if cut.is_none() {
            cut = self.config.faults.torn_write(name, op, len);
        }
        cut
    }

    /// One fault-injectable append to a segment or the manifest. A torn
    /// write persists only a prefix and kills the store instance,
    /// exactly like a process crash at that byte.
    fn faulted_write(&self, w: &mut Writer, sink: Sink, buf: &[u8]) -> Result<(), StoreError> {
        let name = sink.name();
        let cut = self.faulted_cut(w, &name, buf.len());
        let file = match sink {
            Sink::Segment(_) => w
                .active_file
                .as_mut()
                .expect("segment writes follow an open"),
            Sink::Manifest => &mut w.manifest,
        };
        let written = write_or_tear(file, &name, buf, cut);
        w.dead |= cut.is_some();
        written
    }

    /// Append `buf` to a file the store is creating — a run or a
    /// manifest checkpoint — through the same fault machinery as
    /// segment and manifest appends, so every chunk of those files is a
    /// byte-granular kill point too.
    pub(crate) fn faulted_write_file(
        &self,
        w: &mut Writer,
        name: &str,
        file: &mut File,
        buf: &[u8],
    ) -> Result<(), StoreError> {
        let cut = self.faulted_cut(w, name, buf.len());
        let written = write_or_tear(file, name, buf, cut);
        w.dead |= cut.is_some();
        written
    }
}

/// Write `buf`, or only its first `cut` bytes. A torn prefix is flushed
/// so that reopening this very directory sees exactly the torn state.
fn write_or_tear(
    file: &mut File,
    name: &str,
    buf: &[u8],
    cut: Option<usize>,
) -> Result<(), StoreError> {
    let kept = cut.unwrap_or(buf.len());
    file.write_all(&buf[..kept])
        .map_err(|e| StoreError::io("appending store file", e))?;
    match cut {
        None => Ok(()),
        Some(kept) => {
            let _ = file.sync_all();
            Err(StoreError::TornWrite {
                file: name.to_owned(),
                kept,
                asked: buf.len(),
            })
        }
    }
}

pub(crate) fn truncate_file(path: &Path, len: u64) -> Result<(), StoreError> {
    let f = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| StoreError::io("opening file to truncate", e))?;
    f.set_len(len)
        .map_err(|e| StoreError::io("truncating torn tail", e))?;
    f.sync_all()
        .map_err(|e| StoreError::io("syncing truncated file", e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnacomp_algos::{Algorithm, CompressedBlob};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dnacomp-store-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seq(text: &[u8]) -> PackedSeq {
        PackedSeq::from_ascii(text).unwrap()
    }

    fn blob(s: &PackedSeq, payload: &[u8]) -> CompressedBlob {
        CompressedBlob::new(Algorithm::Dnax, s, payload.to_vec())
    }

    fn small_segments() -> StoreConfig {
        StoreConfig {
            segment_target_bytes: 160,
            sync: false,
            ..StoreConfig::default()
        }
    }

    #[test]
    fn put_get_roundtrip_and_dedup() {
        let dir = tmp_dir("roundtrip");
        let store = SequenceStore::open(&dir, small_segments()).unwrap();
        let s = seq(b"ACGTACGTAACC");
        let b = blob(&s, b"pay");
        let out = store.put(&s, &b).unwrap();
        assert!(!out.deduped);
        assert_eq!(store.get(&out.key).unwrap(), b);
        // Same content again — even under a different algorithm — is a
        // dedup hit and the original record stands.
        let b2 = CompressedBlob::new(Algorithm::Gzip, &s, b"otherpayload".to_vec());
        let out2 = store.put(&s, &b2).unwrap();
        assert!(out2.deduped);
        assert_eq!(out2.key, out.key);
        assert_eq!(store.get(&out.key).unwrap().algorithm, Algorithm::Dnax);
        let snap = store.snapshot();
        assert_eq!(snap.puts, 2);
        assert_eq!(snap.dedup_hits, 1);
        assert_eq!(snap.records, 1);
        assert_eq!(snap.bytes_on_disk, snap.live_bytes);
        // Zero-length sequences are first-class records.
        let empty = PackedSeq::new();
        let eb = blob(&empty, b"");
        let eo = store.put(&empty, &eb).unwrap();
        assert!(!eo.deduped);
        assert_eq!(store.get(&eo.key).unwrap(), eb);
        assert_eq!(store.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_recovers_everything_across_levels() {
        let dir = tmp_dir("reopen");
        let mut keys = Vec::new();
        {
            let store = SequenceStore::open(&dir, small_segments()).unwrap();
            for i in 0..30u8 {
                let s = seq(format!("ACGT{}", "A".repeat(i as usize + 1)).as_bytes());
                let b = blob(&s, &[i; 24]);
                keys.push((store.put(&s, &b).unwrap().key, b));
            }
            let snap = store.snapshot();
            assert!(snap.seals > 0, "30 records across 160-byte segments must auto-seal: {snap:?}");
            assert!(snap.runs > 0);
            assert_eq!(snap.maintenance_failures, 0);
        }
        let store = SequenceStore::open(&dir, small_segments()).unwrap();
        assert_eq!(store.len(), 30);
        for (key, b) in &keys {
            assert_eq!(&store.get(key).unwrap(), b);
            assert!(store.stat(key).is_some());
        }
        assert!(store.verify().is_clean());
        assert_eq!(store.keys().len(), 30);
        // The level breakdown accounts for every record exactly once.
        let levels = store.levels();
        let total: u64 = levels.iter().map(|l| l.records - l.dead_records).sum();
        assert_eq!(total, 30, "{levels:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_key_is_not_found() {
        let dir = tmp_dir("notfound");
        let store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
        let key = ContentKey([42; 16]);
        assert!(matches!(store.get(&key), Err(StoreError::NotFound(k)) if k == key));
        assert!(store.stat(&key).is_none());
        assert!(!store.remove(&key).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_then_compact_reclaims_dead_data() {
        let dir = tmp_dir("compact");
        let store = SequenceStore::open(&dir, small_segments()).unwrap();
        let mut keys = Vec::new();
        for i in 0..24u8 {
            let s = seq(format!("CCGG{}", "T".repeat(i as usize + 1)).as_bytes());
            keys.push(store.put(&s, &blob(&s, &[i; 24])).unwrap().key);
        }
        let before = store.snapshot();
        // Kill most records: a mix of L0 removes and run tombstones.
        for key in &keys[..20] {
            assert!(store.remove(key).unwrap());
        }
        assert_eq!(store.len(), 4);
        let report = store.compact().unwrap();
        assert!(report.segments_removed > 0, "{report:?}");
        assert!(report.bytes_reclaimed > 0, "{report:?}");
        let after = store.snapshot();
        assert!(after.bytes_on_disk < before.bytes_on_disk);
        assert_eq!(after.records, 4);
        assert_eq!(after.tombstones, 0, "compaction purges tombstones");
        // Survivors are intact, removed keys stay gone — including
        // after a reopen (the checkpointed manifest is authoritative).
        for key in &keys[20..] {
            assert!(store.get(key).is_ok());
        }
        drop(store);
        let store = SequenceStore::open(&dir, small_segments()).unwrap();
        assert_eq!(store.len(), 4);
        for key in &keys[..20] {
            assert!(matches!(store.get(key), Err(StoreError::NotFound(_))));
        }
        for key in &keys[20..] {
            assert!(store.get(key).is_ok());
        }
        assert!(store.verify().is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_from_run_then_revive_by_reput() {
        let dir = tmp_dir("revive");
        let store = SequenceStore::open(&dir, small_segments()).unwrap();
        let mut pairs = Vec::new();
        for i in 0..12u8 {
            let s = seq(format!("GGTT{}", "C".repeat(i as usize + 1)).as_bytes());
            let b = blob(&s, &[i; 24]);
            let key = store.put(&s, &b).unwrap().key;
            pairs.push((s, b, key));
        }
        // Force everything into runs.
        store.compact().unwrap();
        let (s, b, key) = &pairs[3];
        let (s, b, key) = (s, b.clone(), *key);
        assert!(store.stat(&key).unwrap().level >= 1);
        // Remove a run-resident record: tombstone, not rewrite.
        assert!(store.remove(&key).unwrap());
        assert!(matches!(store.get(&key), Err(StoreError::NotFound(_))));
        assert!(!store.contains(&key));
        assert_eq!(store.len(), 11);
        assert_eq!(store.snapshot().tombstones, 1);
        // Re-put the same content: a Revive entry, no payload write.
        let bytes_before = store.snapshot().bytes_on_disk;
        let out = store.put(s, &b).unwrap();
        assert!(out.deduped, "revive is answered without writing the payload");
        assert_eq!(out.key, key);
        assert_eq!(store.get(&key).unwrap(), b);
        assert_eq!(store.snapshot().bytes_on_disk, bytes_before);
        assert_eq!(store.snapshot().tombstones, 0);
        assert_eq!(store.len(), 12);
        // And the whole dance survives a reopen.
        drop(store);
        let store = SequenceStore::open(&dir, small_segments()).unwrap();
        assert_eq!(store.len(), 12);
        assert_eq!(store.get(&key).unwrap(), b);
        assert!(store.verify().is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hot_gets_are_served_from_the_block_cache() {
        let dir = tmp_dir("cache");
        let store = SequenceStore::open(&dir, small_segments()).unwrap();
        let mut keys = Vec::new();
        for i in 0..16u8 {
            let s = seq(format!("AATT{}", "G".repeat(i as usize + 1)).as_bytes());
            keys.push(store.put(&s, &blob(&s, &[i; 24])).unwrap().key);
        }
        store.compact().unwrap();
        assert!(store.snapshot().runs > 0);
        for key in &keys {
            store.get(key).unwrap();
        }
        let cold = store.snapshot();
        assert!(cold.cache_misses > 0, "first pass fills the cache: {cold:?}");
        for _ in 0..3 {
            for key in &keys {
                store.get(key).unwrap();
            }
        }
        let hot = store.snapshot();
        assert!(hot.cache_hits >= 3 * keys.len() as u64, "{hot:?}");
        assert_eq!(hot.cache_misses, cold.cache_misses, "hot gets touch no disk");
        // Negative gets are answered by the blooms without disk reads.
        let absent = ContentKey([0xEE; 16]);
        assert!(matches!(store.get(&absent), Err(StoreError::NotFound(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_concurrent_puts() {
        let dir = tmp_dir("gc");
        let config = StoreConfig {
            sync: true,
            ..StoreConfig::default()
        };
        let store = Arc::new(SequenceStore::open(&dir, config).unwrap());
        // Each leader fsyncs at once. Writers that arrive during its
        // fsync queue on the writer lock, append once it is released,
        // and the last of them leads one batch for them all.
        let threads: Vec<_> = (0..8u8)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..8u8 {
                        let s = seq(format!("AC{}{}", "G".repeat(t as usize + 1), "T".repeat(i as usize + 1)).as_bytes());
                        store.put(&s, &blob(&s, &[t ^ i; 16])).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = store.snapshot();
        assert_eq!(snap.records, 64);
        assert_eq!(snap.wal_appends, 64);
        assert!(snap.wal_batches > 0);
        assert!(
            snap.wal_batches < snap.wal_appends,
            "8 concurrent writers must share fsync batches: {snap:?}"
        );
        drop(store);
        let store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.len(), 64);
        assert!(store.verify().is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A merge validates its inputs as it streams them, so a damaged
    /// input can fail it after part of the output run is written. The
    /// failure must still leave the store exactly as it was.
    #[test]
    fn merge_failing_mid_stream_leaves_every_input_in_place() {
        let dir = tmp_dir("merge-fail");
        // Three level-1 runs from explicit seals (automatic maintenance
        // off), with one record per data block.
        let build = StoreConfig {
            l0_seal_segments: 0,
            run_block_bytes: 1,
            ..small_segments()
        };
        let store = SequenceStore::open(&dir, build).unwrap();
        for i in 0..18u8 {
            let s = seq(format!("GATC{}", "A".repeat(i as usize + 1)).as_bytes());
            store.put(&s, &blob(&s, &[i; 24])).unwrap();
            if i % 6 == 5 {
                store.compact_level(0).unwrap();
            }
        }
        let victim = lock_plain(&store.runs).values().next().cloned().unwrap();
        assert_eq!(store.snapshot().runs, 3);
        // Its last record follows at least two others in key order, so
        // the merge has emitted output blocks before it reaches it.
        assert!(victim.meta.records >= 3, "{:?}", victim.meta);
        let last = *victim.load(&dir).unwrap().blocks.last().unwrap();
        drop(store);
        let path = sstable::run_path(&dir, victim.meta.id);
        let mut bytes = fs::read(&path).unwrap();
        bytes[(last.offset + last.len / 2) as usize] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let files = |dir: &Path| -> BTreeMap<String, Vec<u8>> {
            fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap())
                .map(|e| (e.file_name().into_string().unwrap(), fs::read(e.path()).unwrap()))
                .collect()
        };
        let runs_before: Vec<_> = files(&dir)
            .into_iter()
            .filter(|(name, _)| name.starts_with("run-"))
            .collect();
        let manifest_before = fs::read(manifest::manifest_path(&dir)).unwrap();
        // Reopen so that the next put's maintenance merges level 1.
        let store = SequenceStore::open(
            &dir,
            StoreConfig {
                l0_seal_segments: 1000,
                level_fanout: 3,
                ..build
            },
        )
        .unwrap();
        let s = seq(b"TTTTCCCCGGGGAAAA");
        let key = store.put(&s, &blob(&s, &[99; 24])).unwrap().key;
        let snap = store.snapshot();
        assert_eq!(snap.maintenance_failures, 1, "{snap:?}");
        assert_eq!(snap.merges, 0);
        // Inputs untouched, no temp file, and the manifest gained only
        // the put's own entry.
        let check_untouched = |store: &SequenceStore| {
            let now = files(&dir);
            assert!(!now.keys().any(|n| n.ends_with(".tmp")), "{:?}", now.keys());
            let runs_now: Vec<_> = now
                .into_iter()
                .filter(|(name, _)| name.starts_with("run-"))
                .collect();
            assert!(runs_now == runs_before, "input runs changed");
            let location = store.index.get(&key).unwrap();
            let added = Entry::Add { key, location }.encode();
            let manifest_now = fs::read(manifest::manifest_path(&dir)).unwrap();
            assert!(manifest_now == [manifest_before.as_slice(), &added].concat());
        };
        check_untouched(&store);
        // Asked directly, the merge reports the damage as typed.
        let err = store.compact_level(1).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        check_untouched(&store);
        assert_eq!(store.len(), 19);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_budget_kills_then_reopen_recovers_committed_prefix() {
        let dir = tmp_dir("budget");
        // First, commit two records cleanly.
        let committed: Vec<_> = {
            let store = SequenceStore::open(&dir, small_segments()).unwrap();
            (0..2u8)
                .map(|i| {
                    let s = seq(format!("AC{}", "G".repeat(i as usize + 3)).as_bytes());
                    let b = blob(&s, &[i; 10]);
                    (store.put(&s, &b).unwrap().key, b)
                })
                .collect()
        };
        // Then crash almost immediately into the third put.
        let store = SequenceStore::open(
            &dir,
            StoreConfig {
                crash_after_bytes: Some(5),
                ..small_segments()
            },
        )
        .unwrap();
        let s = seq(b"TTTTGGGGCCCC");
        let err = store.put(&s, &blob(&s, &[9; 10])).unwrap_err();
        assert!(err.is_simulated_crash(), "{err}");
        // The dead instance refuses further mutations…
        assert!(matches!(
            store.put(&s, &blob(&s, &[9; 10])),
            Err(StoreError::Crashed)
        ));
        drop(store);
        // …and reopening recovers exactly the committed records.
        let store = SequenceStore::open(&dir, small_segments()).unwrap();
        assert_eq!(store.len(), 2);
        for (key, b) in &committed {
            assert_eq!(&store.get(key).unwrap(), b);
        }
        assert!(store.verify().is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_flags_a_flipped_byte() {
        let dir = tmp_dir("scrub");
        let store = SequenceStore::open(&dir, small_segments()).unwrap();
        let s = seq(b"ACGTACGTACGTACGT");
        let key = store.put(&s, &blob(&s, &[7; 40])).unwrap().key;
        drop(store);
        // Flip one payload byte on disk behind the store's back.
        let seg = segment::segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&seg, &bytes).unwrap();
        let store = SequenceStore::open(&dir, small_segments()).unwrap();
        let report = store.verify();
        assert_eq!(report.checked, 1);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].key, key);
        assert_eq!(store.snapshot().scrub_failures, 1);
        assert!(store.get(&key).is_err(), "get must not serve corrupt data");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_flags_a_flipped_byte_inside_a_run() {
        let dir = tmp_dir("scrub-run");
        let store = SequenceStore::open(&dir, small_segments()).unwrap();
        for i in 0..10u8 {
            let s = seq(format!("TTAA{}", "G".repeat(i as usize + 1)).as_bytes());
            store.put(&s, &blob(&s, &[i; 24])).unwrap();
        }
        store.compact().unwrap();
        assert!(store.verify().is_clean());
        drop(store);
        // Flip a byte in the middle of the run's data region.
        let run = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".sst"))
            .expect("compaction left a run");
        let mut bytes = fs::read(run.path()).unwrap();
        bytes[40] ^= 0x01;
        fs::write(run.path(), &bytes).unwrap();
        let store = SequenceStore::open(&dir, small_segments()).unwrap();
        let report = store.verify();
        assert!(!report.is_clean(), "a damaged run must be reported");
        assert!(store.snapshot().scrub_failures > 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
