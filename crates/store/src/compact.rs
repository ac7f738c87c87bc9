//! Level maintenance: sealing L0 into runs, merging runs downward, and
//! checkpointing the manifest.
//!
//! Every transition follows the same commit discipline:
//!
//! 1. Stream the output run to `run-NNNNNN.sst.tmp`, fsync, rename to
//!    its final name. A seal reads its victims' records one at a time
//!    in key order; a merge is a k-way merge over per-input cursors
//!    that each hold one data block. Inputs are validated as they
//!    stream, so a damaged input can fail the build after part of the
//!    output is written: the temp file is then removed and every input
//!    stays in place. An orphan left by a crash at either stage is
//!    deleted on reopen — the manifest does not know it yet.
//! 2. Append **one** manifest entry carrying the new run's meta *and*
//!    the full list of source files it replaces, then fsync the
//!    manifest inline. One entry means one commit point: replay either
//!    sees the whole transition or none of it, so a record is never
//!    counted twice (old home + new home) after any crash.
//! 3. Only then mutate in-memory state and delete the source files.
//!
//! The drop list is capped ([`manifest::MAX_DROP_LIST`]); a transition
//! over more sources than that simply runs as several full transitions,
//! never by splitting one entry.

use crate::manifest::{self, Entry, Location};
use crate::record::{ContentKey, Record};
use crate::sstable::{self, corrupt, RunCursor, RunHandle, RunMeta, RunWriter};
use crate::store::{lock_plain, CompactReport, SequenceStore, Tombstone, Writer};
use crate::{segment, StoreError};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fs::{self, File};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl SequenceStore {
    /// Opportunistic maintenance after a put's commit point, called with
    /// the writer lock held. Failures (including injected crashes) are
    /// counted, not propagated: the put already committed, and a store
    /// killed mid-maintenance recovers on reopen.
    pub(crate) fn maybe_maintain(&self, w: &mut Writer) {
        if self.config.l0_seal_segments == 0 || w.dead {
            return;
        }
        if let Err(_e) = self.maintain_locked(w) {
            self.maintenance_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn maintain_locked(&self, w: &mut Writer) -> Result<(), StoreError> {
        let mut report = CompactReport::default();
        let sealed = w.segments.len().saturating_sub(1); // active stays
        if sealed >= self.config.l0_seal_segments {
            self.seal_l0(w, &mut report)?;
        }
        while let Some(level) = self.auto_merge_candidate() {
            if !self.merge_level(w, level, &mut report)? {
                break;
            }
        }
        Ok(())
    }

    /// Lowest level whose run count reached the fanout, if any.
    fn auto_merge_candidate(&self) -> Option<u32> {
        let runs = lock_plain(&self.runs);
        let mut per_level: HashMap<u32, usize> = HashMap::new();
        for h in runs.values() {
            *per_level.entry(h.meta.level).or_default() += 1;
        }
        per_level
            .into_iter()
            .filter(|&(_, n)| n >= self.config.level_fanout)
            .map(|(l, _)| l)
            .min()
    }

    /// Lowest level worth a *forced* merge: two runs to combine, or any
    /// run carrying tombstoned records to reclaim.
    fn forced_merge_candidate(&self) -> Option<u32> {
        let runs = lock_plain(&self.runs);
        let dead_runs: HashSet<u64> = lock_plain(&self.tombstones)
            .values()
            .map(|t| t.run)
            .collect();
        let mut per_level: HashMap<u32, usize> = HashMap::new();
        let mut tombstoned: Option<u32> = None;
        for h in runs.values() {
            *per_level.entry(h.meta.level).or_default() += 1;
            if dead_runs.contains(&h.meta.id) {
                tombstoned = Some(tombstoned.map_or(h.meta.level, |l| l.min(h.meta.level)));
            }
        }
        let crowded = per_level
            .into_iter()
            .filter(|&(_, n)| n >= 2)
            .map(|(l, _)| l)
            .min();
        match (crowded, tombstoned) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Reclaim all dead space now: seal every sealed L0 segment into
    /// runs, merge levels until no level has two runs or a tombstone,
    /// then checkpoint the manifest to its live contents.
    pub fn compact(&self) -> Result<CompactReport, StoreError> {
        let mut w = self.lock_writer();
        if w.dead {
            return Err(StoreError::Crashed);
        }
        let mut report = CompactReport::default();
        while self.seal_l0(&mut w, &mut report)? {}
        while let Some(level) = self.forced_merge_candidate() {
            if !self.merge_level(&mut w, level, &mut report)? {
                break;
            }
        }
        self.checkpoint_locked(&mut w)?;
        Ok(report)
    }

    /// Compact exactly one level: level 0 seals its sealed segments
    /// into a run; level ≥ 1 merges its runs into the next level. No
    /// cascade, no checkpoint — surgical reclamation for operators (the
    /// CLI's `store compact --level`).
    pub fn compact_level(&self, level: u32) -> Result<CompactReport, StoreError> {
        let mut w = self.lock_writer();
        if w.dead {
            return Err(StoreError::Crashed);
        }
        let mut report = CompactReport::default();
        if level == 0 {
            self.seal_l0(&mut w, &mut report)?;
        } else {
            self.merge_level(&mut w, level, &mut report)?;
        }
        Ok(report)
    }

    /// Seal up to [`manifest::MAX_DROP_LIST`] non-active L0 segments
    /// into one level-1 run. Returns whether anything happened.
    pub(crate) fn seal_l0(
        &self,
        w: &mut Writer,
        report: &mut CompactReport,
    ) -> Result<bool, StoreError> {
        let victims: Vec<u64> = w
            .segments
            .keys()
            .copied()
            .filter(|&id| id != w.active)
            .take(manifest::MAX_DROP_LIST)
            .collect();
        if victims.is_empty() {
            return Ok(false);
        }
        let victim_set: HashSet<u64> = victims.iter().copied().collect();
        let victim_bytes: u64 = victims
            .iter()
            .filter_map(|id| w.segments.get(id))
            .map(|info| info.bytes)
            .sum();
        // The victims' live records, sorted by key. Only the locations
        // are held; the run build reads one record at a time.
        let mut live: Vec<(ContentKey, Location)> = self
            .index
            .snapshot()
            .into_iter()
            .filter(|(_, loc)| victim_set.contains(&loc.segment))
            .collect();
        live.sort_unstable_by_key(|(key, _)| *key);

        let run = if live.is_empty() {
            None // all-dead segments: the Seal entry just drops them
        } else {
            Some(self.install_run(w, 1, live.len() as u64, |out| {
                for (key, loc) in &live {
                    let bytes =
                        segment::read_at(&self.dir, loc.segment, loc.offset, loc.len as usize)?;
                    let (record, _) = Record::decode(&bytes)?;
                    if record.key != *key {
                        return Err(corrupt(
                            "record key",
                            "stored record carries a different key",
                        ));
                    }
                    out.add(*key, &bytes)?;
                }
                Ok(())
            })?)
        };
        let out_bytes = run.map_or(0, |m| m.bytes);
        let entry = Entry::Seal {
            run,
            segments: victims.clone(),
        };
        self.append_manifest(w, &entry)?;
        self.fsync_commit(w)?; // the commit point, durable before deletes

        if let Some(meta) = run {
            w.next_run = meta.id + 1;
            lock_plain(&self.runs).insert(meta.id, Arc::new(RunHandle::new(meta)));
            for (key, _) in &live {
                self.index.remove(key);
            }
        }
        for id in &victims {
            w.segments.remove(id);
            let _ = fs::remove_file(segment::segment_path(&self.dir, *id));
        }
        report.segments_removed += victims.len() as u64;
        report.bytes_reclaimed += victim_bytes.saturating_sub(out_bytes);
        report.records_moved += live.len() as u64;
        self.seals.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Merge every run at `level` into one run at `level + 1`, dropping
    /// tombstoned records. Returns whether anything happened.
    pub(crate) fn merge_level(
        &self,
        w: &mut Writer,
        level: u32,
        report: &mut CompactReport,
    ) -> Result<bool, StoreError> {
        let inputs: Vec<Arc<RunHandle>> = {
            let runs = lock_plain(&self.runs);
            runs.values()
                .filter(|h| h.meta.level == level)
                .take(manifest::MAX_DROP_LIST)
                .cloned()
                .collect()
        };
        if inputs.is_empty() {
            return Ok(false);
        }
        let input_ids: HashSet<u64> = inputs.iter().map(|h| h.meta.id).collect();
        let dead: HashSet<ContentKey> = lock_plain(&self.tombstones)
            .iter()
            .filter(|(_, t)| input_ids.contains(&t.run))
            .map(|(k, _)| *k)
            .collect();
        let input_bytes: u64 = inputs.iter().map(|h| h.meta.bytes).sum();
        // Every input record survives except the tombstoned ones: each
        // dead key lives in exactly one input run.
        let expected = inputs
            .iter()
            .map(|h| h.meta.records)
            .sum::<u64>()
            .checked_sub(dead.len() as u64)
            .ok_or_else(|| corrupt("run merge", "more tombstones than input records"))?;

        let run = if expected == 0 {
            None
        } else {
            Some(self.install_run(w, level + 1, expected, |out| {
                merge_into(out, &inputs, &self.dir, &dead)
            })?)
        };
        let out_bytes = run.map_or(0, |m| m.bytes);
        let mut sorted_ids: Vec<u64> = input_ids.iter().copied().collect();
        sorted_ids.sort_unstable();
        let entry = Entry::Merge {
            run,
            runs: sorted_ids,
        };
        self.append_manifest(w, &entry)?;
        self.fsync_commit(w)?;

        {
            let mut runs = lock_plain(&self.runs);
            for id in &input_ids {
                runs.remove(id);
            }
            if let Some(meta) = run {
                w.next_run = meta.id + 1;
                runs.insert(meta.id, Arc::new(RunHandle::new(meta)));
            }
        }
        // The tombstoned records were not copied forward: the
        // tombstones are spent.
        lock_plain(&self.tombstones).retain(|_, t| !input_ids.contains(&t.run));
        for id in &input_ids {
            self.cache.purge_run(*id);
            let _ = fs::remove_file(sstable::run_path(&self.dir, *id));
        }
        report.segments_removed += inputs.len() as u64;
        report.bytes_reclaimed += input_bytes.saturating_sub(out_bytes);
        report.records_moved += expected;
        self.merges.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Stream a run of exactly `expected` records, fed in key order by
    /// `feed`, to a temp file through the fault machinery (every chunk
    /// spends the crash budget), fsync it, and rename it into place.
    /// The run exists on disk but is NOT yet committed — the caller's
    /// manifest entry does that. If the build fails, the temp file is
    /// removed, unless the failure was a simulated crash: a killed
    /// process leaves its partial file for reopen to delete.
    fn install_run(
        &self,
        w: &mut Writer,
        level: u32,
        expected: u64,
        feed: impl FnOnce(&mut RunWriter<'_>) -> Result<(), StoreError>,
    ) -> Result<RunMeta, StoreError> {
        let id = w.next_run;
        let tmp = sstable::run_path(&self.dir, id).with_extension("sst.tmp");
        let footer = self
            .write_run(w, id, &tmp, expected, feed)
            .inspect_err(|_| {
                if !w.dead {
                    let _ = fs::remove_file(&tmp);
                }
            })?;
        Ok(RunMeta {
            id,
            level,
            records: footer.records,
            bytes: footer.data_len
                + footer.index_len
                + footer.bloom_len
                + sstable::FOOTER_LEN as u64,
            min_key: footer.min_key,
            max_key: footer.max_key,
        })
    }

    fn write_run(
        &self,
        w: &mut Writer,
        id: u64,
        tmp: &Path,
        expected: u64,
        feed: impl FnOnce(&mut RunWriter<'_>) -> Result<(), StoreError>,
    ) -> Result<sstable::Footer, StoreError> {
        let name = sstable::run_name(id);
        let mut file = File::create(tmp).map_err(|e| StoreError::io("creating new run", e))?;
        let mut sink = |chunk: &[u8]| self.faulted_write_file(w, &name, &mut file, chunk);
        let mut out = RunWriter::new(
            &mut sink,
            expected,
            self.config.run_block_bytes,
            self.config.bloom_bits_per_key,
        );
        feed(&mut out)?;
        let footer = out.finish()?;
        if self.config.sync {
            file.sync_all()
                .map_err(|e| StoreError::io("syncing new run", e))?;
        }
        drop(file);
        fs::rename(tmp, sstable::run_path(&self.dir, id))
            .map_err(|e| StoreError::io("installing new run", e))?;
        if self.config.sync {
            // Make the rename itself durable where the platform needs it.
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        Ok(footer)
    }

    /// Rewrite the manifest to exactly the live state (temp file +
    /// fsync + atomic rename), shedding the full history. Runs first,
    /// so tombstones replay against known runs.
    pub(crate) fn checkpoint_locked(&self, w: &mut Writer) -> Result<(), StoreError> {
        // Everything the checkpoint references must be durable before
        // the rename makes the slimmer manifest authoritative.
        if self.config.sync {
            self.fsync_commit(w)?;
        }
        let mut entries: Vec<Entry> = Vec::new();
        {
            let runs = lock_plain(&self.runs);
            for h in runs.values() {
                entries.push(Entry::AddRun { meta: h.meta });
            }
        }
        for (key, location) in self.index.snapshot() {
            entries.push(Entry::Add { key, location });
        }
        {
            let tombs = lock_plain(&self.tombstones);
            let mut sorted: Vec<(&ContentKey, &Tombstone)> = tombs.iter().collect();
            sorted.sort_unstable_by_key(|(k, _)| **k);
            for (key, t) in sorted {
                entries.push(Entry::RemoveRun {
                    key: *key,
                    run: t.run,
                    len: t.len,
                });
            }
        }
        let buf = manifest::encode_all(&entries);
        let tmp = self.dir.join("manifest.tmp");
        let mut file =
            File::create(&tmp).map_err(|e| StoreError::io("creating manifest checkpoint", e))?;
        self.faulted_write_file(w, "manifest.tmp", &mut file, &buf)?;
        if self.config.sync {
            file.sync_all()
                .map_err(|e| StoreError::io("syncing manifest checkpoint", e))?;
        }
        drop(file);
        fs::rename(&tmp, manifest::manifest_path(&self.dir))
            .map_err(|e| StoreError::io("installing manifest checkpoint", e))?;
        if self.config.sync {
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        // The old append handle points at the unlinked file; reopen.
        w.manifest = fs::OpenOptions::new()
            .append(true)
            .open(manifest::manifest_path(&self.dir))
            .map_err(|e| StoreError::io("reopening manifest", e))?;
        w.manifest_dirty = false;
        if self.config.sync {
            self.gc.note_synced(self.gc.appended());
        }
        Ok(())
    }
}

/// K-way merge of `inputs` into `out` in key order, skipping `dead`
/// keys. Each input is read through a cursor holding one data block.
fn merge_into(
    out: &mut RunWriter<'_>,
    inputs: &[Arc<RunHandle>],
    dir: &Path,
    dead: &HashSet<ContentKey>,
) -> Result<(), StoreError> {
    let mut cursors = inputs
        .iter()
        .map(|h| RunCursor::open(h, dir))
        .collect::<Result<Vec<_>, _>>()?;
    let mut heap: BinaryHeap<Reverse<(ContentKey, usize)>> = cursors
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.key().map(|key| Reverse((key, i))))
        .collect();
    while let Some(Reverse((key, i))) = heap.pop() {
        let cursor = &mut cursors[i];
        if !dead.contains(&key) {
            out.add(key, cursor.record())?;
        }
        cursor.advance()?;
        if let Some(next) = cursor.key() {
            heap.push(Reverse((next, i)));
        }
    }
    Ok(())
}
