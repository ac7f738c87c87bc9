//! Background scrubbing: incremental run auditing on a budget.
//!
//! [`SequenceStore::verify`] reads everything at once — right for an
//! explicit audit, wrong for a server that wants continuous coverage
//! without a latency cliff. [`SequenceStore::scrub_step`] walks runs a
//! few records at a time from a persistent-ish cursor (run id, block
//! index), always from disk (a scrub through the cache would re-verify
//! RAM, not storage), and wraps back to the start when it falls off the
//! end. [`ScrubTask`] drives it from a dedicated thread on an interval;
//! failures land in the same `scrub_failures` counter the metrics
//! endpoint exports.
//!
//! Level 0 is deliberately out of scope here: segments are young,
//! small, and fully covered by `verify`; runs are where data ages.

use crate::record::Record;
use crate::sstable::RunHandle;
use crate::store::{lock_plain, ScrubFailure, ScrubReport, SequenceStore};
use crate::ContentKey;
use dnacomp_algos::CompressedBlob;
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

impl SequenceStore {
    /// Audit roughly `max_records` run-resident records starting at the
    /// scrub cursor, advancing it for next time. One call wraps the
    /// cursor at most once, so an idle store isn't re-read in a tight
    /// loop. Damaged blocks are reported and skipped — the cursor never
    /// wedges on a bad run.
    pub fn scrub_step(&self, max_records: usize) -> ScrubReport {
        let mut report = ScrubReport::default();
        if max_records == 0 {
            return report;
        }
        let handles: Vec<Arc<RunHandle>> = {
            let runs = lock_plain(&self.runs);
            runs.values().cloned().collect()
        };
        if handles.is_empty() {
            return report;
        }
        let dead: HashSet<ContentKey> = lock_plain(&self.tombstones).keys().copied().collect();
        let (start_run, start_block) = *lock_plain(&self.scrub_pos);
        let mut cursor = (start_run, start_block);
        let mut wrapped = false;
        'outer: while (report.checked as usize) < max_records {
            // The first run at or after the cursor; off the end → wrap.
            let Some(h) = handles.iter().find(|h| h.meta.id >= cursor.0) else {
                if wrapped {
                    break;
                }
                wrapped = true;
                cursor = (0, 0);
                continue;
            };
            if h.meta.id != cursor.0 {
                cursor = (h.meta.id, 0);
            }
            let idx = match h.load(&self.dir) {
                Ok(idx) => idx,
                Err(e) => {
                    report.failures.push(ScrubFailure {
                        key: h.meta.min_key,
                        error: format!("run {}: {e}", h.meta.id),
                    });
                    cursor = (h.meta.id + 1, 0);
                    continue;
                }
            };
            while (cursor.1 as usize) < idx.blocks.len() {
                if (report.checked as usize) >= max_records {
                    break 'outer;
                }
                let entry = idx.blocks[cursor.1 as usize];
                cursor.1 += 1;
                // Straight from disk, bypassing the cache on purpose.
                match h.read_block(&self.dir, &entry) {
                    Ok(block) => {
                        if let Err(e) = check_block(&block, &dead, &mut report) {
                            report.failures.push(ScrubFailure {
                                key: entry.first_key,
                                error: format!("run {} block: {e}", h.meta.id),
                            });
                        }
                    }
                    Err(e) => {
                        report.failures.push(ScrubFailure {
                            key: entry.first_key,
                            error: format!("run {} block: {e}", h.meta.id),
                        });
                    }
                }
            }
            cursor = (h.meta.id + 1, 0);
        }
        *lock_plain(&self.scrub_pos) = cursor;
        self.scrub_failures
            .fetch_add(report.failures.len() as u64, Ordering::Relaxed);
        report
    }
}

/// Decode and validate every record in one block, counting live ones.
fn check_block(
    block: &[u8],
    dead: &HashSet<ContentKey>,
    report: &mut ScrubReport,
) -> Result<(), crate::StoreError> {
    let mut pos = 0usize;
    while pos < block.len() {
        let (record, used) = Record::decode(&block[pos..])?;
        pos += used;
        if dead.contains(&record.key) {
            continue; // dead bytes are outside the durability contract
        }
        report.checked += 1;
        CompressedBlob::from_bytes(&record.payload)?;
    }
    Ok(())
}

/// A background thread calling [`SequenceStore::scrub_step`] on an
/// interval until stopped. Dropping the task stops it as promptly as
/// [`ScrubTask::stop`] does, without waiting for the thread to exit.
pub struct ScrubTask {
    /// Dropped to stop the thread: its wait wakes at once.
    stop: mpsc::Sender<()>,
    handle: JoinHandle<()>,
}

impl ScrubTask {
    /// Start scrubbing `store` every `interval`, auditing up to
    /// `records_per_tick` records per tick.
    pub fn start(
        store: Arc<SequenceStore>,
        interval: Duration,
        records_per_tick: usize,
    ) -> ScrubTask {
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("store-scrub".to_owned())
            .spawn(move || {
                while stopped.recv_timeout(interval) == Err(mpsc::RecvTimeoutError::Timeout) {
                    let _ = store.scrub_step(records_per_tick);
                }
            })
            .expect("spawning scrub thread");
        ScrubTask { stop, handle }
    }

    /// Stop the scrubber and join its thread.
    pub fn stop(self) {
        drop(self.stop);
        let _ = self.handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreConfig;
    use dnacomp_algos::Algorithm;
    use dnacomp_seq::PackedSeq;
    use std::fs;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dnacomp-scrub-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn filled_store(dir: &PathBuf, n: u8) -> SequenceStore {
        let store = SequenceStore::open(
            dir,
            StoreConfig {
                segment_target_bytes: 160,
                sync: false,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        for i in 0..n {
            let s =
                PackedSeq::from_ascii(format!("ACGT{}", "A".repeat(i as usize + 1)).as_bytes())
                    .unwrap();
            let b = CompressedBlob::new(Algorithm::Dnax, &s, vec![i; 24]);
            store.put(&s, &b).unwrap();
        }
        store.compact().unwrap();
        store
    }

    #[test]
    fn scrub_step_covers_all_runs_and_wraps() {
        let dir = tmp_dir("wrap");
        let store = filled_store(&dir, 20);
        let total: u64 = 20;
        // Tiny budget: several steps must still cover everything once.
        let mut checked = 0u64;
        for _ in 0..64 {
            checked += store.scrub_step(3).checked;
            if checked >= total {
                break;
            }
        }
        assert!(checked >= total, "scrub must reach every record: {checked}/{total}");
        // And it keeps wrapping rather than going idle forever.
        let more = store.scrub_step(usize::MAX >> 1);
        assert!(more.checked > 0);
        assert!(more.is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_finds_damage_and_skips_past_it() {
        let dir = tmp_dir("damage");
        let store = filled_store(&dir, 12);
        drop(store);
        let run = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".sst"))
            .expect("compaction left a run");
        let mut bytes = fs::read(run.path()).unwrap();
        bytes[40] ^= 0x01;
        fs::write(run.path(), &bytes).unwrap();
        let store = SequenceStore::open(
            &dir,
            StoreConfig {
                segment_target_bytes: 160,
                sync: false,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let mut failures = 0usize;
        for _ in 0..16 {
            failures += store.scrub_step(64).failures.len();
        }
        assert!(failures > 0, "scrub must notice the flipped byte");
        assert!(store.snapshot().scrub_failures > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_task_runs_and_stops_promptly() {
        let dir = tmp_dir("task");
        let store = Arc::new(filled_store(&dir, 10));
        let start = |interval| ScrubTask::start(Arc::clone(&store), interval, 100);
        let task = start(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(60));
        // The busy task, then an hour-long wait only a waking stop ends.
        for task in [task, start(Duration::from_secs(3600))] {
            let started = std::time::Instant::now();
            task.stop();
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "stop must not wait out long intervals"
            );
        }
        // Dropping a task wakes its thread too, which lets go of the store.
        drop(start(Duration::from_secs(3600)));
        let started = std::time::Instant::now();
        while Arc::strong_count(&store) > 1 {
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "a dropped task's thread must release the store"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
