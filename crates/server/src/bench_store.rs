//! Storage-engine benchmark: the numbers behind `BENCH_store.json`.
//!
//! Three claims the LSM engine makes, each measured directly:
//!
//! 1. **Open time is a function of manifest size, not object count.**
//!    `open` replays the manifest and stats files; run *contents* load
//!    lazily. After compaction most records live in runs, so the
//!    manifest carries a handful of `AddRun` entries instead of one
//!    `Add` per record — bytes-per-object falls as stores grow. The CI
//!    gate checks that deterministic ratio (wall-clock open time is
//!    recorded too, but a loaded CI box makes a poor stopwatch).
//! 2. **The block cache serves hot gets from memory.** The same hot-key
//!    sweep runs against one store with the cache enabled and one
//!    without; the report carries both throughputs and the speedup.
//! 3. **Group commit batches fsyncs without slowing a lone writer.**
//!    The same `sync` put workload runs with one writer thread and with
//!    `commit_threads`, and the WAL counters of the concurrent run show
//!    how many fsync batches covered how many appends.

use dnacomp_algos::{Algorithm, CompressedBlob};
use dnacomp_seq::PackedSeq;
use dnacomp_store::{SequenceStore, StoreConfig, StoreError};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Knobs for the store benchmark.
#[derive(Clone, Debug)]
pub struct StoreBenchConfig {
    /// Object counts for the open-time sweep (ascending).
    pub open_sweep: Vec<usize>,
    /// Payload bytes per stored record.
    pub payload_bytes: usize,
    /// L0 segment roll size for the open/hot phases. Small segments
    /// force sealing, which is the whole point of the sweep.
    pub segment_bytes: u64,
    /// Records in the hot-get store.
    pub hot_records: usize,
    /// Hot-get passes over the whole key set.
    pub hot_passes: usize,
    /// Records put per writer thread in the commit phase.
    pub commit_puts: usize,
    /// Writer threads in the concurrent commit run.
    pub commit_threads: usize,
    /// Scratch directory; a unique subdirectory is created per phase.
    pub dir: PathBuf,
}

impl Default for StoreBenchConfig {
    fn default() -> Self {
        StoreBenchConfig {
            open_sweep: vec![500, 2000, 8000],
            payload_bytes: 512,
            segment_bytes: 64 << 10,
            hot_records: 512,
            hot_passes: 40,
            commit_puts: 64,
            commit_threads: 4,
            dir: std::env::temp_dir().join("dnacomp-bench-store"),
        }
    }
}

impl StoreBenchConfig {
    /// The CI smoke shape: same phases, small enough for a gate.
    pub fn quick() -> Self {
        StoreBenchConfig {
            open_sweep: vec![150, 1200],
            payload_bytes: 256,
            segment_bytes: 8 << 10,
            hot_records: 128,
            hot_passes: 20,
            commit_puts: 16,
            commit_threads: 4,
            ..StoreBenchConfig::default()
        }
    }
}

/// One point of the open-time sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OpenPoint {
    /// Records in the store.
    pub objects: u64,
    /// Manifest bytes replayed by `open` (the deterministic cost).
    pub manifest_bytes: u64,
    /// Wall-clock open time, ms (informational; machine-dependent).
    pub open_ms: f64,
    /// Sorted runs in the store.
    pub runs: u64,
}

/// The `BENCH_store.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoreBenchReport {
    /// Logical CPUs on the machine that produced the numbers.
    pub host_cpus: usize,
    /// Open-time sweep, ascending object counts.
    pub open_sweep: Vec<OpenPoint>,
    /// Manifest bytes per object at the largest sweep point divided by
    /// the same at the smallest — < 1.0 means open cost grows
    /// sub-linearly in objects (the CI gate).
    pub open_cost_ratio: f64,
    /// Hot-get throughput with the block cache enabled, MB/s of
    /// compressed payload.
    pub hot_get_cached_mb_s: f64,
    /// The same sweep with the cache disabled (every get hits disk).
    pub hot_get_uncached_mb_s: f64,
    /// `cached / uncached` (≥ 1.0 when the cache helps).
    pub hot_get_speedup: f64,
    /// Block-cache hit rate over the cached sweep.
    pub cache_hit_rate: f64,
    /// Sync puts per second from one writer thread.
    pub put_sync_1_thread_per_sec: f64,
    /// Writer threads in the concurrent run.
    pub commit_threads: usize,
    /// Sync puts per second from `commit_threads` writer threads.
    pub put_sync_concurrent_per_sec: f64,
    /// Manifest appends in the concurrent run.
    pub wal_appends: u64,
    /// Fsync batches covering them — the gap to `wal_appends` is the
    /// group-commit batching win.
    pub wal_batches: u64,
}

impl StoreBenchReport {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialisation cannot fail")
    }
}

fn payload(i: usize, bytes: usize) -> (PackedSeq, CompressedBlob) {
    // Distinct content per record: content addressing would dedup a
    // repeated sequence into a single object.
    let ascii: Vec<u8> = (0..24)
        .map(|k| b"ACGT"[(i.wrapping_mul(2654435761) >> (k & 13)) & 3])
        .chain((0..8).map(|k| b"ACGT"[(i >> (2 * k)) & 3]))
        .collect();
    let seq = PackedSeq::from_ascii(&ascii).expect("generated ACGT text");
    let body = vec![(i % 251) as u8; bytes];
    (seq.clone(), CompressedBlob::new(Algorithm::Dnax, &seq, body))
}

fn fill_store(
    dir: &Path,
    config: StoreConfig,
    objects: usize,
    payload_bytes: usize,
) -> Result<Arc<SequenceStore>, StoreError> {
    let store = SequenceStore::open(dir, config)?;
    for i in 0..objects {
        let (seq, blob) = payload(i, payload_bytes);
        store.put(&seq, &blob)?;
    }
    Ok(Arc::new(store))
}

fn bench_dir(base: &Path, tag: &str) -> PathBuf {
    let dir = base.join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run every phase and assemble the report.
pub fn run_store_bench(cfg: &StoreBenchConfig) -> Result<StoreBenchReport, String> {
    fn fail(what: &'static str) -> impl Fn(StoreError) -> String {
        move |e| format!("{what}: {e}")
    }
    // No fsync in the open/hot phases: they measure replay and read
    // paths, and CI machines make fsync timings meaningless anyway.
    let fast = StoreConfig {
        segment_target_bytes: cfg.segment_bytes,
        sync: false,
        ..StoreConfig::default()
    };

    // Phase 1: open cost vs object count.
    let mut open_sweep = Vec::new();
    for &objects in &cfg.open_sweep {
        let dir = bench_dir(&cfg.dir, &format!("open-{objects}"));
        let store =
            fill_store(&dir, fast, objects, cfg.payload_bytes).map_err(fail("open sweep fill"))?;
        store.compact().map_err(fail("open sweep compact"))?;
        let runs = store.snapshot().runs;
        drop(store);
        let manifest_bytes = std::fs::metadata(dir.join("manifest.log"))
            .map_err(|e| format!("manifest size: {e}"))?
            .len();
        let started = Instant::now();
        let reopened = SequenceStore::open(&dir, fast).map_err(fail("open sweep reopen"))?;
        let open_ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(reopened.len(), objects, "reopen must recover everything");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
        open_sweep.push(OpenPoint {
            objects: objects as u64,
            manifest_bytes,
            open_ms,
            runs,
        });
    }
    let open_cost_ratio = match (open_sweep.first(), open_sweep.last()) {
        (Some(a), Some(b)) if a.objects > 0 && b.objects > 0 && a.manifest_bytes > 0 => {
            let per_a = a.manifest_bytes as f64 / a.objects as f64;
            let per_b = b.manifest_bytes as f64 / b.objects as f64;
            per_b / per_a
        }
        _ => 1.0,
    };

    // Phase 2: hot gets, cache on vs off, over run-resident records.
    let mut hot = [0.0f64; 2];
    let mut cache_hit_rate = 0.0;
    for (slot, cache_bytes) in [(0usize, 32u64 << 20), (1usize, 0u64)] {
        let dir = bench_dir(&cfg.dir, &format!("hot-{slot}"));
        let config = StoreConfig {
            cache_bytes,
            ..fast
        };
        let store = fill_store(&dir, config, cfg.hot_records, cfg.payload_bytes)
            .map_err(fail("hot fill"))?;
        store.compact().map_err(fail("hot compact"))?;
        let keys: Vec<_> = store.keys();
        let mut bytes = 0u64;
        // Warm pass fills the cache (or proves there is none).
        for key in &keys {
            bytes += store.get(key).map_err(fail("hot warm get"))?.payload.len() as u64;
        }
        let started = Instant::now();
        for _ in 0..cfg.hot_passes {
            for key in &keys {
                store.get(key).map_err(fail("hot get"))?;
            }
        }
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        let swept = bytes * cfg.hot_passes as u64;
        hot[slot] = swept as f64 / 1e6 / secs;
        if slot == 0 {
            let snap = store.snapshot();
            let lookups = snap.cache_hits + snap.cache_misses;
            cache_hit_rate = if lookups == 0 {
                0.0
            } else {
                snap.cache_hits as f64 / lookups as f64
            };
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let [hot_get_cached_mb_s, hot_get_uncached_mb_s] = hot;

    // Phase 3: sync put throughput from one writer and from several.
    // Both runs fsync for real — that is the thing being batched.
    let mut put_rates = [0.0f64; 2];
    let mut wal = (0u64, 0u64);
    for (slot, writers) in [(0usize, 1usize), (1usize, cfg.commit_threads)] {
        let dir = bench_dir(&cfg.dir, &format!("commit-{slot}"));
        let config = StoreConfig {
            sync: true,
            ..StoreConfig::default()
        };
        let store = Arc::new(SequenceStore::open(&dir, config).map_err(fail("commit open"))?);
        let started = Instant::now();
        let threads: Vec<_> = (0..writers)
            .map(|t| {
                let store = Arc::clone(&store);
                let puts = cfg.commit_puts;
                let payload_bytes = cfg.payload_bytes;
                std::thread::spawn(move || -> Result<(), StoreError> {
                    for i in 0..puts {
                        let (seq, blob) = payload(1_000_000 + t * puts + i, payload_bytes);
                        store.put(&seq, &blob)?;
                    }
                    Ok(())
                })
            })
            .collect();
        for t in threads {
            t.join()
                .map_err(|_| "commit writer panicked".to_owned())?
                .map_err(fail("commit put"))?;
        }
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        put_rates[slot] = (writers * cfg.commit_puts) as f64 / secs;
        if slot == 1 {
            let snap = store.snapshot();
            wal = (snap.wal_appends, snap.wal_batches);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let [put_sync_1_thread_per_sec, put_sync_concurrent_per_sec] = put_rates;

    Ok(StoreBenchReport {
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        open_sweep,
        open_cost_ratio,
        hot_get_cached_mb_s,
        hot_get_uncached_mb_s,
        hot_get_speedup: if hot_get_uncached_mb_s > 0.0 {
            hot_get_cached_mb_s / hot_get_uncached_mb_s
        } else {
            0.0
        },
        cache_hit_rate,
        put_sync_1_thread_per_sec,
        commit_threads: cfg.commit_threads,
        put_sync_concurrent_per_sec,
        wal_appends: wal.0,
        wal_batches: wal.1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_produces_consistent_report() {
        let cfg = StoreBenchConfig {
            open_sweep: vec![40, 160],
            payload_bytes: 128,
            segment_bytes: 2 << 10,
            hot_records: 48,
            hot_passes: 4,
            commit_puts: 4,
            commit_threads: 2,
            dir: std::env::temp_dir().join("dnacomp-bench-store-test"),
        };
        let report = run_store_bench(&cfg).unwrap();
        assert_eq!(report.open_sweep.len(), 2);
        // Compaction keeps the manifest per-object cost from scaling
        // with the object count.
        assert!(
            report.open_cost_ratio < 0.9,
            "manifest cost per object must shrink: {report:?}"
        );
        assert!(report.hot_get_cached_mb_s > 0.0);
        assert!(report.hot_get_uncached_mb_s > 0.0);
        assert!(report.cache_hit_rate > 0.5, "{report:?}");
        assert!(report.put_sync_1_thread_per_sec > 0.0);
        assert!(report.put_sync_concurrent_per_sec > 0.0);
        assert_eq!(report.wal_appends, 8);
        assert!(report.wal_batches > 0);
        assert!(report.wal_batches <= report.wal_appends);
        let json = report.to_json();
        let parsed: StoreBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.wal_appends, report.wal_appends);
    }
}
