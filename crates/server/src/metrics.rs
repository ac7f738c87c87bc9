//! Lock-free service metrics: counters, gauges and a latency histogram.
//!
//! Workers record events with relaxed atomics (monotonic counters need
//! no ordering), so metrics never serialize the hot path. A
//! [`snapshot`](Metrics::snapshot) materialises a consistent-enough
//! view as a plain serialisable struct — the payload `dnacomp serve`
//! prints and `BENCH_serve.json` archives.
//!
//! Latency is tracked on the **simulated clock** (the same millisecond
//! accounting the `PerfModel` prices every exchange with), in a
//! geometric-bucket histogram: bucket `i` covers costs up to
//! `0.5 · 1.6^i` ms. Quantile queries return the upper bound of the
//! bucket where the cumulative count crosses the rank — a ≤ 60 %
//! overestimate by construction, which is enough to watch p50/p95
//! drift under load without storing samples.

use dnacomp_algos::{Algorithm, PoolStats};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket count.
const HIST_BUCKETS: usize = 48;
/// Upper bound of bucket 0, ms.
const HIST_MIN_MS: f64 = 0.5;
/// Geometric growth factor between buckets.
const HIST_GROWTH: f64 = 1.6;

/// One more than the largest [`Algorithm::tag`] value.
const ALG_SLOTS: usize = 16;

fn bucket_upper_ms(i: usize) -> f64 {
    HIST_MIN_MS * HIST_GROWTH.powi(i as i32)
}

fn bucket_for(ms: f64) -> usize {
    let v = ms.max(0.0);
    let mut i = 0;
    while i + 1 < HIST_BUCKETS && v > bucket_upper_ms(i) {
        i += 1;
    }
    i
}

/// Live metrics registry shared by every worker of one service.
#[derive(Debug)]
pub struct Metrics {
    accepted: AtomicU64,
    rejected_full: AtomicU64,
    expired: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    queue_depth: AtomicU64,
    peak_queue_depth: AtomicU64,
    wins: [AtomicU64; ALG_SLOTS],
    latency: [AtomicU64; HIST_BUCKETS],
    latency_sum_us: AtomicU64,
    store_puts: AtomicU64,
    store_dedup_hits: AtomicU64,
    store_bytes_on_disk: AtomicU64,
    store_scrub_failures: AtomicU64,
    store_runs: AtomicU64,
    store_tombstones: AtomicU64,
    store_compactions: AtomicU64,
    store_cache_hits: AtomicU64,
    store_cache_misses: AtomicU64,
    store_bloom_negatives: AtomicU64,
    store_wal_appends: AtomicU64,
    store_wal_batches: AtomicU64,
    worker_restarts: AtomicU64,
    jobs_panicked: AtomicU64,
    jobs_quarantined: AtomicU64,
    jobs_shed: AtomicU64,
    jobs_crashed: AtomicU64,
    dlq_depth: AtomicU64,
    dlq_dropped: AtomicU64,
    last_heartbeat_age_ms: AtomicU64,
    blocks_compressed: AtomicU64,
    block_parallel_jobs: AtomicU64,
    pool_tasks_run_by_pool: AtomicU64,
    pool_tasks_run_inline: AtomicU64,
    pool_batches: AtomicU64,
    conn: ConnStats,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            accepted: AtomicU64::new(0),
            rejected_full: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            peak_queue_depth: AtomicU64::new(0),
            wins: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_sum_us: AtomicU64::new(0),
            store_puts: AtomicU64::new(0),
            store_dedup_hits: AtomicU64::new(0),
            store_bytes_on_disk: AtomicU64::new(0),
            store_scrub_failures: AtomicU64::new(0),
            store_runs: AtomicU64::new(0),
            store_tombstones: AtomicU64::new(0),
            store_compactions: AtomicU64::new(0),
            store_cache_hits: AtomicU64::new(0),
            store_cache_misses: AtomicU64::new(0),
            store_bloom_negatives: AtomicU64::new(0),
            store_wal_appends: AtomicU64::new(0),
            store_wal_batches: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            jobs_panicked: AtomicU64::new(0),
            jobs_quarantined: AtomicU64::new(0),
            jobs_shed: AtomicU64::new(0),
            jobs_crashed: AtomicU64::new(0),
            dlq_depth: AtomicU64::new(0),
            dlq_dropped: AtomicU64::new(0),
            last_heartbeat_age_ms: AtomicU64::new(0),
            blocks_compressed: AtomicU64::new(0),
            block_parallel_jobs: AtomicU64::new(0),
            pool_tasks_run_by_pool: AtomicU64::new(0),
            pool_tasks_run_inline: AtomicU64::new(0),
            pool_batches: AtomicU64::new(0),
            conn: ConnStats::default(),
        }
    }
}

impl Metrics {
    /// Fresh registry, all zeros.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// A submission entered admission. The depth gauge must rise
    /// *before* the job becomes visible to workers: the push/pop mutex
    /// then orders this increment before the matching
    /// [`record_dequeued`](Self::record_dequeued), so the decrement can
    /// never run first, clamp at zero, and leak a permanent +1.
    /// Consequence: peak depth may exceed the queue capacity by the
    /// number of submissions concurrently in admission.
    pub fn record_enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// A job passed admission and entered the queue.
    pub fn record_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// A submission bounced off the full queue (backpressure).
    pub fn record_rejected_full(&self) {
        self.rejected_full.fetch_add(1, Ordering::Relaxed);
    }

    /// A counted job left the queue: a worker dequeued it, or a
    /// rejected submission is undoing its [`record_enqueued`](Self::record_enqueued).
    pub fn record_dequeued(&self) {
        // Saturating purely as snapshot hygiene: pairing is guaranteed
        // by the enqueue-before-visible protocol above.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// A dequeued job was past its deadline and answered `Expired`.
    pub fn record_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    /// A job finished successfully with `alg` at simulated cost `sim_ms`.
    pub fn record_completed(&self, alg: Algorithm, sim_ms: f64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.wins[alg.tag() as usize % ALG_SLOTS].fetch_add(1, Ordering::Relaxed);
        self.latency[bucket_for(sim_ms)].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us
            .fetch_add((sim_ms * 1_000.0).max(0.0) as u64, Ordering::Relaxed);
    }

    /// A job failed (typed exchange/codec error after the ladder).
    pub fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// The decision cache answered without touching the rule tree.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// The decision cache missed; the rule tree was consulted.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A completed job was persisted into the attached store;
    /// `deduped` says whether the content was already present.
    pub fn record_store_put(&self, deduped: bool) {
        self.store_puts.fetch_add(1, Ordering::Relaxed);
        if deduped {
            self.store_dedup_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Refresh the store gauges from a store snapshot: disk usage, LSM
    /// shape (runs, tombstones, compactions), read-path efficiency
    /// (block cache, bloom negatives), and WAL group-commit batching.
    pub fn set_store_state(&self, snap: &dnacomp_store::StoreSnapshot) {
        self.store_bytes_on_disk
            .store(snap.bytes_on_disk, Ordering::Relaxed);
        self.store_scrub_failures
            .fetch_max(snap.scrub_failures, Ordering::Relaxed);
        self.store_runs.store(snap.runs, Ordering::Relaxed);
        self.store_tombstones
            .store(snap.tombstones, Ordering::Relaxed);
        self.store_compactions
            .store(snap.seals + snap.merges, Ordering::Relaxed);
        self.store_cache_hits
            .store(snap.cache_hits, Ordering::Relaxed);
        self.store_cache_misses
            .store(snap.cache_misses, Ordering::Relaxed);
        self.store_bloom_negatives
            .store(snap.bloom_negatives, Ordering::Relaxed);
        self.store_wal_appends
            .store(snap.wal_appends, Ordering::Relaxed);
        self.store_wal_batches
            .store(snap.wal_batches, Ordering::Relaxed);
    }

    /// The supervisor replaced a dead worker thread.
    pub fn record_worker_restart(&self) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// A job panicked; the panic was contained and the ticket answered
    /// `Err(JobError::Panicked)`.
    pub fn record_panicked(&self) {
        self.jobs_panicked.fetch_add(1, Ordering::Relaxed);
    }

    /// A job was refused execution because its content fingerprint is
    /// quarantined (ticket answered `Err(JobError::Quarantined)`).
    pub fn record_quarantined(&self) {
        self.jobs_quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Admission control shed a job under overload (ticket answered
    /// `Err(JobError::Shed)` without the job ever entering the queue).
    pub fn record_shed(&self) {
        self.jobs_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A job died with its worker (thread killed outside containment);
    /// its ticket resolved `Err(JobError::WorkerGone)` via channel
    /// disconnect and the supervisor attributed the loss here.
    pub fn record_crashed(&self) {
        self.jobs_crashed.fetch_add(1, Ordering::Relaxed);
    }

    /// Refresh the dead-letter-queue gauges: current depth and letters
    /// dropped because the bounded queue was full.
    pub fn set_dlq_state(&self, depth: u64, dropped: u64) {
        self.dlq_depth.store(depth, Ordering::Relaxed);
        self.dlq_dropped.fetch_max(dropped, Ordering::Relaxed);
    }

    /// Refresh the watchdog gauge: age of the stalest live worker
    /// heartbeat, wall-clock ms.
    pub fn set_heartbeat_age_ms(&self, age_ms: u64) {
        self.last_heartbeat_age_ms.store(age_ms, Ordering::Relaxed);
    }

    /// A job ran the block-parallel frame path, producing `blocks`
    /// independently compressed blocks.
    pub fn record_block_parallel(&self, blocks: u64) {
        self.block_parallel_jobs.fetch_add(1, Ordering::Relaxed);
        self.blocks_compressed.fetch_add(blocks, Ordering::Relaxed);
    }

    /// Refresh the pool-sharing gauges from the shared block pool's
    /// running totals (monotonic, so `fetch_max` tolerates stale
    /// publications racing fresher ones).
    pub fn set_pool_stats(&self, stats: PoolStats) {
        self.pool_tasks_run_by_pool
            .fetch_max(stats.tasks_run_by_pool, Ordering::Relaxed);
        self.pool_tasks_run_inline
            .fetch_max(stats.tasks_run_inline, Ordering::Relaxed);
        self.pool_batches.fetch_max(stats.batches, Ordering::Relaxed);
    }

    /// The TCP front-end's connection counters.
    pub(crate) fn conn(&self) -> &ConnStats {
        &self.conn
    }

    /// Connections currently open, per this registry's accounting.
    pub fn connections_open(&self) -> u64 {
        self.conn.open.load(Ordering::Relaxed)
    }

    /// Jobs currently queued, per this registry's accounting.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Simulated-latency quantile (0 < `q` ≤ 1) over completed jobs:
    /// upper bound of the bucket holding the rank-`⌈q·n⌉` sample.
    pub fn latency_quantile_ms(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .latency
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_upper_ms(i);
            }
        }
        bucket_upper_ms(HIST_BUCKETS - 1)
    }

    /// Materialise a serialisable snapshot of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let completed = self.completed.load(Ordering::Relaxed);
        let conn = &self.conn;
        let wins = Algorithm::ALL
            .into_iter()
            .filter_map(|alg| {
                let n = self.wins[alg.tag() as usize % ALG_SLOTS].load(Ordering::Relaxed);
                (n > 0).then(|| AlgorithmWins {
                    algorithm: alg.name().to_owned(),
                    wins: n,
                })
            })
            .collect();
        MetricsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            completed,
            failed: self.failed.load(Ordering::Relaxed),
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            algorithm_wins: wins,
            latency_p50_ms: self.latency_quantile_ms(0.50),
            latency_p95_ms: self.latency_quantile_ms(0.95),
            latency_mean_ms: if completed == 0 {
                0.0
            } else {
                self.latency_sum_us.load(Ordering::Relaxed) as f64 / 1_000.0 / completed as f64
            },
            store_puts: self.store_puts.load(Ordering::Relaxed),
            store_dedup_hits: self.store_dedup_hits.load(Ordering::Relaxed),
            store_bytes_on_disk: self.store_bytes_on_disk.load(Ordering::Relaxed),
            store_scrub_failures: self.store_scrub_failures.load(Ordering::Relaxed),
            store_runs: self.store_runs.load(Ordering::Relaxed),
            store_tombstones: self.store_tombstones.load(Ordering::Relaxed),
            store_compactions: self.store_compactions.load(Ordering::Relaxed),
            store_cache_hits: self.store_cache_hits.load(Ordering::Relaxed),
            store_cache_misses: self.store_cache_misses.load(Ordering::Relaxed),
            store_bloom_negatives: self.store_bloom_negatives.load(Ordering::Relaxed),
            store_wal_appends: self.store_wal_appends.load(Ordering::Relaxed),
            store_wal_batches: self.store_wal_batches.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            jobs_panicked: self.jobs_panicked.load(Ordering::Relaxed),
            jobs_quarantined: self.jobs_quarantined.load(Ordering::Relaxed),
            jobs_shed: self.jobs_shed.load(Ordering::Relaxed),
            jobs_crashed: self.jobs_crashed.load(Ordering::Relaxed),
            dlq_depth: self.dlq_depth.load(Ordering::Relaxed),
            dlq_dropped: self.dlq_dropped.load(Ordering::Relaxed),
            last_heartbeat_age_ms: self.last_heartbeat_age_ms.load(Ordering::Relaxed),
            blocks_compressed: self.blocks_compressed.load(Ordering::Relaxed),
            block_parallel_jobs: self.block_parallel_jobs.load(Ordering::Relaxed),
            pool_tasks_run_by_pool: self.pool_tasks_run_by_pool.load(Ordering::Relaxed),
            pool_tasks_run_inline: self.pool_tasks_run_inline.load(Ordering::Relaxed),
            pool_batches: self.pool_batches.load(Ordering::Relaxed),
            connections_open: conn.open.load(Ordering::Relaxed),
            connections_accepted: conn.accepted.load(Ordering::Relaxed),
            connections_refused: conn.refused.load(Ordering::Relaxed),
            connections_killed: conn.killed.load(Ordering::Relaxed),
            frames_rx: conn.frames_rx.load(Ordering::Relaxed),
            frames_tx: conn.frames_tx.load(Ordering::Relaxed),
            net_bytes_rx: conn.bytes_rx.load(Ordering::Relaxed),
            net_bytes_tx: conn.bytes_tx.load(Ordering::Relaxed),
            protocol_errors: conn.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// Client connection counters, kept by the connection core
/// ([`crate::conn`]) for one endpoint. The shard's [`Metrics`] and the
/// router's [`RouterMetrics`] each embed one, and their snapshots read
/// the fields they export.
#[derive(Debug, Default)]
pub(crate) struct ConnStats {
    open: AtomicU64,
    accepted: AtomicU64,
    refused: AtomicU64,
    closed: AtomicU64,
    killed: AtomicU64,
    frames_rx: AtomicU64,
    frames_tx: AtomicU64,
    bytes_rx: AtomicU64,
    bytes_tx: AtomicU64,
    protocol_errors: AtomicU64,
}

impl ConnStats {
    /// A connection was accepted (the open gauge rises).
    pub(crate) fn record_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.open.fetch_add(1, Ordering::Relaxed);
    }

    /// An accepted connection ended, cleanly or killed: the open gauge
    /// falls and the closed counter rises. Every
    /// [`record_accepted`](Self::record_accepted) is paired with
    /// exactly one of these by the connection thread's exit path.
    pub(crate) fn record_closed(&self) {
        self.closed.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .open
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// A connection was refused at accept (cap reached): it was never
    /// open, so only the refusal counter moves.
    pub(crate) fn record_refused(&self) {
        self.refused.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was killed by its supervisor (strikes, desync,
    /// mid-frame deadline). Counted *in addition to* the close.
    pub(crate) fn record_killed(&self) {
        self.killed.fetch_add(1, Ordering::Relaxed);
    }

    /// A complete, checksum-valid frame arrived (`bytes` on the wire).
    pub(crate) fn record_frame_rx(&self, bytes: u64) {
        self.frames_rx.fetch_add(1, Ordering::Relaxed);
        self.bytes_rx.fetch_add(bytes, Ordering::Relaxed);
    }

    /// A complete frame was written to a peer (`bytes` on the wire).
    pub(crate) fn record_frame_tx(&self, bytes: u64) {
        self.frames_tx.fetch_add(1, Ordering::Relaxed);
        self.bytes_tx.fetch_add(bytes, Ordering::Relaxed);
    }

    /// A peer violated the protocol (bad magic/version/checksum,
    /// unknown type, oversize declaration, malformed payload, torn
    /// frame, traffic before `Hello`). One increment per violation,
    /// whether it cost a strike or the connection.
    pub(crate) fn record_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Completions credited to one algorithm.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlgorithmWins {
    /// The paper's spelling of the algorithm name.
    pub algorithm: String,
    /// Jobs this algorithm completed.
    pub wins: u64,
}

/// Point-in-time copy of the registry, ready for JSON export.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Jobs admitted into the queue.
    pub accepted: u64,
    /// Submissions bounced by backpressure.
    pub rejected_full: u64,
    /// Jobs dequeued after their deadline and answered `Expired`.
    pub expired: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs that failed with a typed error.
    pub failed: u64,
    /// Decision-cache hits.
    pub cache_hits: u64,
    /// Decision-cache misses.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, 0 when no lookups happened.
    pub cache_hit_rate: f64,
    /// Jobs queued at snapshot time.
    pub queue_depth: u64,
    /// High-water mark of the queue depth (counts submissions from
    /// admission, so it can exceed capacity by in-flight submitters).
    pub peak_queue_depth: u64,
    /// Per-algorithm completion counts (algorithms with ≥ 1 win).
    pub algorithm_wins: Vec<AlgorithmWins>,
    /// Median simulated latency (bucket upper bound), ms.
    pub latency_p50_ms: f64,
    /// 95th-percentile simulated latency (bucket upper bound), ms.
    pub latency_p95_ms: f64,
    /// Mean simulated latency, ms.
    pub latency_mean_ms: f64,
    /// Results persisted into the attached store (0 when stateless).
    pub store_puts: u64,
    /// Persisted results the store already held (deduplicated).
    pub store_dedup_hits: u64,
    /// Committed store bytes on disk at the last persist.
    pub store_bytes_on_disk: u64,
    /// Store records that ever failed checksum validation.
    pub store_scrub_failures: u64,
    /// Sorted runs (level ≥ 1 files) in the store at the last persist.
    #[serde(default)]
    pub store_runs: u64,
    /// Run-resident records removed but not yet merged away.
    #[serde(default)]
    pub store_tombstones: u64,
    /// L0 seals plus run merges since the store opened.
    #[serde(default)]
    pub store_compactions: u64,
    /// Store block-cache hits since open.
    #[serde(default)]
    pub store_cache_hits: u64,
    /// Store block-cache misses since open.
    #[serde(default)]
    pub store_cache_misses: u64,
    /// Run probes answered "absent" by a bloom filter, zero disk I/O.
    #[serde(default)]
    pub store_bloom_negatives: u64,
    /// Store manifest entries appended (WAL appends) since open.
    #[serde(default)]
    pub store_wal_appends: u64,
    /// Fsync batches covering those appends; the gap to
    /// `store_wal_appends` is the group-commit saving.
    #[serde(default)]
    pub store_wal_batches: u64,
    /// Dead worker threads the supervisor replaced.
    pub worker_restarts: u64,
    /// Jobs whose panic was contained (`Err(JobError::Panicked)`).
    pub jobs_panicked: u64,
    /// Jobs refused because their content fingerprint is quarantined.
    pub jobs_quarantined: u64,
    /// Jobs shed by admission control under overload.
    pub jobs_shed: u64,
    /// Jobs that died with their worker (resolved `WorkerGone`).
    pub jobs_crashed: u64,
    /// Dead letters currently held in the bounded DLQ.
    pub dlq_depth: u64,
    /// Dead letters evicted because the bounded DLQ was full.
    pub dlq_dropped: u64,
    /// Age of the stalest live worker heartbeat at snapshot, ms.
    pub last_heartbeat_age_ms: u64,
    /// Frame blocks compressed by the block-parallel path.
    pub blocks_compressed: u64,
    /// Jobs that ran the block-parallel frame path.
    pub block_parallel_jobs: u64,
    /// Shared-pool block tasks executed by dedicated pool threads.
    pub pool_tasks_run_by_pool: u64,
    /// Shared-pool block tasks executed inline by the submitting worker
    /// (help-first draining).
    pub pool_tasks_run_inline: u64,
    /// Block batches submitted to the shared pool.
    pub pool_batches: u64,
    /// TCP connections open at snapshot time (point-in-time gauge).
    pub connections_open: u64,
    /// TCP connections ever accepted by the front-end.
    pub connections_accepted: u64,
    /// TCP connections refused at accept (connection cap).
    pub connections_refused: u64,
    /// TCP connections killed by their supervisor (strikes, desync,
    /// mid-frame deadline).
    pub connections_killed: u64,
    /// Complete checksum-valid frames received.
    pub frames_rx: u64,
    /// Complete frames transmitted.
    pub frames_tx: u64,
    /// Wire bytes received in valid frames.
    pub net_bytes_rx: u64,
    /// Wire bytes transmitted in frames.
    pub net_bytes_tx: u64,
    /// Protocol violations observed across all connections.
    pub protocol_errors: u64,
}

impl MetricsSnapshot {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialisation cannot fail")
    }
}

/// Live counters for one back-end shard of a router.
///
/// The byte counters are `Arc`-shared so a
/// [`crate::conn::CountingStream`] wrapped around each pooled
/// connection feeds them directly — the rollup's per-shard byte
/// numbers are exact wire bytes, not estimates.
#[derive(Debug)]
pub struct ShardCounters {
    forwards: AtomicU64,
    retries: AtomicU64,
    errors: AtomicU64,
    frames_tx: AtomicU64,
    frames_rx: AtomicU64,
    bytes_tx: std::sync::Arc<AtomicU64>,
    bytes_rx: std::sync::Arc<AtomicU64>,
    ejections: AtomicU64,
    readmissions: AtomicU64,
}

impl Default for ShardCounters {
    fn default() -> Self {
        ShardCounters {
            forwards: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            frames_tx: AtomicU64::new(0),
            frames_rx: AtomicU64::new(0),
            bytes_tx: std::sync::Arc::new(AtomicU64::new(0)),
            bytes_rx: std::sync::Arc::new(AtomicU64::new(0)),
            ejections: AtomicU64::new(0),
            readmissions: AtomicU64::new(0),
        }
    }
}

/// Live metrics registry for one router: fleet-wide counters plus a
/// fixed slot of [`ShardCounters`] per configured shard.
#[derive(Debug)]
pub struct RouterMetrics {
    conn: ConnStats,
    route_forwards: AtomicU64,
    route_retries: AtomicU64,
    shard_ejections: AtomicU64,
    shard_readmissions: AtomicU64,
    replica_writes: AtomicU64,
    quorum_failures: AtomicU64,
    read_repairs: AtomicU64,
    hints_queued: AtomicU64,
    hints_drained: AtomicU64,
    hints_dropped: AtomicU64,
    hints_pending: AtomicU64,
    repair_buckets_shipped: AtomicU64,
    per_shard: Vec<ShardCounters>,
}

impl RouterMetrics {
    /// A zeroed registry with one counter slot per shard.
    pub fn new(shards: usize) -> Self {
        RouterMetrics {
            conn: ConnStats::default(),
            route_forwards: AtomicU64::new(0),
            route_retries: AtomicU64::new(0),
            shard_ejections: AtomicU64::new(0),
            shard_readmissions: AtomicU64::new(0),
            replica_writes: AtomicU64::new(0),
            quorum_failures: AtomicU64::new(0),
            read_repairs: AtomicU64::new(0),
            hints_queued: AtomicU64::new(0),
            hints_drained: AtomicU64::new(0),
            hints_dropped: AtomicU64::new(0),
            hints_pending: AtomicU64::new(0),
            repair_buckets_shipped: AtomicU64::new(0),
            per_shard: (0..shards).map(|_| ShardCounters::default()).collect(),
        }
    }

    /// The client-facing connection counters.
    pub(crate) fn conn(&self) -> &ConnStats {
        &self.conn
    }

    /// A request was forwarded to `shard`.
    pub fn record_forward(&self, shard: usize) {
        self.route_forwards.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = self.per_shard.get(shard) {
            s.forwards.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A forward against `shard` failed in transport and was retried.
    pub fn record_retry(&self, shard: usize) {
        self.route_retries.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = self.per_shard.get(shard) {
            s.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `shard` answered a forward with a typed error frame.
    pub fn record_shard_error(&self, shard: usize) {
        if let Some(s) = self.per_shard.get(shard) {
            s.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one request/response frame pair exchanged with `shard`.
    pub fn record_shard_frames(&self, shard: usize, tx: u64, rx: u64) {
        if let Some(s) = self.per_shard.get(shard) {
            s.frames_tx.fetch_add(tx, Ordering::Relaxed);
            s.frames_rx.fetch_add(rx, Ordering::Relaxed);
        }
    }

    /// `shard` struck out on health probes and was ejected.
    pub fn record_ejection(&self, shard: usize) {
        self.shard_ejections.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = self.per_shard.get(shard) {
            s.ejections.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `shard` answered a probe again and was re-admitted.
    pub fn record_readmission(&self, shard: usize) {
        self.shard_readmissions.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = self.per_shard.get(shard) {
            s.readmissions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One replica of a quorum write committed (per-shard attribution
    /// already lands in that slot's `forwards`).
    pub fn record_replica_write(&self) {
        self.replica_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// A replicated write fell short of its write quorum.
    pub fn record_quorum_failure(&self) {
        self.quorum_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// A Get repaired a stale replica with the canonical bytes.
    pub fn record_read_repair(&self) {
        self.read_repairs.fetch_add(1, Ordering::Relaxed);
    }

    /// A handoff hint was persisted for a missed replica.
    pub fn record_hint_queued(&self) {
        self.hints_queued.fetch_add(1, Ordering::Relaxed);
    }

    /// A persisted hint was delivered to its shard and removed.
    pub fn record_hint_drained(&self) {
        self.hints_drained.fetch_add(1, Ordering::Relaxed);
    }

    /// A hint was dropped (queue at capacity, or condemned as
    /// corrupt); anti-entropy repair is now that replica's only path
    /// to convergence.
    pub fn record_hint_dropped(&self) {
        self.hints_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Set the hints-pending **gauge** (hints currently persisted and
    /// undelivered — it falls as hints drain, unlike the counters).
    pub fn set_hints_pending(&self, pending: u64) {
        self.hints_pending.store(pending, Ordering::Relaxed);
    }

    /// An anti-entropy sweep shipped `buckets` differing digest
    /// buckets.
    pub fn record_repair_buckets(&self, buckets: u64) {
        self.repair_buckets_shipped
            .fetch_add(buckets, Ordering::Relaxed);
    }

    /// Shared byte counters for `shard`, to hand to a
    /// [`crate::conn::CountingStream`] around each pooled connection.
    pub fn byte_counters(
        &self,
        shard: usize,
    ) -> (std::sync::Arc<AtomicU64>, std::sync::Arc<AtomicU64>) {
        let s = &self.per_shard[shard];
        (
            std::sync::Arc::clone(&s.bytes_tx),
            std::sync::Arc::clone(&s.bytes_rx),
        )
    }

    /// Materialise the aggregated rollup. `labels` carries the ring's
    /// per-shard identity and current health, in slot order.
    pub fn snapshot(&self, epoch: u64, labels: &[ShardLabel]) -> RouterMetricsSnapshot {
        let shards = self
            .per_shard
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let label = labels.get(i);
                ShardCountersSnapshot {
                    shard: label.map_or(i as u32, |l| l.id),
                    addr: label.map_or_else(String::new, |l| l.addr.clone()),
                    healthy: label.is_none_or(|l| l.healthy),
                    forwards: s.forwards.load(Ordering::Relaxed),
                    retries: s.retries.load(Ordering::Relaxed),
                    errors: s.errors.load(Ordering::Relaxed),
                    frames_tx: s.frames_tx.load(Ordering::Relaxed),
                    frames_rx: s.frames_rx.load(Ordering::Relaxed),
                    bytes_tx: s.bytes_tx.load(Ordering::Relaxed),
                    bytes_rx: s.bytes_rx.load(Ordering::Relaxed),
                    ejections: s.ejections.load(Ordering::Relaxed),
                    readmissions: s.readmissions.load(Ordering::Relaxed),
                }
            })
            .collect();
        let conn = &self.conn;
        RouterMetricsSnapshot {
            epoch,
            connections_accepted: conn.accepted.load(Ordering::Relaxed),
            connections_refused: conn.refused.load(Ordering::Relaxed),
            connections_closed: conn.closed.load(Ordering::Relaxed),
            connections_killed: conn.killed.load(Ordering::Relaxed),
            frames_rx: conn.frames_rx.load(Ordering::Relaxed),
            frames_tx: conn.frames_tx.load(Ordering::Relaxed),
            net_bytes_rx: conn.bytes_rx.load(Ordering::Relaxed),
            net_bytes_tx: conn.bytes_tx.load(Ordering::Relaxed),
            protocol_errors: conn.protocol_errors.load(Ordering::Relaxed),
            route_forwards: self.route_forwards.load(Ordering::Relaxed),
            route_retries: self.route_retries.load(Ordering::Relaxed),
            shard_ejections: self.shard_ejections.load(Ordering::Relaxed),
            shard_readmissions: self.shard_readmissions.load(Ordering::Relaxed),
            replica_writes: self.replica_writes.load(Ordering::Relaxed),
            quorum_failures: self.quorum_failures.load(Ordering::Relaxed),
            read_repairs: self.read_repairs.load(Ordering::Relaxed),
            hints_queued: self.hints_queued.load(Ordering::Relaxed),
            hints_drained: self.hints_drained.load(Ordering::Relaxed),
            hints_dropped: self.hints_dropped.load(Ordering::Relaxed),
            hints_pending: self.hints_pending.load(Ordering::Relaxed),
            repair_buckets_shipped: self.repair_buckets_shipped.load(Ordering::Relaxed),
            shards,
        }
    }
}

/// Identity and health of one shard slot at snapshot time.
#[derive(Clone, Debug)]
pub struct ShardLabel {
    /// Ring shard id.
    pub id: u32,
    /// Back-end address.
    pub addr: String,
    /// Whether the shard is currently admitted.
    pub healthy: bool,
}

/// Point-in-time rollup of one shard's counters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardCountersSnapshot {
    /// Ring shard id.
    pub shard: u32,
    /// Back-end address.
    pub addr: String,
    /// Whether the shard was admitted when the snapshot was taken.
    pub healthy: bool,
    /// Requests forwarded to this shard.
    pub forwards: u64,
    /// Transport-failed forwards retried elsewhere.
    pub retries: u64,
    /// Typed error frames this shard answered with.
    pub errors: u64,
    /// Protocol frames sent to this shard.
    pub frames_tx: u64,
    /// Protocol frames received from this shard.
    pub frames_rx: u64,
    /// Exact wire bytes written to this shard.
    pub bytes_tx: u64,
    /// Exact wire bytes read from this shard.
    pub bytes_rx: u64,
    /// Times this shard was ejected by health probing.
    pub ejections: u64,
    /// Times this shard was re-admitted after ejection.
    pub readmissions: u64,
}

/// Point-in-time aggregated router rollup: the JSON payload
/// `dnacomp route serve` prints and the router answers `Metrics`
/// requests with.
///
/// Every numeric field is a **monotonic counter** (it only grows over
/// the router's lifetime) except two **gauges** that read as current
/// state and move in both directions: `hints_pending` (hints persisted
/// but not yet delivered) and each shard row's `healthy` flag.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RouterMetricsSnapshot {
    /// Ring epoch the router is serving.
    pub epoch: u64,
    /// Client connections accepted.
    pub connections_accepted: u64,
    /// Client connections refused at the cap.
    pub connections_refused: u64,
    /// Client connections that ended, cleanly or killed: equal to
    /// `connections_accepted` once every connection has ended.
    pub connections_closed: u64,
    /// Client connections killed by their supervisor (strikes, desync,
    /// mid-frame deadline); also counted in `connections_closed`.
    pub connections_killed: u64,
    /// Client-facing frames received.
    pub frames_rx: u64,
    /// Client-facing frames sent.
    pub frames_tx: u64,
    /// Client-facing wire bytes received in valid frames.
    #[serde(default)]
    pub net_bytes_rx: u64,
    /// Client-facing wire bytes transmitted in frames.
    #[serde(default)]
    pub net_bytes_tx: u64,
    /// Client-side protocol violations observed.
    pub protocol_errors: u64,
    /// Requests forwarded to a shard (primary or successor).
    pub route_forwards: u64,
    /// Forwards that failed in transport and were retried.
    pub route_retries: u64,
    /// Health-probe ejections across all shards.
    pub shard_ejections: u64,
    /// Re-admissions across all shards.
    pub shard_readmissions: u64,
    /// Replica commits across all quorum writes (counter; divide by
    /// acknowledged writes for the write amplification factor).
    #[serde(default)]
    pub replica_writes: u64,
    /// Writes that fell short of their write quorum (counter).
    #[serde(default)]
    pub quorum_failures: u64,
    /// Stale replicas repaired on the read path (counter).
    #[serde(default)]
    pub read_repairs: u64,
    /// Handoff hints persisted for missed replicas (counter).
    #[serde(default)]
    pub hints_queued: u64,
    /// Hints delivered to their shard and removed (counter).
    #[serde(default)]
    pub hints_drained: u64,
    /// Hints dropped at capacity or condemned as corrupt (counter).
    #[serde(default)]
    pub hints_dropped: u64,
    /// Hints persisted and still undelivered (**gauge** — falls as
    /// the drain catches up; the only non-monotonic number here
    /// besides per-shard `healthy`).
    #[serde(default)]
    pub hints_pending: u64,
    /// Differing digest buckets shipped by anti-entropy sweeps
    /// (counter).
    #[serde(default)]
    pub repair_buckets_shipped: u64,
    /// Per-shard rollup, in ring slot order.
    pub shards: Vec<ShardCountersSnapshot>,
}

impl RouterMetricsSnapshot {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialisation cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn router_rollup_aggregates_per_shard_counters() {
        let m = RouterMetrics::new(2);
        m.conn().record_accepted();
        m.record_forward(0);
        m.record_forward(1);
        m.record_forward(1);
        m.record_retry(1);
        m.record_shard_error(0);
        m.record_shard_frames(0, 3, 3);
        m.record_ejection(1);
        m.record_readmission(1);
        m.record_replica_write();
        m.record_replica_write();
        m.record_quorum_failure();
        m.record_read_repair();
        m.record_hint_queued();
        m.record_hint_queued();
        m.record_hint_drained();
        m.record_hint_dropped();
        m.set_hints_pending(1);
        m.record_repair_buckets(3);
        let (tx, rx) = m.byte_counters(0);
        tx.fetch_add(100, Ordering::Relaxed);
        rx.fetch_add(40, Ordering::Relaxed);
        let labels = vec![
            ShardLabel {
                id: 1,
                addr: "a:1".into(),
                healthy: true,
            },
            ShardLabel {
                id: 2,
                addr: "b:2".into(),
                healthy: false,
            },
        ];
        let snap = m.snapshot(0xABC, &labels);
        assert_eq!(snap.epoch, 0xABC);
        assert_eq!(snap.route_forwards, 3);
        assert_eq!(snap.route_retries, 1);
        assert_eq!(snap.shard_ejections, 1);
        assert_eq!(snap.shard_readmissions, 1);
        assert_eq!(snap.replica_writes, 2);
        assert_eq!(snap.quorum_failures, 1);
        assert_eq!(snap.read_repairs, 1);
        assert_eq!(snap.hints_queued, 2);
        assert_eq!(snap.hints_drained, 1);
        assert_eq!(snap.hints_dropped, 1);
        assert_eq!(snap.hints_pending, 1);
        assert_eq!(snap.repair_buckets_shipped, 3);
        // The gauge moves both ways; counters never do.
        m.set_hints_pending(0);
        assert_eq!(m.snapshot(0xABC, &labels).hints_pending, 0);
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.shards[0].forwards, 1);
        assert_eq!(snap.shards[0].errors, 1);
        assert_eq!(snap.shards[0].bytes_tx, 100);
        assert_eq!(snap.shards[0].bytes_rx, 40);
        assert_eq!(snap.shards[1].forwards, 2);
        assert_eq!(snap.shards[1].retries, 1);
        assert!(!snap.shards[1].healthy);
        // The aggregated JSON roundtrips with per-shard rows intact.
        let back: RouterMetricsSnapshot = serde_json::from_str(&snap.to_json()).unwrap();
        assert_eq!(back.shards[1].ejections, 1);
    }

    #[test]
    fn counters_are_exact_under_contention() {
        let m = Arc::new(Metrics::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        m.record_enqueued();
                        m.record_accepted();
                        m.record_dequeued();
                        if i % 5 == 0 {
                            m.record_cache_miss();
                        } else {
                            m.record_cache_hit();
                        }
                        m.record_completed(Algorithm::Dnax, 10.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = m.snapshot();
        assert_eq!(s.accepted, 1000);
        assert_eq!(s.completed, 1000);
        assert_eq!(s.cache_hits, 800);
        assert_eq!(s.cache_misses, 200);
        assert!((s.cache_hit_rate - 0.8).abs() < 1e-12);
        assert_eq!(s.queue_depth, 0);
        assert!(s.peak_queue_depth >= 1);
        assert_eq!(s.algorithm_wins.len(), 1);
        assert_eq!(s.algorithm_wins[0].algorithm, "DNAX");
        assert_eq!(s.algorithm_wins[0].wins, 1000);
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let m = Metrics::new();
        for ms in [1.0, 2.0, 4.0, 8.0, 1000.0] {
            m.record_completed(Algorithm::Gzip, ms);
        }
        let p50 = m.latency_quantile_ms(0.5);
        let p95 = m.latency_quantile_ms(0.95);
        // Bucket upper bounds: ≥ the true quantile, ≤ growth × it.
        assert!((4.0..=4.0 * HIST_GROWTH).contains(&p50), "p50 {p50}");
        assert!((1000.0..=1000.0 * HIST_GROWTH).contains(&p95), "p95 {p95}");
        assert!(p50 <= p95);
        // Empty histogram reports zero.
        assert_eq!(Metrics::new().latency_quantile_ms(0.5), 0.0);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let m = Metrics::new();
        m.record_accepted();
        m.record_dequeued();
        m.record_cache_miss();
        m.record_completed(Algorithm::GenCompress, 3.0);
        let s = m.snapshot();
        let json = s.to_json();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn connection_accounting_pairs_opens_with_closes() {
        let m = Metrics::new();
        let c = m.conn();
        for _ in 0..5 {
            c.record_accepted();
        }
        c.record_refused();
        c.record_killed();
        c.record_frame_rx(100);
        c.record_frame_rx(28);
        c.record_frame_tx(64);
        c.record_protocol_error();
        assert_eq!(m.connections_open(), 5);
        for _ in 0..5 {
            c.record_closed();
        }
        // An unpaired extra close clamps at zero instead of wrapping.
        c.record_closed();
        let s = m.snapshot();
        assert_eq!(s.connections_open, 0);
        assert_eq!(s.connections_accepted, 5);
        assert_eq!(s.connections_refused, 1);
        assert_eq!(s.connections_killed, 1);
        assert_eq!(s.frames_rx, 2);
        assert_eq!(s.net_bytes_rx, 128);
        assert_eq!(s.frames_tx, 1);
        assert_eq!(s.net_bytes_tx, 64);
        assert_eq!(s.protocol_errors, 1);
    }

    #[test]
    fn every_algorithm_has_a_win_slot() {
        let m = Metrics::new();
        for alg in Algorithm::ALL {
            m.record_completed(alg, 1.0);
        }
        let s = m.snapshot();
        assert_eq!(s.algorithm_wins.len(), Algorithm::ALL.len());
        assert!(s.algorithm_wins.iter().all(|w| w.wins == 1));
    }
}
