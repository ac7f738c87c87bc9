//! Service metrics: counters bumped in place, gauges read from their
//! owners when a snapshot is taken.
//!
//! The code that sees an event bumps the matching `Counter` field
//! directly (`metrics.expired.inc()`) with a relaxed atomic (monotonic
//! counters need no ordering), so metrics never serialize the hot
//! path. The few `record_*` methods left each keep an invariant a bare
//! increment would not: queue-depth pairing and its peak, the
//! completion histogram, and the connection open gauge.
//!
//! Gauges are never copied in: a registry built over its `Owners`
//! reads the store, the dead-letter queue, the block pool and the
//! worker heartbeats when [`snapshot`](Metrics::snapshot) runs, so a
//! gauge is its owner's value at snapshot time. The snapshot is a
//! plain serialisable struct — the payload `dnacomp serve` prints and
//! `BENCH_serve.json` archives.
//!
//! Latency is tracked on the **simulated clock** (the same millisecond
//! accounting the `PerfModel` prices every exchange with), in a
//! geometric-bucket histogram: bucket `i` covers costs up to
//! `0.5 · 1.6^i` ms. Quantile queries return the upper bound of the
//! bucket where the cumulative count crosses the rank — a ≤ 60 %
//! overestimate by construction, which is enough to watch p50/p95
//! drift under load without storing samples.

use crate::dlq::DeadLetterQueue;
use crate::supervisor::WorkerSlot;
use dnacomp_algos::{Algorithm, TaskPool};
use dnacomp_store::SequenceStore;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// A monotonic event counter, bumped in place where the event happens.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    /// Count one event.
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events.
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Read handles to the components whose state the gauges report. An
/// absent owner reads as 0.
#[derive(Default)]
pub(crate) struct Owners {
    pub(crate) store: Option<Arc<SequenceStore>>,
    pub(crate) dlq: Option<Arc<DeadLetterQueue>>,
    pub(crate) pool: Option<Arc<TaskPool>>,
    pub(crate) workers: Vec<Arc<WorkerSlot>>,
}

impl std::fmt::Debug for Owners {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Owners")
            .field("store", &self.store.is_some())
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

/// The latency histogram's bucket counts.
#[derive(Debug)]
struct Buckets([Counter; HIST_BUCKETS]);

impl Default for Buckets {
    fn default() -> Self {
        Buckets(std::array::from_fn(|_| Counter::default()))
    }
}

/// Live metrics registry shared by every worker of one service.
///
/// Each `pub(crate)` counter is documented on the [`MetricsSnapshot`]
/// field of the same name.
#[derive(Debug, Default)]
pub struct Metrics {
    pub(crate) accepted: Counter,
    pub(crate) rejected_full: Counter,
    pub(crate) expired: Counter,
    pub(crate) failed: Counter,
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) store_puts: Counter,
    pub(crate) store_dedup_hits: Counter,
    pub(crate) worker_restarts: Counter,
    pub(crate) jobs_panicked: Counter,
    pub(crate) jobs_quarantined: Counter,
    pub(crate) jobs_shed: Counter,
    pub(crate) jobs_crashed: Counter,
    pub(crate) blocks_compressed: Counter,
    pub(crate) block_parallel_jobs: Counter,
    completed: Counter,
    queue_depth: AtomicU64,
    peak_queue_depth: AtomicU64,
    wins: [Counter; ALG_SLOTS],
    latency: Buckets,
    latency_sum_us: Counter,
    conn: ConnStats,
    owners: Owners,
}

impl Metrics {
    /// Fresh registry, all zeros, with no owners: its store, DLQ, pool
    /// and heartbeat gauges read 0.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Fresh registry whose gauges read `owners` at snapshot time.
    pub(crate) fn reading(owners: Owners) -> Self {
        Metrics {
            owners,
            ..Metrics::default()
        }
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

    /// A job finished successfully with `alg` at simulated cost `sim_ms`.
    pub fn record_completed(&self, alg: Algorithm, sim_ms: f64) {
        self.completed.inc();
        self.wins[alg.tag() as usize % ALG_SLOTS].inc();
        self.latency.0[bucket_for(sim_ms)].inc();
        self.latency_sum_us.add((sim_ms * 1_000.0).max(0.0) as u64);
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
        let counts: Vec<u64> = self.latency.0.iter().map(Counter::get).collect();
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

    /// Materialise a serialisable snapshot: every counter, and every
    /// gauge read from its owner now.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let hits = self.cache_hits.get();
        let misses = self.cache_misses.get();
        let completed = self.completed.get();
        let conn = &self.conn;
        let wins = Algorithm::ALL
            .into_iter()
            .filter_map(|alg| {
                let n = self.wins[alg.tag() as usize % ALG_SLOTS].get();
                (n > 0).then(|| AlgorithmWins {
                    algorithm: alg.name().to_owned(),
                    wins: n,
                })
            })
            .collect();
        let owners = &self.owners;
        let store = owners
            .store
            .as_ref()
            .map(|s| s.snapshot())
            .unwrap_or_default();
        let (dlq_depth, dlq_dropped) = owners
            .dlq
            .as_ref()
            .map_or((0, 0), |d| (d.depth() as u64, d.dropped()));
        let pool = owners.pool.as_ref().map(|p| p.stats()).unwrap_or_default();
        // Staleness only means something for a worker claiming to be
        // busy: an idle pool reports 0.
        let last_heartbeat_age_ms = owners
            .workers
            .iter()
            .filter(|w| w.is_busy())
            .map(|w| w.heartbeat_age_ms())
            .max()
            .unwrap_or(0);
        MetricsSnapshot {
            accepted: self.accepted.get(),
            rejected_full: self.rejected_full.get(),
            expired: self.expired.get(),
            completed,
            failed: self.failed.get(),
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            queue_depth: self.queue_depth(),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            algorithm_wins: wins,
            latency_p50_ms: self.latency_quantile_ms(0.50),
            latency_p95_ms: self.latency_quantile_ms(0.95),
            latency_mean_ms: if completed == 0 {
                0.0
            } else {
                self.latency_sum_us.get() as f64 / 1_000.0 / completed as f64
            },
            store_puts: self.store_puts.get(),
            store_dedup_hits: self.store_dedup_hits.get(),
            store_bytes_on_disk: store.bytes_on_disk,
            store_scrub_failures: store.scrub_failures,
            store_runs: store.runs,
            store_tombstones: store.tombstones,
            store_compactions: store.seals + store.merges,
            store_cache_hits: store.cache_hits,
            store_cache_misses: store.cache_misses,
            store_bloom_negatives: store.bloom_negatives,
            store_wal_appends: store.wal_appends,
            store_wal_batches: store.wal_batches,
            store_maintenance_failures: store.maintenance_failures,
            worker_restarts: self.worker_restarts.get(),
            jobs_panicked: self.jobs_panicked.get(),
            jobs_quarantined: self.jobs_quarantined.get(),
            jobs_shed: self.jobs_shed.get(),
            jobs_crashed: self.jobs_crashed.get(),
            dlq_depth,
            dlq_dropped,
            last_heartbeat_age_ms,
            blocks_compressed: self.blocks_compressed.get(),
            block_parallel_jobs: self.block_parallel_jobs.get(),
            pool_tasks_run_by_pool: pool.tasks_run_by_pool,
            pool_tasks_run_inline: pool.tasks_run_inline,
            pool_batches: pool.batches,
            connections_open: self.connections_open(),
            connections_accepted: conn.accepted.get(),
            connections_refused: conn.refused.get(),
            connections_killed: conn.killed.get(),
            frames_rx: conn.frames_rx.get(),
            frames_tx: conn.frames_tx.get(),
            net_bytes_rx: conn.bytes_rx.get(),
            net_bytes_tx: conn.bytes_tx.get(),
            protocol_errors: conn.protocol_errors.get(),
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
    accepted: Counter,
    /// Connections refused at accept (cap reached): never open, so
    /// only this counter moves.
    pub(crate) refused: Counter,
    closed: Counter,
    /// Connections killed by their supervisor (strikes, desync,
    /// mid-frame deadline), counted *in addition to* the close.
    pub(crate) killed: Counter,
    frames_rx: Counter,
    frames_tx: Counter,
    bytes_rx: Counter,
    bytes_tx: Counter,
    /// Protocol violations (bad magic/version/checksum, unknown type,
    /// oversize declaration, malformed payload, torn frame, traffic
    /// before `Hello`): one per violation, whether it cost a strike or
    /// the connection.
    pub(crate) protocol_errors: Counter,
}

impl ConnStats {
    /// A connection was accepted (the open gauge rises).
    pub(crate) fn record_accepted(&self) {
        self.accepted.inc();
        self.open.fetch_add(1, Ordering::Relaxed);
    }

    /// An accepted connection ended, cleanly or killed: the open gauge
    /// falls and the closed counter rises. Every
    /// [`record_accepted`](Self::record_accepted) is paired with
    /// exactly one of these by the connection thread's exit path.
    pub(crate) fn record_closed(&self) {
        self.closed.inc();
        let _ = self
            .open
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// A complete, checksum-valid frame arrived (`bytes` on the wire).
    pub(crate) fn record_frame_rx(&self, bytes: u64) {
        self.frames_rx.inc();
        self.bytes_rx.add(bytes);
    }

    /// A complete frame was written to a peer (`bytes` on the wire).
    pub(crate) fn record_frame_tx(&self, bytes: u64) {
        self.frames_tx.inc();
        self.bytes_tx.add(bytes);
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

/// Point-in-time copy of the registry, ready for JSON export. Gauges —
/// the `store_*` fields except `store_puts` and `store_dedup_hits`
/// (which count this service's persists), the `dlq_*` and `pool_*`
/// fields and `last_heartbeat_age_ms` — are their owner's values when
/// the snapshot was taken.
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
    /// Committed store bytes on disk.
    pub store_bytes_on_disk: u64,
    /// Store records that ever failed checksum validation.
    pub store_scrub_failures: u64,
    /// Sorted runs (level ≥ 1 files) in the store.
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
    /// Store seals or merges that failed after a put had committed.
    #[serde(default)]
    pub store_maintenance_failures: u64,
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

/// Live counters for one back-end shard of a router, bumped in place
/// through `RouterMetrics::shard`.
///
/// The byte counters are `Arc`-shared so a
/// [`crate::conn::CountingStream`] wrapped around each pooled
/// connection feeds them directly — the rollup's per-shard byte
/// numbers are exact wire bytes, not estimates.
#[derive(Debug, Default)]
pub struct ShardCounters {
    pub(crate) forwards: Counter,
    pub(crate) retries: Counter,
    pub(crate) errors: Counter,
    /// Request/response exchanges: one frame each way, so the rollup
    /// exports it as both `frames_tx` and `frames_rx`.
    pub(crate) frames: Counter,
    bytes_tx: Arc<AtomicU64>,
    bytes_rx: Arc<AtomicU64>,
    pub(crate) ejections: Counter,
    pub(crate) readmissions: Counter,
}

/// Live metrics registry for one router: fleet-wide counters plus a
/// fixed slot of [`ShardCounters`] per configured shard. The fleet
/// totals of per-shard events are summed from the rows at snapshot
/// time, and `hints_pending` is read from the hint queue by the caller.
///
/// Each `pub(crate)` counter is documented on the
/// [`RouterMetricsSnapshot`] (or [`ShardCountersSnapshot`]) field of
/// the same name.
#[derive(Debug, Default)]
pub struct RouterMetrics {
    conn: ConnStats,
    pub(crate) replica_writes: Counter,
    pub(crate) quorum_failures: Counter,
    pub(crate) read_repairs: Counter,
    pub(crate) hints_queued: Counter,
    pub(crate) hints_drained: Counter,
    pub(crate) hints_dropped: Counter,
    per_shard: Vec<ShardCounters>,
}

impl RouterMetrics {
    /// A zeroed registry with one counter slot per shard.
    pub fn new(shards: usize) -> Self {
        RouterMetrics {
            per_shard: (0..shards).map(|_| ShardCounters::default()).collect(),
            ..RouterMetrics::default()
        }
    }

    /// The client-facing connection counters.
    pub(crate) fn conn(&self) -> &ConnStats {
        &self.conn
    }

    /// The counters of the shard in ring slot `slot`.
    pub(crate) fn shard(&self, slot: usize) -> &ShardCounters {
        &self.per_shard[slot]
    }

    /// Shared byte counters for `shard`, to hand to a
    /// [`crate::conn::CountingStream`] around each pooled connection.
    pub fn byte_counters(&self, shard: usize) -> (Arc<AtomicU64>, Arc<AtomicU64>) {
        let s = &self.per_shard[shard];
        (Arc::clone(&s.bytes_tx), Arc::clone(&s.bytes_rx))
    }

    /// Materialise the aggregated rollup. `labels` carries the ring's
    /// per-shard identity and current health, in slot order;
    /// `hints_pending` is the hint queue's length now.
    pub fn snapshot(
        &self,
        epoch: u64,
        labels: &[ShardLabel],
        hints_pending: u64,
    ) -> RouterMetricsSnapshot {
        let shards: Vec<ShardCountersSnapshot> = self
            .per_shard
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let label = labels.get(i);
                ShardCountersSnapshot {
                    shard: label.map_or(i as u32, |l| l.id),
                    addr: label.map_or_else(String::new, |l| l.addr.clone()),
                    healthy: label.is_none_or(|l| l.healthy),
                    forwards: s.forwards.get(),
                    retries: s.retries.get(),
                    errors: s.errors.get(),
                    frames_tx: s.frames.get(),
                    frames_rx: s.frames.get(),
                    bytes_tx: s.bytes_tx.load(Ordering::Relaxed),
                    bytes_rx: s.bytes_rx.load(Ordering::Relaxed),
                    ejections: s.ejections.get(),
                    readmissions: s.readmissions.get(),
                }
            })
            .collect();
        let total = |col: fn(&ShardCountersSnapshot) -> u64| shards.iter().map(col).sum();
        let conn = &self.conn;
        RouterMetricsSnapshot {
            epoch,
            connections_accepted: conn.accepted.get(),
            connections_refused: conn.refused.get(),
            connections_closed: conn.closed.get(),
            connections_killed: conn.killed.get(),
            frames_rx: conn.frames_rx.get(),
            frames_tx: conn.frames_tx.get(),
            net_bytes_rx: conn.bytes_rx.get(),
            net_bytes_tx: conn.bytes_tx.get(),
            protocol_errors: conn.protocol_errors.get(),
            route_forwards: total(|s| s.forwards),
            route_retries: total(|s| s.retries),
            shard_ejections: total(|s| s.ejections),
            shard_readmissions: total(|s| s.readmissions),
            replica_writes: self.replica_writes.get(),
            quorum_failures: self.quorum_failures.get(),
            read_repairs: self.read_repairs.get(),
            hints_queued: self.hints_queued.get(),
            hints_drained: self.hints_drained.get(),
            hints_dropped: self.hints_dropped.get(),
            hints_pending,
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
    /// Requests forwarded to a shard (primary or successor): the sum
    /// of the per-shard `forwards`.
    pub route_forwards: u64,
    /// Forwards that failed in transport and were retried: the sum of
    /// the per-shard `retries`.
    pub route_retries: u64,
    /// Health-probe ejections: the sum of the per-shard `ejections`.
    pub shard_ejections: u64,
    /// Re-admissions: the sum of the per-shard `readmissions`.
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
        m.conn().record_frame_rx(30);
        m.conn().record_frame_tx(20);
        m.conn().refused.inc();
        m.conn().killed.inc();
        m.conn().protocol_errors.add(4);
        m.conn().record_closed();
        m.shard(0).forwards.inc();
        m.shard(1).forwards.inc();
        m.shard(1).forwards.inc();
        m.shard(1).retries.inc();
        m.shard(0).errors.inc();
        m.shard(0).frames.add(3);
        m.shard(1).ejections.inc();
        m.shard(1).readmissions.inc();
        m.replica_writes.inc();
        m.replica_writes.inc();
        m.quorum_failures.inc();
        m.read_repairs.inc();
        m.hints_queued.inc();
        m.hints_queued.inc();
        m.hints_drained.inc();
        m.hints_dropped.inc();
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
        let snap = m.snapshot(0xABC, &labels, 1);
        // Every key of the rollup and of its shard rows, by name and value.
        assert_eq!(
            snap.to_json(),
            concat!(
                r#"{"epoch":2748,"connections_accepted":1,"connections_refused":1,"#,
                r#""connections_closed":1,"connections_killed":1,"frames_rx":1,"frames_tx":1,"#,
                r#""net_bytes_rx":30,"net_bytes_tx":20,"protocol_errors":4,"route_forwards":3,"#,
                r#""route_retries":1,"shard_ejections":1,"shard_readmissions":1,"#,
                r#""replica_writes":2,"quorum_failures":1,"read_repairs":1,"hints_queued":2,"#,
                r#""hints_drained":1,"hints_dropped":1,"hints_pending":1,"#,
                r#""shards":[{"shard":1,"addr":"a:1","#,
                r#""healthy":true,"forwards":1,"retries":0,"errors":1,"frames_tx":3,"#,
                r#""frames_rx":3,"bytes_tx":100,"bytes_rx":40,"ejections":0,"readmissions":0},"#,
                r#"{"shard":2,"addr":"b:2","healthy":false,"forwards":2,"retries":1,"#,
                r#""errors":0,"frames_tx":0,"frames_rx":0,"bytes_tx":0,"bytes_rx":0,"#,
                r#""ejections":1,"readmissions":1}]}"#,
            )
        );
        // Each fleet total is the sum of its per-shard column.
        let col = |f: fn(&ShardCountersSnapshot) -> u64| snap.shards.iter().map(f).sum::<u64>();
        assert_eq!(snap.route_forwards, col(|s| s.forwards));
        assert_eq!(snap.route_retries, col(|s| s.retries));
        assert_eq!(snap.shard_ejections, col(|s| s.ejections));
        assert_eq!(snap.shard_readmissions, col(|s| s.readmissions));
        // The gauge moves both ways; counters never do.
        assert_eq!(m.snapshot(0xABC, &labels, 0).hints_pending, 0);
        assert_eq!(snap.shards.len(), 2);
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
                        m.accepted.inc();
                        m.record_dequeued();
                        if i % 5 == 0 {
                            m.cache_misses.inc();
                        } else {
                            m.cache_hits.inc();
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
        m.accepted.inc();
        m.record_dequeued();
        m.cache_misses.inc();
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
        c.refused.inc();
        c.killed.inc();
        c.record_frame_rx(100);
        c.record_frame_rx(28);
        c.record_frame_tx(64);
        c.protocol_errors.inc();
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
