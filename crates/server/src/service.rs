//! The compression service: submission front end + worker pool wiring.
//!
//! One [`CompressionService`] owns a bounded [`JobQueue`], a fixed pool
//! of OS threads (see [`crate::worker`]), a shared [`LruCache`] of
//! quantized-context decisions, a [`Metrics`] registry, and a
//! [`FrameworkHandle`] — the read-only rule-tree snapshot every worker
//! consults. Producers call [`submit`](CompressionService::submit) and
//! get a [`JobTicket`] back; the response arrives on the ticket when a
//! worker finishes.
//!
//! ## Job lifecycle & the every-ticket-resolves contract
//!
//! ```text
//! submit ─┬─ queue full ──────────────► Err(SubmitError::QueueFull)
//!         ├─ shedding ────────────────► ticket: Err(JobError::Shed)
//!         └─ accepted → queued ─┬─ deadline passed at dequeue
//!                               │        └► ticket: Err(JobError::Expired)
//!                               ├─ content quarantined
//!                               │        └► ticket: Err(JobError::Quarantined)
//!                               ├─ executed ─┬─ ok    ► ticket: Ok(CompressResponse)
//!                               │            ├─ err   ► ticket: Err(JobError::Exchange/Store)
//!                               │            └─ panic ► ticket: Err(JobError::Panicked)
//!                               └─ worker crashed under the job
//!                                        └► ticket: Err(JobError::WorkerGone)
//! ```
//!
//! **Every ticket resolves exactly once, with a typed outcome**: `Ok`,
//! a typed `Err`, shed, or quarantined. Hard rejection
//! (`SubmitError`) is only ever synchronous, at submit; a shed job
//! never enters the queue but its ticket still resolves. Worker panics
//! are contained per job ([`JobError::Panicked`]); worker *crashes*
//! resolve the victim's ticket via the dropped reply sender
//! ([`JobError::WorkerGone`]) and the supervisor respawns the thread
//! (see [`crate::supervisor`]). [`shutdown`](CompressionService::shutdown)
//! closes the queue (new submissions fail fast) and joins the
//! supervisor, which keeps replacing crashed workers until everything
//! accepted has drained.

use crate::cache::{ContextKey, LruCache};
use crate::dlq::{DeadLetter, DeadLetterInfo, DeadLetterQueue, QuarantineRegistry};
use crate::metrics::{Metrics, MetricsSnapshot, Owners};
use crate::queue::{JobQueue, Priority, PushError};
use crate::supervisor;
use dnacomp_algos::{Algorithm, TaskPool};
use dnacomp_cloud::{ExchangeError, FaultPlan, RetryPolicy};
use dnacomp_core::{Context, ContextAwareFramework, FrameworkHandle, LabeledRow};
use dnacomp_ml::TreeMethod;
use dnacomp_seq::PackedSeq;
use dnacomp_store::{ContentKey, PutOutcome, SequenceStore, StoreError};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One unit of work for the service.
#[derive(Clone, Debug)]
pub struct CompressRequest {
    /// File identifier (names the blob in exchange mode; feeds the
    /// deterministic fault/jitter keys).
    pub file: String,
    /// The sequence to compress.
    pub sequence: PackedSeq,
    /// The client context the decision is made for.
    pub context: Context,
    /// Queue lane.
    pub priority: Priority,
    /// Wall-clock budget from submission until a worker *starts* the
    /// job; exceeded ⇒ the ticket resolves `Err(JobError::Expired)`.
    pub deadline: Option<Duration>,
    /// `true`: run the full resilient cloud exchange (compress →
    /// upload → download → decompress, degradation ladder on failure).
    /// `false`: compress only, priced on the same simulated clock.
    pub exchange: bool,
}

impl CompressRequest {
    /// A compress-only, normal-priority, deadline-free request.
    pub fn new(file: impl Into<String>, sequence: PackedSeq, context: Context) -> Self {
        CompressRequest {
            file: file.into(),
            sequence,
            context,
            priority: Priority::Normal,
            deadline: None,
            exchange: false,
        }
    }
}

/// Successful outcome of one job.
#[derive(Clone, Debug, PartialEq)]
pub struct CompressResponse {
    /// Echo of the request's file identifier.
    pub file: String,
    /// Algorithm that actually compressed the payload (after any
    /// degradation).
    pub algorithm: Algorithm,
    /// Input length in bases.
    pub original_len: usize,
    /// Serialised container size in bytes.
    pub compressed_bytes: usize,
    /// Frame blocks the compressed container holds: `1` for a flat
    /// blob, the block count when the job was framed
    /// ([`ServiceConfig::block_size`]).
    pub blocks: usize,
    /// Simulated cost of the job, ms: compression time in compress-only
    /// mode, full exchange total in exchange mode.
    pub sim_ms: f64,
    /// Wall-clock time the worker spent executing, ms.
    pub wall_ms: f64,
    /// Wall-clock time from submission to completion, ms (queue wait
    /// included) — the per-job latency `bench-serve` aggregates into
    /// exact percentiles, unlike the pool-size-independent `sim_ms`.
    pub wall_latency_ms: f64,
    /// `true` when the decision came from the LRU cache (rule tree
    /// skipped).
    pub cache_hit: bool,
    /// Index of the worker that ran the job.
    pub worker: usize,
    /// Block attempts repeated during the exchange (0 in compress-only
    /// mode).
    pub retries: u32,
    /// Algorithms the degradation ladder abandoned before success.
    pub degraded_from: Vec<Algorithm>,
    /// Where the result landed when the service runs in
    /// persist-on-complete mode ([`ServiceConfig::store`]): the content
    /// key plus whether the store already held the sequence. `None`
    /// when no store is attached.
    pub persisted: Option<PutOutcome>,
}

/// Why a ticket resolved without a response.
#[derive(Debug)]
pub enum JobError {
    /// The job out-waited its deadline in the queue; `waited_ms` is how
    /// long it sat before a worker picked it up.
    Expired {
        /// Queue wait, wall-clock ms.
        waited_ms: f64,
    },
    /// The exchange (or compression) failed with a typed error after
    /// exhausting the degradation ladder.
    Exchange(ExchangeError),
    /// The job compressed fine but persisting it to the attached
    /// [`SequenceStore`] failed; the result was not delivered because
    /// persist-on-complete promises the record is durable on success.
    Store(StoreError),
    /// The worker crashed (or the pool died) under this job without
    /// answering. The supervisor counts the crash, strikes the job's
    /// content, and respawns the worker — resubmitting is safe unless
    /// the content has been quarantined meanwhile.
    WorkerGone,
    /// The job panicked inside a worker; the panic was contained
    /// ([`dnacomp_core::contain_panic`]) and charged to this job alone.
    Panicked {
        /// Extracted panic payload.
        message: String,
        /// Quarantine strikes now held against this job's content.
        strikes: u32,
    },
    /// The job's content crossed the strike threshold earlier and is
    /// quarantined in the dead-letter queue; execution was refused.
    Quarantined {
        /// Hex content fingerprint — the handle for `dlq replay`/`drop`.
        key_hex: String,
    },
    /// Load shedding refused the job at admission
    /// ([`ServiceConfig::shed_above`]); it never entered the queue.
    Shed {
        /// Queue depth observed at the shedding decision.
        depth: usize,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Expired { waited_ms } => {
                write!(f, "job expired after waiting {waited_ms:.1} ms in queue")
            }
            JobError::Exchange(e) => write!(f, "exchange failed: {e}"),
            JobError::Store(e) => write!(f, "persisting result failed: {e}"),
            JobError::WorkerGone => f.write_str("worker crashed without answering"),
            JobError::Panicked { message, strikes } => {
                write!(f, "job panicked (contained; strike {strikes}): {message}")
            }
            JobError::Quarantined { key_hex } => {
                write!(f, "content {key_hex} is quarantined in the dead-letter queue")
            }
            JobError::Shed { depth } => {
                write!(f, "shed at admission: queue depth {depth} over the shedding threshold")
            }
        }
    }
}

/// Why a submission was rejected synchronously.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Backpressure: the bounded queue is at capacity.
    QueueFull,
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("submission queue is full"),
            SubmitError::ShuttingDown => f.write_str("service is shutting down"),
        }
    }
}

/// Result delivered on a [`JobTicket`].
pub type JobResult = Result<CompressResponse, JobError>;

/// The shared decision cache (quantized context → algorithm).
pub(crate) type LruMap = Mutex<LruCache<ContextKey, Algorithm>>;

/// Lock the decision cache, recovering from poisoning by clearing it.
///
/// A panic while holding the cache lock (contained by the worker's
/// panic guard) poisons the mutex but cannot make the *service* wrong:
/// cached values are pure functions of their keys, so dropping every
/// entry restores a trivially consistent (merely cold) cache. This
/// replaces the old `expect("cache poisoned")`, which let one contained
/// panic take down every subsequent job on the decide path.
pub(crate) fn lock_cache(cache: &LruMap) -> std::sync::MutexGuard<'_, LruCache<ContextKey, Algorithm>> {
    match cache.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            let mut guard = poisoned.into_inner();
            guard.clear();
            guard
        }
    }
}

/// An internal queued job: the request plus reply plumbing.
pub(crate) struct Job {
    pub(crate) req: CompressRequest,
    pub(crate) submitted: Instant,
    pub(crate) reply: mpsc::Sender<JobResult>,
}

/// Claim check for a submitted job.
pub struct JobTicket {
    rx: mpsc::Receiver<JobResult>,
}

impl JobTicket {
    /// Block until the job resolves.
    pub fn wait(self) -> JobResult {
        self.rx.recv().unwrap_or(Err(JobError::WorkerGone))
    }

    /// Block until the job resolves or `budget` runs out: `None` when
    /// the job is still in flight at the end of the budget (a zero
    /// budget returns a result that was already sent).
    pub fn wait_timeout(&self, budget: Duration) -> Option<JobResult> {
        match self.rx.recv_timeout(budget) {
            Ok(r) => Some(r),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(JobError::WorkerGone)),
        }
    }
}

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads to spawn.
    pub workers: usize,
    /// Bounded queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Decision-cache entries before LRU eviction.
    pub cache_capacity: usize,
    /// Fault schedule for each worker's simulator (deterministic per
    /// job: faults key on algorithm/file/block, not on the worker).
    pub faults: FaultPlan,
    /// Retry/backoff/timeout policy for exchanges.
    pub retry: RetryPolicy,
    /// Block size of each worker's blob store, bytes (`None`: default).
    /// When [`block_size`](Self::block_size) is set and this is `None`,
    /// the service aligns it to the packed bytes of one frame block
    /// (`block_size / 4`) so resumable-upload blocks land exactly on
    /// frame boundaries.
    pub block_bytes: Option<usize>,
    /// Block-parallel threshold, bases. `Some(n)`: compress-only jobs
    /// longer than `n` are compressed as a framed `DX` container
    /// ([`dnacomp_algos::FramedBlob`]), one block task per `n` bases,
    /// on the service-wide shared [`TaskPool`] — block tasks from
    /// concurrent jobs interleave FIFO instead of head-of-line
    /// blocking. The framed container is what the response sizes and
    /// the store keeps. `None` (default): jobs up to
    /// [`MAX_PREALLOC_BASES`](dnacomp_algos::blob::MAX_PREALLOC_BASES)
    /// bases are one flat blob. Either way, a longer job is framed in
    /// blocks of at most that many bases, so every stored container
    /// decodes.
    pub block_size: Option<usize>,
    /// Consecutive failures before a worker's circuit breaker opens a
    /// ladder rung. Use `u32::MAX` to disable breaker skipping, which
    /// makes every job's outcome a pure function of the job (full
    /// determinism even under faults).
    pub breaker_threshold: u32,
    /// Persist-on-complete: every successful job's container — the one
    /// its response describes — is `put` into this shared store before
    /// the ticket resolves, and the response carries the
    /// [`PutOutcome`]. `None` (the default) keeps the service
    /// stateless, as in earlier revisions.
    pub store: Option<Arc<SequenceStore>>,
    /// Load shedding / admission control. `Some(depth)`: once the queue
    /// holds ≥ `depth` jobs, low-priority submissions are shed (ticket
    /// resolves [`JobError::Shed`] immediately, nothing is enqueued);
    /// normal-priority submissions shed at `2 × depth`; high priority is
    /// never shed — it only ever hits the hard
    /// [`SubmitError::QueueFull`] wall. `None` (default) disables
    /// shedding.
    pub shed_above: Option<usize>,
    /// Panics/crashes charged to one content fingerprint before it is
    /// quarantined into the dead-letter queue. `u32::MAX` disables
    /// quarantine.
    pub quarantine_after: u32,
    /// Total worker respawns the supervisor may perform over the
    /// service's lifetime. `0` means a crashed worker stays dead.
    pub restart_budget: u32,
    /// Dead letters held before the oldest is evicted (and counted in
    /// the `dlq_dropped` metric).
    pub dlq_capacity: usize,
    /// Background store scrub interval. `Some(d)` with a store attached
    /// spawns a [`dnacomp_store::ScrubTask`] auditing
    /// [`scrub_records_per_tick`](Self::scrub_records_per_tick) run
    /// records from disk every `d`; failures feed the
    /// `store_scrub_failures` metric. `None` (default): no background
    /// scrubbing — explicit `verify` still works.
    pub scrub_interval: Option<Duration>,
    /// Records audited per scrub tick (ignored without
    /// [`scrub_interval`](Self::scrub_interval)).
    pub scrub_records_per_tick: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 256,
            cache_capacity: 1024,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            block_bytes: None,
            block_size: None,
            breaker_threshold: 3,
            store: None,
            shed_above: None,
            quarantine_after: 2,
            restart_budget: 8,
            dlq_capacity: 64,
            scrub_interval: None,
            scrub_records_per_tick: 256,
        }
    }
}

/// The running service. Dropping it performs an orderly shutdown.
pub struct CompressionService {
    queue: Arc<JobQueue<Job>>,
    metrics: Arc<Metrics>,
    dlq: Arc<DeadLetterQueue>,
    registry: Arc<QuarantineRegistry>,
    block_pool: Arc<TaskPool>,
    shed_above: Option<usize>,
    supervisor: Option<std::thread::JoinHandle<()>>,
    scrub: Option<dnacomp_store::ScrubTask>,
}

impl CompressionService {
    /// Spawn the worker pool (plus its supervisor) and open the queue.
    pub fn start(framework: FrameworkHandle, mut config: ServiceConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        // Align the resumable-upload block of each worker's blob store
        // to the packed bytes of one frame block, unless overridden.
        if let (Some(bases), None) = (config.block_size, config.block_bytes) {
            config.block_bytes = Some(bases.div_ceil(4).max(1));
        }
        let queue = Arc::new(JobQueue::new(config.queue_capacity));
        let cache = Arc::new(Mutex::new(LruCache::new(config.cache_capacity)));
        let dlq = Arc::new(DeadLetterQueue::new(config.dlq_capacity));
        let registry = Arc::new(QuarantineRegistry::new(config.quarantine_after));
        // One service-wide block pool, sized like the job pool: block
        // tasks from every worker's framed jobs interleave here, and a
        // worker running a framed job helps drain its own batch, so
        // total concurrency stays bounded by `2 × workers`.
        let block_pool = Arc::new(TaskPool::new(config.workers));
        let epoch = Instant::now();
        let slots: Vec<Arc<supervisor::WorkerSlot>> = (0..config.workers)
            .map(|id| Arc::new(supervisor::WorkerSlot::new(id, epoch)))
            .collect();
        // The gauges read these owners when a snapshot is taken.
        let metrics = Arc::new(Metrics::reading(Owners {
            store: config.store.clone(),
            dlq: Some(Arc::clone(&dlq)),
            pool: Some(Arc::clone(&block_pool)),
            workers: slots.clone(),
        }));
        let shed_above = config.shed_above;
        let restart_budget = config.restart_budget;
        // Background scrub: only meaningful with a store to audit.
        let scrub = match (config.scrub_interval, config.store.as_ref()) {
            (Some(interval), Some(store)) => Some(dnacomp_store::ScrubTask::start(
                Arc::clone(store),
                interval,
                config.scrub_records_per_tick,
            )),
            _ => None,
        };
        let shared = supervisor::PoolShared {
            queue: Arc::clone(&queue),
            framework,
            cache,
            metrics: Arc::clone(&metrics),
            config,
            dlq: Arc::clone(&dlq),
            registry: Arc::clone(&registry),
            block_pool: Arc::clone(&block_pool),
        };
        let handles = slots
            .iter()
            .map(|slot| Some(supervisor::spawn_worker(&shared, Arc::clone(slot), 0)))
            .collect();
        let generations = vec![0u32; slots.len()];
        let sup = supervisor::Supervisor {
            shared,
            slots,
            handles,
            generations,
            restarts_left: restart_budget,
        };
        let supervisor = std::thread::Builder::new()
            .name("dnacomp-supervisor".to_owned())
            .spawn(move || supervisor::run(sup))
            .expect("spawning supervisor thread");
        CompressionService {
            queue,
            metrics,
            dlq,
            registry,
            block_pool,
            shed_above,
            supervisor: Some(supervisor),
            scrub,
        }
    }

    /// Submit a job. Non-blocking: a full queue rejects immediately
    /// (backpressure) rather than stalling the producer; an overloaded
    /// queue *sheds* lower-priority work instead (the ticket resolves
    /// [`JobError::Shed`] without the job ever being enqueued).
    pub fn submit(&self, req: CompressRequest) -> Result<JobTicket, SubmitError> {
        let (tx, rx) = mpsc::channel();
        let priority = req.priority;
        // Admission control: shed before touching the queue. Low lane
        // sheds first (at the configured depth), normal at twice it,
        // high priority never — it competes only with the hard
        // QueueFull limit. Shed jobs are not "accepted": they are
        // resolved on the spot and appear only in `jobs_shed`.
        if let Some(limit) = self.shed_above {
            let lane_limit = match priority {
                Priority::High => None,
                Priority::Normal => Some(limit.saturating_mul(2)),
                Priority::Low => Some(limit),
            };
            if let Some(lane_limit) = lane_limit {
                let depth = self.queue.len();
                if depth >= lane_limit.max(1) {
                    self.metrics.jobs_shed.inc();
                    let _ = tx.send(Err(JobError::Shed { depth }));
                    return Ok(JobTicket { rx });
                }
            }
        }
        let job = Job {
            req,
            submitted: Instant::now(),
            reply: tx,
        };
        // Depth rises before the job is visible to workers (and is
        // undone on rejection) so the worker-side decrement always has
        // a matching prior increment — see `Metrics::record_enqueued`.
        self.metrics.record_enqueued();
        match self.queue.try_push(job, priority) {
            Ok(()) => {
                self.metrics.accepted.inc();
                Ok(JobTicket { rx })
            }
            Err(PushError::Full(_)) => {
                self.metrics.record_dequeued();
                self.metrics.rejected_full.inc();
                Err(SubmitError::QueueFull)
            }
            Err(PushError::Closed(_)) => {
                self.metrics.record_dequeued();
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Sharing counters of the service-wide block pool.
    pub fn block_pool_stats(&self) -> dnacomp_algos::PoolStats {
        self.block_pool.stats()
    }

    /// Jobs currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Dead letters currently quarantined.
    pub fn dlq_depth(&self) -> usize {
        self.dlq.depth()
    }

    /// Summaries of every quarantined job, oldest first.
    pub fn dlq_list(&self) -> Vec<DeadLetterInfo> {
        self.dlq.list()
    }

    /// Drop a dead letter without replaying it. Clears the content's
    /// strikes too (dropping is a human judgement that the record is
    /// noise). Returns the discarded letter, `None` if the key is not
    /// quarantined.
    pub fn dlq_drop(&self, key: &ContentKey) -> Option<DeadLetter> {
        let letter = self.dlq.take(key)?;
        self.registry.clear(key);
        Some(letter)
    }

    /// Replay a dead letter: forgive its strikes and resubmit the
    /// original request. `None` if the key is not quarantined; the
    /// inner `Result` is the resubmission outcome (on a synchronous
    /// rejection the letter is restored to the DLQ, strikes stay
    /// cleared).
    pub fn dlq_replay(&self, key: &ContentKey) -> Option<Result<JobTicket, SubmitError>> {
        let letter = self.dlq.take(key)?;
        self.registry.clear(key);
        match self.submit(letter.request.clone()) {
            Ok(ticket) => Some(Ok(ticket)),
            Err(e) => {
                self.dlq.push(letter);
                Some(Err(e))
            }
        }
    }

    /// Remove and return every dead letter, oldest first — how `dnacomp
    /// serve --dlq-dir` persists the quarantine before shutdown.
    pub fn dlq_drain(&self) -> Vec<DeadLetter> {
        self.dlq.drain()
    }

    /// Close the queue, drain it, join the supervision tree, and return
    /// the final metrics snapshot.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_in_place();
        self.metrics.snapshot()
    }

    fn shutdown_in_place(&mut self) {
        if let Some(scrub) = self.scrub.take() {
            scrub.stop();
        }
        self.queue.close();
        if let Some(h) = self.supervisor.take() {
            // The supervisor joins (and keeps respawning, budget
            // permitting) the workers until the queue drains, and it
            // swallows their panic payloads — a worker panic is already
            // a typed job outcome, never re-raised into the caller.
            let _ = h.join();
        }
    }
}

impl Drop for CompressionService {
    fn drop(&mut self) {
        if self.supervisor.is_some() {
            self.shutdown_in_place();
        }
    }
}

/// Train a framework on a synthetic labelled grid in milliseconds.
///
/// The full measurement grid (corpus × contexts × algorithms on the
/// simulator) takes minutes; a shard, a benchmark or a test only needs
/// *a* realistic rule tree, so this labels a size sweep with the
/// paper's headline pattern — small files favour GenCompress, mid-size
/// CTW-class compressors lose to DNAX as size grows — and trains CART
/// on it.
pub fn synthetic_framework(seed: u64) -> FrameworkHandle {
    let mut rows = Vec::new();
    for i in 0..240u64 {
        let kb = 1.0 + ((seed + i) % 240) as f64 * 4.2;
        rows.push(LabeledRow {
            file: format!("synthetic_{i}"),
            file_bytes: (kb * 1024.0) as u64,
            ram_mb: [1024u32, 2048, 3072, 4096][(i % 4) as usize],
            cpu_mhz: [1600u32, 2393, 2800][(i % 3) as usize],
            bandwidth_mbps: [0.5, 2.0, 10.0][(i % 3) as usize],
            winner: if kb < 50.0 {
                Algorithm::GenCompress
            } else {
                Algorithm::Dnax
            },
            score: 0.0,
        });
    }
    FrameworkHandle::new(ContextAwareFramework::train(&rows, TreeMethod::Cart))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_framework_learns_the_size_rule() {
        let fw = synthetic_framework(42);
        let ctx = |kb: u64| dnacomp_core::Context {
            ram_mb: 2048,
            cpu_mhz: 2393,
            bandwidth_mbps: 2.0,
            file_bytes: kb * 1024,
        };
        assert_eq!(fw.decide(&ctx(10)), Algorithm::GenCompress);
        assert_eq!(fw.decide(&ctx(800)), Algorithm::Dnax);
    }
}
