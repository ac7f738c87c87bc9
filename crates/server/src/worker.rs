//! The worker pool: per-thread simulator + breaker, shared everything
//! else.
//!
//! Each worker owns what must be mutable — a [`CloudSim`] (its own blob
//! store, so staged uploads never interleave across jobs) and a
//! [`CircuitBreaker`] for the degradation ladder — and shares what is
//! read-only or concurrent-safe: the [`FrameworkHandle`] rule snapshot,
//! the LRU decision cache, the metrics registry, and the supervision
//! state (its [`WorkerSlot`], the quarantine registry and the DLQ).
//!
//! ## One container per job
//!
//! A job builds exactly one container, and that container is what its
//! response sizes and what the attached store keeps: a flat blob, a
//! framed container from the block-parallel path (a job longer than one
//! block, or than [`MAX_PREALLOC_BASES`]), or in exchange mode the
//! container the ladder uploaded and verified. Nothing is compressed
//! twice.
//!
//! ## Panic containment
//!
//! Job execution runs inside [`dnacomp_core::contain_panic`]: a panic
//! anywhere in the decide/compress/exchange/persist path fails **that
//! job** with [`JobError::Panicked`] and the worker keeps serving. Each
//! contained panic counts a quarantine strike against the job's content
//! fingerprint; crossing the threshold writes a dead letter and future
//! submissions of the same content are refused up front. Only a panic
//! *outside* the contained region (or an injected hard kill) takes the
//! thread down — that is the supervisor's department.
//!
//! Determinism: fault injection keys on `(algorithm, file, block,
//! attempt)`, never on the worker id or wall clock, so a job's outcome
//! is identical no matter which worker runs it or in what order — the
//! property the stress suite's "deterministic totals" assertion pins
//! down (with [`ServiceConfig::breaker_threshold`] set high enough that
//! ladder skipping cannot depend on a worker's job history). The panic
//! and kill faults key on the *file only*, making poisonous jobs
//! deterministically poisonous — the precondition for repeat-offender
//! quarantine to make sense.

use crate::cache::ContextKey;
use crate::dlq::{DeadLetter, DeadLetterQueue, QuarantineRegistry};
use crate::metrics::Metrics;
use crate::queue::JobQueue;
use crate::service::{
    lock_cache, CompressResponse, Job, JobError, JobResult, LruMap, ServiceConfig,
};
use crate::supervisor::{InFlight, WorkerSlot};
use dnacomp_algos::blob::MAX_PREALLOC_BASES;
use dnacomp_algos::{compressor_for, Algorithm, CompressedBlob, ParallelCompressor, TaskPool};
use dnacomp_cloud::{BlobStore, CloudSim};
use dnacomp_core::{contain_panic, run_ladder, CircuitBreaker, FrameworkHandle};
use dnacomp_store::{ContentKey, PutOutcome};
use std::sync::Arc;
use std::time::Instant;

/// Everything one worker thread needs.
pub(crate) struct WorkerContext {
    pub(crate) queue: Arc<JobQueue<Job>>,
    pub(crate) framework: FrameworkHandle,
    pub(crate) cache: Arc<LruMap>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) config: ServiceConfig,
    pub(crate) dlq: Arc<DeadLetterQueue>,
    pub(crate) registry: Arc<QuarantineRegistry>,
    pub(crate) block_pool: Arc<TaskPool>,
    pub(crate) slot: Arc<WorkerSlot>,
}

fn build_sim(config: &ServiceConfig) -> CloudSim {
    let mut sim = CloudSim::default();
    if let Some(bytes) = config.block_bytes {
        sim.store = BlobStore::with_block_bytes(bytes);
    }
    sim.faults = config.faults;
    sim.retry = config.retry;
    sim
}

/// Worker main loop: drain the queue until it is closed and empty.
pub(crate) fn run(ctx: WorkerContext) {
    let mut sim = build_sim(&ctx.config);
    let mut breaker = CircuitBreaker::with_threshold(ctx.config.breaker_threshold);
    while let Some(job) = ctx.queue.pop() {
        ctx.slot.beat();
        ctx.metrics.record_dequeued();
        let waited = job.submitted.elapsed();
        if let Some(deadline) = job.req.deadline {
            if waited > deadline {
                ctx.metrics.expired.inc();
                let _ = job.reply.send(Err(JobError::Expired {
                    waited_ms: waited.as_secs_f64() * 1e3,
                }));
                continue;
            }
        }
        let key = ContentKey::of_sequence(&job.req.sequence);
        // The quarantine gate comes before everything else — including
        // the injected hard kill below: quarantined content is refused
        // *without being processed*, so a repeat worker-killer can
        // never claim another thread.
        if ctx.registry.is_quarantined(&key) {
            ctx.metrics.jobs_quarantined.inc();
            let _ = job.reply.send(Err(JobError::Quarantined {
                key_hex: key.to_hex(),
            }));
            ctx.slot.beat();
            continue;
        }
        // Publish the job before anything can go wrong so a dead thread
        // always leaves a readable account of what it was doing.
        ctx.slot.set_in_flight(Some(InFlight {
            req: job.req.clone(),
            key,
        }));
        // Simulated hard crash: a panic deliberately *outside* the
        // contained region, modelling the failures containment cannot
        // catch (abort-adjacent bugs, stack overflow). The reply sender
        // dies with the thread, resolving the ticket `WorkerGone`; the
        // supervisor attributes the crash via the in-flight cell.
        if ctx.config.faults.kills_worker(&job.req.file) {
            panic!("injected worker kill on {}", job.req.file);
        }
        let result = match contain_panic(|| execute(&ctx, &mut sim, &mut breaker, &job, key)) {
            Ok(result) => result,
            Err(message) => {
                ctx.metrics.jobs_panicked.inc();
                let (strikes, crossed) = ctx.registry.strike(&key);
                if crossed {
                    ctx.dlq.push(DeadLetter {
                        key,
                        strikes,
                        last_error: message.clone(),
                        request: job.req.clone(),
                    });
                }
                Err(JobError::Panicked { message, strikes })
            }
        };
        ctx.slot.set_in_flight(None);
        match &result {
            Ok(r) => ctx.metrics.record_completed(r.algorithm, r.sim_ms),
            Err(JobError::Panicked { .. }) => {} // counted as panicked above
            Err(_) => ctx.metrics.failed.inc(),
        }
        // A dropped ticket is a caller choice, not a service error.
        let _ = job.reply.send(result);
        ctx.slot.beat();
    }
}

/// Persist-on-complete: `put` the container the job produced — the
/// bytes its response describes — into the attached store under the
/// job's content `key` (no-op when the service is stateless) and count
/// the put. Nothing is compressed or hashed here, and the store's own
/// gauges are read only when a metrics snapshot is taken.
fn persist(
    ctx: &WorkerContext,
    key: ContentKey,
    blob: &CompressedBlob,
) -> Result<Option<PutOutcome>, JobError> {
    let Some(store) = &ctx.config.store else {
        return Ok(None);
    };
    let outcome = store.put_with_key(key, blob).map_err(JobError::Store)?;
    ctx.metrics.store_puts.inc();
    if outcome.deduped {
        ctx.metrics.store_dedup_hits.inc();
    }
    Ok(Some(outcome))
}

/// Run one job: cached decision → compress (or full exchange). `key`
/// is the sequence's content key, hashed once by the quarantine gate.
fn execute(
    ctx: &WorkerContext,
    sim: &mut CloudSim,
    breaker: &mut CircuitBreaker,
    job: &Job,
    key: ContentKey,
) -> JobResult {
    let req = &job.req;
    // Injected job panic: inside the contained region, keyed on the
    // file only, so a poisonous job panics on every execution.
    if ctx.config.faults.job_panics(&req.file) {
        panic!("injected job panic on {}", req.file);
    }
    let t0 = Instant::now();
    let context_key = ContextKey::quantize(&req.context);
    // Short-lock cache discipline: look up under the lock, but on a
    // miss *decide outside it*. The old code held the cache mutex
    // across `framework.decide`, serialising every concurrently-missing
    // worker behind one tree traversal — the measured wall-throughput
    // sag at higher worker counts. Correctness is unchanged because the
    // cached value is a pure function of the key (decided on the key's
    // canonical context): racing fillers compute the same algorithm,
    // and whichever insert lands last overwrites an equal value.
    let cached = lock_cache(&ctx.cache).get(&context_key).copied();
    let (decided, cache_hit) = match cached {
        Some(alg) => {
            ctx.metrics.cache_hits.inc();
            (alg, true)
        }
        None => {
            ctx.metrics.cache_misses.inc();
            let alg = ctx.framework.decide(&context_key.canonical());
            lock_cache(&ctx.cache).insert(context_key, alg);
            (alg, false)
        }
    };
    if req.exchange {
        let (used, report) =
            run_ladder(decided, breaker, sim, &req.context, &req.file, &req.sequence)
                .map_err(JobError::Exchange)?;
        // The container the ladder uploaded and verified is the one kept.
        let shipped = sim
            .shipped(&req.file, used)
            .map_err(|e| JobError::Exchange(e.into()))?;
        return Ok(CompressResponse {
            file: req.file.clone(),
            algorithm: used,
            original_len: req.sequence.len(),
            compressed_bytes: report.compressed_bytes,
            blocks: 1,
            sim_ms: report.total_ms(),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            wall_latency_ms: job.submitted.elapsed().as_secs_f64() * 1e3,
            cache_hit,
            worker: ctx.slot.id,
            retries: report.retries,
            degraded_from: report.degraded_from,
            persisted: persist(ctx, key, &shipped)?,
        });
    }
    let compressed = match frame_block_size(ctx, decided, req.sequence.len()) {
        // Block-parallel path: frame the sequence on the service-wide
        // shared pool. The frame bytes are a pure function of
        // (algorithm, block size, sequence), so this job's output is
        // identical to the serial encoder's no matter how many threads
        // or concurrent jobs share the pool. The framed container is
        // what the store keeps and `Get` serves.
        Some(block_size) => {
            let pc = ParallelCompressor::new(decided, block_size, Arc::clone(&ctx.block_pool));
            pc.compress_with_stats(&req.sequence).map(|(frame, stats)| {
                ctx.metrics.block_parallel_jobs.inc();
                ctx.metrics.blocks_compressed.add(frame.blocks.len() as u64);
                (frame.to_blob(), frame.blocks.len(), stats)
            })
        }
        None => compressor_for(decided)
            .compress_with_stats(&req.sequence)
            .map(|(blob, stats)| (blob, 1, stats)),
    };
    let (blob, blocks, stats) = compressed.map_err(|e| JobError::Exchange(e.into()))?;
    Ok(CompressResponse {
        file: req.file.clone(),
        algorithm: decided,
        original_len: req.sequence.len(),
        compressed_bytes: blob.total_bytes(),
        blocks,
        sim_ms: sim
            .perf
            .compress_ms(&req.context.client(), decided, &req.file, &stats),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        wall_latency_ms: job.submitted.elapsed().as_secs_f64() * 1e3,
        cache_hit,
        worker: ctx.slot.id,
        retries: 0,
        degraded_from: Vec::new(),
        persisted: persist(ctx, key, &blob)?,
    })
}

/// The frame block size for a `len`-base compress-only job, or `None`
/// to compress it flat. A job is framed when it is longer than
/// [`ServiceConfig::block_size`], or longer than one flat container may
/// hold ([`MAX_PREALLOC_BASES`]) whatever that knob says, so every
/// acknowledged put decodes. Blocks never exceed that limit either.
/// Only an algorithm that runs standalone per block is framed.
fn frame_block_size(ctx: &WorkerContext, decided: Algorithm, len: usize) -> Option<usize> {
    let block_size = ctx
        .config
        .block_size
        .map_or(MAX_PREALLOC_BASES, |bs| bs.min(MAX_PREALLOC_BASES));
    (len > block_size && Algorithm::HORIZONTAL.contains(&decided)).then_some(block_size)
}
