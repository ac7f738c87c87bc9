//! The supervision layer: watchdog, crash attribution, respawn.
//!
//! Workers contain most panics themselves ([`dnacomp_core::contain_panic`]
//! around job execution), so a worker *thread* dying is reserved for the
//! truly abnormal: a simulated hard crash (fault injection's
//! `worker_kill_rate`), a bug in the loop plumbing, or a panic that
//! escaped containment. The supervisor thread polls every worker's
//! [`JoinHandle`], and when one is finished it answers three questions:
//!
//! 1. **Did it die mid-job?** Each worker publishes its current job in
//!    its [`WorkerSlot::in_flight`] cell *before* executing and clears
//!    it after replying. A finished thread with a non-empty cell
//!    crashed; the victim job's ticket has already resolved
//!    `Err(WorkerGone)` (its reply sender died with the thread), and
//!    the crash counts a quarantine strike against the job's content.
//! 2. **Is there still work?** A worker that exited with the queue
//!    closed and empty simply drained to completion — nothing to do.
//! 3. **Can we afford a replacement?** Respawns draw from a finite
//!    restart budget ([`crate::ServiceConfig::restart_budget`]); a
//!    crash-looping pool must run out of credit rather than burn CPU
//!    forever. When the budget is gone and the last worker is dead, the
//!    supervisor performs the drain of last resort: it closes the queue
//!    and resolves every remaining ticket `Err(WorkerGone)` so no
//!    caller blocks on a pool that no longer exists.
//!
//! Liveness is exported without the supervisor: each worker heartbeats
//! its slot at job boundaries, and a metrics snapshot reads the worst
//! heartbeat age over *busy* slots as the `last_heartbeat_age_ms`
//! gauge (an idle pool reports 0 — staleness only means something when
//! someone claims to be working). The supervisor publishes no gauge.

use crate::dlq::{lock_recover, DeadLetter, DeadLetterQueue, QuarantineRegistry};
use crate::metrics::Metrics;
use crate::queue::JobQueue;
use crate::service::{CompressRequest, Job, JobError, LruMap, ServiceConfig};
use crate::worker;
use dnacomp_core::{panic_message, FrameworkHandle};
use dnacomp_store::ContentKey;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Supervisor poll cadence. Short enough that crash→respawn latency is
/// invisible next to any real job; long enough to be free when idle.
const POLL: Duration = Duration::from_millis(2);

/// What a worker was holding when it died.
pub(crate) struct InFlight {
    /// The original request (replayable; becomes the dead letter when
    /// the crash crosses the strike threshold).
    pub(crate) req: CompressRequest,
    /// Content fingerprint strikes are counted against.
    pub(crate) key: ContentKey,
}

/// Per-worker shared state: heartbeat gauge + in-flight cell. Survives
/// the worker thread itself, which is the whole point — it is how the
/// supervisor reads the wreckage.
pub(crate) struct WorkerSlot {
    pub(crate) id: usize,
    epoch: Instant,
    /// Milliseconds since `epoch` at the last heartbeat.
    heartbeat_ms: AtomicU64,
    in_flight: Mutex<Option<InFlight>>,
}

impl WorkerSlot {
    pub(crate) fn new(id: usize, epoch: Instant) -> Self {
        WorkerSlot {
            id,
            epoch,
            heartbeat_ms: AtomicU64::new(0),
            in_flight: Mutex::new(None),
        }
    }

    /// Record "I am alive right now".
    pub(crate) fn beat(&self) {
        self.heartbeat_ms
            .store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    /// Milliseconds since the last heartbeat.
    pub(crate) fn heartbeat_age_ms(&self) -> u64 {
        (self.epoch.elapsed().as_millis() as u64)
            .saturating_sub(self.heartbeat_ms.load(Ordering::Relaxed))
    }

    /// Publish the job about to execute (or clear it after replying).
    pub(crate) fn set_in_flight(&self, inf: Option<InFlight>) {
        *lock_recover(&self.in_flight) = inf;
    }

    fn take_in_flight(&self) -> Option<InFlight> {
        lock_recover(&self.in_flight).take()
    }

    /// Whether the slot holds a job: it is executing one, or its
    /// thread died under one not yet reaped.
    pub(crate) fn is_busy(&self) -> bool {
        lock_recover(&self.in_flight).is_some()
    }
}

/// Everything needed to run — and re-run — a worker.
#[derive(Clone)]
pub(crate) struct PoolShared {
    pub(crate) queue: Arc<JobQueue<Job>>,
    pub(crate) framework: FrameworkHandle,
    pub(crate) cache: Arc<LruMap>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) config: ServiceConfig,
    pub(crate) dlq: Arc<DeadLetterQueue>,
    pub(crate) registry: Arc<QuarantineRegistry>,
    pub(crate) block_pool: Arc<dnacomp_algos::TaskPool>,
}

/// Spawn one worker thread bound to `slot`. `generation` counts
/// respawns for the thread name (`dnacomp-worker-3-g2` is slot 3's
/// second replacement).
pub(crate) fn spawn_worker(
    shared: &PoolShared,
    slot: Arc<WorkerSlot>,
    generation: u32,
) -> JoinHandle<()> {
    let ctx = worker::WorkerContext {
        queue: Arc::clone(&shared.queue),
        framework: shared.framework.clone(),
        cache: Arc::clone(&shared.cache),
        metrics: Arc::clone(&shared.metrics),
        config: shared.config.clone(),
        dlq: Arc::clone(&shared.dlq),
        registry: Arc::clone(&shared.registry),
        block_pool: Arc::clone(&shared.block_pool),
        slot,
    };
    std::thread::Builder::new()
        .name(format!("dnacomp-worker-{}-g{generation}", ctx.slot.id))
        .spawn(move || worker::run(ctx))
        .expect("spawning worker thread")
}

/// The supervisor's working state.
pub(crate) struct Supervisor {
    pub(crate) shared: PoolShared,
    pub(crate) slots: Vec<Arc<WorkerSlot>>,
    /// Index-aligned with `slots`; `None` once a slot's thread exited
    /// and was not (or could not be) replaced.
    pub(crate) handles: Vec<Option<JoinHandle<()>>>,
    pub(crate) generations: Vec<u32>,
    pub(crate) restarts_left: u32,
}

impl Supervisor {
    /// Handle one finished worker thread at `i`. Returns `true` if the
    /// slot is live again (a replacement was spawned).
    fn reap(&mut self, i: usize, handle: JoinHandle<()>) -> bool {
        // Never resume_unwind: a worker's panic is the worker's problem;
        // the payload becomes a string and the thread becomes history.
        let join_err = handle.join().err();
        let crashed = self.slots[i].take_in_flight();
        if let Some(inf) = crashed {
            // Died mid-job. The ticket already resolved WorkerGone when
            // the reply sender dropped; here we do the bookkeeping.
            self.shared.metrics.jobs_crashed.inc();
            let msg = join_err
                .as_ref()
                .map(|p| panic_message(p.as_ref()))
                .unwrap_or_else(|| "worker exited mid-job".to_owned());
            let (strikes, crossed) = self.shared.registry.strike(&inf.key);
            if crossed {
                self.shared.dlq.push(DeadLetter {
                    key: inf.key,
                    strikes,
                    last_error: format!("crashed worker {}: {msg}", self.slots[i].id),
                    request: inf.req,
                });
            }
        }
        // Drained pools don't need replacements; neither do workers that
        // exited the loop normally after close.
        if self.shared.queue.is_closed() && self.shared.queue.is_empty() {
            return false;
        }
        if self.restarts_left == 0 {
            return false;
        }
        self.restarts_left -= 1;
        self.generations[i] += 1;
        self.shared.metrics.worker_restarts.inc();
        self.handles[i] = Some(spawn_worker(
            &self.shared,
            Arc::clone(&self.slots[i]),
            self.generations[i],
        ));
        true
    }

    /// The pool is extinct but jobs remain: close the queue and resolve
    /// every queued ticket with a typed error so no caller blocks
    /// forever. Each such job counts as crashed — it was accepted and
    /// the pool died under it.
    fn drain_of_last_resort(&self) {
        self.shared.queue.close();
        while let Some(job) = self.shared.queue.pop() {
            self.shared.metrics.record_dequeued();
            self.shared.metrics.jobs_crashed.inc();
            let _ = job.reply.send(Err(JobError::WorkerGone));
        }
    }
}

/// Supervisor main loop. Runs until every worker has exited and the
/// queue is closed and empty — i.e. until there is provably nothing
/// left to supervise.
pub(crate) fn run(mut sup: Supervisor) {
    loop {
        let mut live = 0usize;
        for i in 0..sup.handles.len() {
            match &sup.handles[i] {
                Some(h) if h.is_finished() => {
                    let h = sup.handles[i].take().expect("checked Some");
                    if sup.reap(i, h) {
                        live += 1;
                    }
                }
                Some(_) => live += 1,
                None => {}
            }
        }
        if live == 0 {
            let drained = sup.shared.queue.is_closed() && sup.shared.queue.is_empty();
            if !drained {
                sup.drain_of_last_resort();
            }
            break;
        }
        std::thread::sleep(POLL);
    }
}
