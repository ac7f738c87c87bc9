//! Supervision suite for the worker pool: panic containment, worker
//! respawn under a restart budget, poison-job quarantine into the
//! dead-letter queue, load shedding, and the strengthened service
//! contract — **every submitted ticket resolves exactly once with a
//! typed outcome** (`Ok`, typed `Err`, shed, or quarantined), no matter
//! how hostile the fault schedule.
//!
//! Fault determinism makes the sweeps exact, not statistical: the
//! panic/kill faults key on the *file name only*, so the test can
//! compute the precise poison set from the [`FaultPlan`] and assert
//! that `jobs_panicked + jobs_quarantined` accounts for every injected
//! panic and `dlq_depth` for every repeat offender.

use dnacomp::cloud::{context_grid, FaultPlan};
use dnacomp::core::Context;
use dnacomp::seq::gen::GenomeModel;
use dnacomp::server::{
    synthetic_framework, CompressRequest, CompressionService, JobError, Priority, ServiceConfig,
    SubmitError,
};
use dnacomp::store::ContentKey;
use std::time::Duration;

/// `n` unique (file, sequence) pairs over the context grid. Distinct
/// files get distinct sequences, so content fingerprints and fault keys
/// are 1:1 — a file the plan poisons is poisonous *content*.
fn unique_jobs(n: usize) -> Vec<CompressRequest> {
    let contexts = context_grid();
    (0..n)
        .map(|i| {
            let len = 800 + (i % 11) * 200;
            let seq = GenomeModel::default().generate(len, 0x5EED ^ i as u64);
            let client = &contexts[i % contexts.len()];
            CompressRequest::new(format!("sup_{i:04}"), seq, Context::new(client, len as u64))
        })
        .collect()
}

fn submit_all(service: &CompressionService, jobs: &[CompressRequest]) -> Vec<dnacomp::server::JobTicket> {
    jobs.iter()
        .map(|job| loop {
            match service.submit(job.clone()) {
                Ok(t) => break t,
                Err(SubmitError::QueueFull) => std::thread::yield_now(),
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        })
        .collect()
}

/// The acceptance soak: 8 workers × 510 jobs (170 unique contents × 3
/// passes) with ≥ 5 % panic injection. Every ticket resolves with a
/// typed outcome, the metrics account for every injected panic, and
/// shutdown is clean.
#[test]
fn panic_soak_every_ticket_resolves_and_panics_are_accounted() {
    const UNIQUE: usize = 170;
    const PASSES: usize = 3;
    let plan = FaultPlan::panics(41, 0.08);
    let base = unique_jobs(UNIQUE);
    let poison: Vec<&str> = base
        .iter()
        .filter(|j| plan.job_panics(&j.file))
        .map(|j| j.file.as_str())
        .collect();
    assert!(
        poison.len() >= UNIQUE / 20,
        "plan injects too few panics ({}) for a meaningful soak",
        poison.len()
    );
    let jobs: Vec<CompressRequest> = std::iter::repeat_with(|| base.clone())
        .take(PASSES)
        .flatten()
        .collect();
    let service = CompressionService::start(
        synthetic_framework(7),
        ServiceConfig {
            workers: 8,
            queue_capacity: 64,
            faults: plan,
            quarantine_after: 2,
            dlq_capacity: UNIQUE, // no evictions: depth counts offenders exactly
            breaker_threshold: u32::MAX,
            ..ServiceConfig::default()
        },
    );
    let tickets = submit_all(&service, &jobs);
    assert_eq!(tickets.len(), UNIQUE * PASSES);
    let (mut ok, mut panicked, mut quarantined) = (0usize, 0usize, 0usize);
    for (t, job) in tickets.into_iter().zip(&jobs) {
        // wait() resolving at all — for every ticket — is the contract.
        match t.wait() {
            Ok(r) => {
                assert_eq!(r.file, job.file);
                ok += 1;
            }
            Err(JobError::Panicked { message, strikes }) => {
                assert!(
                    message.contains("injected job panic"),
                    "panic payload lost: {message}"
                );
                assert!(strikes >= 1);
                assert!(poison.contains(&job.file.as_str()));
                panicked += 1;
            }
            Err(JobError::Quarantined { key_hex }) => {
                assert_eq!(key_hex.len(), 32);
                assert!(poison.contains(&job.file.as_str()));
                quarantined += 1;
            }
            Err(other) => panic!("untyped/unexpected outcome for {}: {other}", job.file),
        }
    }
    assert_eq!(ok, (UNIQUE - poison.len()) * PASSES, "clean jobs must all complete");
    // Every submission of a poisonous file either panicked (pre-
    // quarantine) or was refused (post-quarantine) — none lost, none
    // silently "succeeded".
    assert_eq!(panicked + quarantined, poison.len() * PASSES);
    // Crossing strike 2 needs at least two panics per offender.
    assert!(panicked >= poison.len() * 2);

    let snapshot = service.shutdown();
    assert_eq!(snapshot.jobs_panicked as usize, panicked);
    assert_eq!(snapshot.jobs_quarantined as usize, quarantined);
    // Each poisonous content crossed the threshold exactly once.
    assert_eq!(snapshot.dlq_depth as usize, poison.len());
    assert_eq!(snapshot.dlq_dropped, 0);
    // Contained panics never kill threads: no respawns, no crashes.
    assert_eq!(snapshot.worker_restarts, 0);
    assert_eq!(snapshot.jobs_crashed, 0);
    assert_eq!(snapshot.accepted as usize, jobs.len());
    assert_eq!(
        snapshot.completed + snapshot.jobs_panicked + snapshot.jobs_quarantined,
        snapshot.accepted,
        "conservation violated: {snapshot:?}"
    );
    assert_eq!(snapshot.queue_depth, 0);
}

/// Hard worker kills (panics outside containment): the victim ticket
/// resolves `WorkerGone`, the supervisor respawns the thread, and the
/// pool finishes the rest of the workload.
#[test]
fn killed_workers_respawn_and_their_tickets_resolve_typed() {
    let plan = FaultPlan {
        worker_kill_rate: 0.12,
        ..FaultPlan::none()
    };
    let jobs = unique_jobs(80);
    let kills: Vec<&str> = jobs
        .iter()
        .filter(|j| plan.kills_worker(&j.file))
        .map(|j| j.file.as_str())
        .collect();
    assert!(!kills.is_empty(), "plan must kill at least one worker");
    let service = CompressionService::start(
        synthetic_framework(7),
        ServiceConfig {
            workers: 4,
            faults: plan,
            restart_budget: 64,
            quarantine_after: u32::MAX, // isolate respawn from quarantine
            ..ServiceConfig::default()
        },
    );
    let tickets = submit_all(&service, &jobs);
    let mut gone = 0usize;
    for (t, job) in tickets.into_iter().zip(&jobs) {
        match t.wait() {
            Ok(_) => assert!(!kills.contains(&job.file.as_str())),
            Err(JobError::WorkerGone) => {
                assert!(kills.contains(&job.file.as_str()));
                gone += 1;
            }
            Err(other) => panic!("unexpected outcome for {}: {other}", job.file),
        }
    }
    assert_eq!(gone, kills.len());
    let snapshot = service.shutdown();
    assert_eq!(snapshot.jobs_crashed as usize, kills.len());
    // Each crash triggers a respawn, except possibly the very last one
    // if shutdown had already drained the queue when it was reaped.
    assert!(
        snapshot.worker_restarts as usize >= kills.len().saturating_sub(4)
            && snapshot.worker_restarts as usize <= kills.len(),
        "restarts {} vs kills {}",
        snapshot.worker_restarts,
        kills.len()
    );
    assert_eq!(
        snapshot.completed + snapshot.jobs_crashed,
        snapshot.accepted
    );
}

/// A job that *kills* workers repeatedly is quarantined just like one
/// that panics: strikes come from the supervisor's crash attribution,
/// and once over the threshold the content is refused up front — it can
/// never take down a third thread.
#[test]
fn repeat_worker_killers_end_up_in_the_dlq() {
    let plan = FaultPlan {
        worker_kill_rate: 0.2,
        ..FaultPlan::none()
    };
    // Find a file name the plan reliably kills.
    let victim = (0..)
        .map(|i| format!("killer_{i}"))
        .find(|f| plan.kills_worker(f))
        .unwrap();
    let seq = GenomeModel::default().generate(1_200, 99);
    let key = ContentKey::of_sequence(&seq);
    let ctx = Context {
        ram_mb: 2048,
        cpu_mhz: 2393,
        bandwidth_mbps: 2.0,
        file_bytes: seq.len() as u64,
    };
    let req = CompressRequest::new(victim, seq, ctx);
    let service = CompressionService::start(
        synthetic_framework(7),
        ServiceConfig {
            workers: 2,
            faults: plan,
            quarantine_after: 2,
            restart_budget: 8,
            ..ServiceConfig::default()
        },
    );
    // Strike 1 and strike 2: submitted serially so each crash is
    // attributed before the next submission runs.
    for expected_strike in 1..=2u32 {
        let t = service.submit(req.clone()).unwrap();
        match t.wait() {
            Err(JobError::WorkerGone) => {}
            other => panic!("strike {expected_strike}: expected WorkerGone, got {other:?}"),
        }
        // The supervisor reaps asynchronously; wait for attribution.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.metrics().snapshot().jobs_crashed < expected_strike as u64 {
            assert!(std::time::Instant::now() < deadline, "crash never attributed");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while service.dlq_depth() == 0 {
        assert!(std::time::Instant::now() < deadline, "offender never quarantined");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Third submission: refused up front, no third corpse.
    let t = service.submit(req.clone()).unwrap();
    match t.wait() {
        Err(JobError::Quarantined { key_hex }) => assert_eq!(key_hex, key.to_hex()),
        other => panic!("expected Quarantined, got {other:?}"),
    }
    let letters = service.dlq_list();
    assert_eq!(letters.len(), 1);
    assert_eq!(letters[0].key, key.to_hex());
    assert_eq!(letters[0].strikes, 2);
    assert!(letters[0].last_error.contains("crashed worker"));
    let snapshot = service.shutdown();
    assert_eq!(snapshot.jobs_crashed, 2);
    assert_eq!(snapshot.jobs_quarantined, 1);
    assert_eq!(snapshot.dlq_depth, 1);
}

/// DLQ lifecycle against a live service: replay clears strikes and
/// resubmits the original request; drop discards it. Replay of a
/// still-poisonous job simply earns strikes again — nothing panics the
/// caller.
#[test]
fn dlq_replay_and_drop_roundtrip() {
    let plan = FaultPlan::panics(17, 0.25);
    let poison_file = (0..)
        .map(|i| format!("poison_{i}"))
        .find(|f| plan.job_panics(f))
        .unwrap();
    let seq = GenomeModel::default().generate(900, 5);
    let key = ContentKey::of_sequence(&seq);
    let ctx = Context {
        ram_mb: 1024,
        cpu_mhz: 1600,
        bandwidth_mbps: 1.0,
        file_bytes: seq.len() as u64,
    };
    let req = CompressRequest::new(poison_file, seq, ctx);
    let service = CompressionService::start(
        synthetic_framework(7),
        ServiceConfig {
            workers: 2,
            faults: plan,
            quarantine_after: 2,
            ..ServiceConfig::default()
        },
    );
    for _ in 0..2 {
        let t = service.submit(req.clone()).unwrap();
        assert!(matches!(t.wait(), Err(JobError::Panicked { .. })));
    }
    assert_eq!(service.dlq_depth(), 1);
    // Replay: strikes forgiven, job re-runs (and re-panics: strike 1
    // again, below threshold, so it does NOT re-enter the DLQ).
    let ticket = service
        .dlq_replay(&key)
        .expect("letter exists")
        .expect("queue has room");
    match ticket.wait() {
        Err(JobError::Panicked { strikes, .. }) => assert_eq!(strikes, 1),
        other => panic!("expected Panicked on replay, got {other:?}"),
    }
    assert_eq!(service.dlq_depth(), 0);
    assert!(service.dlq_replay(&key).is_none(), "letter was consumed");
    // Earn quarantine again, then drop the letter instead.
    let t = service.submit(req.clone()).unwrap();
    assert!(matches!(t.wait(), Err(JobError::Panicked { .. })));
    assert_eq!(service.dlq_depth(), 1);
    let dropped = service.dlq_drop(&key).expect("letter exists");
    assert_eq!(dropped.key, key);
    assert_eq!(service.dlq_depth(), 0);
    assert!(service.dlq_drop(&key).is_none());
    service.shutdown();
}

/// Load shedding: with the queue backed up past `shed_above`, the low
/// lane is shed first, normal holds until 2×, and high is never shed.
/// Shed tickets resolve immediately with a typed error.
#[test]
fn load_shedding_sheds_low_lane_first_and_never_high() {
    let slow = GenomeModel::default().generate(300_000, 21);
    let ctx = Context {
        ram_mb: 2048,
        cpu_mhz: 2393,
        bandwidth_mbps: 2.0,
        file_bytes: slow.len() as u64,
    };
    let service = CompressionService::start(
        synthetic_framework(7),
        ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            shed_above: Some(3),
            ..ServiceConfig::default()
        },
    );
    // Pin the single worker, then back the queue up to depth ≥ 3 with
    // high-priority jobs (high is exempt from shedding).
    let t_slow = service
        .submit(CompressRequest::new("slow", slow, ctx.clone()))
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let small = GenomeModel::default().generate(2_000, 22);
    let mut backlog = Vec::new();
    for i in 0..5 {
        let mut req = CompressRequest::new(format!("high_{i}"), small.clone(), ctx.clone());
        req.priority = Priority::High;
        backlog.push(service.submit(req).expect("high is never shed"));
    }
    assert!(service.queue_depth() >= 3, "backlog did not build");
    // Low lane: shed at depth ≥ 3. The ticket resolves instantly.
    let mut low = CompressRequest::new("low", small.clone(), ctx.clone());
    low.priority = Priority::Low;
    let t_low = service.submit(low).expect("shedding is not a submit error");
    match t_low.try_wait() {
        Some(Err(JobError::Shed { depth })) => assert!(depth >= 3),
        other => panic!("expected an instant Shed resolution, got {other:?}"),
    }
    // Normal lane: depth 5 < 2×3, still admitted.
    let t_norm = service
        .submit(CompressRequest::new("norm", small.clone(), ctx.clone()))
        .unwrap();
    assert!(t_norm.try_wait().is_none(), "normal below 2x threshold must queue");
    assert!(t_slow.wait().is_ok());
    for t in backlog {
        assert!(t.wait().is_ok());
    }
    assert!(t_norm.wait().is_ok());
    let snapshot = service.shutdown();
    assert_eq!(snapshot.jobs_shed, 1);
    // Shed jobs are never "accepted": conservation holds without them.
    assert_eq!(snapshot.completed, snapshot.accepted);
}

/// The supervision metrics ride the JSON snapshot (what `dnacomp serve
/// --json` prints), so operators see restarts/quarantine/shedding
/// without new plumbing.
#[test]
fn supervision_metrics_appear_in_json_snapshot() {
    let service =
        CompressionService::start(synthetic_framework(7), ServiceConfig::default());
    let snapshot = service.shutdown();
    let json = serde_json::to_string(&snapshot).unwrap();
    // The supervision fields, then the rest of the JSON contract: every
    // key of `MetricsSnapshot`.
    for field in [
        "worker_restarts",
        "jobs_panicked",
        "jobs_quarantined",
        "jobs_shed",
        "jobs_crashed",
        "dlq_depth",
        "dlq_dropped",
        "last_heartbeat_age_ms",
        "accepted",
        "rejected_full",
        "expired",
        "completed",
        "failed",
        "cache_hits",
        "cache_misses",
        "cache_hit_rate",
        "queue_depth",
        "peak_queue_depth",
        "algorithm_wins",
        "latency_p50_ms",
        "latency_p95_ms",
        "latency_mean_ms",
        "store_puts",
        "store_dedup_hits",
        "store_bytes_on_disk",
        "store_scrub_failures",
        "store_runs",
        "store_tombstones",
        "store_compactions",
        "store_cache_hits",
        "store_cache_misses",
        "store_bloom_negatives",
        "store_wal_appends",
        "store_wal_batches",
        "store_maintenance_failures",
        "blocks_compressed",
        "block_parallel_jobs",
        "pool_tasks_run_by_pool",
        "pool_tasks_run_inline",
        "pool_batches",
        "connections_open",
        "connections_accepted",
        "connections_refused",
        "connections_killed",
        "frames_rx",
        "frames_tx",
        "net_bytes_rx",
        "net_bytes_tx",
        "protocol_errors",
    ] {
        assert!(
            json.contains(&format!("\"{field}\"")),
            "snapshot lost field {field}"
        );
    }
}

/// Exhausted restart budget: the pool dies, but nobody hangs — the
/// supervisor's drain of last resort resolves every remaining ticket
/// with a typed error, and shutdown still returns.
#[test]
fn exhausted_restart_budget_still_resolves_every_ticket() {
    // Every job kills its worker; budget 1 means the pool is extinct
    // after two crashes.
    let plan = FaultPlan {
        worker_kill_rate: 1.0,
        ..FaultPlan::none()
    };
    let jobs = unique_jobs(12);
    let service = CompressionService::start(
        synthetic_framework(7),
        ServiceConfig {
            workers: 1,
            faults: plan,
            restart_budget: 1,
            quarantine_after: u32::MAX,
            queue_capacity: 64,
            ..ServiceConfig::default()
        },
    );
    let mut tickets = Vec::new();
    for job in &jobs {
        match service.submit(job.clone()) {
            Ok(t) => tickets.push(t),
            // The pool may finish dying (and close the queue) while we
            // are still submitting; that is a valid fast-fail.
            Err(SubmitError::ShuttingDown) => break,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(!tickets.is_empty());
    for t in tickets {
        match t.wait() {
            Err(JobError::WorkerGone) => {}
            other => panic!("expected WorkerGone from a dead pool, got {other:?}"),
        }
    }
    let snapshot = service.shutdown();
    assert_eq!(snapshot.worker_restarts, 1);
    assert_eq!(snapshot.jobs_crashed, snapshot.accepted);
    assert_eq!(snapshot.queue_depth, 0);
}
