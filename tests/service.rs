//! Integration suite for the concurrent compression service
//! (`crates/server`): end-to-end submission → worker pool → response,
//! concurrency stress with injected faults, determinism, backpressure,
//! deadlines, cache effectiveness and throughput scaling.

use dnacomp::cloud::{context_grid, FaultPlan};
use dnacomp::core::Context;
use dnacomp::seq::gen::GenomeModel;
use dnacomp::seq::PackedSeq;
use dnacomp::server::{
    synthetic_framework, CompressRequest, CompressionService, JobError, Priority, ServiceConfig,
    SubmitError,
};
use dnacomp_bench::{makespan_ms, run_bench, BenchConfig};
use std::time::Duration;

/// A deterministic mixed workload: `n` unique small files spread over
/// the context grid, cycling priorities.
fn stress_jobs(n: usize, exchange: bool) -> Vec<CompressRequest> {
    let contexts = context_grid();
    (0..n)
        .map(|i| {
            let len = 1_000 + (i % 13) * 250;
            let seq = GenomeModel::default().generate(len, i as u64);
            let client = &contexts[i % contexts.len()];
            let mut req = CompressRequest::new(
                format!("stress_{i:04}"),
                seq,
                Context::new(client, len as u64),
            );
            req.priority = Priority::ALL[i % 3];
            req.exchange = exchange;
            req
        })
        .collect()
}

/// Order-independent summary of one run's outcomes, for determinism
/// comparison. Excludes worker id, wall time and cache-hit flags —
/// those legitimately vary with scheduling.
fn run_summary(jobs: &[CompressRequest], config: ServiceConfig) -> Vec<String> {
    let service = CompressionService::start(synthetic_framework(7), config);
    let mut tickets = Vec::with_capacity(jobs.len());
    for job in jobs {
        loop {
            match service.submit(job.clone()) {
                Ok(t) => {
                    tickets.push(t);
                    break;
                }
                Err(SubmitError::QueueFull) => std::thread::yield_now(),
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
    }
    let mut lines: Vec<String> = tickets
        .into_iter()
        .map(|t| match t.wait() {
            Ok(r) => format!(
                "{} ok alg={} bytes={} sim_ms={} retries={} degraded={:?}",
                r.file,
                r.algorithm,
                r.compressed_bytes,
                r.sim_ms.to_bits(),
                r.retries,
                r.degraded_from
            ),
            Err(JobError::Exchange(e)) => format!("err {e}"),
            Err(other) => format!("unexpected {other}"),
        })
        .collect();
    let snapshot = service.shutdown();
    // Conservation: every accepted job resolved exactly one way.
    assert_eq!(snapshot.accepted as usize, jobs.len());
    assert_eq!(
        snapshot.completed
            + snapshot.failed
            + snapshot.expired
            + snapshot.jobs_panicked
            + snapshot.jobs_quarantined
            + snapshot.jobs_crashed,
        snapshot.accepted,
        "jobs leaked: {snapshot:?}"
    );
    assert_eq!(snapshot.queue_depth, 0);
    assert_eq!(
        snapshot.cache_hits + snapshot.cache_misses,
        snapshot.completed + snapshot.failed,
        "every executed job consults the cache exactly once"
    );
    lines.sort();
    lines
}

/// The headline stress test: ≥ 8 workers × ≥ 500 jobs, mixed
/// priorities, injected faults — no deadlock, no lost jobs, and
/// bit-identical totals across two fully independent runs.
#[test]
fn stress_8_workers_500_jobs_faults_deterministic_no_losses() {
    let jobs = stress_jobs(520, true);
    let config = || ServiceConfig {
        workers: 8,
        queue_capacity: 64, // force backpressure churn while submitting
        faults: FaultPlan::uniform(99, 0.05),
        block_bytes: Some(512),
        // Disable breaker skipping so each job's outcome is a pure
        // function of the job, independent of per-worker history.
        breaker_threshold: u32::MAX,
        ..ServiceConfig::default()
    };
    let first = run_summary(&jobs, config());
    assert_eq!(first.len(), jobs.len());
    // Faults at 5 % must not take down healthy jobs wholesale: the
    // ladder (chosen → Gzip → Raw) absorbs nearly everything.
    let failures = first.iter().filter(|l| l.starts_with("err")).count();
    assert!(
        failures * 10 < jobs.len(),
        "{failures} failures out of {} jobs",
        jobs.len()
    );
    let second = run_summary(&jobs, config());
    assert_eq!(first, second, "totals diverged across identical runs");
}

#[test]
fn shutdown_drains_everything_that_was_accepted() {
    let jobs = stress_jobs(40, false);
    let service = CompressionService::start(
        synthetic_framework(7),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| service.submit(j.clone()).expect("capacity 256 > 40"))
        .collect();
    // Shut down immediately: accepted jobs must still all resolve.
    let snapshot = service.shutdown();
    assert_eq!(snapshot.accepted, 40);
    assert_eq!(snapshot.completed + snapshot.failed, 40);
    for t in tickets {
        assert!(
            !matches!(t.wait(), Err(JobError::WorkerGone)),
            "a ticket was abandoned"
        );
    }
}

#[test]
fn backpressure_rejects_submissions_when_full() {
    // One worker pinned on a slow job + capacity-1 queue: the third
    // submission must bounce.
    let slow = GenomeModel::default().generate(300_000, 1);
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
            queue_capacity: 1,
            ..ServiceConfig::default()
        },
    );
    let t1 = service
        .submit(CompressRequest::new("slow", slow.clone(), ctx.clone()))
        .unwrap();
    // Give the worker a moment to pick up the slow job, then fill the
    // queue's single slot.
    std::thread::sleep(Duration::from_millis(30));
    let small = GenomeModel::default().generate(2_000, 2);
    let t2 = service.submit(CompressRequest::new("q1", small.clone(), ctx.clone()));
    let mut saw_rejection = false;
    for i in 0..50 {
        match service.submit(CompressRequest::new(
            format!("spill{i}"),
            small.clone(),
            ctx.clone(),
        )) {
            Err(SubmitError::QueueFull) => {
                saw_rejection = true;
                break;
            }
            Ok(_) | Err(_) => continue,
        }
    }
    assert!(saw_rejection, "queue never pushed back");
    assert!(t1.wait().is_ok());
    if let Ok(t2) = t2 {
        let _ = t2.wait();
    }
    let snapshot = service.shutdown();
    assert!(snapshot.rejected_full >= 1);
    assert_eq!(
        snapshot.completed + snapshot.failed + snapshot.expired,
        snapshot.accepted
    );
}

#[test]
fn deadline_expired_jobs_are_answered_not_dropped() {
    // Pin the single worker on a long job so queued jobs provably wait.
    let slow = GenomeModel::default().generate(300_000, 3);
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
            ..ServiceConfig::default()
        },
    );
    let t_slow = service
        .submit(CompressRequest::new("slow", slow, ctx.clone()))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let small = GenomeModel::default().generate(2_000, 4);
    let mut doomed = CompressRequest::new("doomed", small, ctx);
    doomed.deadline = Some(Duration::ZERO);
    let t_doomed = service.submit(doomed).unwrap();
    assert!(t_slow.wait().is_ok());
    match t_doomed.wait() {
        Err(JobError::Expired { waited_ms }) => assert!(waited_ms > 0.0),
        other => panic!("expected Expired, got {other:?}"),
    }
    let snapshot = service.shutdown();
    assert_eq!(snapshot.expired, 1);
    assert_eq!(snapshot.completed, 1);
}

#[test]
fn repeated_contexts_hit_the_decision_cache_over_90_percent() {
    // The bench workload replays every (file, context) pair three
    // times: after the first pass warms the cache, the rest must be
    // nearly all hits.
    let cfg = BenchConfig {
        files: 30,
        contexts: 8,
        repeats: 3,
        worker_counts: vec![4],
        ..BenchConfig::default()
    };
    let report = run_bench(&cfg).expect("stateless bench");
    let point = &report.sweep[0];
    assert_eq!(point.metrics.accepted as usize, report.jobs);
    assert!(
        point.cache_hit_rate > 0.9,
        "cache hit rate {:.3} ≤ 0.9",
        point.cache_hit_rate
    );
    assert_eq!(point.completed as usize, report.jobs);
}

#[test]
fn eight_workers_scale_simulated_throughput_at_least_4x() {
    let cfg = BenchConfig {
        files: 30,
        contexts: 8,
        repeats: 2,
        worker_counts: vec![1, 8],
        ..BenchConfig::default()
    };
    let report = run_bench(&cfg).expect("stateless bench");
    assert_eq!(report.sweep.len(), 2);
    let one = &report.sweep[0];
    let eight = &report.sweep[1];
    assert_eq!(one.workers, 1);
    assert_eq!(eight.workers, 8);
    assert!(
        eight.speedup_vs_one >= 4.0,
        "8 workers only {:.2}x over 1",
        eight.speedup_vs_one
    );
    // Simulated costs are deterministic: both sweeps priced the same
    // total work, so makespans obey the scheduling bound exactly.
    assert!(eight.sim_makespan_ms <= one.sim_makespan_ms / 4.0);
}

#[test]
fn empty_and_degenerate_requests_roundtrip() {
    let service = CompressionService::start(
        synthetic_framework(7),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let ctx = Context {
        ram_mb: 1024,
        cpu_mhz: 1600,
        bandwidth_mbps: 0.5,
        file_bytes: 0,
    };
    // Zero-length sequence through the full exchange path (PR 1's
    // zero-byte-blob invariant, now under the service).
    let mut empty = CompressRequest::new("empty", PackedSeq::new(), ctx.clone());
    empty.exchange = true;
    let t = service.submit(empty).unwrap();
    let resp = t.wait().expect("empty sequence must roundtrip");
    assert_eq!(resp.original_len, 0);
    // One-base sequence, compress-only.
    let one = GenomeModel::default().generate(1, 9);
    let t = service.submit(CompressRequest::new("one", one, ctx)).unwrap();
    assert!(t.wait().is_ok());
    service.shutdown();
}

#[test]
fn makespan_model_matches_hand_schedule() {
    // Earliest-free-lane on 2 lanes, submission order [5,3,2,4]:
    // lane0 gets 5, lane1 gets 3, the 2 joins lane1 (free at 3),
    // the 4 joins lane0 (free at 5) → lanes finish at (9, 5).
    assert!((makespan_ms(&[5.0, 3.0, 2.0, 4.0], 2) - 9.0).abs() < 1e-12);
}
