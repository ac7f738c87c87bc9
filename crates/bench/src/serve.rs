//! Service benchmarking: corpus replay and throughput accounting.
//!
//! `dnacomp bench-serve` replays the synthetic corpus through a
//! [`CompressionService`] at several worker counts and reports
//! throughput two ways:
//!
//! * **wall-clock** — honest but hardware-bound: on a single-core
//!   container N workers cannot beat one on CPU-bound work, so this
//!   number mostly validates that the pool adds no overhead;
//! * **simulated** — every job carries a deterministic simulated cost
//!   (the same `PerfModel` milliseconds the whole reproduction is
//!   priced in). [`makespan_ms`] schedules those costs onto N worker
//!   lanes with the earliest-free-lane rule, in submission order —
//!   exactly what a pool whose workers were the bottleneck would do —
//!   yielding a *reproducible* throughput curve independent of host
//!   load or core count. This is the number the ≥ 4× scaling
//!   acceptance gate reads, and `BENCH_serve.json` archives.
//!
//! The replay itself runs through the real concurrent service (real
//! threads, real queue, real cache), so the simulated curve is backed
//! by an actual concurrent execution, not a model of one.
//!
//! ## Two latency families, on purpose
//!
//! The `metrics` snapshot of a sweep point reports **simulated**
//! latency percentiles. Each job's `sim_ms` is a pure function of the
//! job — deliberately independent of the pool size — so those
//! percentiles (and the peak queue depth, pinned at the queue capacity
//! by the saturating submitter) are *identical across sweep rows*.
//! That is a feature of the deterministic pricing model, not a
//! measurement: do not read them as a scaling curve. The per-row
//! numbers that genuinely reflect the run are the **wall-clock**
//! per-job latencies (`wall_latency_*_ms`): submission→completion
//! times of real jobs on real threads, aggregated as *exact* sample
//! percentiles, not histogram-bucket upper bounds. Each row also
//! reports `cpu_ms_per_job`: the process's user+system CPU over the
//! replay divided by the completed jobs.
//!
//! With [`BenchConfig::store`] set, every replayed service persists
//! each result into a fresh store of its own, so a row prices the
//! whole write path; with [`BenchConfig::block_size`] as well, the
//! framed containers the block-parallel path builds are what the store
//! keeps.

use dnacomp_cloud::context_grid;
use dnacomp_core::FrameworkHandle;
use dnacomp_seq::corpus::CorpusBuilder;
use dnacomp_seq::PackedSeq;
use dnacomp_server::{
    synthetic_framework, CompressRequest, CompressionService, JobTicket, MetricsSnapshot, Priority,
    ServiceConfig, SubmitError,
};
use dnacomp_store::{SequenceStore, StoreConfig};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Deterministic makespan of `costs` (ms, submission order) on
/// `workers` lanes: each job goes to the earliest-free lane — the
/// schedule a saturated pool converges to. `workers = 1` degenerates
/// to the plain sum.
pub fn makespan_ms(costs: &[f64], workers: usize) -> f64 {
    assert!(workers > 0, "need at least one lane");
    let mut free_at = vec![0.0f64; workers];
    for &c in costs {
        let lane = free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
            .map(|(i, _)| i)
            .expect("workers > 0");
        free_at[lane] += c.max(0.0);
    }
    free_at.into_iter().fold(0.0, f64::max)
}

/// Benchmark shape.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// NCBI-style synthetic corpus files to generate.
    pub files: usize,
    /// Leading contexts of the measurement grid to replay.
    pub contexts: usize,
    /// Full corpus × context passes (pass ≥ 2 exercises the cache).
    pub repeats: usize,
    /// Worker counts to sweep.
    pub worker_counts: Vec<usize>,
    /// Corpus seed.
    pub seed: u64,
    /// Largest generated file, bases.
    pub max_len: usize,
    /// Run full exchanges instead of compress-only jobs.
    pub exchange: bool,
    /// Block-parallel threshold for the replayed service
    /// ([`ServiceConfig::block_size`]); `None` frames only jobs too long
    /// for one flat blob.
    pub block_size: Option<usize>,
    /// Persist-on-complete: each replay opens a fresh store at
    /// `<dir>/workers-<n>` and attaches it to its service
    /// ([`ServiceConfig::store`]). The directory must be empty or
    /// absent. `None` keeps the service stateless.
    pub store: Option<PathBuf>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            files: 40,
            contexts: 16,
            repeats: 2,
            worker_counts: vec![1, 4, 8],
            seed: 42,
            max_len: 64 * 1024,
            exchange: false,
            block_size: None,
            store: None,
        }
    }
}

/// One worker-count sweep point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Wall-clock for the whole replay, ms.
    pub wall_ms: f64,
    /// Deterministic simulated makespan, ms (see [`makespan_ms`]).
    pub sim_makespan_ms: f64,
    /// `completed / (sim_makespan_ms / 1000)`.
    pub jobs_per_sim_sec: f64,
    /// `completed / (wall_ms / 1000)`.
    pub jobs_per_wall_sec: f64,
    /// Decision-cache hit rate over the replay.
    pub cache_hit_rate: f64,
    /// Simulated-throughput speedup vs the 1-worker point.
    pub speedup_vs_one: f64,
    /// Exact median of per-job submission→completion wall latency, ms.
    /// Unlike the snapshot's simulated percentiles this genuinely
    /// varies with the worker count.
    pub wall_latency_p50_ms: f64,
    /// Exact 95th percentile of per-job wall latency, ms.
    pub wall_latency_p95_ms: f64,
    /// Mean per-job wall latency, ms.
    pub wall_latency_mean_ms: f64,
    /// Process user+system CPU over the replay per completed job, ms
    /// (every thread: workers, block pool, store, and the submitter,
    /// whose `yield_now` spin while the queue is full weighs most with
    /// one worker).
    pub cpu_ms_per_job: f64,
    /// Final metrics snapshot of this run. Its `latency_*` fields are
    /// **simulated** (pure per-job costs, identical across sweep rows
    /// by construction — see the module docs).
    pub metrics: MetricsSnapshot,
}

/// Full benchmark output (`BENCH_serve.json`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Corpus files replayed.
    pub corpus_files: usize,
    /// Contexts replayed.
    pub contexts: usize,
    /// Corpus × context passes.
    pub repeats: usize,
    /// Jobs submitted per sweep point.
    pub jobs: usize,
    /// Whether jobs ran full exchanges or compress-only.
    pub exchange: bool,
    /// Block-parallel threshold the replayed service used, if any.
    pub block_size: Option<usize>,
    /// Whether each replayed service persisted into a store.
    pub store: bool,
    /// One entry per worker count.
    pub sweep: Vec<SweepPoint>,
}

impl BenchReport {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialisation cannot fail")
    }
}

/// One named [`BenchReport`]; `BENCH_serve.json` is a JSON array of
/// these (`bench-serve --section <name> --out <path>`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchSection {
    /// Section name.
    pub name: String,
    /// The sweep.
    pub report: BenchReport,
}

/// Set section `name` of a sectioned artifact to `report`. `existing`
/// is the artifact's current JSON, if it exists; the other sections
/// keep their order. Returns the new artifact's JSON.
pub fn with_section(
    existing: Option<&str>,
    name: &str,
    report: BenchReport,
) -> Result<String, String> {
    let mut sections: Vec<BenchSection> = match existing {
        Some(text) => serde_json::from_str(text).map_err(|e| e.to_string())?,
        None => Vec::new(),
    };
    match sections.iter_mut().find(|s| s.name == name) {
        Some(section) => section.report = report,
        None => sections.push(BenchSection {
            name: name.to_owned(),
            report,
        }),
    }
    Ok(serde_json::to_string(&sections).expect("report serialisation cannot fail"))
}

/// Pre-generated workload: every (file, context) pair, `repeats` times.
pub fn build_workload(cfg: &BenchConfig) -> Vec<CompressRequest> {
    let specs = CorpusBuilder::paper(cfg.seed)
        .ncbi_files(cfg.files)
        .include_standard(false)
        .size_range(1_000, cfg.max_len)
        .build();
    let sequences: Vec<(String, PackedSeq)> = specs
        .iter()
        .map(|s| (s.name.clone(), s.generate()))
        .collect();
    let contexts: Vec<_> = context_grid().into_iter().take(cfg.contexts).collect();
    let mut jobs = Vec::with_capacity(sequences.len() * contexts.len() * cfg.repeats);
    for rep in 0..cfg.repeats {
        for (ci, client) in contexts.iter().enumerate() {
            for (name, seq) in &sequences {
                let mut req = CompressRequest::new(
                    format!("{name}.c{ci}"),
                    seq.clone(),
                    dnacomp_core::Context::new(client, seq.len() as u64),
                );
                req.exchange = cfg.exchange;
                // Mix lanes deterministically so replays exercise the
                // priority queue, not just one lane.
                req.priority = Priority::ALL[(ci + rep) % 3];
                jobs.push(req);
            }
        }
    }
    jobs
}

fn drain(tickets: Vec<JobTicket>) -> (u64, Vec<f64>, Vec<f64>) {
    let mut completed = 0;
    let mut costs = Vec::with_capacity(tickets.len());
    let mut wall_lats = Vec::with_capacity(tickets.len());
    for t in tickets {
        if let Ok(resp) = t.wait() {
            completed += 1;
            costs.push(resp.sim_ms);
            wall_lats.push(resp.wall_latency_ms);
        }
    }
    (completed, costs, wall_lats)
}

/// Exact sample quantile (nearest-rank) of unsorted samples.
fn exact_quantile_ms(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize).max(1);
    samples[rank - 1]
}

/// Process user+system CPU time so far, ms, from `/proc/self/stat`
/// (clock ticks at the Linux `USER_HZ` of 100). 0 where that file does
/// not exist.
fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after the
    // command name.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 * 10.0
}

/// Replay `jobs` through a fresh service with `workers` threads, a
/// block-parallel threshold and, optionally, a store every result is
/// persisted into.
///
/// Submission applies backpressure by blocking the producer loop when
/// the queue rejects (retry after draining one ticket would deadlock a
/// single submitter, so it spins on `std::thread::yield_now`);
/// rejected-then-retried submissions are *not* double-counted.
fn replay(
    framework: FrameworkHandle,
    jobs: &[CompressRequest],
    workers: usize,
    block_size: Option<usize>,
    store: Option<Arc<SequenceStore>>,
) -> SweepPoint {
    let service = CompressionService::start(
        framework,
        ServiceConfig {
            workers,
            queue_capacity: 256,
            block_size,
            store,
            ..ServiceConfig::default()
        },
    );
    let t0 = Instant::now();
    let cpu0 = process_cpu_ms();
    let mut tickets = Vec::with_capacity(jobs.len());
    for job in jobs {
        loop {
            match service.submit(job.clone()) {
                Ok(ticket) => {
                    tickets.push(ticket);
                    break;
                }
                Err(SubmitError::QueueFull) => std::thread::yield_now(),
                Err(SubmitError::ShuttingDown) => {
                    unreachable!("service not shut down during replay")
                }
            }
        }
    }
    let (completed, costs, mut wall_lats) = drain(tickets);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = process_cpu_ms() - cpu0;
    let metrics = service.shutdown();
    let sim_makespan_ms = makespan_ms(&costs, workers);
    let wall_latency_mean_ms = if wall_lats.is_empty() {
        0.0
    } else {
        wall_lats.iter().sum::<f64>() / wall_lats.len() as f64
    };
    SweepPoint {
        workers,
        completed,
        wall_ms,
        sim_makespan_ms,
        jobs_per_sim_sec: if sim_makespan_ms > 0.0 {
            completed as f64 / (sim_makespan_ms / 1_000.0)
        } else {
            0.0
        },
        jobs_per_wall_sec: if wall_ms > 0.0 {
            completed as f64 / (wall_ms / 1_000.0)
        } else {
            0.0
        },
        cache_hit_rate: metrics.cache_hit_rate,
        speedup_vs_one: 1.0, // patched by the sweep driver
        wall_latency_p50_ms: exact_quantile_ms(&mut wall_lats, 0.50),
        wall_latency_p95_ms: exact_quantile_ms(&mut wall_lats, 0.95),
        wall_latency_mean_ms,
        cpu_ms_per_job: if completed > 0 {
            cpu_ms / completed as f64
        } else {
            0.0
        },
        metrics,
    }
}

/// Run the full sweep: one replay per worker count. Fails only when a
/// store is requested and its directory is not empty or cannot be
/// opened.
pub fn run_bench(cfg: &BenchConfig) -> Result<BenchReport, String> {
    if let Some(dir) = &cfg.store {
        if std::fs::read_dir(dir).is_ok_and(|mut entries| entries.next().is_some()) {
            return Err(format!("store directory {} is not empty", dir.display()));
        }
    }
    let jobs = build_workload(cfg);
    let framework = synthetic_framework(cfg.seed);
    let mut sweep = Vec::new();
    let mut one_worker_throughput = None;
    for &workers in &cfg.worker_counts {
        let store = match &cfg.store {
            Some(dir) => {
                let dir = dir.join(format!("workers-{workers}"));
                let store = SequenceStore::open(&dir, StoreConfig::default())
                    .map_err(|e| format!("opening store {}: {e}", dir.display()))?;
                Some(Arc::new(store))
            }
            None => None,
        };
        let mut point = replay(framework.clone(), &jobs, workers, cfg.block_size, store);
        if workers == 1 {
            one_worker_throughput = Some(point.jobs_per_sim_sec);
        }
        if let Some(base) = one_worker_throughput {
            if base > 0.0 {
                point.speedup_vs_one = point.jobs_per_sim_sec / base;
            }
        }
        sweep.push(point);
    }
    Ok(BenchReport {
        corpus_files: cfg.files,
        contexts: cfg.contexts,
        repeats: cfg.repeats,
        jobs: jobs.len(),
        exchange: cfg.exchange,
        block_size: cfg.block_size,
        store: cfg.store.is_some(),
        sweep,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_degenerates_to_sum_for_one_lane() {
        let costs = [3.0, 1.0, 4.0, 1.0, 5.0];
        assert!((makespan_ms(&costs, 1) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_scales_and_respects_bounds() {
        let costs: Vec<f64> = (0..100).map(|i| 1.0 + (i % 7) as f64).collect();
        let total: f64 = costs.iter().sum();
        let max = costs.iter().cloned().fold(0.0, f64::max);
        for workers in [2, 4, 8] {
            let m = makespan_ms(&costs, workers);
            // Classic bounds: perfect split ≤ m ≤ list-scheduling bound.
            assert!(m >= total / workers as f64 - 1e-9);
            assert!(m <= total / workers as f64 + max + 1e-9);
        }
        // More lanes never hurt.
        assert!(makespan_ms(&costs, 8) <= makespan_ms(&costs, 4) + 1e-9);
    }

    #[test]
    fn store_rows_persist_every_completed_job_framed() {
        let dir = std::env::temp_dir().join(format!("dnacomp-bench-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = BenchConfig {
            files: 4,
            contexts: 2,
            repeats: 1,
            worker_counts: vec![2],
            max_len: 6_000,
            block_size: Some(1_024),
            store: Some(dir.clone()),
            ..BenchConfig::default()
        };
        let report = run_bench(&cfg).unwrap();
        assert!(report.store);
        let row = &report.sweep[0];
        assert_eq!(row.completed as usize, report.jobs);
        assert_eq!(row.metrics.store_puts, row.completed);
        assert!(row.metrics.block_parallel_jobs > 0);
        assert!(row.cpu_ms_per_job >= 0.0);
        // A second sweep into the same, now non-empty, directory is refused.
        assert!(run_bench(&cfg).unwrap_err().contains("not empty"));
        std::fs::remove_dir_all(&dir).unwrap();

        // Sections: set, add, replace in place.
        let one = with_section(None, "store_framed", report.clone()).unwrap();
        let two = with_section(Some(&one), "flat", report.clone()).unwrap();
        let flat = BenchReport {
            store: false,
            ..report
        };
        let three = with_section(Some(&two), "store_framed", flat.clone()).unwrap();
        let sections: Vec<BenchSection> = serde_json::from_str(&three).unwrap();
        let names: Vec<&str> = sections.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["store_framed", "flat"]);
        assert_eq!(sections[0].report, flat);
        assert!(with_section(Some("{}"), "x", flat).is_err());
    }

    #[test]
    fn workload_shape_matches_config() {
        let cfg = BenchConfig {
            files: 5,
            contexts: 3,
            repeats: 2,
            ..BenchConfig::default()
        };
        let jobs = build_workload(&cfg);
        assert_eq!(jobs.len(), 5 * 3 * 2);
        // Repeats reuse identical (file, context) pairs — the cache's
        // bread and butter.
        assert_eq!(jobs[0].file, jobs[15].file);
        assert_eq!(jobs[0].context, jobs[15].context);
    }
}
