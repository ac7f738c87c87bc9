//! Loopback throughput benchmarks: every job crosses real TCP.
//!
//! `dnacomp bench-serve --listen` runs the same synthetic workload as
//! the in-process sweep through one loopback shard (`BENCH_net.json`);
//! `dnacomp bench-serve --route` runs it through a [`RouterServer`] in
//! front of each swept count of shards (`BENCH_route.json`). Both start
//! the same loopback `Shard` and fan the workload over client
//! connections with the same `replay`, which accounts for every job:
//! completed + refused must equal the jobs sent.
//!
//! Each routed shard stores what it takes in a store of its own (the
//! default config, fsync on commit), so a replicated row moves the
//! containers the router ships, and `shard_jobs` counts the jobs the
//! shards compressed; the `--listen` shard keeps no store, like the
//! in-process sweep it is compared with.
//!
//! The routed sweep's interesting ratio is `speedup_3_vs_1`: aggregate
//! completed-jobs/wall-second at three shards over one shard, with the
//! client count held well above one shard's back-end connection budget
//! (`pool_per_shard`). On any host — single-core included — the
//! routed cluster wins because the budget is per shard: three shards
//! grant 3× the concurrent in-flight requests, and each request spends
//! most of its wall-clock blocked on its shard's reply, not on a CPU.

use crate::serve::{build_workload, BenchConfig};
use dnacomp_server::{
    synthetic_framework, CompressRequest, CompressionService, ConnConfig, MetricsSnapshot,
    NetClient, NetConfig, NetServer, Response, Ring, RouterConfig, RouterServer, ServiceConfig,
    ShardSpec, DEFAULT_RING_SEED, DEFAULT_VNODES,
};
use dnacomp_store::{SequenceStore, StoreConfig};
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs for the loopback network benchmark.
#[derive(Clone, Debug)]
pub struct NetBenchConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Worker threads in the backing service.
    pub workers: usize,
    /// Address to bind the benchmark server on (port 0 ⇒ ephemeral).
    pub listen: String,
    /// Workload shape (files × contexts × repeats), shared with the
    /// in-process bench so the rows are comparable.
    pub workload: BenchConfig,
}

impl Default for NetBenchConfig {
    fn default() -> Self {
        NetBenchConfig {
            clients: 4,
            workers: 4,
            listen: "127.0.0.1:0".to_owned(),
            workload: BenchConfig::default(),
        }
    }
}

/// One `BENCH_net.json` row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NetBenchReport {
    /// Logical CPUs on the machine that produced the row — throughput
    /// numbers are meaningless without it.
    pub host_cpus: usize,
    /// Threads the run used: client threads + workers + accept loop.
    pub threads: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Service worker threads.
    pub workers: usize,
    /// Jobs sent over the wire.
    pub jobs: u64,
    /// Jobs answered `CompressOk`.
    pub completed: u64,
    /// Jobs answered with a typed error frame (shed, busy, …).
    pub refused: u64,
    /// Wall-clock time for the whole run, ms.
    pub wall_ms: f64,
    /// Completed jobs per wall-clock second, end-to-end over TCP.
    pub jobs_per_wall_sec: f64,
    /// Payload megabytes (input bases at 2 bit/base) per wall second.
    pub wire_mb_per_sec: f64,
    /// Frames the server received.
    pub frames_rx: u64,
    /// Frames the server sent.
    pub frames_tx: u64,
    /// Wire bytes the server received.
    pub net_bytes_rx: u64,
    /// Wire bytes the server sent.
    pub net_bytes_tx: u64,
    /// Connections the server accepted.
    pub connections_accepted: u64,
    /// Protocol violations the server observed (must be 0 here).
    pub protocol_errors: u64,
}

impl NetBenchReport {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialisation cannot fail")
    }
}

/// Routed-bench knobs.
#[derive(Clone, Debug)]
pub struct RouteBenchConfig {
    /// Shard counts to sweep (the artifact uses `[1, 3]`).
    pub shard_counts: Vec<usize>,
    /// Concurrent client connections to the router. Keep this above
    /// `pool_per_shard × max(shard_counts)` so the per-shard budget,
    /// not the client count, is the binding constraint.
    pub clients: usize,
    /// Service worker threads per shard.
    pub workers_per_shard: usize,
    /// Router back-end connections per shard.
    pub pool_per_shard: usize,
    /// Replication factor for the router (default 1: the throughput
    /// sweep measures partitioning; pass 3 to measure replication
    /// write amplification and quorum latency instead).
    pub replicas: usize,
    /// Write quorum (clamped to `1..=replicas` per key).
    pub write_quorum: usize,
    /// The workload replayed over the wire.
    pub workload: BenchConfig,
}

impl Default for RouteBenchConfig {
    fn default() -> Self {
        RouteBenchConfig {
            shard_counts: vec![1, 3],
            clients: 9,
            workers_per_shard: 2,
            pool_per_shard: 1,
            replicas: 1,
            write_quorum: 1,
            workload: BenchConfig {
                files: 24,
                contexts: 4,
                repeats: 2,
                // Small sequences keep per-job CPU well under the
                // shard's ~1 ms reply-poll quantum, so throughput is
                // bound by in-flight budget (pool x shards), not CPU —
                // the regime the router actually scales.
                max_len: 1024,
                ..BenchConfig::default()
            },
        }
    }
}

/// One `BENCH_route.json` row: the cluster at one shard count.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RouteBenchRow {
    /// Shards behind the router.
    pub shards: usize,
    /// Concurrent client connections to the router.
    pub clients: usize,
    /// Service worker threads per shard.
    pub workers_per_shard: usize,
    /// Router back-end connections per shard.
    pub pool_per_shard: usize,
    /// Jobs sent through the router.
    pub jobs: u64,
    /// Jobs answered `CompressOk`.
    pub completed: u64,
    /// Jobs answered with a typed error frame.
    pub refused: u64,
    /// Wall-clock time for the row, ms.
    pub wall_ms: f64,
    /// Completed jobs per wall-clock second, end-to-end through the
    /// router.
    pub jobs_per_wall_sec: f64,
    /// Requests the router forwarded to a shard.
    pub route_forwards: u64,
    /// Forward attempts retried against a successor shard.
    pub route_retries: u64,
    /// Shards the prober ejected during the row (0 on a clean run).
    pub shard_ejections: u64,
    /// Replication factor the row ran at.
    #[serde(default = "one")]
    pub replicas: usize,
    /// Write quorum the row ran at.
    #[serde(default = "one")]
    pub write_quorum: usize,
    /// Replica commits across every quorum write.
    #[serde(default)]
    pub replica_writes: u64,
    /// Writes that fell short of the quorum (0 on a healthy cluster).
    #[serde(default)]
    pub quorum_failures: u64,
    /// Jobs the shards' services completed, summed over every shard:
    /// equal to `completed` when each write is compressed once.
    #[serde(default)]
    pub shard_jobs: u64,
    /// `replica_writes / completed`: the replication write
    /// amplification factor (≈ R on a healthy cluster).
    #[serde(default)]
    pub write_amplification: f64,
    /// p95 client-observed latency of one quorum write, ms.
    #[serde(default)]
    pub quorum_p95_ms: f64,
    /// Logical CPUs on the machine that produced the row.
    pub host_cpus: usize,
    /// Threads the row used: clients + router accept/prober + per-shard
    /// workers and accept loops.
    pub threads: usize,
}

/// Serde default for rows written before replication existed (R=W=1).
#[allow(dead_code)] // referenced only through `#[serde(default = "one")]`
fn one() -> usize {
    1
}

/// The whole sweep plus its headline ratio.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RouteBenchReport {
    /// One row per swept shard count.
    pub rows: Vec<RouteBenchRow>,
    /// `jobs_per_wall_sec` at three shards over one shard; `0.0` when
    /// the sweep lacks either point.
    pub speedup_3_vs_1: f64,
}

impl RouteBenchReport {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialisation cannot fail")
    }
}

/// One loopback shard: a service behind its own TCP front-end,
/// persisting into its own store when it has one.
struct Shard {
    server: NetServer,
    service: Arc<CompressionService>,
    /// Dropped after the service, so the store is closed first.
    _store_dir: Option<StoreDir>,
}

/// A shard store's directory, removed when dropped.
struct StoreDir(PathBuf);

impl StoreDir {
    /// A fresh directory name under the system temp dir, unique within
    /// this process.
    fn fresh() -> StoreDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dnacomp-wire-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StoreDir(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Shard {
    /// Start a `workers`-thread service on the synthetic rule tree of
    /// `seed` and serve it at `listen`, capped at `max_connections`.
    /// A `stored` shard persists every job and every migrated
    /// container into a store of its own, in a temp directory removed
    /// when the shard stops.
    fn start(
        listen: &str,
        seed: u64,
        workers: usize,
        max_connections: usize,
        stored: bool,
    ) -> Result<Shard, String> {
        let store_dir = stored.then(StoreDir::fresh);
        let store = match &store_dir {
            Some(StoreDir(dir)) => Some(Arc::new(
                SequenceStore::open(dir, StoreConfig::default())
                    .map_err(|e| format!("opening store {}: {e}", dir.display()))?,
            )),
            None => None,
        };
        let service = Arc::new(CompressionService::start(
            synthetic_framework(seed),
            ServiceConfig {
                workers,
                store: store.clone(),
                ..ServiceConfig::default()
            },
        ));
        let net = NetConfig {
            conn: ConnConfig {
                max_connections,
                ..ConnConfig::default()
            },
            store,
            ..NetConfig::default()
        };
        let server = NetServer::start(Arc::clone(&service), listen, net)
            .map_err(|e| format!("binding {listen}: {e}"))?;
        Ok(Shard {
            server,
            service,
            _store_dir: store_dir,
        })
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stop serving, drain the service and return its final metrics.
    fn stop(self) -> Result<MetricsSnapshot, String> {
        self.server.shutdown();
        let service = Arc::try_unwrap(self.service)
            .map_err(|_| "shard service still referenced after drain".to_owned())?;
        Ok(service.shutdown())
    }
}

/// What one [`replay`] measured.
struct Replayed {
    completed: u64,
    refused: u64,
    wall_ms: f64,
    /// Client-observed latency of every completed job, ms.
    ok_ms: Vec<f64>,
}

/// Send `jobs` to `addr` over `clients` concurrent connections, client
/// `c` taking every `clients`-th job from `c`, and account for every
/// job: each is answered `CompressOk` (completed) or with a typed error
/// frame (refused), or the replay fails.
fn replay(addr: SocketAddr, jobs: &[CompressRequest], clients: usize) -> Result<Replayed, String> {
    let shares: Vec<Vec<CompressRequest>> = (0..clients)
        .map(|c| jobs.iter().skip(c).step_by(clients).cloned().collect())
        .collect();
    let started = Instant::now();
    let threads: Vec<_> = shares
        .into_iter()
        .enumerate()
        .map(|(c, share)| {
            std::thread::spawn(move || -> Result<(u64, Vec<f64>), String> {
                let mut client = NetClient::connect(addr, Duration::from_secs(60))
                    .map_err(|e| format!("client {c} connect: {e}"))?;
                let mut refused = 0u64;
                let mut ok_ms = Vec::with_capacity(share.len());
                for job in &share {
                    let op = Instant::now();
                    match client
                        .compress(&job.file, &job.sequence, job.priority, job.context.clone())
                        .map_err(|e| format!("client {c} compress: {e}"))?
                    {
                        Response::CompressOk { .. } => {
                            ok_ms.push(op.elapsed().as_secs_f64() * 1_000.0)
                        }
                        Response::Error { .. } => refused += 1,
                        other => return Err(format!("client {c}: unexpected reply {other:?}")),
                    }
                }
                client.bye().map_err(|e| format!("client {c} bye: {e}"))?;
                Ok((refused, ok_ms))
            })
        })
        .collect();
    let mut refused = 0u64;
    let mut ok_ms = Vec::new();
    for t in threads {
        let (r, ms) = t.join().map_err(|_| "bench client panicked".to_owned())??;
        refused += r;
        ok_ms.extend(ms);
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
    let completed = ok_ms.len() as u64;
    if completed + refused != jobs.len() as u64 {
        return Err(format!(
            "accounting hole: {completed} completed + {refused} refused != {} jobs",
            jobs.len()
        ));
    }
    Ok(Replayed {
        completed,
        refused,
        wall_ms,
        ok_ms,
    })
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run the loopback benchmark: start one shard, fan the workload out
/// over `clients` real TCP connections, and account for every job.
pub fn run_net_bench(cfg: &NetBenchConfig) -> Result<NetBenchReport, String> {
    let clients = cfg.clients.max(1);
    let workers = cfg.workers.max(1);
    let shard = Shard::start(&cfg.listen, cfg.workload.seed, workers, clients * 2, false)?;
    let jobs = build_workload(&cfg.workload);
    let run = replay(shard.addr(), &jobs, clients)?;
    let snapshot = shard.stop()?;

    let total_bases: u64 = jobs.iter().map(|j| j.sequence.len() as u64).sum();
    let wall_secs = (run.wall_ms / 1_000.0).max(1e-9);
    Ok(NetBenchReport {
        host_cpus: host_cpus(),
        threads: clients + workers + 1,
        clients,
        workers,
        jobs: jobs.len() as u64,
        completed: run.completed,
        refused: run.refused,
        wall_ms: run.wall_ms,
        jobs_per_wall_sec: run.completed as f64 / wall_secs,
        wire_mb_per_sec: (total_bases as f64 / 4.0) / 1.0e6 / wall_secs,
        frames_rx: snapshot.frames_rx,
        frames_tx: snapshot.frames_tx,
        net_bytes_rx: snapshot.net_bytes_rx,
        net_bytes_tx: snapshot.net_bytes_tx,
        connections_accepted: snapshot.connections_accepted,
        protocol_errors: snapshot.protocol_errors,
    })
}

/// Run one row: a `shards`-shard cluster behind a router, `clients`
/// connections replaying the workload through it.
fn run_row(cfg: &RouteBenchConfig, shards: usize) -> Result<RouteBenchRow, String> {
    let shards = shards.max(1);
    let clients = cfg.clients.max(1);
    let workers = cfg.workers_per_shard.max(1);
    let pool = cfg.pool_per_shard.max(1);
    let fleet = (0..shards)
        .map(|_| {
            Shard::start(
                "127.0.0.1:0",
                cfg.workload.seed,
                workers,
                pool * 2 + 2,
                true,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let specs = fleet
        .iter()
        .zip(1..)
        .map(|(shard, id)| ShardSpec {
            id,
            addr: shard.addr().to_string(),
        })
        .collect();
    let ring = Ring::new(specs, DEFAULT_VNODES, DEFAULT_RING_SEED)?;
    let router = RouterServer::start(
        "127.0.0.1:0",
        ring,
        RouterConfig {
            conn: ConnConfig {
                max_connections: clients * 2,
                ..ConnConfig::default()
            },
            pool_per_shard: pool,
            replicas: cfg.replicas.max(1),
            write_quorum: cfg.write_quorum.max(1),
            ..RouterConfig::default()
        },
    )
    .map_err(|e| format!("binding router: {e}"))?;

    let jobs = build_workload(&cfg.workload);
    let mut run = replay(router.local_addr(), &jobs, clients)
        .map_err(|e| format!("{shards} shard(s): {e}"))?;
    // p95 of acknowledged writes, merged across every client thread.
    run.ok_ms.sort_by(f64::total_cmp);
    let quorum_p95_ms = match run.ok_ms.len() {
        0 => 0.0,
        n => run.ok_ms[((n - 1) * 95) / 100],
    };
    let snapshot = router.shutdown();
    let mut shard_jobs = 0;
    for shard in fleet {
        shard_jobs += shard.stop()?.completed;
    }

    let wall_secs = (run.wall_ms / 1_000.0).max(1e-9);
    Ok(RouteBenchRow {
        shards,
        clients,
        workers_per_shard: workers,
        pool_per_shard: pool,
        jobs: jobs.len() as u64,
        completed: run.completed,
        refused: run.refused,
        wall_ms: run.wall_ms,
        jobs_per_wall_sec: run.completed as f64 / wall_secs,
        route_forwards: snapshot.route_forwards,
        route_retries: snapshot.route_retries,
        shard_ejections: snapshot.shard_ejections,
        replicas: cfg.replicas.max(1),
        write_quorum: cfg.write_quorum.max(1),
        replica_writes: snapshot.replica_writes,
        quorum_failures: snapshot.quorum_failures,
        shard_jobs,
        write_amplification: snapshot.replica_writes as f64 / run.completed.max(1) as f64,
        quorum_p95_ms,
        host_cpus: host_cpus(),
        threads: clients + 2 + shards * (workers + 1),
    })
}

/// Run the sweep and compute the 3-vs-1 headline speedup.
pub fn run_route_bench(cfg: &RouteBenchConfig) -> Result<RouteBenchReport, String> {
    let rows = cfg
        .shard_counts
        .iter()
        .map(|&shards| run_row(cfg, shards))
        .collect::<Result<Vec<_>, _>>()?;
    let rate_at = |n: usize| {
        rows.iter()
            .find(|r| r.shards == n)
            .map(|r| r.jobs_per_wall_sec)
    };
    let speedup_3_vs_1 = match (rate_at(1), rate_at(3)) {
        (Some(one), Some(three)) if one > 0.0 => three / one,
        _ => 0.0,
    };
    Ok(RouteBenchReport {
        rows,
        speedup_3_vs_1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_bench_accounts_for_every_job() {
        let cfg = NetBenchConfig {
            clients: 2,
            workers: 2,
            workload: BenchConfig {
                files: 3,
                contexts: 2,
                repeats: 1,
                max_len: 4_000,
                ..BenchConfig::default()
            },
            ..NetBenchConfig::default()
        };
        let report = run_net_bench(&cfg).unwrap();
        assert_eq!(report.jobs, 6);
        assert_eq!(report.completed + report.refused, report.jobs);
        assert_eq!(report.protocol_errors, 0);
        assert_eq!(report.connections_accepted, 2);
        // Every request frame got exactly one reply frame.
        assert_eq!(report.frames_rx, report.frames_tx);
        let json = report.to_json();
        let back: NetBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.jobs, report.jobs);
    }

    #[test]
    fn routed_bench_accounts_for_every_job() {
        let cfg = RouteBenchConfig {
            shard_counts: vec![2],
            clients: 3,
            workers_per_shard: 1,
            pool_per_shard: 1,
            replicas: 2,
            write_quorum: 2,
            workload: BenchConfig {
                files: 4,
                contexts: 1,
                repeats: 1,
                max_len: 2 * 1024,
                ..BenchConfig::default()
            },
        };
        let report = run_route_bench(&cfg).unwrap();
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.shards, 2);
        assert_eq!(row.completed + row.refused, row.jobs);
        assert!(row.jobs > 0);
        assert!(row.route_forwards >= row.jobs);
        assert_eq!(row.shard_ejections, 0);
        assert!(row.host_cpus >= 1);
        // Replicated row: every completed write committed on both
        // shards (W = R = 2), so amplification is exactly 2 and every
        // quorum was met.
        assert_eq!(row.replicas, 2);
        assert_eq!(row.write_quorum, 2);
        assert_eq!(row.quorum_failures, 0);
        assert_eq!(row.replica_writes, 2 * row.completed);
        // Each write was compressed once, on its holder; the other
        // replica took the holder's container.
        assert_eq!(row.shard_jobs, row.completed);
        assert!((row.write_amplification - 2.0).abs() < 1e-9);
        assert!(row.quorum_p95_ms > 0.0);
        // No 1-shard and 3-shard rows → no headline ratio.
        assert_eq!(report.speedup_3_vs_1, 0.0);
    }
}
