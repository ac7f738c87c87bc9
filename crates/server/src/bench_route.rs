//! Routed-cluster loopback throughput benchmark (`BENCH_route.json`).
//!
//! One row per shard count: start `shards` full shard servers (each
//! its own [`CompressionService`] + TCP front-end), put a
//! [`RouterServer`] in front, fan a fixed workload over `clients`
//! concurrent client connections **to the router**, and account for
//! every job. The interesting ratio is `speedup_3_vs_1`: aggregate
//! completed-jobs/wall-second at three shards over one shard, with the
//! client count held well above one shard's back-end connection budget
//! (`pool_per_shard`). On any host — single-core included — the
//! routed cluster wins because the budget is per shard: three shards
//! grant 3× the concurrent in-flight requests, and each request spends
//! most of its wall-clock blocked on its shard's reply, not on a CPU.

use crate::bench::{build_workload, synthetic_framework, BenchConfig};
use crate::conn::ConnConfig;
use crate::net::{NetClient, NetConfig, NetServer};
use crate::proto::Response;
use crate::ring::{Ring, ShardSpec, DEFAULT_RING_SEED, DEFAULT_VNODES};
use crate::router::{RouterConfig, RouterServer};
use crate::service::{CompressionService, ServiceConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Run one row: a `shards`-shard cluster behind a router, `clients`
/// connections replaying the workload through it.
fn run_row(cfg: &RouteBenchConfig, shards: usize) -> Result<RouteBenchRow, String> {
    let shards = shards.max(1);
    let clients = cfg.clients.max(1);

    // Start the shard fleet on loopback.
    let mut servers = Vec::with_capacity(shards);
    let mut services = Vec::with_capacity(shards);
    let mut specs = Vec::with_capacity(shards);
    for i in 0..shards {
        let framework = synthetic_framework(cfg.workload.seed);
        let service = Arc::new(CompressionService::start(
            framework,
            ServiceConfig {
                workers: cfg.workers_per_shard.max(1),
                ..ServiceConfig::default()
            },
        ));
        let net = NetConfig {
            conn: ConnConfig {
                max_connections: cfg.pool_per_shard.max(1) * 2 + 2,
                ..ConnConfig::default()
            },
            ..NetConfig::default()
        };
        let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", net)
            .map_err(|e| format!("binding shard {i}: {e}"))?;
        specs.push(ShardSpec {
            id: i as u32 + 1,
            addr: server.local_addr().to_string(),
        });
        servers.push(server);
        services.push(service);
    }

    let ring = Ring::new(specs, DEFAULT_VNODES, DEFAULT_RING_SEED)?;
    let router = RouterServer::start(
        "127.0.0.1:0",
        ring,
        RouterConfig {
            conn: ConnConfig {
                max_connections: clients * 2,
                ..ConnConfig::default()
            },
            pool_per_shard: cfg.pool_per_shard.max(1),
            replicas: cfg.replicas.max(1),
            write_quorum: cfg.write_quorum.max(1),
            ..RouterConfig::default()
        },
    )
    .map_err(|e| format!("binding router: {e}"))?;
    let addr = router.local_addr();

    let jobs = build_workload(&cfg.workload);
    let total_jobs = jobs.len() as u64;
    let slices: Vec<Vec<_>> = (0..clients)
        .map(|c| {
            jobs.iter()
                .skip(c)
                .step_by(clients)
                .cloned()
                .collect::<Vec<_>>()
        })
        .collect();

    let started = Instant::now();
    let threads: Vec<_> = slices
        .into_iter()
        .enumerate()
        .map(|(c, slice)| {
            std::thread::spawn(move || -> Result<(u64, u64, Vec<f64>), String> {
                let mut client = NetClient::connect(addr, Duration::from_secs(60))
                    .map_err(|e| format!("client {c} connect: {e}"))?;
                let mut completed = 0u64;
                let mut refused = 0u64;
                let mut op_ms = Vec::with_capacity(slice.len());
                for job in &slice {
                    let op = Instant::now();
                    match client
                        .compress(&job.file, &job.sequence, job.priority, job.context.clone())
                        .map_err(|e| format!("client {c} compress: {e}"))?
                    {
                        Response::CompressOk { .. } => {
                            completed += 1;
                            op_ms.push(op.elapsed().as_secs_f64() * 1_000.0);
                        }
                        Response::Error { .. } => refused += 1,
                        other => return Err(format!("client {c}: unexpected reply {other:?}")),
                    }
                }
                client.bye().map_err(|e| format!("client {c} bye: {e}"))?;
                Ok((completed, refused, op_ms))
            })
        })
        .collect();

    let mut completed = 0u64;
    let mut refused = 0u64;
    let mut op_ms: Vec<f64> = Vec::new();
    for t in threads {
        let (c, r, ms) = t.join().map_err(|_| "bench client panicked".to_owned())??;
        completed += c;
        refused += r;
        op_ms.extend(ms);
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
    // p95 of acknowledged writes, merged across every client thread.
    let quorum_p95_ms = if op_ms.is_empty() {
        0.0
    } else {
        op_ms.sort_by(|a, b| a.total_cmp(b));
        op_ms[((op_ms.len() - 1) * 95) / 100]
    };

    let snapshot = router.shutdown();
    for server in servers {
        server.shutdown();
    }
    for service in services {
        let service = Arc::try_unwrap(service)
            .map_err(|_| "shard service still referenced after drain".to_owned())?;
        service.shutdown();
    }

    if completed + refused != total_jobs {
        return Err(format!(
            "accounting hole at {shards} shard(s): {completed} completed + {refused} refused != {total_jobs} jobs"
        ));
    }

    let wall_secs = (wall_ms / 1_000.0).max(1e-9);
    Ok(RouteBenchRow {
        shards,
        clients,
        workers_per_shard: cfg.workers_per_shard.max(1),
        pool_per_shard: cfg.pool_per_shard.max(1),
        jobs: total_jobs,
        completed,
        refused,
        wall_ms,
        jobs_per_wall_sec: completed as f64 / wall_secs,
        route_forwards: snapshot.route_forwards,
        route_retries: snapshot.route_retries,
        shard_ejections: snapshot.shard_ejections,
        replicas: cfg.replicas.max(1),
        write_quorum: cfg.write_quorum.max(1),
        replica_writes: snapshot.replica_writes,
        quorum_failures: snapshot.quorum_failures,
        write_amplification: snapshot.replica_writes as f64 / completed.max(1) as f64,
        quorum_p95_ms,
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads: clients + 2 + shards * (cfg.workers_per_shard.max(1) + 1),
    })
}

/// Run the sweep and compute the 3-vs-1 headline speedup.
pub fn run_route_bench(cfg: &RouteBenchConfig) -> Result<RouteBenchReport, String> {
    let mut rows = Vec::with_capacity(cfg.shard_counts.len());
    for &shards in &cfg.shard_counts {
        rows.push(run_row(cfg, shards)?);
    }
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
        assert!((row.write_amplification - 2.0).abs() < 1e-9);
        assert!(row.quorum_p95_ms > 0.0);
        // No 1-shard and 3-shard rows → no headline ratio.
        assert_eq!(report.speedup_3_vs_1, 0.0);
    }
}
