//! Loopback throughput benchmark for the TCP front-end.
//!
//! `dnacomp bench-serve --listen` runs the same synthetic workload as
//! the in-process sweep, but every job crosses the wire: N client
//! threads connect to a loopback [`NetServer`], stream their share of
//! the corpus through the protocol, and the report records end-to-end
//! wall throughput plus the connection metrics — so `BENCH_net.json`
//! tracks the network path's perf trajectory the same way
//! `BENCH_serve.json` tracks the in-process path.

use crate::bench::{build_workload, synthetic_framework, BenchConfig};
use crate::conn::ConnConfig;
use crate::net::{NetClient, NetConfig, NetServer};
use crate::proto::Response;
use crate::service::{CompressionService, ServiceConfig};
use serde::{Deserialize, Serialize};
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

/// Run the loopback benchmark: start a service + front-end, fan the
/// workload out over `clients` real TCP connections, and account for
/// every job.
pub fn run_net_bench(cfg: &NetBenchConfig) -> Result<NetBenchReport, String> {
    let framework = synthetic_framework(cfg.workload.seed);
    let service = Arc::new(CompressionService::start(
        framework,
        ServiceConfig {
            workers: cfg.workers.max(1),
            ..ServiceConfig::default()
        },
    ));
    let net = NetConfig {
        conn: ConnConfig {
            max_connections: cfg.clients.max(1) * 2,
            ..ConnConfig::default()
        },
        ..NetConfig::default()
    };
    let server = NetServer::start(Arc::clone(&service), cfg.listen.as_str(), net)
        .map_err(|e| format!("binding {}: {e}", cfg.listen))?;
    let addr = server.local_addr();

    let jobs = build_workload(&cfg.workload);
    let total_jobs = jobs.len() as u64;
    let total_bases: u64 = jobs.iter().map(|j| j.sequence.len() as u64).sum();
    let clients = cfg.clients.max(1);
    let shards: Vec<Vec<_>> = (0..clients)
        .map(|c| {
            jobs.iter()
                .skip(c)
                .step_by(clients)
                .cloned()
                .collect::<Vec<_>>()
        })
        .collect();

    let started = Instant::now();
    let threads: Vec<_> = shards
        .into_iter()
        .enumerate()
        .map(|(c, shard)| {
            std::thread::spawn(move || -> Result<(u64, u64), String> {
                let mut client = NetClient::connect(addr, Duration::from_secs(60))
                    .map_err(|e| format!("client {c} connect: {e}"))?;
                let mut completed = 0u64;
                let mut refused = 0u64;
                for job in &shard {
                    match client
                        .compress(&job.file, &job.sequence, job.priority, job.context.clone())
                        .map_err(|e| format!("client {c} compress: {e}"))?
                    {
                        Response::CompressOk { .. } => completed += 1,
                        Response::Error { .. } => refused += 1,
                        other => {
                            return Err(format!("client {c}: unexpected reply {other:?}"))
                        }
                    }
                }
                client.bye().map_err(|e| format!("client {c} bye: {e}"))?;
                Ok((completed, refused))
            })
        })
        .collect();

    let mut completed = 0u64;
    let mut refused = 0u64;
    for t in threads {
        let (c, r) = t.join().map_err(|_| "client thread panicked".to_owned())??;
        completed += c;
        refused += r;
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;

    server.shutdown();
    let snapshot = service.metrics().snapshot();
    drop(service);

    let wall_secs = (wall_ms / 1_000.0).max(1e-9);
    Ok(NetBenchReport {
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads: clients + cfg.workers.max(1) + 1,
        clients,
        workers: cfg.workers.max(1),
        jobs: total_jobs,
        completed,
        refused,
        wall_ms,
        jobs_per_wall_sec: completed as f64 / wall_secs,
        wire_mb_per_sec: (total_bases as f64 / 4.0) / 1.0e6 / wall_secs,
        frames_rx: snapshot.frames_rx,
        frames_tx: snapshot.frames_tx,
        net_bytes_rx: snapshot.net_bytes_rx,
        net_bytes_tx: snapshot.net_bytes_tx,
        connections_accepted: snapshot.connections_accepted,
        protocol_errors: snapshot.protocol_errors,
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
}
