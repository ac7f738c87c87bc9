//! # dnacomp-bench — evaluation harness
//!
//! Library side of the `repro` binary: the shared experiment pipeline
//! (corpus → measurements → context grid → labels → trees), plain-text
//! chart rendering, and CSV output. Each figure/table of the paper has a
//! generator in [`figures`] / [`tables`]; the binary dispatches on the
//! experiment id (see DESIGN.md §3 for the index).
//!
//! It also holds the compression service's own benchmarks, which the
//! `dnacomp` CLI drives and the checked-in `BENCH_*.json` files record:
//!
//! * [`serve`] — the service bench: the synthetic corpus replayed
//!   through an in-process `CompressionService` at several worker
//!   counts (`dnacomp bench-serve`, `BENCH_serve.json`);
//! * [`wire`] — the same workload over loopback TCP, to one shard
//!   (`dnacomp bench-serve --listen`, `BENCH_net.json`) or through a
//!   router in front of several (`dnacomp bench-serve --route`,
//!   `BENCH_route.json`, `BENCH_route_replicated.json`);
//! * [`store`] — the storage-engine bench: open cost, cached hot gets
//!   and group commit (`dnacomp bench-store`, `BENCH_store.json`);
//! * [`algos`] — the algorithm bench: per-algorithm serial and
//!   block-parallel throughput plus the packing kernels
//!   (`dnacomp bench-algos`, `BENCH_algos.json`).

#![forbid(unsafe_code)]

pub mod algos;
pub mod charts;
pub mod ext;
pub mod figures;
pub mod pipeline;
pub mod serve;
pub mod store;
pub mod tables;
pub mod wire;

pub use algos::{run_algo_bench, AlgoBenchConfig, AlgoBenchReport, AlgoBenchRow, KernelBench};
pub use serve::{
    build_workload, makespan_ms, run_bench, with_section, BenchConfig, BenchReport, BenchSection,
    SweepPoint,
};
pub use store::{run_store_bench, OpenPoint, StoreBenchConfig, StoreBenchReport};
pub use wire::{
    run_net_bench, run_route_bench, NetBenchConfig, NetBenchReport, RouteBenchConfig,
    RouteBenchReport, RouteBenchRow,
};

use std::io::Write;
use std::path::{Path, PathBuf};

/// Where results land (`results/` at the workspace root by default,
/// override with `DNACOMP_RESULTS`).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("DNACOMP_RESULTS") {
        return PathBuf::from(dir);
    }
    PathBuf::from("results")
}

/// Write `content` under the results dir, creating it if needed.
pub fn write_result(name: &str, content: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path)?;
    f.write_all(content.as_bytes())?;
    Ok(path)
}

/// Render rows of (name, values...) as CSV.
pub fn to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Load a cached JSON value if present.
pub fn load_cache<T: serde::de::DeserializeOwned>(path: &Path) -> Option<T> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// Store a JSON cache.
pub fn store_cache<T: serde::Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, serde_json::to_string(value)?)
}
