//! `dnacomp` — command-line front end.
//!
//! ```text
//! dnacomp gen --len 100000 --seed 7 --model bacterial out.fa
//! dnacomp compress -a dnax in.fa out.dx
//! dnacomp decompress in.dx out.fa
//! dnacomp info in.dx
//! dnacomp decide --ram-mb 2048 --cpu-mhz 2393 --bw-mbps 2 --file-kb 120
//! dnacomp store put --dir ./repo in.fa
//! ```
//!
//! `decide` trains the selector on a reduced measurement grid on first
//! use (a few seconds) and prints the chosen algorithm plus the learned
//! rules that fired. `store` manages a crash-safe content-addressed
//! repository of compressed sequences.
//!
//! Exit codes: `0` success, `1` runtime failure (missing input file,
//! unknown store key, corruption found), `2` usage error (bad flags or
//! arguments; prints the usage text).

use dnacomp::algos::blob::MAX_PREALLOC_BASES;
use dnacomp::algos::{compressor_for, Algorithm, CompressedBlob, FramedBlob, ParallelCompressor, TaskPool};
use dnacomp::cloud::{context_grid, MachineSpec, PerfModel};
use dnacomp::core::{build_rows, label_rows, measure_corpus, Context, ContextAwareFramework, WeightVector};
use dnacomp::ml::TreeMethod;
use dnacomp::seq::fasta::{write_fasta, Cleanser, Record};
use dnacomp::seq::gen::GenomeModel;
use dnacomp::seq::corpus::CorpusBuilder;
use dnacomp::seq::PackedSeq;
use dnacomp::server::{
    sweep, ClientError, CompressionService, DlqDir, NetClient, NetConfig, NetServer, Priority,
    Response, Ring, RouterConfig, RouterServer, ServiceConfig, ShardSpec, DEFAULT_RING_SEED,
    DEFAULT_VNODES,
};
use dnacomp::store::{ContentKey, SequenceStore, StoreConfig};
use dnacomp_bench::{
    build_workload, run_algo_bench, run_bench, run_net_bench, run_route_bench, run_store_bench,
    with_section, AlgoBenchConfig, BenchConfig, NetBenchConfig, RouteBenchConfig, StoreBenchConfig,
};
use std::process::ExitCode;
use std::sync::Arc;

/// A CLI failure, split by who got it wrong.
#[derive(Debug)]
enum CliError {
    /// The invocation itself is malformed (bad command, flags or
    /// argument shape): exit 2, usage text printed.
    Usage(String),
    /// The invocation was fine but the work failed (missing input
    /// file, unknown store key, corrupt data): exit 1, message only.
    Runtime(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

/// Shorthand for argument-shape errors.
fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  dnacomp gen --len <bases> [--seed <n>] [--model bacterial|repetitive|random] <out.fa>
  dnacomp compress -a <algorithm> [--block-size <bases>] [--threads <n>] <in.fa> <out.dx>
  dnacomp decompress <in.dx> <out.fa>
  dnacomp info <in.dx>
  dnacomp decide --ram-mb <n> --cpu-mhz <n> --bw-mbps <x> --file-kb <x>
  dnacomp serve --workers <n> [--files <n>] [--contexts <n>] [--repeats <n>]
                [--seed <n>]
                [--fault-rate <x>] [--panic-rate <x>] [--kill-rate <x>]
                [--shed-above <depth>] [--restart-budget <n>]
                [--quarantine-after <n>] [--dlq-dir <dir>]
                [--store <dir>] [--scrub-ms <n>]
                [--block-size <bases>] [--exchange] [--json]
                [--listen <addr>] [--serve-secs <x>] [--max-conns <n>]
                [--shard-id <n>] [--epoch <n>]
  dnacomp route serve --listen <addr> --shards <addr,addr,…>
                      [--vnodes <n>] [--seed <n>] [--pool <n>]
                      [--replicas <n>] [--write-quorum <n>]
                      [--hint-dir <dir>] [--hint-cap <n>]
                      [--shard-timeout-ms <n>] [--probe-ms <n>]
                      [--max-conns <n>] [--route-secs <x>]
  dnacomp route rebalance --shards <addr,addr,…> [--vnodes <n>] [--seed <n>]
                          [--replicas <n>] [--cursor <path>]
                          [--batch <n>] [--timeout-ms <n>]
  dnacomp route repair --shards <addr,addr,…> [--vnodes <n>] [--seed <n>]
                       [--replicas <n>] [--timeout-ms <n>]
  dnacomp client <ping|metrics|compress|get|stat> --addr <host:port>
                 [--timeout-ms <n>] [--retry <n>]
                 [--priority high|normal|low] [args…]
  dnacomp bench-serve [--workers 1,4,8] [--files <n>] [--contexts <n>]
                      [--repeats <n>] [--seed <n>] [--exchange]
                      [--block-size <bases>] [--store <dir>]
                      [--json] [--out <path>] [--section <name>]
  dnacomp bench-serve --listen <addr> [--clients <n>] [--workers <n>]
                      [--files <n>] [--contexts <n>] [--repeats <n>]
                      [--seed <n>] [--json] [--out <path>]
  dnacomp bench-serve --route [--shards 1,3] [--clients <n>] [--pool <n>]
                      [--replicas <n>] [--write-quorum <n>] [--workers <n>]
                      [--files <n>] [--contexts <n>] [--repeats <n>]
                      [--seed <n>] [--json] [--out <path>]
  dnacomp bench-algos [--quick] [--threads <n>] [--lanes <n>]
                      [--block-size <bases>] [--seed <n>]
                      [--json] [--out <path>]
  dnacomp dlq list --dir <dlq-dir> [--json]
  dnacomp dlq replay --dir <dlq-dir> <key>
  dnacomp dlq drop --dir <dlq-dir> <key>
  dnacomp store put --dir <store> [-a <algorithm>] <in.fa>
  dnacomp store get --dir <store> <key> <out.fa>
  dnacomp store stat --dir <store> [<key>]
  dnacomp store verify --dir <store>
  dnacomp store compact --dir <store> [--level <n>]
  dnacomp store scrub --dir <store> [--records <n>]
  dnacomp bench-store [--quick] [--json] [--out <path>] [--dir <dir>]
                      [--objects <n,n,…>] [--payload <bytes>]
  dnacomp list
algorithms: gzip, ctw, gencompress, dnax, biocompress2, dnapack-lite, cfact, xm-lite, raw
            (`dnacomp list` prints the full set)
serve replays the synthetic corpus through the concurrent compression
service and prints the metrics registry; with --listen it instead
starts the TCP front-end and serves the wire protocol (--serve-secs
bounds the run; 0 or absent serves until killed). client speaks that
protocol: `ping`, `metrics`, `compress <in.fa>`, `get <key> <out.fa>`,
`stat [<key>]`; connection refused/timeout are runtime errors (exit 1),
and --retry N redials with jittered exponential backoff first — for
compress it also re-sends after a mid-request transport break, which
content addressing makes idempotent (a duplicate commit dedups).
route serve fronts a shard fleet with a consistent-hash router: writes
land on --replicas ring successors (compressed once, by the first
that commits, whose container is shipped to the rest) and ack once
--write-quorum commit, reads fall through the replica set (repairing
divergent copies on the way), misses on a down replica persist hints
in --hint-dir that drain when the shard returns, health probes eject
dead shards, and `client metrics` against the router returns the
aggregated per-shard rollup; route rebalance and route repair are one
placement sweep that ships every key to each --replicas ring member
lacking it, in checksummed batches capped at one frame: rebalance then
removes the copies outside each key's replica set (after a membership
change; resumable via --cursor), repair only adds (after a shard lost
data). serve --shard-id/--epoch pin a shard's identity for
epoch-checked handshakes.
serve takes --store <dir> to persist every result; --panic-rate and
--kill-rate inject deterministic worker faults and --dlq-dir persists
the quarantine at shutdown; --block-size compresses big jobs as
block-parallel frames on the shared pool.
bench-serve sweeps worker counts and reports wall-clock and simulated
throughput plus process CPU ms per job (--store <dir> persists every
result into a fresh store per worker count under <dir>; --section
<name> writes the report as that named section of the --out file, a
JSON array of sections, keeping the others); bench-serve --listen
replays the workload over loopback TCP to one shard of --workers
workers and writes BENCH_net.json; bench-serve --route sweeps shard
counts behind a router, prices the router hop against one shard and
writes BENCH_route.json; bench-algos measures
per-algorithm compress/decompress MB/s, single-thread vs
block-parallel, plus the 2-bit packing kernels
(--quick is the CI smoke gate: round-trip + throughput-floor asserts);
dlq inspects, replays or drops persisted dead letters; store manages a
crash-safe content-addressed repository of compressed sequences — an
LSM engine with bloom-filtered sorted runs, a block cache, and a
group-committed manifest WAL (`stat` prints the engine counters and
per-level occupancy; `compact --level` reclaims one level surgically;
`scrub` audits run records from disk). bench-store measures open time
vs object count, hot-get throughput with the cache on and off, and sync
put throughput from one writer and from several (with the fsync
batching group commit achieves), writing BENCH_store.json (--quick is
the CI gate).";

fn run(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("compress") => cmd_compress(&args[1..]),
        Some("decompress") => cmd_decompress(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("decide") => cmd_decide(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("bench-serve") => cmd_bench_serve(&args[1..]),
        Some("bench-algos") => cmd_bench_algos(&args[1..]),
        Some("bench-store") => cmd_bench_store(&args[1..]),
        Some("dlq") => cmd_dlq(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("list") => {
            for alg in Algorithm::HORIZONTAL {
                println!("{}", alg.name());
            }
            Ok(())
        }
        Some(other) => Err(usage(format!("unknown command {other:?}"))),
        None => Err(usage("no command given")),
    }
}

/// Parsed `--flag value` pairs; a boolean flag maps to `"true"`.
type Flags = std::collections::HashMap<String, String>;

/// Flags that take no value (`--json`, not `--json true`).
const BOOLEAN_FLAGS: [&str; 4] = ["json", "exchange", "quick", "route"];

/// The flags each command reads, keyed like its [`USAGE`] lines (`-a`
/// is `--algorithm`). [`parse_flags`] refuses any other flag, and a
/// test checks that each is named in its command's usage.
#[rustfmt::skip]
const COMMAND_FLAGS: &[(&str, &[&str])] = &[
    ("gen", &["len", "seed", "model"]),
    ("compress", &["algorithm", "block-size", "threads"]),
    ("decompress", &[]),
    ("info", &[]),
    ("decide", &["ram-mb", "cpu-mhz", "bw-mbps", "file-kb"]),
    (
        "serve",
        &[
            "workers", "files", "contexts", "repeats", "seed", "fault-rate", "panic-rate",
            "kill-rate", "shed-above", "restart-budget", "quarantine-after", "dlq-dir", "store",
            "scrub-ms", "block-size", "exchange", "json", "listen", "serve-secs", "max-conns",
            "shard-id", "epoch",
        ],
    ),
    (
        "route serve",
        &[
            "listen", "shards", "vnodes", "seed", "pool", "replicas", "write-quorum", "hint-dir",
            "hint-cap", "shard-timeout-ms", "probe-ms", "max-conns", "route-secs",
        ],
    ),
    (
        "route rebalance",
        &["shards", "vnodes", "seed", "replicas", "cursor", "batch", "timeout-ms"],
    ),
    ("route repair", &["shards", "vnodes", "seed", "replicas", "timeout-ms"]),
    ("client", &["addr", "timeout-ms", "retry", "priority"]),
    (
        "bench-serve",
        &[
            "workers", "files", "contexts", "repeats", "seed", "exchange", "block-size", "store",
            "json", "out", "section",
        ],
    ),
    (
        "bench-serve --listen",
        &["listen", "clients", "workers", "files", "contexts", "repeats", "seed", "json", "out"],
    ),
    (
        "bench-serve --route",
        &[
            "route", "shards", "clients", "pool", "replicas", "write-quorum", "workers", "files",
            "contexts", "repeats", "seed", "json", "out",
        ],
    ),
    ("bench-algos", &["quick", "threads", "lanes", "block-size", "seed", "json", "out"]),
    ("bench-store", &["quick", "objects", "payload", "json", "out", "dir"]),
    ("dlq", &["dir", "json"]),
    ("store", &["dir", "algorithm", "level", "records"]),
];

/// The flags `command` (a [`COMMAND_FLAGS`] key) reads.
fn flags_of(command: &str) -> &'static [&'static str] {
    COMMAND_FLAGS
        .iter()
        .find(|(c, _)| *c == command)
        .map(|(_, flags)| *flags)
        .expect("every command is listed in COMMAND_FLAGS")
}

/// Pull `--flag value` out of an argument list; remaining positionals
/// are returned in order. Only the `known` flags are accepted, and
/// flags in [`BOOLEAN_FLAGS`] consume no value and are recorded as
/// `"true"`. An unknown flag, or a value flag with no value after it,
/// is a usage error.
fn parse_flags(args: &[String], known: &[&str]) -> Result<(Flags, Vec<String>), CliError> {
    let mut flags = std::collections::HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let name = match a.strip_prefix("--") {
            Some(name) => name,
            None if a == "-a" => "algorithm",
            None => {
                positional.push(a.clone());
                continue;
            }
        };
        if !known.contains(&name) {
            return Err(usage(format!("unknown flag {a}")));
        }
        let value = if BOOLEAN_FLAGS.contains(&name) {
            "true".to_owned()
        } else {
            it.next_if(|v| !v.starts_with("--"))
                .ok_or_else(|| usage(format!("{a} needs a value")))?
                .clone()
        };
        flags.insert(name.to_owned(), value);
    }
    Ok((flags, positional))
}

fn read_fasta(path: &str) -> Result<PackedSeq, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Cleanser::default()
        .parse_single(&text)
        .map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_gen(args: &[String]) -> Result<(), CliError> {
    let (flags, pos) = parse_flags(args, flags_of("gen"))?;
    let out = pos.first().ok_or_else(|| usage("gen: missing output path"))?;
    let len: usize = flags
        .get("len")
        .ok_or_else(|| usage("gen: --len required"))?
        .parse()
        .map_err(|e| usage(format!("--len: {e}")))?;
    let seed: u64 = flag(&flags, "seed")?.unwrap_or(42);
    let model = match flags.get("model").map(String::as_str) {
        None | Some("bacterial") => GenomeModel::default(),
        Some("repetitive") => GenomeModel::highly_repetitive(),
        Some("random") => GenomeModel::random_only(0.5),
        Some(other) => return Err(usage(format!("unknown model {other:?}"))),
    };
    let seq = model.generate(len, seed);
    let rec = Record {
        header: format!("dnacomp synthetic len={len} seed={seed}"),
        seq,
        cleaned: 0,
    };
    std::fs::write(out, write_fasta(std::slice::from_ref(&rec), 70))
        .map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {len} bases to {out}");
    Ok(())
}

/// Resolve `-a` (default `dnax`) to a standalone-capable algorithm.
fn algorithm_flag(flags: &Flags) -> Result<Algorithm, CliError> {
    let alg_name = flags
        .get("algorithm")
        .map(String::as_str)
        .unwrap_or("dnax");
    Algorithm::from_name(alg_name)
        .filter(|a| Algorithm::HORIZONTAL.contains(a))
        .ok_or_else(|| usage(format!("unknown algorithm {alg_name:?}")))
}

fn cmd_compress(args: &[String]) -> Result<(), CliError> {
    let (flags, pos) = parse_flags(args, flags_of("compress"))?;
    let (input, output) = match pos.as_slice() {
        [i, o] => (i, o),
        _ => return Err(usage("compress: need <in.fa> <out.dx>")),
    };
    let alg = algorithm_flag(&flags)?;
    let block_size: Option<usize> = flag(&flags, "block-size")?;
    let seq = read_fasta(input)?;
    let t0 = std::time::Instant::now();
    match block_size {
        Some(0) => return Err(usage("--block-size: must be positive")),
        Some(bs) if bs > MAX_PREALLOC_BASES => {
            return Err(usage(format!(
                "--block-size: at most {MAX_PREALLOC_BASES} bases (one flat block)"
            )))
        }
        Some(bs) => {
            // Framed block-parallel container on a process-local pool.
            let threads = flag(&flags, "threads")?.unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            });
            let pc = ParallelCompressor::new(alg, bs, Arc::new(TaskPool::new(threads)));
            let frame = pc
                .compress(&seq)
                .map_err(|e| format!("compression failed: {e}"))?;
            let bytes = frame.to_bytes();
            std::fs::write(output, &bytes).map_err(|e| format!("writing {output}: {e}"))?;
            eprintln!(
                "{}: {} bases -> {} bytes ({:.3} bits/base) in {:.0} ms ({} blocks of {} bases, {} pool threads)",
                alg.name(),
                seq.len(),
                bytes.len(),
                frame.bits_per_base(),
                t0.elapsed().as_secs_f64() * 1e3,
                frame.blocks.len(),
                bs,
                threads,
            );
        }
        None => {
            let compressor = compressor_for(alg);
            let (blob, stats) = compressor
                .compress_with_stats(&seq)
                .map_err(|e| format!("compression failed: {e}"))?;
            let bytes = blob.to_bytes();
            std::fs::write(output, &bytes).map_err(|e| format!("writing {output}: {e}"))?;
            eprintln!(
                "{}: {} bases -> {} bytes ({:.3} bits/base) in {:.0} ms (peak heap {} kB)",
                alg.name(),
                seq.len(),
                bytes.len(),
                blob.bits_per_base(),
                t0.elapsed().as_secs_f64() * 1e3,
                stats.peak_heap_bytes / 1024,
            );
        }
    }
    Ok(())
}

fn cmd_decompress(args: &[String]) -> Result<(), CliError> {
    let (_, pos) = parse_flags(args, flags_of("decompress"))?;
    let (input, output) = match pos.as_slice() {
        [i, o] => (i, o),
        _ => return Err(usage("decompress: need <in.dx> <out.fa>")),
    };
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let blob = CompressedBlob::from_bytes(&bytes).map_err(|e| format!("{input}: {e}"))?;
    if blob.algorithm == Algorithm::Reference {
        return Err(CliError::Runtime(
            "reference-based blobs need the reference; use the library API".into(),
        ));
    }
    let seq = compressor_for(blob.algorithm)
        .decompress(&blob)
        .map_err(|e| format!("decompression failed: {e}"))?;
    let origin = blob.algorithm.name();
    let rec = Record {
        header: format!("decompressed from {input} ({origin})"),
        seq,
        cleaned: 0,
    };
    std::fs::write(output, write_fasta(std::slice::from_ref(&rec), 70))
        .map_err(|e| format!("writing {output}: {e}"))?;
    eprintln!("verified checksum; wrote {output}");
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), CliError> {
    let (_, pos) = parse_flags(args, flags_of("info"))?;
    let input = pos.first().ok_or_else(|| usage("info: need <in.dx>"))?;
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let blob = CompressedBlob::from_bytes(&bytes).map_err(|e| format!("{input}: {e}"))?;
    println!("algorithm:      {}", blob.algorithm.name());
    if blob.is_framed() {
        let frame = FramedBlob::from_blob(&blob).map_err(|e| format!("{input}: {e}"))?;
        println!(
            "frame:          {} blocks of {} bases",
            frame.blocks.len(),
            frame.block_size
        );
    }
    println!("original bases: {}", blob.original_len);
    println!("container:      {} bytes", blob.total_bytes());
    println!("bits/base:      {:.4}", blob.bits_per_base());
    println!("checksum:       {:#018x}", blob.checksum);
    Ok(())
}

fn cmd_decide(args: &[String]) -> Result<(), CliError> {
    let (flags, _) = parse_flags(args, flags_of("decide"))?;
    let get = |name: &str| -> Result<f64, CliError> {
        flags
            .get(name)
            .ok_or_else(|| usage(format!("decide: --{name} required")))?
            .parse()
            .map_err(|e| usage(format!("--{name}: {e}")))
    };
    let ctx = Context {
        ram_mb: get("ram-mb")? as u32,
        cpu_mhz: get("cpu-mhz")? as u32,
        bandwidth_mbps: get("bw-mbps")?,
        file_bytes: (get("file-kb")? * 1024.0) as u64,
    };
    eprintln!("training selector on a reduced grid …");
    let files = CorpusBuilder::paper(42)
        .ncbi_files(25)
        .include_standard(false)
        .size_range(1_000, 1_000_000)
        .build();
    let ms = measure_corpus(&files, &dnacomp::algos::paper_algorithms())
        .map_err(|e| format!("measurement grid failed: {e}"))?;
    let rows = build_rows(
        &ms,
        &context_grid(),
        &PerfModel::default(),
        &MachineSpec::azure_vm(),
    );
    let labeled = label_rows(&rows, &WeightVector::time_only());
    let fw = ContextAwareFramework::train(&labeled, TreeMethod::Cart);
    let alg = fw.decide(&ctx);
    let worth = fw.worth_compressing(&ctx, &PerfModel::default());
    println!("context: {ctx:?}");
    println!("compress at all: {}", if worth { "yes" } else { "no" });
    println!("algorithm:       {}", alg.name());
    Ok(())
}

/// `--name`'s value parsed as a `T`, if the flag was given.
fn flag<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<Option<T>, CliError>
where
    T::Err: std::fmt::Display,
{
    let parse = |v: &String| v.parse().map_err(|e| usage(format!("--{name}: {e}")));
    flags.get(name).map(parse).transpose()
}

/// `--name` as a comma-separated list of counts, if the flag was given.
fn counts(flags: &Flags, name: &str) -> Result<Option<Vec<usize>>, CliError> {
    let parse = |w: &str| {
        w.trim()
            .parse()
            .map_err(|e| usage(format!("--{name}: {e}")))
    };
    flags
        .get(name)
        .map(|list| list.split(',').map(parse).collect())
        .transpose()
}

/// The workload flags every replay reads (`--files`, `--contexts`,
/// `--repeats`, `--seed`), over the defaults in `cfg`.
fn workload_from_flags(flags: &Flags, cfg: BenchConfig) -> Result<BenchConfig, CliError> {
    Ok(BenchConfig {
        files: flag(flags, "files")?.unwrap_or(cfg.files),
        contexts: flag(flags, "contexts")?.unwrap_or(cfg.contexts),
        repeats: flag(flags, "repeats")?.unwrap_or(cfg.repeats),
        seed: flag(flags, "seed")?.unwrap_or(cfg.seed),
        ..cfg
    })
}

/// The in-process replays of `serve` and `bench-serve`: the workload
/// plus `--exchange` and `--block-size`.
fn bench_config_from_flags(flags: &Flags) -> Result<BenchConfig, CliError> {
    let mut cfg = workload_from_flags(flags, BenchConfig::default())?;
    cfg.exchange = flags.contains_key("exchange");
    cfg.block_size = flag(flags, "block-size")?;
    if cfg.block_size == Some(0) {
        return Err(usage("--block-size: must be positive"));
    }
    Ok(cfg)
}

/// Write a bench report's JSON to `--out` and print it under `--json`.
/// `artifact`, when set, is what `--out` receives instead (a sectioned
/// `BENCH_serve.json`). Returns `true` when `--json` is absent and the
/// caller prints its table.
fn write_report(flags: &Flags, json: &str, artifact: Option<String>) -> Result<bool, CliError> {
    if let Some(path) = flags.get("out") {
        std::fs::write(path, artifact.as_deref().unwrap_or(json))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if flags.contains_key("json") {
        println!("{json}");
        return Ok(false);
    }
    Ok(true)
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let (flags, _) = parse_flags(args, flags_of("serve"))?;
    let workers: usize = flags
        .get("workers")
        .ok_or_else(|| usage("serve: --workers required"))?
        .parse()
        .map_err(|e| usage(format!("--workers: {e}")))?;
    let mut cfg = bench_config_from_flags(&flags)?;
    let fault_rate: f64 = flag(&flags, "fault-rate")?.unwrap_or(0.0);
    let panic_rate: f64 = flag(&flags, "panic-rate")?.unwrap_or(0.0);
    let kill_rate: f64 = flag(&flags, "kill-rate")?.unwrap_or(0.0);
    let mut svc = ServiceConfig::default();
    svc.restart_budget = flag(&flags, "restart-budget")?.unwrap_or(svc.restart_budget);
    svc.quarantine_after = flag(&flags, "quarantine-after")?.unwrap_or(svc.quarantine_after);
    svc.shed_above = flag(&flags, "shed-above")?;
    let store = flags
        .get("store")
        .map(|dir| {
            SequenceStore::open(dir, StoreConfig::default())
                .map(Arc::new)
                .map_err(|e| CliError::Runtime(format!("opening store {dir}: {e}")))
        })
        .transpose()?;
    // Transfer faults only bite on blob exchanges, so a fault rate
    // implies full-exchange jobs rather than silently doing nothing.
    // (Panic/kill injection bites in compress-only mode too.)
    cfg.exchange = cfg.exchange || fault_rate > 0.0;
    let framework = dnacomp::server::synthetic_framework(cfg.seed);
    let mut faults = if fault_rate > 0.0 {
        dnacomp::cloud::FaultPlan::uniform(cfg.seed, fault_rate)
    } else {
        dnacomp::cloud::FaultPlan::none()
    };
    faults.seed = cfg.seed;
    faults.panic_rate = panic_rate;
    faults.worker_kill_rate = kill_rate;
    svc.workers = workers;
    svc.faults = faults;
    svc.block_bytes = (fault_rate > 0.0).then_some(4096);
    // Frame threshold for the block-parallel path; when set (and no
    // fault plan pinned the exchange block), the service aligns the
    // resumable-upload block bytes to the frame block boundary.
    svc.block_size = cfg.block_size;
    svc.store = store.clone();
    // Background scrub of the attached store's runs: --scrub-ms sets
    // the tick interval (only meaningful alongside --store).
    if let Some(ms) = flag(&flags, "scrub-ms")?.filter(|&ms| ms > 0) {
        svc.scrub_interval = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(listen) = flags.get("listen") {
        return serve_listen(listen, framework, svc, store, &cfg, &flags);
    }
    eprintln!(
        "serving {} corpus files × {} contexts × {} passes on {workers} worker(s) …",
        cfg.files, cfg.contexts, cfg.repeats
    );
    let jobs = build_workload(&cfg);
    let service = CompressionService::start(framework, svc);
    let mut tickets = Vec::with_capacity(jobs.len());
    for job in &jobs {
        loop {
            match service.submit(job.clone()) {
                Ok(t) => {
                    tickets.push(t);
                    break;
                }
                Err(dnacomp::server::SubmitError::QueueFull) => std::thread::yield_now(),
                Err(e) => return Err(CliError::Runtime(format!("submit failed: {e}"))),
            }
        }
    }
    for t in tickets {
        let _ = t.wait(); // failures are visible in the metrics
    }
    persist_dead_letters(&service, &flags)?;
    let snapshot = service.shutdown();
    if flags.contains_key("json") {
        println!("{}", snapshot.to_json());
    } else {
        println!("jobs:       {} accepted, {} completed, {} failed, {} expired, {} rejected",
            snapshot.accepted, snapshot.completed, snapshot.failed,
            snapshot.expired, snapshot.rejected_full);
        println!(
            "cache:      {} hits / {} misses ({:.1} % hit rate)",
            snapshot.cache_hits,
            snapshot.cache_misses,
            snapshot.cache_hit_rate * 100.0
        );
        println!("queue:      peak depth {}", snapshot.peak_queue_depth);
        if snapshot.block_parallel_jobs > 0 {
            println!(
                "blocks:     {} framed job(s), {} blocks; shared pool ran {} block task(s) ({} inline)",
                snapshot.block_parallel_jobs,
                snapshot.blocks_compressed,
                snapshot.pool_tasks_run_by_pool,
                snapshot.pool_tasks_run_inline
            );
        }
        if snapshot.jobs_panicked + snapshot.jobs_quarantined + snapshot.jobs_shed
            + snapshot.jobs_crashed + snapshot.worker_restarts + snapshot.dlq_depth
            > 0
        {
            println!(
                "supervise:  {} panicked, {} quarantined, {} shed, {} crashed, {} worker restart(s), dlq depth {}",
                snapshot.jobs_panicked,
                snapshot.jobs_quarantined,
                snapshot.jobs_shed,
                snapshot.jobs_crashed,
                snapshot.worker_restarts,
                snapshot.dlq_depth
            );
        }
        println!(
            "latency:    p50 {:.1} ms, p95 {:.1} ms, mean {:.1} ms (simulated)",
            snapshot.latency_p50_ms, snapshot.latency_p95_ms, snapshot.latency_mean_ms
        );
        for w in &snapshot.algorithm_wins {
            println!("wins:       {:<14} {}", w.algorithm, w.wins);
        }
        if store.is_some() {
            println!(
                "store:      {} puts ({} deduped), {} bytes on disk",
                snapshot.store_puts, snapshot.store_dedup_hits, snapshot.store_bytes_on_disk
            );
        }
    }
    Ok(())
}

/// `serve --listen`: run the TCP front-end instead of replaying the
/// synthetic corpus in-process.
fn serve_listen(
    listen: &str,
    framework: dnacomp::core::FrameworkHandle,
    svc: ServiceConfig,
    store: Option<Arc<SequenceStore>>,
    cfg: &BenchConfig,
    flags: &Flags,
) -> Result<(), CliError> {
    let serve_secs: f64 = flag(flags, "serve-secs")?.unwrap_or(0.0);
    let mut net = NetConfig {
        exchange: cfg.exchange,
        store,
        ..NetConfig::default()
    };
    net.conn.max_connections = flag(flags, "max-conns")?.unwrap_or(net.conn.max_connections);
    // Cluster identity: --shard-id is the id this node answers to in
    // epoch handshakes; --epoch pins the node to one ring epoch (a
    // mismatching HelloEpoch is refused with `wrong-shard`). Leaving
    // both off keeps the node epoch-agnostic, as before.
    net.shard_id = flag(flags, "shard-id")?.unwrap_or(net.shard_id);
    if let Some(v) = flags.get("epoch") {
        let epoch = match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).map_err(|e| usage(format!("--epoch: {e}"))),
            None => v.parse().map_err(|e| usage(format!("--epoch: {e}"))),
        }?;
        net.epoch = Some(epoch);
    }
    let service = Arc::new(CompressionService::start(framework, svc));
    let server = NetServer::start(Arc::clone(&service), listen, net)
        .map_err(|e| CliError::Runtime(format!("binding {listen}: {e}")))?;
    eprintln!("listening on {}", server.local_addr());
    if serve_secs > 0.0 {
        std::thread::sleep(std::time::Duration::from_secs_f64(serve_secs));
    } else {
        loop {
            std::thread::park();
        }
    }
    server.shutdown();
    let service = Arc::try_unwrap(service)
        .map_err(|_| CliError::Runtime("connections still alive after drain".into()))?;
    persist_dead_letters(&service, flags)?;
    let snapshot = service.shutdown();
    println!("{}", snapshot.to_json());
    Ok(())
}

/// Persist the quarantine before shutdown when `--dlq-dir` is given:
/// every dead letter moves to disk, so the final snapshot truthfully
/// reports dlq_depth 0.
fn persist_dead_letters(service: &CompressionService, flags: &Flags) -> Result<(), CliError> {
    let Some(dir) = flags.get("dlq-dir") else {
        return Ok(());
    };
    let letters = service.dlq_drain();
    let dlq = DlqDir::open(dir).map_err(CliError::Runtime)?;
    for letter in &letters {
        dlq.save(letter).map_err(CliError::Runtime)?;
    }
    eprintln!("persisted {} dead letter(s) to {dir}", letters.len());
    Ok(())
}

/// Parse `--shards` into ring shard specs: a comma-separated address
/// list (`127.0.0.1:7101,127.0.0.1:7102`) with ids assigned 1..=N in
/// order, or explicit `id=addr` entries.
fn parse_shards(list: &str) -> Result<Vec<ShardSpec>, CliError> {
    let mut specs = Vec::new();
    for (i, entry) in list.split(',').enumerate() {
        let entry = entry.trim();
        if entry.is_empty() {
            return Err(usage("--shards: empty entry in shard list"));
        }
        let spec = match entry.split_once('=') {
            Some((id, addr)) => ShardSpec {
                id: id
                    .trim()
                    .parse()
                    .map_err(|e| usage(format!("--shards: shard id {id:?}: {e}")))?,
                addr: addr.trim().to_owned(),
            },
            None => ShardSpec {
                id: i as u32 + 1,
                addr: entry.to_owned(),
            },
        };
        specs.push(spec);
    }
    Ok(specs)
}

/// Build the consistent-hash ring from `--shards`/`--vnodes`/`--seed`.
fn ring_from_flags(flags: &Flags) -> Result<Ring, CliError> {
    let shards = parse_shards(
        flags
            .get("shards")
            .ok_or_else(|| usage("route: --shards <addr,addr,…> required"))?,
    )?;
    let vnodes = flag(flags, "vnodes")?.unwrap_or(DEFAULT_VNODES);
    let seed = flag(flags, "seed")?.unwrap_or(DEFAULT_RING_SEED);
    Ring::new(shards, vnodes, seed).map_err(CliError::Runtime)
}

/// `dnacomp route <serve|rebalance|repair>` — the shard router
/// front-end, and the placement sweep that keeps every key on its
/// replica set: pruning after a membership change (`rebalance`),
/// additive after a shard loses data (`repair`).
fn cmd_route(args: &[String]) -> Result<(), CliError> {
    let sub = args
        .first()
        .ok_or_else(|| usage("route: need a subcommand (serve|rebalance|repair)"))?;
    let (flags, _) = match sub.as_str() {
        "serve" | "rebalance" | "repair" => {
            parse_flags(&args[1..], flags_of(&format!("route {sub}")))?
        }
        other => return Err(usage(format!("route: unknown subcommand {other:?}"))),
    };
    let replicas = flag(&flags, "replicas")?
        .unwrap_or(RouterConfig::default().replicas)
        .max(1);
    let timeout_ms: u64 = flag(&flags, "timeout-ms")?.unwrap_or(10_000);
    let timeout = std::time::Duration::from_millis(timeout_ms.max(1));
    match sub.as_str() {
        "serve" => {
            let listen = flags
                .get("listen")
                .ok_or_else(|| usage("route serve: --listen <host:port> required"))?;
            let ring = ring_from_flags(&flags)?;
            let mut cfg = RouterConfig::default();
            cfg.pool_per_shard = flag(&flags, "pool")?.unwrap_or(cfg.pool_per_shard);
            cfg.replicas = replicas;
            if let Some(w) = flag::<usize>(&flags, "write-quorum")? {
                cfg.write_quorum = w.max(1);
            }
            cfg.hint_dir = flags.get("hint-dir").map(std::path::PathBuf::from);
            if let Some(cap) = flag::<usize>(&flags, "hint-cap")? {
                cfg.hint_cap = cap.max(1);
            }
            if let Some(ms) = flag::<u64>(&flags, "shard-timeout-ms")? {
                cfg.shard_timeout = std::time::Duration::from_millis(ms.max(1));
            }
            if let Some(ms) = flag::<u64>(&flags, "probe-ms")? {
                cfg.probe_interval = std::time::Duration::from_millis(ms.max(1));
            }
            cfg.conn.max_connections =
                flag(&flags, "max-conns")?.unwrap_or(cfg.conn.max_connections);
            let route_secs: f64 = flag(&flags, "route-secs")?.unwrap_or(0.0);
            let router = RouterServer::start(listen.as_str(), ring, cfg)
                .map_err(|e| CliError::Runtime(format!("binding {listen}: {e}")))?;
            eprintln!(
                "routing on {} (epoch {:#x}, {} shard(s))",
                router.local_addr(),
                router.epoch(),
                router.metrics_snapshot().shards.len()
            );
            if route_secs > 0.0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(route_secs));
            } else {
                loop {
                    std::thread::park();
                }
            }
            let snapshot = router.shutdown();
            println!("{}", snapshot.to_json());
            Ok(())
        }
        "rebalance" | "repair" => {
            let ring = ring_from_flags(&flags)?;
            let batch: usize = flag(&flags, "batch")?.unwrap_or(64);
            let cursor = flags.get("cursor").map(std::path::PathBuf::from);
            let prune = sub == "rebalance";
            let report = sweep(&ring, replicas, timeout, batch, cursor.as_deref(), prune)
                .map_err(CliError::Runtime)?;
            eprintln!(
                "{sub} (epoch {:#x}, {replicas} replica(s)): scanned {}, skipped {} via cursor, \
                 shipped {} ({} deduped), removed {}, {} container byte(s) shipped",
                ring.epoch(),
                report.scanned,
                report.skipped,
                report.shipped,
                report.deduped,
                report.removed,
                report.bytes
            );
            Ok(())
        }
        _ => unreachable!("route subcommand vetted above"),
    }
}

/// Dial `addr`, retrying up to `retries` times on connection failure
/// with the cloud retry policy's jittered exponential backoff (keyed
/// on the address, so a fleet of clients hammering the same recovering
/// server de-synchronises instead of stampeding).
fn connect_with_retry(
    addr: &str,
    timeout: std::time::Duration,
    retries: u32,
) -> Result<NetClient<std::net::TcpStream>, ClientError> {
    let policy = dnacomp::cloud::RetryPolicy {
        max_attempts: retries.saturating_add(1),
        budget_ms: f64::INFINITY,
        ..dnacomp::cloud::RetryPolicy::default()
    };
    let key = dnacomp::codec::checksum::fnv1a(addr.as_bytes());
    let delays = policy.schedule(key);
    let mut attempt = 0usize;
    loop {
        match NetClient::connect(addr, timeout) {
            Ok(client) => return Ok(client),
            Err(e) => {
                let Some(delay_ms) = delays.get(attempt) else {
                    return Err(e);
                };
                attempt += 1;
                eprintln!(
                    "connect {addr} failed ({e}); retry {attempt}/{retries} in {delay_ms:.0} ms"
                );
                std::thread::sleep(std::time::Duration::from_secs_f64(delay_ms / 1_000.0));
            }
        }
    }
}

/// `dnacomp client <ping|metrics|compress|get|stat>` — speak the wire
/// protocol against a running `serve --listen`.
fn cmd_client(args: &[String]) -> Result<(), CliError> {
    let (flags, pos) = parse_flags(args, flags_of("client"))?;
    let sub = pos
        .first()
        .ok_or_else(|| usage("client: need a subcommand (ping|metrics|compress|get|stat)"))?;
    // Vet the subcommand before dialling: a typo is a usage error
    // (exit 2) and must not cost the server a connection.
    if !["ping", "metrics", "compress", "get", "stat"].contains(&sub.as_str()) {
        return Err(usage(format!("client: unknown subcommand {sub:?}")));
    }
    let addr = flags
        .get("addr")
        .ok_or_else(|| usage("client: --addr <host:port> required"))?;
    let timeout_ms: u64 = flag(&flags, "timeout-ms")?.unwrap_or(10_000);
    let timeout = std::time::Duration::from_millis(timeout_ms.max(1));
    let retries: u32 = flag(&flags, "retry")?.unwrap_or(0);
    // Connection refused, handshake failure and response timeouts are
    // all runtime errors: exit code 1, like any other unreachable
    // resource — usage mistakes stay exit code 2.
    let client_err =
        |what: &str, e: ClientError| CliError::Runtime(format!("client {what} ({addr}): {e}"));
    let mut client = connect_with_retry(addr, timeout, retries).map_err(|e| client_err("connect", e))?;
    let parse_key = |hex: &str| {
        ContentKey::from_hex(hex)
            .ok_or_else(|| CliError::Runtime(format!("invalid key {hex:?} (32 hex digits)")))
    };
    match (sub.as_str(), &pos[1..]) {
        ("ping", []) => {
            client.ping().map_err(|e| client_err("ping", e))?;
            eprintln!("pong from {addr}");
            Ok(())
        }
        ("metrics", []) => {
            let json = client.metrics_json().map_err(|e| client_err("metrics", e))?;
            println!("{json}");
            Ok(())
        }
        ("compress", [input]) => {
            let seq = read_fasta(input)?;
            let priority = match flags.get("priority").map(String::as_str) {
                None | Some("normal") => Priority::Normal,
                Some("high") => Priority::High,
                Some("low") => Priority::Low,
                Some(other) => return Err(usage(format!("--priority: unknown lane {other:?}"))),
            };
            let context = Context {
                ram_mb: 2048,
                cpu_mhz: 2393,
                bandwidth_mbps: 2.0,
                file_bytes: seq.len() as u64,
            };
            // A transport break mid-compress is ambiguous: the server
            // may or may not have committed before the connection died.
            // Content addressing makes the resend safe — the same
            // sequence maps to the same key, so a duplicate commit
            // dedups into a success — so --retry N also redials and
            // re-sends the request. Typed server errors (refusals) are
            // never retried: the server answered, retrying cannot help.
            let mut resend = 0u32;
            let resp = loop {
                match client.compress(input, &seq, priority, context.clone()) {
                    Ok(resp) => break resp,
                    Err(ClientError::Proto(e)) if resend < retries => {
                        resend += 1;
                        eprintln!(
                            "compress transport failure ({e}); idempotent resend {resend}/{retries}"
                        );
                        client = connect_with_retry(addr, timeout, retries)
                            .map_err(|e| client_err("reconnect", e))?;
                    }
                    Err(e) => return Err(client_err("compress", e)),
                }
            };
            match resp {
                Response::CompressOk {
                    file,
                    algorithm,
                    original_len,
                    compressed_bytes,
                    blocks,
                    sim_ms,
                    cache_hit,
                    key,
                } => {
                    let name = Algorithm::from_tag(algorithm)
                        .map(|a| a.name().to_owned())
                        .unwrap_or_else(|_| format!("tag {algorithm}"));
                    eprintln!(
                        "{file}: {original_len} bases -> {compressed_bytes} bytes via {name} \
                         ({blocks} block(s), {sim_ms:.1} ms simulated{})",
                        if cache_hit { ", cached decision" } else { "" }
                    );
                    if let Some(key) = key {
                        println!("{}", ContentKey(key).to_hex());
                    }
                    Ok(())
                }
                Response::Error { code, message } => Err(CliError::Runtime(format!(
                    "server refused compress ({code}): {message}"
                ))),
                other => Err(CliError::Runtime(format!("unexpected reply {other:?}"))),
            }
        }
        ("get", [key, output]) => {
            let key = parse_key(key)?;
            let bytes = client.get(key.0).map_err(|e| client_err("get", e))?;
            let blob = CompressedBlob::from_bytes(&bytes)
                .map_err(|e| CliError::Runtime(format!("served blob is corrupt: {e}")))?;
            let seq = compressor_for(blob.algorithm)
                .decompress(&blob)
                .map_err(|e| CliError::Runtime(format!("decompression failed: {e}")))?;
            let rec = Record {
                header: format!("dnacomp client {} ({})", key.to_hex(), blob.algorithm.name()),
                seq,
                cleaned: 0,
            };
            std::fs::write(output, write_fasta(std::slice::from_ref(&rec), 70))
                .map_err(|e| CliError::Runtime(format!("writing {output}: {e}")))?;
            eprintln!("wrote {output}");
            Ok(())
        }
        ("stat", rest) => {
            let key = match rest {
                [] => None,
                [key] => Some(parse_key(key)?.0),
                _ => return Err(usage("client stat: at most one key")),
            };
            let json = client.stat(key).map_err(|e| client_err("stat", e))?;
            println!("{json}");
            Ok(())
        }
        _ => Err(usage(format!("client: bad arguments for {sub:?}"))),
    }
}

fn cmd_bench_serve(args: &[String]) -> Result<(), CliError> {
    // `--route` and `--listen` pick the mode; each mode reads only its
    // own flags.
    let has = |mode: &str| args.iter().any(|a| a == mode);
    let command = if has("--route") {
        "bench-serve --route"
    } else if has("--listen") {
        "bench-serve --listen"
    } else {
        "bench-serve"
    };
    let (flags, _) = parse_flags(args, flags_of(command))?;
    if flags.contains_key("route") {
        return bench_serve_route(&flags);
    }
    if let Some(listen) = flags.get("listen") {
        return bench_serve_listen(listen, &flags);
    }
    let mut cfg = bench_config_from_flags(&flags)?;
    if let Some(list) = counts(&flags, "workers")? {
        cfg.worker_counts = list;
    }
    cfg.store = flags.get("store").map(std::path::PathBuf::from);
    eprintln!(
        "bench-serve: {} files × {} contexts × {} passes, workers {:?} …",
        cfg.files, cfg.contexts, cfg.repeats, cfg.worker_counts
    );
    let report = run_bench(&cfg).map_err(CliError::Runtime)?;
    let artifact = match (flags.get("out"), flags.get("section")) {
        (Some(path), Some(name)) => {
            let existing = std::fs::read_to_string(path).ok();
            let sectioned = with_section(existing.as_deref(), name, report.clone())
                .map_err(|e| format!("{path}: {e}"))?;
            Some(sectioned)
        }
        _ => None,
    };
    if write_report(&flags, &report.to_json(), artifact)? {
        println!(
            "{:>7}  {:>10}  {:>14}  {:>13}  {:>12}  {:>9}  {:>11}  {:>10}",
            "workers",
            "jobs/s(sim)",
            "makespan(sim)",
            "jobs/s(wall)",
            "cache hit",
            "speedup",
            "cpu ms/job",
            "store puts"
        );
        for p in &report.sweep {
            println!(
                "{:>7}  {:>10.1}  {:>11.0} ms  {:>13.1}  {:>8.1} %  {:>8.2}x  {:>11.2}  {:>10}",
                p.workers,
                p.jobs_per_sim_sec,
                p.sim_makespan_ms,
                p.jobs_per_wall_sec,
                p.cache_hit_rate * 100.0,
                p.speedup_vs_one,
                p.cpu_ms_per_job,
                p.metrics.store_puts
            );
        }
    }
    Ok(())
}

/// `bench-serve --route`: the routed-cluster throughput sweep
/// (BENCH_route.json). Sweeps shard counts behind a router and reports
/// the 3-vs-1 aggregate speedup, each row's placement check and the
/// router hop's cost.
fn bench_serve_route(flags: &Flags) -> Result<(), CliError> {
    let mut cfg = RouteBenchConfig::default();
    if let Some(list) = counts(flags, "shards")? {
        cfg.shard_counts = list;
    }
    cfg.clients = flag(flags, "clients")?.unwrap_or(cfg.clients).max(1);
    cfg.pool_per_shard = flag(flags, "pool")?.unwrap_or(cfg.pool_per_shard).max(1);
    cfg.replicas = flag(flags, "replicas")?.unwrap_or(cfg.replicas).max(1);
    cfg.write_quorum = flag(flags, "write-quorum")?
        .unwrap_or(cfg.write_quorum)
        .max(1);
    // One pool size per shard: the first count of --workers.
    if let Some(list) = counts(flags, "workers")? {
        cfg.workers_per_shard = list[0];
    }
    cfg.workload = workload_from_flags(flags, cfg.workload)?;
    eprintln!(
        "bench-serve --route: {} files × {} contexts × {} passes over {} client(s); \
         shard counts {:?}, {} worker(s) and pool {} per shard, R={} W={} …",
        cfg.workload.files,
        cfg.workload.contexts,
        cfg.workload.repeats,
        cfg.clients,
        cfg.shard_counts,
        cfg.workers_per_shard,
        cfg.pool_per_shard,
        cfg.replicas,
        cfg.write_quorum
    );
    let report = run_route_bench(&cfg).map_err(CliError::Runtime)?;
    if write_report(flags, &report.to_json(), None)? {
        println!(
            "{:>6}  {:>5}  {:>13}  {:>9}  {:>8}  {:>9}  {:>5}  {:>7}  {:>10}  {:>9}  {:>11}",
            "shards", "jobs", "jobs/s(wall)", "forwards", "retries", "ejections", "R/W", "w-amp",
            "shard jobs", "misplaced", "q-p95(ms)"
        );
        for r in &report.rows {
            println!(
                "{:>6}  {:>5}  {:>13.1}  {:>9}  {:>8}  {:>9}  {:>2}/{:<2}  {:>7.2}  {:>10}  {:>9}  {:>11.2}",
                r.shards,
                r.jobs,
                r.jobs_per_wall_sec,
                r.route_forwards,
                r.route_retries,
                r.shard_ejections,
                r.replicas,
                r.write_quorum,
                r.write_amplification,
                r.shard_jobs,
                r.misplaced_jobs,
                r.quorum_p95_ms
            );
        }
        if report.speedup_3_vs_1 > 0.0 {
            println!("speedup 3 vs 1: {:.2}x", report.speedup_3_vs_1);
        }
        println!(
            "hop ratio (routed / direct jobs/s): {:.2}",
            report.hop_ratio
        );
    }
    Ok(())
}

/// `bench-serve --listen`: the loopback network throughput row.
fn bench_serve_listen(listen: &str, flags: &Flags) -> Result<(), CliError> {
    let nb = NetBenchConfig {
        clients: flag(flags, "clients")?.unwrap_or(4).max(1),
        // One pool size: the first count of --workers.
        workers: counts(flags, "workers")?.map_or(4, |list| list[0]),
        listen: listen.to_owned(),
        workload: workload_from_flags(flags, BenchConfig::default())?,
    };
    eprintln!(
        "bench-serve --listen: {} files × {} contexts × {} passes over {} client(s), {} worker(s) …",
        nb.workload.files, nb.workload.contexts, nb.workload.repeats, nb.clients, nb.workers
    );
    let report = run_net_bench(&nb).map_err(CliError::Runtime)?;
    if write_report(flags, &report.to_json(), None)? {
        println!(
            "net: {} jobs over {} conn(s): {:.1} jobs/s, {:.2} MB/s payload, \
             {} frames rx / {} tx, {} wire bytes rx / {} tx, {} protocol error(s)",
            report.jobs,
            report.connections_accepted,
            report.jobs_per_wall_sec,
            report.wire_mb_per_sec,
            report.frames_rx,
            report.frames_tx,
            report.net_bytes_rx,
            report.net_bytes_tx,
            report.protocol_errors
        );
    }
    Ok(())
}

/// `dnacomp bench-algos` — per-algorithm throughput, single-thread vs
/// block-parallel, plus the 2-bit packing kernel micro-benchmark.
/// `--quick` is the CI perf smoke gate (round-trip + kernel-floor
/// assertions; failure is a runtime error → exit 1).
fn cmd_bench_algos(args: &[String]) -> Result<(), CliError> {
    let (flags, _) = parse_flags(args, flags_of("bench-algos"))?;
    let mut cfg = AlgoBenchConfig {
        quick: flags.get("quick").map(String::as_str) == Some("true"),
        ..AlgoBenchConfig::default()
    };
    cfg.threads = flag(&flags, "threads")?.unwrap_or(cfg.threads);
    cfg.lanes = flag(&flags, "lanes")?.unwrap_or(cfg.lanes);
    if cfg.lanes == 0 {
        return Err(usage("--lanes: must be positive"));
    }
    cfg.block_size = flag(&flags, "block-size")?;
    if cfg.block_size == Some(0) {
        return Err(usage("--block-size: must be positive"));
    }
    cfg.seed = flag(&flags, "seed")?.unwrap_or(cfg.seed);
    eprintln!(
        "bench-algos: {} mode, {} pool thread(s), {} lanes …",
        if cfg.quick { "quick (smoke gate)" } else { "full" },
        cfg.threads,
        cfg.lanes
    );
    let report = run_algo_bench(&cfg).map_err(CliError::Runtime)?;
    if write_report(&flags, &report.to_json(), None)? {
        println!(
            "kernels ({} bases): pack u64 {:.0} MB/s vs bytewise {:.0} MB/s ({:.2}x); unpack {:.0} vs {:.0} MB/s ({:.2}x)",
            report.kernels.bases,
            report.kernels.pack_u64_mb_s,
            report.kernels.pack_bytewise_mb_s,
            report.kernels.pack_speedup,
            report.kernels.unpack_u64_mb_s,
            report.kernels.unpack_bytewise_mb_s,
            report.kernels.unpack_speedup,
        );
        println!(
            "simd [{}]: pack {:.0} MB/s ({:.2}x vs u64), unpack {:.0} MB/s ({:.2}x), prefix {:.0} vs {:.0} bytewise MB/s ({:.2}x)",
            report.cpu_features,
            report.kernels.pack_simd_mb_s,
            report.kernels.pack_simd_speedup,
            report.kernels.unpack_simd_mb_s,
            report.kernels.unpack_simd_speedup,
            report.kernels.prefix_simd_mb_s,
            report.kernels.prefix_bytewise_mb_s,
            report.kernels.prefix_speedup,
        );
        println!(
            "speed tier ({} bases): CTW rans {:.2} MB/s vs arith {:.2} MB/s ({:.2}x)",
            report.speed_gate.bases,
            report.speed_gate.ctw_rans_mb_s,
            report.speed_gate.ctw_arith_mb_s,
            report.speed_gate.rans_vs_arith,
        );
        println!(
            "{:>13}  {:>9}  {:>7}  {:>9}  {:>11}  {:>11}  {:>11}  {:>8}  {:>12}  {:>5}",
            "algorithm", "bases", "backend", "bits/base", "serial MB/s", "wall MB/s",
            format!("{}-lane MB/s", report.lanes), "speedup", "model/ent ms", "ok"
        );
        for r in &report.algorithms {
            let stages = match (r.model_stage_ms, r.entropy_stage_ms) {
                (Some(m), Some(e)) => format!("{m:.1}/{e:.1}"),
                _ => "-".to_string(),
            };
            println!(
                "{:>13}  {:>9}  {:>7}  {:>9.4}  {:>11.2}  {:>11.2}  {:>11.2}  {:>7.2}x  {:>12}  {:>5}",
                r.algorithm,
                r.bases,
                r.entropy_backend,
                r.bits_per_base,
                r.serial_compress_mb_s,
                r.block_wall_compress_mb_s,
                r.block_lane_compress_mb_s,
                r.lane_speedup_compress,
                stages,
                if r.roundtrip_ok && r.parallel_matches_serial { "yes" } else { "NO" },
            );
        }
        println!(
            "(host has {} CPU(s); the lane column is measured per-block times list-scheduled onto {} lanes)",
            report.host_cpus, report.lanes
        );
    }
    Ok(())
}

/// `dnacomp bench-store` — the LSM engine numbers behind
/// BENCH_store.json: open time vs object count (manifest-cost
/// sub-linearity), hot-get throughput with the block cache on vs off,
/// and sync put throughput from one writer and from several, with the
/// group-commit batching of the latter. `--quick` is the CI smoke shape
/// and asserts the headline claims hold.
fn cmd_bench_store(args: &[String]) -> Result<(), CliError> {
    let (flags, _) = parse_flags(args, flags_of("bench-store"))?;
    let quick = flags.get("quick").map(String::as_str) == Some("true");
    let mut cfg = if quick {
        StoreBenchConfig::quick()
    } else {
        StoreBenchConfig::default()
    };
    if let Some(list) = counts(&flags, "objects")? {
        if list.len() < 2 {
            return Err(usage("--objects: need at least two counts for the sweep"));
        }
        cfg.open_sweep = list;
    }
    cfg.payload_bytes = flag(&flags, "payload")?.unwrap_or(cfg.payload_bytes);
    if cfg.payload_bytes == 0 {
        return Err(usage("--payload: must be positive"));
    }
    if let Some(v) = flags.get("dir") {
        cfg.dir = std::path::PathBuf::from(v);
    }
    eprintln!(
        "bench-store: {} mode, open sweep {:?}, {} B payloads, {} hot records × {} passes …",
        if quick { "quick (smoke gate)" } else { "full" },
        cfg.open_sweep,
        cfg.payload_bytes,
        cfg.hot_records,
        cfg.hot_passes
    );
    let report = run_store_bench(&cfg).map_err(CliError::Runtime)?;
    if write_report(&flags, &report.to_json(), None)? {
        println!("{:>9}  {:>14}  {:>10}  {:>5}", "objects", "manifest B", "open ms", "runs");
        for p in &report.open_sweep {
            println!(
                "{:>9}  {:>14}  {:>10.2}  {:>5}",
                p.objects, p.manifest_bytes, p.open_ms, p.runs
            );
        }
        println!(
            "open cost per object, largest vs smallest store: {:.3}x (< 1 is sub-linear)",
            report.open_cost_ratio
        );
        println!(
            "hot gets: {:.1} MB/s cached vs {:.1} MB/s uncached ({:.2}x, {:.0}% cache hits)",
            report.hot_get_cached_mb_s,
            report.hot_get_uncached_mb_s,
            report.hot_get_speedup,
            report.cache_hit_rate * 100.0
        );
        println!(
            "puts (sync): {:.0}/s from 1 writer vs {:.0}/s from {} writers; \
             {} appends in {} fsync batches",
            report.put_sync_1_thread_per_sec,
            report.put_sync_concurrent_per_sec,
            report.commit_threads,
            report.wal_appends,
            report.wal_batches
        );
    }
    if quick {
        // The smoke gate: the deterministic claims must hold on any
        // machine. (Wall-clock speedups stay informational — CI boxes
        // are too noisy to gate on a stopwatch.)
        if report.open_cost_ratio >= 0.9 {
            return Err(CliError::Runtime(format!(
                "open cost per object did not shrink with store size: ratio {:.3}",
                report.open_cost_ratio
            )));
        }
        if report.cache_hit_rate < 0.5 {
            return Err(CliError::Runtime(format!(
                "block cache missed too often on a hot sweep: hit rate {:.2}",
                report.cache_hit_rate
            )));
        }
        if report.wal_batches == 0 || report.wal_batches >= report.wal_appends {
            return Err(CliError::Runtime(format!(
                "group commit did not batch: {} appends in {} fsync batches",
                report.wal_appends, report.wal_batches
            )));
        }
    }
    Ok(())
}

/// `dnacomp dlq <list|replay|drop>` — inspect, resubmit or discard
/// dead letters persisted by `serve --dlq-dir`.
fn cmd_dlq(args: &[String]) -> Result<(), CliError> {
    let (flags, pos) = parse_flags(args, flags_of("dlq"))?;
    let sub = pos
        .first()
        .ok_or_else(|| usage("dlq: need a subcommand (list|replay|drop)"))?;
    let dir = flags
        .get("dir")
        .ok_or_else(|| usage("dlq: --dir <dlq-dir> required"))?;
    let dlq = DlqDir::open(dir).map_err(CliError::Runtime)?;
    let parse_key = |hex: &str| {
        ContentKey::from_hex(hex)
            .ok_or_else(|| CliError::Runtime(format!("invalid dlq key {hex:?} (32 hex digits)")))
    };
    match (sub.as_str(), &pos[1..]) {
        ("list", []) => {
            let report_skipped = |skipped: usize| {
                if skipped > 0 {
                    eprintln!("skipped {skipped} unreadable dead-letter record(s)");
                }
            };
            if flags.contains_key("json") {
                let (json, skipped) = dlq.list_json().map_err(CliError::Runtime)?;
                println!("{json}");
                report_skipped(skipped);
                return Ok(());
            }
            let (infos, skipped) = dlq.list().map_err(CliError::Runtime)?;
            report_skipped(skipped);
            if infos.is_empty() {
                eprintln!("dead-letter queue is empty");
                return Ok(());
            }
            println!("{:<32}  {:>7}  {:>7}  {:<18}  error", "key", "bases", "strikes", "file");
            for info in infos {
                println!(
                    "{:<32}  {:>7}  {:>7}  {:<18}  {}",
                    info.key, info.original_len, info.strikes, info.file, info.last_error
                );
            }
            Ok(())
        }
        ("replay", [key]) => {
            let key = parse_key(key)?;
            let (info, req) = dlq.load(&key).map_err(CliError::Runtime)?;
            eprintln!(
                "replaying {} ({} bases, {} strike(s); last error: {})",
                info.file, info.original_len, info.strikes, info.last_error
            );
            // A fresh fault-free single-worker service: the letter is
            // forgiven only if the job actually completes now.
            let service = CompressionService::start(
                dnacomp::server::synthetic_framework(42),
                ServiceConfig {
                    workers: 1,
                    ..ServiceConfig::default()
                },
            );
            let ticket = service
                .submit(req)
                .map_err(|e| CliError::Runtime(format!("resubmit failed: {e}")))?;
            let outcome = ticket.wait();
            service.shutdown();
            match outcome {
                Ok(resp) => {
                    dlq.remove(&key).map_err(CliError::Runtime)?;
                    eprintln!(
                        "replay succeeded: {} -> {} bytes via {}; letter removed",
                        resp.original_len, resp.compressed_bytes, resp.algorithm
                    );
                    Ok(())
                }
                Err(e) => Err(CliError::Runtime(format!(
                    "replay failed ({e}); letter kept"
                ))),
            }
        }
        ("drop", [key]) => {
            let key = parse_key(key)?;
            if dlq.remove(&key).map_err(CliError::Runtime)? {
                eprintln!("dropped {}", key.to_hex());
                Ok(())
            } else {
                Err(CliError::Runtime(format!(
                    "no dead letter with key {}",
                    key.to_hex()
                )))
            }
        }
        _ => Err(usage(format!("dlq: bad arguments for {sub:?}"))),
    }
}

/// `dnacomp store <put|get|stat|verify|compact>` — the content-addressed
/// repository front end.
fn cmd_store(args: &[String]) -> Result<(), CliError> {
    let (flags, pos) = parse_flags(args, flags_of("store"))?;
    let sub = pos
        .first()
        .ok_or_else(|| usage("store: need a subcommand (put|get|stat|verify|compact|scrub)"))?;
    let dir = flags
        .get("dir")
        .ok_or_else(|| usage("store: --dir <store> required"))?;
    let open = || {
        SequenceStore::open(dir, StoreConfig::default())
            .map_err(|e| CliError::Runtime(format!("opening store {dir}: {e}")))
    };
    let parse_key = |hex: &str| {
        ContentKey::from_hex(hex)
            .ok_or_else(|| CliError::Runtime(format!("invalid store key {hex:?} (32 hex digits)")))
    };
    match (sub.as_str(), &pos[1..]) {
        ("put", [input]) => {
            let alg = algorithm_flag(&flags)?;
            let seq = read_fasta(input)?;
            let blob = compressor_for(alg)
                .compress(&seq)
                .map_err(|e| format!("compression failed: {e}"))?;
            let store = open()?;
            let out = store
                .put(&seq, &blob)
                .map_err(|e| format!("store put failed: {e}"))?;
            eprintln!(
                "{} {} bases as {} ({} bytes on disk)",
                if out.deduped { "deduplicated" } else { "stored" },
                seq.len(),
                alg.name(),
                store.snapshot().bytes_on_disk,
            );
            println!("{}", out.key.to_hex());
            Ok(())
        }
        ("get", [key, output]) => {
            let store = open()?;
            let key = parse_key(key)?;
            let blob = store
                .get(&key)
                .map_err(|e| format!("store get failed: {e}"))?;
            let seq = compressor_for(blob.algorithm)
                .decompress(&blob)
                .map_err(|e| format!("decompression failed: {e}"))?;
            let rec = Record {
                header: format!("dnacomp store {} ({})", key.to_hex(), blob.algorithm.name()),
                seq,
                cleaned: 0,
            };
            std::fs::write(output, write_fasta(std::slice::from_ref(&rec), 70))
                .map_err(|e| format!("writing {output}: {e}"))?;
            eprintln!("verified checksum; wrote {output}");
            Ok(())
        }
        ("stat", []) => {
            let store = open()?;
            let snap = store.snapshot();
            println!("records:        {}", snap.records);
            println!("segments:       {}", snap.segments);
            println!("runs:           {}", snap.runs);
            println!("tombstones:     {}", snap.tombstones);
            println!("bytes on disk:  {}", snap.bytes_on_disk);
            println!("live bytes:     {}", snap.live_bytes);
            println!("seals/merges:   {}/{}", snap.seals, snap.merges);
            println!("bloom negative: {}", snap.bloom_negatives);
            println!(
                "block cache:    {} hit / {} miss ({} bytes held)",
                snap.cache_hits, snap.cache_misses, snap.cache_bytes
            );
            println!(
                "wal:            {} append(s) in {} fsync batch(es)",
                snap.wal_appends, snap.wal_batches
            );
            for l in store.levels() {
                println!(
                    "level {}:        {} file(s), {} record(s) ({} dead), {} bytes ({} dead)",
                    l.level, l.files, l.records, l.dead_records, l.bytes, l.dead_bytes
                );
            }
            Ok(())
        }
        ("stat", [key]) => {
            let store = open()?;
            let key = parse_key(key)?;
            let stat = store
                .stat(&key)
                .ok_or_else(|| format!("unknown store key {}", key.to_hex()))?;
            println!("key:            {}", stat.key.to_hex());
            println!("algorithm:      {}", stat.algorithm.name());
            println!("original bases: {}", stat.original_len);
            println!("stored bytes:   {}", stat.stored_bytes);
            println!("level:          {}", stat.level);
            println!(
                "{} {}",
                if stat.level == 0 {
                    "segment:       "
                } else {
                    "run:           "
                },
                stat.segment
            );
            Ok(())
        }
        ("verify", []) => {
            let store = open()?;
            let report = store.verify();
            if report.is_clean() {
                eprintln!("{} record(s) verified, no corruption", report.checked);
                Ok(())
            } else {
                for f in &report.failures {
                    eprintln!("corrupt: {} ({})", f.key.to_hex(), f.error);
                }
                Err(CliError::Runtime(format!(
                    "{} of {} record(s) failed verification",
                    report.failures.len(),
                    report.checked
                )))
            }
        }
        ("compact", []) => {
            let store = open()?;
            let report = match flags.get("level") {
                Some(level) => {
                    let level: u32 = level
                        .parse()
                        .map_err(|_| usage(format!("store compact: bad --level {level:?}")))?;
                    store.compact_level(level)
                }
                None => store.compact(),
            }
            .map_err(|e| format!("compaction failed: {e}"))?;
            eprintln!(
                "removed {} file(s), reclaimed {} bytes, moved {} record(s)",
                report.segments_removed, report.bytes_reclaimed, report.records_moved
            );
            Ok(())
        }
        ("scrub", []) => {
            let store = open()?;
            let budget = match flags.get("records") {
                Some(n) => n
                    .parse()
                    .map_err(|_| usage(format!("store scrub: bad --records {n:?}")))?,
                None => usize::MAX >> 1,
            };
            let report = store.scrub_step(budget);
            if report.is_clean() {
                eprintln!("scrubbed {} run record(s), no corruption", report.checked);
                Ok(())
            } else {
                for f in &report.failures {
                    eprintln!("corrupt: {} ({})", f.key.to_hex(), f.error);
                }
                Err(CliError::Runtime(format!(
                    "{} scrub failure(s) across {} record(s)",
                    report.failures.len(),
                    report.checked
                )))
            }
        }
        _ => Err(usage(format!("store: bad arguments for {sub:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_flags_mixed() {
        let (flags, pos) = parse_flags(
            &s(&["--len", "100", "-a", "dnax", "out.fa"]),
            &["len", "algorithm"],
        )
        .unwrap();
        assert_eq!(flags.get("len").unwrap(), "100");
        assert_eq!(flags.get("algorithm").unwrap(), "dnax");
        assert_eq!(pos, vec!["out.fa"]);
    }

    #[test]
    fn an_unknown_flag_is_a_usage_error() {
        let err = run(&s(&["store", "compact", "--dir", "D", "--lvl", "1"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(ref m) if m.contains("--lvl")));
        // Each bench-serve mode refuses the flags of the others.
        let args = [
            "bench-serve", "--listen", "127.0.0.1:0", "--files", "1", "--contexts", "1",
            "--repeats", "1", "--store", "D",
        ];
        let err = run(&s(&args)).unwrap_err();
        assert!(matches!(err, CliError::Usage(ref m) if m.contains("--store")));
        let args = [
            "bench-serve", "--route", "--shards", "1", "--files", "1", "--contexts", "1",
            "--repeats", "1", "--section", "S",
        ];
        let err = run(&s(&args)).unwrap_err();
        assert!(matches!(err, CliError::Usage(ref m) if m.contains("--section")));
    }

    #[test]
    fn a_value_flag_without_a_value_is_a_usage_error() {
        let args = [
            "serve", "--workers", "1", "--files", "1", "--contexts", "1", "--repeats", "1",
            "--json", "--store",
        ];
        let err = run(&s(&args)).unwrap_err();
        assert!(matches!(err, CliError::Usage(ref m) if m.contains("--store")));
    }

    /// Each command's usage lines (the one naming it plus its indented
    /// continuations) name every flag the command accepts.
    #[test]
    fn every_accepted_flag_is_named_in_usage() {
        for (command, flags) in COMMAND_FLAGS {
            let mut text = String::new();
            let mut inside = false;
            for line in USAGE.lines() {
                if let Some(rest) = line.strip_prefix("  dnacomp ") {
                    inside = rest == *command || rest.starts_with(&format!("{command} "));
                } else if !line.starts_with("    ") {
                    inside = false;
                }
                if inside {
                    text.push_str(line);
                    text.push('\n');
                }
            }
            assert!(!text.is_empty(), "{command} has no usage line");
            let tokens: Vec<&str> = text
                .split(|c: char| c.is_whitespace() || "[]|".contains(c))
                .collect();
            for flag in *flags {
                let spelled = match *flag {
                    "algorithm" => "-a".to_owned(),
                    flag => format!("--{flag}"),
                };
                assert!(tokens.contains(&spelled.as_str()), "{command}: {spelled} not in USAGE");
            }
        }
    }

    #[test]
    fn bench_serve_wire_modes_write_their_reports() {
        let dir = std::env::temp_dir().join(format!("dnacomp-cli-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let toy = s(&[
            "--files", "1", "--contexts", "1", "--repeats", "1", "--clients", "1", "--workers", "1",
        ]);
        let read = |path: &str| std::fs::read_to_string(path).unwrap();

        let net = dir.join("net.json").to_string_lossy().into_owned();
        run(&[s(&["bench-serve", "--listen", "127.0.0.1:0", "--out", &net]), toy.clone()].concat())
            .unwrap();
        let report: dnacomp_bench::NetBenchReport = serde_json::from_str(&read(&net)).unwrap();
        assert_eq!(report.completed, report.jobs);
        assert_eq!(report.protocol_errors, 0);

        let route = dir.join("route.json").to_string_lossy().into_owned();
        run(&[s(&["bench-serve", "--route", "--shards", "1", "--out", &route]), toy].concat())
            .unwrap();
        let report: dnacomp_bench::RouteBenchReport = serde_json::from_str(&read(&route)).unwrap();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].completed, report.rows[0].jobs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn gen_compress_decompress_cycle() {
        let dir = std::env::temp_dir().join("dnacomp-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let fa = dir.join("t.fa").to_string_lossy().into_owned();
        let dx = dir.join("t.dx").to_string_lossy().into_owned();
        let out = dir.join("t.out.fa").to_string_lossy().into_owned();
        run(&s(&["gen", "--len", "5000", "--seed", "9", &fa])).unwrap();
        run(&s(&["compress", "-a", "dnax", &fa, &dx])).unwrap();
        run(&s(&["info", &dx])).unwrap();
        run(&s(&["decompress", &dx, &out])).unwrap();
        let a = read_fasta(&fa).unwrap();
        let b = read_fasta(&out).unwrap();
        assert_eq!(a, b);
        // A framed container takes the same info/decompress path.
        run(&s(&["compress", "-a", "dnax", "--block-size", "1024", "--threads", "2", &fa, &dx]))
            .unwrap();
        assert!(CompressedBlob::from_bytes(&std::fs::read(&dx).unwrap()).unwrap().is_framed());
        run(&s(&["info", &dx])).unwrap();
        run(&s(&["decompress", &dx, &out])).unwrap();
        assert_eq!(read_fasta(&out).unwrap(), a);
        let err = run(&s(&["compress", "-a", "dnax", "--block-size", "4194305", &fa, &dx]))
            .unwrap_err();
        assert!(matches!(err, CliError::Usage(ref m) if m.contains("at most")));
    }

    #[test]
    fn compress_rejects_unknown_algorithm() {
        let err = run(&s(&["compress", "-a", "nope", "x.fa", "y.dx"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(ref m) if m.contains("unknown algorithm")));
    }

    #[test]
    fn list_runs() {
        run(&s(&["list"])).unwrap();
    }

    #[test]
    fn missing_input_is_a_runtime_error() {
        let err = run(&s(&["compress", "/no/such/file.fa", "out.dx"])).unwrap_err();
        assert!(matches!(err, CliError::Runtime(ref m) if m.contains("/no/such/file.fa")));
        let err = run(&s(&["info", "/no/such/file.dx"])).unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)));
    }

    #[test]
    fn store_cycle_put_get_stat_verify_compact() {
        let dir = std::env::temp_dir().join(format!("dnacomp-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let repo = dir.join("repo").to_string_lossy().into_owned();
        let fa = dir.join("s.fa").to_string_lossy().into_owned();
        let out = dir.join("s.out.fa").to_string_lossy().into_owned();
        run(&s(&["gen", "--len", "4000", "--seed", "11", &fa])).unwrap();
        // put twice: second run must dedupe, key comes via put's stdout
        // (not capturable here) so re-derive it from the sequence.
        run(&s(&["store", "put", "--dir", &repo, &fa])).unwrap();
        run(&s(&["store", "put", "--dir", &repo, &fa])).unwrap();
        let key = ContentKey::of_sequence(&read_fasta(&fa).unwrap()).to_hex();
        run(&s(&["store", "stat", "--dir", &repo])).unwrap();
        run(&s(&["store", "stat", "--dir", &repo, &key])).unwrap();
        run(&s(&["store", "get", "--dir", &repo, &key, &out])).unwrap();
        assert_eq!(read_fasta(&fa).unwrap(), read_fasta(&out).unwrap());
        run(&s(&["store", "verify", "--dir", &repo])).unwrap();
        run(&s(&["store", "compact", "--dir", &repo])).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_persists_dlq_and_replay_drop_clear_it() {
        let dir = std::env::temp_dir().join(format!("dnacomp-cli-dlq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dlq = dir.join("dlq").to_string_lossy().into_owned();
        // Every file panics and one strike quarantines: each of the 3
        // unique corpus files must land in the persisted DLQ.
        run(&s(&[
            "serve", "--workers", "2", "--files", "3", "--contexts", "1", "--repeats", "1",
            "--panic-rate", "1.0", "--quarantine-after", "1", "--dlq-dir", &dlq, "--json",
        ]))
        .unwrap();
        let mut keys: Vec<String> = std::fs::read_dir(&dlq)
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                (p.extension().and_then(|x| x.to_str()) == Some("json"))
                    .then(|| p.file_stem().unwrap().to_string_lossy().into_owned())
            })
            .collect();
        keys.sort();
        assert_eq!(keys.len(), 3, "every poisoned file must be persisted");
        run(&s(&["dlq", "list", "--dir", &dlq])).unwrap();
        run(&s(&["dlq", "list", "--dir", &dlq, "--json"])).unwrap();
        // Replay is fault-free, so the job completes and the letter
        // is forgiven; drop discards another outright.
        run(&s(&["dlq", "replay", "--dir", &dlq, &keys[0]])).unwrap();
        run(&s(&["dlq", "drop", "--dir", &dlq, &keys[1]])).unwrap();
        let err = run(&s(&["dlq", "drop", "--dir", &dlq, &keys[1]])).unwrap_err();
        assert!(matches!(err, CliError::Runtime(ref m) if m.contains("no dead letter")));
        let left = std::fs::read_dir(&dlq)
            .unwrap()
            .filter(|e| {
                e.as_ref().unwrap().path().extension().and_then(|x| x.to_str()) == Some("json")
            })
            .count();
        assert_eq!(left, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_unknown_key_is_a_runtime_error() {
        let dir = std::env::temp_dir().join(format!("dnacomp-cli-miss-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let repo = dir.to_string_lossy().into_owned();
        let missing = "0".repeat(32);
        let err = run(&s(&["store", "get", "--dir", &repo, &missing, "x.fa"])).unwrap_err();
        assert!(matches!(err, CliError::Runtime(ref m) if m.contains("no record with key")));
        let err = run(&s(&["store", "stat", "--dir", &repo, &missing])).unwrap_err();
        assert!(matches!(err, CliError::Runtime(ref m) if m.contains("unknown store key")));
        let err = run(&s(&["store", "get", "--dir", &repo, "zz", "x.fa"])).unwrap_err();
        assert!(matches!(err, CliError::Runtime(ref m) if m.contains("invalid store key")));
        // Bad argument shape is a usage error, not a runtime one.
        let err = run(&s(&["store", "put", "--dir", &repo])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let err = run(&s(&["store", "frob", "--dir", &repo])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
