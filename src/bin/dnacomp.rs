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

use dnacomp::algos::{compressor_for, Algorithm, CompressedBlob, FramedBlob, ParallelCompressor, TaskPool};
use dnacomp::cloud::{context_grid, MachineSpec, PerfModel};
use dnacomp::core::{build_rows, label_rows, measure_corpus, Context, ContextAwareFramework, WeightVector};
use dnacomp::ml::TreeMethod;
use dnacomp::seq::fasta::{write_fasta, Cleanser, Record};
use dnacomp::seq::gen::GenomeModel;
use dnacomp::seq::corpus::CorpusBuilder;
use dnacomp::seq::PackedSeq;
use dnacomp::server::{
    build_workload, rebalance_resumable, repair, run_algo_bench, run_bench, run_net_bench,
    run_route_bench, run_store_bench, AlgoBenchConfig, BenchConfig, ClientError,
    CompressionService, DlqDir, NetBenchConfig, NetClient, NetConfig, NetServer, Priority,
    Response, Ring, RouteBenchConfig, RouterConfig, RouterServer, ServiceConfig, ShardSpec,
    StoreBenchConfig, DEFAULT_RING_SEED, DEFAULT_VNODES,
};
use dnacomp::store::{ContentKey, SequenceStore, StoreConfig};
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
                       [--replicas <n>] [--buckets <n>] [--timeout-ms <n>]
  dnacomp client <ping|metrics|compress|get|stat> --addr <host:port>
                 [--timeout-ms <n>] [--retry <n>]
                 [--priority high|normal|low] [args…]
  dnacomp bench-serve [--workers 1,4,8] [--files <n>] [--contexts <n>]
                      [--repeats <n>] [--block-size <bases>] [--json] [--out <path>]
                      [--listen <addr>] [--clients <n>]
                      [--route] [--shards 1,3] [--pool <n>]
                      [--replicas <n>] [--write-quorum <n>]
  dnacomp bench-algos [--quick] [--threads <n>] [--lanes <n>]
                      [--block-size <bases>] [--json] [--out <path>]
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
fan out to --replicas ring successors and ack once --write-quorum
commit, reads fall through the replica set (repairing divergent copies
on the way), misses on a down replica persist hints in --hint-dir that
drain when the shard returns, health probes eject dead shards, and
`client metrics` against the router returns the aggregated per-shard
rollup; route rebalance migrates misplaced keys between shard stores
in checksummed batches after a membership change (resumable via
--cursor); route repair is the anti-entropy sweep: per-shard FNV-1a
digest buckets are compared and only differing buckets ship. serve
--shard-id/--epoch pin a shard's identity for epoch-checked
handshakes.
bench-serve --listen runs the loopback network throughput bench and
writes BENCH_net.json; bench-serve --route sweeps shard counts behind
a router and writes BENCH_route.json. (add --store <dir> to persist
every result; --panic-rate/--kill-rate inject deterministic worker
faults and --dlq-dir persists the quarantine at shutdown; --block-size
compresses big jobs as block-parallel frames on the shared pool);
bench-serve sweeps worker counts and reports wall-clock and simulated
throughput; bench-algos measures per-algorithm compress/decompress
MB/s, single-thread vs block-parallel, plus the 2-bit packing kernels
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

/// Flags that take no value (`--json`, not `--json true`).
const BOOLEAN_FLAGS: [&str; 4] = ["json", "exchange", "quick", "route"];

/// Pull `--flag value` out of an argument list; remaining positionals
/// are returned in order. Flags in [`BOOLEAN_FLAGS`] consume no value
/// and are recorded as `"true"`.
fn parse_flags(args: &[String]) -> (std::collections::HashMap<String, String>, Vec<String>) {
    let mut flags = std::collections::HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if BOOLEAN_FLAGS.contains(&name) {
                flags.insert(name.to_owned(), "true".to_owned());
            } else if let Some(v) = it.next() {
                flags.insert(name.to_owned(), v.clone());
            }
        } else if a == "-a" {
            if let Some(v) = it.next() {
                flags.insert("algorithm".to_owned(), v.clone());
            }
        } else {
            positional.push(a.clone());
        }
    }
    (flags, positional)
}

fn read_fasta(path: &str) -> Result<PackedSeq, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Cleanser::default()
        .parse_single(&text)
        .map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_gen(args: &[String]) -> Result<(), CliError> {
    let (flags, pos) = parse_flags(args);
    let out = pos.first().ok_or_else(|| usage("gen: missing output path"))?;
    let len: usize = flags
        .get("len")
        .ok_or_else(|| usage("gen: --len required"))?
        .parse()
        .map_err(|e| usage(format!("--len: {e}")))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse())
        .transpose()
        .map_err(|e| usage(format!("--seed: {e}")))?
        .unwrap_or(42);
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
fn algorithm_flag(
    flags: &std::collections::HashMap<String, String>,
) -> Result<Algorithm, CliError> {
    let alg_name = flags
        .get("algorithm")
        .map(String::as_str)
        .unwrap_or("dnax");
    Algorithm::from_name(alg_name)
        .filter(|a| Algorithm::HORIZONTAL.contains(a))
        .ok_or_else(|| usage(format!("unknown algorithm {alg_name:?}")))
}

fn cmd_compress(args: &[String]) -> Result<(), CliError> {
    let (flags, pos) = parse_flags(args);
    let (input, output) = match pos.as_slice() {
        [i, o] => (i, o),
        _ => return Err(usage("compress: need <in.fa> <out.dx>")),
    };
    let alg = algorithm_flag(&flags)?;
    let block_size: Option<usize> = flags
        .get("block-size")
        .map(|v| v.parse().map_err(|e| usage(format!("--block-size: {e}"))))
        .transpose()?;
    let seq = read_fasta(input)?;
    let t0 = std::time::Instant::now();
    match block_size {
        Some(0) => return Err(usage("--block-size: must be positive")),
        Some(bs) => {
            // Framed block-parallel container on a process-local pool.
            let threads = flags
                .get("threads")
                .map(|v| v.parse().map_err(|e| usage(format!("--threads: {e}"))))
                .transpose()?
                .unwrap_or_else(|| {
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
    let (_, pos) = parse_flags(args);
    let (input, output) = match pos.as_slice() {
        [i, o] => (i, o),
        _ => return Err(usage("decompress: need <in.dx> <out.fa>")),
    };
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    // Sniff the container family: framed block container vs flat blob.
    let (seq, origin) = if FramedBlob::is_frame(&bytes) {
        let frame = FramedBlob::from_bytes(&bytes).map_err(|e| format!("{input}: {e}"))?;
        let seq = dnacomp::algos::frame::decompress_serial(&frame)
            .map_err(|e| format!("decompression failed: {e}"))?;
        (seq, format!("frame, {} blocks", frame.blocks.len()))
    } else {
        let blob = CompressedBlob::from_bytes(&bytes).map_err(|e| format!("{input}: {e}"))?;
        if blob.algorithm == Algorithm::Reference {
            return Err(CliError::Runtime(
                "reference-based blobs need the reference; use the library API".into(),
            ));
        }
        let compressor = compressor_for(blob.algorithm);
        let seq = compressor
            .decompress(&blob)
            .map_err(|e| format!("decompression failed: {e}"))?;
        (seq, blob.algorithm.name().to_owned())
    };
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
    let (_, pos) = parse_flags(args);
    let input = pos.first().ok_or_else(|| usage("info: need <in.dx>"))?;
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    if FramedBlob::is_frame(&bytes) {
        let frame = FramedBlob::from_bytes(&bytes).map_err(|e| format!("{input}: {e}"))?;
        let algs: std::collections::BTreeSet<&str> =
            frame.blocks.iter().map(|b| b.algorithm.name()).collect();
        println!("container:      framed, {} blocks", frame.blocks.len());
        println!("algorithm(s):   {}", algs.into_iter().collect::<Vec<_>>().join(", "));
        println!("block size:     {} bases", frame.block_size);
        println!("original bases: {}", frame.total_len);
        println!("frame bytes:    {}", frame.total_bytes());
        println!("bits/base:      {:.4}", frame.bits_per_base());
        println!("checksum:       {:#018x}", frame.checksum);
        return Ok(());
    }
    let blob = CompressedBlob::from_bytes(&bytes).map_err(|e| format!("{input}: {e}"))?;
    println!("algorithm:      {}", blob.algorithm.name());
    println!("original bases: {}", blob.original_len);
    println!("container:      {} bytes", blob.total_bytes());
    println!("bits/base:      {:.4}", blob.bits_per_base());
    println!("checksum:       {:#018x}", blob.checksum);
    Ok(())
}

fn cmd_decide(args: &[String]) -> Result<(), CliError> {
    let (flags, _) = parse_flags(args);
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

/// Shared flag parsing for `serve` / `bench-serve` workloads.
fn bench_config_from_flags(
    flags: &std::collections::HashMap<String, String>,
) -> Result<BenchConfig, CliError> {
    let mut cfg = BenchConfig::default();
    let parse_usize = |name: &str, default: usize| -> Result<usize, CliError> {
        flags
            .get(name)
            .map(|v| v.parse().map_err(|e| usage(format!("--{name}: {e}"))))
            .unwrap_or(Ok(default))
    };
    cfg.files = parse_usize("files", cfg.files)?;
    cfg.contexts = parse_usize("contexts", cfg.contexts)?;
    cfg.repeats = parse_usize("repeats", cfg.repeats)?;
    cfg.seed = flags
        .get("seed")
        .map(|v| v.parse().map_err(|e| usage(format!("--seed: {e}"))))
        .unwrap_or(Ok(cfg.seed))?;
    cfg.exchange = flags.get("exchange").map(String::as_str) == Some("true");
    cfg.block_size = flags
        .get("block-size")
        .map(|v| v.parse().map_err(|e| usage(format!("--block-size: {e}"))))
        .transpose()?;
    if cfg.block_size == Some(0) {
        return Err(usage("--block-size: must be positive"));
    }
    Ok(cfg)
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let (flags, _) = parse_flags(args);
    let workers: usize = flags
        .get("workers")
        .ok_or_else(|| usage("serve: --workers required"))?
        .parse()
        .map_err(|e| usage(format!("--workers: {e}")))?;
    let mut cfg = bench_config_from_flags(&flags)?;
    let parse_f64 = |name: &str| -> Result<f64, CliError> {
        flags
            .get(name)
            .map(|v| v.parse().map_err(|e| usage(format!("--{name}: {e}"))))
            .unwrap_or(Ok(0.0))
    };
    let fault_rate = parse_f64("fault-rate")?;
    let panic_rate = parse_f64("panic-rate")?;
    let kill_rate = parse_f64("kill-rate")?;
    let shed_above: Option<usize> = flags
        .get("shed-above")
        .map(|v| v.parse().map_err(|e| usage(format!("--shed-above: {e}"))))
        .transpose()?;
    let mut svc = ServiceConfig::default();
    if let Some(v) = flags.get("restart-budget") {
        svc.restart_budget = v.parse().map_err(|e| usage(format!("--restart-budget: {e}")))?;
    }
    if let Some(v) = flags.get("quarantine-after") {
        svc.quarantine_after = v
            .parse()
            .map_err(|e| usage(format!("--quarantine-after: {e}")))?;
    }
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
    svc.shed_above = shed_above;
    // Background scrub of the attached store's runs: --scrub-ms sets
    // the tick interval (only meaningful alongside --store).
    if let Some(ms) = flags.get("scrub-ms") {
        let ms: u64 = ms.parse().map_err(|e| usage(format!("--scrub-ms: {e}")))?;
        if ms > 0 {
            svc.scrub_interval = Some(std::time::Duration::from_millis(ms));
        }
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
    // Persist the quarantine before shutdown: every dead letter moves
    // to disk, so the final snapshot truthfully reports dlq_depth 0.
    if let Some(dir) = flags.get("dlq-dir") {
        let letters = service.dlq_drain();
        let dlq = DlqDir::open(dir).map_err(CliError::Runtime)?;
        for letter in &letters {
            dlq.save(letter).map_err(CliError::Runtime)?;
        }
        eprintln!("persisted {} dead letter(s) to {dir}", letters.len());
    }
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
    flags: &std::collections::HashMap<String, String>,
) -> Result<(), CliError> {
    let serve_secs: f64 = flags
        .get("serve-secs")
        .map(|v| v.parse().map_err(|e| usage(format!("--serve-secs: {e}"))))
        .unwrap_or(Ok(0.0))?;
    let mut net = NetConfig {
        exchange: cfg.exchange,
        store,
        ..NetConfig::default()
    };
    if let Some(v) = flags.get("max-conns") {
        net.max_connections = v.parse().map_err(|e| usage(format!("--max-conns: {e}")))?;
    }
    // Cluster identity: --shard-id is the id this node answers to in
    // epoch handshakes; --epoch pins the node to one ring epoch (a
    // mismatching HelloEpoch is refused with `wrong-shard`). Leaving
    // both off keeps the node epoch-agnostic, as before.
    if let Some(v) = flags.get("shard-id") {
        net.shard_id = v.parse().map_err(|e| usage(format!("--shard-id: {e}")))?;
    }
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
    let snapshot = service.shutdown();
    println!("{}", snapshot.to_json());
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
fn ring_from_flags(
    flags: &std::collections::HashMap<String, String>,
) -> Result<Ring, CliError> {
    let shards = parse_shards(
        flags
            .get("shards")
            .ok_or_else(|| usage("route: --shards <addr,addr,…> required"))?,
    )?;
    let vnodes: u32 = flags
        .get("vnodes")
        .map(|v| v.parse().map_err(|e| usage(format!("--vnodes: {e}"))))
        .unwrap_or(Ok(DEFAULT_VNODES))?;
    let seed: u64 = flags
        .get("seed")
        .map(|v| v.parse().map_err(|e| usage(format!("--seed: {e}"))))
        .unwrap_or(Ok(DEFAULT_RING_SEED))?;
    Ring::new(shards, vnodes, seed).map_err(CliError::Runtime)
}

/// `dnacomp route <serve|rebalance|repair>` — the shard router
/// front-end, the over-the-wire key migration it needs after
/// membership changes, and the anti-entropy sweep that re-converges
/// replicas after a shard loses data.
fn cmd_route(args: &[String]) -> Result<(), CliError> {
    let sub = args
        .first()
        .ok_or_else(|| usage("route: need a subcommand (serve|rebalance|repair)"))?;
    let (flags, _) = parse_flags(&args[1..]);
    let parse_replicas = |flags: &std::collections::HashMap<String, String>| {
        flags
            .get("replicas")
            .map(|v| v.parse::<usize>().map_err(|e| usage(format!("--replicas: {e}"))))
            .unwrap_or(Ok(RouterConfig::default().replicas))
            .map(|r| r.max(1))
    };
    match sub.as_str() {
        "serve" => {
            let listen = flags
                .get("listen")
                .ok_or_else(|| usage("route serve: --listen <host:port> required"))?;
            let ring = ring_from_flags(&flags)?;
            let mut cfg = RouterConfig::default();
            if let Some(v) = flags.get("pool") {
                cfg.pool_per_shard = v.parse().map_err(|e| usage(format!("--pool: {e}")))?;
            }
            cfg.replicas = parse_replicas(&flags)?;
            if let Some(v) = flags.get("write-quorum") {
                cfg.write_quorum = v
                    .parse::<usize>()
                    .map_err(|e| usage(format!("--write-quorum: {e}")))?
                    .max(1);
            }
            if let Some(dir) = flags.get("hint-dir") {
                cfg.hint_dir = Some(std::path::PathBuf::from(dir));
            }
            if let Some(v) = flags.get("hint-cap") {
                cfg.hint_cap = v
                    .parse::<usize>()
                    .map_err(|e| usage(format!("--hint-cap: {e}")))?
                    .max(1);
            }
            if let Some(v) = flags.get("shard-timeout-ms") {
                let ms: u64 = v
                    .parse()
                    .map_err(|e| usage(format!("--shard-timeout-ms: {e}")))?;
                cfg.shard_timeout = std::time::Duration::from_millis(ms.max(1));
            }
            if let Some(v) = flags.get("probe-ms") {
                let ms: u64 = v.parse().map_err(|e| usage(format!("--probe-ms: {e}")))?;
                cfg.probe_interval = std::time::Duration::from_millis(ms.max(1));
            }
            if let Some(v) = flags.get("max-conns") {
                cfg.max_connections =
                    v.parse().map_err(|e| usage(format!("--max-conns: {e}")))?;
            }
            let route_secs: f64 = flags
                .get("route-secs")
                .map(|v| v.parse().map_err(|e| usage(format!("--route-secs: {e}"))))
                .unwrap_or(Ok(0.0))?;
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
        "rebalance" => {
            let ring = ring_from_flags(&flags)?;
            let replicas = parse_replicas(&flags)?;
            let timeout_ms: u64 = flags
                .get("timeout-ms")
                .map(|v| v.parse().map_err(|e| usage(format!("--timeout-ms: {e}"))))
                .unwrap_or(Ok(10_000))?;
            let batch: usize = flags
                .get("batch")
                .map(|v| v.parse().map_err(|e| usage(format!("--batch: {e}"))))
                .unwrap_or(Ok(64))?;
            let cursor = flags.get("cursor").map(std::path::PathBuf::from);
            let report = rebalance_resumable(
                &ring,
                replicas,
                std::time::Duration::from_millis(timeout_ms.max(1)),
                batch,
                cursor.as_deref(),
            )
            .map_err(CliError::Runtime)?;
            eprintln!(
                "rebalance (epoch {:#x}, {replicas} replica(s)): scanned {}, skipped {} via cursor, \
                 moved {} ({} deduped), removed {}, {} container byte(s) shipped",
                ring.epoch(),
                report.scanned,
                report.skipped,
                report.moved,
                report.deduped,
                report.removed,
                report.bytes
            );
            Ok(())
        }
        "repair" => {
            let ring = ring_from_flags(&flags)?;
            let replicas = parse_replicas(&flags)?;
            let timeout_ms: u64 = flags
                .get("timeout-ms")
                .map(|v| v.parse().map_err(|e| usage(format!("--timeout-ms: {e}"))))
                .unwrap_or(Ok(10_000))?;
            let buckets: u32 = flags
                .get("buckets")
                .map(|v| v.parse().map_err(|e| usage(format!("--buckets: {e}"))))
                .unwrap_or(Ok(256))?;
            let report = repair(
                &ring,
                replicas,
                std::time::Duration::from_millis(timeout_ms.max(1)),
                buckets,
            )
            .map_err(CliError::Runtime)?;
            eprintln!(
                "repair (epoch {:#x}, {replicas} replica(s)): {} key(s) scanned, \
                 {} of {} digest bucket(s) differed, {} shipped — {} record(s) \
                 ({} deduped), {} container byte(s)",
                ring.epoch(),
                report.keys_scanned,
                report.buckets_differing,
                report.buckets_checked,
                report.buckets_shipped,
                report.keys_shipped,
                report.deduped,
                report.bytes
            );
            Ok(())
        }
        other => Err(usage(format!("route: unknown subcommand {other:?}"))),
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
    let (flags, pos) = parse_flags(args);
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
    let timeout_ms: u64 = flags
        .get("timeout-ms")
        .map(|v| v.parse().map_err(|e| usage(format!("--timeout-ms: {e}"))))
        .unwrap_or(Ok(10_000))?;
    let timeout = std::time::Duration::from_millis(timeout_ms.max(1));
    let retries: u32 = flags
        .get("retry")
        .map(|v| v.parse().map_err(|e| usage(format!("--retry: {e}"))))
        .unwrap_or(Ok(0))?;
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
    let (flags, _) = parse_flags(args);
    if flags.contains_key("route") {
        return bench_serve_route(&flags);
    }
    let mut cfg = bench_config_from_flags(&flags)?;
    if let Some(listen) = flags.get("listen") {
        return bench_serve_listen(listen, &cfg, &flags);
    }
    if let Some(list) = flags.get("workers") {
        cfg.worker_counts = list
            .split(',')
            .map(|w| w.trim().parse().map_err(|e| usage(format!("--workers: {e}"))))
            .collect::<Result<_, _>>()?;
        if cfg.worker_counts.is_empty() {
            return Err(usage("--workers: need at least one count"));
        }
    }
    eprintln!(
        "bench-serve: {} files × {} contexts × {} passes, workers {:?} …",
        cfg.files, cfg.contexts, cfg.repeats, cfg.worker_counts
    );
    let report = run_bench(&cfg);
    if let Some(path) = flags.get("out") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if flags.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        println!(
            "{:>7}  {:>10}  {:>14}  {:>13}  {:>12}  {:>9}",
            "workers", "jobs/s(sim)", "makespan(sim)", "jobs/s(wall)", "cache hit", "speedup"
        );
        for p in &report.sweep {
            println!(
                "{:>7}  {:>10.1}  {:>11.0} ms  {:>13.1}  {:>8.1} %  {:>8.2}x",
                p.workers,
                p.jobs_per_sim_sec,
                p.sim_makespan_ms,
                p.jobs_per_wall_sec,
                p.cache_hit_rate * 100.0,
                p.speedup_vs_one
            );
        }
    }
    Ok(())
}

/// `bench-serve --route`: the routed-cluster throughput sweep
/// (BENCH_route.json). Sweeps shard counts behind a router and reports
/// the 3-vs-1 aggregate speedup.
fn bench_serve_route(
    flags: &std::collections::HashMap<String, String>,
) -> Result<(), CliError> {
    let mut cfg = RouteBenchConfig::default();
    if let Some(list) = flags.get("shards") {
        cfg.shard_counts = list
            .split(',')
            .map(|w| w.trim().parse().map_err(|e| usage(format!("--shards: {e}"))))
            .collect::<Result<_, _>>()?;
        if cfg.shard_counts.is_empty() {
            return Err(usage("--shards: need at least one count"));
        }
    }
    let parse_usize = |name: &str, default: usize| -> Result<usize, CliError> {
        flags
            .get(name)
            .map(|v| v.parse().map_err(|e| usage(format!("--{name}: {e}"))))
            .unwrap_or(Ok(default))
    };
    cfg.clients = parse_usize("clients", cfg.clients)?.max(1);
    cfg.pool_per_shard = parse_usize("pool", cfg.pool_per_shard)?.max(1);
    cfg.replicas = parse_usize("replicas", cfg.replicas)?.max(1);
    cfg.write_quorum = parse_usize("write-quorum", cfg.write_quorum)?.max(1);
    cfg.workers_per_shard = flags
        .get("workers")
        .and_then(|list| list.split(',').next().map(str::trim).map(str::parse))
        .transpose()
        .map_err(|e| usage(format!("--workers: {e}")))?
        .unwrap_or(cfg.workers_per_shard);
    cfg.workload.files = parse_usize("files", cfg.workload.files)?;
    cfg.workload.contexts = parse_usize("contexts", cfg.workload.contexts)?;
    cfg.workload.repeats = parse_usize("repeats", cfg.workload.repeats)?;
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
    if let Some(path) = flags.get("out") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if flags.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        println!(
            "{:>6}  {:>5}  {:>13}  {:>9}  {:>8}  {:>9}  {:>5}  {:>7}  {:>11}",
            "shards", "jobs", "jobs/s(wall)", "forwards", "retries", "ejections", "R/W", "w-amp",
            "q-p95(ms)"
        );
        for r in &report.rows {
            println!(
                "{:>6}  {:>5}  {:>13.1}  {:>9}  {:>8}  {:>9}  {:>2}/{:<2}  {:>7.2}  {:>11.2}",
                r.shards,
                r.jobs,
                r.jobs_per_wall_sec,
                r.route_forwards,
                r.route_retries,
                r.shard_ejections,
                r.replicas,
                r.write_quorum,
                r.write_amplification,
                r.quorum_p95_ms
            );
        }
        if report.speedup_3_vs_1 > 0.0 {
            println!("speedup 3 vs 1: {:.2}x", report.speedup_3_vs_1);
        }
    }
    Ok(())
}

/// `bench-serve --listen`: the loopback network throughput row.
fn bench_serve_listen(
    listen: &str,
    cfg: &BenchConfig,
    flags: &std::collections::HashMap<String, String>,
) -> Result<(), CliError> {
    let parse_usize = |name: &str, default: usize| -> Result<usize, CliError> {
        flags
            .get(name)
            .map(|v| v.parse().map_err(|e| usage(format!("--{name}: {e}"))))
            .unwrap_or(Ok(default))
    };
    let nb = NetBenchConfig {
        clients: parse_usize("clients", 4)?.max(1),
        // The in-process bench sweeps a worker list; the network row
        // uses one pool size (the first of --workers, default 4).
        workers: flags
            .get("workers")
            .and_then(|list| list.split(',').next().map(str::trim).map(str::parse))
            .transpose()
            .map_err(|e| usage(format!("--workers: {e}")))?
            .unwrap_or(4),
        listen: listen.to_owned(),
        workload: cfg.clone(),
    };
    eprintln!(
        "bench-serve --listen: {} files × {} contexts × {} passes over {} client(s), {} worker(s) …",
        nb.workload.files, nb.workload.contexts, nb.workload.repeats, nb.clients, nb.workers
    );
    let report = run_net_bench(&nb).map_err(CliError::Runtime)?;
    if let Some(path) = flags.get("out") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if flags.contains_key("json") {
        println!("{}", report.to_json());
    } else {
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
    if report.completed + report.refused != report.jobs {
        return Err(CliError::Runtime(format!(
            "accounting hole: {} completed + {} refused != {} jobs",
            report.completed, report.refused, report.jobs
        )));
    }
    Ok(())
}

/// `dnacomp bench-algos` — per-algorithm throughput, single-thread vs
/// block-parallel, plus the 2-bit packing kernel micro-benchmark.
/// `--quick` is the CI perf smoke gate (round-trip + kernel-floor
/// assertions; failure is a runtime error → exit 1).
fn cmd_bench_algos(args: &[String]) -> Result<(), CliError> {
    let (flags, _) = parse_flags(args);
    let mut cfg = AlgoBenchConfig {
        quick: flags.get("quick").map(String::as_str) == Some("true"),
        ..AlgoBenchConfig::default()
    };
    if let Some(v) = flags.get("threads") {
        cfg.threads = v.parse().map_err(|e| usage(format!("--threads: {e}")))?;
    }
    if let Some(v) = flags.get("lanes") {
        cfg.lanes = v.parse().map_err(|e| usage(format!("--lanes: {e}")))?;
        if cfg.lanes == 0 {
            return Err(usage("--lanes: must be positive"));
        }
    }
    if let Some(v) = flags.get("block-size") {
        let bs: usize = v.parse().map_err(|e| usage(format!("--block-size: {e}")))?;
        if bs == 0 {
            return Err(usage("--block-size: must be positive"));
        }
        cfg.block_size = Some(bs);
    }
    if let Some(v) = flags.get("seed") {
        cfg.seed = v.parse().map_err(|e| usage(format!("--seed: {e}")))?;
    }
    eprintln!(
        "bench-algos: {} mode, {} pool thread(s), {} lanes …",
        if cfg.quick { "quick (smoke gate)" } else { "full" },
        cfg.threads,
        cfg.lanes
    );
    let report = run_algo_bench(&cfg).map_err(CliError::Runtime)?;
    if let Some(path) = flags.get("out") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if flags.contains_key("json") {
        println!("{}", report.to_json());
    } else {
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
    let (flags, _) = parse_flags(args);
    let quick = flags.get("quick").map(String::as_str) == Some("true");
    let mut cfg = if quick {
        StoreBenchConfig::quick()
    } else {
        StoreBenchConfig::default()
    };
    if let Some(list) = flags.get("objects") {
        cfg.open_sweep = list
            .split(',')
            .map(|w| w.trim().parse().map_err(|e| usage(format!("--objects: {e}"))))
            .collect::<Result<_, _>>()?;
        if cfg.open_sweep.len() < 2 {
            return Err(usage("--objects: need at least two counts for the sweep"));
        }
    }
    if let Some(v) = flags.get("payload") {
        cfg.payload_bytes = v.parse().map_err(|e| usage(format!("--payload: {e}")))?;
        if cfg.payload_bytes == 0 {
            return Err(usage("--payload: must be positive"));
        }
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
    if let Some(path) = flags.get("out") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if flags.contains_key("json") {
        println!("{}", report.to_json());
    } else {
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
    let (flags, pos) = parse_flags(args);
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
            if flags.contains_key("json") {
                println!("{}", dlq.list_json().map_err(CliError::Runtime)?);
                return Ok(());
            }
            let infos = dlq.list().map_err(CliError::Runtime)?;
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
    let (flags, pos) = parse_flags(args);
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
        let (flags, pos) = parse_flags(&s(&["--len", "100", "-a", "dnax", "out.fa"]));
        assert_eq!(flags.get("len").unwrap(), "100");
        assert_eq!(flags.get("algorithm").unwrap(), "dnax");
        assert_eq!(pos, vec!["out.fa"]);
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
