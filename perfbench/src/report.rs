//! Metric names and units, the arithmetic that turns a phase into
//! metrics, and the process-level readings (CPU time, peak RSS).

use crate::drive::{Kind, Phase};
use crate::system::{Layers, System};
use crate::trace::{by_request, Span};
use dnacomp_algos::Algorithm;
use std::collections::{BTreeMap, BTreeSet};

/// End-to-end metrics every workload reports with tracing off; these
/// are the `end_to_end` entries of `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("mbases_per_s", "Mbase/s"),
    ("put_p50_ms", "ms"),
    ("bits_per_base", "bit/base"),
    ("disk_bytes_per_base", "B/base"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics printed by name and unit where a workload has
/// them, but kept out of `BENCHMARK.json`: the percentiles exist only
/// where ten samples lie beyond them, and `error_rate` is 0 on a clean
/// run (the result's `failed` count carries it).
pub const END_TO_END_EXTRA: &[(&str, &str)] = &[
    ("put_p99_ms", "ms"),
    ("get_p50_ms", "ms"),
    ("get_p99_ms", "ms"),
    ("error_rate", "ratio"),
];

/// The algorithms the rule tree picks on these workloads, each with
/// its throughput and share metric.
pub const ALGORITHM_METRICS: [(Algorithm, &str, &str); 2] = [
    (
        Algorithm::GenCompress,
        "algos.compress_mb_s.GenCompress",
        "algos.share.GenCompress",
    ),
    (
        Algorithm::Dnax,
        "algos.compress_mb_s.DNAX",
        "algos.share.DNAX",
    ),
];

/// Per-layer metrics of the traced run; the `per_layer` entries of
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.connect_p50_ms", "ms"),
    ("net.shard_rpc_p50_ms", "ms"),
    ("net.shard_rpc_p99_ms", "ms"),
    ("net.overhead_p50_ms", "ms"),
    ("net.wire_bytes_per_op", "B"),
    ("net.frames_per_op", "count"),
    ("proto.encode_p50_us", "us"),
    ("proto.decode_p50_us", "us"),
    ("router.rpc_p50_ms", "ms"),
    ("router.rpc_p99_ms", "ms"),
    ("router.overhead_ratio", "ratio"),
    ("router.shard_jobs_per_put", "count"),
    ("router.forwards_per_op", "count"),
    ("router.retries", "count"),
    ("router.read_repairs", "count"),
    ("router.quorum_failures", "count"),
    ("service.job_p50_ms", "ms"),
    ("service.job_p99_ms", "ms"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.exec_p50_ms", "ms"),
    ("service.exec_unattributed_p50_ms", "ms"),
    ("service.rejected_full", "count"),
    ("service.peak_queue_depth", "count"),
    ("cache.hit_rate", "ratio"),
    ("core.decide_p50_us", "us"),
    ("algos.compress_p50_ms", "ms"),
    ("algos.compress_mb_s.GenCompress", "Mbase/s"),
    ("algos.compress_mb_s.DNAX", "Mbase/s"),
    ("algos.decompress_p50_ms", "ms"),
    ("algos.share.GenCompress", "ratio"),
    ("algos.share.DNAX", "ratio"),
    ("frame.compress_p50_ms", "ms"),
    ("frame.blocks_per_op", "count"),
    ("pool.inline_share", "ratio"),
    ("store.put_p50_ms", "ms"),
    ("store.put_p99_ms", "ms"),
    ("store.appends_per_fsync", "count"),
    ("store.snapshot_p50_us", "us"),
    ("store.get_p50_ms", "ms"),
    ("store.get_p99_ms", "ms"),
    ("store.cache_hit_rate", "ratio"),
    ("store.bloom_negatives_per_get", "count"),
    ("store.seals", "count"),
    ("store.merges", "count"),
    ("store.maintenance_failures", "count"),
    ("store.space_amp", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Nearest-rank percentile of sorted values (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile, only when at least ten samples lie beyond it.
fn supported_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (sorted.len() as f64 * (1.0 - p) >= 10.0 - 1e-9).then(|| percentile(sorted, p))
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean of the middle half of unsorted values (0 when empty): robust to
/// the odd outlier like a median, but it does not jump from one mode of
/// a two-mode sample to the other as a median does.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let quarter = v.len() / 4;
    let middle = &v[quarter..v.len() - quarter];
    ratio(middle.iter().sum(), middle.len() as f64)
}

/// Process user+system CPU seconds, all threads, from `/proc/self/stat`
/// (clock ticks at the Linux `USER_HZ` of 100).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // Fields 14 and 15 of the file (utime, stime) are 11 and 12 after
    // the command name.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// High-water resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset this process's high-water RSS to its current RSS, so the next
/// [`peak_rss_mb`] reads the peak from here on (`clear_refs` value 5,
/// Linux 4.0 and later).
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting the peak RSS: {e}"))
}

/// Cumulative counters and gauges of the front-door system.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Manifest appends, summed over shard stores.
    pub wal_appends: u64,
    /// Fsync batches.
    pub wal_batches: u64,
    /// Block-cache hits.
    pub cache_hits: u64,
    /// Block-cache misses.
    pub cache_misses: u64,
    /// Bloom-filter negatives.
    pub bloom_negatives: u64,
    /// L0 seals.
    pub seals: u64,
    /// Run merges.
    pub merges: u64,
    /// Failed maintenance passes.
    pub maintenance_failures: u64,
    /// Bytes on disk (gauge).
    pub bytes_on_disk: u64,
    /// Live bytes (gauge).
    pub live_bytes: u64,
    /// Sorted runs (gauge).
    pub runs: u64,
    /// Jobs completed by shard services.
    pub jobs_completed: u64,
    /// Submissions refused with a full queue.
    pub rejected_full: u64,
    /// Highest queue depth of any shard (gauge).
    pub peak_queue_depth: u64,
    /// Block tasks run inline by their submitter.
    pub pool_inline: u64,
    /// Block tasks run by pool threads.
    pub pool_by_pool: u64,
    /// Router forwards.
    pub forwards: u64,
    /// Router retries.
    pub retries: u64,
    /// Router read repairs.
    pub read_repairs: u64,
    /// Router quorum failures.
    pub quorum_failures: u64,
}

impl Counters {
    /// Read every counter of `system`.
    pub fn of(system: &System) -> Counters {
        let mut c = Counters::default();
        for shard in &system.shards {
            let s = shard.store.snapshot();
            c.wal_appends += s.wal_appends;
            c.wal_batches += s.wal_batches;
            c.cache_hits += s.cache_hits;
            c.cache_misses += s.cache_misses;
            c.bloom_negatives += s.bloom_negatives;
            c.seals += s.seals;
            c.merges += s.merges;
            c.maintenance_failures += s.maintenance_failures;
            c.bytes_on_disk += s.bytes_on_disk;
            c.live_bytes += s.live_bytes;
            c.runs += s.runs;
            let m = shard.service.metrics().snapshot();
            c.jobs_completed += m.completed;
            c.rejected_full += m.rejected_full;
            c.peak_queue_depth = c.peak_queue_depth.max(m.peak_queue_depth);
            let p = shard.service.block_pool_stats();
            c.pool_inline += p.tasks_run_inline;
            c.pool_by_pool += p.tasks_run_by_pool;
        }
        if let Some(router) = system.router() {
            let r = router.metrics_snapshot();
            c.forwards = r.route_forwards;
            c.retries = r.route_retries;
            c.read_repairs = r.read_repairs;
            c.quorum_failures = r.quorum_failures;
        }
        c
    }

    /// Counts accumulated since `before`; gauges keep their current value.
    pub fn since(self, before: Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            wal_appends: d(self.wal_appends, before.wal_appends),
            wal_batches: d(self.wal_batches, before.wal_batches),
            cache_hits: d(self.cache_hits, before.cache_hits),
            cache_misses: d(self.cache_misses, before.cache_misses),
            bloom_negatives: d(self.bloom_negatives, before.bloom_negatives),
            seals: d(self.seals, before.seals),
            merges: d(self.merges, before.merges),
            maintenance_failures: d(self.maintenance_failures, before.maintenance_failures),
            jobs_completed: d(self.jobs_completed, before.jobs_completed),
            rejected_full: d(self.rejected_full, before.rejected_full),
            pool_inline: d(self.pool_inline, before.pool_inline),
            pool_by_pool: d(self.pool_by_pool, before.pool_by_pool),
            forwards: d(self.forwards, before.forwards),
            retries: d(self.retries, before.retries),
            read_repairs: d(self.read_repairs, before.read_repairs),
            quorum_failures: d(self.quorum_failures, before.quorum_failures),
            ..self
        }
    }
}

/// Client latencies of the answered ops of one kind, ms, sorted.
pub fn latencies_ms(phase: &Phase, kind: Kind) -> Vec<f64> {
    sorted(
        phase
            .records
            .iter()
            .filter(|r| r.ok && r.kind == kind)
            .map(|r| r.latency_ns as f64 / 1e6)
            .collect(),
    )
}

/// Inputs to the end-to-end metrics besides the phase itself.
pub struct EndToEndInputs {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// CPU seconds the process spent during the phase.
    pub cpu_s: f64,
    /// Bytes on disk over every shard at the end of the phase.
    pub disk_bytes: u64,
    /// Input bases stored in the system (preload plus acked puts).
    pub stored_bases: u64,
}

/// End-to-end metrics of an untraced phase. Percentiles without ten
/// samples beyond them are left out.
pub fn end_to_end(phase: &Phase, inputs: &EndToEndInputs) -> Values {
    let mut v = Values::new();
    let ok: Vec<_> = phase.records.iter().filter(|r| r.ok).collect();
    let puts: Vec<_> = ok.iter().filter(|r| r.kind == Kind::Put).collect();
    let bases: u64 = puts.iter().map(|r| r.bases).sum();
    let bytes: u64 = puts.iter().map(|r| r.container_bytes).sum();
    let wall = phase.wall_s.max(1e-9);
    v.insert("setup_s", inputs.setup_s);
    v.insert("ops_per_s", ok.len() as f64 / wall);
    v.insert("mbases_per_s", bases as f64 / 1e6 / wall);
    let put_ms = latencies_ms(phase, Kind::Put);
    let get_ms = latencies_ms(phase, Kind::Get);
    for (name, values, p) in [
        ("put_p50_ms", &put_ms, 0.50),
        ("put_p99_ms", &put_ms, 0.99),
        ("get_p50_ms", &get_ms, 0.50),
        ("get_p99_ms", &get_ms, 0.99),
    ] {
        if let Some(x) = supported_percentile(values, p) {
            v.insert(name, x);
        }
    }
    v.insert("bits_per_base", ratio(bytes as f64 * 8.0, bases as f64));
    v.insert(
        "disk_bytes_per_base",
        ratio(inputs.disk_bytes as f64, inputs.stored_bases as f64),
    );
    v.insert("cpu_ms_per_op", ratio(inputs.cpu_s * 1e3, ok.len() as f64));
    v.insert("peak_rss_mb", peak_rss_mb());
    v.insert(
        "error_rate",
        ratio(
            (phase.records.len() - ok.len()) as f64,
            phase.records.len() as f64,
        ),
    );
    v
}

fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    sorted(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect(),
    )
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// The traced phase.
    pub phase: &'a Phase,
    /// Front-door counters accumulated over the traced phase.
    pub counters: Counters,
    /// The standalone layers, after the traced phase.
    pub layers: &'a Layers,
    /// p50 of the dominant op kind in the untraced phase, ms.
    pub untraced_p50_ms: f64,
}

/// Per-layer metrics of a traced phase.
pub fn per_layer(inp: &LayerInputs) -> Values {
    let spans = &inp.phase.spans;
    let c = &inp.counters;
    let mut v = Values::new();
    let p = |name: &str, q: f64| percentile(&span_ms(spans, name), q);

    // Ops the front door framed: their codec time is the frame's, not
    // the flat compressor's.
    let framed: BTreeSet<u64> = inp
        .phase
        .records
        .iter()
        .filter(|r| r.blocks > 1)
        .map(|r| r.index)
        .collect();
    // Self times, per request: a layer's span minus the span below it.
    let (mut overhead, mut exec, mut wait, mut unattributed) = (vec![], vec![], vec![], vec![]);
    for (request, group) in by_request(spans) {
        let ms = |name: &str| group.iter().find(|s| s.name == name).map(|s| s.ms());
        let inner = ms("service.job").or(ms("store.get"));
        if let (Some(rpc), Some(inner)) = (ms("net.shard_rpc"), inner) {
            overhead.push(rpc - inner);
        }
        if let (Some(job), Some(w)) = (ms("service.job"), ms("service.queue_wait")) {
            let e = job - w;
            exec.push(e);
            wait.push(w);
            let codec = match framed.contains(&request) {
                true => ms("frame.compress"),
                false => ms("algos.compress"),
            };
            let attributed = ms("core.decide").unwrap_or(0.0)
                + codec.unwrap_or(0.0)
                + ms("store.put").unwrap_or(0.0)
                + ms("store.snapshot").unwrap_or(0.0);
            unattributed.push(e - attributed);
        }
    }
    let (overhead, exec, wait, unattributed) = (
        sorted(overhead),
        sorted(exec),
        sorted(wait),
        sorted(unattributed),
    );

    let ok: Vec<_> = inp.phase.records.iter().filter(|r| r.ok).collect();
    let puts: Vec<_> = ok.iter().filter(|r| r.kind == Kind::Put).collect();
    let gets = ok.len() - puts.len();
    let ops = ok.len() as f64;
    let net = inp.layers.net.service.metrics().snapshot();

    v.insert("net.connect_p50_ms", p("net.connect", 0.5));
    v.insert("net.shard_rpc_p50_ms", p("net.shard_rpc", 0.5));
    v.insert("net.shard_rpc_p99_ms", p("net.shard_rpc", 0.99));
    v.insert("net.overhead_p50_ms", percentile(&overhead, 0.5));
    v.insert(
        "net.wire_bytes_per_op",
        ratio((net.net_bytes_rx + net.net_bytes_tx) as f64, ops),
    );
    v.insert(
        "net.frames_per_op",
        ratio((net.frames_rx + net.frames_tx) as f64, ops),
    );
    v.insert("proto.encode_p50_us", p("proto.encode", 0.5) * 1e3);
    v.insert("proto.decode_p50_us", p("proto.decode", 0.5) * 1e3);

    v.insert("router.rpc_p50_ms", p("router.rpc", 0.5));
    v.insert("router.rpc_p99_ms", p("router.rpc", 0.99));
    v.insert(
        "router.overhead_ratio",
        ratio(p("router.rpc", 0.5), p("net.shard_rpc", 0.5)),
    );
    v.insert(
        "router.shard_jobs_per_put",
        ratio(c.jobs_completed as f64, puts.len() as f64),
    );
    v.insert("router.forwards_per_op", ratio(c.forwards as f64, ops));
    v.insert("router.retries", c.retries as f64);
    v.insert("router.read_repairs", c.read_repairs as f64);
    v.insert("router.quorum_failures", c.quorum_failures as f64);

    v.insert("service.job_p50_ms", p("service.job", 0.5));
    v.insert("service.job_p99_ms", p("service.job", 0.99));
    v.insert("service.queue_wait_p50_ms", percentile(&wait, 0.5));
    v.insert("service.queue_wait_p99_ms", percentile(&wait, 0.99));
    v.insert("service.exec_p50_ms", percentile(&exec, 0.5));
    v.insert(
        "service.exec_unattributed_p50_ms",
        percentile(&unattributed, 0.5),
    );
    v.insert("service.rejected_full", c.rejected_full as f64);
    v.insert("service.peak_queue_depth", c.peak_queue_depth as f64);

    v.insert(
        "cache.hit_rate",
        ratio(inp.phase.cache_hits as f64, inp.phase.cache_lookups as f64),
    );
    v.insert("core.decide_p50_us", p("core.decide", 0.5) * 1e3);

    v.insert("algos.compress_p50_ms", p("algos.compress", 0.5));
    v.insert("algos.decompress_p50_ms", p("algos.decompress", 0.5));
    for (alg, mb_s, share) in ALGORITHM_METRICS {
        let (bases, ms) = inp
            .phase
            .compress_by_alg
            .get(alg.name())
            .copied()
            .unwrap_or_default();
        v.insert(mb_s, ratio(bases as f64 / 1e6, ms / 1e3));
        let used = puts.iter().filter(|r| r.algorithm == alg.tag()).count();
        v.insert(share, ratio(used as f64, puts.len() as f64));
    }

    v.insert("frame.compress_p50_ms", p("frame.compress", 0.5));
    v.insert(
        "frame.blocks_per_op",
        ratio(
            puts.iter().map(|r| r.blocks).sum::<u64>() as f64,
            puts.len() as f64,
        ),
    );
    v.insert(
        "pool.inline_share",
        ratio(
            c.pool_inline as f64,
            (c.pool_inline + c.pool_by_pool) as f64,
        ),
    );

    v.insert("store.put_p50_ms", p("store.put", 0.5));
    v.insert("store.put_p99_ms", p("store.put", 0.99));
    v.insert(
        "store.appends_per_fsync",
        ratio(c.wal_appends as f64, c.wal_batches as f64),
    );
    v.insert("store.snapshot_p50_us", p("store.snapshot", 0.5) * 1e3);
    v.insert("store.get_p50_ms", p("store.get", 0.5));
    v.insert("store.get_p99_ms", p("store.get", 0.99));
    v.insert(
        "store.cache_hit_rate",
        ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
    );
    v.insert(
        "store.bloom_negatives_per_get",
        ratio(c.bloom_negatives as f64, gets as f64),
    );
    v.insert("store.seals", c.seals as f64);
    v.insert("store.merges", c.merges as f64);
    v.insert("store.maintenance_failures", c.maintenance_failures as f64);
    v.insert(
        "store.space_amp",
        ratio(c.bytes_on_disk as f64, c.live_bytes as f64),
    );

    let dominant = if gets > puts.len() {
        "front.get"
    } else {
        "front.put"
    };
    v.insert(
        "trace.overhead_ratio",
        ratio(p(dominant, 0.5), inp.untraced_p50_ms),
    );
    v
}

/// The result line: exactly `correct`, `attempted`, `failed` and the
/// metrics of `table` that have a value.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .filter_map(|(name, unit)| {
            let x = values.get(name)?;
            let x = if x.is_finite() { *x } else { 0.0 };
            Some(format!(
                "\"{name}\":{{\"value\":{x:?},\"unit\":\"{unit}\"}}"
            ))
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}
