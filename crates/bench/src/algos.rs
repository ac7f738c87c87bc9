//! Per-algorithm throughput benchmark: `dnacomp bench-algos`.
//!
//! Measures, for every self-contained algorithm
//! ([`Algorithm::HORIZONTAL`]):
//!
//! * **serial** compress/decompress wall throughput — one flat
//!   whole-sequence blob on one thread, the median of
//!   [`SERIAL_RUNS`] timed runs with the slowest and fastest beside it;
//! * **block wall** throughput — the framed block path
//!   ([`ParallelCompressor`]) on a real shared [`TaskPool`], as the
//!   service runs it. On a single-core host this is bounded by the
//!   hardware, not the design: it mostly validates that framing adds
//!   no overhead;
//! * **block lane** throughput — the reproducible parallel number:
//!   every block is compressed alone and *individually timed*, then the
//!   measured per-block wall times are list-scheduled onto
//!   [`AlgoBenchConfig::lanes`] lanes with the same earliest-free-lane
//!   rule `bench-serve` uses ([`crate::serve::makespan_ms`]). This is
//!   what an N-core deployment of the same code would see, computed
//!   from real single-core measurements — the convention
//!   `BENCH_serve.json` established, applied per algorithm. The JSON
//!   records `host_cpus` and `threads` so nobody mistakes the lane
//!   curve for a wall-clock measurement on this host.
//!
//! A kernel micro-benchmark compares three 2-bit pack/unpack tiers —
//! the runtime-dispatched SIMD kernels ([`dnacomp_seq::pack_2bit`]),
//! the u64 word-at-a-time portable kernels, and the byte-at-a-time
//! baseline — plus the SIMD vs bytewise match-extension primitive
//! ([`dnacomp_seq::common_prefix_len`]). The report records the
//! dispatched [`CpuFeatures`] so a scalar fallback run is never
//! mistaken for a vectorised one.
//!
//! Each algorithm row also carries its entropy backend and, where the
//! pipeline has a model/entropy split, a per-stage wall breakdown
//! ([`dnacomp_algos::Compressor::stage_times`]) — the number that says
//! whether the model or the coder is the bottleneck.
//!
//! **Quick mode** is the CI perf smoke gate: a small corpus, plus hard
//! assertions — every algorithm must round-trip both ways across the
//! serial/parallel encoder-decoder matrix, the packing kernels must
//! clear a conservative throughput floor (scaled down for debug
//! builds, which CI's `--quick` tier runs), and the rANS speed tier
//! must not regress against the arithmetic coder on the same CTW model
//! (profile-scaled floor).
//!
//! Throughputs are megabases per second (1 MB = 10⁶ bases ≙ one
//! uncompressed ASCII byte each).

use crate::serve::makespan_ms;
use dnacomp_algos::{
    compressor_for, Algorithm, Compressor, Ctw, FramedBlob, ParallelCompressor, TaskPool,
};
use dnacomp_codec::arith::EntropyBackend;
use dnacomp_codec::CodecError;
use dnacomp_seq::gen::GenomeModel;
use dnacomp_seq::{
    common_prefix_len, common_prefix_len_bytewise, pack_2bit, pack_2bit_bytewise, pack_2bit_u64,
    unpack_2bit, unpack_2bit_bytewise, unpack_2bit_u64, Base, CpuFeatures,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Benchmark shape.
#[derive(Clone, Debug)]
pub struct AlgoBenchConfig {
    /// Smoke-gate mode: tiny corpus, round-trip and kernel-floor
    /// assertions enabled.
    pub quick: bool,
    /// Dedicated threads of the shared block pool (0 = inline serial).
    pub threads: usize,
    /// Lanes for the list-scheduled makespan throughput.
    pub lanes: usize,
    /// Frame block size in bases; `None` picks `bases / 16` per row.
    pub block_size: Option<usize>,
    /// Corpus seed.
    pub seed: u64,
}

impl Default for AlgoBenchConfig {
    fn default() -> Self {
        AlgoBenchConfig {
            quick: false,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            lanes: 4,
            block_size: None,
            seed: 42,
        }
    }
}

/// Kernel micro-benchmark: runtime-dispatched SIMD vs u64
/// word-at-a-time vs byte-at-a-time 2-bit packing, plus the
/// match-extension primitive.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelBench {
    /// Bases packed/unpacked per repetition.
    pub bases: usize,
    /// Runtime-dispatched pack throughput, MB/s (best of 3) — SIMD on
    /// capable hosts, the portable kernel otherwise.
    pub pack_simd_mb_s: f64,
    /// u64 kernel pack throughput, MB/s (best of 3).
    pub pack_u64_mb_s: f64,
    /// Byte-at-a-time pack throughput, MB/s.
    pub pack_bytewise_mb_s: f64,
    /// Runtime-dispatched unpack throughput, MB/s.
    pub unpack_simd_mb_s: f64,
    /// u64 kernel unpack throughput, MB/s.
    pub unpack_u64_mb_s: f64,
    /// Byte-at-a-time unpack throughput, MB/s.
    pub unpack_bytewise_mb_s: f64,
    /// Dispatched common-prefix (match extension) throughput, MB/s.
    pub prefix_simd_mb_s: f64,
    /// Byte-at-a-time common-prefix throughput, MB/s.
    pub prefix_bytewise_mb_s: f64,
    /// `pack_u64 / pack_bytewise`.
    pub pack_speedup: f64,
    /// `unpack_u64 / unpack_bytewise`.
    pub unpack_speedup: f64,
    /// `pack_simd / pack_u64` — the speed-tier win over the old kernel.
    pub pack_simd_speedup: f64,
    /// `unpack_simd / unpack_u64`.
    pub unpack_simd_speedup: f64,
    /// `prefix_simd / prefix_bytewise`.
    pub prefix_speedup: f64,
}

/// One algorithm's measurements.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlgoBenchRow {
    /// The paper's spelling of the algorithm name.
    pub algorithm: String,
    /// Input length, bases.
    pub bases: usize,
    /// Frame block size, bases.
    pub block_size: usize,
    /// Frame container size, bytes.
    pub compressed_bytes: usize,
    /// Frame compression ratio, bits per base.
    pub bits_per_base: f64,
    /// Whole-sequence flat-blob compress throughput, one thread, MB/s:
    /// the median of [`SERIAL_RUNS`] timed runs.
    pub serial_compress_mb_s: f64,
    /// The slowest of those compress runs, MB/s.
    pub serial_compress_mb_s_min: f64,
    /// The fastest of those compress runs, MB/s.
    pub serial_compress_mb_s_max: f64,
    /// Whole-sequence flat-blob decompress throughput, MB/s: the median
    /// of [`SERIAL_RUNS`] timed runs.
    pub serial_decompress_mb_s: f64,
    /// The slowest of those decompress runs, MB/s.
    pub serial_decompress_mb_s_min: f64,
    /// The fastest of those decompress runs, MB/s.
    pub serial_decompress_mb_s_max: f64,
    /// Framed compress wall throughput on the real shared pool, MB/s
    /// (host-bound; see `host_cpus` in the report).
    pub block_wall_compress_mb_s: f64,
    /// Framed decompress wall throughput on the real shared pool, MB/s.
    pub block_wall_decompress_mb_s: f64,
    /// Measured per-block compress times list-scheduled onto `lanes`
    /// lanes, MB/s — the reproducible parallel number.
    pub block_lane_compress_mb_s: f64,
    /// Per-block decompress times list-scheduled onto `lanes`, MB/s.
    pub block_lane_decompress_mb_s: f64,
    /// `block_lane_compress / serial_compress`.
    pub lane_speedup_compress: f64,
    /// Parallel encode → serial decode → original verified, and the
    /// reverse direction too.
    pub roundtrip_ok: bool,
    /// Parallel and serial encoders produced identical frame bytes.
    pub parallel_matches_serial: bool,
    /// Entropy backend the default instance codes with
    /// (`"arith"` or `"rans"`).
    pub entropy_backend: String,
    /// Wall ms spent in the model stage of one serial compress, when
    /// the pipeline has a model/entropy split.
    pub model_stage_ms: Option<f64>,
    /// Wall ms attributed to the entropy coder of the same run.
    pub entropy_stage_ms: Option<f64>,
}

/// Full benchmark output (`BENCH_algos.json`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlgoBenchReport {
    /// CPUs the host actually has — read this before reading any
    /// `*_wall_*` number.
    pub host_cpus: usize,
    /// Dedicated threads of the shared block pool during wall runs.
    pub threads: usize,
    /// Lanes of the list-scheduled makespan throughput.
    pub lanes: usize,
    /// Whether this was the quick smoke-gate run.
    pub quick: bool,
    /// Corpus seed.
    pub seed: u64,
    /// SIMD dispatch actually used by the kernels during this run
    /// (e.g. `"avx2+ssse3+sse2"`, `"scalar(forced)"`).
    pub cpu_features: String,
    /// Packing-kernel micro-benchmark.
    pub kernels: KernelBench,
    /// rANS-vs-arithmetic head-to-head on the same CTW model.
    pub speed_gate: SpeedGate,
    /// One row per algorithm.
    pub algorithms: Vec<AlgoBenchRow>,
}

/// Head-to-head of the CTW speed tier (v2: linear-domain mixing +
/// rANS) against the legacy tier (v1: log-domain mixing + arithmetic
/// coding) — the number the CI gate holds the speed tier to.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpeedGate {
    /// Bases compressed per measurement.
    pub bases: usize,
    /// CTW serial compress with the rANS backend, MB/s (best of 3).
    pub ctw_rans_mb_s: f64,
    /// CTW serial compress with the arithmetic backend, MB/s.
    pub ctw_arith_mb_s: f64,
    /// `ctw_rans / ctw_arith`.
    pub rans_vs_arith: f64,
}

impl AlgoBenchReport {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialisation cannot fail")
    }
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn mb_s(bases: usize, secs: f64) -> f64 {
    if secs <= 0.0 {
        return 0.0;
    }
    bases as f64 / 1e6 / secs
}

/// Corpus length for `alg`: full mode tiers by measured algorithm cost
/// so the whole sweep finishes in minutes, while the fast tier stays at
/// ≥ 4 MiB — the size the block-parallel acceptance number is read at.
fn tier_bases(alg: Algorithm, quick: bool) -> usize {
    if quick {
        return 8_192;
    }
    match alg {
        // Linear-ish and fast: full 4 MiB.
        Algorithm::Raw | Algorithm::Dnax | Algorithm::Gzip | Algorithm::DnaPackLite => 4 << 20,
        // Mid-cost match/grammar models.
        Algorithm::BioCompress2
        | Algorithm::GenCompress
        | Algorithm::Dnac
        | Algorithm::DnaCompress
        | Algorithm::Cfact
        | Algorithm::DnaSequitur
        | Algorithm::Bwt => 256 << 10,
        // Heavy context-mixing models.
        Algorithm::Ctw | Algorithm::CtwLz | Algorithm::XmLite => 64 << 10,
        Algorithm::Reference => unreachable!("not in HORIZONTAL"),
    }
}

/// Timed runs behind each serial column. One draw on a shared host can
/// be 2× off its own steady state, so the row reports the median and
/// the spread, not a best case.
pub const SERIAL_RUNS: usize = 5;

/// Median, min and max of the serial runs' throughputs, MB/s.
fn spread(mut runs: [f64; SERIAL_RUNS]) -> (f64, f64, f64) {
    runs.sort_by(f64::total_cmp);
    (runs[SERIAL_RUNS / 2], runs[0], runs[SERIAL_RUNS - 1])
}

/// Best-of-3 throughput of `f` over `bytes` input bytes, MB/s.
fn best_of_3(bytes: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let ((), secs) = time(&mut f);
        best = best.min(secs);
    }
    mb_s(bytes, best)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn bench_kernels(quick: bool) -> KernelBench {
    let bases = if quick { 1 << 20 } else { 8 << 20 };
    let codes: Vec<u8> = (0..bases).map(|i| ((i * 2654435761) >> 7) as u8 & 3).collect();
    let packed = pack_2bit_u64(&codes);
    let pack_simd = best_of_3(bases, || {
        std::hint::black_box(pack_2bit(std::hint::black_box(&codes)));
    });
    let pack_u64 = best_of_3(bases, || {
        std::hint::black_box(pack_2bit_u64(std::hint::black_box(&codes)));
    });
    let pack_bytewise = best_of_3(bases, || {
        std::hint::black_box(pack_2bit_bytewise(std::hint::black_box(&codes)));
    });
    let unpack_simd = best_of_3(bases, || {
        std::hint::black_box(unpack_2bit(std::hint::black_box(&packed), bases));
    });
    let unpack_u64 = best_of_3(bases, || {
        std::hint::black_box(unpack_2bit_u64(std::hint::black_box(&packed), bases));
    });
    let unpack_bytewise = best_of_3(bases, || {
        std::hint::black_box(unpack_2bit_bytewise(std::hint::black_box(&packed), bases));
    });
    // Match extension: two identical strands, so every call scans the
    // full length — the worst (and most informative) case.
    let strand: Vec<Base> = codes.iter().map(|&c| Base::from_code(c)).collect();
    let strand2 = strand.clone();
    let prefix_simd = best_of_3(bases, || {
        std::hint::black_box(common_prefix_len(
            std::hint::black_box(&strand),
            std::hint::black_box(&strand2),
        ));
    });
    let prefix_bytewise = best_of_3(bases, || {
        std::hint::black_box(common_prefix_len_bytewise(
            std::hint::black_box(&strand),
            std::hint::black_box(&strand2),
        ));
    });
    KernelBench {
        bases,
        pack_simd_mb_s: pack_simd,
        pack_u64_mb_s: pack_u64,
        pack_bytewise_mb_s: pack_bytewise,
        unpack_simd_mb_s: unpack_simd,
        unpack_u64_mb_s: unpack_u64,
        unpack_bytewise_mb_s: unpack_bytewise,
        prefix_simd_mb_s: prefix_simd,
        prefix_bytewise_mb_s: prefix_bytewise,
        pack_speedup: ratio(pack_u64, pack_bytewise),
        unpack_speedup: ratio(unpack_u64, unpack_bytewise),
        pack_simd_speedup: ratio(pack_simd, pack_u64),
        unpack_simd_speedup: ratio(unpack_simd, unpack_u64),
        prefix_speedup: ratio(prefix_simd, prefix_bytewise),
    }
}

/// rANS-vs-arithmetic head-to-head: the CTW speed tier (linear-domain
/// mixing + rANS, what v2 blobs use) against the legacy tier
/// (log-domain mixing + arithmetic coder, what v1 blobs use).
fn bench_speed_gate(quick: bool, seed: u64) -> SpeedGate {
    let bases = if quick { 24 << 10 } else { 64 << 10 };
    let seq = GenomeModel::default().generate(bases, seed);
    let rans = Ctw::with_backend(EntropyBackend::Rans);
    let arith = Ctw::with_backend(EntropyBackend::Arith);
    let rans_mb_s = best_of_3(bases, || {
        std::hint::black_box(rans.compress(std::hint::black_box(&seq)).ok());
    });
    let arith_mb_s = best_of_3(bases, || {
        std::hint::black_box(arith.compress(std::hint::black_box(&seq)).ok());
    });
    SpeedGate {
        bases,
        ctw_rans_mb_s: rans_mb_s,
        ctw_arith_mb_s: arith_mb_s,
        rans_vs_arith: ratio(rans_mb_s, arith_mb_s),
    }
}

fn bench_algorithm(
    alg: Algorithm,
    cfg: &AlgoBenchConfig,
    pool: &Arc<TaskPool>,
) -> Result<AlgoBenchRow, CodecError> {
    let bases = tier_bases(alg, cfg.quick);
    let block_size = cfg.block_size.unwrap_or_else(|| (bases / 16).max(1));
    let seq = GenomeModel::default().generate(bases, cfg.seed);
    let codec = compressor_for(alg);

    // Serial reference: one flat whole-sequence blob, timed
    // SERIAL_RUNS times each way.
    let mut serial_c = [0.0; SERIAL_RUNS];
    let mut blob = None;
    for run in &mut serial_c {
        let (b, secs) = time(|| codec.compress(&seq));
        blob = Some(b?);
        *run = mb_s(bases, secs);
    }
    let blob = blob.expect("the compress runs ran");
    let mut serial_d = [0.0; SERIAL_RUNS];
    let mut serial_ok = true;
    for run in &mut serial_d {
        let (decoded, secs) = time(|| codec.decompress(&blob));
        serial_ok &= decoded? == seq;
        *run = mb_s(bases, secs);
    }
    let (serial_c_mb_s, serial_c_min, serial_c_max) = spread(serial_c);
    let (serial_d_mb_s, serial_d_min, serial_d_max) = spread(serial_d);

    // Framed path on the real shared pool (wall numbers).
    let pc = ParallelCompressor::new(alg, block_size, Arc::clone(pool));
    let (frame, wall_c) = time(|| pc.compress(&seq));
    let frame = frame?;
    let (par_decoded, wall_d) = time(|| pc.decompress(&frame));
    let par_decoded = par_decoded?;

    // Cross-decoder matrix: the serial decoder must accept the parallel
    // frame and the parallel decoder the serial frame, bit-exact.
    let serial_frame = dnacomp_algos::frame::compress_serial(&*codec, &seq, block_size)?;
    let matches = serial_frame.to_bytes() == frame.to_bytes();
    let cross_ok = dnacomp_algos::frame::decompress_serial(&frame)? == seq
        && pc.decompress(&serial_frame)? == seq
        && par_decoded == seq;

    // Per-block times for the reproducible lane makespan: each block
    // compressed (then decompressed) alone, individually timed.
    let n_blocks = FramedBlob::block_count(block_size, seq.len());
    let mut c_times = Vec::with_capacity(n_blocks);
    let mut d_times = Vec::with_capacity(n_blocks);
    for index in 0..n_blocks {
        let start = index * block_size;
        let end = (start + block_size).min(seq.len());
        let block = seq.slice(start, end);
        let (b, secs) = time(|| codec.compress(&block));
        let b = b?;
        c_times.push(secs * 1e3);
        let (back, secs) = time(|| codec.decompress(&b));
        let _ = back?;
        d_times.push(secs * 1e3);
    }
    let lane_c_ms = makespan_ms(&c_times, cfg.lanes);
    let lane_d_ms = makespan_ms(&d_times, cfg.lanes);
    let lane_c = mb_s(bases, lane_c_ms / 1e3);
    let stages = codec.stage_times(&seq);

    Ok(AlgoBenchRow {
        algorithm: alg.name().to_owned(),
        bases,
        block_size,
        compressed_bytes: frame.total_bytes(),
        bits_per_base: frame.bits_per_base(),
        serial_compress_mb_s: serial_c_mb_s,
        serial_compress_mb_s_min: serial_c_min,
        serial_compress_mb_s_max: serial_c_max,
        serial_decompress_mb_s: serial_d_mb_s,
        serial_decompress_mb_s_min: serial_d_min,
        serial_decompress_mb_s_max: serial_d_max,
        block_wall_compress_mb_s: mb_s(bases, wall_c),
        block_wall_decompress_mb_s: mb_s(bases, wall_d),
        block_lane_compress_mb_s: lane_c,
        block_lane_decompress_mb_s: mb_s(bases, lane_d_ms / 1e3),
        lane_speedup_compress: if serial_c_mb_s > 0.0 { lane_c / serial_c_mb_s } else { 0.0 },
        roundtrip_ok: serial_ok && cross_ok,
        parallel_matches_serial: matches,
        entropy_backend: codec.entropy_backend().to_owned(),
        model_stage_ms: stages.map(|(m, _)| m),
        entropy_stage_ms: stages.map(|(_, e)| e),
    })
}

/// Conservative kernel floor, MB/s. Debug builds (CI's `--quick` tier
/// runs the unoptimised binary) pay ~20× on the SWAR loops, so the
/// floor scales with the build profile rather than silently passing a
/// release-only bar.
fn kernel_floor_mb_s() -> f64 {
    if cfg!(debug_assertions) {
        5.0
    } else {
        100.0
    }
}

/// Run the benchmark. In quick mode, round-trip or kernel-floor
/// failures come back as `Err` — the CI gate's exit code.
pub fn run_algo_bench(cfg: &AlgoBenchConfig) -> Result<AlgoBenchReport, String> {
    let pool = Arc::new(TaskPool::new(cfg.threads));
    let kernels = bench_kernels(cfg.quick);
    let speed_gate = bench_speed_gate(cfg.quick, cfg.seed);
    let mut algorithms = Vec::new();
    for alg in Algorithm::HORIZONTAL {
        eprintln!("bench-algos: {} ({} bases) …", alg.name(), tier_bases(alg, cfg.quick));
        let row = bench_algorithm(alg, cfg, &pool)
            .map_err(|e| format!("{}: benchmark failed: {e}", alg.name()))?;
        algorithms.push(row);
    }
    let report = AlgoBenchReport {
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads: cfg.threads,
        lanes: cfg.lanes,
        quick: cfg.quick,
        seed: cfg.seed,
        cpu_features: CpuFeatures::get().summary(),
        kernels,
        speed_gate,
        algorithms,
    };
    if cfg.quick {
        for row in &report.algorithms {
            if !row.roundtrip_ok {
                return Err(format!("{}: smoke round-trip failed", row.algorithm));
            }
            if !row.parallel_matches_serial {
                return Err(format!(
                    "{}: parallel frame bytes differ from serial encoder",
                    row.algorithm
                ));
            }
        }
        let floor = kernel_floor_mb_s();
        for (name, got) in [
            ("pack_2bit_u64", report.kernels.pack_u64_mb_s),
            ("unpack_2bit_u64", report.kernels.unpack_u64_mb_s),
            ("pack_2bit", report.kernels.pack_simd_mb_s),
            ("unpack_2bit", report.kernels.unpack_simd_mb_s),
        ] {
            if got < floor {
                return Err(format!(
                    "{name} throughput {got:.1} MB/s below the {floor:.0} MB/s floor"
                ));
            }
        }
        if report.cpu_features.is_empty() {
            return Err("cpu_features missing from the report".to_string());
        }
        // Speed-tier floor, scaled by build profile: the optimised rANS
        // tier must clearly beat the arithmetic tier; the unoptimised
        // debug build only has to stay in the same league (its table
        // lookups don't get vectorised, and CI's quick tier runs debug).
        let tier_floor = if cfg!(debug_assertions) { 0.8 } else { 1.5 };
        if report.speed_gate.rans_vs_arith < tier_floor {
            return Err(format!(
                "speed tier regressed: CTW rans {:.2} MB/s vs arith {:.2} MB/s \
                 ({:.2}x < {tier_floor}x floor)",
                report.speed_gate.ctw_rans_mb_s,
                report.speed_gate.ctw_arith_mb_s,
                report.speed_gate.rans_vs_arith,
            ));
        }
        // Release-only: on a SIMD-capable host the dispatched kernels
        // must not lose to the portable u64 kernels they replace (debug
        // intrinsics compile to unoptimised shims, so no debug bar).
        if !cfg!(debug_assertions) && CpuFeatures::get().ssse3 {
            for (name, speedup) in [
                ("pack_2bit", report.kernels.pack_simd_speedup),
                ("unpack_2bit", report.kernels.unpack_simd_speedup),
                ("common_prefix_len", report.kernels.prefix_speedup),
            ] {
                if speedup < 1.0 {
                    return Err(format!(
                        "{name} SIMD dispatch slower than baseline ({speedup:.2}x) \
                         on a {} host",
                        report.cpu_features
                    ));
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_passes_its_own_gate() {
        let cfg = AlgoBenchConfig {
            quick: true,
            threads: 2,
            ..AlgoBenchConfig::default()
        };
        let report = run_algo_bench(&cfg).expect("smoke gate must pass");
        assert_eq!(report.algorithms.len(), Algorithm::HORIZONTAL.len());
        assert!(report.algorithms.iter().all(|r| r.roundtrip_ok));
        assert!(report.algorithms.iter().all(|r| r.parallel_matches_serial));
        for r in &report.algorithms {
            for (min, median, max) in [
                (
                    r.serial_compress_mb_s_min,
                    r.serial_compress_mb_s,
                    r.serial_compress_mb_s_max,
                ),
                (
                    r.serial_decompress_mb_s_min,
                    r.serial_decompress_mb_s,
                    r.serial_decompress_mb_s_max,
                ),
            ] {
                assert!(min <= median && median <= max, "{}", r.algorithm);
            }
        }
        assert!(report.kernels.pack_u64_mb_s > 0.0);
        assert!(report.kernels.pack_simd_mb_s > 0.0);
        assert!(report.kernels.prefix_simd_mb_s > 0.0);
        assert!(!report.cpu_features.is_empty());
        assert!(report.speed_gate.ctw_rans_mb_s > 0.0);
        assert!(report.speed_gate.ctw_arith_mb_s > 0.0);
        // The speed-tier algorithms advertise their backend and stage
        // split; the legacy ones stay on "arith" with no split.
        for name in ["CTW", "CTW+LZ", "XM-lite", "BWT"] {
            let row = report
                .algorithms
                .iter()
                .find(|r| r.algorithm == name)
                .unwrap_or_else(|| panic!("no {name} row"));
            assert_eq!(row.entropy_backend, "rans", "{name}");
            assert!(row.model_stage_ms.is_some(), "{name} lacks stage split");
        }
        assert!(report
            .algorithms
            .iter()
            .any(|r| r.entropy_backend == "arith"));
        let json = report.to_json();
        let back: AlgoBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn tiering_covers_every_horizontal_algorithm() {
        for alg in Algorithm::HORIZONTAL {
            assert!(tier_bases(alg, false) >= 64 << 10);
            assert_eq!(tier_bases(alg, true), 8_192);
        }
    }
}
