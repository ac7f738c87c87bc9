//! The measurement grid.
//!
//! §IV-A/§V: 132 files × 32 contexts × 4 algorithms. Compression and
//! decompression are *measured once* per (file, algorithm) — their work
//! and heap statistics do not depend on the client context — and the
//! context-dependent times are derived per context by the
//! [`PerfModel`]. This is exactly the separation the paper exploits
//! ("the size of the compressed file remains unchanged" across contexts,
//! §IV-A), and it makes the 16k-row grid cheap.

use dnacomp_algos::{Algorithm, Compressor, ResourceStats};
use dnacomp_cloud::{ClientContext, MachineSpec, PerfModel};
use dnacomp_codec::CodecError;
use dnacomp_seq::corpus::FileSpec;
use serde::{Deserialize, Serialize};

/// Context-independent measurement of one (file, algorithm) pair.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// File name.
    pub file: String,
    /// Original length in bases (= raw bytes).
    pub original_len: usize,
    /// Algorithm measured.
    pub algorithm: Algorithm,
    /// Serialised blob size in bytes.
    pub blob_bytes: usize,
    /// Compression statistics.
    pub comp_stats: ResourceStats,
    /// Decompression statistics.
    pub dec_stats: ResourceStats,
}

/// One row of the experiment table: a (file, context, algorithm) cell
/// with all dependent variables (§IV-B's six measurements).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRow {
    /// File name.
    pub file: String,
    /// Raw file size in bytes.
    pub file_bytes: u64,
    /// Client RAM, MB.
    pub ram_mb: u32,
    /// Client CPU, MHz.
    pub cpu_mhz: u32,
    /// Uplink bandwidth, Mbit/s.
    pub bandwidth_mbps: f64,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Compressed blob size, bytes (Figure 4).
    pub compressed_bytes: usize,
    /// Compression time, ms (Figure 5).
    pub compress_ms: f64,
    /// Decompression time at the cloud VM, ms.
    pub decompress_ms: f64,
    /// Upload time, ms (Figure 2).
    pub upload_ms: f64,
    /// Download time, ms (Figure 6).
    pub download_ms: f64,
    /// Observed RAM, bytes (Figure 3).
    pub ram_used_bytes: u64,
}

impl ExperimentRow {
    /// Total exchange time, ms.
    pub fn total_ms(&self) -> f64 {
        self.compress_ms + self.decompress_ms + self.upload_ms + self.download_ms
    }
}

/// Measure every (file, algorithm) pair of the corpus.
///
/// Each compressor must roundtrip its own output — any mismatch is a
/// hard error, not a skipped cell.
pub fn measure_corpus(
    files: &[FileSpec],
    algorithms: &[Box<dyn Compressor>],
) -> Result<Vec<Measurement>, CodecError> {
    let nested: Result<Vec<Vec<Measurement>>, CodecError> = files
        .iter()
        .map(|spec| {
            let seq = spec.generate();
            let mut out = Vec::with_capacity(algorithms.len());
            for alg in algorithms {
                let (blob, comp_stats) = alg.compress_with_stats(&seq)?;
                let (decoded, dec_stats) = alg.decompress_with_stats(&blob)?;
                if decoded != seq {
                    return Err(CodecError::Corrupt("roundtrip mismatch in grid"));
                }
                out.push(Measurement {
                    file: spec.name.clone(),
                    original_len: seq.len(),
                    algorithm: alg.algorithm(),
                    blob_bytes: blob.total_bytes(),
                    comp_stats,
                    dec_stats,
                });
            }
            Ok(out)
        })
        .collect();
    Ok(nested?.into_iter().flatten().collect())
}

/// Expand measurements across the context grid into experiment rows.
pub fn build_rows(
    measurements: &[Measurement],
    contexts: &[ClientContext],
    perf: &PerfModel,
    cloud_vm: &MachineSpec,
) -> Vec<ExperimentRow> {
    let mut rows = Vec::with_capacity(measurements.len() * contexts.len());
    for m in measurements {
        for ctx in contexts {
            let compress_ms = perf.compress_ms(ctx, m.algorithm, &m.file, &m.comp_stats);
            let decompress_ms =
                perf.decompress_ms(cloud_vm, m.algorithm, &m.file, &m.dec_stats);
            let upload_ms = perf.upload_ms(
                ctx,
                m.algorithm,
                &m.file,
                m.blob_bytes,
                m.comp_stats.peak_heap_bytes,
            );
            let download_ms = perf.download_ms(cloud_vm, m.algorithm, &m.file, m.blob_bytes);
            let ram_used_bytes =
                perf.observed_ram_bytes(ctx, m.algorithm, &m.file, m.comp_stats.peak_heap_bytes);
            rows.push(ExperimentRow {
                file: m.file.clone(),
                file_bytes: m.original_len as u64,
                ram_mb: ctx.ram_mb,
                cpu_mhz: ctx.cpu_mhz,
                bandwidth_mbps: ctx.bandwidth.0,
                algorithm: m.algorithm,
                compressed_bytes: m.blob_bytes,
                compress_ms,
                decompress_ms,
                upload_ms,
                download_ms,
                ram_used_bytes,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnacomp_cloud::context_grid;
    use dnacomp_seq::corpus::CorpusBuilder;

    fn small_setup() -> (Vec<Measurement>, Vec<ClientContext>) {
        let files = CorpusBuilder::small(3).ncbi_files(3).build();
        let algos = dnacomp_algos::paper_algorithms();
        let ms = measure_corpus(&files, &algos).unwrap();
        (ms, context_grid())
    }

    #[test]
    fn measures_every_pair() {
        let (ms, _) = small_setup();
        assert_eq!(ms.len(), 3 * 4);
        for m in &ms {
            assert!(m.blob_bytes > 0);
            assert!(m.comp_stats.work_units > 0);
        }
    }

    #[test]
    fn rows_cover_grid() {
        let (ms, grid) = small_setup();
        let rows = build_rows(
            &ms,
            &grid,
            &PerfModel::default(),
            &MachineSpec::azure_vm(),
        );
        assert_eq!(rows.len(), ms.len() * 32);
        // Paper shape: 1 file × 32 contexts per algorithm.
        let f0 = &ms[0].file;
        let per_file: Vec<&ExperimentRow> = rows
            .iter()
            .filter(|r| &r.file == f0 && r.algorithm == ms[0].algorithm)
            .collect();
        assert_eq!(per_file.len(), 32);
        // Compressed size is context-independent (§IV-A).
        assert!(per_file
            .iter()
            .all(|r| r.compressed_bytes == per_file[0].compressed_bytes));
        // Times are context-dependent.
        assert!(per_file
            .iter()
            .any(|r| (r.compress_ms - per_file[0].compress_ms).abs() > 1e-9));
    }

    #[test]
    fn rows_are_deterministic() {
        let (ms, grid) = small_setup();
        let perf = PerfModel::default();
        let vm = MachineSpec::azure_vm();
        assert_eq!(
            build_rows(&ms, &grid, &perf, &vm),
            build_rows(&ms, &grid, &perf, &vm)
        );
    }
}
