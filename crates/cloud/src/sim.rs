//! End-to-end exchange simulation.
//!
//! Figure 1's pipeline: compress on the client VM → upload to the storage
//! account as a BLOB → download at the cloud VM → decompress. [`CloudSim`]
//! runs the *real* compressor (so sizes, work and heap are genuine) and
//! prices each phase with the [`PerfModel`].
//!
//! Transfers are **block-granular and resilient**: each block is staged
//! (upload) or fetched (download) under the simulator's [`FaultPlan`],
//! retrying per its [`RetryPolicy`]. Failed attempts, backoff delays,
//! stalls and degraded-link slowdowns are charged through the same
//! millisecond accounting as useful work, so a flaky exchange is visibly
//! slower in its report ([`ExchangeReport::wasted_ms`] isolates the
//! overhead). Downloads verify each block against the checksum recorded
//! at staging time and re-fetch corrupt blocks; a blob that cannot be
//! moved intact within the retry budget yields a typed
//! [`ExchangeError`] — never silent corruption.
//!
//! With [`FaultPlan::none`] (the default) the pipeline is byte- and
//! millisecond-identical to the fault-free model: per-block costs are the
//! whole-phase nominal cost split by byte share, so they sum back to the
//! legacy totals, and `retries`, `wasted_ms` and `integrity_failures`
//! stay zero.

use crate::blobstore::{BlobHandle, BlobStore};
use crate::error::{ExchangeError, ExchangePhase};
use crate::fault::FaultPlan;
use crate::machine::{ClientContext, MachineSpec};
use crate::perf::PerfModel;
use crate::retry::RetryPolicy;
use dnacomp_algos::{Algorithm, CompressedBlob, Compressor};
use dnacomp_codec::checksum::fnv1a;
use dnacomp_codec::CodecError;
use dnacomp_seq::PackedSeq;
use serde::{Deserialize, Serialize};

/// Measured outcome of one exchange — one row of the paper's dataset.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExchangeReport {
    /// File identifier.
    pub file: String,
    /// Original size in bases (= raw file bytes, 1 byte/base).
    pub original_len: usize,
    /// Algorithm used.
    pub algorithm: Algorithm,
    /// Serialised blob size in bytes (Figure 4's variable).
    pub compressed_bytes: usize,
    /// Client-side compression time, ms (Figure 5).
    pub compress_ms: f64,
    /// Upload time, ms (Figure 2), including any retry overhead.
    pub upload_ms: f64,
    /// Download time at the cloud VM, ms (Figure 6), including any retry
    /// overhead.
    pub download_ms: f64,
    /// Decompression time at the cloud VM, ms.
    pub decompress_ms: f64,
    /// Observed RAM on the client, bytes (Figure 3).
    pub ram_used_bytes: u64,
    /// Block attempts that had to be repeated (upload + download).
    pub retries: u32,
    /// Milliseconds lost to failed attempts and backoff delays. Zero on
    /// a fault-free exchange; included in the phase times above.
    pub wasted_ms: f64,
    /// Downloaded blocks that failed checksum verification and were
    /// re-fetched.
    pub integrity_failures: u32,
    /// Algorithms abandoned by the degradation ladder before this
    /// exchange succeeded (empty when the first choice went through).
    pub degraded_from: Vec<Algorithm>,
}

impl ExchangeReport {
    /// Total exchange time in ms.
    pub fn total_ms(&self) -> f64 {
        self.compress_ms + self.upload_ms + self.download_ms + self.decompress_ms
    }

    /// Compression ratio in bits per base.
    pub fn bits_per_base(&self) -> f64 {
        if self.original_len == 0 {
            0.0
        } else {
            self.compressed_bytes as f64 * 8.0 / self.original_len as f64
        }
    }
}

/// Mutable resilience bookkeeping for one exchange: the shared backoff
/// budget and the waste/retry counters that end up in the report.
struct Resilience {
    faults: FaultPlan,
    retry: RetryPolicy,
    backoff_spent_ms: f64,
    retries: u32,
    wasted_ms: f64,
    integrity_failures: u32,
}

impl Resilience {
    fn new(faults: FaultPlan, retry: RetryPolicy) -> Self {
        Resilience {
            faults,
            retry,
            backoff_spent_ms: 0.0,
            retries: 0,
            wasted_ms: 0.0,
            integrity_failures: 0,
        }
    }

    /// Charge the backoff before retrying `attempt + 1`. Draws from the
    /// per-exchange budget; the delay is monotone per operation (running
    /// max over `prev`) and counts as both phase time and waste.
    fn backoff(
        &mut self,
        phase: ExchangePhase,
        key: u64,
        attempt: u32,
        prev: &mut f64,
        phase_ms: &mut f64,
    ) -> Result<(), ExchangeError> {
        let d = self.retry.raw_delay_ms(key, attempt + 1).max(*prev);
        if self.backoff_spent_ms + d > self.retry.budget_ms {
            return Err(ExchangeError::RetryBudgetExhausted {
                phase,
                spent_ms: self.backoff_spent_ms,
                budget_ms: self.retry.budget_ms,
            });
        }
        self.backoff_spent_ms += d;
        *prev = d;
        *phase_ms += d;
        self.wasted_ms += d;
        self.retries += 1;
        Ok(())
    }

    fn check_timeout(&self, phase: ExchangePhase, elapsed_ms: f64) -> Result<(), ExchangeError> {
        if elapsed_ms > self.retry.phase_timeout_ms {
            Err(ExchangeError::Timeout {
                phase,
                elapsed_ms,
                limit_ms: self.retry.phase_timeout_ms,
            })
        } else {
            Ok(())
        }
    }
}

/// Stable per-operation key for jitter: hashes phase, algorithm, file
/// and block index.
fn op_key(phase: ExchangePhase, alg: Algorithm, file: &str, block: usize) -> u64 {
    let mut buf = Vec::with_capacity(file.len() + 10);
    buf.push(phase as u8);
    buf.push(alg.tag());
    buf.extend_from_slice(file.as_bytes());
    buf.extend_from_slice(&(block as u64).to_le_bytes());
    fnv1a(&buf)
}

/// The simulated exchange environment.
///
/// ```
/// use dnacomp_cloud::{ClientContext, CloudSim};
/// use dnacomp_algos::Dnax;
/// use dnacomp_seq::gen::GenomeModel;
/// let mut sim = CloudSim::default();
/// let seq = GenomeModel::default().generate(10_000, 1);
/// let ctx = ClientContext::new(2048, 2393, 2.0);
/// let report = sim.exchange(&ctx, &Dnax::default(), "demo", &seq).unwrap();
/// assert!(report.total_ms() > 0.0);
/// assert_eq!(report.original_len, 10_000);
/// assert_eq!(report.retries, 0); // fault-free by default
/// ```
pub struct CloudSim {
    /// Performance model (seeds, latencies, calibration).
    pub perf: PerfModel,
    /// The cloud VM doing download + decompression.
    pub cloud_vm: MachineSpec,
    /// The storage account.
    pub store: BlobStore,
    /// Container name used for uploads.
    pub container: String,
    /// Fault schedule applied to block transfers (default: none).
    pub faults: FaultPlan,
    /// Retry/backoff/timeout policy for block transfers.
    pub retry: RetryPolicy,
}

impl Default for CloudSim {
    fn default() -> Self {
        CloudSim::new(PerfModel::default(), MachineSpec::azure_vm())
    }
}

impl CloudSim {
    /// New simulator with the given model and cloud VM, fault-free.
    pub fn new(perf: PerfModel, cloud_vm: MachineSpec) -> Self {
        let mut store = BlobStore::new();
        store.create_container("sequences");
        CloudSim {
            perf,
            cloud_vm,
            store,
            container: "sequences".to_owned(),
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
        }
    }

    /// Run the full exchange of `seq` under `ctx` with `compressor`,
    /// verifying block checksums on download and the roundtrip at the
    /// end. Returns a typed [`ExchangeError`] on any unrecoverable
    /// fault — never a silently corrupted result.
    pub fn exchange(
        &mut self,
        ctx: &ClientContext,
        compressor: &dyn Compressor,
        file: &str,
        seq: &PackedSeq,
    ) -> Result<ExchangeReport, ExchangeError> {
        let alg = compressor.algorithm();
        let mut res = Resilience::new(self.faults, self.retry);
        // 1. Compress on the client.
        let (blob, cstats) = compressor.compress_with_stats(seq)?;
        let bytes = blob.to_bytes();
        let compress_ms = self.perf.compress_ms(ctx, alg, file, &cstats);
        // 2. Upload: stream conversion + wire, block by block. The
        //    nominal whole-blob cost is split across blocks by byte
        //    share, so fault-free per-block costs sum to the legacy
        //    total.
        let nominal_up = self
            .perf
            .upload_ms(ctx, alg, file, bytes.len(), cstats.peak_heap_bytes);
        let blob_name = blob_name(file, alg);
        let total_bytes = bytes.len().max(1) as f64;
        let n_blocks = self.store.blocks_for(bytes.len());
        let mut upload_ms = 0.0;
        if n_blocks == 0 {
            // Zero-byte blob: a bare Put Blob request, nothing to stage.
            upload_ms = nominal_up;
        }
        for (i, chunk) in bytes.chunks(self.store.block_bytes()).enumerate() {
            let share = nominal_up * chunk.len() as f64 / total_bytes;
            let key = op_key(ExchangePhase::Upload, alg, file, i);
            let mut prev_delay = 0.0;
            let mut attempt = 0u32;
            loop {
                let cost = share * res.faults.degrade(alg, file, i, attempt)
                    + res.faults.stall(alg, file, i, attempt);
                upload_ms += cost;
                res.check_timeout(ExchangePhase::Upload, upload_ms)?;
                if !res.faults.upload_fails(alg, file, i, attempt) {
                    self.store.stage_block(&self.container, &blob_name, i, chunk);
                    break;
                }
                res.wasted_ms += cost;
                if attempt + 1 >= res.retry.max_attempts {
                    return Err(ExchangeError::UploadFailed {
                        block: i,
                        attempts: attempt + 1,
                    });
                }
                res.backoff(
                    ExchangePhase::Upload,
                    key,
                    attempt,
                    &mut prev_delay,
                    &mut upload_ms,
                )?;
                attempt += 1;
            }
        }
        let handle = self.store.commit(&self.container, &blob_name, n_blocks)?;
        // 3. Download at the cloud VM, verifying each block against the
        //    checksum recorded at staging time; corrupt blocks are
        //    re-fetched.
        let nominal_down = self.perf.download_ms(&self.cloud_vm, alg, file, bytes.len());
        let mut download_ms = 0.0;
        let mut fetched = Vec::with_capacity(bytes.len());
        if n_blocks == 0 {
            download_ms = nominal_down;
        }
        for i in 0..n_blocks {
            let block = self
                .store
                .download_block(&handle, i)
                .ok_or(CodecError::Corrupt("block vanished from store"))?;
            let expected = self
                .store
                .block_checksum(&handle, i)
                .ok_or(CodecError::Corrupt("block checksum vanished from store"))?;
            let share = nominal_down * block.len() as f64 / total_bytes;
            let key = op_key(ExchangePhase::Download, alg, file, i);
            let mut prev_delay = 0.0;
            let mut attempt = 0u32;
            loop {
                let cost = share * res.faults.degrade(alg, file, i, attempt)
                    + res.faults.stall(alg, file, i, attempt);
                download_ms += cost;
                res.check_timeout(ExchangePhase::Download, download_ms)?;
                let failed = res.faults.download_fails(alg, file, i, attempt);
                let mut corrupt = false;
                if !failed {
                    // Simulate the wire: this attempt's copy may arrive
                    // with a flipped byte, caught by the checksum.
                    let mut wire = block.to_vec();
                    if res.faults.corrupts(alg, file, i, attempt) {
                        wire[0] ^= 0x80;
                    }
                    if fnv1a(&wire) == expected {
                        fetched.extend_from_slice(&wire);
                        break;
                    }
                    corrupt = true;
                    res.integrity_failures += 1;
                }
                res.wasted_ms += cost;
                if attempt + 1 >= res.retry.max_attempts {
                    return Err(if corrupt {
                        ExchangeError::Integrity {
                            block: i,
                            attempts: attempt + 1,
                        }
                    } else {
                        ExchangeError::DownloadFailed {
                            block: i,
                            attempts: attempt + 1,
                        }
                    });
                }
                res.backoff(
                    ExchangePhase::Download,
                    key,
                    attempt,
                    &mut prev_delay,
                    &mut download_ms,
                )?;
                attempt += 1;
            }
        }
        // 4. Decompress at the cloud VM and verify the roundtrip.
        let parsed = CompressedBlob::from_bytes(&fetched)?;
        let (decoded, dstats) = compressor.decompress_with_stats(&parsed)?;
        if &decoded != seq {
            return Err(CodecError::Corrupt("roundtrip mismatch").into());
        }
        let decompress_ms = self.perf.decompress_ms(&self.cloud_vm, alg, file, &dstats);
        let ram_used_bytes = self
            .perf
            .observed_ram_bytes(ctx, alg, file, cstats.peak_heap_bytes);
        Ok(ExchangeReport {
            file: file.to_owned(),
            original_len: seq.len(),
            algorithm: alg,
            compressed_bytes: bytes.len(),
            compress_ms,
            upload_ms,
            download_ms,
            decompress_ms,
            ram_used_bytes,
            retries: res.retries,
            wasted_ms: res.wasted_ms,
            integrity_failures: res.integrity_failures,
            degraded_from: Vec::new(),
        })
    }

    /// The container the last successful exchange of `file` with `alg`
    /// committed to the storage account: the exact bytes it uploaded
    /// and verified.
    pub fn shipped(&self, file: &str, alg: Algorithm) -> Result<CompressedBlob, CodecError> {
        let handle = BlobHandle {
            container: self.container.clone(),
            name: blob_name(file, alg),
        };
        let bytes = self
            .store
            .download(&handle)
            .ok_or(CodecError::Corrupt("exchanged blob missing from the store"))?;
        CompressedBlob::from_bytes(&bytes)
    }
}

/// Storage-account name of `file`'s blob compressed with `alg`.
fn blob_name(file: &str, alg: Algorithm) -> String {
    format!("{file}.{}.dx", alg.name().to_ascii_lowercase())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnacomp_algos::{Ctw, Dnax, GenCompress, GzipRs};
    use dnacomp_seq::gen::GenomeModel;

    fn ctx() -> ClientContext {
        ClientContext::new(3072, 2393, 2.0)
    }

    #[test]
    fn exchange_produces_consistent_report() {
        let mut sim = CloudSim::default();
        let seq = GenomeModel::default().generate(20_000, 3);
        let r = sim
            .exchange(&ctx(), &Dnax::default(), "f1", &seq)
            .unwrap();
        assert_eq!(r.original_len, 20_000);
        assert!(r.compressed_bytes > 0);
        assert!(r.compress_ms > 0.0);
        assert!(r.upload_ms > 0.0);
        assert!(r.download_ms > 0.0);
        assert!(r.decompress_ms > 0.0);
        assert!(r.ram_used_bytes > 0);
        assert!(r.total_ms() >= r.compress_ms);
        // Fault-free: no retries, no waste, no integrity failures.
        assert_eq!(r.retries, 0);
        assert_eq!(r.wasted_ms, 0.0);
        assert_eq!(r.integrity_failures, 0);
        assert!(r.degraded_from.is_empty());
        // Blob actually stored, and it is the container that shipped.
        assert_eq!(sim.store.list("sequences").len(), 1);
        let shipped = sim.shipped("f1", Algorithm::Dnax).unwrap();
        assert_eq!(shipped, Dnax::default().compress(&seq).unwrap());
        assert_eq!(shipped.total_bytes(), r.compressed_bytes);
        assert!(sim.shipped("f1", Algorithm::Ctw).is_err());
    }

    #[test]
    fn exchange_is_deterministic() {
        let seq = GenomeModel::default().generate(10_000, 5);
        let run = || {
            let mut sim = CloudSim::default();
            sim.exchange(&ctx(), &Ctw::default(), "f", &seq).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn faulty_exchange_is_deterministic_too() {
        let seq = GenomeModel::default().generate(12_000, 5);
        let run = || {
            let mut sim = CloudSim {
                store: BlobStore::with_block_bytes(256),
                faults: FaultPlan::uniform(21, 0.2),
                ..CloudSim::default()
            };
            sim.exchange(&ctx(), &Dnax::default(), "f", &seq)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn faults_cost_time_but_not_correctness() {
        let seq = GenomeModel::default().generate(30_000, 9);
        let mut clean = CloudSim {
            store: BlobStore::with_block_bytes(256),
            ..CloudSim::default()
        };
        let baseline = clean
            .exchange(&ctx(), &Dnax::default(), "f", &seq)
            .unwrap();
        let mut chaotic = CloudSim {
            store: BlobStore::with_block_bytes(256),
            faults: FaultPlan::uniform(4242, 0.2),
            ..CloudSim::default()
        };
        let noisy = chaotic
            .exchange(&ctx(), &Dnax::default(), "f", &seq)
            .unwrap();
        // Same payload moved, but the faulty run paid for it.
        assert_eq!(noisy.compressed_bytes, baseline.compressed_bytes);
        assert!(noisy.retries > 0, "retries {}", noisy.retries);
        assert!(noisy.wasted_ms > 0.0);
        assert!(
            noisy.upload_ms + noisy.download_ms
                > baseline.upload_ms + baseline.download_ms
        );
        // Waste never exceeds what the phases actually recorded.
        assert!(noisy.wasted_ms < noisy.upload_ms + noisy.download_ms);
    }

    #[test]
    fn hopeless_faults_yield_typed_errors() {
        let seq = GenomeModel::default().generate(10_000, 3);
        let mut sim = CloudSim {
            store: BlobStore::with_block_bytes(128),
            faults: FaultPlan {
                upload_fail_rate: 1.0,
                ..FaultPlan::uniform(7, 0.0)
            },
            ..CloudSim::default()
        };
        match sim.exchange(&ctx(), &Dnax::default(), "f", &seq) {
            Err(ExchangeError::UploadFailed { attempts, .. }) => {
                assert_eq!(attempts, sim.retry.max_attempts)
            }
            other => panic!("expected UploadFailed, got {other:?}"),
        }
        // Permanent corruption is detected, not returned.
        let mut sim = CloudSim {
            store: BlobStore::with_block_bytes(128),
            faults: FaultPlan {
                corrupt_rate: 1.0,
                ..FaultPlan::uniform(7, 0.0)
            },
            ..CloudSim::default()
        };
        match sim.exchange(&ctx(), &Dnax::default(), "f", &seq) {
            Err(ExchangeError::Integrity { .. }) => {}
            other => panic!("expected Integrity, got {other:?}"),
        }
    }

    #[test]
    fn drained_budget_aborts_with_typed_error() {
        let seq = GenomeModel::default().generate(10_000, 3);
        let mut sim = CloudSim {
            store: BlobStore::with_block_bytes(128),
            faults: FaultPlan::uniform(77, 0.6),
            ..CloudSim::default()
        };
        sim.retry.max_attempts = 32;
        sim.retry.budget_ms = 200.0; // a handful of 50 ms backoffs
        match sim.exchange(&ctx(), &Dnax::default(), "f", &seq) {
            Err(ExchangeError::RetryBudgetExhausted {
                spent_ms,
                budget_ms,
                ..
            }) => {
                assert!(spent_ms <= budget_ms);
            }
            other => panic!("expected RetryBudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn phase_timeout_fires() {
        let seq = GenomeModel::default().generate(10_000, 3);
        let mut sim = CloudSim::default();
        sim.retry.phase_timeout_ms = 0.001;
        match sim.exchange(&ctx(), &Dnax::default(), "f", &seq) {
            Err(ExchangeError::Timeout { phase, .. }) => {
                assert_eq!(phase, ExchangePhase::Upload)
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn dnax_wins_total_time_on_large_files() {
        let mut sim = CloudSim::default();
        let seq = GenomeModel::default().generate(400_000, 7);
        let dnax = sim.exchange(&ctx(), &Dnax::default(), "big", &seq).unwrap();
        let gc = sim
            .exchange(&ctx(), &GenCompress::default(), "big", &seq)
            .unwrap();
        let ctw = sim.exchange(&ctx(), &Ctw::default(), "big", &seq).unwrap();
        let gz = sim.exchange(&ctx(), &GzipRs::default(), "big", &seq).unwrap();
        assert!(dnax.total_ms() < gc.total_ms(), "DNAX {} GC {}", dnax.total_ms(), gc.total_ms());
        assert!(dnax.total_ms() < ctw.total_ms());
        assert!(dnax.total_ms() < gz.total_ms());
    }

    #[test]
    fn dnax_loses_on_small_files() {
        // The paper's <50 kB observation: the selection framework exists
        // because small files favour GenCompress/CTW.
        let mut sim = CloudSim::default();
        let seq = GenomeModel::default().generate(8_000, 7);
        let dnax = sim.exchange(&ctx(), &Dnax::default(), "small", &seq).unwrap();
        let gc = sim
            .exchange(&ctx(), &GenCompress::default(), "small", &seq)
            .unwrap();
        assert!(
            gc.total_ms() < dnax.total_ms(),
            "GC {} vs DNAX {}",
            gc.total_ms(),
            dnax.total_ms()
        );
    }

    #[test]
    fn gzip_never_wins_total_time() {
        let mut sim = CloudSim::default();
        for (i, len) in [3_000usize, 30_000, 150_000].into_iter().enumerate() {
            let seq = GenomeModel::default().generate(len, 11 + i as u64);
            let file = format!("f{len}");
            let gz = sim
                .exchange(&ctx(), &GzipRs::default(), &file, &seq)
                .unwrap();
            // Gzip may beat individual algorithms at some sizes, but it
            // must never be the overall winner (§V: "no records where
            // Gzip was used as label").
            let best_other = [
                sim.exchange(&ctx(), &Dnax::default(), &file, &seq).unwrap(),
                sim.exchange(&ctx(), &GenCompress::default(), &file, &seq)
                    .unwrap(),
                sim.exchange(&ctx(), &Ctw::default(), &file, &seq).unwrap(),
            ]
            .into_iter()
            .map(|r| r.total_ms())
            .fold(f64::INFINITY, f64::min);
            assert!(
                best_other < gz.total_ms(),
                "gzip wins at len {len}: {} vs best {}",
                gz.total_ms(),
                best_other
            );
        }
    }

    #[test]
    fn ctw_has_worst_decompression() {
        let mut sim = CloudSim::default();
        let seq = GenomeModel::default().generate(100_000, 13);
        let reports: Vec<ExchangeReport> = [
            Box::new(Ctw::default()) as Box<dyn Compressor>,
            Box::new(Dnax::default()),
            Box::new(GenCompress::default()),
            Box::new(GzipRs::default()),
        ]
        .iter()
        .map(|c| sim.exchange(&ctx(), c.as_ref(), "f", &seq).unwrap())
        .collect();
        let ctw = &reports[0];
        for other in &reports[1..] {
            assert!(
                ctw.decompress_ms > other.decompress_ms,
                "CTW {} vs {} {}",
                ctw.decompress_ms,
                other.algorithm,
                other.decompress_ms
            );
        }
        // And DNAX has the least decompression time (§IV-B).
        let dnax = &reports[1];
        for other in [&reports[0], &reports[2], &reports[3]] {
            assert!(dnax.decompress_ms < other.decompress_ms);
        }
    }

    #[test]
    fn gzip_has_worst_ratio_on_dna() {
        let mut sim = CloudSim::default();
        let seq = GenomeModel::default().generate(80_000, 17);
        let gz = sim.exchange(&ctx(), &GzipRs::default(), "f", &seq).unwrap();
        for c in [
            Box::new(Ctw::default()) as Box<dyn Compressor>,
            Box::new(Dnax::default()),
            Box::new(GenCompress::default()),
        ] {
            let r = sim.exchange(&ctx(), c.as_ref(), "f", &seq).unwrap();
            assert!(
                r.compressed_bytes < gz.compressed_bytes,
                "{} not smaller than gzip",
                r.algorithm
            );
        }
    }
}
