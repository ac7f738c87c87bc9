//! # dnacomp-algos — the evaluated DNA compressors
//!
//! From-scratch Rust ports of the four algorithms the paper benchmarks
//! (§I: "The algorithms selected for the experiments include: CTW, DNAX,
//! Gencompress, and Gzip") plus two extension algorithms from its survey
//! (Table 1): BioCompress-2 and a DNAPack-style block selector.
//!
//! | Type | Strategy (Table 1) |
//! |------|--------------------|
//! | [`GzipRs`] | LZ77 + canonical Huffman over the ASCII file (general-purpose) |
//! | [`Ctw`] | context-tree weighting over bit-decomposed bases + arithmetic coding |
//! | [`GenCompress`] | approximate repeats via edit operations, optimal greedy prefix |
//! | [`Dnax`] | exact + reverse-complement repeats, arithmetic coding fallback |
//! | [`BioCompress2`] | exact/reverse-complement repeats, Fibonacci codes, order-2 arithmetic |
//! | [`DnaPackLite`] | per-block best of {2-bit, order-2 arithmetic, repeat copy} |
//!
//! Every compressor implements [`Compressor`]: a checksummed container
//! roundtrip plus deterministic **resource accounting** ([`ResourceStats`])
//! — the work/RAM numbers the cloud simulator turns into the paper's
//! time-and-memory observations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod biocompress;
pub mod blob;
pub mod bwt;
pub mod cfact;
pub mod ctw;
pub mod ctwlz;
pub mod dnac;
pub mod dnacompress;
pub mod dnapack;
pub mod dnax;
pub mod frame;
pub mod gencompress;
pub mod gsqz;
pub mod gzip;
pub mod parallel;
pub mod pool;
pub mod rawpack;
pub mod stats;
pub mod refcomp;
pub mod sequitur;
pub mod xm;

pub use biocompress::BioCompress2;
pub use blob::{Algorithm, CompressedBlob};
pub use bwt::Bwt;
pub use cfact::Cfact;
pub use frame::FramedBlob;
pub use parallel::ParallelCompressor;
pub use pool::{PoolStats, TaskPool};
pub use ctw::Ctw;
pub use ctwlz::CtwLz;
pub use dnac::Dnac;
pub use dnacompress::DnaCompress;
pub use dnapack::DnaPackLite;
pub use dnax::Dnax;
pub use gencompress::GenCompress;
pub use gsqz::GSqz;
pub use gzip::GzipRs;
pub use rawpack::RawPack;
pub use stats::ResourceStats;
pub use refcomp::{ReferenceCompressor, ReferenceIndex};
pub use sequitur::DnaSequitur;
pub use xm::XmLite;

use dnacomp_codec::CodecError;
use dnacomp_seq::PackedSeq;

/// A DNA sequence compressor with deterministic resource accounting.
///
/// # Statelessness contract
///
/// Implementations are **stateless across jobs**: all methods take
/// `&self`, the trait requires `Send + Sync`, and every model/table a
/// codec builds lives on the call stack of the method that needs it.
/// One boxed compressor can therefore be reused for any number of
/// sequences — including concurrently from a worker pool — and must
/// produce byte-identical output to a freshly constructed instance
/// (`lib::tests::compressors_are_reusable_across_threads` enforces
/// this for the whole registry).
pub trait Compressor: Send + Sync {
    /// The algorithm this compressor implements.
    fn algorithm(&self) -> Algorithm;

    /// Human-readable name (the paper's spelling).
    fn name(&self) -> &'static str {
        self.algorithm().name()
    }

    /// Compress, returning the container blob plus resource statistics.
    fn compress_with_stats(
        &self,
        seq: &PackedSeq,
    ) -> Result<(CompressedBlob, ResourceStats), CodecError>;

    /// Decompress a flat blob produced by this algorithm, with
    /// statistics.
    ///
    /// Implementations must verify the container checksum and reject
    /// blobs from other algorithms, and framed containers, with
    /// [`CodecError::UnknownFormat`] (both through
    /// [`CompressedBlob::expect_algorithm`]).
    fn decompress_with_stats(
        &self,
        blob: &CompressedBlob,
    ) -> Result<(PackedSeq, ResourceStats), CodecError>;

    /// Compress, discarding statistics.
    fn compress(&self, seq: &PackedSeq) -> Result<CompressedBlob, CodecError> {
        self.compress_with_stats(seq).map(|(b, _)| b)
    }

    /// Decompress a flat or framed container, discarding statistics.
    ///
    /// A flat container goes to
    /// [`decompress_with_stats`](Self::decompress_with_stats); a framed
    /// one ([`blob::VERSION_FRAMED`]) is decoded block by block with
    /// this codec, and its whole-sequence checksum is verified.
    fn decompress(&self, blob: &CompressedBlob) -> Result<PackedSeq, CodecError> {
        if blob.is_framed() {
            return frame::decompress_framed(self, blob);
        }
        self.decompress_with_stats(blob).map(|(s, _)| s)
    }

    /// Wall-clock breakdown of one compression run as
    /// `(model_ms, entropy_ms)`, or `None` for algorithms whose pipeline
    /// has no model/entropy split. Implementations typically time a full
    /// run, then a second run with the entropy stage replaced by a
    /// discard sink; the difference attributes time to the entropy coder.
    fn stage_times(&self, _seq: &PackedSeq) -> Option<(f64, f64)> {
        None
    }

    /// Name of the entropy backend this instance codes with — `"arith"`
    /// for the classic carry-less arithmetic coder (the default for the
    /// legacy algorithms), `"rans"` for the interleaved rANS speed tier.
    fn entropy_backend(&self) -> &'static str {
        "arith"
    }
}

/// Construct the default-configured compressor for `algorithm`.
///
/// # Panics
/// For [`Algorithm::Reference`], which needs a reference sequence — use
/// [`refcomp::ReferenceCompressor`] directly.
pub fn compressor_for(algorithm: Algorithm) -> Box<dyn Compressor> {
    match algorithm {
        Algorithm::Gzip => Box::new(GzipRs::default()),
        Algorithm::Ctw => Box::new(Ctw::default()),
        Algorithm::GenCompress => Box::new(GenCompress::default()),
        Algorithm::Dnax => Box::new(Dnax::default()),
        Algorithm::BioCompress2 => Box::new(BioCompress2::default()),
        Algorithm::DnaPackLite => Box::new(DnaPackLite::default()),
        Algorithm::Cfact => Box::new(Cfact::default()),
        Algorithm::XmLite => Box::new(XmLite::default()),
        Algorithm::Reference => {
            panic!("reference-based compression needs a reference; use ReferenceCompressor")
        }
        Algorithm::Dnac => Box::new(Dnac::default()),
        Algorithm::DnaCompress => Box::new(DnaCompress::default()),
        Algorithm::DnaSequitur => Box::new(DnaSequitur::default()),
        Algorithm::CtwLz => Box::new(CtwLz::default()),
        Algorithm::Raw => Box::new(RawPack),
        Algorithm::Bwt => Box::new(Bwt::default()),
    }
}

/// The four algorithms the paper evaluates, in its order.
pub fn paper_algorithms() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(Ctw::default()),
        Box::new(Dnax::default()),
        Box::new(GenCompress::default()),
        Box::new(GzipRs::default()),
    ]
}

/// All implemented algorithms (paper four + extensions).
pub fn all_algorithms() -> Vec<Box<dyn Compressor>> {
    let mut v = paper_algorithms();
    v.push(Box::new(BioCompress2::default()));
    v.push(Box::new(DnaPackLite::default()));
    v.push(Box::new(Cfact::default()));
    v.push(Box::new(XmLite::default()));
    v.push(Box::new(Dnac::default()));
    v.push(Box::new(DnaCompress::default()));
    v.push(Box::new(DnaSequitur::default()));
    v.push(Box::new(CtwLz::default()));
    v.push(Box::new(RawPack));
    v.push(Box::new(Bwt::default()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_algorithms() {
        for alg in Algorithm::HORIZONTAL {
            let c = compressor_for(alg);
            assert_eq!(c.algorithm(), alg);
        }
    }

    #[test]
    fn compressors_are_reusable_across_threads() {
        use dnacomp_seq::gen::GenomeModel;
        use std::sync::Arc;
        // One shared instance per algorithm, driven from several
        // threads on different sequences: output must match a fresh
        // instance compressing the same input (no hidden state).
        for alg in Algorithm::HORIZONTAL {
            let shared: Arc<dyn Compressor> = Arc::from(compressor_for(alg));
            let threads: Vec<_> = (0..3u64)
                .map(|t| {
                    let c = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        let seq = GenomeModel::default().generate(4_000 + t as usize * 512, t);
                        let blob = c.compress(&seq).unwrap();
                        assert_eq!(c.decompress(&blob).unwrap(), seq);
                        (seq, blob)
                    })
                })
                .collect();
            for t in threads {
                let (seq, blob) = t.join().unwrap();
                let fresh = compressor_for(alg).compress(&seq).unwrap();
                assert_eq!(blob, fresh, "{alg} output depends on instance history");
            }
        }
    }

    #[test]
    fn paper_set_is_the_four() {
        let names: Vec<&str> = paper_algorithms().iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["CTW", "DNAX", "GenCompress", "Gzip"]);
    }
}
