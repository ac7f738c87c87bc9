//! CTW compressor (Willems, Shtarkov & Tjalkens — paper ref \[25\]).
//!
//! Each base is decomposed into two bits (high bit first) and coded by a
//! shared depth-`D` CTW tree driving the entropy coder. The paper's
//! observations all emerge from this construction:
//!
//! * good compression ratio on DNA (the weighted mixture adapts to any
//!   Markov order up to D/2 bases);
//! * high RAM (the lazily-built context tree grows with the input —
//!   "CTW consumes more memory", §V-E);
//! * decompression as slow as compression ("when it comes to
//!   decompressing the sequence, on average CTW performs the worst",
//!   §V-E) — the decoder must rebuild the identical tree walk per bit,
//!   whereas the repeat-based decoders just replay copies.
//!
//! Two speed tiers share this file. The **legacy tier** (v1 blobs,
//! [`EntropyBackend::Arith`]) decomposes each base into two bits and
//! drives the log-domain [`CtwTree`] through the bit-serial arithmetic
//! coder, byte-identical to every blob written before the speed tier
//! existed. The **fast tier** (v2 blobs, the default
//! [`EntropyBackend::Rans`]) walks the 4-ary [`FastCtwTree4`] **once
//! per base** — whole-base contexts over the same window, four mixture
//! lanes per level instead of a second serial walk — and emits one
//! interleaved-rANS symbol per base. The decoder picks its tier from
//! the blob's version byte, so old data always decodes.

use crate::blob::{Algorithm, CompressedBlob, VERSION, VERSION_SPEED};
use crate::stats::{Meter, ResourceStats};
use crate::Compressor;
use dnacomp_codec::arith::{EntropyBackend, EntropyDecoder, EntropyEncoder};
use dnacomp_codec::ctw::{BitHistory, CtwTree, FastCtwTree4};
use dnacomp_codec::CodecError;
use dnacomp_seq::{Base, PackedSeq};

/// The CTW compressor.
#[derive(Clone, Debug)]
pub struct Ctw {
    /// Context depth in **bits** (2 bits per base). The paper-era CTW
    /// binaries default to depths around 12–16 bits.
    pub depth: usize,
    /// Node-pool cap bounding memory.
    pub max_nodes: usize,
    /// Entropy coding backend; picks the tree/coder tier (see module
    /// docs). Decoding ignores this and follows the blob version.
    pub backend: EntropyBackend,
}

impl Default for Ctw {
    fn default() -> Self {
        Ctw {
            depth: 16,
            max_nodes: 4 << 20,
            backend: EntropyBackend::default(),
        }
    }
}

impl Ctw {
    /// CTW with a custom context depth (in bits).
    pub fn with_depth(depth: usize) -> Self {
        Ctw {
            depth,
            ..Ctw::default()
        }
    }

    /// CTW pinned to a specific entropy backend.
    pub fn with_backend(backend: EntropyBackend) -> Self {
        Ctw {
            backend,
            ..Ctw::default()
        }
    }

    /// Per-bit work estimate: one tree walk of `depth` nodes.
    fn work_per_bit(&self) -> u64 {
        self.depth as u64 + 2
    }

    /// Drive the model over `seq`, feeding predictions to `enc`.
    fn encode_stream(tree: &mut CtwTree, seq: &PackedSeq, enc: &mut EntropyEncoder) {
        let mut hist = BitHistory::new();
        for base in seq.iter() {
            let code = base.code();
            for shift in [1u8, 0] {
                let bit = (code >> shift) & 1 == 1;
                let (num, den) = tree.predict(hist.value());
                enc.encode_bit(bit, num, den);
                tree.commit(bit);
                hist.push(bit);
            }
        }
    }

    /// Rebuild the identical model walk while pulling bits from `dec`.
    fn decode_stream(
        tree: &mut CtwTree,
        dec: &mut EntropyDecoder<'_>,
        n_bases: usize,
        capacity: usize,
    ) -> PackedSeq {
        let mut hist = BitHistory::new();
        let mut seq = PackedSeq::with_capacity(capacity);
        for _ in 0..n_bases {
            let mut code = 0u8;
            for _ in 0..2 {
                let (num, den) = tree.predict(hist.value());
                let bit = dec.decode_bit(num, den);
                tree.commit(bit);
                hist.push(bit);
                code = (code << 1) | bit as u8;
            }
            seq.push(Base::from_code(code));
        }
        seq
    }

    /// Context depth of the v2 4-ary tree in **bases**: the same window
    /// as `self.depth` bits of binary context.
    fn depth_bases(&self) -> usize {
        self.depth / 2
    }

    /// Speed-tier model walk: one 4-ary tree step and one rANS symbol
    /// per base (the v1 path pays two binary walks and two coder calls
    /// for the same information).
    fn encode_stream4(tree: &mut FastCtwTree4, seq: &PackedSeq, enc: &mut EntropyEncoder) {
        let mut hist = 0u64;
        for base in seq.iter() {
            let sym = base.code() as usize;
            let cum = tree.predict4(hist);
            enc.encode_cum16(&cum, sym);
            tree.commit4(sym);
            hist = (hist << 2) | sym as u64;
        }
    }

    /// Identical 4-ary walk, pulling symbols from `dec`.
    fn decode_stream4(
        tree: &mut FastCtwTree4,
        dec: &mut EntropyDecoder<'_>,
        n_bases: usize,
        capacity: usize,
    ) -> PackedSeq {
        let mut hist = 0u64;
        let mut seq = PackedSeq::with_capacity(capacity);
        for _ in 0..n_bases {
            let cum = tree.predict4(hist);
            let sym = dec.decode_cum16(&cum);
            tree.commit4(sym);
            hist = (hist << 2) | sym as u64;
            seq.push(Base::from_code(sym as u8));
        }
        seq
    }
}

impl Compressor for Ctw {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Ctw
    }

    fn compress_with_stats(
        &self,
        seq: &PackedSeq,
    ) -> Result<(CompressedBlob, ResourceStats), CodecError> {
        let mut meter = Meter::new();
        let mut enc = EntropyEncoder::new(self.backend);
        let (payload, tree_heap) = match self.backend {
            EntropyBackend::Arith => {
                let mut tree = CtwTree::with_capacity(self.depth, self.max_nodes);
                Ctw::encode_stream(&mut tree, seq, &mut enc);
                (enc.finish(), tree.heap_bytes())
            }
            EntropyBackend::Rans => {
                let mut tree = FastCtwTree4::with_capacity(self.depth_bases(), self.max_nodes);
                Ctw::encode_stream4(&mut tree, seq, &mut enc);
                (enc.finish(), tree.heap_bytes())
            }
        };
        meter.work(seq.len() as u64 * 2 * self.work_per_bit());
        meter.heap_snapshot(tree_heap as u64 + seq.heap_bytes() as u64);
        let blob = match self.backend {
            EntropyBackend::Arith => CompressedBlob::new(Algorithm::Ctw, seq, payload),
            EntropyBackend::Rans => CompressedBlob::new_v2(Algorithm::Ctw, seq, payload),
        };
        Ok((blob, meter.finish()))
    }

    fn decompress_with_stats(
        &self,
        blob: &CompressedBlob,
    ) -> Result<(PackedSeq, ResourceStats), CodecError> {
        blob.expect_algorithm(Algorithm::Ctw)?;
        let mut meter = Meter::new();
        let (seq, tree_heap) = match blob.version {
            VERSION => {
                let mut tree = CtwTree::with_capacity(self.depth, self.max_nodes);
                let mut dec = EntropyDecoder::new(EntropyBackend::Arith, &blob.payload)?;
                let seq = Ctw::decode_stream(
                    &mut tree,
                    &mut dec,
                    blob.original_len,
                    blob.decode_capacity(),
                );
                (seq, tree.heap_bytes())
            }
            VERSION_SPEED => {
                let mut tree = FastCtwTree4::with_capacity(self.depth_bases(), self.max_nodes);
                let mut dec = EntropyDecoder::new(EntropyBackend::Rans, &blob.payload)?;
                let seq = Ctw::decode_stream4(
                    &mut tree,
                    &mut dec,
                    blob.original_len,
                    blob.decode_capacity(),
                );
                (seq, tree.heap_bytes())
            }
            v => return Err(CodecError::UnknownFormat(v)),
        };
        // Decode performs the identical tree walk — same work as encode.
        meter.work(blob.original_len as u64 * 2 * self.work_per_bit());
        meter.heap_snapshot(tree_heap as u64 + seq.heap_bytes() as u64);
        blob.verify(&seq)?;
        Ok((seq, meter.finish()))
    }

    fn stage_times(&self, seq: &PackedSeq) -> Option<(f64, f64)> {
        use std::time::Instant;
        let t0 = Instant::now();
        self.compress(seq).ok()?;
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Same model walk into a discard sink: what remains of the full
        // run is the entropy stage.
        let t0 = Instant::now();
        let mut sink = EntropyEncoder::discard();
        match self.backend {
            EntropyBackend::Arith => {
                let mut tree = CtwTree::with_capacity(self.depth, self.max_nodes);
                Ctw::encode_stream(&mut tree, seq, &mut sink);
            }
            EntropyBackend::Rans => {
                let mut tree = FastCtwTree4::with_capacity(self.depth_bases(), self.max_nodes);
                Ctw::encode_stream4(&mut tree, seq, &mut sink);
            }
        }
        let model_ms = t0.elapsed().as_secs_f64() * 1e3;
        Some((model_ms, (full_ms - model_ms).max(0.0)))
    }

    fn entropy_backend(&self) -> &'static str {
        self.backend.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnacomp_seq::gen::GenomeModel;
    use proptest::prelude::*;

    fn roundtrip(c: &Ctw, seq: &PackedSeq) -> CompressedBlob {
        let (blob, _) = c.compress_with_stats(seq).unwrap();
        let (back, _) = c.decompress_with_stats(&blob).unwrap();
        assert_eq!(&back, seq);
        blob
    }

    #[test]
    fn empty_and_tiny() {
        let c = Ctw::default();
        roundtrip(&c, &PackedSeq::new());
        for s in ["A", "ACGT", "TTTTTTT"] {
            roundtrip(&c, &PackedSeq::from_ascii(s.as_bytes()).unwrap());
        }
    }

    #[test]
    fn default_backend_is_rans_and_writes_v2() {
        let seq = GenomeModel::default().generate(3_000, 9);
        let blob = Ctw::default().compress(&seq).unwrap();
        assert_eq!(blob.version, VERSION_SPEED);
    }

    #[test]
    fn arith_backend_writes_v1_and_any_instance_decodes_it() {
        // Legacy compatibility: a v1 (arithmetic) blob must decode
        // through a default-configured (rANS-backend) compressor — the
        // decoder follows the blob version, not the instance backend.
        let seq = GenomeModel::default().generate(5_000, 11);
        let legacy = Ctw::with_backend(EntropyBackend::Arith);
        let blob = legacy.compress(&seq).unwrap();
        assert_eq!(blob.version, VERSION);
        assert_eq!(Ctw::default().decompress(&blob).unwrap(), seq);
        // And the reverse: the legacy-pinned instance decodes v2 blobs.
        let v2 = Ctw::default().compress(&seq).unwrap();
        assert_eq!(legacy.decompress(&v2).unwrap(), seq);
    }

    #[test]
    fn speed_tier_ratio_is_no_worse_than_legacy() {
        // The v2 tier swaps the binary tree for the 4-ary one; whole-base
        // contexts model DNA a little better, so the speed tier is allowed
        // to *win* on ratio but must never give back more than noise.
        let seq = GenomeModel::default().generate(20_000, 13);
        let a = Ctw::with_backend(EntropyBackend::Arith).compress(&seq).unwrap();
        let r = Ctw::with_backend(EntropyBackend::Rans).compress(&seq).unwrap();
        let (ab, rb) = (a.bits_per_base(), r.bits_per_base());
        assert!(rb < ab + 0.02, "rans tier lost ratio: arith {ab} vs rans {rb} bits/base");
        assert!(ab - rb < 0.5, "tiers diverged implausibly: arith {ab} vs rans {rb} bits/base");
    }

    #[test]
    fn beats_two_bits_per_base_on_dna() {
        let seq = GenomeModel::default().generate(30_000, 7);
        let blob = roundtrip(&Ctw::default(), &seq);
        assert!(
            blob.bits_per_base() < 2.0,
            "bits/base = {}",
            blob.bits_per_base()
        );
    }

    #[test]
    fn strong_on_repetitive_dna() {
        let seq = GenomeModel::highly_repetitive().generate(30_000, 7);
        let blob = roundtrip(&Ctw::default(), &seq);
        assert!(
            blob.bits_per_base() < 1.8,
            "bits/base = {}",
            blob.bits_per_base()
        );
    }

    #[test]
    fn near_two_bits_on_random_dna() {
        let seq = GenomeModel::random_only(0.5).generate(20_000, 7);
        let blob = roundtrip(&Ctw::default(), &seq);
        let bpb = blob.bits_per_base();
        assert!(bpb < 2.15, "bits/base = {bpb}");
        assert!(bpb > 1.9, "bits/base = {bpb}");
    }

    #[test]
    fn decompress_work_equals_compress_work() {
        let seq = GenomeModel::default().generate(5_000, 3);
        let c = Ctw::default();
        let (blob, cs) = c.compress_with_stats(&seq).unwrap();
        let (_, ds) = c.decompress_with_stats(&blob).unwrap();
        assert_eq!(cs.work_units, ds.work_units);
    }

    #[test]
    fn ram_grows_with_input() {
        let c = Ctw::default();
        let small = GenomeModel::random_only(0.5).generate(2_000, 1);
        let large = GenomeModel::random_only(0.5).generate(40_000, 1);
        let (_, s1) = c.compress_with_stats(&small).unwrap();
        let (_, s2) = c.compress_with_stats(&large).unwrap();
        assert!(s2.peak_heap_bytes > s1.peak_heap_bytes);
    }

    #[test]
    fn deeper_context_compresses_periodic_better() {
        let seq = PackedSeq::from_ascii("ACGTTACG".repeat(2000).as_bytes()).unwrap();
        let shallow = roundtrip(&Ctw::with_depth(2), &seq);
        let deep = roundtrip(&Ctw::with_depth(16), &seq);
        assert!(deep.total_bytes() < shallow.total_bytes());
    }

    #[test]
    fn bounded_pool_still_roundtrips() {
        let seq = GenomeModel::default().generate(10_000, 5);
        for backend in [EntropyBackend::Arith, EntropyBackend::Rans] {
            let c = Ctw {
                depth: 16,
                max_nodes: 256,
                backend,
            };
            roundtrip(&c, &seq);
        }
    }

    #[test]
    fn rejects_foreign_and_corrupt_blobs() {
        let seq = GenomeModel::default().generate(1_000, 2);
        for backend in [EntropyBackend::Arith, EntropyBackend::Rans] {
            let c = Ctw::with_backend(backend);
            let mut blob = c.compress(&seq).unwrap();
            let mut wrong = blob.clone();
            wrong.algorithm = Algorithm::Gzip;
            assert!(c.decompress(&wrong).is_err());
            let mid = blob.payload.len() / 2;
            blob.payload[mid] ^= 0x40;
            assert!(c.decompress(&blob).is_err());
        }
    }

    #[test]
    fn stage_times_reports_both_stages() {
        let seq = GenomeModel::default().generate(4_000, 17);
        let (model_ms, entropy_ms) = Ctw::default().stage_times(&seq).unwrap();
        assert!(model_ms > 0.0);
        assert!(entropy_ms >= 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn roundtrip_arbitrary(s in "[ACGT]{0,800}", depth in 0usize..20) {
            let seq = PackedSeq::from_ascii(s.as_bytes()).unwrap();
            let c = Ctw::with_depth(depth);
            roundtrip(&c, &seq);
            let c = Ctw { backend: EntropyBackend::Arith, ..Ctw::with_depth(depth) };
            roundtrip(&c, &seq);
        }
    }
}
