//! CTW+LZ port (extension algorithm; paper Table 1).
//!
//! Table 1 lists "CTW+LZ — Context tree weighting" in the
//! substitution-statistics category (Matsumoto, Sadakane & Imai, the
//! paper's "Ctw+lz" \[22\]): long exact repeats are LZ-coded, and the
//! remaining literals go through a context-tree-weighting model instead
//! of a fixed-order arithmetic coder. It historically achieved the best
//! ratios of its generation at a steep time cost — exactly the blend this
//! port reproduces by composing [`dnacomp_codec::ctw`] with the repeat
//! machinery shared with DNAX.
//!
//! Streams: a control stream (flag bits + γ-coded repeat records, as in
//! DNAX) plus a CTW-modelled literal stream. The CTW history advances
//! only over literal bases, so encoder and decoder stay in lockstep
//! without modelling the copied regions twice.
//!
//! Like [`crate::ctw`], the literal stream has two tiers: v1 blobs pair
//! the log-domain binary [`CtwTree`] with the arithmetic coder
//! (bit-exact with pre-speed-tier output), v2 blobs pair the 4-ary
//! [`FastCtwTree4`] with rANS — one tree walk and one coder symbol per
//! literal base. The decoder follows the blob's version byte.

use crate::blob::{Algorithm, CompressedBlob, VERSION, VERSION_SPEED};
use crate::stats::{Meter, ResourceStats};
use crate::Compressor;
use dnacomp_codec::arith::{EntropyBackend, EntropyDecoder, EntropyEncoder};
use dnacomp_codec::bitio::{BitReader, BitWriter};
use dnacomp_codec::ctw::{BitHistory, CtwTree, FastCtwTree4};
use dnacomp_codec::fibonacci::{gamma_decode, gamma_encode};
use dnacomp_codec::repeats::{RepeatConfig, RepeatFinder, RepeatKind};
use dnacomp_codec::varint::{read_uvarint, write_uvarint};
use dnacomp_codec::CodecError;
use dnacomp_seq::{Base, PackedSeq};

/// The CTW+LZ compressor.
#[derive(Clone, Debug)]
pub struct CtwLz {
    /// Repeat search configuration.
    pub search: RepeatConfig,
    /// Minimum repeat length worth a pointer.
    pub min_repeat: usize,
    /// CTW context depth in bits for the literal model.
    pub depth: usize,
    /// CTW node-pool cap.
    pub max_nodes: usize,
    /// Entropy coding backend for the literal stream; picks the blob
    /// version on compress. Decoding follows the blob version instead.
    pub backend: EntropyBackend,
}

impl Default for CtwLz {
    fn default() -> Self {
        CtwLz {
            search: RepeatConfig {
                seed_len: 16,
                max_chain: 32,
                window: 0,
                search_revcomp: true,
            },
            min_repeat: 32,
            depth: 16,
            max_nodes: 4 << 20,
            backend: EntropyBackend::default(),
        }
    }
}

/// Literal coder protocol: the v1 path drives a binary tree two bits
/// per base, the v2 path drives the 4-ary tree one symbol per base.
/// Generic seams in `encode_payload`/`decode_bases` accept either.
trait LiteralCoder {
    fn encode_base(&mut self, enc: &mut EntropyEncoder, base: Base);
    fn decode_base(&mut self, dec: &mut EntropyDecoder<'_>) -> Base;
    fn heap_bytes(&self) -> usize;
}

/// Legacy literal coder state: a binary CTW tree + rolling bit history.
struct LiteralCtw {
    tree: CtwTree,
    hist: BitHistory,
}

impl LiteralCtw {
    fn new(tree: CtwTree) -> Self {
        LiteralCtw {
            tree,
            hist: BitHistory::new(),
        }
    }
}

impl LiteralCoder for LiteralCtw {
    fn encode_base(&mut self, enc: &mut EntropyEncoder, base: Base) {
        let code = base.code();
        for shift in [1u8, 0] {
            let bit = (code >> shift) & 1 == 1;
            let (num, den) = self.tree.predict(self.hist.value());
            enc.encode_bit(bit, num, den);
            self.tree.commit(bit);
            self.hist.push(bit);
        }
    }

    fn decode_base(&mut self, dec: &mut EntropyDecoder<'_>) -> Base {
        let mut code = 0u8;
        for _ in 0..2 {
            let (num, den) = self.tree.predict(self.hist.value());
            let bit = dec.decode_bit(num, den);
            self.tree.commit(bit);
            self.hist.push(bit);
            code = (code << 1) | bit as u8;
        }
        Base::from_code(code)
    }

    fn heap_bytes(&self) -> usize {
        self.tree.heap_bytes()
    }
}

/// Speed-tier literal coder: the 4-ary fast tree, one walk and one
/// rANS symbol per literal base.
struct LiteralCtw4 {
    tree: FastCtwTree4,
    hist: u64,
}

impl LiteralCtw4 {
    fn new(tree: FastCtwTree4) -> Self {
        LiteralCtw4 { tree, hist: 0 }
    }
}

impl LiteralCoder for LiteralCtw4 {
    fn encode_base(&mut self, enc: &mut EntropyEncoder, base: Base) {
        let sym = base.code() as usize;
        let cum = self.tree.predict4(self.hist);
        enc.encode_cum16(&cum, sym);
        self.tree.commit4(sym);
        self.hist = (self.hist << 2) | sym as u64;
    }

    fn decode_base(&mut self, dec: &mut EntropyDecoder<'_>) -> Base {
        let cum = self.tree.predict4(self.hist);
        let sym = dec.decode_cum16(&cum);
        self.tree.commit4(sym);
        self.hist = (self.hist << 2) | sym as u64;
        Base::from_code(sym as u8)
    }

    fn heap_bytes(&self) -> usize {
        self.tree.heap_bytes()
    }
}

impl CtwLz {
    /// CTW+LZ pinned to a specific entropy backend.
    pub fn with_backend(backend: EntropyBackend) -> Self {
        CtwLz {
            backend,
            ..CtwLz::default()
        }
    }

    /// Repeat search + literal modelling into `lit_enc`; returns the
    /// assembled payload (`uvarint ctrl_len`, control bytes, literal
    /// stream).
    fn encode_payload<L: LiteralCoder>(
        &self,
        bases: &[Base],
        mut lits: L,
        mut lit_enc: EntropyEncoder,
        meter: &mut Meter,
    ) -> Result<Vec<u8>, CodecError> {
        let mut finder = RepeatFinder::new(bases, self.search);
        let mut ctrl = BitWriter::new();
        let mut lit_count = 0u64;

        let mut run = 0usize; // pending literal run length
        let mut run_start = 0usize;
        finder.sweep(|stop| {
            meter.work(self.search.max_chain as u64 / 4 + 1);
            let i = stop.pos();
            let Some(m) = stop.find().filter(|m| m.len >= self.min_repeat) else {
                if run == 0 {
                    run_start = i;
                }
                run += 1;
                return Ok(1);
            };
            if run > 0 {
                ctrl.push_bit(false);
                gamma_encode(&mut ctrl, run as u64)?;
                for &b in &bases[run_start..run_start + run] {
                    lits.encode_base(&mut lit_enc, b);
                }
                lit_count += run as u64;
                run = 0;
            }
            ctrl.push_bit(true);
            ctrl.push_bit(m.kind == RepeatKind::ReverseComplement);
            gamma_encode(&mut ctrl, (m.len - self.min_repeat + 1) as u64)?;
            let delta = match m.kind {
                RepeatKind::Forward => (i - 1 - m.src) as u64,
                RepeatKind::ReverseComplement => (i - m.src) as u64,
            };
            gamma_encode(&mut ctrl, delta + 1)?;
            meter.work(m.len as u64 / 8 + 2);
            Ok(m.len)
        })?;
        if run > 0 {
            ctrl.push_bit(false);
            gamma_encode(&mut ctrl, run as u64)?;
            for &b in &bases[run_start..run_start + run] {
                lits.encode_base(&mut lit_enc, b);
            }
            lit_count += run as u64;
        }
        // CTW literal coding: a full tree walk per bit.
        meter.work(lit_count * 2 * (self.depth as u64 + 2));
        meter.heap_snapshot(
            finder.heap_bytes() as u64 + bases.len() as u64 + lits.heap_bytes() as u64,
        );

        let ctrl_bytes = ctrl.into_bytes();
        let lit_bytes = lit_enc.finish();
        let mut payload = Vec::with_capacity(ctrl_bytes.len() + lit_bytes.len() + 8);
        write_uvarint(&mut payload, ctrl_bytes.len() as u64);
        payload.extend_from_slice(&ctrl_bytes);
        payload.extend_from_slice(&lit_bytes);
        Ok(payload)
    }

    /// Replay the control stream, pulling literal bases through `lits`.
    fn decode_bases<L: LiteralCoder>(
        &self,
        blob: &CompressedBlob,
        backend: EntropyBackend,
        mut lits: L,
        meter: &mut Meter,
    ) -> Result<Vec<Base>, CodecError> {
        let mut pos = 0usize;
        let ctrl_len = read_uvarint(&blob.payload, &mut pos)? as usize;
        let ctrl_end = pos
            .checked_add(ctrl_len)
            .filter(|&e| e <= blob.payload.len())
            .ok_or(CodecError::Corrupt("control stream length"))?;
        let mut ctrl = BitReader::new(&blob.payload[pos..ctrl_end]);
        let mut lit_dec = EntropyDecoder::new(backend, &blob.payload[ctrl_end..])?;
        let mut lit_count = 0u64;

        let mut out: Vec<Base> = Vec::with_capacity(blob.decode_capacity());
        while out.len() < blob.original_len {
            if ctrl.read_bit()? {
                let revcomp = ctrl.read_bit()?;
                let len = gamma_decode(&mut ctrl)? as usize + self.min_repeat - 1;
                let delta = (gamma_decode(&mut ctrl)? - 1) as usize;
                let dst = out.len();
                if dst + len > blob.original_len {
                    return Err(CodecError::Corrupt("repeat overruns output"));
                }
                if revcomp {
                    let src_end = dst
                        .checked_sub(delta)
                        .ok_or(CodecError::Corrupt("revcomp distance"))?;
                    if len > src_end {
                        return Err(CodecError::Corrupt("revcomp length"));
                    }
                    for l in 0..len {
                        let b = out[src_end - 1 - l].complement();
                        out.push(b);
                    }
                } else {
                    let src = dst
                        .checked_sub(delta + 1)
                        .ok_or(CodecError::Corrupt("forward distance"))?;
                    for l in 0..len {
                        let b = out[src + l];
                        out.push(b);
                    }
                }
                meter.work(len as u64 / 4 + 2);
            } else {
                let run = gamma_decode(&mut ctrl)? as usize;
                if run == 0 || out.len() + run > blob.original_len {
                    return Err(CodecError::Corrupt("literal run overruns output"));
                }
                for _ in 0..run {
                    out.push(lits.decode_base(&mut lit_dec));
                }
                lit_count += run as u64;
            }
        }
        // Decompression repeats the CTW walk per literal bit — the cost
        // asymmetry the paper attributes to CTW holds for the hybrid too.
        meter.work(lit_count * 2 * (self.depth as u64 + 2));
        meter.heap_snapshot(out.len() as u64 + lits.heap_bytes() as u64);
        Ok(out)
    }
}

impl Compressor for CtwLz {
    fn algorithm(&self) -> Algorithm {
        Algorithm::CtwLz
    }

    fn compress_with_stats(
        &self,
        seq: &PackedSeq,
    ) -> Result<(CompressedBlob, ResourceStats), CodecError> {
        let mut meter = Meter::new();
        let bases = seq.unpack();
        let enc = EntropyEncoder::new(self.backend);
        let (payload, blob) = match self.backend {
            EntropyBackend::Arith => {
                let lits = LiteralCtw::new(CtwTree::with_capacity(self.depth, self.max_nodes));
                let payload = self.encode_payload(&bases, lits, enc, &mut meter)?;
                let blob = CompressedBlob::new(Algorithm::CtwLz, seq, Vec::new());
                (payload, blob)
            }
            EntropyBackend::Rans => {
                let lits =
                    LiteralCtw4::new(FastCtwTree4::with_capacity(self.depth / 2, self.max_nodes));
                let payload = self.encode_payload(&bases, lits, enc, &mut meter)?;
                let blob = CompressedBlob::new_v2(Algorithm::CtwLz, seq, Vec::new());
                (payload, blob)
            }
        };
        let blob = CompressedBlob { payload, ..blob };
        Ok((blob, meter.finish()))
    }

    fn decompress_with_stats(
        &self,
        blob: &CompressedBlob,
    ) -> Result<(PackedSeq, ResourceStats), CodecError> {
        blob.expect_algorithm(Algorithm::CtwLz)?;
        let mut meter = Meter::new();
        let out = match blob.version {
            VERSION => {
                let lits = LiteralCtw::new(CtwTree::with_capacity(self.depth, self.max_nodes));
                self.decode_bases(blob, EntropyBackend::Arith, lits, &mut meter)?
            }
            VERSION_SPEED => {
                let lits =
                    LiteralCtw4::new(FastCtwTree4::with_capacity(self.depth / 2, self.max_nodes));
                self.decode_bases(blob, EntropyBackend::Rans, lits, &mut meter)?
            }
            v => return Err(CodecError::UnknownFormat(v)),
        };
        let seq = PackedSeq::from(out.as_slice());
        blob.verify(&seq)?;
        Ok((seq, meter.finish()))
    }

    fn stage_times(&self, seq: &PackedSeq) -> Option<(f64, f64)> {
        use std::time::Instant;
        let t0 = Instant::now();
        self.compress(seq).ok()?;
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Model stage = repeat search + CTW walk into a discard sink.
        let bases = seq.unpack();
        let mut meter = Meter::new();
        let t0 = Instant::now();
        let sink = EntropyEncoder::discard();
        match self.backend {
            EntropyBackend::Arith => {
                let lits = LiteralCtw::new(CtwTree::with_capacity(self.depth, self.max_nodes));
                self.encode_payload(&bases, lits, sink, &mut meter).ok()?;
            }
            EntropyBackend::Rans => {
                let lits =
                    LiteralCtw4::new(FastCtwTree4::with_capacity(self.depth / 2, self.max_nodes));
                self.encode_payload(&bases, lits, sink, &mut meter).ok()?;
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
    use crate::ctw::Ctw;
    use crate::dnax::Dnax;
    use dnacomp_seq::gen::GenomeModel;
    use proptest::prelude::*;

    fn roundtrip(c: &CtwLz, seq: &PackedSeq) -> CompressedBlob {
        let (blob, _) = c.compress_with_stats(seq).unwrap();
        let (back, _) = c.decompress_with_stats(&blob).unwrap();
        assert_eq!(&back, seq);
        blob
    }

    #[test]
    fn empty_and_tiny() {
        let c = CtwLz::default();
        roundtrip(&c, &PackedSeq::new());
        for s in ["A", "ACGT", "GGGGGGGGG"] {
            roundtrip(&c, &PackedSeq::from_ascii(s.as_bytes()).unwrap());
        }
    }

    #[test]
    fn backends_cross_decode_via_blob_version() {
        let seq = GenomeModel::default().generate(6_000, 19);
        let legacy = CtwLz::with_backend(EntropyBackend::Arith);
        let fast = CtwLz::default();
        let v1 = legacy.compress(&seq).unwrap();
        assert_eq!(v1.version, VERSION);
        let v2 = fast.compress(&seq).unwrap();
        assert_eq!(v2.version, VERSION_SPEED);
        // Either instance decodes either blob: the version byte rules.
        assert_eq!(fast.decompress(&v1).unwrap(), seq);
        assert_eq!(legacy.decompress(&v2).unwrap(), seq);
    }

    #[test]
    fn beats_pure_ctw_on_repeat_rich_dna() {
        // The LZ stage removes long repeats the pure CTW model would
        // re-learn base by base.
        let seq = GenomeModel::highly_repetitive().generate(40_000, 7);
        let hybrid = roundtrip(&CtwLz::default(), &seq);
        let pure = Ctw::default().compress(&seq).unwrap();
        assert!(
            hybrid.total_bytes() < pure.total_bytes(),
            "CTW+LZ {} vs CTW {}",
            hybrid.total_bytes(),
            pure.total_bytes()
        );
    }

    #[test]
    fn beats_dnax_ratio_on_low_repeat_dna() {
        // Where repeats are scarce, the CTW literal model out-codes
        // DNAX's order-2 fallback.
        let seq = GenomeModel::default().generate(40_000, 11);
        let hybrid = roundtrip(&CtwLz::default(), &seq);
        let dnax = Dnax::default().compress(&seq).unwrap();
        assert!(
            hybrid.total_bytes() <= dnax.total_bytes() * 21 / 20,
            "CTW+LZ {} vs DNAX {}",
            hybrid.total_bytes(),
            dnax.total_bytes()
        );
    }

    #[test]
    fn decompression_cost_matches_compression_for_literals() {
        let seq = GenomeModel::random_only(0.5).generate(10_000, 3);
        let c = CtwLz::default();
        let (blob, cs) = c.compress_with_stats(&seq).unwrap();
        let (_, ds) = c.decompress_with_stats(&blob).unwrap();
        // All-literal input: decode work ≈ encode work (CTW symmetry).
        assert!(ds.work_units * 10 >= cs.work_units * 8);
    }

    #[test]
    fn rejects_corruption() {
        let seq = GenomeModel::default().generate(3_000, 13);
        for backend in [EntropyBackend::Arith, EntropyBackend::Rans] {
            let c = CtwLz::with_backend(backend);
            let blob = c.compress(&seq).unwrap();
            let mut trunc = blob.clone();
            trunc.payload.truncate(2);
            assert!(c.decompress(&trunc).is_err());
            for at in 0..blob.payload.len().min(16) {
                let mut bad = blob.clone();
                bad.payload[at] ^= 0x18;
                if let Ok(back) = c.decompress(&bad) {
                    assert_eq!(back, seq, "silent corruption at byte {at}");
                }
            }
        }
    }

    #[test]
    fn stage_times_reports_both_stages() {
        let seq = GenomeModel::default().generate(4_000, 23);
        let (model_ms, entropy_ms) = CtwLz::default().stage_times(&seq).unwrap();
        assert!(model_ms > 0.0);
        assert!(entropy_ms >= 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn roundtrip_arbitrary(s in "[ACGT]{0,1500}") {
            let seq = PackedSeq::from_ascii(s.as_bytes()).unwrap();
            roundtrip(&CtwLz::default(), &seq);
            roundtrip(&CtwLz::with_backend(EntropyBackend::Arith), &seq);
        }

        #[test]
        fn roundtrip_structured(seed in any::<u64>(), len in 64usize..2500) {
            let seq = GenomeModel::highly_repetitive().generate(len, seed);
            roundtrip(&CtwLz::default(), &seq);
        }
    }
}
