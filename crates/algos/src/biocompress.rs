//! BioCompress-2 port (extension algorithm; paper ref \[11\] / Table 1).
//!
//! Table 1: BioCompress "detects exact and reverse complement repeats",
//! encodes them with **Fibonacci coding** of length and position, and
//! BioCompress-2 encodes the non-repeat regions with **order-2 arithmetic
//! coding**. The paper surveys it but could not obtain a binary; we
//! implement it as an extension so the framework can be evaluated over a
//! wider algorithm portfolio.
//!
//! Structurally it is DNAX's ancestor: the same exact/reverse-complement
//! repeat model, but with the older universal-code pointer encoding
//! (Fibonacci instead of Elias-gamma) and absolute source positions —
//! measurably worse pointers, hence a slightly worse ratio than DNAX on
//! the same inputs.

use crate::blob::{Algorithm, CompressedBlob};
use crate::stats::{Meter, ResourceStats};
use crate::Compressor;
use dnacomp_codec::arith::{ArithDecoder, ArithEncoder};
use dnacomp_codec::bitio::{BitReader, BitWriter};
use dnacomp_codec::fibonacci::{fib_decode, fib_encode};
use dnacomp_codec::models::ContextModel;
use dnacomp_codec::repeats::{RepeatConfig, RepeatFinder, RepeatKind};
use dnacomp_codec::varint::{read_uvarint, write_uvarint};
use dnacomp_codec::CodecError;
use dnacomp_seq::{Base, PackedSeq};

/// The BioCompress-2 compressor.
#[derive(Clone, Debug)]
pub struct BioCompress2 {
    /// Repeat search configuration.
    pub search: RepeatConfig,
    /// Minimum repeat length worth a pointer.
    pub min_repeat: usize,
}

impl Default for BioCompress2 {
    fn default() -> Self {
        BioCompress2 {
            search: RepeatConfig {
                seed_len: 16,
                max_chain: 24,
                window: 0,
                search_revcomp: true,
            },
            min_repeat: 32,
        }
    }
}

impl Compressor for BioCompress2 {
    fn algorithm(&self) -> Algorithm {
        Algorithm::BioCompress2
    }

    fn compress_with_stats(
        &self,
        seq: &PackedSeq,
    ) -> Result<(CompressedBlob, ResourceStats), CodecError> {
        let mut meter = Meter::new();
        let bases = seq.unpack();
        let mut finder = RepeatFinder::new(&bases, self.search);

        let mut ctrl = BitWriter::new();
        let mut model = ContextModel::new(2);
        let mut lit_enc = ArithEncoder::new();

        let mut lit_run = 0usize; // literals accumulated but not yet framed
        let flush_literals =
            |ctrl: &mut BitWriter, run: &mut usize| -> Result<(), CodecError> {
                if *run > 0 {
                    ctrl.push_bit(false);
                    fib_encode(ctrl, *run as u64)?;
                    *run = 0;
                }
                Ok(())
            };
        let mut lit_positions: Vec<usize> = Vec::new();
        finder.sweep(|stop| {
            meter.work(self.search.max_chain as u64 / 4 + 1);
            let Some(m) = stop.find().filter(|m| m.len >= self.min_repeat) else {
                lit_run += 1;
                lit_positions.push(stop.pos());
                return Ok(1);
            };
            flush_literals(&mut ctrl, &mut lit_run)?;
            ctrl.push_bit(true);
            ctrl.push_bit(m.kind == RepeatKind::ReverseComplement);
            // BioCompress codes length and *absolute position* in
            // Fibonacci (1-based).
            fib_encode(&mut ctrl, (m.len - self.min_repeat + 1) as u64)?;
            fib_encode(&mut ctrl, m.src as u64 + 1)?;
            meter.work(m.len as u64 / 8 + 2);
            Ok(m.len)
        })?;
        flush_literals(&mut ctrl, &mut lit_run)?;
        for &p in &lit_positions {
            model.encode(&mut lit_enc, bases[p].code() as usize);
            meter.work(2);
        }
        meter.heap_snapshot(
            finder.heap_bytes() as u64
                + bases.len() as u64
                + model.heap_bytes() as u64
                + lit_positions.len() as u64 * 8,
        );

        let ctrl_bytes = ctrl.into_bytes();
        let lit_bytes = lit_enc.finish();
        let mut payload = Vec::with_capacity(ctrl_bytes.len() + lit_bytes.len() + 8);
        write_uvarint(&mut payload, ctrl_bytes.len() as u64);
        payload.extend_from_slice(&ctrl_bytes);
        payload.extend_from_slice(&lit_bytes);
        let blob = CompressedBlob::new(Algorithm::BioCompress2, seq, payload);
        Ok((blob, meter.finish()))
    }

    fn decompress_with_stats(
        &self,
        blob: &CompressedBlob,
    ) -> Result<(PackedSeq, ResourceStats), CodecError> {
        blob.expect_algorithm(Algorithm::BioCompress2)?;
        let mut meter = Meter::new();
        let mut pos = 0usize;
        let ctrl_len = read_uvarint(&blob.payload, &mut pos)? as usize;
        let ctrl_end = pos
            .checked_add(ctrl_len)
            .filter(|&e| e <= blob.payload.len())
            .ok_or(CodecError::Corrupt("control stream length"))?;
        let mut ctrl = BitReader::new(&blob.payload[pos..ctrl_end]);
        let mut lit_dec = ArithDecoder::new(&blob.payload[ctrl_end..]);
        let mut model = ContextModel::new(2);

        let mut out: Vec<Base> = Vec::with_capacity(blob.decode_capacity());
        while out.len() < blob.original_len {
            let is_repeat = ctrl.read_bit()?;
            if is_repeat {
                let revcomp = ctrl.read_bit()?;
                let len = fib_decode(&mut ctrl)? as usize + self.min_repeat - 1;
                let src = (fib_decode(&mut ctrl)? - 1) as usize;
                let dst = out.len();
                if revcomp {
                    // src is the k-mer start; source end = src + seed… no:
                    // the finder reports src_end for revcomp matches, and
                    // we encoded that value directly.
                    if src > dst || len > src {
                        return Err(CodecError::Corrupt("revcomp reference"));
                    }
                    for l in 0..len {
                        let b = out[src - 1 - l].complement();
                        out.push(b);
                    }
                } else {
                    if src >= dst {
                        return Err(CodecError::Corrupt("forward reference"));
                    }
                    for l in 0..len {
                        let b = out[src + l];
                        out.push(b);
                    }
                }
                meter.work(len as u64 / 4 + 2);
            } else {
                let run = fib_decode(&mut ctrl)? as usize;
                if run == 0 || out.len() + run > blob.original_len {
                    return Err(CodecError::Corrupt("literal run overruns output"));
                }
                for _ in 0..run {
                    let code = model.decode(&mut lit_dec)?;
                    out.push(Base::from_code(code as u8));
                }
                meter.work(run as u64 * 2);
            }
            if out.len() > blob.original_len {
                return Err(CodecError::Corrupt("repeat overruns output"));
            }
        }
        meter.heap_snapshot(out.len() as u64 + model.heap_bytes() as u64);
        let seq = PackedSeq::from(out.as_slice());
        blob.verify(&seq)?;
        Ok((seq, meter.finish()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnax::Dnax;
    use dnacomp_seq::gen::GenomeModel;
    use proptest::prelude::*;

    fn roundtrip(c: &BioCompress2, seq: &PackedSeq) -> CompressedBlob {
        let (blob, _) = c.compress_with_stats(seq).unwrap();
        let (back, _) = c.decompress_with_stats(&blob).unwrap();
        assert_eq!(&back, seq);
        blob
    }

    #[test]
    fn empty_and_tiny() {
        let c = BioCompress2::default();
        roundtrip(&c, &PackedSeq::new());
        for s in ["A", "ACGT", "GGGGGGGG"] {
            roundtrip(&c, &PackedSeq::from_ascii(s.as_bytes()).unwrap());
        }
    }

    #[test]
    fn compresses_repetitive_dna() {
        let seq = GenomeModel::highly_repetitive().generate(40_000, 7);
        let blob = roundtrip(&BioCompress2::default(), &seq);
        assert!(blob.bits_per_base() < 2.0, "{}", blob.bits_per_base());
    }

    #[test]
    fn dnax_pointers_beat_biocompress_on_long_files() {
        // Same repeat model, older pointer encoding: DNAX should win (or
        // tie) on a repeat-rich input.
        let seq = GenomeModel::highly_repetitive().generate(60_000, 3);
        let bc = roundtrip(&BioCompress2::default(), &seq);
        let dx = Dnax::default().compress(&seq).unwrap();
        assert!(dx.total_bytes() <= bc.total_bytes() * 11 / 10);
    }

    #[test]
    fn roundtrips_planted_revcomp() {
        let fwd = GenomeModel::random_only(0.5).generate(3_000, 9);
        let mut text = fwd.to_ascii();
        text.push_str(&fwd.reverse_complement().to_ascii());
        let seq = PackedSeq::from_ascii(text.as_bytes()).unwrap();
        let blob = roundtrip(&BioCompress2::default(), &seq);
        assert!(blob.bits_per_base() < 1.5, "{}", blob.bits_per_base());
    }

    #[test]
    fn rejects_corruption() {
        let seq = GenomeModel::default().generate(2_000, 13);
        let c = BioCompress2::default();
        let blob = c.compress(&seq).unwrap();
        for at in [0, blob.payload.len() / 2] {
            let mut bad = blob.clone();
            bad.payload[at] ^= 0x20;
            assert!(c.decompress(&bad).is_err());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn roundtrip_arbitrary(s in "[ACGT]{0,2000}") {
            let seq = PackedSeq::from_ascii(s.as_bytes()).unwrap();
            roundtrip(&BioCompress2::default(), &seq);
        }
    }
}
