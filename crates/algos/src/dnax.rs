//! DNAX port (paper ref \[17\]).
//!
//! §III-A: *"DNAX unlike Gencompress works on the exact repeats. … It
//! follows the strategy of encoding the exact repeats only … When no
//! match is found, arithmetic coding is utilized."* DNAX also exploits
//! reverse-complement repeats (Table 1: "Exact Repeats and Reverse
//! Complement").
//!
//! Implementation: a left-to-right sweep with a hash-chain
//! [`RepeatFinder`]. Accepted repeats (≥ `min_repeat`) become
//! `(kind, length, distance)` records in a control stream (Elias-gamma
//! coded); everything else is a literal run coded by an order-2 adaptive
//! arithmetic model. Decompression replays copies directly — that is why
//! DNAX has "foremost least decompression time" (§IV-B) and why the
//! paper's framework picks it for large files.

use crate::blob::{Algorithm, CompressedBlob};
use crate::stats::{Meter, ResourceStats};
use crate::Compressor;
use dnacomp_codec::arith::{ArithDecoder, ArithEncoder};
use dnacomp_codec::bitio::{BitReader, BitWriter};
use dnacomp_codec::fibonacci::{gamma_decode, gamma_encode};
use dnacomp_codec::models::ContextModel;
use dnacomp_codec::repeats::{RepeatConfig, RepeatFinder, RepeatKind, RepeatMatch};
use dnacomp_codec::varint::{read_uvarint, write_uvarint};
use dnacomp_codec::CodecError;
use dnacomp_seq::{Base, PackedSeq};

/// The DNAX compressor.
///
/// ```
/// use dnacomp_algos::{Compressor, Dnax};
/// use dnacomp_seq::gen::GenomeModel;
/// let seq = GenomeModel::default().generate(20_000, 7);
/// let dnax = Dnax::default();
/// let blob = dnax.compress(&seq).unwrap();
/// assert!(blob.bits_per_base() < 2.0);            // beats 2-bit packing
/// assert_eq!(dnax.decompress(&blob).unwrap(), seq);
/// ```
#[derive(Clone, Debug)]
pub struct Dnax {
    /// Repeat-search configuration (seed length, probe budget, window).
    pub search: RepeatConfig,
    /// Minimum repeat length worth a pointer. The paper notes "the
    /// threshold is what changes the RAM consumption and time of
    /// compression" — this is that threshold.
    pub min_repeat: usize,
    /// Order of the literal-fallback context model.
    pub literal_order: usize,
}

impl Default for Dnax {
    fn default() -> Self {
        Dnax {
            search: RepeatConfig {
                seed_len: 16,
                max_chain: 32,
                window: 0,
                search_revcomp: true,
            },
            min_repeat: 24,
            literal_order: 2,
        }
    }
}

impl Dnax {
    /// DNAX with a custom repeat threshold (ablation knob).
    pub fn with_min_repeat(min_repeat: usize) -> Self {
        let mut d = Dnax::default();
        d.min_repeat = min_repeat.max(d.search.seed_len);
        d
    }
}

/// One parsed segment of the input.
enum Segment {
    Repeat(RepeatMatch),
    Literals { start: usize, len: usize },
}

impl Compressor for Dnax {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Dnax
    }

    fn compress_with_stats(
        &self,
        seq: &PackedSeq,
    ) -> Result<(CompressedBlob, ResourceStats), CodecError> {
        let mut meter = Meter::new();
        let bases = seq.unpack();
        let mut finder = RepeatFinder::new(&bases, self.search);

        // Parse into segments.
        let mut segments: Vec<Segment> = Vec::new();
        let mut lit_start = 0usize;
        finder.sweep(|stop| {
            meter.work(self.search.max_chain as u64 / 4 + 1);
            let i = stop.pos();
            let Some(m) = stop.find().filter(|m| m.len >= self.min_repeat) else {
                return Ok(1);
            };
            if i > lit_start {
                segments.push(Segment::Literals {
                    start: lit_start,
                    len: i - lit_start,
                });
            }
            segments.push(Segment::Repeat(m));
            meter.work(m.len as u64 / 8);
            lit_start = i + m.len;
            Ok(m.len)
        })?;
        if bases.len() > lit_start {
            segments.push(Segment::Literals {
                start: lit_start,
                len: bases.len() - lit_start,
            });
        }
        meter.heap_snapshot(
            finder.heap_bytes() as u64
                + bases.len() as u64
                + segments.len() as u64 * std::mem::size_of::<Segment>() as u64,
        );

        // Encode control stream + literal stream.
        let mut ctrl = BitWriter::new();
        let mut model = ContextModel::new(self.literal_order);
        let mut lit_enc = ArithEncoder::new();
        let mut dst = 0usize; // running copy position; the sweep defines it
        for seg in &segments {
            match seg {
                Segment::Repeat(m) => {
                    ctrl.push_bit(true);
                    ctrl.push_bit(m.kind == RepeatKind::ReverseComplement);
                    gamma_encode(&mut ctrl, (m.len - self.min_repeat + 1) as u64)?;
                    // The decoder knows its own position, so a backwards
                    // distance identifies the source.
                    let delta = match m.kind {
                        RepeatKind::Forward => (dst - 1 - m.src) as u64,
                        RepeatKind::ReverseComplement => (dst - m.src) as u64,
                    };
                    gamma_encode(&mut ctrl, delta + 1)?;
                    dst += m.len;
                    meter.work(2);
                }
                Segment::Literals { start, len } => {
                    ctrl.push_bit(false);
                    gamma_encode(&mut ctrl, *len as u64)?;
                    for b in &bases[*start..*start + *len] {
                        model.encode(&mut lit_enc, b.code() as usize);
                    }
                    dst += *len;
                    meter.work(*len as u64 * 2);
                }
            }
        }
        debug_assert_eq!(dst, bases.len());
        meter.heap_snapshot(
            finder.heap_bytes() as u64 + bases.len() as u64 + model.heap_bytes() as u64,
        );

        let ctrl_bytes = ctrl.into_bytes();
        let lit_bytes = lit_enc.finish();
        let mut payload = Vec::with_capacity(ctrl_bytes.len() + lit_bytes.len() + 8);
        write_uvarint(&mut payload, ctrl_bytes.len() as u64);
        payload.extend_from_slice(&ctrl_bytes);
        payload.extend_from_slice(&lit_bytes);
        let blob = CompressedBlob::new(Algorithm::Dnax, seq, payload);
        Ok((blob, meter.finish()))
    }

    fn decompress_with_stats(
        &self,
        blob: &CompressedBlob,
    ) -> Result<(PackedSeq, ResourceStats), CodecError> {
        blob.expect_algorithm(Algorithm::Dnax)?;
        let mut meter = Meter::new();
        let mut pos = 0usize;
        let ctrl_len = read_uvarint(&blob.payload, &mut pos)? as usize;
        let ctrl_end = pos
            .checked_add(ctrl_len)
            .filter(|&e| e <= blob.payload.len())
            .ok_or(CodecError::Corrupt("control stream length"))?;
        let mut ctrl = BitReader::new(&blob.payload[pos..ctrl_end]);
        let mut lit_dec = ArithDecoder::new(&blob.payload[ctrl_end..]);
        let mut model = ContextModel::new(self.literal_order);

        let mut out: Vec<Base> = Vec::with_capacity(blob.decode_capacity());
        while out.len() < blob.original_len {
            let is_repeat = ctrl.read_bit()?;
            if is_repeat {
                let revcomp = ctrl.read_bit()?;
                let len = gamma_decode(&mut ctrl)? as usize + self.min_repeat - 1;
                let delta = gamma_decode(&mut ctrl)? - 1;
                let dst = out.len();
                let m = decode_match(revcomp, len, delta, dst)?;
                let copied = m
                    .resolve(&out, dst)
                    .ok_or(CodecError::Corrupt("unresolvable repeat reference"))?;
                out.extend_from_slice(&copied);
                meter.work(len as u64 / 4 + 2);
            } else {
                let len = gamma_decode(&mut ctrl)? as usize;
                if len == 0 || out.len() + len > blob.original_len {
                    return Err(CodecError::Corrupt("literal run overruns output"));
                }
                for _ in 0..len {
                    let code = model.decode(&mut lit_dec)?;
                    out.push(Base::from_code(code as u8));
                }
                meter.work(len as u64 * 2);
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

/// Rebuild a [`RepeatMatch`] from its decoded fields.
fn decode_match(
    revcomp: bool,
    len: usize,
    delta: u64,
    dst: usize,
) -> Result<RepeatMatch, CodecError> {
    let delta = delta as usize;
    if revcomp {
        let src_end = dst
            .checked_sub(delta)
            .ok_or(CodecError::Corrupt("revcomp distance out of range"))?;
        Ok(RepeatMatch {
            src: src_end,
            len,
            kind: RepeatKind::ReverseComplement,
        })
    } else {
        if delta + 1 > dst {
            return Err(CodecError::Corrupt("forward distance out of range"));
        }
        Ok(RepeatMatch {
            src: dst - delta - 1,
            len,
            kind: RepeatKind::Forward,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnacomp_seq::gen::GenomeModel;
    use proptest::prelude::*;

    fn roundtrip(c: &Dnax, seq: &PackedSeq) -> CompressedBlob {
        let (blob, _) = c.compress_with_stats(seq).unwrap();
        let (back, _) = c.decompress_with_stats(&blob).unwrap();
        assert_eq!(&back, seq);
        blob
    }

    #[test]
    fn empty_and_tiny() {
        let c = Dnax::default();
        roundtrip(&c, &PackedSeq::new());
        for s in ["A", "ACGT", "TTTTTTT"] {
            roundtrip(&c, &PackedSeq::from_ascii(s.as_bytes()).unwrap());
        }
    }

    #[test]
    fn exploits_exact_repeats() {
        // A long planted repeat must compress far below 2 bits/base.
        let unique = GenomeModel::random_only(0.5).generate(5_000, 42).to_ascii();
        let mut text = unique.clone();
        for _ in 0..6 {
            text.push_str(&unique);
        }
        let seq = PackedSeq::from_ascii(text.as_bytes()).unwrap();
        let blob = roundtrip(&Dnax::default(), &seq);
        assert!(blob.bits_per_base() < 0.5, "{}", blob.bits_per_base());
    }

    #[test]
    fn exploits_revcomp_repeats() {
        let fwd = GenomeModel::random_only(0.5).generate(4_000, 9);
        let mut text = fwd.to_ascii();
        text.push_str(&fwd.reverse_complement().to_ascii());
        let seq = PackedSeq::from_ascii(text.as_bytes()).unwrap();
        let blob = roundtrip(&Dnax::default(), &seq);
        // Second half is a single revcomp copy: well under half the cost.
        assert!(blob.bits_per_base() < 1.3, "{}", blob.bits_per_base());
        // And disabling revcomp search must do measurably worse.
        let mut no_rc = Dnax::default();
        no_rc.search.search_revcomp = false;
        let blob2 = roundtrip(&no_rc, &seq);
        assert!(blob2.total_bytes() > blob.total_bytes());
    }

    #[test]
    fn stays_near_two_bits_on_random_dna() {
        let seq = GenomeModel::random_only(0.5).generate(20_000, 3);
        let blob = roundtrip(&Dnax::default(), &seq);
        let bpb = blob.bits_per_base();
        assert!(bpb < 2.2, "bits/base = {bpb}");
    }

    #[test]
    fn beats_two_bits_on_default_genome() {
        let seq = GenomeModel::default().generate(40_000, 7);
        let blob = roundtrip(&Dnax::default(), &seq);
        assert!(blob.bits_per_base() < 2.0, "{}", blob.bits_per_base());
    }

    #[test]
    fn decompress_much_cheaper_than_compress() {
        let seq = GenomeModel::default().generate(30_000, 5);
        let c = Dnax::default();
        let (blob, cs) = c.compress_with_stats(&seq).unwrap();
        let (_, ds) = c.decompress_with_stats(&blob).unwrap();
        assert!(
            ds.work_units * 2 < cs.work_units,
            "decode {} vs encode {}",
            ds.work_units,
            cs.work_units
        );
    }

    #[test]
    fn threshold_ablation_changes_output() {
        let seq = GenomeModel::highly_repetitive().generate(20_000, 11);
        let tight = roundtrip(&Dnax::with_min_repeat(16), &seq);
        let loose = roundtrip(&Dnax::with_min_repeat(64), &seq);
        // A looser threshold must not compress better.
        assert!(tight.total_bytes() <= loose.total_bytes());
    }

    #[test]
    fn corruption_never_yields_wrong_data() {
        let seq = GenomeModel::default().generate(3_000, 13);
        let c = Dnax::default();
        let blob = c.compress(&seq).unwrap();
        let mut wrong = blob.clone();
        wrong.algorithm = Algorithm::Ctw;
        assert!(c.decompress(&wrong).is_err());
        // A flipped bit may land in inert padding (decode then succeeds
        // and must equal the original); semantic damage must error.
        for at in 0..blob.payload.len().min(64) {
            let mut bad = blob.clone();
            bad.payload[at] ^= 0x08;
            if let Ok(back) = c.decompress(&bad) {
                assert_eq!(back, seq, "silent corruption at byte {at}");
            }
        }
    }

    #[test]
    fn truncated_payload_rejected() {
        let seq = GenomeModel::default().generate(2_000, 17);
        let c = Dnax::default();
        let mut blob = c.compress(&seq).unwrap();
        blob.payload.truncate(blob.payload.len() / 2);
        assert!(c.decompress(&blob).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn roundtrip_arbitrary(s in "[ACGT]{0,3000}") {
            let seq = PackedSeq::from_ascii(s.as_bytes()).unwrap();
            roundtrip(&Dnax::default(), &seq);
        }

        #[test]
        fn roundtrip_structured(
            seed in any::<u64>(),
            len in 100usize..5000,
        ) {
            let seq = GenomeModel::highly_repetitive().generate(len, seed);
            roundtrip(&Dnax::default(), &seq);
        }
    }
}
