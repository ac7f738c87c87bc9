//! The compressed container format shared by every algorithm.
//!
//! Layout (bytes):
//!
//! ```text
//! 0..2   magic  b"DX"
//! 2      format version (1, 2 or 3)
//! 3      algorithm tag
//! 4..    uvarint: original length in bases
//! ..     u64 LE: FNV-1a checksum of the original packed words
//! ..     payload
//! ```
//!
//! A container is **flat** or **framed**. A flat container (version 1,
//! arithmetic-coded, or 2, the rANS speed tier) carries one
//! algorithm-specific bit stream as its payload. A framed container
//! ([`VERSION_FRAMED`]) carries the block size followed by one flat
//! container per fixed-size block (layout and checks in
//! [`crate::frame`]); its header's length and checksum cover the whole
//! sequence. Both decode through [`crate::Compressor::decompress`],
//! and every codec's `decompress_with_stats` refuses a framed container
//! through [`CompressedBlob::expect_algorithm`], so block records are
//! never read as a flat payload.
//!
//! The checksum lets the decompressor prove integrity end-to-end — the
//! paper's scenario ships blobs through a cloud blob store, and silent
//! corruption of genomic data is unacceptable downstream.

use dnacomp_codec::checksum::fnv1a;
use dnacomp_codec::varint::{read_u64_le, read_uvarint, write_u64_le, write_uvarint};
use dnacomp_codec::CodecError;
use dnacomp_seq::PackedSeq;

/// Magic prefix of every container.
pub const MAGIC: [u8; 2] = *b"DX";
/// Original container format version: arithmetic-coded payloads.
pub const VERSION: u8 = 1;
/// Speed-tier container version: rANS-coded payloads (PR 10). Decoders
/// branch on the version byte, so every v1 blob ever written still
/// decodes bit-exactly through the legacy arithmetic path.
pub const VERSION_SPEED: u8 = 2;
/// Framed container version: the payload is a block size followed by
/// per-block flat containers ([`crate::frame`]).
pub const VERSION_FRAMED: u8 = 3;

/// Upper bound on any allocation a decoder makes *up front* from the
/// container header, in bases (4 Mi ≈ one bacterial chromosome).
///
/// `original_len` travels in the header, so a corrupted or hostile blob
/// can claim any length up to `u64::MAX`; decoders that pre-allocate it
/// verbatim hand the attacker an OOM. Buffers start at
/// [`CompressedBlob::decode_capacity`] instead and grow with the bytes
/// the payload actually decodes — a lying header then costs at most one
/// bounded allocation before the payload runs out and the decode fails
/// with a typed error.
pub const MAX_PREALLOC_BASES: usize = 1 << 22;

/// The implemented compression algorithms.
#[derive(
    Clone,
    Copy,
    Debug,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    serde::Serialize,
    serde::Deserialize,
)]
#[repr(u8)]
pub enum Algorithm {
    /// General-purpose LZ77 + Huffman (the paper's Gzip).
    Gzip = 0,
    /// Context-tree weighting.
    Ctw = 1,
    /// Approximate-repeat substitution with edit operations.
    GenCompress = 2,
    /// Exact + reverse-complement repeats with arithmetic fallback.
    Dnax = 3,
    /// BioCompress-2 (extension; paper Table 1).
    BioCompress2 = 4,
    /// DNAPack-style per-block selector (extension; paper Table 1).
    DnaPackLite = 5,
    /// Cfact-style two-pass suffix-structure compressor (extension;
    /// paper Table 1).
    Cfact = 6,
    /// XM-lite expert-mixture statistical compressor (extension; paper
    /// §III-A ref \[19\]).
    XmLite = 7,
    /// Vertical-mode reference-based compression (extension; paper §VI
    /// future work). Not a [`crate::Compressor`]: decoding needs the
    /// reference, via [`crate::refcomp::ReferenceCompressor`].
    Reference = 8,
    /// DNAC four-phase suffix-structure compressor with optimal
    /// non-overlapping repeat selection (extension; paper §III-A).
    Dnac = 9,
    /// DNACompress with PatternHunter spaced seeds (extension; paper
    /// §III-A / Table 1).
    DnaCompress = 10,
    /// Grammar-based DNASequitur via recursive pairing (extension; paper
    /// §III-A).
    DnaSequitur = 11,
    /// CTW+LZ hybrid: LZ repeats + CTW-coded literals (extension; paper
    /// Table 1).
    CtwLz = 12,
    /// Uncompressed 2-bit packing — no model, no search, ~2 bits/base.
    /// The graceful-degradation ladder's last resort: when every real
    /// compressor has failed or been circuit-broken, the exchange still
    /// ships a checksummed container.
    Raw = 13,
    /// BWT + move-to-front + zero-run RLE + rANS block compressor
    /// (extension; the bzip2 pipeline specialised to the 4-letter
    /// alphabet).
    Bwt = 14,
}

impl Algorithm {
    /// All algorithms, tag order.
    pub const ALL: [Algorithm; 15] = [
        Algorithm::Gzip,
        Algorithm::Ctw,
        Algorithm::GenCompress,
        Algorithm::Dnax,
        Algorithm::BioCompress2,
        Algorithm::DnaPackLite,
        Algorithm::Cfact,
        Algorithm::XmLite,
        Algorithm::Reference,
        Algorithm::Dnac,
        Algorithm::DnaCompress,
        Algorithm::DnaSequitur,
        Algorithm::CtwLz,
        Algorithm::Raw,
        Algorithm::Bwt,
    ];

    /// The horizontal (self-contained) algorithms — everything that
    /// implements [`crate::Compressor`].
    pub const HORIZONTAL: [Algorithm; 14] = [
        Algorithm::Gzip,
        Algorithm::Ctw,
        Algorithm::GenCompress,
        Algorithm::Dnax,
        Algorithm::BioCompress2,
        Algorithm::DnaPackLite,
        Algorithm::Cfact,
        Algorithm::XmLite,
        Algorithm::Dnac,
        Algorithm::DnaCompress,
        Algorithm::DnaSequitur,
        Algorithm::CtwLz,
        Algorithm::Raw,
        Algorithm::Bwt,
    ];

    /// The paper's four evaluated algorithms.
    pub const PAPER: [Algorithm; 4] = [
        Algorithm::Ctw,
        Algorithm::Dnax,
        Algorithm::GenCompress,
        Algorithm::Gzip,
    ];

    /// The paper's spelling of the algorithm name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Gzip => "Gzip",
            Algorithm::Ctw => "CTW",
            Algorithm::GenCompress => "GenCompress",
            Algorithm::Dnax => "DNAX",
            Algorithm::BioCompress2 => "BioCompress2",
            Algorithm::DnaPackLite => "DNAPack-lite",
            Algorithm::Cfact => "Cfact",
            Algorithm::XmLite => "XM-lite",
            Algorithm::Reference => "Reference",
            Algorithm::Dnac => "DNAC",
            Algorithm::DnaCompress => "DNACompress",
            Algorithm::DnaSequitur => "DNASequitur",
            Algorithm::CtwLz => "CTW+LZ",
            Algorithm::Raw => "Raw",
            Algorithm::Bwt => "BWT",
        }
    }

    /// Container tag byte.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Parse a container tag byte.
    pub fn from_tag(tag: u8) -> Result<Algorithm, CodecError> {
        Algorithm::ALL
            .into_iter()
            .find(|a| a.tag() == tag)
            .ok_or(CodecError::UnknownFormat(tag))
    }

    /// Parse the paper's spelling (case-insensitive).
    pub fn from_name(name: &str) -> Option<Algorithm> {
        Algorithm::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A compressed sequence: container metadata plus algorithm payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompressedBlob {
    /// Container format version ([`VERSION`], [`VERSION_SPEED`] or
    /// [`VERSION_FRAMED`]). Decoders branch on this to pick the legacy
    /// arithmetic path (v1), the rANS speed-tier path (v2) or the
    /// block-by-block frame decoder (v3).
    pub version: u8,
    /// Which algorithm produced the payload.
    pub algorithm: Algorithm,
    /// Original sequence length in bases.
    pub original_len: usize,
    /// FNV-1a of the original packed words (tail bits zeroed).
    pub checksum: u64,
    /// Algorithm-specific payload, or the frame body of a framed
    /// container.
    pub payload: Vec<u8>,
}

impl CompressedBlob {
    /// Build a legacy (v1, arithmetic-coded) blob for `seq` with the
    /// given payload.
    pub fn new(algorithm: Algorithm, seq: &PackedSeq, payload: Vec<u8>) -> Self {
        CompressedBlob {
            version: VERSION,
            algorithm,
            original_len: seq.len(),
            checksum: fnv1a(seq.as_words()),
            payload,
        }
    }

    /// Build a speed-tier (v2, rANS-coded) blob for `seq` with the given
    /// payload.
    pub fn new_v2(algorithm: Algorithm, seq: &PackedSeq, payload: Vec<u8>) -> Self {
        CompressedBlob {
            version: VERSION_SPEED,
            ..CompressedBlob::new(algorithm, seq, payload)
        }
    }

    /// Serialised container size in bytes — the "compressed file size"
    /// reported in Figure 4.
    pub fn total_bytes(&self) -> usize {
        self.to_bytes().len()
    }

    /// Header size without the payload.
    pub fn header_bytes(&self) -> usize {
        self.total_bytes() - self.payload.len()
    }

    /// Compression ratio in bits per base (including container overhead).
    pub fn bits_per_base(&self) -> f64 {
        if self.original_len == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 * 8.0 / self.original_len as f64
    }

    /// Serialise to the wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 16);
        out.extend_from_slice(&MAGIC);
        out.push(self.version);
        out.push(self.algorithm.tag());
        write_uvarint(&mut out, self.original_len as u64);
        write_u64_le(&mut out, self.checksum);
        out.extend_from_slice(&self.payload);
        out
    }

    /// `true` for a framed container ([`VERSION_FRAMED`]).
    pub fn is_framed(&self) -> bool {
        self.version == VERSION_FRAMED
    }

    /// Parse from the wire format. A framed container's header must
    /// also pass the frame's length, block-size and affordability
    /// checks ([`crate::frame::parse_header`]); its block records are
    /// checked when it is decoded.
    pub fn from_bytes(bytes: &[u8]) -> Result<CompressedBlob, CodecError> {
        if bytes.len() < 4 || bytes[0..2] != MAGIC {
            return Err(CodecError::Corrupt("bad container magic"));
        }
        let version = bytes[2];
        if !matches!(version, VERSION | VERSION_SPEED | VERSION_FRAMED) {
            return Err(CodecError::UnknownFormat(version));
        }
        let algorithm = Algorithm::from_tag(bytes[3])?;
        let mut pos = 4;
        let original_len = read_uvarint(bytes, &mut pos)?;
        let checksum = read_u64_le(bytes, &mut pos)?;
        if version == VERSION_FRAMED {
            crate::frame::parse_header(original_len, &bytes[pos..])?;
        }
        let original_len = original_len as usize;
        Ok(CompressedBlob {
            version,
            algorithm,
            original_len,
            checksum,
            payload: bytes[pos..].to_vec(),
        })
    }

    /// Verify that `seq` matches this blob's checksum and length.
    pub fn verify(&self, seq: &PackedSeq) -> Result<(), CodecError> {
        if seq.len() != self.original_len {
            return Err(CodecError::Corrupt("decoded length mismatch"));
        }
        let actual = fnv1a(seq.as_words());
        if actual != self.checksum {
            return Err(CodecError::ChecksumMismatch {
                expected: self.checksum,
                actual,
            });
        }
        Ok(())
    }

    /// Initial capacity for decode output buffers: the declared length,
    /// clamped to [`MAX_PREALLOC_BASES`] so an attacker-reachable header
    /// cannot force an unbounded pre-allocation (see the const's docs).
    pub fn decode_capacity(&self) -> usize {
        self.original_len.min(MAX_PREALLOC_BASES)
    }

    /// Check the blob belongs to `algorithm` and is a flat container
    /// with a plausible header (decoders call this first).
    ///
    /// A framed container is refused with
    /// `UnknownFormat(VERSION_FRAMED)`: its payload is block records,
    /// not this algorithm's bit stream, and it decodes through
    /// [`crate::Compressor::decompress`] instead.
    ///
    /// Rejecting `original_len > MAX_PREALLOC_BASES` here bounds not
    /// just decoder *memory* but decoder *work*: decode loops run
    /// O(`original_len`) iterations before the final checksum can expose
    /// a lying header, so a header claiming 2⁴⁰ bases must be refused
    /// before the loop starts, not caught after it ends. The cap is a
    /// documented container limit — one blob holds at most
    /// [`MAX_PREALLOC_BASES`] bases, far above anything this pipeline
    /// compresses as a single blob.
    pub fn expect_algorithm(&self, algorithm: Algorithm) -> Result<(), CodecError> {
        if self.algorithm != algorithm {
            return Err(CodecError::UnknownFormat(self.algorithm.tag()));
        }
        if self.is_framed() {
            return Err(CodecError::UnknownFormat(VERSION_FRAMED));
        }
        if self.original_len > MAX_PREALLOC_BASES {
            return Err(CodecError::Corrupt("declared length exceeds container limit"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_seq() -> PackedSeq {
        PackedSeq::from_ascii(b"ACGTACGTGGTTAACC").unwrap()
    }

    #[test]
    fn names_roundtrip() {
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::from_name(a.name()), Some(a));
            assert_eq!(Algorithm::from_tag(a.tag()).unwrap(), a);
        }
        assert_eq!(Algorithm::from_name("dnax"), Some(Algorithm::Dnax));
        assert_eq!(Algorithm::from_name("nope"), None);
        assert!(Algorithm::from_tag(99).is_err());
    }

    #[test]
    fn container_roundtrip() {
        let seq = sample_seq();
        let blob = CompressedBlob::new(Algorithm::Dnax, &seq, vec![1, 2, 3]);
        let bytes = blob.to_bytes();
        let back = CompressedBlob::from_bytes(&bytes).unwrap();
        assert_eq!(back, blob);
        assert_eq!(back.total_bytes(), bytes.len());
        assert!(back.header_bytes() >= 13);
    }

    #[test]
    fn verify_accepts_original_rejects_other() {
        let seq = sample_seq();
        let blob = CompressedBlob::new(Algorithm::Ctw, &seq, vec![]);
        assert!(blob.verify(&seq).is_ok());
        let other = PackedSeq::from_ascii(b"ACGTACGTGGTTAACG").unwrap();
        assert!(matches!(
            blob.verify(&other),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        let short = PackedSeq::from_ascii(b"ACGT").unwrap();
        assert!(matches!(blob.verify(&short), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(CompressedBlob::from_bytes(b"").is_err());
        assert!(CompressedBlob::from_bytes(b"XY\x01\x00").is_err());
        assert!(CompressedBlob::from_bytes(b"DX\x04\x00").is_err()); // bad version
        // A framed version whose header is cut off before the frame body:
        assert!(CompressedBlob::from_bytes(b"DX\x03\x00\x10").is_err());
        assert!(CompressedBlob::from_bytes(b"DX\x01\x63").is_err()); // bad algo
        // Truncated after header start:
        assert!(CompressedBlob::from_bytes(b"DX\x01\x03\x10").is_err());
    }

    #[test]
    fn v2_container_roundtrips_and_v1_stays_default() {
        let seq = sample_seq();
        let v1 = CompressedBlob::new(Algorithm::Ctw, &seq, vec![7]);
        assert_eq!(v1.version, VERSION);
        let v2 = CompressedBlob::new_v2(Algorithm::Ctw, &seq, vec![7]);
        assert_eq!(v2.version, VERSION_SPEED);
        assert_eq!(v2.checksum, v1.checksum);
        let bytes = v2.to_bytes();
        assert_eq!(bytes[2], VERSION_SPEED);
        assert_eq!(CompressedBlob::from_bytes(&bytes).unwrap(), v2);
    }

    #[test]
    fn bits_per_base() {
        let seq = sample_seq(); // 16 bases
        let blob = CompressedBlob::new(Algorithm::Gzip, &seq, vec![0; 4]);
        let total = blob.total_bytes() as f64;
        assert!((blob.bits_per_base() - total * 8.0 / 16.0).abs() < 1e-12);
        let empty = PackedSeq::new();
        let blob = CompressedBlob::new(Algorithm::Gzip, &empty, vec![]);
        assert_eq!(blob.bits_per_base(), 0.0);
    }

    #[test]
    fn expect_algorithm_guards() {
        let blob = CompressedBlob::new(Algorithm::Dnax, &sample_seq(), vec![]);
        assert!(blob.expect_algorithm(Algorithm::Dnax).is_ok());
        assert!(blob.expect_algorithm(Algorithm::Ctw).is_err());
        let framed = CompressedBlob {
            version: VERSION_FRAMED,
            ..blob
        };
        assert_eq!(
            framed.expect_algorithm(Algorithm::Dnax),
            Err(CodecError::UnknownFormat(VERSION_FRAMED))
        );
    }
}
