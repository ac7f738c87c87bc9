//! Framed block container: one sequence split into independently
//! compressed fixed-size blocks, carried as a framed `DX` container
//! ([`VERSION_FRAMED`]).
//!
//! Layout (bytes):
//!
//! ```text
//! 0..2   magic  b"DX"
//! 2      container version (3: framed)
//! 3      algorithm tag (every block's)
//! 4..    uvarint: total original length in bases
//! ..     u64 LE: FNV-1a checksum of the whole original packed words
//! ..     uvarint: block size in bases
//! per block:
//! ..     uvarint: record length in bytes
//! ..     one flat [`CompressedBlob`] in its ordinary wire format
//! ```
//!
//! The first four fields are the ordinary `DX` header, so a frame *is*
//! a [`CompressedBlob`] whose payload starts at the block size: the
//! store, the wire protocol and every reader carry it unchanged, and
//! [`crate::Compressor::decompress`] decodes it.
//!
//! Every block except the last holds exactly `block_size` bases, so
//! the block count (`total_len.div_ceil(block_size)`) and every block
//! boundary are a pure function of the header — which is what lets the
//! cloud's resumable-upload blocks and the parallel decoder agree on
//! boundaries without any side channel, and what makes the frame bytes
//! **independent of how many threads built them**. Each record is a
//! full flat [`CompressedBlob`] (algorithm tag, base length, FNV-1a
//! checksum), so a single corrupt block is detected by its own checksum
//! and the whole-sequence checksum closes the remaining gap (e.g. two
//! equal-sized blocks swapped in transit).
//!
//! ## Hostile-header discipline
//!
//! [`parse_header`] rejects lying headers **before any header-sized
//! allocation**: the declared total must fit [`MAX_FRAME_BASES`], the
//! block size must fit the per-blob container limit, and the implied
//! block count must be affordable from the bytes actually present (each
//! record costs at least [`MIN_RECORD_BYTES`]).
//! [`FramedBlob::from_blob`] then requires every record to be a flat
//! container of the frame's algorithm and of the length the geometry
//! says. Decoding grows with real payload bytes only, mirroring the
//! `MAX_PREALLOC_BASES` discipline of the flat container.

use crate::blob::{Algorithm, CompressedBlob, MAX_PREALLOC_BASES, VERSION_FRAMED};
use crate::{compressor_for, Compressor};
use dnacomp_codec::checksum::fnv1a;
use dnacomp_codec::varint::{read_uvarint, write_uvarint};
use dnacomp_codec::CodecError;
use dnacomp_seq::PackedSeq;

/// Upper bound on the total bases a frame may declare (4 Gi — a human
/// genome; per-*block* memory stays bounded by `MAX_PREALLOC_BASES`).
pub const MAX_FRAME_BASES: u64 = 1 << 32;
/// Cheapest possible block record: a 1-byte record-length uvarint plus
/// the 13-byte minimum `CompressedBlob` wire header. The block-count
/// affordability check divides by this.
pub const MIN_RECORD_BYTES: usize = 14;

/// A sequence compressed as independent fixed-size blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FramedBlob {
    /// The algorithm every block was compressed with.
    pub algorithm: Algorithm,
    /// Bases per block (every block but the last is exactly this long).
    pub block_size: usize,
    /// Original sequence length in bases.
    pub total_len: usize,
    /// FNV-1a of the whole original packed words.
    pub checksum: u64,
    /// The per-block containers, in sequence order.
    pub blocks: Vec<CompressedBlob>,
}

/// Check a framed container's header before anything is sized by it:
/// `total_len` is the container's declared length and `body` its
/// payload. Returns `(block_size, block_count, offset of the first
/// record in body)`.
pub fn parse_header(total_len: u64, body: &[u8]) -> Result<(usize, usize, usize), CodecError> {
    if total_len > MAX_FRAME_BASES {
        return Err(CodecError::Corrupt("frame length exceeds container limit"));
    }
    let mut pos = 0;
    let block_size = read_uvarint(body, &mut pos)?;
    if block_size == 0 || block_size > MAX_PREALLOC_BASES as u64 {
        return Err(CodecError::Corrupt("frame block size out of range"));
    }
    let n_blocks = total_len.div_ceil(block_size);
    // Affordability: every block costs ≥ MIN_RECORD_BYTES of payload, so
    // a lying length is refused before a Vec can be sized by it.
    if n_blocks > ((body.len() - pos) / MIN_RECORD_BYTES) as u64 {
        return Err(CodecError::Corrupt("frame block count exceeds payload"));
    }
    Ok((block_size as usize, n_blocks as usize, pos))
}

impl FramedBlob {
    /// `true` when `bytes` starts like a framed container.
    pub fn is_frame(bytes: &[u8]) -> bool {
        bytes.len() >= 3 && bytes[0..2] == crate::blob::MAGIC && bytes[2] == VERSION_FRAMED
    }

    /// Number of blocks a `total_len`-base sequence splits into.
    pub fn block_count(block_size: usize, total_len: usize) -> usize {
        assert!(block_size > 0, "block size must be positive");
        total_len.div_ceil(block_size)
    }

    /// The expected base length of block `index`.
    pub fn block_len(&self, index: usize) -> usize {
        let start = index * self.block_size;
        self.total_len.saturating_sub(start).min(self.block_size)
    }

    /// Serialised frame size in bytes (the "compressed file size").
    pub fn total_bytes(&self) -> usize {
        self.to_bytes().len()
    }

    /// Compression ratio in bits per base, container overhead included.
    pub fn bits_per_base(&self) -> f64 {
        if self.total_len == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 * 8.0 / self.total_len as f64
    }

    /// The frame as a framed `DX` container: the form the store, the
    /// wire and [`crate::Compressor::decompress`] take.
    pub fn to_blob(&self) -> CompressedBlob {
        let records: usize = self.blocks.iter().map(|b| b.payload.len() + 24).sum();
        let mut payload = Vec::with_capacity(records + 8);
        write_uvarint(&mut payload, self.block_size as u64);
        for block in &self.blocks {
            let record = block.to_bytes();
            write_uvarint(&mut payload, record.len() as u64);
            payload.extend_from_slice(&record);
        }
        CompressedBlob {
            version: VERSION_FRAMED,
            algorithm: self.algorithm,
            original_len: self.total_len,
            checksum: self.checksum,
            payload,
        }
    }

    /// Serialise to the wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_blob().to_bytes()
    }

    /// Parse and validate from the wire format.
    pub fn from_bytes(bytes: &[u8]) -> Result<FramedBlob, CodecError> {
        Self::from_blob(&CompressedBlob::from_bytes(bytes)?)
    }

    /// Split a framed container into its blocks.
    ///
    /// Structural lies (a flat container, a block size or length out of
    /// range, more blocks than the payload can afford, a record that is
    /// not a flat container of the frame's algorithm or whose length
    /// disagrees with the geometry) are rejected with typed errors
    /// before any allocation proportional to the lie.
    pub fn from_blob(blob: &CompressedBlob) -> Result<FramedBlob, CodecError> {
        if !blob.is_framed() {
            return Err(CodecError::UnknownFormat(blob.version));
        }
        if !Algorithm::HORIZONTAL.contains(&blob.algorithm) {
            return Err(CodecError::UnknownFormat(blob.algorithm.tag()));
        }
        let body = &blob.payload;
        let (block_size, n_blocks, mut pos) = parse_header(blob.original_len as u64, body)?;
        let total_len = blob.original_len;
        let mut blocks = Vec::with_capacity(n_blocks);
        for index in 0..n_blocks {
            let record_len = read_uvarint(body, &mut pos)?;
            if record_len > (body.len() - pos) as u64 {
                return Err(CodecError::Corrupt("frame block record truncated"));
            }
            let record = &body[pos..pos + record_len as usize];
            pos += record.len();
            let block = CompressedBlob::from_bytes(record)?;
            if block.is_framed() {
                return Err(CodecError::Corrupt("frame block is not a flat container"));
            }
            if block.algorithm != blob.algorithm {
                return Err(CodecError::Corrupt(
                    "frame block algorithm differs from the frame's",
                ));
            }
            let expected = total_len.saturating_sub(index * block_size).min(block_size);
            if block.original_len != expected {
                return Err(CodecError::Corrupt(
                    "frame block length disagrees with geometry",
                ));
            }
            blocks.push(block);
        }
        if pos != body.len() {
            return Err(CodecError::Corrupt("trailing bytes after frame"));
        }
        Ok(FramedBlob {
            algorithm: blob.algorithm,
            block_size,
            total_len,
            checksum: blob.checksum,
            blocks,
        })
    }
}

/// Compress `seq` into a frame on the calling thread — the serial
/// reference encoder. Byte-identical to
/// [`crate::ParallelCompressor::compress`] with any pool.
pub fn compress_serial(
    compressor: &dyn Compressor,
    seq: &PackedSeq,
    block_size: usize,
) -> Result<FramedBlob, CodecError> {
    assert!(block_size > 0, "block size must be positive");
    let n_blocks = FramedBlob::block_count(block_size, seq.len());
    let mut blocks = Vec::with_capacity(n_blocks);
    for index in 0..n_blocks {
        let start = index * block_size;
        let end = (start + block_size).min(seq.len());
        blocks.push(compressor.compress(&seq.slice(start, end))?);
    }
    Ok(FramedBlob {
        algorithm: compressor.algorithm(),
        block_size,
        total_len: seq.len(),
        checksum: fnv1a(seq.as_words()),
        blocks,
    })
}

/// Decompress a frame block-by-block on the calling thread — the serial
/// reference decoder. Accepts frames from any encoder (parallel or
/// serial) and verifies both per-block and whole-frame checksums.
pub fn decompress_serial(frame: &FramedBlob) -> Result<PackedSeq, CodecError> {
    decode_blocks(&*compressor_for(frame.algorithm), frame)
}

/// Decode a framed container with `codec` — what
/// [`crate::Compressor::decompress`] does with one.
pub(crate) fn decompress_framed<C: Compressor + ?Sized>(
    codec: &C,
    blob: &CompressedBlob,
) -> Result<PackedSeq, CodecError> {
    decode_blocks(codec, &FramedBlob::from_blob(blob)?)
}

fn decode_blocks<C: Compressor + ?Sized>(
    codec: &C,
    frame: &FramedBlob,
) -> Result<PackedSeq, CodecError> {
    let mut out = PackedSeq::with_capacity(frame.total_len.min(MAX_PREALLOC_BASES));
    for (index, block) in frame.blocks.iter().enumerate() {
        let (decoded, _) = codec.decompress_with_stats(block)?;
        if decoded.len() != frame.block_len(index) {
            return Err(CodecError::Corrupt("frame block decoded to wrong length"));
        }
        out.extend_from_seq(&decoded);
    }
    verify_whole(frame, &out)?;
    Ok(out)
}

/// Check the reassembled sequence against the frame header.
pub(crate) fn verify_whole(frame: &FramedBlob, seq: &PackedSeq) -> Result<(), CodecError> {
    if seq.len() != frame.total_len {
        return Err(CodecError::Corrupt("frame decoded length mismatch"));
    }
    let actual = fnv1a(seq.as_words());
    if actual != frame.checksum {
        return Err(CodecError::ChecksumMismatch {
            expected: frame.checksum,
            actual,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnacomp_seq::gen::GenomeModel;

    fn sample(len: usize) -> PackedSeq {
        GenomeModel::default().generate(len, 7)
    }

    /// A framed container header over `body`, for forging lies.
    fn forged(total_len: u64, body: &[u8]) -> Vec<u8> {
        let mut bytes = vec![b'D', b'X', VERSION_FRAMED, Algorithm::Raw.tag()];
        write_uvarint(&mut bytes, total_len);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn frame_roundtrips_through_wire_format() {
        let seq = sample(10_000);
        let frame = compress_serial(&*compressor_for(Algorithm::Dnax), &seq, 1_024).unwrap();
        assert_eq!(frame.blocks.len(), 10);
        let back = FramedBlob::from_bytes(&frame.to_bytes()).unwrap();
        assert_eq!(back, frame);
        assert_eq!(decompress_serial(&back).unwrap(), seq);
    }

    #[test]
    fn empty_sequence_is_zero_blocks() {
        let frame = compress_serial(&*compressor_for(Algorithm::Raw), &PackedSeq::new(), 64)
            .unwrap();
        assert_eq!(frame.blocks.len(), 0);
        assert_eq!(frame.total_len, 0);
        let back = FramedBlob::from_bytes(&frame.to_bytes()).unwrap();
        assert_eq!(decompress_serial(&back).unwrap(), PackedSeq::new());
        let blob = frame.to_blob();
        assert_eq!(
            compressor_for(Algorithm::Raw).decompress(&blob).unwrap(),
            PackedSeq::new()
        );
    }

    /// A frame parses as a `DX` container, but a framed one rather than
    /// a flat one, and `Compressor::decompress` decodes it.
    #[test]
    fn frame_magic_does_not_parse_as_flat_blob() {
        let seq = sample(256);
        let frame = compress_serial(&*compressor_for(Algorithm::Raw), &seq, 64).unwrap();
        let bytes = frame.to_bytes();
        assert!(FramedBlob::is_frame(&bytes));
        let blob = CompressedBlob::from_bytes(&bytes).unwrap();
        assert!(blob.is_framed());
        assert_eq!(blob, frame.to_blob());
        assert_eq!((blob.algorithm, blob.original_len), (Algorithm::Raw, 256));
        assert_eq!(blob.total_bytes(), frame.total_bytes());
        assert_eq!(
            compressor_for(blob.algorithm).decompress(&blob).unwrap(),
            seq
        );
        assert_eq!(FramedBlob::from_blob(&blob).unwrap(), frame);
        let flat = compressor_for(Algorithm::Raw).compress(&seq).unwrap();
        assert!(!FramedBlob::is_frame(&flat.to_bytes()));
        assert!(FramedBlob::from_blob(&flat).is_err());
    }

    #[test]
    fn swapped_equal_size_blocks_are_caught_by_frame_checksum() {
        let seq = sample(2_048);
        let mut frame =
            compress_serial(&*compressor_for(Algorithm::Raw), &seq, 512).unwrap();
        frame.blocks.swap(0, 1);
        let reparsed = FramedBlob::from_bytes(&frame.to_bytes()).unwrap();
        assert!(matches!(
            decompress_serial(&reparsed),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn lying_block_count_rejected_before_allocation() {
        // A 2^31-base total over 1-base blocks and a 64-byte body: the
        // affordability check must fire, not an allocation.
        let mut body = Vec::new();
        write_uvarint(&mut body, 1);
        body.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            FramedBlob::from_bytes(&forged(1 << 31, &body)),
            Err(CodecError::Corrupt("frame block count exceeds payload"))
        ));
    }

    #[test]
    fn geometry_lies_rejected() {
        let seq = sample(1_000);
        let frame = compress_serial(&*compressor_for(Algorithm::Raw), &seq, 256).unwrap();

        // A block missing: the last record's length no longer matches.
        let mut bad = frame.clone();
        bad.blocks.pop();
        bad.total_len = 1_000;
        assert!(FramedBlob::from_bytes(&bad.to_bytes()).is_err());

        // Blocks of the wrong length for the declared block size.
        let mut bad = frame.clone();
        bad.block_size = 300;
        bad.total_len = 1_200;
        assert!(matches!(
            FramedBlob::from_bytes(&bad.to_bytes()),
            Err(CodecError::Corrupt("frame block length disagrees with geometry"))
        ));

        // Zero block size.
        assert!(matches!(
            FramedBlob::from_bytes(&forged(0, &[0])),
            Err(CodecError::Corrupt("frame block size out of range"))
        ));

        // Declared total beyond the frame limit.
        assert!(matches!(
            FramedBlob::from_bytes(&forged(MAX_FRAME_BASES + 1, &[4])),
            Err(CodecError::Corrupt("frame length exceeds container limit"))
        ));
    }
}
