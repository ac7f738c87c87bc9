//! Block-parallel compression over the shared [`TaskPool`].
//!
//! [`ParallelCompressor`] adapts any [`Compressor`] to the framed `DX`
//! container ([`crate::frame`]): it splits the sequence into fixed-size
//! blocks (cheap — [`PackedSeq::slice`] is a word copy),
//! compresses/decompresses the blocks as one pool batch, and assembles
//! the results in order.
//!
//! **Determinism contract:** the frame bytes are a pure function of
//! `(algorithm, block_size, sequence)` — identical for any pool size,
//! including zero threads — and identical to what the serial reference
//! encoder [`crate::frame::compress_serial`] produces. Likewise the
//! parallel decoder accepts serially encoded frames and vice versa;
//! `tests/blocks.rs` proves both directions bit-exact for every
//! algorithm.

use crate::blob::{Algorithm, MAX_PREALLOC_BASES};
use crate::frame::{self, FramedBlob};
use crate::pool::TaskPool;
use crate::stats::ResourceStats;
use crate::{compressor_for, Compressor};
use dnacomp_codec::checksum::fnv1a;
use dnacomp_codec::CodecError;
use dnacomp_seq::PackedSeq;
use std::sync::Arc;

/// Compresses and decompresses frames block-concurrently.
#[derive(Clone)]
pub struct ParallelCompressor {
    algorithm: Algorithm,
    inner: Arc<dyn Compressor>,
    block_size: usize,
    pool: Arc<TaskPool>,
}

impl ParallelCompressor {
    /// An adapter running `algorithm` over `block_size`-base blocks on
    /// `pool`.
    ///
    /// # Panics
    /// If `block_size` is zero or `algorithm` is not self-contained
    /// (i.e. not in [`Algorithm::HORIZONTAL`]).
    pub fn new(algorithm: Algorithm, block_size: usize, pool: Arc<TaskPool>) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert!(
            Algorithm::HORIZONTAL.contains(&algorithm),
            "{algorithm} is not a self-contained compressor"
        );
        ParallelCompressor {
            algorithm,
            inner: Arc::from(compressor_for(algorithm)),
            block_size,
            pool,
        }
    }

    /// The wrapped algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Bases per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Compress `seq` into a frame, one pool task per block.
    pub fn compress(&self, seq: &PackedSeq) -> Result<FramedBlob, CodecError> {
        self.compress_with_stats(seq).map(|(frame, _)| frame)
    }

    /// Compress with merged per-block resource statistics (work summed,
    /// peak heap maxed — the blocks may genuinely be resident at once).
    pub fn compress_with_stats(
        &self,
        seq: &PackedSeq,
    ) -> Result<(FramedBlob, ResourceStats), CodecError> {
        let n_blocks = FramedBlob::block_count(self.block_size, seq.len());
        let jobs: Vec<_> = (0..n_blocks)
            .map(|index| {
                let start = index * self.block_size;
                let end = (start + self.block_size).min(seq.len());
                let block = seq.slice(start, end);
                let codec = Arc::clone(&self.inner);
                move || codec.compress_with_stats(&block)
            })
            .collect();
        let mut stats = ResourceStats::new();
        let mut blocks = Vec::with_capacity(n_blocks);
        for result in self.pool.run_batch(jobs) {
            let (block, block_stats) = result?;
            stats.merge(block_stats);
            blocks.push(block);
        }
        Ok((
            FramedBlob {
                algorithm: self.algorithm,
                block_size: self.block_size,
                total_len: seq.len(),
                checksum: fnv1a(seq.as_words()),
                blocks,
            },
            stats,
        ))
    }

    /// Decompress a frame, one pool task per block. Accepts frames from
    /// any encoder; per-block and whole-frame checksums are both
    /// verified.
    pub fn decompress(&self, frame: &FramedBlob) -> Result<PackedSeq, CodecError> {
        let codec: Arc<dyn Compressor> = if frame.algorithm == self.algorithm {
            Arc::clone(&self.inner)
        } else {
            Arc::from(compressor_for(frame.algorithm))
        };
        let jobs: Vec<_> = frame
            .blocks
            .iter()
            .enumerate()
            .map(|(index, block)| {
                let block = block.clone();
                let expected = frame.block_len(index);
                let codec = Arc::clone(&codec);
                move || {
                    let (decoded, _) = codec.decompress_with_stats(&block)?;
                    if decoded.len() != expected {
                        return Err(CodecError::Corrupt("frame block decoded to wrong length"));
                    }
                    Ok(decoded)
                }
            })
            .collect();
        let mut out = PackedSeq::with_capacity(frame.total_len.min(MAX_PREALLOC_BASES));
        for decoded in self.pool.run_batch(jobs) {
            out.extend_from_seq(&decoded?);
        }
        frame::verify_whole(frame, &out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{compress_serial, decompress_serial};
    use dnacomp_seq::gen::GenomeModel;

    #[test]
    fn parallel_bytes_equal_serial_bytes_for_any_pool_size() {
        let seq = GenomeModel::default().generate(10_000, 11);
        let serial = compress_serial(&*compressor_for(Algorithm::Dnax), &seq, 768).unwrap();
        for threads in [0, 1, 3] {
            let pool = Arc::new(TaskPool::new(threads));
            let pc = ParallelCompressor::new(Algorithm::Dnax, 768, pool);
            let frame = pc.compress(&seq).unwrap();
            assert_eq!(frame.to_bytes(), serial.to_bytes(), "{threads} threads");
            assert_eq!(pc.decompress(&frame).unwrap(), seq);
            assert_eq!(decompress_serial(&frame).unwrap(), seq);
        }
    }

    #[test]
    fn decompress_rejects_whole_frame_corruption() {
        let seq = GenomeModel::default().generate(3_000, 3);
        let pool = Arc::new(TaskPool::new(2));
        let pc = ParallelCompressor::new(Algorithm::Raw, 1_000, pool);
        let mut frame = pc.compress(&seq).unwrap();
        frame.checksum ^= 1;
        assert!(matches!(
            pc.decompress(&frame),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "not a self-contained compressor")]
    fn reference_algorithm_is_refused() {
        let _ = ParallelCompressor::new(Algorithm::Reference, 64, Arc::new(TaskPool::new(0)));
    }
}
