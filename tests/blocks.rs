//! Cross-decoder property suite for the framed block container (a
//! framed `DX` container).
//!
//! The block-parallel pipeline is only a performance feature if it is
//! *invisible* to correctness: a frame produced by the parallel
//! compressor must decode bit-exactly with the serial decoder, and a
//! frame produced serially must decode bit-exactly with the parallel
//! decoder — for **every** algorithm in [`Algorithm::HORIZONTAL`],
//! including the awkward geometries (boundary-straddling lengths,
//! block size 1, the empty sequence).
//!
//! Stronger still: because blocks are compressed independently and
//! assembled in submission order, the frame *bytes* themselves are a
//! pure function of `(algorithm, block_size, sequence)` — identical
//! for any pool size, including the serial path. The tests assert
//! byte equality, not just round-trip equality, so any future
//! scheduling change that reorders or re-encodes blocks fails loudly.

use std::sync::Arc;

use dnacomp::algos::frame::{compress_serial, decompress_serial};
use dnacomp::algos::{
    compressor_for, Algorithm, CompressedBlob, FramedBlob, ParallelCompressor, TaskPool,
};
use dnacomp::seq::gen::GenomeModel;
use dnacomp::seq::PackedSeq;

/// One shared pool for the whole suite: 3 threads exercises real
/// hand-off even on a single-CPU host (claim tickets interleave).
fn pool() -> Arc<TaskPool> {
    Arc::new(TaskPool::new(3))
}

/// Round-trip a sequence through all four (encoder, decoder) pairs and
/// assert bit-exactness plus frame-byte equality.
fn cross_check(alg: Algorithm, seq: &PackedSeq, block_size: usize) {
    let pc = ParallelCompressor::new(alg, block_size, pool());

    let parallel_frame = pc
        .compress(seq)
        .unwrap_or_else(|e| panic!("{alg}: parallel compress failed: {e}"));
    let serial_frame = compress_serial(compressor_for(alg).as_ref(), seq, block_size)
        .unwrap_or_else(|e| panic!("{alg}: serial compress failed: {e}"));

    // Determinism: parallel and serial encoders emit identical bytes.
    assert_eq!(
        parallel_frame.to_bytes(),
        serial_frame.to_bytes(),
        "{alg}: frame bytes differ between parallel and serial encoders \
         (block_size {block_size}, len {})",
        seq.len()
    );

    // Cross-decoding: each decoder handles the other encoder's output.
    let via_serial = decompress_serial(&parallel_frame)
        .unwrap_or_else(|e| panic!("{alg}: serial decode of parallel frame failed: {e}"));
    let via_parallel = pc
        .decompress(&serial_frame)
        .unwrap_or_else(|e| panic!("{alg}: parallel decode of serial frame failed: {e}"));

    assert_eq!(via_serial.as_words(), seq.as_words(), "{alg}: serial decode mismatch");
    assert_eq!(via_serial.len(), seq.len(), "{alg}: serial decode length mismatch");
    assert_eq!(via_parallel.as_words(), seq.as_words(), "{alg}: parallel decode mismatch");
    assert_eq!(via_parallel.len(), seq.len(), "{alg}: parallel decode length mismatch");

    // The frame is a `DX` container: any reader parses it as a
    // `CompressedBlob` and decodes it with `Compressor::decompress`.
    let blob = CompressedBlob::from_bytes(&parallel_frame.to_bytes())
        .unwrap_or_else(|e| panic!("{alg}: frame bytes failed to parse as a container: {e}"));
    assert_eq!(blob, serial_frame.to_blob(), "{alg}: container differs between encoders");
    let via_blob = compressor_for(blob.algorithm)
        .decompress(&blob)
        .unwrap_or_else(|e| panic!("{alg}: decompress of the framed container failed: {e}"));
    assert_eq!(&via_blob, seq, "{alg}: framed container decode mismatch");

    // Wire round-trip survives re-parsing too.
    let reparsed = FramedBlob::from_bytes(&parallel_frame.to_bytes())
        .unwrap_or_else(|e| panic!("{alg}: frame bytes failed to reparse: {e}"));
    assert_eq!(reparsed.to_bytes(), parallel_frame.to_bytes(), "{alg}: reserialize changed bytes");
}

#[test]
fn every_algorithm_cross_decodes_boundary_straddling_sequences() {
    // 1031 bases (prime) with block size 257 (prime): four full blocks
    // plus a 3-base tail — no boundary lines up with anything.
    let seq = GenomeModel::default().generate(1031, 0xB10C);
    for alg in Algorithm::HORIZONTAL {
        cross_check(alg, &seq, 257);
    }
}

#[test]
fn every_algorithm_handles_exact_multiple_geometry() {
    // Length an exact multiple of the block size: no tail block.
    let seq = GenomeModel::default().generate(1024, 0xEAC7);
    for alg in Algorithm::HORIZONTAL {
        cross_check(alg, &seq, 256);
    }
}

#[test]
fn block_size_one_degenerates_gracefully() {
    // One base per block: maximal framing overhead, still bit-exact.
    // Small sequence keeps the per-block fixed costs affordable.
    let seq = GenomeModel::default().generate(23, 0x0001);
    for alg in Algorithm::HORIZONTAL {
        cross_check(alg, &seq, 1);
    }
}

#[test]
fn empty_sequence_round_trips_as_zero_blocks() {
    let seq = PackedSeq::new();
    for alg in Algorithm::HORIZONTAL {
        cross_check(alg, &seq, 64);
    }
}

#[test]
fn block_larger_than_sequence_yields_single_block() {
    let seq = GenomeModel::default().generate(100, 0x51C);
    for alg in Algorithm::HORIZONTAL {
        let frame = compress_serial(compressor_for(alg).as_ref(), &seq, 1 << 20).expect("compress");
        assert_eq!(frame.blocks.len(), 1, "{alg}: expected exactly one block");
        cross_check(alg, &seq, 1 << 20);
    }
}

#[test]
fn pool_size_does_not_change_frame_bytes() {
    // The determinism contract, stated directly: 0 (inline), 1 and 4
    // threads all emit the identical frame.
    let seq = GenomeModel::default().generate(2048, 0xDE7);
    for &alg in &[Algorithm::Raw, Algorithm::Dnax, Algorithm::Ctw] {
        let frames: Vec<Vec<u8>> = [0usize, 1, 4]
            .iter()
            .map(|&threads| {
                ParallelCompressor::new(alg, 300, Arc::new(TaskPool::new(threads)))
                    .compress(&seq)
                    .expect("compress")
                    .to_bytes()
            })
            .collect();
        assert_eq!(frames[0], frames[1], "{alg}: 0 vs 1 threads differ");
        assert_eq!(frames[0], frames[2], "{alg}: 0 vs 4 threads differ");
    }
}
