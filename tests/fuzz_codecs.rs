//! Hostile-input property suite for every registered codec.
//!
//! Real exchanged corpora arrive malformed, truncated and mislabeled
//! (arXiv:2006.02232); the service's supervision layer treats a
//! panicking decode as a last-resort containment event, so the codecs
//! themselves must make it a non-event: every
//! [`Compressor::decompress`] implementation returns a **typed error**
//! on garbage — it never panics, and never pre-allocates unbounded
//! memory off a lying header.
//!
//! Three attack surfaces, swept for every algorithm in
//! [`Algorithm::HORIZONTAL`]:
//!
//! 1. **random payloads** — noise bytes wrapped in a syntactically valid
//!    container;
//! 2. **mutated real blobs** — a genuine compressed sequence with bit
//!    flips, truncations, and payload splices; if a mutant still decodes
//!    `Ok`, it must decode to *exactly the original sequence* (the
//!    checksum caught the tamper or the tamper was immaterial);
//! 3. **lying headers** — `original_len` cranked to absurd values over
//!    tiny payloads, which must fail fast instead of OOMing.

use dnacomp::algos::blob::{MAX_PREALLOC_BASES, VERSION_FRAMED};
use dnacomp::algos::frame::{compress_serial, decompress_serial, MAX_FRAME_BASES};
use dnacomp::algos::{compressor_for, Algorithm, CompressedBlob, FramedBlob};
use dnacomp::codec::checksum::{mix64, unit_interval};
use dnacomp::codec::CodecError;
use dnacomp::seq::gen::GenomeModel;

/// Cheap deterministic byte stream for fuzz payloads.
fn noise_bytes(seed: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (mix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32) as u8).collect()
}

fn sample_blob(alg: Algorithm, seed: u64, len: usize) -> CompressedBlob {
    let seq = GenomeModel::default().generate(len, seed);
    compressor_for(alg)
        .compress(&seq)
        .unwrap_or_else(|e| panic!("{alg}: compressing clean input failed: {e}"))
}

/// Decode must be total: `Ok` or typed `Err`, never a panic. Returns
/// whether it decoded.
fn assert_total(alg: Algorithm, blob: &CompressedBlob, what: &str) -> bool {
    let c = compressor_for(alg);
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.decompress(blob))) {
        Ok(_) => true,
        Err(p) => {
            let msg = dnacomp::core::panic_message(p.as_ref());
            panic!("{alg}: decompress PANICKED on {what}: {msg}");
        }
    }
}

#[test]
fn random_payloads_never_panic_any_codec() {
    for alg in Algorithm::HORIZONTAL {
        for case in 0..40u64 {
            let seed = (alg.tag() as u64) << 32 | case;
            let len = (mix64(seed) % 512) as usize;
            let blob = CompressedBlob {
                version: 1 + (mix64(seed ^ 4) % 2) as u8,
                algorithm: alg,
                original_len: (mix64(seed ^ 1) % 10_000) as usize,
                checksum: mix64(seed ^ 2),
                payload: noise_bytes(seed ^ 3, len),
            };
            assert_total(alg, &blob, &format!("random payload case {case}"));
        }
    }
}

#[test]
fn mutated_real_blobs_never_panic_and_never_lie() {
    for alg in Algorithm::HORIZONTAL {
        let original = GenomeModel::default().generate(3_000, 77);
        let clean = compressor_for(alg).compress(&original).unwrap();
        let c = compressor_for(alg);

        // Bit flips at deterministic positions across the payload.
        for case in 0..60u64 {
            let mut mutant = clean.clone();
            if mutant.payload.is_empty() {
                break;
            }
            let at = (mix64((alg.tag() as u64) << 40 | case) as usize) % mutant.payload.len();
            let bit = 1u8 << (case % 8);
            mutant.payload[at] ^= bit;
            assert_total(alg, &mutant, &format!("bit flip at {at}"));
            if let Ok(seq) = c.decompress(&mutant) {
                // A surviving mutant must decode to the truth — the
                // checksum rejects everything else.
                assert_eq!(seq, original, "{alg}: bit flip at {at} silently corrupted output");
            }
        }

        // Truncations at every eighth of the payload.
        for i in 0..8 {
            let mut mutant = clean.clone();
            mutant.payload.truncate(mutant.payload.len() * i / 8);
            assert_total(alg, &mutant, &format!("truncation to {i}/8"));
            if let Ok(seq) = c.decompress(&mutant) {
                assert_eq!(seq, original, "{alg}: truncation to {i}/8 silently corrupted output");
            }
        }

        // Splice: another sequence's payload under this blob's header.
        let other = sample_blob(alg, 78, 2_000);
        let mut spliced = clean.clone();
        spliced.payload = other.payload;
        assert_total(alg, &spliced, "payload splice");
        if let Ok(seq) = c.decompress(&spliced) {
            assert_eq!(seq, original, "{alg}: splice silently corrupted output");
        }
    }
}

#[test]
fn lying_headers_fail_fast_without_unbounded_preallocation() {
    // A tiny payload claiming an enormous original length must come
    // back as a typed error quickly; the bounded-preallocation contract
    // (`CompressedBlob::decode_capacity`) keeps the upfront allocation
    // at ≤ MAX_PREALLOC_BASES no matter what the header says.
    for alg in Algorithm::HORIZONTAL {
        for lie in [usize::MAX, usize::MAX / 2, 1 << 40, 1 << 33] {
            let blob = CompressedBlob {
                version: 1 + (lie % 2) as u8,
                algorithm: alg,
                original_len: lie,
                checksum: 0xDEAD_BEEF,
                payload: noise_bytes(lie as u64, 64),
            };
            assert_total(alg, &blob, &format!("lying header len={lie}"));
            assert!(
                compressor_for(alg).decompress(&blob).is_err(),
                "{alg}: a 64-byte payload cannot legitimately decode {lie} bases"
            );
        }
    }
}

/// LEB128 writer mirroring the frame wire format, so tests can forge
/// headers the honest serialiser would never emit.
fn push_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Forge a framed `DX` header declaring `total_len` bases in
/// `block_size`-base blocks over a tiny noise body. The geometry is
/// self-consistent, so parsing reaches the affordability check.
fn forged_frame_header(block_size: u64, total_len: u64, payload_bytes: usize) -> Vec<u8> {
    let mut bytes = vec![b'D', b'X', VERSION_FRAMED, Algorithm::Raw.tag()];
    push_uvarint(&mut bytes, total_len);
    bytes.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
    push_uvarint(&mut bytes, block_size);
    bytes.extend(noise_bytes(9, payload_bytes));
    bytes
}

/// A genuine framed container of `seq`, as a `CompressedBlob`.
fn framed(alg: Algorithm, seq: &dnacomp::seq::PackedSeq, block_size: usize) -> CompressedBlob {
    compress_serial(compressor_for(alg).as_ref(), seq, block_size)
        .unwrap_or_else(|e| panic!("{alg}: framing clean input failed: {e}"))
        .to_blob()
}

/// Parse and decode framed bytes both ways — as a `CompressedBlob`
/// through `Compressor::decompress`, and as a `FramedBlob` through the
/// serial decoder. Neither may panic; any sequence either returns must
/// be `original`.
fn assert_frame_total(
    alg: Algorithm,
    bytes: &[u8],
    original: &dnacomp::seq::PackedSeq,
    what: &str,
) {
    let decoded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let via_blob = CompressedBlob::from_bytes(bytes)
            .and_then(|blob| compressor_for(blob.algorithm).decompress(&blob));
        let via_frame = FramedBlob::from_bytes(bytes).and_then(|f| decompress_serial(&f));
        [via_blob, via_frame]
    }))
    .unwrap_or_else(|p| {
        let msg = dnacomp::core::panic_message(p.as_ref());
        panic!("{alg}: framed decode PANICKED on {what}: {msg}")
    });
    for seq in decoded.into_iter().flatten() {
        assert_eq!(&seq, original, "{alg}: {what} silently corrupted output");
    }
}

#[test]
fn frame_lying_block_count_rejected_before_allocation() {
    // A self-consistent header declaring a billion 1-base blocks over a
    // 64-byte payload: the affordability check (each declared block
    // costs ≥ MIN_RECORD_BYTES of payload) must refuse it before the
    // block Vec is sized by the lie. The wall-clock bound is the
    // observable proxy for "no allocation proportional to the claim".
    for (block_size, total_len) in [(1u64, 1u64 << 30), (4, 1 << 32), (1, u32::MAX as u64)] {
        let bytes = forged_frame_header(block_size, total_len, 64);
        let started = std::time::Instant::now();
        let err = FramedBlob::from_bytes(&bytes).expect_err("forged count must be rejected");
        let blob_err =
            CompressedBlob::from_bytes(&bytes).expect_err("forged count must not parse as a blob");
        assert!(
            started.elapsed() < std::time::Duration::from_millis(50),
            "rejecting a lying count took {:?} — it allocated first",
            started.elapsed()
        );
        assert_eq!(err, blob_err);
        let msg = err.to_string();
        assert!(
            msg.contains("block count") || msg.contains("length exceeds"),
            "unexpected rejection reason for ({block_size}, {total_len}): {msg}"
        );
    }
}

#[test]
fn frame_lying_record_lengths_fail_fast() {
    // A plausible two-block header whose first record length points past
    // the end of the buffer.
    let mut bytes = vec![b'D', b'X', VERSION_FRAMED, Algorithm::Raw.tag()];
    push_uvarint(&mut bytes, 200); // total_len
    bytes.extend_from_slice(&0u64.to_le_bytes());
    push_uvarint(&mut bytes, 100); // block_size
    push_uvarint(&mut bytes, 1 << 40); // record_len: a lie
    bytes.extend(noise_bytes(3, 40));
    let err = FramedBlob::from_bytes(&bytes).expect_err("lying record length must be rejected");
    assert!(err.to_string().contains("truncated"), "got: {err}");
    let blob = CompressedBlob::from_bytes(&bytes).expect("the header alone is plausible");
    let err = compressor_for(Algorithm::Raw)
        .decompress(&blob)
        .expect_err("lying record length must not decode");
    assert!(err.to_string().contains("truncated"), "got: {err}");
}

#[test]
fn frame_wire_mutations_never_panic_and_never_lie() {
    // Start from genuine frames (two algorithms, boundary-straddling
    // geometry) and sweep bit flips and truncations over the full wire
    // image — header varints, checksum and block records alike.
    let original = GenomeModel::default().generate(700, 4242);
    for alg in [Algorithm::Raw, Algorithm::Dnax] {
        let clean = framed(alg, &original, 333).to_bytes();
        assert_frame_total(alg, &clean, &original, "the clean frame");

        for case in 0..120u64 {
            let mut mutant = clean.clone();
            let at = (mix64((alg.tag() as u64) << 32 | case) as usize) % mutant.len();
            mutant[at] ^= 1u8 << (case % 8);
            // Parsing + decoding must be total; a surviving mutant must
            // decode to the truth (whole-frame checksum catches the rest).
            assert_frame_total(alg, &mutant, &original, &format!("flip at {at}"));
        }

        for i in 0..16 {
            let mut mutant = clean.clone();
            mutant.truncate(mutant.len() * i / 16);
            assert!(
                FramedBlob::from_bytes(&mutant).is_err(),
                "{alg}: truncation to {i}/16 of the frame parsed Ok"
            );
            let decoded = CompressedBlob::from_bytes(&mutant)
                .and_then(|blob| compressor_for(blob.algorithm).decompress(&blob));
            assert!(decoded.is_err(), "{alg}: truncation to {i}/16 decoded Ok");
        }
    }
}

#[test]
fn every_codec_refuses_a_framed_container_in_decompress_with_stats() {
    // Block records are not any codec's bit stream: the flat entry point
    // refuses a framed container with a typed error, while
    // `decompress` decodes it. Random frame bodies never panic either.
    let original = GenomeModel::default().generate(1_500, 31);
    for alg in Algorithm::HORIZONTAL {
        let blob = framed(alg, &original, 512);
        assert!(blob.is_framed());
        let c = compressor_for(alg);
        assert_eq!(
            c.decompress_with_stats(&blob).map(|_| ()),
            Err(CodecError::UnknownFormat(VERSION_FRAMED)),
            "{alg}: decompress_with_stats read a framed container"
        );
        assert_eq!(c.decompress(&blob).unwrap(), original, "{alg}");
        for case in 0..8u64 {
            let noise = CompressedBlob {
                payload: noise_bytes((alg.tag() as u64) << 8 | case, 96),
                ..blob.clone()
            };
            assert_total(alg, &noise, &format!("random frame body {case}"));
        }
    }
}

#[test]
fn frame_structural_lies_are_typed_errors() {
    let original = GenomeModel::default().generate(1_000, 5);
    let honest = compress_serial(compressor_for(Algorithm::Raw).as_ref(), &original, 256).unwrap();
    let decode = |frame: &FramedBlob| {
        let blob = CompressedBlob::from_bytes(&frame.to_bytes())?;
        compressor_for(blob.algorithm).decompress(&blob)
    };

    // A block whose algorithm tag differs from the container's.
    let mut mixed = honest.clone();
    mixed.blocks[1] = compressor_for(Algorithm::Gzip)
        .compress(&original.slice(256, 512))
        .unwrap();
    assert_eq!(
        decode(&mixed),
        Err(CodecError::Corrupt(
            "frame block algorithm differs from the frame's"
        ))
    );

    // A block whose length disagrees with the geometry.
    let mut short = honest.clone();
    short.blocks[2] = compressor_for(Algorithm::Raw)
        .compress(&original.slice(512, 700))
        .unwrap();
    assert_eq!(
        decode(&short),
        Err(CodecError::Corrupt(
            "frame block length disagrees with geometry"
        ))
    );

    // A framed container nested as a block record.
    let mut nested = honest.clone();
    nested.blocks[0] = framed(Algorithm::Raw, &original.slice(0, 256), 128);
    assert_eq!(
        decode(&nested),
        Err(CodecError::Corrupt("frame block is not a flat container"))
    );

    // A declared total above MAX_FRAME_BASES, over a body that could
    // otherwise afford its 1,025 blocks.
    let bytes = forged_frame_header(MAX_PREALLOC_BASES as u64, MAX_FRAME_BASES + 1, 16_384);
    assert_eq!(
        CompressedBlob::from_bytes(&bytes),
        Err(CodecError::Corrupt("frame length exceeds container limit"))
    );
    assert!(FramedBlob::from_bytes(&bytes).is_err());
    let blob = CompressedBlob {
        version: VERSION_FRAMED,
        algorithm: Algorithm::Raw,
        original_len: MAX_FRAME_BASES as usize + 1,
        checksum: 0,
        payload: noise_bytes(11, 16_384),
    };
    assert_eq!(
        compressor_for(Algorithm::Raw).decompress(&blob),
        Err(CodecError::Corrupt("frame length exceeds container limit"))
    );
}

#[test]
fn container_wire_format_fuzz_never_panics() {
    // One layer down: CompressedBlob::from_bytes on raw garbage.
    for case in 0..200u64 {
        let len = (mix64(case) % 96) as usize;
        let mut bytes = noise_bytes(case, len);
        // Half the cases get a valid-looking prefix so parsing gets
        // past the magic and into the interesting varint/checksum code.
        if case % 2 == 0 && bytes.len() >= 4 {
            bytes[0] = b'D';
            bytes[1] = b'X';
            bytes[2] = 1;
            bytes[3] = (unit_interval(mix64(case ^ 5)) * 16.0) as u8;
        }
        let _ = CompressedBlob::from_bytes(&bytes); // must not panic
    }
}

// ---------------------------------------------------------------------------
// Speed-tier formats: rANS frequency tables, rANS decoder headers and
// BWT section headers under attack
// ---------------------------------------------------------------------------

use dnacomp::codec::rans::{FreqTable, RansDecoder, RANS_TABLE_BITS};

#[test]
fn rans_freq_table_forgeries_refused_before_allocation() {
    // Genuine table round-trips.
    let table = FreqTable::build(&[900, 5, 64, 31]);
    let mut clean = Vec::new();
    table.write(&mut clean);
    let mut pos = 0;
    let back = FreqTable::read(&clean, &mut pos, 8).expect("genuine table reads");
    assert_eq!(pos, clean.len());
    assert_eq!(back.n_symbols(), 4);

    // A forged symbol count the buffer cannot pay for must be refused
    // on affordability, before the frequency Vec is sized by the lie.
    for forged in [9u64, 1 << 20, 1 << 40, u64::MAX >> 1] {
        let mut bytes = Vec::new();
        push_uvarint(&mut bytes, forged);
        bytes.extend(noise_bytes(forged, 16));
        let started = std::time::Instant::now();
        let mut pos = 0;
        assert!(
            FreqTable::read(&bytes, &mut pos, 8).is_err(),
            "forged symbol count {forged} read Ok"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_millis(50),
            "rejecting a lying symbol count took {:?} — it allocated first",
            started.elapsed()
        );
    }

    // Structural lies with honest lengths: zero frequency, a sum that
    // overflows the 2^TABLE_BITS scale, and a sum that falls short.
    let scale = 1u64 << RANS_TABLE_BITS;
    for freqs in [
        vec![0u64, scale],
        vec![scale, scale],
        vec![1, 2, 3],
        vec![scale - 1],
    ] {
        let mut bytes = Vec::new();
        push_uvarint(&mut bytes, freqs.len() as u64);
        for &f in &freqs {
            push_uvarint(&mut bytes, f);
        }
        bytes.extend_from_slice(&[0u8; 8]); // checksum never reached
        let mut pos = 0;
        assert!(
            FreqTable::read(&bytes, &mut pos, 8).is_err(),
            "structurally invalid table {freqs:?} read Ok"
        );
    }

    // Every single-bit flip over a genuine image is caught — by a
    // structural check or by the trailing FNV-1a — and every truncation
    // is refused.
    for at in 0..clean.len() {
        for bit in 0..8 {
            let mut mutant = clean.clone();
            mutant[at] ^= 1 << bit;
            let mut pos = 0;
            assert!(
                FreqTable::read(&mutant, &mut pos, 8).is_err(),
                "table flip at byte {at} bit {bit} read Ok"
            );
        }
        let mut pos = 0;
        assert!(
            FreqTable::read(&clean[..at], &mut pos, 8).is_err(),
            "table truncated to {at} bytes read Ok"
        );
    }
}

#[test]
fn rans_decoder_header_forgeries_are_typed_errors() {
    // The interleaved decoder needs two 4-byte states, both ≥ the
    // renormalisation floor. Short buffers and sub-floor states are
    // typed errors; arbitrary noise never panics.
    for len in 0..8 {
        assert!(
            RansDecoder::new(&noise_bytes(len as u64, len)).is_err(),
            "{len}-byte rANS stream decoded Ok"
        );
    }
    assert!(
        RansDecoder::new(&[0u8; 8]).is_err(),
        "zero states are below the renormalisation floor"
    );
    for case in 0..200u64 {
        let len = 8 + (mix64(case) % 64) as usize;
        let _ = RansDecoder::new(&noise_bytes(case, len)); // must not panic
    }
}

#[test]
fn bwt_forged_section_counts_refused_before_allocation() {
    use dnacomp::algos::blob::VERSION_SPEED;
    let c = compressor_for(Algorithm::Bwt);
    // A payload whose leading uvarint claims an absurd section count
    // over a handful of bytes: refused fast, before any proportional
    // allocation.
    for forged in [1u64 << 20, 1 << 40, u64::MAX >> 2] {
        let mut payload = Vec::new();
        push_uvarint(&mut payload, forged);
        payload.extend(noise_bytes(forged, 32));
        let blob = CompressedBlob {
            version: VERSION_SPEED,
            algorithm: Algorithm::Bwt,
            original_len: 4_096,
            checksum: 0xDEAD_BEEF,
            payload,
        };
        let started = std::time::Instant::now();
        assert!(
            compressor_for(Algorithm::Bwt).decompress(&blob).is_err(),
            "forged section count {forged} decoded Ok"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_millis(50),
            "rejecting a lying section count took {:?} — it allocated first",
            started.elapsed()
        );
    }
    // Primary-index forgeries inside an otherwise genuine blob: flip
    // bytes early in the first section (count, length, primary varints
    // live there). Typed error or exact original, never a panic.
    let original = GenomeModel::default().generate(2_500, 1234);
    let clean = c.compress(&original).unwrap();
    for at in 0..clean.payload.len().min(12) {
        for bit in [0x01u8, 0x08, 0x80] {
            let mut mutant = clean.clone();
            mutant.payload[at] ^= bit;
            assert_total(Algorithm::Bwt, &mutant, &format!("BWT header flip at {at}"));
            if let Ok(seq) = c.decompress(&mutant) {
                assert_eq!(seq, original, "BWT flip at {at} silently corrupted output");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Router wire frames: the "DW" protocol's ring-aware types under attack
// ---------------------------------------------------------------------------

use dnacomp::server::{
    decode_frame, migrate_batch_checksum, request_frame, ProtoError, Request, MAX_WIRE_PAYLOAD,
};

/// Build a genuine MigrateBatch request with `n` small records.
fn sample_migrate(n: usize, seed: u64) -> Request {
    Request::MigrateBatch {
        epoch: mix64(seed),
        records: (0..n)
            .map(|i| {
                let mut key = [0u8; 16];
                key.copy_from_slice(&noise_bytes(seed ^ i as u64, 16));
                (key, noise_bytes(seed.wrapping_add(i as u64), 24 + i))
            })
            .collect(),
    }
}

#[test]
fn router_frames_survive_mutation_with_typed_errors() {
    // Genuine frames for every ring-aware request type.
    let frames: Vec<Vec<u8>> = vec![
        request_frame(&Request::HelloEpoch {
            version: 1,
            epoch: 0xDEAD_BEEF_0BAD_F00D,
            shard: 3,
        }),
        request_frame(&Request::Keys),
        request_frame(&Request::Remove { key: [0xA5; 16] }),
        request_frame(&sample_migrate(4, 99)),
    ];
    for (f, clean) in frames.iter().enumerate() {
        // Whole-frame byte flips: the frame layer's FNV checksum or the
        // payload decoder must answer with a typed error — never a panic.
        for i in 0..clean.len() {
            for bit in [0x01u8, 0x80] {
                let mut mutant = clean.clone();
                mutant[i] ^= bit;
                let r = std::panic::catch_unwind(|| {
                    if let Ok((t, payload, _)) = decode_frame(&mutant, MAX_WIRE_PAYLOAD) {
                        let _ = Request::decode(t, &payload);
                    }
                });
                assert!(r.is_ok(), "frame {f}: flip at byte {i} panicked");
            }
        }
        // Truncations never parse as a complete frame.
        for i in 0..clean.len() {
            assert!(
                decode_frame(&clean[..i], MAX_WIRE_PAYLOAD).is_err(),
                "frame {f}: truncation to {i} bytes parsed Ok"
            );
        }
        // Payload-level mutation (bypassing the frame checksum): the
        // request decoder itself must stay total, and any MigrateBatch
        // that still decodes Ok must carry checksum-consistent records.
        let (t, payload, _) = decode_frame(clean, MAX_WIRE_PAYLOAD).unwrap();
        for i in 0..payload.len() {
            let mut mutant = payload.clone();
            mutant[i] ^= 0x40;
            let r = std::panic::catch_unwind(|| Request::decode(t, &mutant));
            match r {
                Ok(Ok(Request::MigrateBatch { records, .. })) => {
                    // The batch checksum held, so the records are what
                    // the (mutated) trailer vouches for.
                    let _ = migrate_batch_checksum(&records);
                }
                Ok(_) => {}
                Err(_) => panic!("frame {f}: payload flip at byte {i} panicked"),
            }
        }
    }
}

#[test]
fn forged_migrate_counts_refused_before_allocation() {
    // A lying record count over a near-empty payload must be refused
    // on affordability, before any record vector is allocated.
    for forged in [5u64, 1 << 20, u64::MAX >> 2] {
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes()); // epoch
        push_uvarint(&mut payload, forged);
        payload.extend_from_slice(&noise_bytes(forged, 16)); // scraps
        match Request::decode(0x33, &payload) {
            Err(ProtoError::Malformed(_)) | Err(ProtoError::Truncated) => {}
            other => panic!("forged count {forged} not refused: {other:?}"),
        }
    }
    // A batch whose trailer checksum lies about its records is refused
    // even when every length field is internally consistent.
    let clean = request_frame(&sample_migrate(3, 17));
    let (t, mut payload, _) = decode_frame(&clean, MAX_WIRE_PAYLOAD).unwrap();
    let n = payload.len();
    payload[n - 1] ^= 0xFF; // corrupt the batch checksum trailer
    match Request::decode(t, &payload) {
        Err(ProtoError::Malformed(_)) => {}
        other => panic!("lying batch checksum not refused: {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// LSM on-disk formats: run footers, block indexes, bloom filters and
// transition manifest entries under attack
// ---------------------------------------------------------------------------

use dnacomp::store::manifest::{Entry as LogEntry, Location as StoreLocation, MAX_DROP_LIST};
use dnacomp::store::sstable::{self, Footer, RunMeta, FOOTER_LEN};
use dnacomp::store::{Bloom, ContentKey};

fn sample_key(i: u64) -> ContentKey {
    let mut k = [0u8; 16];
    k[..8].copy_from_slice(&i.to_be_bytes());
    k[8..].copy_from_slice(&mix64(i).to_be_bytes());
    ContentKey(k)
}

/// A genuine run image (data blocks + index + bloom + footer) to
/// carve attack surfaces out of.
fn sample_run_bytes() -> (Vec<u8>, Footer) {
    let records: Vec<(ContentKey, Vec<u8>)> = (0..40u64)
        .map(|i| (sample_key(i), noise_bytes(i, 48 + (i as usize % 17))))
        .collect();
    let built = sstable::build_run(&records, 256, 10);
    let footer = Footer::decode(&built.bytes[built.bytes.len() - FOOTER_LEN..])
        .expect("freshly built run has a valid footer");
    (built.bytes, footer)
}

#[test]
fn run_footer_mutations_always_rejected() {
    let (bytes, _) = sample_run_bytes();
    let clean = &bytes[bytes.len() - FOOTER_LEN..];
    assert!(Footer::decode(clean).is_ok());
    // Every single-bit flip — magic, version, the four length fields,
    // both keys and the stored checksum itself — must come back as a
    // typed error: the trailing FNV covers everything before it, and a
    // flip inside the stored digest can no longer match the content.
    for at in 0..FOOTER_LEN {
        for bit in 0..8 {
            let mut mutant = clean.to_vec();
            mutant[at] ^= 1 << bit;
            assert!(
                Footer::decode(&mutant).is_err(),
                "footer flip at byte {at} bit {bit} decoded Ok"
            );
        }
    }
    // Anything that is not exactly FOOTER_LEN bytes is refused before
    // any field is read.
    for len in [0, 1, FOOTER_LEN - 1, FOOTER_LEN + 1] {
        let mut wrong = clean.to_vec();
        wrong.resize(len, 0);
        assert!(Footer::decode(&wrong).is_err(), "footer of {len} bytes decoded Ok");
    }
}

#[test]
fn run_index_lying_counts_refused_before_allocation() {
    let (bytes, footer) = sample_run_bytes();
    let start = footer.data_len as usize;
    let clean = &bytes[start..start + footer.index_len as usize];
    assert!(sstable::decode_index(clean).is_ok());
    // A forged header claiming millions of entries over a few bytes
    // must be refused on affordability, before the entry Vec is sized
    // by the lie. The wall clock is the observable proxy.
    for forged in [1u64 << 20, 1 << 40, u64::MAX >> 1] {
        let mut forged_bytes = vec![b'I', b'X'];
        push_uvarint(&mut forged_bytes, forged);
        forged_bytes.extend(noise_bytes(forged, 32));
        let started = std::time::Instant::now();
        assert!(
            sstable::decode_index(&forged_bytes).is_err(),
            "forged index count {forged} decoded Ok"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_millis(50),
            "rejecting a lying index count took {:?} — it allocated first",
            started.elapsed()
        );
    }
    // Bit flips anywhere in a genuine index are caught by the trailing
    // checksum; truncations never parse.
    for case in 0..80u64 {
        let at = (mix64(case ^ 0x1D) as usize) % clean.len();
        let mut mutant = clean.to_vec();
        mutant[at] ^= 1u8 << (case % 8);
        assert!(
            sstable::decode_index(&mutant).is_err(),
            "index flip at byte {at} decoded Ok"
        );
    }
    for i in 0..8 {
        assert!(
            sstable::decode_index(&clean[..clean.len() * i / 8]).is_err(),
            "index truncation to {i}/8 decoded Ok"
        );
    }
}

#[test]
fn bloom_header_lies_refused_before_allocation() {
    let mut bloom = Bloom::sized_for(64, 10);
    for i in 0..64u64 {
        bloom.insert(&sample_key(i));
    }
    let clean = bloom.encode();
    let (back, used) = Bloom::decode(&clean).expect("genuine bloom decodes");
    assert_eq!(used, clean.len());
    for i in 0..64u64 {
        assert!(back.contains(&sample_key(i)), "decoded bloom lost key {i}");
    }
    // A declared size the input bytes cannot pay for must be refused
    // before the word Vec exists; absurd probe counts likewise.
    for (bits, probes) in [(1u64 << 32, 7u8), (1 << 31, 7), (4096, 0), (4096, 31)] {
        let mut forged = vec![b'B', b'F', 1];
        push_uvarint(&mut forged, bits);
        forged.push(probes);
        push_uvarint(&mut forged, 64);
        forged.extend(noise_bytes(bits ^ probes as u64, 64));
        let started = std::time::Instant::now();
        assert!(
            Bloom::decode(&forged).is_err(),
            "forged bloom (bits={bits}, probes={probes}) decoded Ok"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_millis(50),
            "rejecting a lying bloom header took {:?} — it allocated first",
            started.elapsed()
        );
    }
    // Whole-image flips and truncations: typed errors only.
    for case in 0..80u64 {
        let at = (mix64(case ^ 0xB1) as usize) % clean.len();
        let mut mutant = clean.clone();
        mutant[at] ^= 1u8 << (case % 8);
        assert!(Bloom::decode(&mutant).is_err(), "bloom flip at byte {at} decoded Ok");
    }
    for i in 0..8 {
        assert!(
            Bloom::decode(&clean[..clean.len() * i / 8]).is_err(),
            "bloom truncation to {i}/8 decoded Ok"
        );
    }
}

#[test]
fn manifest_transition_entries_reject_forgery_and_tearing() {
    let meta = RunMeta {
        id: 42,
        level: 3,
        records: 1_000,
        bytes: 1 << 20,
        min_key: sample_key(1),
        max_key: sample_key(999),
    };
    let entries = [
        LogEntry::Seal {
            run: Some(meta),
            segments: (0..20).collect(),
        },
        LogEntry::Seal {
            run: None,
            segments: vec![7],
        },
        LogEntry::Merge {
            run: Some(meta),
            runs: (100..104).collect(),
        },
        LogEntry::RemoveRun {
            key: sample_key(5),
            run: 42,
            len: 321,
        },
        LogEntry::Revive {
            key: sample_key(5),
            run: 42,
        },
        LogEntry::AddRun { meta },
        LogEntry::Add {
            key: sample_key(8),
            location: StoreLocation {
                segment: 3,
                offset: 4096,
                len: 128,
                algorithm: Algorithm::Dnax,
                original_len: 400,
            },
        },
    ];
    for (n, entry) in entries.iter().enumerate() {
        let clean = entry.encode();
        let (back, used) = LogEntry::decode(&clean).expect("genuine entry decodes");
        assert_eq!(&back, entry, "entry {n} round-trip");
        assert_eq!(used, clean.len());
        // The torn-tail convention: every truncation and every bit flip
        // is `None` — replay stops, it never guesses.
        for i in 0..clean.len() {
            assert!(
                LogEntry::decode(&clean[..i]).is_none(),
                "entry {n}: truncation to {i} bytes decoded Some"
            );
            for bit in [0x01u8, 0x80] {
                let mut mutant = clean.clone();
                mutant[i] ^= bit;
                assert!(
                    LogEntry::decode(&mutant).is_none(),
                    "entry {n}: flip at byte {i} decoded Some"
                );
            }
        }
    }
    // A drop list over the chunking cap (or over what the bytes can
    // pay for) is refused before the id Vec is sized by the claim.
    for forged in [MAX_DROP_LIST as u64 + 1, 1 << 30, u64::MAX >> 8] {
        let mut body = vec![6u8, 0]; // Seal, no output run
        push_uvarint(&mut body, forged);
        body.extend(noise_bytes(forged, 24));
        // Give the forgery an honest checksum so it reaches the
        // affordability check instead of dying on the digest.
        let digest = {
            let mut h = dnacomp::codec::checksum::Fnv1a::new();
            h.update(&body);
            h.digest()
        };
        body.extend_from_slice(&digest.to_le_bytes());
        let started = std::time::Instant::now();
        assert!(
            LogEntry::decode(&body).is_none(),
            "forged drop list of {forged} ids decoded Some"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_millis(50),
            "rejecting a lying drop list took {:?} — it allocated first",
            started.elapsed()
        );
    }
}

#[test]
fn forged_epochs_and_shard_ids_decode_to_exactly_what_was_sent() {
    // Epoch and shard id are *data* at the codec layer — policy (the
    // router's epoch gate, the shard's identity check) rejects them
    // later with typed WrongShard errors. The decoder's job is to
    // neither panic nor mangle: every in-range forgery round-trips.
    for seed in 0..50u64 {
        let epoch = mix64(seed);
        let shard = (mix64(seed ^ 0xF00D) & 0xFFFF_FFFF) as u32;
        let frame = request_frame(&Request::HelloEpoch {
            version: (seed % 4) as u8,
            epoch,
            shard,
        });
        let (t, payload, _) = decode_frame(&frame, MAX_WIRE_PAYLOAD).unwrap();
        match Request::decode(t, &payload).unwrap() {
            Request::HelloEpoch {
                epoch: e,
                shard: s,
                ..
            } => {
                assert_eq!(e, epoch);
                assert_eq!(s, shard);
            }
            other => panic!("HelloEpoch decoded as {other:?}"),
        }
    }
    // A shard id over u32::MAX is the one forgery the decoder itself
    // refuses: it cannot be represented, so it must not be truncated
    // into an innocent-looking id.
    let mut payload = vec![1u8]; // version
    payload.extend_from_slice(&42u64.to_le_bytes()); // epoch
    push_uvarint(&mut payload, u64::from(u32::MAX) + 1);
    match Request::decode(0x30, &payload) {
        Err(ProtoError::Malformed(_)) => {}
        other => panic!("oversized shard id not refused: {other:?}"),
    }
}
