//! Differential and compatibility suite for the speed tier.
//!
//! Five promises, each checked against an independent oracle:
//!
//! 1. **SIMD kernels are invisible** — the runtime-dispatched 2-bit
//!    pack/unpack and match-extension kernels produce byte-identical
//!    results to the bytewise reference loops at every length and
//!    every slice alignment, on whatever dispatch tier this host (or a
//!    `DNACOMP_FORCE_SCALAR=1` run) selects.
//! 2. **The entropy backends cross-decode** — blobs and frames written
//!    by the legacy arithmetic tier (v1) and the rANS tier (v2) both
//!    decode through the *default* compressors at every frame-matrix
//!    block size; the decoder follows the container version, never the
//!    instance configuration.
//! 3. **Old bytes stay decodable** — checked-in v1 container images
//!    (hex fixtures, never regenerated) decode bit-exactly. A failure
//!    here means the legacy decode path broke, not that the fixtures
//!    are stale.
//! 4. **The repeat finders are invisible** — the codecs built on them
//!    write the same container bytes and meter the same work and RAM as
//!    pinned digests recorded from the `HashMap`-indexed finders.
//! 5. **The arithmetic coder is invisible** — every codec it codes for
//!    writes the same container bytes and meters the same work and RAM
//!    as pinned digests recorded from the bit-at-a-time coder.

use dnacomp::algos::{compressor_for, Algorithm, CompressedBlob, Compressor, Ctw, CtwLz, XmLite};
use dnacomp::codec::arith::EntropyBackend;
use dnacomp::codec::checksum::{fnv1a, Fnv1a};
use dnacomp::codec::repeats::{RepeatConfig, RepeatFinder};
use dnacomp::seq::gen::GenomeModel;
use dnacomp::seq::{
    common_prefix_len, common_prefix_len_bytewise, pack_2bit, pack_2bit_bytewise, unpack_2bit,
    unpack_2bit_bytewise, Base, CpuFeatures,
};

/// Deterministic 2-bit code stream with enough structure to exercise
/// every lane of a vector kernel.
fn codes(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 2654435761) >> 7) as u8 & 3).collect()
}

#[test]
fn pack_unpack_match_bytewise_oracle_at_every_length_and_alignment() {
    eprintln!("dispatch: {}", CpuFeatures::get().summary());
    let all = codes(4096 + 64);
    // Every length through 512 crosses all the vector-width remainders;
    // the sparse tail hits block boundaries of every kernel tier.
    let lens: Vec<usize> = (0..=512)
        .chain([1000, 1023, 1024, 1025, 2048, 3333, 4095, 4096])
        .collect();
    for &len in &lens {
        for offset in 0..8 {
            let slice = &all[offset..offset + len];
            let packed = pack_2bit(slice);
            assert_eq!(
                packed,
                pack_2bit_bytewise(slice),
                "pack diverged at len {len} offset {offset}"
            );
            assert_eq!(
                unpack_2bit(&packed, len),
                unpack_2bit_bytewise(&packed, len),
                "unpack diverged at len {len} offset {offset}"
            );
            assert_eq!(
                unpack_2bit(&packed, len),
                slice,
                "pack/unpack not inverse at len {len} offset {offset}"
            );
        }
    }
}

#[test]
fn prefix_kernel_matches_bytewise_oracle_at_every_mismatch_position() {
    let a: Vec<Base> = codes(256).iter().map(|&c| Base::from_code(c)).collect();
    // Mismatch at every position, compared at several slice alignments:
    // the SIMD kernel must report the exact same prefix length as the
    // scalar loop whether the difference lands mid-vector or in the tail.
    for p in 0..a.len() {
        let mut b = a.clone();
        b[p] = Base::from_code(b[p].code() ^ 1);
        for offset in 0..4 {
            let (x, y) = (&a[offset..], &b[offset..]);
            assert_eq!(
                common_prefix_len(x, y),
                common_prefix_len_bytewise(x, y),
                "prefix diverged: mismatch at {p}, offset {offset}"
            );
        }
    }
    // Equal inputs of every length 0..=130: the full-scan path.
    for len in 0..=130 {
        let x = &a[..len];
        assert_eq!(common_prefix_len(x, x), len, "full scan at len {len}");
        assert_eq!(common_prefix_len_bytewise(x, x), len);
    }
}

#[test]
fn match_finder_results_verify_against_the_text_itself() {
    // Whatever the extension kernel did, a reported forward match must
    // be (a) a real byte-for-byte repeat and (b) maximal — one more
    // base either runs off the end or mismatches.
    let text = GenomeModel::default().generate(6_000, 99).unpack();
    let mut finder = RepeatFinder::new(
        &text,
        RepeatConfig {
            search_revcomp: false,
            ..RepeatConfig::default()
        },
    );
    let mut found = 0usize;
    finder
        .sweep(|stop| {
            let dst = stop.pos();
            if let Some(m) = stop.find() {
                assert!(m.src < dst, "match source at/after query");
                assert_eq!(
                    &text[m.src..m.src + m.len],
                    &text[dst..dst + m.len],
                    "reported match is not a repeat (src {}, dst {dst})",
                    m.src
                );
                let maximal = dst + m.len == text.len() || text[m.src + m.len] != text[dst + m.len];
                assert!(maximal, "match at dst {dst} undersold by the kernel");
                found += 1;
            }
            Ok(1)
        })
        .unwrap();
    assert!(found > 100, "only {found} matches on repetitive genomic text");
}

/// The frame-matrix block sizes: degenerate single-base blocks, sizes
/// straddling the sequence length, and power-of-two interiors.
const BLOCK_SIZES: [usize; 7] = [1, 3, 7, 64, 256, 1000, 4096];

#[test]
fn both_backends_cross_decode_at_every_frame_block_size() {
    let seq = GenomeModel::default().generate(1_000, 55);
    let tiers: [(Box<dyn Compressor>, Box<dyn Compressor>); 3] = [
        (
            Box::new(Ctw::with_backend(EntropyBackend::Arith)),
            Box::new(Ctw::default()),
        ),
        (
            Box::new(CtwLz::with_backend(EntropyBackend::Arith)),
            Box::new(CtwLz::default()),
        ),
        (
            Box::new(XmLite::with_backend(EntropyBackend::Arith)),
            Box::new(XmLite::default()),
        ),
    ];
    for (legacy, fast) in &tiers {
        for bs in BLOCK_SIZES {
            // v1 frame decoded by the default (rANS-configured) tier and
            // v2 frame decoded through the same version-dispatching path:
            // the decoder follows the container, not the instance.
            let v1 = dnacomp::algos::frame::compress_serial(legacy.as_ref(), &seq, bs).unwrap();
            let v2 = dnacomp::algos::frame::compress_serial(fast.as_ref(), &seq, bs).unwrap();
            assert_eq!(
                dnacomp::algos::frame::decompress_serial(&v1).unwrap(),
                seq,
                "{}: v1 frame at block size {bs}",
                legacy.algorithm()
            );
            assert_eq!(
                dnacomp::algos::frame::decompress_serial(&v2).unwrap(),
                seq,
                "{}: v2 frame at block size {bs}",
                fast.algorithm()
            );
        }
        // Blob-level cross-decode in both directions.
        let v1 = legacy.compress(&seq).unwrap();
        let v2 = fast.compress(&seq).unwrap();
        assert_eq!(v1.version, 1);
        assert_eq!(v2.version, 2);
        assert_eq!(fast.decompress(&v1).unwrap(), seq);
        assert_eq!(legacy.decompress(&v2).unwrap(), seq);
    }
}

/// FNV-1a digests of the container bytes and of the meter's
/// `(work_units, peak_heap_bytes)` for every codec built on the repeat
/// finders, on seeded `GenomeModel` inputs. Recorded before the finders'
/// chain heads moved from `HashMap` to the flat k-mer table; a change to
/// either index that alters a single container byte, a modelled work
/// unit or the modelled RAM figure fails here.
#[rustfmt::skip]
const REPEAT_CODEC_DIGESTS: [(Algorithm, usize, u64, u64); 15] = [
    (Algorithm::Dnax, 1_024, 0x814f_168a_9d39_3dfa, 0x24f9_39b8_b430_c7c2),
    (Algorithm::Dnax, 8_192, 0x70b0_d16a_e82b_2a30, 0x8733_0c9b_290a_94d4),
    (Algorithm::Dnax, 262_144, 0xed12_1e85_de4b_cc74, 0x5376_b8a0_d5b3_3601),
    (Algorithm::GenCompress, 1_024, 0xed13_a494_788c_1cd9, 0x6f3e_260f_14f7_3b64),
    (Algorithm::GenCompress, 8_192, 0xd4a5_cd94_7421_3e54, 0x2fff_ce99_f174_3360),
    (Algorithm::GenCompress, 262_144, 0x47fb_9696_502b_2c7a, 0xf4e3_382d_242a_796c),
    (Algorithm::BioCompress2, 1_024, 0x6b6b_4f89_f41a_1212, 0xd26b_79db_577d_c131),
    (Algorithm::BioCompress2, 8_192, 0xdf4f_9908_f7f5_5df4, 0x6b56_f778_a232_0938),
    (Algorithm::BioCompress2, 262_144, 0x19e9_57aa_2454_ce1b, 0x0de9_c7c1_63ec_1f51),
    (Algorithm::CtwLz, 1_024, 0x5959_aad5_64f0_9f1f, 0x547e_49e9_e7c9_4d03),
    (Algorithm::CtwLz, 8_192, 0x1b11_f7bc_ecb3_1dd5, 0xf8f2_a265_3928_c76f),
    (Algorithm::CtwLz, 262_144, 0x8e20_26f2_c565_4894, 0x3bca_2287_8258_bcc5),
    (Algorithm::DnaCompress, 1_024, 0x375e_25a2_029a_c258, 0x8bbf_2811_2ece_3c7b),
    (Algorithm::DnaCompress, 8_192, 0x33e8_5dab_6b22_a1dd, 0x4f25_3d36_b776_37be),
    (Algorithm::DnaCompress, 262_144, 0x0fda_4101_0331_d60a, 0x280f_9d9a_68c1_15b6),
];

#[test]
fn repeat_finder_codecs_keep_their_container_bytes_and_meter() {
    let mut wrong = Vec::new();
    for (alg, len, want_bytes, want_meter) in REPEAT_CODEC_DIGESTS {
        let seq = GenomeModel::default().generate(len, 23);
        let (blob, stats) = compressor_for(alg).compress_with_stats(&seq).unwrap();
        let bytes = fnv1a(&blob.to_bytes());
        let mut meter = Fnv1a::new();
        meter.update(&stats.work_units.to_le_bytes());
        meter.update(&stats.peak_heap_bytes.to_le_bytes());
        let meter = meter.digest();
        if (bytes, meter) != (want_bytes, want_meter) {
            wrong.push(format!(
                "(Algorithm::{alg:?}, {len}, {bytes:#018x}, {meter:#018x})"
            ));
        }
    }
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}

/// The same two digests for every codec whose bits come from the
/// arithmetic coder and that the table above leaves out: DNAPack-lite
/// and DNASequitur, and XM-lite, CTW and CTW+LZ on their v1 `Arith`
/// backend (the checked-in v1 blobs below pin only their decoding).
/// Recorded from the bit-at-a-time coder, before renormalisation moved
/// to one step per symbol.
#[rustfmt::skip]
const ARITH_CODEC_DIGESTS: [(&str, usize, u64, u64); 15] = [
    ("DNAPack-lite", 1_024, 0x8b80_2a2c_bad5_0fbb, 0x2976_d809_f509_069b),
    ("DNAPack-lite", 8_192, 0xea4c_7cc2_5d9f_8308, 0x3591_b513_38a2_69f8),
    ("DNAPack-lite", 262_144, 0x21fd_4327_96d1_54c5, 0xc9e1_51f1_582b_ba3e),
    ("DNASequitur", 1_024, 0x9f06_4279_f610_0b8d, 0x2ff5_e263_db49_dc85),
    ("DNASequitur", 8_192, 0x2338_426c_8f8f_f4e3, 0x19bf_92e6_e306_0333),
    ("DNASequitur", 262_144, 0x8e12_422a_3382_2297, 0x2623_f11c_f14e_2dc9),
    ("XM-lite v1", 1_024, 0xa67e_e93e_bbd9_a0d8, 0x4556_91c8_4a25_27ba),
    ("XM-lite v1", 8_192, 0xe16b_a884_200a_8204, 0x940a_b4d2_e1cf_81d9),
    ("XM-lite v1", 262_144, 0xf662_1b30_82bd_d05e, 0x3027_8df9_76c2_a5bc),
    ("CTW v1", 1_024, 0xcd23_8b5b_03cc_988a, 0xbe4e_a36d_09f8_fdab),
    ("CTW v1", 8_192, 0x95ee_2bdb_41b8_1b07, 0x81ff_1668_3760_c53e),
    ("CTW v1", 262_144, 0x62da_12d7_3e70_a57a, 0x055b_d910_a146_a5db),
    ("CTW+LZ v1", 1_024, 0x4cac_97fb_9523_6569, 0xd5f9_30dc_f738_b2d2),
    ("CTW+LZ v1", 8_192, 0x2b20_a78a_1c60_73e1, 0x4c53_b3c3_8bd5_044f),
    ("CTW+LZ v1", 262_144, 0xf6b0_aeb0_4d61_7b52, 0xc761_f39b_a988_965e),
];

fn arith_codec(name: &str) -> Box<dyn Compressor> {
    match name {
        "DNAPack-lite" => compressor_for(Algorithm::DnaPackLite),
        "DNASequitur" => compressor_for(Algorithm::DnaSequitur),
        "XM-lite v1" => Box::new(XmLite::with_backend(EntropyBackend::Arith)),
        "CTW v1" => Box::new(Ctw::with_backend(EntropyBackend::Arith)),
        "CTW+LZ v1" => Box::new(CtwLz::with_backend(EntropyBackend::Arith)),
        _ => unreachable!("{name}"),
    }
}

#[test]
fn arithmetic_coded_codecs_keep_their_container_bytes_and_meter() {
    let mut wrong = Vec::new();
    for (name, len, want_bytes, want_meter) in ARITH_CODEC_DIGESTS {
        let seq = GenomeModel::default().generate(len, 23);
        let (blob, stats) = arith_codec(name).compress_with_stats(&seq).unwrap();
        let bytes = fnv1a(&blob.to_bytes());
        let mut meter = Fnv1a::new();
        meter.update(&stats.work_units.to_le_bytes());
        meter.update(&stats.peak_heap_bytes.to_le_bytes());
        let meter = meter.digest();
        if (bytes, meter) != (want_bytes, want_meter) {
            wrong.push(format!("({name:?}, {len}, {bytes:#018x}, {meter:#018x})"));
        }
    }
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}

// Generated by examples/speed_tier_fixtures.rs — seed 2024, 300 bases.
const CTW_V1: &str = "44580101ac02658c75a9c5a96a0e88c1d981992bf86d63fef86a6f1cc08f5cba15fd9e74eb7bf524a3b0f0f7cd7451f37a962079142502c1bf053694321b7720c4df61bd1aba91709dbdb142f407a3f07ceaef700b9a98";
const CTWLZ_V1: &str = "4458010cac02658c75a9c5a96a0e0b016607405903284009902188c1d981992bf86d63fef86a6f1cc08f5cba15fd9e74e992852a18773fbcd5a38b15d2ca22e7ef8d8caf7092";
const XM_V1: &str = "44580107ac02658c75a9c5a96a0e8c2e31e96b8418528b2a775e6eff4db1593cfeae5ea5c358a79c7fd158173fdf96b25f0f4914917e463ea61ff3fe7ec10ccec0589a1f6d39925a4f3cfb9b200c02";
const SEQUITUR_V1: &str = "4458010bac02658c75a9c5a96a0e17810105a3533f2f67a424064b698d15d328a1e6d18d6c6f05d8c82cb9dce5f1136abfcd37e59e16c7419b6eaf1b527654a0a93160b260d13f8fc8ee0ae3daecdbf60048f42eb00130b07058c6675bb9ef774880a428385a0dd66c46439e7143a112310b47cd135d74dc92ec148d34bb1008945a76ed92737c";

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn checked_in_v1_blobs_decode_bit_exact_through_default_compressors() {
    let expected = GenomeModel::default().generate(300, 2024);
    for (name, hex, alg) in [
        ("CTW", CTW_V1, Algorithm::Ctw),
        ("CTW+LZ", CTWLZ_V1, Algorithm::CtwLz),
        ("XM-lite", XM_V1, Algorithm::XmLite),
        ("DNASequitur", SEQUITUR_V1, Algorithm::DnaSequitur),
    ] {
        let blob = CompressedBlob::from_bytes(&unhex(hex))
            .unwrap_or_else(|e| panic!("{name}: fixture container no longer parses: {e}"));
        assert_eq!(blob.version, 1, "{name}: fixture is not a v1 container");
        assert_eq!(blob.algorithm, alg, "{name}: fixture algorithm tag");
        let decoded = compressor_for(alg)
            .decompress(&blob)
            .unwrap_or_else(|e| panic!("{name}: v1 fixture no longer decodes: {e}"));
        assert_eq!(decoded, expected, "{name}: v1 fixture decoded to different bases");
    }
}
