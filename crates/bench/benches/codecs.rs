//! Micro-benchmarks of the shared codec substrate: the primitives every
//! compressor is assembled from.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dnacomp_codec::arith::{ArithDecoder, ArithEncoder};
use dnacomp_codec::bitio::{BitReader, BitWriter};
use dnacomp_codec::ctw::{BitHistory, CtwTree};
use dnacomp_codec::fibonacci::{fib_decode, fib_encode, gamma_decode, gamma_encode};
use dnacomp_codec::huffman::HuffmanCode;
use dnacomp_codec::lz::{detokenize, tokenize, LzConfig};
use dnacomp_codec::models::ContextModel;
use dnacomp_codec::repeats::{RepeatConfig, RepeatFinder};
use dnacomp_seq::gen::GenomeModel;
use std::hint::black_box;
use std::time::Duration;

const N: usize = 64_000;

fn bench_bitio(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitio");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1200));
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("write_read_3bit", |b| {
        b.iter(|| {
            let mut w = BitWriter::with_capacity_bits(N * 3);
            for i in 0..N {
                w.push_bits((i % 7) as u64, 3);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            let mut acc = 0u64;
            for _ in 0..N {
                acc += r.read_bits(3).unwrap();
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_arith_order2(c: &mut Criterion) {
    let seq = GenomeModel::default().generate(N, 7);
    let symbols: Vec<usize> = seq.iter().map(|b| b.code() as usize).collect();
    let mut group = c.benchmark_group("arith");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1200));
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("order2_encode", |b| {
        b.iter(|| {
            let mut model = ContextModel::new(2);
            let mut enc = ArithEncoder::new();
            for &s in &symbols {
                model.encode(&mut enc, s);
            }
            black_box(enc.finish())
        })
    });
    let bytes = {
        let mut model = ContextModel::new(2);
        let mut enc = ArithEncoder::new();
        for &s in &symbols {
            model.encode(&mut enc, s);
        }
        enc.finish()
    };
    group.bench_function("order2_decode", |b| {
        b.iter(|| {
            let mut model = ContextModel::new(2);
            let mut dec = ArithDecoder::new(&bytes);
            let mut acc = 0usize;
            for _ in 0..N {
                acc += model.decode(&mut dec).unwrap();
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_universal_codes(c: &mut Criterion) {
    let values: Vec<u64> = (1..=10_000u64).map(|i| i * 37 % 100_000 + 1).collect();
    let mut group = c.benchmark_group("universal_codes");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1200));
    group.throughput(Throughput::Elements(values.len() as u64));
    group.bench_function("fibonacci_roundtrip", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for &v in &values {
                fib_encode(&mut w, v).unwrap();
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            let mut acc = 0u64;
            for _ in &values {
                acc ^= fib_decode(&mut r).unwrap();
            }
            black_box(acc)
        })
    });
    group.bench_function("gamma_roundtrip", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for &v in &values {
                gamma_encode(&mut w, v).unwrap();
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            let mut acc = 0u64;
            for _ in &values {
                acc ^= gamma_decode(&mut r).unwrap();
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_huffman(c: &mut Criterion) {
    let seq = GenomeModel::default().generate(N, 9);
    let data = seq.to_ascii().into_bytes();
    let mut freqs = vec![0u64; 256];
    for &b in &data {
        freqs[b as usize] += 1;
    }
    let mut group = c.benchmark_group("huffman");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1200));
    group.throughput(Throughput::Bytes(N as u64));
    group.bench_function("build_encode", |b| {
        b.iter(|| {
            let code = HuffmanCode::from_freqs(&freqs).unwrap();
            let mut w = BitWriter::new();
            for &byte in &data {
                code.encode(&mut w, byte as usize).unwrap();
            }
            black_box(w.into_bytes())
        })
    });
    group.finish();
}

fn bench_lz(c: &mut Criterion) {
    let seq = GenomeModel::highly_repetitive().generate(N, 11);
    let data = seq.to_ascii().into_bytes();
    let mut group = c.benchmark_group("lz77");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1200));
    group.throughput(Throughput::Bytes(N as u64));
    for (name, cfg) in [
        ("fast", LzConfig::fast()),
        ("default", LzConfig::default()),
        ("best", LzConfig::best()),
    ] {
        group.bench_function(format!("tokenize_{name}"), |b| {
            b.iter(|| black_box(tokenize(black_box(&data), &cfg)))
        });
    }
    let tokens = tokenize(&data, &LzConfig::default());
    group.bench_function("detokenize", |b| {
        b.iter(|| black_box(detokenize(black_box(&tokens)).unwrap()))
    });
    group.finish();
}

fn bench_ctw_tree(c: &mut Criterion) {
    let seq = GenomeModel::default().generate(N / 4, 13);
    let bits: Vec<bool> = seq
        .iter()
        .flat_map(|b| [(b.code() >> 1) & 1 == 1, b.code() & 1 == 1])
        .collect();
    let mut group = c.benchmark_group("ctw_tree");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1200));
    group.throughput(Throughput::Elements(bits.len() as u64));
    for depth in [8usize, 16, 24] {
        group.bench_function(format!("predict_commit_d{depth}"), |b| {
            b.iter(|| {
                let mut tree = CtwTree::new(depth);
                let mut hist = BitHistory::new();
                for &bit in &bits {
                    let (num, den) = tree.predict(hist.value());
                    black_box((num, den));
                    tree.commit(bit);
                    hist.push(bit);
                }
                black_box(tree.node_count())
            })
        });
    }
    group.finish();
}

fn bench_repeat_finder(c: &mut Criterion) {
    let seq = GenomeModel::highly_repetitive().generate(N, 17);
    let bases = seq.unpack();
    let mut group = c.benchmark_group("repeat_finder");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1200));
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("sweep_find", |b| {
        b.iter(|| {
            let mut finder = RepeatFinder::new(&bases, RepeatConfig::default());
            let mut found = 0usize;
            finder
                .sweep(|stop| match stop.find() {
                    Some(m) if m.len >= 24 => {
                        found += 1;
                        Ok(m.len)
                    }
                    _ => Ok(1),
                })
                .unwrap();
            black_box(found)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bitio,
    bench_arith_order2,
    bench_universal_codes,
    bench_huffman,
    bench_lz,
    bench_ctw_tree,
    bench_repeat_finder
);
criterion_main!(benches);
