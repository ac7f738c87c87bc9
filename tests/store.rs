//! Integration suite for the crash-safe content-addressed store
//! (`crates/store`): crash-recovery sweeps over every kill point,
//! seeded torn-write chaos, end-to-end persist-on-complete through the
//! compression service, dedup accounting, and scrub detection.

use dnacomp::algos::{compressor_for, Algorithm, CompressedBlob};
use dnacomp::cloud::FaultPlan;
use dnacomp::core::Context;
use dnacomp::seq::gen::GenomeModel;
use dnacomp::seq::PackedSeq;
use dnacomp::server::{
    synthetic_framework, CompressRequest, CompressionService, ServiceConfig, SubmitError,
};
use dnacomp::store::{ContentKey, SequenceStore, StoreConfig, StoreError};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dnacomp-it-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small config so a handful of records spans several segments.
fn config() -> StoreConfig {
    StoreConfig {
        segment_target_bytes: 192,
        sync: false,
        ..StoreConfig::default()
    }
}

/// A deterministic workload of distinct sequences and their blobs.
fn workload(n: usize) -> Vec<(PackedSeq, CompressedBlob)> {
    (0..n)
        .map(|i| {
            let seq = GenomeModel::default().generate(400 + i * 37, i as u64);
            let blob = compressor_for(Algorithm::Dnax).compress(&seq).unwrap();
            (seq, blob)
        })
        .collect()
}

/// Total committed bytes a workload writes (segments + manifest), used
/// to bound the crash sweep.
fn bytes_written(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum()
}

/// The acceptance gate: kill the store at *every* byte of the workload
/// and prove recovery each time — every put that reported success comes
/// back bit-exact, every put that failed is cleanly absent, and the
/// recovered store verifies and keeps working.
#[test]
fn crash_sweep_recovers_exactly_the_committed_prefix() {
    let jobs = workload(4);
    // Dry run to learn the total write volume.
    let dir = tmp_dir("sweep-dry");
    let store = SequenceStore::open(&dir, config()).unwrap();
    for (seq, blob) in &jobs {
        store.put(seq, blob).unwrap();
    }
    drop(store);
    let total = bytes_written(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(total > 0);

    // Sweep every kill point (step 1 byte): budget b tears the write
    // that would cross b bytes, mid-record and mid-manifest-entry
    // included.
    let dir = tmp_dir("sweep");
    for budget in 0..=total {
        let _ = std::fs::remove_dir_all(&dir);
        let store = SequenceStore::open(
            &dir,
            StoreConfig {
                crash_after_bytes: Some(budget),
                ..config()
            },
        )
        .unwrap();
        let mut committed = Vec::new();
        for (seq, blob) in &jobs {
            match store.put(seq, blob) {
                Ok(out) => committed.push((out.key, blob.clone())),
                Err(e) => {
                    assert!(e.is_simulated_crash(), "budget {budget}: {e}");
                    break;
                }
            }
        }
        drop(store);
        let store = SequenceStore::open(&dir, config()).unwrap();
        assert_eq!(
            store.len(),
            committed.len(),
            "budget {budget}: uncommitted tail must be lost, committed kept"
        );
        for (key, blob) in &committed {
            assert_eq!(&store.get(key).unwrap(), blob, "budget {budget}");
        }
        let report = store.verify();
        assert!(report.is_clean(), "budget {budget}: {:?}", report.failures);
        // The recovered store accepts new writes on a clean frontier.
        let (seq, blob) = &jobs[jobs.len() - 1];
        let out = store.put(seq, blob).unwrap();
        assert_eq!(store.get(&out.key).unwrap(), *blob, "budget {budget}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The LSM acceptance gate: the same every-byte kill discipline, but
/// with aggressive sealing (`l0_seal_segments: 2`) so budgets land
/// inside run builds, Seal/Merge commit points and the checkpoint
/// rewrite — not just record appends. An explicit `compact()` midway
/// puts merges and the manifest rewrite under the axe as well. The
/// workload is deterministic, so the byte stream is identical at every
/// budget and the incrementing sweep visits every kill point exactly
/// once, ending at the first budget that never crashes.
#[test]
fn crash_sweep_survives_mid_seal_and_mid_compaction_kills() {
    let jobs = workload(5);
    let lsm = StoreConfig {
        l0_seal_segments: 2,
        ..config()
    };
    let dir = tmp_dir("sweep-lsm");
    let mut budget = 0u64;
    let mut clean_snapshot = None;
    loop {
        let _ = std::fs::remove_dir_all(&dir);
        let store = SequenceStore::open(
            &dir,
            StoreConfig {
                crash_after_bytes: Some(budget),
                ..lsm
            },
        )
        .unwrap();
        let mut committed = Vec::new();
        let mut crashed = false;
        for (i, (seq, blob)) in jobs.iter().enumerate() {
            match store.put(seq, blob) {
                Ok(out) => committed.push((out.key, blob.clone())),
                Err(e) => {
                    assert!(e.is_simulated_crash(), "budget {budget}: {e}");
                    crashed = true;
                    break;
                }
            }
            // Force merges + checkpoint under the same budget once
            // enough runs exist for a real merge (two seals have fired
            // by the last record with `l0_seal_segments: 2`).
            if i == jobs.len() - 1 {
                if let Err(e) = store.compact() {
                    assert!(e.is_simulated_crash(), "budget {budget}: {e}");
                    crashed = true;
                    break;
                }
            }
        }
        // A crash inside put-triggered maintenance is swallowed by
        // design (the put already committed); it still must extend the
        // sweep, or budgets inside the final seal would go unswept.
        crashed = crashed || store.snapshot().maintenance_failures > 0;
        if !crashed {
            clean_snapshot = Some(store.snapshot());
        }
        drop(store);

        let store = SequenceStore::open(&dir, lsm).unwrap();
        assert_eq!(
            store.len(),
            committed.len(),
            "budget {budget}: uncommitted tail must be lost, committed kept"
        );
        for (key, blob) in &committed {
            assert_eq!(&store.get(key).unwrap(), blob, "budget {budget}");
        }
        let report = store.verify();
        assert!(report.is_clean(), "budget {budget}: {:?}", report.failures);
        // The recovered store still compacts and serves everything.
        store.compact().unwrap();
        assert_eq!(store.len(), committed.len(), "budget {budget}");
        for (key, blob) in &committed {
            assert_eq!(&store.get(key).unwrap(), blob, "budget {budget}");
        }
        drop(store);
        if !crashed {
            break;
        }
        budget += 1;
    }
    // The stream the sweep walked byte-by-byte really contained the
    // transitions this test is about.
    let snap = clean_snapshot.expect("loop ends on a clean run");
    assert!(snap.seals >= 1, "sweep never sealed L0: {snap:?}");
    assert!(snap.merges >= 1, "sweep never merged runs: {snap:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded torn-write chaos via the cloud fault plan: keep reopening
/// after each simulated crash; nothing committed is ever lost and the
/// full workload eventually lands.
#[test]
fn torn_write_chaos_converges_without_losing_data() {
    let jobs = workload(12);
    let dir = tmp_dir("chaos");
    let mut committed: Vec<(ContentKey, CompressedBlob)> = Vec::new();
    let mut next = 0;
    let mut crashes = 0;
    let mut round = 0u64;
    while next < jobs.len() {
        // Re-seed each incarnation so retried writes see fresh faults.
        let store = SequenceStore::open(
            &dir,
            StoreConfig {
                faults: FaultPlan::disk(round, 0.25),
                ..config()
            },
        )
        .unwrap();
        round += 1;
        assert_eq!(store.len(), committed.len(), "recovery lost or grew data");
        for (key, blob) in &committed {
            assert_eq!(&store.get(key).unwrap(), blob);
        }
        while next < jobs.len() {
            let (seq, blob) = &jobs[next];
            match store.put(seq, blob) {
                Ok(out) => {
                    committed.push((out.key, blob.clone()));
                    next += 1;
                }
                Err(e) => {
                    assert!(e.is_simulated_crash(), "{e}");
                    crashes += 1;
                    break;
                }
            }
        }
        assert!(round < 200, "chaos loop did not converge");
    }
    assert!(crashes > 0, "fault rate 0.25 should tear at least once");
    let store = SequenceStore::open(&dir, config()).unwrap();
    assert_eq!(store.len(), jobs.len());
    assert!(store.verify().is_clean());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Persist-on-complete through the whole service: every completed job
/// lands in the store, duplicate content dedupes, and the metrics
/// snapshot exposes the store counters.
#[test]
fn service_persists_jobs_with_observable_dedup() {
    let dir = tmp_dir("service");
    let store = Arc::new(SequenceStore::open(&dir, StoreConfig::default()).unwrap());
    let service = CompressionService::start(
        synthetic_framework(7),
        ServiceConfig {
            workers: 3,
            store: Some(Arc::clone(&store)),
            ..ServiceConfig::default()
        },
    );
    // 5 distinct sequences, each submitted 3 times under different
    // file names (content, not names, drives dedup).
    let seqs: Vec<PackedSeq> = (0..5)
        .map(|i| GenomeModel::default().generate(2_000 + i * 111, 100 + i as u64))
        .collect();
    let mut tickets = Vec::new();
    for pass in 0..3 {
        for (i, seq) in seqs.iter().enumerate() {
            let req = CompressRequest::new(
                format!("job_{pass}_{i}"),
                seq.clone(),
                Context::new(&dnacomp::cloud::context_grid()[i], seq.len() as u64),
            );
            loop {
                match service.submit(req.clone()) {
                    Ok(t) => {
                        tickets.push((i, t));
                        break;
                    }
                    Err(SubmitError::QueueFull) => std::thread::yield_now(),
                    Err(e) => panic!("submit: {e}"),
                }
            }
        }
    }
    for (i, t) in tickets {
        let resp = t.wait().expect("job failed");
        let outcome = resp.persisted.expect("store attached → outcome present");
        assert_eq!(outcome.key, ContentKey::of_sequence(&seqs[i]));
    }
    let snapshot = service.shutdown();
    assert_eq!(snapshot.completed, 15);
    assert_eq!(snapshot.store_puts, 15);
    assert_eq!(snapshot.store_dedup_hits, 10, "2 of 3 passes dedupe");
    assert!(snapshot.store_bytes_on_disk > 0);
    assert_eq!(snapshot.store_scrub_failures, 0);
    // One payload per distinct sequence, round-trippable after reopen.
    drop(store);
    let store = SequenceStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.len(), seqs.len());
    for seq in &seqs {
        let blob = store.get(&ContentKey::of_sequence(seq)).unwrap();
        let back = compressor_for(blob.algorithm).decompress(&blob).unwrap();
        assert_eq!(&back, seq);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every acknowledged put decodes: a compress-only job longer than one
/// flat container may hold (`MAX_PREALLOC_BASES`) is framed in blocks
/// of that size even with `block_size: None`, and the stored container
/// reads back and decodes.
#[test]
fn a_put_longer_than_one_flat_container_is_framed_and_decodes() {
    use dnacomp::algos::blob::MAX_PREALLOC_BASES;
    use dnacomp::core::{ContextAwareFramework, FrameworkHandle, LabeledRow};
    let dir = tmp_dir("oversize");
    let store = Arc::new(SequenceStore::open(&dir, StoreConfig::default()).unwrap());
    // A rule tree that always picks Raw keeps 4 Mi bases cheap to encode.
    let rows: Vec<LabeledRow> = (0..40u64)
        .map(|i| LabeledRow {
            file: format!("raw_{i}"),
            file_bytes: 1_000 + i * 200_000,
            ram_mb: 2048,
            cpu_mhz: 2393,
            bandwidth_mbps: 2.0,
            winner: Algorithm::Raw,
            score: 0.0,
        })
        .collect();
    let framework = FrameworkHandle::new(ContextAwareFramework::train(
        &rows,
        dnacomp::ml::TreeMethod::Cart,
    ));
    let service = CompressionService::start(
        framework,
        ServiceConfig {
            workers: 1,
            block_size: None,
            store: Some(Arc::clone(&store)),
            ..ServiceConfig::default()
        },
    );
    let seq = GenomeModel::default().generate(MAX_PREALLOC_BASES + 1, 41);
    let req = CompressRequest::new(
        "oversize",
        seq.clone(),
        Context::new(&dnacomp::cloud::context_grid()[0], seq.len() as u64),
    );
    let resp = service.submit(req).unwrap().wait().expect("oversize job");
    assert_eq!(resp.algorithm, Algorithm::Raw);
    assert_eq!(resp.blocks, 2, "framed in blocks of MAX_PREALLOC_BASES");
    let outcome = resp.persisted.expect("persisted");
    let blob = store.get(&outcome.key).unwrap();
    assert!(blob.is_framed());
    assert_eq!(blob.total_bytes(), resp.compressed_bytes);
    assert_eq!(
        compressor_for(blob.algorithm).decompress(&blob).unwrap(),
        seq
    );
    service.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Exchange-mode jobs persist too: the container the exchange uploaded
/// and verified is the one the store keeps.
#[test]
fn exchange_jobs_land_in_the_store() {
    let dir = tmp_dir("exchange");
    let store = Arc::new(SequenceStore::open(&dir, StoreConfig::default()).unwrap());
    let service = CompressionService::start(
        synthetic_framework(7),
        ServiceConfig {
            workers: 2,
            store: Some(Arc::clone(&store)),
            ..ServiceConfig::default()
        },
    );
    let seq = GenomeModel::default().generate(3_000, 5);
    let mut req = CompressRequest::new(
        "exchange_0",
        seq.clone(),
        Context::new(&dnacomp::cloud::context_grid()[0], seq.len() as u64),
    );
    req.exchange = true;
    let resp = service.submit(req).unwrap().wait().expect("exchange job");
    let outcome = resp.persisted.expect("persisted");
    assert!(!outcome.deduped);
    let blob = store.get(&outcome.key).unwrap();
    assert_eq!(blob.algorithm, resp.algorithm);
    assert_eq!(blob.total_bytes(), resp.compressed_bytes);
    assert_eq!(
        compressor_for(blob.algorithm).decompress(&blob).unwrap(),
        seq
    );
    service.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Deliberate on-disk corruption: `verify` names the damaged record,
/// `get` refuses to serve it, and undamaged records are unaffected.
#[test]
fn verify_detects_deliberate_corruption() {
    let dir = tmp_dir("corrupt");
    let jobs = workload(6);
    let keys: Vec<ContentKey> = {
        let store = SequenceStore::open(&dir, config()).unwrap();
        jobs.iter()
            .map(|(seq, blob)| store.put(seq, blob).unwrap().key)
            .collect()
    };
    // Flip one byte in the middle of the first segment.
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("at least one segment");
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&seg, &bytes).unwrap();

    let store = SequenceStore::open(&dir, config()).unwrap();
    let report = store.verify();
    assert_eq!(report.checked, jobs.len() as u64);
    assert!(!report.is_clean());
    assert!(store.snapshot().scrub_failures >= 1);
    let bad: Vec<ContentKey> = report.failures.iter().map(|f| f.key).collect();
    for (i, key) in keys.iter().enumerate() {
        if bad.contains(key) {
            assert!(
                matches!(store.get(key), Err(StoreError::Corrupt { .. })),
                "corrupt record must not be served"
            );
        } else {
            assert_eq!(store.get(key).unwrap(), jobs[i].1);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Duplicate puts across reopens still dedupe: the content key is a
/// pure function of the sequence, not of the store instance.
#[test]
fn dedup_survives_reopen() {
    let dir = tmp_dir("dedup-reopen");
    let seq = GenomeModel::default().generate(1_500, 9);
    let blob = compressor_for(Algorithm::Dnax).compress(&seq).unwrap();
    {
        let store = SequenceStore::open(&dir, config()).unwrap();
        assert!(!store.put(&seq, &blob).unwrap().deduped);
    }
    let store = SequenceStore::open(&dir, config()).unwrap();
    let out = store.put(&seq, &blob).unwrap();
    assert!(out.deduped);
    assert_eq!(store.len(), 1);
    assert_eq!(store.snapshot().dedup_hits, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
