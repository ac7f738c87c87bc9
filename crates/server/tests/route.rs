//! Integration tests for the shard router: transparent forwarding
//! (byte-identical gets via the router vs direct), epoch-checked
//! handshakes, over-the-wire rebalance after membership changes
//! (cursor-resumable), read-repair, and the 3-shard chaos soaks with
//! mid-run shard kills.
//!
//! The acceptance bar: with fault-injected clients AND one shard
//! killed and restarted mid-soak, every request gets exactly one typed
//! reply (or a clean transport break — never a hang), no acknowledged
//! compress is ever lost (every acked key stays readable through the
//! router), the prober ejects and re-admits the dead shard, and at
//! fault rate zero the accounting is exact. Under replication the bar
//! rises: with one shard killed and LEFT DOWN, every quorum-acked Put
//! stays readable byte-identical, and after revival hinted handoff
//! plus anti-entropy converge the shard back to zero digest drift with
//! exact counter accounting.

use dnacomp_algos::{compressor_for, Algorithm, CompressedBlob};
use dnacomp_cloud::FaultPlan;
use dnacomp_core::{Context, Deadline};
use dnacomp_seq::gen::GenomeModel;
use dnacomp_seq::PackedSeq;
use dnacomp_server::{
    rebalance_resumable, synthetic_framework, ClientError, CompressionService, ConnConfig,
    ErrorCode, FaultyStream, NetClient, NetConfig, NetServer, Priority, RebalanceCursor, Response,
    Ring, RouterConfig, RouterServer, ServiceConfig, ShardSpec, IO_TICK,
};
use dnacomp_store::{ContentKey, SequenceStore, StoreConfig};
use std::io::{Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Acknowledged writes: each content key with the sequence it must read
/// back as.
type AckedPuts = Vec<([u8; 16], PackedSeq)>;

/// One running shard: its service, front-end, store and ring spec.
struct Shard {
    service: Arc<CompressionService>,
    server: Option<NetServer>,
    store: Arc<SequenceStore>,
    spec: ShardSpec,
    dir: std::path::PathBuf,
}

impl Shard {
    /// Start shard `id` on an ephemeral loopback port with its own
    /// store, all shards sharing the deterministic framework.
    fn start(id: u32, tag: &str) -> Shard {
        Shard::start_framed(id, tag, None)
    }

    /// [`Shard::start`] with a block-parallel threshold: a put longer
    /// than `block_size` bases is stored as a framed container.
    fn start_framed(id: u32, tag: &str, block_size: Option<usize>) -> Shard {
        let dir = std::env::temp_dir().join(format!(
            "dnacomp-route-{tag}-s{id}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(SequenceStore::open(&dir, StoreConfig::default()).expect("open"));
        let service = Arc::new(CompressionService::start(
            synthetic_framework(42),
            ServiceConfig {
                workers: 2,
                block_size,
                store: Some(Arc::clone(&store)),
                ..ServiceConfig::default()
            },
        ));
        let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", net_for(&store))
            .expect("bind shard");
        let spec = ShardSpec {
            id,
            addr: server.local_addr().to_string(),
        };
        Shard {
            service,
            server: Some(server),
            store,
            spec,
            dir,
        }
    }

    /// Kill the TCP front-end (the service and store survive, like a
    /// crashed-and-supervised process).
    fn kill(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    /// Restart the front-end on the same address.
    fn restart(&mut self) {
        assert!(self.server.is_none(), "restart of a live shard");
        let server = NetServer::start(
            Arc::clone(&self.service),
            self.spec.addr.as_str(),
            net_for(&self.store),
        )
        .expect("rebind shard on its old address");
        assert_eq!(server.local_addr().to_string(), self.spec.addr);
        self.server = Some(server);
    }

    fn teardown(mut self) {
        self.kill();
        let service = Arc::try_unwrap(self.service)
            .map_err(|_| "handler clones alive")
            .unwrap();
        service.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Shard-side net config: test-tight budgets, store wired in.
fn net_for(store: &Arc<SequenceStore>) -> NetConfig {
    NetConfig {
        store: Some(Arc::clone(store)),
        conn: ConnConfig {
            idle_timeout: Duration::from_secs(5),
            frame_timeout: Duration::from_millis(500),
            ..ConnConfig::default()
        },
        ..NetConfig::default()
    }
}

/// Test-grade router config: fast probes so ejection happens within a
/// soak, modest pools so the budget is exercised.
fn quick_router() -> RouterConfig {
    RouterConfig {
        pool_per_shard: 2,
        shard_timeout: Duration::from_secs(5),
        probe_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(500),
        probe_strikes: 2,
        ..RouterConfig::default()
    }
}

fn start_cluster(n: u32, tag: &str) -> (Vec<Shard>, RouterServer) {
    let shards: Vec<Shard> = (1..=n).map(|id| Shard::start(id, tag)).collect();
    let ring = Ring::new(shards.iter().map(|s| s.spec.clone()).collect(), 64, 7).unwrap();
    let router = RouterServer::start("127.0.0.1:0", ring, quick_router()).expect("bind router");
    (shards, router)
}

fn ctx_for(seq: &PackedSeq) -> Context {
    Context {
        ram_mb: 2048,
        cpu_mhz: 2393,
        bandwidth_mbps: 2.0,
        file_bytes: seq.len() as u64,
    }
}

/// Connected, plain-handshaken client.
fn connect(addr: SocketAddr) -> NetClient<TcpStream> {
    NetClient::connect(addr, Duration::from_secs(10)).expect("connect")
}

/// Connected client with NO handshake yet, for epoch-handshake tests.
fn raw_client(addr: SocketAddr) -> NetClient<TcpStream> {
    let tcp = TcpStream::connect(addr).expect("connect");
    tcp.set_read_timeout(Some(IO_TICK)).unwrap();
    tcp.set_write_timeout(Some(IO_TICK)).unwrap();
    tcp.set_nodelay(true).unwrap();
    NetClient::over(tcp, Duration::from_secs(5))
}

// ---------------------------------------------------------------------------
// Transparent forwarding: the router is invisible to a correct client
// ---------------------------------------------------------------------------

#[test]
fn gets_via_router_are_byte_identical_to_direct_shard_gets() {
    let (shards, router) = start_cluster(3, "ident");
    let ring = Ring::new(shards.iter().map(|s| s.spec.clone()).collect(), 64, 7).unwrap();

    let mut client = connect(router.local_addr());

    // Compress a batch through the router; remember every acked key.
    let mut acked: AckedPuts = Vec::new();
    for i in 0..12usize {
        let seq = GenomeModel::random_only(0.5).generate(1_200 + i * 311, i as u64);
        match client
            .compress(&format!("ident-{i}.fa"), &seq, Priority::Normal, ctx_for(&seq))
            .expect("compress via router")
        {
            Response::CompressOk { key: Some(key), .. } => acked.push((key, seq)),
            other => panic!("expected stored CompressOk, got {other:?}"),
        }
    }

    // Every key: the router's get must be byte-identical to a direct
    // get from the owning shard, and must decompress to the original.
    for (key, seq) in &acked {
        let via_router = client.get(*key).expect("get via router");
        let owner = ring.shard_for(key);
        let mut direct = connect(owner.addr.parse().unwrap());
        let via_shard = direct.get(*key).expect("get direct");
        direct.bye().unwrap();
        assert_eq!(via_router, via_shard, "router altered bytes for {key:02x?}");
        let blob = CompressedBlob::from_bytes(&via_router).expect("served blob parses");
        let back = compressor_for(blob.algorithm)
            .decompress(&blob)
            .expect("decompress");
        assert_eq!(&back, seq, "round-trip mismatch for {key:02x?}");
    }

    // The keys really are spread: with 12 keys over 3 shards, at least
    // two shards hold something.
    let populated = shards.iter().filter(|s| !s.store.keys().is_empty()).count();
    assert!(populated >= 2, "all keys landed on one shard");

    // Cluster stat aggregates the shard stores field-wise.
    let stat = client.stat(None).expect("cluster stat");
    let total: u64 = shards.iter().map(|s| s.store.keys().len() as u64).sum();
    assert!(
        stat.contains(&format!("\"records\":{total}")),
        "aggregated stat {stat} does not report {total} records"
    );
    assert!(stat.contains("\"shards_reporting\":3"), "stat {stat}");
    let failures: u64 = shards
        .iter()
        .map(|s| s.store.snapshot().maintenance_failures)
        .sum();
    assert!(
        stat.contains(&format!("\"maintenance_failures\":{failures}")),
        "aggregated stat {stat} does not report {failures} maintenance failures"
    );

    client.bye().unwrap();
    let snap = router.shutdown();
    assert_eq!(snap.protocol_errors, 0);
    assert_eq!(snap.shard_ejections, 0);
    assert!(snap.route_forwards >= 24, "forwards {}", snap.route_forwards);
    assert_eq!(snap.frames_rx, snap.frames_tx);
    for s in shards {
        s.teardown();
    }
}

// ---------------------------------------------------------------------------
// Epoch discipline: stale ring maps are refused at handshake
// ---------------------------------------------------------------------------

#[test]
fn stale_epochs_and_wrong_shard_ids_are_refused_at_handshake() {
    let (shards, router) = start_cluster(2, "epoch");
    let epoch = router.epoch();

    // The ring's true epoch handshakes fine (shard 0 = "a router").
    let mut ok = raw_client(router.local_addr());
    ok.handshake_epoch(epoch, 0).expect("current epoch accepted");
    ok.ping().expect("epoch-handshaken connection serves");
    ok.bye().unwrap();

    // A stale epoch is refused with the typed wrong-shard code.
    let mut stale = raw_client(router.local_addr());
    match stale.handshake_epoch(epoch ^ 0xDEAD_BEEF, 0) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::WrongShard),
        other => panic!("stale epoch not refused: {other:?}"),
    }

    // Addressing the router as if it were a numbered shard is refused.
    let mut misaddressed = raw_client(router.local_addr());
    match misaddressed.handshake_epoch(epoch, 7) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::WrongShard),
        other => panic!("lying shard id not refused: {other:?}"),
    }

    // A shard pinned to an epoch refuses any other epoch the same way.
    let pinned_dir = std::env::temp_dir().join(format!(
        "dnacomp-route-pinned-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&pinned_dir);
    let pinned_store =
        Arc::new(SequenceStore::open(&pinned_dir, StoreConfig::default()).unwrap());
    let pinned_service = Arc::new(CompressionService::start(
        synthetic_framework(42),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    ));
    let pinned = NetServer::start(
        Arc::clone(&pinned_service),
        "127.0.0.1:0",
        NetConfig {
            epoch: Some(epoch),
            shard_id: 9,
            store: Some(pinned_store),
            ..NetConfig::default()
        },
    )
    .expect("bind pinned shard");
    let mut good = raw_client(pinned.local_addr());
    good.handshake_epoch(epoch, 9)
        .expect("matching epoch + id accepted");
    good.bye().unwrap();
    let mut bad = raw_client(pinned.local_addr());
    match bad.handshake_epoch(epoch + 1, 9) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::WrongShard),
        other => panic!("pinned shard accepted a stale epoch: {other:?}"),
    }
    pinned.shutdown();
    Arc::try_unwrap(pinned_service)
        .map_err(|_| "clones alive")
        .unwrap()
        .shutdown();
    let _ = std::fs::remove_dir_all(&pinned_dir);

    router.shutdown();
    for s in shards {
        s.teardown();
    }
}

// ---------------------------------------------------------------------------
// Rebalance: every key ends on its ring owner, byte-identical, none lost
// ---------------------------------------------------------------------------

#[test]
fn rebalance_moves_every_key_to_its_ring_owner_byte_identical() {
    let shards: Vec<Shard> = (1..=3).map(|id| Shard::start(id, "rebal")).collect();
    let ring = Ring::new(shards.iter().map(|s| s.spec.clone()).collect(), 64, 7).unwrap();

    // Seed records deliberately ignoring ownership: everything lands on
    // shard 0's store, as if the cluster grew from one node.
    let mut originals = Vec::new();
    for i in 0..16usize {
        let seq = GenomeModel::random_only(0.5).generate(900 + i * 211, 77 + i as u64);
        let blob = compressor_for(Algorithm::Gzip).compress(&seq).unwrap();
        let key = ContentKey::of_sequence(&seq);
        shards[0].store.put_with_key(key, &blob).unwrap();
        originals.push((key, blob.to_bytes()));
    }

    let report = dnacomp_server::rebalance(&ring, 1, Duration::from_secs(10), 5).unwrap();
    let misplaced = originals
        .iter()
        .filter(|(k, _)| ring.slot_for(&k.0) != 0)
        .count() as u64;
    assert!(misplaced > 0, "degenerate ring: nothing to move");
    assert_eq!(report.moved + report.deduped, misplaced);
    assert_eq!(report.removed, misplaced);
    assert!(report.bytes > 0);
    // The sweep visits shards in order, so records migrated to a
    // later-visited shard are enumerated twice: once misplaced, once
    // already home.
    assert_eq!(report.scanned, 16 + misplaced);

    // Every record is on exactly its owner, byte-identical; none lost.
    for (key, bytes) in &originals {
        let owner = ring.slot_for(&key.0);
        for (slot, shard) in shards.iter().enumerate() {
            let held = shard.store.get(key);
            if slot == owner {
                assert_eq!(
                    held.expect("owner holds the record").to_bytes(),
                    *bytes,
                    "rebalance altered bytes for {key:?}"
                );
            } else {
                assert!(held.is_err(), "stale copy of {key:?} on slot {slot}");
            }
        }
    }

    // A second sweep is a no-op: the cluster converged.
    let again = dnacomp_server::rebalance(&ring, 1, Duration::from_secs(10), 5).unwrap();
    assert_eq!(again.moved, 0);
    assert_eq!(again.removed, 0);
    assert_eq!(again.scanned, 16);

    for s in shards {
        s.teardown();
    }
}

// ---------------------------------------------------------------------------
// Resumable rebalance: a persisted cursor skips finished work exactly
// ---------------------------------------------------------------------------

fn hex(key: &[u8; 16]) -> String {
    key.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn rebalance_resumes_from_a_persisted_cursor_with_exact_accounting() {
    let shards: Vec<Shard> = (1..=3).map(|id| Shard::start(id, "cursor")).collect();
    let ring = Ring::new(shards.iter().map(|s| s.spec.clone()).collect(), 64, 7).unwrap();
    let cursor_path = std::env::temp_dir().join(format!(
        "dnacomp-route-cursor-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cursor_path);

    // Everything lands on shard 0, as if the cluster grew from one node.
    for i in 0..16usize {
        let seq = GenomeModel::random_only(0.5).generate(900 + i * 211, 177 + i as u64);
        let blob = compressor_for(Algorithm::Gzip).compress(&seq).unwrap();
        shards[0]
            .store
            .put_with_key(ContentKey::of_sequence(&seq), &blob)
            .unwrap();
    }
    let mut keys0: Vec<[u8; 16]> = shards[0].store.keys().iter().map(|k| k.0).collect();
    keys0.sort_unstable();
    let cut = keys0[7];

    // A crash left a cursor saying: slot 0 is done through `cut`.
    let cursor = RebalanceCursor {
        epoch: ring.epoch(),
        next_slot: 0,
        last_key: Some(hex(&cut)),
    };
    std::fs::write(&cursor_path, serde_json::to_string(&cursor).unwrap()).unwrap();

    let resumed =
        rebalance_resumable(&ring, 1, Duration::from_secs(10), 5, Some(&cursor_path)).unwrap();
    // Exactly the 8 keys at or before the cursor were skipped; the 8
    // processed ones are scanned once on slot 0 plus once more on any
    // destination slot they were shipped to.
    assert_eq!(resumed.skipped, 8);
    assert_eq!(resumed.scanned, 8 + resumed.moved + resumed.deduped);
    assert!(
        !cursor_path.exists(),
        "cursor must be removed on completion"
    );
    // The skipped misplaced keys were really left alone.
    let left_behind: Vec<[u8; 16]> = keys0[..8]
        .iter()
        .copied()
        .filter(|k| ring.slot_for(k) != 0)
        .collect();
    assert!(!left_behind.is_empty(), "degenerate ring: nothing skipped was misplaced");
    for key in &left_behind {
        shards[0]
            .store
            .get(&ContentKey(*key))
            .expect("cursor-skipped key must still be on the source shard");
    }

    // A cursor from another epoch is ignored: the full sweep runs and
    // converges the stragglers.
    let stale = RebalanceCursor {
        epoch: ring.epoch() ^ 0xBAD,
        next_slot: ring.shards().len(),
        last_key: None,
    };
    std::fs::write(&cursor_path, serde_json::to_string(&stale).unwrap()).unwrap();
    let full =
        rebalance_resumable(&ring, 1, Duration::from_secs(10), 5, Some(&cursor_path)).unwrap();
    assert_eq!(full.skipped, 0, "stale-epoch cursor must be ignored");
    assert_eq!(full.moved + full.deduped, left_behind.len() as u64);
    assert!(!cursor_path.exists());

    // Converged: every key sits on exactly its owner.
    for key in &keys0 {
        let owner = ring.slot_for(key);
        for (slot, shard) in shards.iter().enumerate() {
            let held = shard.store.get(&ContentKey(*key));
            if slot == owner {
                held.expect("owner holds the record");
            } else {
                assert!(held.is_err(), "stale copy of {key:02x?} on slot {slot}");
            }
        }
    }

    for s in shards {
        s.teardown();
    }
}

// ---------------------------------------------------------------------------
// Read-repair: a divergent replica is healed by the next read through it
// ---------------------------------------------------------------------------

#[test]
fn read_repair_restores_a_divergent_replica() {
    // 512-base blocks: the 2,048-base put is stored framed, so the
    // repair ships a framed container.
    let shards: Vec<Shard> = (1..=3)
        .map(|id| Shard::start_framed(id, "readrep", Some(512)))
        .collect();
    let ring = Ring::new(shards.iter().map(|s| s.spec.clone()).collect(), 64, 7).unwrap();
    let router =
        RouterServer::start("127.0.0.1:0", ring.clone(), quick_router()).expect("bind router");

    let mut client = connect(router.local_addr());
    let seq = GenomeModel::random_only(0.5).generate(2_048, 99);
    let key = match client
        .compress("readrep.fa", &seq, Priority::Normal, ctx_for(&seq))
        .expect("compress via router")
    {
        Response::CompressOk {
            key: Some(key),
            blocks,
            ..
        } => {
            assert_eq!(blocks, 4, "the put must be framed");
            key
        }
        other => panic!("expected stored CompressOk, got {other:?}"),
    };

    // R = 3 over 3 shards: every store holds the record.
    for shard in &shards {
        shard.store.get(&ContentKey(key)).expect("replica holds the record");
    }

    // Diverge the owner (bit-rot, botched restore, …): drop its copy.
    let owner = ring.replica_slots(&key, 3)[0];
    assert!(shards[owner].store.remove(&ContentKey(key)).unwrap());

    // A read through the router falls through to the next replica and
    // synchronously repairs the stale one before replying.
    let bytes = client.get(key).expect("get via router with a divergent owner");
    let blob = CompressedBlob::from_bytes(&bytes).expect("served blob parses");
    assert!(blob.is_framed(), "the served container is the stored frame");
    let back = compressor_for(blob.algorithm).decompress(&blob).expect("decompress");
    assert_eq!(back, seq, "read-repair path altered bytes");
    assert_eq!(
        shards[owner]
            .store
            .get(&ContentKey(key))
            .expect("owner re-converged by read-repair")
            .to_bytes(),
        bytes,
        "repaired copy differs from the served one"
    );

    client.bye().unwrap();
    let snap = router.shutdown();
    assert_eq!(snap.read_repairs, 1, "exactly one read-repair must be recorded");
    assert_eq!(snap.quorum_failures, 0);
    for s in shards {
        s.teardown();
    }
}

/// A get through the router must fall through a replica whose store
/// refuses the record (one byte of it flipped on disk) to a good copy,
/// without counting a read-repair: a ship to that replica would dedup
/// on its key index and leave the damaged record in place.
#[test]
fn a_get_falls_through_a_replica_whose_store_refuses_a_damaged_record() {
    let (shards, router) = start_cluster(3, "damaged");
    let ring = Ring::new(shards.iter().map(|s| s.spec.clone()).collect(), 64, 7).unwrap();
    let mut client = connect(router.local_addr());
    let seq = GenomeModel::random_only(0.5).generate(3_000, 808);
    let key = put(&mut client, "damaged.fa", &seq);

    // Flip one byte of the owner's record where it sits on disk.
    let owner = ring.replica_slots(&key, 3)[0];
    let stored = shards[owner]
        .store
        .get(&ContentKey(key))
        .unwrap()
        .to_bytes();
    let mut flipped = 0;
    for entry in std::fs::read_dir(&shards[owner].dir).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap_or_default();
        if let Some(at) = bytes.windows(stored.len()).position(|w| w == stored) {
            let at = (at + stored.len() / 2) as u64;
            let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            file.seek(SeekFrom::Start(at)).unwrap();
            file.write_all(&[bytes[at as usize] ^ 0x01]).unwrap();
            flipped += 1;
        }
    }
    assert_eq!(flipped, 1, "the owner's record sits in one file");
    assert!(
        shards[owner].store.get(&ContentKey(key)).is_err(),
        "the owner's store must refuse the damaged record"
    );

    let bytes = client
        .get(key)
        .expect("a get through the router falls through to a good copy");
    let blob = CompressedBlob::from_bytes(&bytes).expect("served blob parses");
    let back = compressor_for(blob.algorithm)
        .decompress(&blob)
        .expect("decompress");
    assert_eq!(back, seq, "the served copy must decode to the input");

    client.bye().unwrap();
    let snap = router.shutdown();
    assert_eq!(
        snap.read_repairs, 0,
        "a refused record is not a read-repair"
    );
    for s in shards {
        s.teardown();
    }
}

// ---------------------------------------------------------------------------
// The write path: a replicated put is compressed once, on its holder
// ---------------------------------------------------------------------------

/// Put `seq` through the router and return its content key.
fn put(client: &mut NetClient<TcpStream>, file: &str, seq: &PackedSeq) -> [u8; 16] {
    match client
        .compress(file, seq, Priority::Normal, ctx_for(seq))
        .expect("compress via router")
    {
        Response::CompressOk { key: Some(key), .. } => key,
        other => panic!("expected stored CompressOk, got {other:?}"),
    }
}

/// Jobs a shard's service completed: the puts it compressed itself.
fn jobs(shard: &Shard) -> u64 {
    shard.service.metrics().snapshot().completed
}

#[test]
fn a_replicated_put_is_compressed_once_and_every_replica_stores_its_container() {
    const N: usize = 8;
    let (shards, router) = start_cluster(3, "once");
    let mut client = connect(router.local_addr());
    let keys: Vec<[u8; 16]> = (0..N)
        .map(|i| {
            let seq = GenomeModel::random_only(0.5).generate(1_000 + i * 257, 300 + i as u64);
            put(&mut client, &format!("once-{i}.fa"), &seq)
        })
        .collect();
    client.bye().unwrap();

    let compressed: u64 = shards.iter().map(jobs).sum();
    assert_eq!(compressed, N as u64, "each put must be compressed once");
    for key in &keys {
        let copies: Vec<Vec<u8>> = shards
            .iter()
            .map(|s| {
                s.store
                    .get(&ContentKey(*key))
                    .expect("every replica holds the record")
                    .to_bytes()
            })
            .collect();
        assert!(
            copies.iter().all(|c| *c == copies[0]),
            "replicas of {key:02x?} hold different bytes"
        );
    }

    let snap = router.shutdown();
    assert_eq!(snap.replica_writes, 3 * N as u64);
    assert_eq!(snap.route_forwards, 3 * N as u64, "one send per replica");
    assert_eq!(snap.quorum_failures, 0);
    for s in shards {
        s.teardown();
    }
}

/// At R=1 no replica takes the container and no hint is queued, so a
/// put costs its shard one frame, the compress, and no `Get`.
#[test]
fn an_unreplicated_put_fetches_no_container() {
    const N: usize = 6;
    let shard = Shard::start(1, "r1-nofetch");
    let ring = Ring::new(vec![shard.spec.clone()], 64, 7).unwrap();
    let router = RouterServer::start(
        "127.0.0.1:0",
        ring,
        RouterConfig {
            replicas: 1,
            write_quorum: 1,
            ..quick_router()
        },
    )
    .expect("bind router");
    let mut client = connect(router.local_addr());
    let acked: AckedPuts = (0..N)
        .map(|i| {
            let seq = GenomeModel::random_only(0.5).generate(1_000 + i * 257, 500 + i as u64);
            (put(&mut client, &format!("r1-{i}.fa"), &seq), seq)
        })
        .collect();
    let frames = router.metrics_snapshot().shards[0].frames_tx;
    assert_eq!(frames, N as u64, "one frame per put, no container fetch");

    // A routed Get still serves every container.
    for (key, seq) in &acked {
        let blob = CompressedBlob::from_bytes(&client.get(*key).expect("get via router"))
            .expect("served blob parses");
        let back = compressor_for(blob.algorithm)
            .decompress(&blob)
            .expect("decompress");
        assert_eq!(&back, seq, "round-trip mismatch for {key:02x?}");
    }
    client.bye().unwrap();
    let snap = router.shutdown();
    assert_eq!(snap.route_forwards, 2 * N as u64, "N puts, N gets");
    assert_eq!(snap.quorum_failures, 0);
    shard.teardown();
}

#[test]
fn a_put_whose_owner_is_down_compresses_on_the_next_replica_and_hints_the_owner() {
    let hint_dir = std::env::temp_dir().join(format!(
        "dnacomp-route-owner-down-hints-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&hint_dir);
    let mut shards: Vec<Shard> = (1..=3).map(|id| Shard::start(id, "owner-down")).collect();
    let ring = Ring::new(shards.iter().map(|s| s.spec.clone()).collect(), 64, 7).unwrap();
    let router = RouterServer::start(
        "127.0.0.1:0",
        ring.clone(),
        RouterConfig {
            hint_dir: Some(hint_dir.clone()),
            ..quick_router() // replicas 3, write quorum 2
        },
    )
    .expect("bind router");

    let seq = GenomeModel::random_only(0.5).generate(3_000, 4_242);
    let key = ContentKey::of_sequence(&seq);
    let set = ring.replica_slots(&key.0, 3);
    shards[set[0]].kill();
    let mut client = connect(router.local_addr());
    assert_eq!(put(&mut client, "owner-down.fa", &seq), key.0);
    client.bye().unwrap();

    assert_eq!(jobs(&shards[set[0]]), 0, "the owner was down");
    assert_eq!(jobs(&shards[set[1]]), 1, "the next replica compresses");
    assert_eq!(
        jobs(&shards[set[2]]),
        0,
        "the last replica takes the container"
    );
    let held = shards[set[1]].store.get(&key).unwrap().to_bytes();
    assert_eq!(shards[set[2]].store.get(&key).unwrap().to_bytes(), held);

    let snap = router.shutdown();
    assert_eq!(snap.replica_writes, 2, "acked at W = 2");
    assert_eq!(snap.quorum_failures, 0);
    assert_eq!(snap.hints_queued, 1, "one hint is owed to the owner");
    assert_eq!(snap.hints_pending, 1);
    assert_eq!(snap.hints_dropped, 0);
    let _ = std::fs::remove_dir_all(&hint_dir);
    for s in shards {
        s.teardown();
    }
}

#[test]
fn storeless_replicas_take_the_sequence_fan_out() {
    const N: usize = 6;
    let services: Vec<Arc<CompressionService>> = (0..3)
        .map(|_| {
            Arc::new(CompressionService::start(
                synthetic_framework(42),
                ServiceConfig {
                    workers: 1,
                    ..ServiceConfig::default()
                },
            ))
        })
        .collect();
    let servers: Vec<NetServer> = services
        .iter()
        .map(|s| NetServer::start(Arc::clone(s), "127.0.0.1:0", NetConfig::default()).unwrap())
        .collect();
    let specs = servers
        .iter()
        .zip(1..)
        .map(|(server, id)| ShardSpec {
            id,
            addr: server.local_addr().to_string(),
        })
        .collect();
    let ring = Ring::new(specs, 64, 7).unwrap();
    let router = RouterServer::start("127.0.0.1:0", ring, quick_router()).expect("bind router");

    // No store, so no container to ship: every replica compresses.
    let mut client = connect(router.local_addr());
    for i in 0..N {
        let seq = GenomeModel::random_only(0.5).generate(900 + i * 301, 600 + i as u64);
        match client
            .compress(
                &format!("storeless-{i}.fa"),
                &seq,
                Priority::Normal,
                ctx_for(&seq),
            )
            .expect("compress via router")
        {
            Response::CompressOk { key: None, .. } => {}
            other => panic!("expected an unstored CompressOk, got {other:?}"),
        }
    }
    client.bye().unwrap();

    let snap = router.shutdown();
    assert_eq!(snap.replica_writes, 3 * N as u64);
    assert_eq!(snap.quorum_failures, 0);
    for server in servers {
        server.shutdown();
    }
    for service in services {
        let service = Arc::try_unwrap(service)
            .map_err(|_| "clones alive")
            .unwrap();
        assert_eq!(
            service.shutdown().completed,
            N as u64,
            "each replica compressed"
        );
    }
}

#[test]
fn a_non_canonical_holder_container_is_never_shipped() {
    let (shards, router) = start_cluster(3, "noncanon");
    let ring = Ring::new(shards.iter().map(|s| s.spec.clone()).collect(), 64, 7).unwrap();
    let seq = GenomeModel::random_only(0.5).generate(2_000, 515);
    let other = GenomeModel::random_only(0.5).generate(2_000, 516);
    let key = ContentKey::of_sequence(&seq);
    let set = ring.replica_slots(&key.0, 3);
    // The owner already holds another sequence's container under the key.
    let wrong = compressor_for(Algorithm::Gzip).compress(&other).unwrap();
    shards[set[0]].store.put_with_key(key, &wrong).unwrap();

    let mut client = connect(router.local_addr());
    assert_eq!(put(&mut client, "noncanon.fa", &seq), key.0);
    client.bye().unwrap();

    for &slot in &set[1..] {
        let blob = shards[slot]
            .store
            .get(&key)
            .expect("replica holds the record");
        let back = compressor_for(blob.algorithm)
            .decompress(&blob)
            .expect("decompress");
        assert_eq!(
            back, seq,
            "slot {slot} holds a container of another sequence"
        );
        assert_eq!(
            jobs(&shards[slot]),
            1,
            "slot {slot} compressed the sequence itself"
        );
    }
    let snap = router.shutdown();
    assert_eq!(snap.replica_writes, 3);
    assert_eq!(snap.quorum_failures, 0);
    for s in shards {
        s.teardown();
    }
}

// ---------------------------------------------------------------------------
// The replicated chaos soak: one shard killed and LEFT DOWN — every
// quorum-acked Put stays readable; hint drain + anti-entropy converge
// the revived shard with exact counter accounting
// ---------------------------------------------------------------------------

#[test]
fn quorum_acked_puts_survive_one_shard_down_and_self_heal() {
    const CLIENTS: usize = 4;
    const OPS: usize = 16;
    let hint_dir = std::env::temp_dir().join(format!(
        "dnacomp-route-heal-hints-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&hint_dir);

    // 1 Ki-base blocks: most puts (700–2,872 bases) are stored framed,
    // so hints and repair ship framed containers; the rest stay flat.
    let mut shards: Vec<Shard> = (1..=3)
        .map(|id| Shard::start_framed(id, "heal", Some(1_024)))
        .collect();
    let ring = Ring::new(shards.iter().map(|s| s.spec.clone()).collect(), 64, 7).unwrap();
    let router = RouterServer::start(
        "127.0.0.1:0",
        ring.clone(),
        RouterConfig {
            hint_dir: Some(hint_dir.clone()),
            hint_cap: 256,
            ..quick_router() // replicas 3, write quorum 2 (the defaults)
        },
    )
    .expect("bind router");
    let addr = router.local_addr();

    // Writers: every op MUST be acked — with W=2 and two shards always
    // healthy, a dead third replica never blocks the quorum.
    let acked: Arc<Mutex<AckedPuts>> = Arc::new(Mutex::new(Vec::new()));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let acked = Arc::clone(&acked);
            std::thread::spawn(move || {
                let mut client = connect(addr);
                for op in 0..OPS {
                    let seq = GenomeModel::random_only(0.5)
                        .generate(700 + i * 89 + op * 127, (i * OPS + op) as u64);
                    match client.compress(
                        &format!("heal-{i}-{op}.fa"),
                        &seq,
                        Priority::Normal,
                        ctx_for(&seq),
                    ) {
                        Ok(Response::CompressOk { key: Some(key), .. }) => {
                            acked.lock().unwrap().push((key, seq));
                        }
                        other => panic!(
                            "writer {i} op {op}: quorum write must ack, got {other:?}"
                        ),
                    }
                    std::thread::sleep(Duration::from_millis(8));
                }
                client.bye().unwrap();
            })
        })
        .collect();

    // Mid-soak: kill one shard and LEAVE IT DOWN.
    std::thread::sleep(Duration::from_millis(100));
    let victim = 1usize;
    shards[victim].kill();

    for t in threads {
        t.join().expect("no writer may panic");
    }
    let acked = Arc::try_unwrap(acked).unwrap().into_inner().unwrap();
    assert_eq!(acked.len(), CLIENTS * OPS, "every write must be quorum-acked");

    // Wait for the prober to eject the dead shard, then read back with
    // the shard still down: 100% of acked keys, byte-exact round-trip.
    let deadline = Deadline::after(Duration::from_secs(10));
    while router.metrics_snapshot().shards.iter().all(|s| s.healthy) {
        assert!(!deadline.expired(), "dead shard never ejected");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut reader = connect(addr);
    let mut served = std::collections::HashMap::new();
    for (key, seq) in &acked {
        let bytes = reader
            .get(*key)
            .unwrap_or_else(|e| panic!("acked key {key:02x?} unreadable with shard down: {e}"));
        let blob = CompressedBlob::from_bytes(&bytes).expect("acked blob parses");
        let back = compressor_for(blob.algorithm).decompress(&blob).expect("decompress");
        assert_eq!(&back, seq, "round-trip mismatch for {key:02x?} with shard down");
        served.insert(*key, (blob.is_framed(), bytes));
    }
    reader.bye().unwrap();
    let framed = served.values().filter(|(framed, _)| *framed).count();
    assert!(framed >= 5 && framed < acked.len(), "{framed} framed puts of {}", acked.len());

    // Hint accounting while the shard is still down: whatever was
    // queued is still pending — nothing drained, nothing dropped.
    let mid = router.metrics_snapshot();
    assert_eq!(mid.quorum_failures, 0, "a quorum ack may never lie");
    assert!(mid.hints_queued > 0, "misses on the dead replica must be hinted");
    assert_eq!(mid.hints_drained, 0);
    assert_eq!(mid.hints_dropped, 0);
    assert_eq!(mid.hints_pending, mid.hints_queued);
    assert!(
        mid.replica_writes >= 2 * acked.len() as u64
            && mid.replica_writes <= 3 * acked.len() as u64,
        "replica commits {} out of range for {} acked writes",
        mid.replica_writes,
        acked.len()
    );

    // Revive the shard: the prober re-admits it and drains every hint.
    shards[victim].restart();
    let deadline = Deadline::after(Duration::from_secs(15));
    loop {
        let snap = router.metrics_snapshot();
        if snap.shards.iter().all(|s| s.healthy) && snap.hints_pending == 0 {
            assert_eq!(snap.hints_drained, snap.hints_queued, "exact hint accounting");
            assert_eq!(snap.hints_dropped, 0);
            break;
        }
        assert!(
            !deadline.expired(),
            "hints never drained: {} pending of {} queued",
            snap.hints_pending,
            snap.hints_queued
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The revived shard converged: it holds every acked key, and serves
    // exactly the bytes the other replicas served.
    let converged = |key: &[u8; 16], what: &str| {
        let copy = shards[victim]
            .store
            .get(&ContentKey(*key))
            .unwrap_or_else(|e| panic!("{what} must converge the revived shard: {e}"));
        assert_eq!(copy.to_bytes(), served[key].1, "{what} shipped other bytes");
    };
    for (key, _) in &acked {
        converged(key, "hint drain");
    }

    // Now lose part of its disk (framed records) and let anti-entropy
    // re-converge it: only the differing digest buckets are expanded
    // and shipped.
    let lost: Vec<[u8; 16]> = acked
        .iter()
        .map(|(k, _)| *k)
        .filter(|k| served[k].0)
        .take(5)
        .collect();
    for key in &lost {
        assert!(shards[victim].store.remove(&ContentKey(*key)).unwrap());
    }
    let first = router.repair(Duration::from_secs(10), 64).expect("repair sweep");
    assert!(first.buckets_differing >= 1);
    assert_eq!(first.buckets_shipped, first.buckets_differing);
    assert_eq!(first.keys_shipped, lost.len() as u64);
    assert_eq!(first.deduped, 0);
    for key in &lost {
        converged(key, "repair");
    }
    // Convergence proof: a second sweep finds zero differing buckets.
    let second = router.repair(Duration::from_secs(10), 64).expect("second repair sweep");
    assert_eq!(second.buckets_differing, 0, "cluster must converge to zero drift");
    assert_eq!(second.keys_shipped, 0);

    let snap = router.shutdown();
    assert_eq!(
        snap.repair_buckets_shipped,
        first.buckets_shipped + second.buckets_shipped,
        "repair metric must match the reports exactly"
    );
    assert_eq!(snap.quorum_failures, 0);
    assert!(snap.shard_ejections >= 1);
    assert!(snap.shard_readmissions >= 1);

    let _ = std::fs::remove_dir_all(&hint_dir);
    for s in shards {
        s.teardown();
    }
}

/// A hint directory written by an older router (two files per hint at
/// the top level), with a record torn mid-write, must not stop a router
/// from starting: the per-shard hint stores ignore those files, and
/// the queue reports nothing pending.
#[test]
fn a_router_starts_over_an_old_hint_directory_with_a_torn_record() {
    let hint_dir = std::env::temp_dir().join(format!(
        "dnacomp-route-old-hints-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&hint_dir);
    std::fs::create_dir_all(&hint_dir).unwrap();
    let stem = format!("{}-s1", "ab".repeat(16));
    std::fs::write(hint_dir.join(format!("{stem}.json")), r#"{"shard":1,"ke"#).unwrap();
    std::fs::write(hint_dir.join(format!("{stem}.dx")), b"DX").unwrap();

    let shard = Shard::start(1, "old-hints");
    let ring = Ring::new(vec![shard.spec.clone()], 64, 7).unwrap();
    let router = RouterServer::start(
        "127.0.0.1:0",
        ring,
        RouterConfig {
            hint_dir: Some(hint_dir.clone()),
            ..quick_router()
        },
    )
    .expect("a torn old-format hint must not stop the router");
    assert_eq!(router.metrics_snapshot().hints_pending, 0);
    router.shutdown();
    shard.teardown();
    let _ = std::fs::remove_dir_all(&hint_dir);
}

// ---------------------------------------------------------------------------
// The 3-shard chaos soak: shard kill + restart mid-run, no acked Put lost
// ---------------------------------------------------------------------------

#[test]
fn chaos_soak_with_shard_kill_loses_no_acked_puts() {
    const CLIENTS: usize = 6;
    const OPS: usize = 18;
    for &rate in &[0.0f64, 0.15] {
        let (mut shards, router) = start_cluster(3, "soak");
        let addr = router.local_addr();

        // The victim shard is chosen deterministically from the fault
        // plan's shard-kill schedule, like every other fault draw.
        let kill_plan = FaultPlan {
            shard_kill_rate: 0.5,
            ..FaultPlan::none()
        };
        let victim = (0u64..)
            .find_map(|w| (1..=3u32).find(|&s| kill_plan.shard_killed(s, w)))
            .unwrap() as usize
            - 1;

        let acked: Arc<Mutex<Vec<[u8; 16]>>> = Arc::new(Mutex::new(Vec::new()));
        let soak_started = Instant::now();
        let threads: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let acked = Arc::clone(&acked);
                std::thread::spawn(move || -> (u64, u64) {
                    let tcp = TcpStream::connect(addr).expect("connect router");
                    tcp.set_read_timeout(Some(IO_TICK)).unwrap();
                    tcp.set_write_timeout(Some(IO_TICK)).unwrap();
                    tcp.set_nodelay(true).unwrap();
                    let faulty = FaultyStream::new(
                        tcp,
                        FaultPlan::network(2000 + i as u64, rate),
                        format!("route-chaos-{i}"),
                    );
                    let mut client = NetClient::over(faulty, Duration::from_secs(10));
                    if client.handshake().is_err() {
                        return (0, 0);
                    }
                    let mut ok = 0u64;
                    let mut typed = 0u64;
                    for op in 0..OPS {
                        let seq = GenomeModel::random_only(0.5)
                            .generate(800 + i * 97 + op * 131, (i * OPS + op) as u64);
                        match client.compress(
                            &format!("soak-{i}-{op}.fa"),
                            &seq,
                            Priority::ALL[op % 3],
                            ctx_for(&seq),
                        ) {
                            Ok(Response::CompressOk { key: Some(key), .. }) => {
                                ok += 1;
                                acked.lock().unwrap().push(key);
                            }
                            Ok(Response::CompressOk { .. }) => ok += 1,
                            // One typed reply — shard down, shed, …:
                            // frame-synced, keep going.
                            Ok(Response::Error { .. })
                            | Err(ClientError::Server { .. }) => typed += 1,
                            Ok(other) => panic!("unexpected reply {other:?}"),
                            // Transport died (injected fault): clean break.
                            Err(_) => break,
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    (ok, typed)
                })
            })
            .collect();

        // Mid-soak: kill the victim's front-end, leave it down long
        // enough for strike-based ejection, then restart it.
        std::thread::sleep(Duration::from_millis(120));
        shards[victim].kill();
        std::thread::sleep(Duration::from_millis(400));
        shards[victim].restart();

        let mut ok_total = 0u64;
        let mut typed_total = 0u64;
        for t in threads {
            let (ok, typed) = t.join().expect("no chaos client may panic");
            ok_total += ok;
            typed_total += typed;
        }
        assert!(
            soak_started.elapsed() < Duration::from_secs(120),
            "soak at rate {rate} took {:?}",
            soak_started.elapsed()
        );

        // Wait for the prober to re-admit the restarted shard, so the
        // final read-back runs against a fully healthy cluster.
        let deadline = Deadline::after(Duration::from_secs(10));
        while router
            .metrics_snapshot()
            .shards
            .iter()
            .any(|s| !s.healthy)
        {
            assert!(!deadline.expired(), "victim shard never re-admitted");
            std::thread::sleep(Duration::from_millis(20));
        }

        // No acked Put lost: every key acknowledged during the soak —
        // including those stored on the successor while the victim was
        // down — must be readable through the router.
        let keys = acked.lock().unwrap().clone();
        let mut reader = connect(addr);
        for key in &keys {
            let bytes = reader
                .get(*key)
                .unwrap_or_else(|e| panic!("acked key {key:02x?} lost at rate {rate}: {e}"));
            CompressedBlob::from_bytes(&bytes).expect("acked blob parses");
        }
        reader.bye().unwrap();

        let snap = router.shutdown();
        assert!(
            snap.shard_ejections >= 1,
            "rate {rate}: the killed shard was never ejected"
        );
        assert!(
            snap.shard_readmissions >= 1,
            "rate {rate}: the restarted shard was never re-admitted"
        );
        if rate == 0.0 {
            // Exact accounting: every op got exactly one typed reply
            // (transport to the router itself is fault-free, and a dead
            // shard yields typed errors, not hangs or silent drops).
            assert_eq!(
                ok_total + typed_total,
                (CLIENTS * OPS) as u64,
                "accounting hole at rate 0"
            );
            assert_eq!(snap.protocol_errors, 0);
        }
        assert!(!keys.is_empty(), "soak acked nothing at rate {rate}");

        for s in shards {
            s.teardown();
        }
    }
}
