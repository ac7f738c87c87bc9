//! Integration tests for the TCP front-end: loopback chaos soak,
//! malformed-frame fuzzing, frame-length edge cases (shared with the
//! framed container's varint), connection-cap / idle / shutdown
//! behaviour, and byte-identical round-trips of block-framed payloads.
//! The front-door contract tests (malformed frames, the cap, idle
//! close, shutdown drain) run against both doors that serve clients: a
//! shard, and a router in front of one shard.
//!
//! The acceptance bar these encode: concurrent clients at 0/5/25 %
//! injected network faults plus malformed-frame fuzzing complete with
//! zero panics, zero hangs (every operation deadline-bounded), zero
//! silent corruption, and connection metrics that account for every
//! accepted connection and frame.

use dnacomp_algos::{compressor_for, Algorithm, CompressedBlob};
use dnacomp_cloud::FaultPlan;
use dnacomp_codec::varint::{read_uvarint, write_uvarint};
use dnacomp_core::{Context, Deadline};
use dnacomp_seq::gen::GenomeModel;
use dnacomp_seq::PackedSeq;
use dnacomp_server::{
    decode_frame, frame_bytes, read_frame, request_frame, response_frame, synthetic_framework,
    write_frame, ClientError, CompressRequest, CompressionService, ConnConfig, ErrorCode,
    FaultyStream, MetricsSnapshot, NetClient, NetConfig, NetServer, Priority, ProtoError, Request,
    Response, Ring, RouterConfig, RouterMetricsSnapshot, RouterServer, ServiceConfig, ShardSpec,
    IO_TICK, MAX_WIRE_PAYLOAD, WIRE_MAGIC, WIRE_VERSION,
};
use dnacomp_store::{ContentKey, SequenceStore, StoreConfig, StoreSnapshot};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Start a service + front-end pair with tight, test-friendly budgets.
fn start(
    svc: ServiceConfig,
    net: NetConfig,
) -> (Arc<CompressionService>, NetServer, SocketAddr) {
    let service = Arc::new(CompressionService::start(synthetic_framework(42), svc));
    let server =
        NetServer::start(Arc::clone(&service), "127.0.0.1:0", net).expect("bind loopback");
    let addr = server.local_addr();
    (service, server, addr)
}

/// Test-grade budgets: short enough that a hang fails fast, long
/// enough that a loaded CI machine never trips them spuriously.
fn quick_conn() -> ConnConfig {
    ConnConfig {
        idle_timeout: Duration::from_secs(2),
        frame_timeout: Duration::from_millis(400),
        write_timeout: Duration::from_secs(2),
        ..ConnConfig::default()
    }
}

fn quick_net() -> NetConfig {
    NetConfig {
        conn: quick_conn(),
        request_timeout: Duration::from_secs(20),
        ..NetConfig::default()
    }
}

/// The two front doors that serve the protocol to clients.
#[derive(Clone, Copy, Debug)]
enum Door {
    /// A shard's `NetServer`.
    Shard,
    /// A `RouterServer` in front of one shard.
    Router,
}

const DOORS: [Door; 2] = [Door::Shard, Door::Router];

/// A running door: the shard (its service and server) and, for
/// [`Door::Router`], the router in front of it.
struct Front {
    service: Arc<CompressionService>,
    shard: NetServer,
    router: Option<RouterServer>,
    addr: SocketAddr,
}

/// A door's own client connection counters.
#[derive(Debug)]
struct DoorCounts {
    open: u64,
    accepted: u64,
    refused: u64,
    killed: u64,
    frames_rx: u64,
    frames_tx: u64,
    bytes_rx: u64,
    bytes_tx: u64,
    protocol_errors: u64,
}

impl DoorCounts {
    fn of_shard(s: &MetricsSnapshot) -> DoorCounts {
        DoorCounts {
            open: s.connections_open,
            accepted: s.connections_accepted,
            refused: s.connections_refused,
            killed: s.connections_killed,
            frames_rx: s.frames_rx,
            frames_tx: s.frames_tx,
            bytes_rx: s.net_bytes_rx,
            bytes_tx: s.net_bytes_tx,
            protocol_errors: s.protocol_errors,
        }
    }

    /// The router counts every connection that ends, killed ones
    /// included, so what is still open is the difference.
    fn of_router(s: &RouterMetricsSnapshot) -> DoorCounts {
        DoorCounts {
            open: s.connections_accepted - s.connections_closed,
            accepted: s.connections_accepted,
            refused: s.connections_refused,
            killed: s.connections_killed,
            frames_rx: s.frames_rx,
            frames_tx: s.frames_tx,
            bytes_rx: s.net_bytes_rx,
            bytes_tx: s.net_bytes_tx,
            protocol_errors: s.protocol_errors,
        }
    }
}

impl Front {
    /// Start `door` with `conn` as its client-facing limits; the shard
    /// behind a router keeps [`quick_net`].
    fn start(door: Door, conn: ConnConfig) -> Front {
        let net = match door {
            Door::Shard => NetConfig {
                conn,
                ..quick_net()
            },
            Door::Router => quick_net(),
        };
        let svc = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let (service, shard, shard_addr) = start(svc, net);
        let router = match door {
            Door::Shard => None,
            Door::Router => {
                let spec = ShardSpec {
                    id: 1,
                    addr: shard_addr.to_string(),
                };
                let ring = Ring::new(vec![spec], 64, 7).unwrap();
                let cfg = RouterConfig {
                    conn,
                    ..RouterConfig::default()
                };
                Some(RouterServer::start("127.0.0.1:0", ring, cfg).expect("bind router"))
            }
        };
        let addr = router.as_ref().map_or(shard_addr, |r| r.local_addr());
        Front {
            service,
            shard,
            router,
            addr,
        }
    }

    fn counts(&self) -> DoorCounts {
        match &self.router {
            Some(router) => DoorCounts::of_router(&router.metrics_snapshot()),
            None => DoorCounts::of_shard(&self.service.metrics().snapshot()),
        }
    }

    /// Shut the door down, then what stands behind it. Returns how long
    /// the door's own shutdown took and its final counts.
    fn shutdown(self) -> (Duration, DoorCounts) {
        let t0 = Instant::now();
        let (took, counts) = match self.router {
            Some(router) => {
                let snap = router.shutdown();
                let took = t0.elapsed();
                self.shard.shutdown();
                (took, DoorCounts::of_router(&snap))
            }
            None => {
                self.shard.shutdown();
                let took = t0.elapsed();
                (
                    took,
                    DoorCounts::of_shard(&self.service.metrics().snapshot()),
                )
            }
        };
        let service = Arc::try_unwrap(self.service)
            .map_err(|_| "handler clones alive")
            .unwrap();
        service.shutdown();
        (took, counts)
    }
}

fn ctx_for(seq: &PackedSeq) -> Context {
    Context {
        ram_mb: 2048,
        cpu_mhz: 2393,
        bandwidth_mbps: 2.0,
        file_bytes: seq.len() as u64,
    }
}

/// Raw TCP connection with tick timeouts, no handshake.
fn raw_connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(IO_TICK)).unwrap();
    s.set_write_timeout(Some(IO_TICK)).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// Raw handshake over a bare stream (for tests that then misbehave).
fn raw_hello(stream: &mut TcpStream) {
    let frame = request_frame(&Request::Hello {
        version: WIRE_VERSION,
    });
    write_frame(stream, &frame, Deadline::after(Duration::from_secs(2))).unwrap();
    let (t, payload, _) = read_frame(
        stream,
        MAX_WIRE_PAYLOAD,
        Deadline::after(Duration::from_secs(5)),
        Duration::from_secs(2),
    )
    .unwrap();
    match Response::decode(t, &payload).unwrap() {
        Response::HelloOk { version } => assert_eq!(version, WIRE_VERSION),
        other => panic!("expected HelloOk, got {other:?}"),
    }
}

/// Read one response frame with generous client-side budgets.
fn read_reply(stream: &mut TcpStream) -> Result<Response, ProtoError> {
    let (t, payload, _) = read_frame(
        stream,
        MAX_WIRE_PAYLOAD,
        Deadline::after(Duration::from_secs(5)),
        Duration::from_secs(2),
    )?;
    Response::decode(t, &payload)
}

/// After a kill the peer may observe a clean FIN or an RST (the
/// kernel sends RST when the killed socket still holds unread bytes);
/// both mean "connection ended", neither means "hang".
fn assert_conn_ended(err: ProtoError) {
    match err {
        ProtoError::Closed | ProtoError::Io(_) => {}
        other => panic!("expected the connection to end, got {other:?}"),
    }
}

/// Poll until `pred` holds or the budget runs out.
fn wait_for(budget: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Deadline::after(budget);
    while !pred() {
        if deadline.expired() {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

fn temp_store(tag: &str) -> (Arc<SequenceStore>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("dnacomp-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SequenceStore::open(&dir, StoreConfig::default()).expect("open store");
    (Arc::new(store), dir)
}

// ---------------------------------------------------------------------------
// Frame-length edge cases, shared with the framed container's varint
// ---------------------------------------------------------------------------

#[test]
fn frame_length_edges_share_the_container_varint() {
    // Zero-length, the 1-/2-/3-byte varint boundaries, and the cap.
    let cases: [(usize, usize); 7] = [
        (0, 1),
        (1, 1),
        (127, 1),
        (128, 2),
        (16_383, 2),
        (16_384, 3),
        (MAX_WIRE_PAYLOAD, 4),
    ];
    for (size, expect_varint) in cases {
        let payload = vec![0xA5u8; size];
        let frame = frame_bytes(0x02, &payload);
        // Layout: magic(2) + version(1) + type(1) + varint + payload + fnv(8).
        assert_eq!(frame.len(), 4 + expect_varint + size + 8, "size {size}");
        // The wire's length varint IS the container's varint: the bytes
        // after the 4-byte header must equal `write_uvarint(size)`.
        let mut container = Vec::new();
        write_uvarint(&mut container, size as u64);
        assert_eq!(&frame[4..4 + expect_varint], &container[..], "size {size}");
        let mut pos = 0;
        assert_eq!(read_uvarint(&frame[4..], &mut pos).unwrap(), size as u64);
        assert_eq!(pos, expect_varint);
        // And the whole frame round-trips through both decoders.
        let (t, back, used) = decode_frame(&frame, MAX_WIRE_PAYLOAD).unwrap();
        assert_eq!((t, used), (0x02, frame.len()));
        assert_eq!(back, payload);
        let mut cur = std::io::Cursor::new(frame.clone());
        let (t2, back2, wire) = read_frame(
            &mut cur,
            MAX_WIRE_PAYLOAD,
            Deadline::after(Duration::from_secs(1)),
            Duration::from_secs(1),
        )
        .unwrap();
        assert_eq!((t2, wire as usize), (0x02, frame.len()));
        assert_eq!(back2, payload);
    }
}

#[test]
fn cap_plus_one_is_refused_on_the_declaration_alone() {
    let cap = 1024usize;
    // At the cap: accepted.
    let at = frame_bytes(0x02, &vec![0u8; cap]);
    assert!(decode_frame(&at, cap).is_ok());
    // One over: refused — and the refusal must come from the declared
    // length, before any payload-sized buffer exists. Feed only the
    // header bytes to prove no payload read is attempted.
    let mut header = WIRE_MAGIC.to_vec();
    header.push(WIRE_VERSION);
    header.push(0x02);
    write_uvarint(&mut header, (cap + 1) as u64);
    let mut cur = std::io::Cursor::new(header.clone());
    assert_eq!(
        read_frame(
            &mut cur,
            cap,
            Deadline::after(Duration::from_secs(1)),
            Duration::from_secs(1)
        )
        .unwrap_err(),
        ProtoError::Oversize {
            declared: (cap + 1) as u64,
            cap: cap as u64
        }
    );
    // The buffered decoder agrees (payload bytes present but unread).
    let over = frame_bytes(0x02, &vec![0u8; cap + 1]);
    assert!(matches!(
        decode_frame(&over, cap).unwrap_err(),
        ProtoError::Oversize { .. }
    ));
    // A 5-byte length varint (values ≥ 2^28) can only ever be a forged
    // declaration — it exceeds MAX_WIRE_PAYLOAD by construction — so
    // the boundary is exercised as an oversize refusal: the varint
    // decodes fully, then the declaration is rejected pre-allocation.
    let five_byte = 1u64 << 28;
    assert_eq!(varint_byte_len(five_byte), 5);
    let mut forged = WIRE_MAGIC.to_vec();
    forged.push(WIRE_VERSION);
    forged.push(0x02);
    write_uvarint(&mut forged, five_byte);
    let mut cur = std::io::Cursor::new(forged);
    assert_eq!(
        read_frame(
            &mut cur,
            MAX_WIRE_PAYLOAD,
            Deadline::after(Duration::from_secs(1)),
            Duration::from_secs(1)
        )
        .unwrap_err(),
        ProtoError::Oversize {
            declared: five_byte,
            cap: MAX_WIRE_PAYLOAD as u64
        }
    );
}

/// Bytes `write_uvarint` spends on `v` — shared with the framed container.
fn varint_byte_len(v: u64) -> usize {
    let mut buf = Vec::new();
    write_uvarint(&mut buf, v);
    buf.len()
}

mod frame_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn any_payload_size_roundtrips(size in 0usize..4096, ftype in 1u8..0x30) {
            let payload = vec![(size % 251) as u8; size];
            let frame = frame_bytes(ftype, &payload);
            let (t, back, used) = decode_frame(&frame, 4096).unwrap();
            prop_assert_eq!((t, used), (ftype, frame.len()));
            prop_assert_eq!(back, payload);
        }
    }
}

// ---------------------------------------------------------------------------
// Byte-identical block-framed round-trip over the wire
// ---------------------------------------------------------------------------

#[test]
fn block_framed_payload_roundtrips_byte_identical_at_any_thread_count() {
    let seq = GenomeModel::highly_repetitive().generate(120_000, 7);
    let mut stored: Vec<Vec<u8>> = Vec::new();
    let mut dirs = Vec::new();
    for workers in [1usize, 4] {
        let (store, dir) = temp_store(&format!("rt-{workers}"));
        dirs.push(dir);
        let (service, server, addr) = start(
            ServiceConfig {
                workers,
                // Force the block-parallel path: framed container, one
                // block task per 16 Ki bases on the shared pool.
                block_size: Some(1 << 14),
                store: Some(Arc::clone(&store)),
                ..ServiceConfig::default()
            },
            NetConfig {
                store: Some(Arc::clone(&store)),
                ..quick_net()
            },
        );
        let mut client = NetClient::connect(addr, Duration::from_secs(30)).unwrap();

        // Streamed upload (chunks map onto frame blocks) …
        let resp = client
            .compress_streamed(
                "chr_t.fa",
                &seq,
                Priority::Normal,
                ctx_for(&seq),
                1 << 16,
            )
            .unwrap();
        let (key, compressed_bytes) = match resp {
            Response::CompressOk {
                blocks,
                key,
                compressed_bytes,
                ..
            } => {
                assert!(blocks >= 2, "block-parallel path must have framed the job");
                let key = key.expect("service has a store, so the key is set");
                (key, compressed_bytes as usize)
            }
            other => panic!("expected CompressOk, got {other:?}"),
        };

        // … and the same content one-shot must land on the same
        // content key: the stored bytes are a pure function of the
        // sequence, independent of transport framing.
        match client
            .compress("chr_t_oneshot.fa", &seq, Priority::High, ctx_for(&seq))
            .unwrap()
        {
            Response::CompressOk { key: k2, .. } => assert_eq!(k2, Some(key)),
            other => panic!("expected CompressOk, got {other:?}"),
        }

        // One container: the frame the reply described is the one the
        // store keeps and `Get` serves.
        let bytes = client.get(key).unwrap();
        assert_eq!(bytes.len(), compressed_bytes, "Get bytes vs CompressOk");
        let kept = store.get(&ContentKey(key)).unwrap();
        assert_eq!(kept.total_bytes(), compressed_bytes, "stored vs CompressOk");
        assert_eq!(kept.to_bytes(), bytes);
        let blob = CompressedBlob::from_bytes(&bytes).unwrap();
        assert!(blob.is_framed(), "a framed job is stored framed");
        let back = compressor_for(blob.algorithm).decompress(&blob).unwrap();
        assert_eq!(back, seq, "decompressed sequence differs from the upload");
        stored.push(bytes);
        client.bye().unwrap();

        server.shutdown();
        let service = Arc::try_unwrap(service).map_err(|_| "handler clones alive").unwrap();
        service.shutdown();
    }
    assert_eq!(
        stored[0], stored[1],
        "stored container bytes must be identical at every thread count"
    );
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

// ---------------------------------------------------------------------------
// Store gauges are read from the store, whoever wrote to it
// ---------------------------------------------------------------------------

#[test]
fn store_gauges_follow_writes_that_skip_the_worker() {
    let (store, dir) = temp_store("gauges");
    let (service, server, addr) = start(
        ServiceConfig {
            workers: 1,
            store: Some(Arc::clone(&store)),
            ..ServiceConfig::default()
        },
        NetConfig {
            store: Some(Arc::clone(&store)),
            ..quick_net()
        },
    );
    // One record lands the way read-repair, a hint drain or a
    // rebalance delivers it: a migration batch, with no job and so no
    // worker involved.
    let seq = GenomeModel::default().generate(2_000, 11);
    let blob = compressor_for(Algorithm::Raw).compress(&seq).unwrap();
    let key = ContentKey::of_sequence(&seq).0;
    let mut client = NetClient::connect(addr, Duration::from_secs(10)).unwrap();
    let records = vec![(key, blob.to_bytes())];
    assert_eq!(client.migrate_batch(0, records).unwrap(), (1, 0));

    let want = store.snapshot();
    assert!(want.bytes_on_disk > 0 && want.wal_appends > 0, "{want:?}");
    let metrics: MetricsSnapshot = serde_json::from_str(&client.metrics_json().unwrap()).unwrap();
    assert_eq!(metrics.store_bytes_on_disk, want.bytes_on_disk);
    assert_eq!(metrics.store_wal_appends, want.wal_appends);
    // The whole-store `Stat` reply is the same snapshot on the wire.
    let stat: StoreSnapshot = serde_json::from_str(&client.stat(None).unwrap()).unwrap();
    assert_eq!(stat, store.snapshot());

    client.bye().unwrap();
    server.shutdown();
    let service = Arc::try_unwrap(service)
        .map_err(|_| "handler clones alive")
        .unwrap();
    assert_eq!(service.shutdown().store_puts, 0, "no job ran");
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------------
// The request deadline: a job still running gets a typed Timeout
// ---------------------------------------------------------------------------

#[test]
fn a_job_still_running_at_the_request_deadline_gets_a_typed_timeout() {
    let budget = Duration::from_millis(50);
    let (service, server, addr) = start(
        ServiceConfig {
            workers: 1,
            queue_capacity: 4_096,
            ..ServiceConfig::default()
        },
        NetConfig {
            request_timeout: budget,
            ..quick_net()
        },
    );
    // Price one pin job on this build, then queue enough of them to
    // hold the only worker for at least 10x the request budget.
    let pin_seq = GenomeModel::default().generate(200_000, 31);
    let pin = CompressRequest::new("pin", pin_seq.clone(), ctx_for(&pin_seq));
    let priced = Instant::now();
    service
        .submit(pin.clone())
        .unwrap()
        .wait()
        .expect("pin job");
    let per_pin = priced.elapsed().as_secs_f64();
    let n = ((10.0 * budget.as_secs_f64()) / per_pin).ceil() as usize + 1;
    let pins: Vec<_> = (0..n)
        .map(|_| service.submit(pin.clone()).expect("queue has room"))
        .collect();

    let seq = GenomeModel::default().generate(2_000, 32);
    let mut client = NetClient::connect(addr, Duration::from_secs(10)).unwrap();
    let sent = Instant::now();
    match client
        .compress("late.fa", &seq, Priority::Normal, ctx_for(&seq))
        .unwrap()
    {
        Response::Error {
            code: ErrorCode::Timeout,
            message,
        } => assert_eq!(message, "job still running at the request deadline"),
        other => panic!("expected a typed Timeout, got {other:?}"),
    }
    assert!(
        sent.elapsed() >= budget,
        "replied before the budget ran out"
    );
    // The reply came at the deadline, not when the worker freed up.
    assert!(
        pins.last().unwrap().wait_timeout(Duration::ZERO).is_none(),
        "the pins finished before the Timeout reply"
    );
    // The connection serves the next request at once, and the next
    // compress once the worker is free.
    client.ping().unwrap();
    for t in pins {
        t.wait().expect("pin job");
    }
    let next = GenomeModel::default().generate(2_000, 33);
    match client
        .compress("next.fa", &next, Priority::Normal, ctx_for(&next))
        .unwrap()
    {
        Response::CompressOk { original_len, .. } => assert_eq!(original_len, 2_000),
        other => panic!("expected CompressOk after the timeout, got {other:?}"),
    }
    client.bye().unwrap();
    server.shutdown();
    let service = Arc::try_unwrap(service)
        .map_err(|_| "handler clones alive")
        .unwrap();
    let snapshot = service.shutdown();
    assert_eq!(snapshot.protocol_errors, 0);
}

// ---------------------------------------------------------------------------
// Chaos soak: concurrent clients at 0/5/25 % injected faults
// ---------------------------------------------------------------------------

#[test]
fn chaos_soak_survives_fault_injected_clients() {
    const CLIENTS: usize = 6;
    const OPS: usize = 12;
    for &rate in &[0.0f64, 0.05, 0.25] {
        let (service, server, addr) = start(
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            quick_net(),
        );
        let soak_started = Instant::now();
        let threads: Vec<_> = (0..CLIENTS)
            .map(|i| {
                std::thread::spawn(move || -> u64 {
                    let tcp = raw_connect(addr);
                    let faulty = FaultyStream::new(
                        tcp,
                        FaultPlan::network(1000 + i as u64, rate),
                        format!("chaos-{i}"),
                    );
                    let mut client = NetClient::over(faulty, Duration::from_secs(5));
                    if client.handshake().is_err() {
                        return 0; // injected fault during Hello: fine
                    }
                    let seq = GenomeModel::random_only(0.5).generate(1_500 + i * 173, i as u64);
                    let mut ok = 0u64;
                    for op in 0..OPS {
                        let outcome = match op % 3 {
                            0 => client.ping(),
                            1 => client.metrics_json().map(|_| ()),
                            _ => client
                                .compress(
                                    &format!("c{i}-{op}.fa"),
                                    &seq,
                                    Priority::ALL[op % 3],
                                    ctx_for(&seq),
                                )
                                .map(|_| ()),
                        };
                        match outcome {
                            Ok(()) => ok += 1,
                            // Typed server refusal (e.g. BadFrame after a
                            // corrupt write): still frame-synced, go on.
                            Err(ClientError::Server { .. }) => {}
                            // Transport died (injected drop / torn write /
                            // server kill): the connection is gone.
                            Err(_) => break,
                        }
                    }
                    ok
                })
            })
            .collect();
        let mut total_ok = 0u64;
        for t in threads {
            total_ok += t.join().expect("no chaos client may panic");
        }
        // Zero hangs: every op was deadline-bounded, so the whole soak
        // is too (client budget 5 s; the margin below is generous).
        assert!(
            soak_started.elapsed() < Duration::from_secs(60),
            "soak at rate {rate} took {:?}",
            soak_started.elapsed()
        );

        // Graceful degradation, not collapse: the server must still
        // serve a clean client after absorbing the chaos.
        let mut probe = NetClient::connect(addr, Duration::from_secs(30)).unwrap();
        probe.ping().unwrap();
        let seq = GenomeModel::random_only(0.5).generate(2_000, 99);
        match probe
            .compress("probe.fa", &seq, Priority::High, ctx_for(&seq))
            .unwrap()
        {
            Response::CompressOk { .. } => {}
            other => panic!("post-chaos probe got {other:?}"),
        }
        probe.bye().unwrap();

        assert!(
            wait_for(Duration::from_secs(10), || {
                service.metrics().connections_open() == 0
            }),
            "connections still open after the soak at rate {rate}"
        );
        server.shutdown();
        let snap = service.metrics().snapshot();
        // Every accepted connection is accounted: opens pair with closes.
        assert_eq!(snap.connections_open, 0, "rate {rate}");
        assert_eq!(snap.connections_accepted, CLIENTS as u64 + 1, "rate {rate}");
        assert_eq!(snap.connections_refused, 0, "rate {rate}");
        if rate == 0.0 {
            // A clean soak is exact: every op succeeded, every request
            // frame got exactly one reply frame, nobody was killed.
            assert_eq!(total_ok, (CLIENTS * OPS) as u64);
            assert_eq!(snap.protocol_errors, 0);
            assert_eq!(snap.connections_killed, 0);
            assert_eq!(snap.frames_rx, snap.frames_tx);
        }
        let service = Arc::try_unwrap(service).map_err(|_| "handler clones alive").unwrap();
        service.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Malformed-frame fuzzing: typed replies, strikes, kills
// ---------------------------------------------------------------------------

#[test]
fn malformed_frames_get_typed_replies_then_the_axe() {
    for door in DOORS {
        let front = Front::start(
            door,
            ConnConfig {
                max_strikes: 2,
                ..quick_conn()
            },
        );
        let addr = front.addr;

        // (a) Not our protocol at all: HTTP garbage desyncs on the magic.
        // Best-effort typed refusal, then the axe.
        {
            let mut s = raw_connect(addr);
            s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            match read_reply(&mut s).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
                other => panic!("{door:?}: expected BadFrame error, got {other:?}"),
            }
            assert_conn_ended(read_reply(&mut s).unwrap_err());
        }

        // (b) Forged length: a header declaring cap+1 is refused from the
        // declaration alone (no allocation) with a typed TooLarge.
        {
            let mut s = raw_connect(addr);
            raw_hello(&mut s);
            let mut header = WIRE_MAGIC.to_vec();
            header.push(WIRE_VERSION);
            header.push(0x10);
            write_uvarint(&mut header, (MAX_WIRE_PAYLOAD + 1) as u64);
            s.write_all(&header).unwrap();
            match read_reply(&mut s).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::TooLarge),
                other => panic!("{door:?}: expected TooLarge error, got {other:?}"),
            }
            assert_conn_ended(read_reply(&mut s).unwrap_err());
        }

        // (c) Bit-flipped frames are frame-synced violations: each earns a
        // typed BadFrame reply and a strike; `max_strikes` ends it.
        {
            let mut s = raw_connect(addr);
            raw_hello(&mut s);
            for strike in 0..2 {
                let mut frame = request_frame(&Request::Ping);
                let last = frame.len() - 1;
                frame[last] ^= 0x01; // corrupt the checksum tail
                s.write_all(&frame).unwrap();
                match read_reply(&mut s).unwrap() {
                    Response::Error { code, .. } => {
                        assert_eq!(code, ErrorCode::BadFrame, "{door:?} strike {strike}")
                    }
                    other => panic!("{door:?}: expected BadFrame error, got {other:?}"),
                }
            }
            assert_conn_ended(read_reply(&mut s).unwrap_err());
        }

        // (d) Protocol order is enforced but survivable: a pre-Hello Ping
        // is a typed Handshake error + strike, and the connection lives to
        // handshake properly afterwards.
        {
            let mut s = raw_connect(addr);
            let frame = request_frame(&Request::Ping);
            write_frame(&mut s, &frame, Deadline::after(Duration::from_secs(2))).unwrap();
            match read_reply(&mut s).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::Handshake),
                other => panic!("{door:?}: expected Handshake error, got {other:?}"),
            }
            raw_hello(&mut s);
            let ping = request_frame(&Request::Ping);
            write_frame(&mut s, &ping, Deadline::after(Duration::from_secs(2))).unwrap();
            assert!(matches!(read_reply(&mut s).unwrap(), Response::Pong));
            let bye = request_frame(&Request::Bye);
            write_frame(&mut s, &bye, Deadline::after(Duration::from_secs(2))).unwrap();
            assert!(matches!(read_reply(&mut s).unwrap(), Response::ByeOk));
        }

        // (e) Slow loris: a frame that starts but never finishes costs one
        // frame budget (400 ms here), not a thread forever.
        {
            let mut s = raw_connect(addr);
            raw_hello(&mut s);
            let started = Instant::now();
            s.write_all(&WIRE_MAGIC[..1]).unwrap(); // frame begins …
            std::thread::sleep(Duration::from_millis(150));
            s.write_all(&WIRE_MAGIC[1..]).unwrap(); // … and trickles
            match read_reply(&mut s).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
                other => panic!("{door:?}: expected BadFrame error, got {other:?}"),
            }
            assert_conn_ended(read_reply(&mut s).unwrap_err());
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "{door:?}: loris survived {:?}",
                started.elapsed()
            );
        }

        // (f) Mid-frame disconnect: half a frame then FIN is a desync kill
        // (no panic, no hang, books balanced below).
        {
            let mut s = raw_connect(addr);
            raw_hello(&mut s);
            let frame = request_frame(&Request::Metrics);
            s.write_all(&frame[..frame.len() / 2]).unwrap();
            drop(s);
        }

        // (g) One version rule for every Hello: a Hello of another
        // version after the handshake is refused and killed, like one
        // before it.
        {
            let mut s = raw_connect(addr);
            raw_hello(&mut s);
            let hello = request_frame(&Request::Hello {
                version: WIRE_VERSION + 1,
            });
            write_frame(&mut s, &hello, Deadline::after(Duration::from_secs(2))).unwrap();
            match read_reply(&mut s).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::Handshake),
                other => panic!("{door:?}: expected Handshake error, got {other:?}"),
            }
            assert_conn_ended(read_reply(&mut s).unwrap_err());
        }

        assert!(
            wait_for(Duration::from_secs(10), || front.counts().open == 0),
            "{door:?}: a fuzzed connection never closed"
        );
        let (_, snap) = front.shutdown();
        assert_eq!(snap.open, 0, "{door:?}");
        assert_eq!(snap.accepted, 7, "{door:?}");
        // Killed: (a) bad magic, (b) forged length, (c) strike budget,
        // (e) mid-frame timeout, (f) truncation, (g) wrong version.
        // Survived cleanly: (d).
        assert_eq!(snap.killed, 6, "{door:?}");
        // Violations: a=1, b=1, c=2, d=1, e=1, f=1, g=1.
        assert_eq!(snap.protocol_errors, 8, "{door:?}");
    }
}

// ---------------------------------------------------------------------------
// Connection cap, idle timeout, shutdown drain
// ---------------------------------------------------------------------------

#[test]
fn connection_cap_refuses_with_typed_server_busy() {
    for door in DOORS {
        let front = Front::start(
            door,
            ConnConfig {
                max_connections: 1,
                ..quick_conn()
            },
        );
        let addr = front.addr;

    let mut first = NetClient::connect(addr, Duration::from_secs(10)).unwrap();
    first.ping().unwrap(); // round-trip ⇒ the slot is definitely taken

        // Second connection: accepted at the TCP level, refused at the
        // protocol level with a typed reason — never a silent close.
        let mut second = raw_connect(addr);
        match read_reply(&mut second).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::ServerBusy),
            other => panic!("{door:?}: expected ServerBusy, got {other:?}"),
        }
        assert_conn_ended(read_reply(&mut second).unwrap_err());
        assert_eq!(front.counts().refused, 1, "{door:?}");

        // Freeing the slot re-opens the door.
        first.bye().unwrap();
        assert!(wait_for(Duration::from_secs(5), || front.counts().open == 0));
        let mut third = NetClient::connect(addr, Duration::from_secs(10)).unwrap();
        third.ping().unwrap();
        third.bye().unwrap();

        assert!(wait_for(Duration::from_secs(5), || front.counts().open == 0));
        let (_, snap) = front.shutdown();
        assert_eq!(snap.accepted, 2, "{door:?}");
        assert_eq!(snap.refused, 1, "{door:?}");
        assert_eq!(snap.killed, 0, "{door:?}");
        // The refusal is the one reply frame without a request frame.
        assert_eq!(snap.frames_tx, snap.frames_rx + 1, "{door:?}");
    }
}

#[test]
fn idle_timeout_closes_cleanly_without_a_kill() {
    for door in DOORS {
        let front = Front::start(
            door,
            ConnConfig {
                idle_timeout: Duration::from_millis(200),
                ..quick_conn()
            },
        );
        let mut s = raw_connect(front.addr);
        raw_hello(&mut s);
        // Say nothing past the idle budget: the server hangs up …
        assert_conn_ended(read_reply(&mut s).unwrap_err());
        // … and books it as a clean close, not a kill.
        assert!(wait_for(Duration::from_secs(5), || front.counts().open == 0));
        let (_, snap) = front.shutdown();
        assert_eq!(snap.accepted, 1, "{door:?}");
        assert_eq!(snap.killed, 0, "{door:?}");
        assert_eq!(snap.protocol_errors, 0, "{door:?}");
        // Both doors count exact wire bytes: one Hello in, one HelloOk out.
        let hello = request_frame(&Request::Hello {
            version: WIRE_VERSION,
        });
        let hello_ok = response_frame(&Response::HelloOk {
            version: WIRE_VERSION,
        });
        assert_eq!(snap.bytes_rx, hello.len() as u64, "{door:?}");
        assert_eq!(snap.bytes_tx, hello_ok.len() as u64, "{door:?}");
    }
}

#[test]
fn shutdown_drains_connections_and_stops_accepting() {
    for door in DOORS {
        // A door that never accepted a connection shuts down at once:
        // shutdown wakes the accept it is blocked in.
        let (took, _) = Front::start(door, quick_conn()).shutdown();
        assert!(
            took < Duration::from_secs(1),
            "{door:?}: idle shutdown took {took:?}"
        );

        let front = Front::start(door, quick_conn());
        let addr = front.addr;
        let mut a = NetClient::connect(addr, Duration::from_secs(10)).unwrap();
        let mut b = NetClient::connect(addr, Duration::from_secs(10)).unwrap();
        a.ping().unwrap();
        b.ping().unwrap();

        // Drain is bounded: handlers notice the stop flag at their next
        // frame boundary, not when the clients deign to hang up.
        let (took, snap) = front.shutdown();
        assert!(
            took < Duration::from_secs(5),
            "{door:?}: shutdown took {took:?}"
        );
        // Every accepted connection ended; for the router this pins
        // `connections_closed == connections_accepted`.
        assert_eq!(snap.open, 0, "{door:?}");
        assert_eq!(snap.accepted, 2, "{door:?}");

        // The listener is gone: new connections fail outright.
        assert!(NetClient::connect(addr, Duration::from_secs(1)).is_err());
        // Existing clients observe a clean close, not a hang.
        assert!(a.ping().is_err());
    }
}
