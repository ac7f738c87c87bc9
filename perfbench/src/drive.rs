//! Closed-loop clients. Each client thread sends its next op only
//! after the previous reply arrived, on its own connection to the
//! front door. Ops are claimed from one shared counter, so the ops a
//! phase ran are always a contiguous id range.
//!
//! In a traced phase each op's front-door call is wrapped in a root
//! span, and the same input is then passed directly to every lower
//! layer's public entry point on the standalone [`Layers`], each call
//! in its own span under the same request id.

use crate::inputs::{OpInput, Plan};
use crate::report::ALGORITHM_METRICS;
use crate::system::{Layers, CLIENT_TIMEOUT};
use crate::trace::{Span, SpanLog};
use dnacomp_algos::{compressor_for, Algorithm, CompressedBlob, ParallelCompressor};
use dnacomp_seq::PackedSeq;
use dnacomp_server::{
    decode_frame, request_frame, response_frame, ClientError, CompressRequest, ContextKey,
    NetClient, Priority, Request, Response, MAX_WIRE_PAYLOAD,
};
use dnacomp_store::ContentKey;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Op kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Compress-and-store.
    Put,
    /// Get plus client-side decompress.
    Get,
}

/// One front-door op as the client saw it.
#[derive(Clone, Debug)]
pub struct Record {
    /// Op index (the input is `Plan::op(index)`).
    pub index: u64,
    /// Op kind.
    pub kind: Kind,
    /// `true` when the reply arrived and checked out.
    pub ok: bool,
    /// Client-observed latency, connect included when the op opened
    /// the connection.
    pub latency_ns: u64,
    /// Input bases acknowledged (puts).
    pub bases: u64,
    /// Container bytes acknowledged (puts).
    pub container_bytes: u64,
    /// Algorithm tag the system compressed with (puts).
    pub algorithm: u8,
    /// Container blocks (puts; 1 = flat blob).
    pub blocks: u64,
    /// Content key acknowledged (puts).
    pub key: [u8; 16],
}

/// When a phase stops claiming ops.
#[derive(Clone, Copy, Debug)]
pub struct Stop {
    /// Stop once this instant has passed.
    pub deadline: Option<Instant>,
    /// Stop after this many ops.
    pub ops: Option<u64>,
}

/// Everything one phase produced.
#[derive(Default)]
pub struct Phase {
    /// Every op run, in op order.
    pub records: Vec<Record>,
    /// Wall time from the first claim to the last reply, s.
    pub wall_s: f64,
    /// First op index the phase did not run.
    pub next_op: u64,
    /// Failure messages (refusals, transport errors, mismatches).
    pub errors: Vec<String>,
    /// Failures that were wrong answers rather than refusals.
    pub mismatches: u64,
    /// Spans of a traced phase.
    pub spans: Vec<Span>,
    /// Direct decision-cache lookups and hits (traced).
    pub cache_lookups: u64,
    /// See `cache_lookups`.
    pub cache_hits: u64,
    /// Per algorithm: bases and ms of direct flat compressions (traced).
    pub compress_by_alg: BTreeMap<&'static str, (u64, f64)>,
}

/// Why an op failed.
struct Failure {
    /// The reply was wrong, not merely refused.
    mismatch: bool,
    /// The connection is unusable.
    transport: bool,
    message: String,
}

impl Failure {
    fn mismatch(message: String) -> Failure {
        Failure {
            mismatch: true,
            transport: false,
            message,
        }
    }

    fn refused(message: String) -> Failure {
        Failure {
            mismatch: false,
            transport: false,
            message,
        }
    }
}

impl From<ClientError> for Failure {
    fn from(e: ClientError) -> Failure {
        Failure {
            mismatch: false,
            transport: matches!(e, ClientError::Proto(_)),
            message: e.to_string(),
        }
    }
}

/// What the front door answered.
enum Reply {
    Put(Response),
    Get(Vec<u8>),
}

/// Run one phase: `plan.workload.clients()` closed-loop clients
/// against `front`, claiming ops from `first_op` until `stop`. With
/// `layers`, every op is traced.
pub fn run_phase(
    plan: &Plan,
    front: SocketAddr,
    first_op: u64,
    stop: Stop,
    layers: Option<&Layers>,
    epoch: Instant,
) -> Phase {
    let next = AtomicU64::new(first_op);
    let started = Instant::now();
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.workload.clients())
            .map(|c| {
                let next = &next;
                s.spawn(move || {
                    let mut client = Client {
                        plan,
                        front,
                        layers,
                        conn: None,
                        on_conn: 0,
                        direct: None,
                        routed: None,
                        log: SpanLog::new(epoch, c as u64 + 1),
                        out: Phase::default(),
                    };
                    loop {
                        if stop.deadline.is_some_and(|d| Instant::now() >= d) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if stop.ops.is_some_and(|n| i >= first_op + n) {
                            break;
                        }
                        client.op(i);
                    }
                    for conn in [
                        client.conn.take(),
                        client.direct.take(),
                        client.routed.take(),
                    ]
                    .into_iter()
                    .flatten()
                    {
                        let _ = conn.bye();
                    }
                    client.out.spans = client.log.spans;
                    client.out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Phase {
                    errors: vec!["client thread panicked".to_owned()],
                    mismatches: 1,
                    ..Phase::default()
                })
            })
            .collect()
    });
    let mut phase = Phase {
        wall_s: started.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for part in parts {
        phase.records.extend(part.records);
        phase.errors.extend(part.errors);
        phase.mismatches += part.mismatches;
        phase.spans.extend(part.spans);
        phase.cache_lookups += part.cache_lookups;
        phase.cache_hits += part.cache_hits;
        for (alg, (bases, ms)) in part.compress_by_alg {
            let e = phase.compress_by_alg.entry(alg).or_default();
            e.0 += bases;
            e.1 += ms;
        }
    }
    phase.records.sort_by_key(|r| r.index);
    phase.next_op = first_op + phase.records.len() as u64;
    phase
}

struct Client<'a> {
    plan: &'a Plan,
    front: SocketAddr,
    layers: Option<&'a Layers>,
    conn: Option<NetClient<TcpStream>>,
    on_conn: u64,
    direct: Option<NetClient<TcpStream>>,
    /// To the standalone router, on a workload without one.
    routed: Option<NetClient<TcpStream>>,
    log: SpanLog,
    out: Phase,
}

impl Client<'_> {
    fn op(&mut self, i: u64) {
        let input = self.plan.op(i);
        if self
            .plan
            .workload
            .reconnect_every()
            .is_some_and(|k| self.on_conn >= k)
        {
            if let Some(conn) = self.conn.take() {
                let _ = conn.bye();
            }
        }
        let (kind, root_name) = match input {
            OpInput::Put { .. } => (Kind::Put, "front.put"),
            OpInput::Get { .. } => (Kind::Get, "front.get"),
        };
        let root = self.log.alloc();
        let t0 = Instant::now();
        let reply = self.front_call(i, root, &input);
        let t1 = Instant::now();
        let mut record = Record {
            index: i,
            kind,
            ok: false,
            latency_ns: (t1 - t0).as_nanos() as u64,
            bases: 0,
            container_bytes: 0,
            algorithm: 0,
            blocks: 0,
            key: [0; 16],
        };
        let traced = match reply {
            Ok(reply) => {
                record.ok = true;
                if let Reply::Put(Response::CompressOk {
                    original_len,
                    compressed_bytes,
                    algorithm,
                    blocks,
                    key,
                    ..
                }) = &reply
                {
                    record.bases = *original_len;
                    record.container_bytes = *compressed_bytes;
                    record.algorithm = *algorithm;
                    record.blocks = *blocks;
                    record.key = key.unwrap_or_default();
                }
                match self.layers {
                    Some(layers) => {
                        self.log.push(root, root_name, i, None, t0, t1);
                        self.trace_layers(layers, i, root, &input, &reply)
                    }
                    None => Ok(()),
                }
            }
            Err(f) => Err(f),
        };
        if let Err(f) = traced {
            record.ok = false;
            if f.transport {
                self.conn = None;
                self.direct = None;
                self.routed = None;
            }
            if f.mismatch {
                self.out.mismatches += 1;
            }
            if self.out.errors.len() < 8 {
                self.out.errors.push(format!("op {i}: {}", f.message));
            }
            // A failed op keeps no spans: only answered ops are traced.
            self.log.spans.retain(|s| s.request != i);
        }
        self.out.records.push(record);
    }

    /// The front-door call the untraced run times: connect when
    /// needed, send, and check the reply against the input.
    fn front_call(&mut self, i: u64, root: u64, input: &OpInput) -> Result<Reply, Failure> {
        if self.conn.is_none() {
            let start = Instant::now();
            self.conn = Some(NetClient::connect(self.front, CLIENT_TIMEOUT)?);
            self.on_conn = 0;
            if self.layers.is_some() {
                let id = self.log.alloc();
                self.log
                    .push(id, "net.connect", i, Some(root), start, Instant::now());
            }
        }
        let conn = self.conn.as_mut().expect("connected above");
        self.on_conn += 1;
        // The router's own span covers the wire call alone: no connect,
        // no client-side decompress.
        let rpc_start = Instant::now();
        let reply = match input {
            OpInput::Put { file, seq, ctx } => conn
                .compress(file, seq, Priority::Normal, ctx.clone())
                .map(Reply::Put),
            OpInput::Get { key, .. } => conn.get(*key).map(Reply::Get),
        };
        if self.layers.is_some() && self.plan.workload.routed() {
            let id = self.log.alloc();
            self.log
                .push(id, "router.rpc", i, Some(root), rpc_start, Instant::now());
        }
        let reply = reply?;
        match (&reply, input) {
            (Reply::Put(resp), OpInput::Put { seq, .. }) => check_put(resp, seq)?,
            (Reply::Get(blob), OpInput::Get { index, .. }) => {
                decode_checked(blob, &self.plan.preload[*index].0)?;
            }
            _ => unreachable!("replies match their inputs"),
        }
        Ok(reply)
    }

    /// Direct calls into each lower layer on the op's input.
    fn trace_layers(
        &mut self,
        layers: &Layers,
        rid: u64,
        root: u64,
        input: &OpInput,
        reply: &Reply,
    ) -> Result<(), Failure> {
        if self.direct.is_none() {
            self.direct = Some(NetClient::connect(layers.net.addr(), CLIENT_TIMEOUT)?);
        }
        if let (Some(router), None) = (&layers.router, &self.routed) {
            self.routed = Some(NetClient::connect(router.front, CLIENT_TIMEOUT)?);
        }
        let log = &mut self.log;
        let direct = self.direct.as_mut().expect("connected above");
        match (input, reply) {
            (OpInput::Put { file, seq, ctx }, Reply::Put(resp)) => {
                let req = Request::Compress {
                    file: file.clone(),
                    priority: Priority::Normal,
                    context: ctx.clone(),
                    seq_len: seq.len() as u64,
                    words: seq.as_words().to_vec(),
                };
                proto_round_trip(log, rid, root, &req, resp)?;

                let (got, rpc) = log.time("net.shard_rpc", rid, Some(root), || {
                    direct.compress(file, seq, Priority::Normal, ctx.clone())
                });
                check_put(&got?, seq)?;
                if let Some(routed) = self.routed.as_mut() {
                    let (got, _) = log.time("router.rpc", rid, Some(root), || {
                        routed.compress(file, seq, Priority::Normal, ctx.clone())
                    });
                    check_put(&got?, seq)?;
                }

                let job = CompressRequest::new(file.clone(), seq.clone(), ctx.clone());
                let job_span = log.alloc();
                let start = Instant::now();
                let done = layers.service.submit(job).map(|ticket| ticket.wait());
                log.push(
                    job_span,
                    "service.job",
                    rid,
                    Some(rpc),
                    start,
                    Instant::now(),
                );
                let done = done
                    .map_err(|e| Failure::refused(format!("service submit: {e}")))?
                    .map_err(|e| Failure::refused(format!("service job: {e}")))?;
                if done.persisted.map(|p| p.key) != Some(ContentKey::of_sequence(seq)) {
                    return Err(Failure::mismatch(
                        "service persisted a different key".into(),
                    ));
                }
                // The service stamps both times before it persists, so
                // their difference is exactly the wait from submit to a
                // worker picking the job up.
                let wait =
                    Duration::from_secs_f64((done.wall_latency_ms - done.wall_ms).max(0.0) / 1e3);
                let id = log.alloc();
                log.push(
                    id,
                    "service.queue_wait",
                    rid,
                    Some(job_span),
                    start,
                    start + wait,
                );

                self.out.cache_lookups += 1;
                let key = ContextKey::quantize(ctx);
                let cached = lock(&layers.cache).get(&key).copied();
                let (alg, _) = log.time("core.decide", rid, Some(job_span), || {
                    layers.framework.decide(&key.canonical())
                });
                match cached {
                    Some(_) => self.out.cache_hits += 1,
                    None => {
                        lock(&layers.cache).insert(key, alg);
                    }
                }

                let (blob, _) = log.time("algos.compress", rid, Some(job_span), || {
                    compressor_for(alg).compress(seq)
                });
                let blob = blob.map_err(|e| Failure::refused(format!("compress: {e}")))?;
                // Every tracked algorithm's throughput on this input, the
                // decided one from its span, the others timed alongside.
                for (tracked, _, _) in ALGORITHM_METRICS {
                    let ms = if tracked == alg {
                        log.spans.last().map_or(0.0, Span::ms)
                    } else {
                        let start = Instant::now();
                        compressor_for(tracked)
                            .compress(seq)
                            .map_err(|e| Failure::refused(format!("compress: {e}")))?;
                        start.elapsed().as_secs_f64() * 1e3
                    };
                    let e = self.out.compress_by_alg.entry(tracked.name()).or_default();
                    e.0 += seq.len() as u64;
                    e.1 += ms;
                }

                // The frame layer on the same input, whether or not the
                // service frames it (`frame.blocks_per_op` says if it did).
                if Algorithm::HORIZONTAL.contains(&alg) {
                    let block = self.plan.scale.block_bases;
                    let pc = ParallelCompressor::new(alg, block, Arc::clone(&layers.pool));
                    let (frame, _) =
                        log.time("frame.compress", rid, Some(job_span), || pc.compress(seq));
                    frame.map_err(|e| Failure::refused(format!("frame: {e}")))?;
                }

                let (put, _) = log.time("store.put", rid, Some(job_span), || {
                    layers.store.put(seq, &blob)
                });
                let put = put.map_err(|e| Failure::refused(format!("store put: {e}")))?;
                log.time("store.snapshot", rid, Some(job_span), || {
                    layers.store.snapshot()
                });

                // The read path on the same input: get what was just put
                // and decompress it.
                let (got, _) =
                    log.time("store.get", rid, Some(root), || layers.store.get(&put.key));
                let got = got.map_err(|e| Failure::refused(format!("store get: {e}")))?;
                let (back, _) = log.time("algos.decompress", rid, Some(root), || {
                    compressor_for(got.algorithm).decompress(&got)
                });
                if back.ok().as_ref() != Some(seq) {
                    return Err(Failure::mismatch(
                        "stored container decompresses to another sequence".into(),
                    ));
                }
                Ok(())
            }
            (OpInput::Get { index, key }, Reply::Get(blob)) => {
                let key = *key;
                // Parsed only: the front door already checked it, and the
                // direct decompress below is timed and checked again.
                let container = CompressedBlob::from_bytes(blob)
                    .map_err(|e| Failure::mismatch(format!("container does not parse: {e}")))?;
                let reply = Response::GetOk { blob: blob.clone() };
                proto_round_trip(log, rid, root, &Request::Get { key }, &reply)?;

                let (got, rpc) = log.time("net.shard_rpc", rid, Some(root), || direct.get(key));
                if got? != *blob {
                    return Err(Failure::mismatch(
                        "shard and front door served different bytes".into(),
                    ));
                }
                let (got, _) = log.time("store.get", rid, Some(rpc), || {
                    layers.store.get(&ContentKey(key))
                });
                let got = got.map_err(|e| Failure::refused(format!("store get: {e}")))?;
                if got.to_bytes() != *blob {
                    return Err(Failure::mismatch(
                        "store and front door served different bytes".into(),
                    ));
                }
                let (back, _) = log.time("algos.decompress", rid, Some(root), || {
                    compressor_for(container.algorithm).decompress(&container)
                });
                if back.ok().as_ref() != Some(&self.plan.preload[*index].0) {
                    return Err(Failure::mismatch(
                        "direct decompress differs from the input".into(),
                    ));
                }
                Ok(())
            }
            _ => unreachable!("replies match their inputs"),
        }
    }
}

fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("decision cache lock poisoned by a panicking client")
}

/// Encode the op's request and reply frames, then decode both and
/// check they come back unchanged.
fn proto_round_trip(
    log: &mut SpanLog,
    rid: u64,
    root: u64,
    req: &Request,
    resp: &Response,
) -> Result<(), Failure> {
    let ((req_frame, resp_frame), _) = log.time("proto.encode", rid, Some(root), || {
        (request_frame(req), response_frame(resp))
    });
    let (decoded, _) = log.time("proto.decode", rid, Some(root), || {
        let (t, payload, _) = decode_frame(&req_frame, MAX_WIRE_PAYLOAD)?;
        let req = Request::decode(t, &payload)?;
        let (t, payload, _) = decode_frame(&resp_frame, MAX_WIRE_PAYLOAD)?;
        Ok::<_, dnacomp_server::ProtoError>((req, Response::decode(t, &payload)?))
    });
    match decoded {
        Ok((r, s)) if r == *req && s == *resp => Ok(()),
        Ok(_) => Err(Failure::mismatch(
            "frames did not decode to what was encoded".into(),
        )),
        Err(e) => Err(Failure::mismatch(format!("frame decode: {e}"))),
    }
}

/// A put is acknowledged correctly when its key is the content key of
/// the input and the length matches.
fn check_put(resp: &Response, seq: &PackedSeq) -> Result<(), Failure> {
    match resp {
        Response::CompressOk {
            key, original_len, ..
        } => {
            let want = ContentKey::of_sequence(seq);
            if *key != Some(want.0) {
                return Err(Failure::mismatch(format!(
                    "CompressOk key {:?} is not the content key {}",
                    key.map(|k| ContentKey(k).to_hex()),
                    want.to_hex()
                )));
            }
            if *original_len != seq.len() as u64 {
                return Err(Failure::mismatch(format!(
                    "CompressOk length {original_len} for a {}-base input",
                    seq.len()
                )));
            }
            Ok(())
        }
        Response::Error { code, message } => Err(Failure::refused(format!("{code}: {message}"))),
        other => Err(Failure::refused(format!("unexpected reply {other:?}"))),
    }
}

/// Decode a served container and require it to decompress to exactly
/// `expected`.
fn decode_checked(blob: &[u8], expected: &PackedSeq) -> Result<CompressedBlob, Failure> {
    let container = CompressedBlob::from_bytes(blob)
        .map_err(|e| Failure::mismatch(format!("served container does not parse: {e}")))?;
    let back = compressor_for(container.algorithm)
        .decompress(&container)
        .map_err(|e| Failure::mismatch(format!("served container does not decompress: {e}")))?;
    if back != *expected {
        return Err(Failure::mismatch(
            "served container decompresses to another sequence".into(),
        ));
    }
    Ok(container)
}

/// Read back up to `sample` acknowledged puts through the front door,
/// untimed, and check each decompresses to exactly its input. Returns
/// (checked, failure messages).
pub fn read_back(
    plan: &Plan,
    front: SocketAddr,
    records: &[Record],
    sample: usize,
) -> (u64, Vec<String>) {
    let acked: Vec<&Record> = records
        .iter()
        .filter(|r| r.ok && r.kind == Kind::Put)
        .collect();
    if acked.is_empty() || sample == 0 {
        return (0, Vec::new());
    }
    let picks: Vec<&Record> = (0..sample.min(acked.len()))
        .map(|k| acked[k * acked.len() / sample.min(acked.len())])
        .collect();
    let mut conn = match NetClient::connect(front, CLIENT_TIMEOUT) {
        Ok(c) => c,
        Err(e) => return (picks.len() as u64, vec![format!("read-back connect: {e}")]),
    };
    let mut failures = Vec::new();
    for r in &picks {
        let OpInput::Put { seq, .. } = plan.op(r.index) else {
            continue;
        };
        let outcome = conn
            .get(r.key)
            .map_err(Failure::from)
            .and_then(|blob| decode_checked(&blob, &seq));
        if let Err(f) = outcome {
            failures.push(format!("read-back of op {}: {}", r.index, f.message));
        }
    }
    let _ = conn.bye();
    (picks.len() as u64, failures)
}
