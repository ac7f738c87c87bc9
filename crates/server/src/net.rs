//! The TCP front-end: a supervised listener that speaks the
//! [`crate::proto`] wire protocol on behalf of a [`CompressionService`].
//!
//! Design rules, in order:
//!
//! 1. **Every accepted frame gets exactly one typed reply or a clean
//!    close** — the wire extension of the service's "every ticket
//!    resolves exactly once" contract. Even refusals (`ServerBusy`,
//!    `Shed`, `TooLarge`) are frames, never silent drops.
//! 2. **No operation outlives its deadline.** Idle connections close
//!    after the idle budget; a frame that started must finish within
//!    the frame budget; a job reply must arrive within the request
//!    budget. Slow-loris peers therefore cost one frame budget, not a
//!    thread forever.
//! 3. **Violators get strikes, desyncers get killed.** A violation
//!    that leaves the stream at a frame boundary (bad checksum,
//!    unknown type, malformed payload) earns a typed `BadFrame` reply
//!    and a strike; [`NetConfig::max_strikes`] strikes end the
//!    connection. A violation that loses framing (bad magic, forged
//!    length, mid-frame timeout or EOF) kills the connection
//!    immediately — there is no longer a frame boundary to reply on.
//! 4. **Backpressure is typed and layered.** The connection cap
//!    refuses at accept with `ServerBusy`; the service's admission
//!    control sheds Low lanes first (`shed_above`), surfacing as
//!    typed `Shed` replies; a full queue surfaces as `ServerBusy`.
//!    Degradation is graceful at every layer — load never turns into
//!    hangs or aborts.

use crate::conn::{read_frame, write_frame, IO_TICK};
use crate::proto::{
    request_frame, response_frame, ErrorCode, ProtoError, Request, Response, MAX_WIRE_PAYLOAD,
    WIRE_VERSION,
};
use crate::queue::Priority;
use crate::service::{CompressRequest, CompressionService, JobError, SubmitError};
use dnacomp_algos::CompressedBlob;
use dnacomp_codec::checksum::fnv1a;
use dnacomp_core::{contain_panic, Context, Deadline};
use dnacomp_seq::PackedSeq;
use dnacomp_store::{ContentKey, SequenceStore, StoreError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Bases per chunk the client uses for streamed uploads: 64 KiB of
/// packed words per chunk, the same order as the framed container's
/// default block so a streamed upload maps 1:1 onto frame blocks.
pub const STREAM_CHUNK_BASES: u64 = 1 << 18;

/// Sequences longer than this are streamed (`CompressBegin`/`Chunk`/
/// `End`) instead of sent in one `Compress` frame.
pub const STREAM_THRESHOLD_BASES: usize = 1 << 20;

/// Front-end tuning knobs.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Concurrent connections before accept refuses with `ServerBusy`.
    pub max_connections: usize,
    /// Per-frame payload cap, bytes (affordability check).
    pub max_frame_payload: usize,
    /// Budget between frames before the server closes an idle
    /// connection cleanly.
    pub idle_timeout: Duration,
    /// Budget for the rest of a frame once its first byte arrived;
    /// exceeding it mid-frame is a kill offence (stream desync).
    pub frame_timeout: Duration,
    /// Budget for writing one reply frame.
    pub write_timeout: Duration,
    /// Budget from job submission to reply; exceeded ⇒ typed
    /// `Timeout` error reply (the ticket is abandoned, the service
    /// still resolves it internally).
    pub request_timeout: Duration,
    /// Frame-synced protocol violations tolerated before the kill.
    pub max_strikes: u32,
    /// Cap on a streamed upload's declared total length, bases.
    pub max_total_bases: u64,
    /// Run submitted jobs through the full cloud exchange.
    pub exchange: bool,
    /// Store for `get`/`stat` requests (also what the service
    /// persists into when it was started with one).
    pub store: Option<Arc<SequenceStore>>,
    /// Ring epoch this node is pinned to. `None` (the default) means
    /// epoch-agnostic: any [`Request::HelloEpoch`] or migration batch
    /// is accepted and the peer's epoch echoed back. `Some(e)` refuses
    /// mismatching epochs with a typed `WrongShard`.
    pub epoch: Option<u64>,
    /// Shard id this node answers to in `HelloEpoch` identity checks
    /// (0 = unsharded, the default).
    pub shard_id: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 64,
            max_frame_payload: MAX_WIRE_PAYLOAD,
            idle_timeout: Duration::from_secs(10),
            frame_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(30),
            max_strikes: 3,
            max_total_bases: 1 << 26,
            exchange: false,
            store: None,
            epoch: None,
            shard_id: 0,
        }
    }
}

/// A running TCP front-end. [`shutdown`](NetServer::shutdown) (or
/// drop) stops accepting, drains in-flight connections and joins
/// every handler thread.
#[derive(Debug)]
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `service`.
    pub fn start(
        service: Arc<CompressionService>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let active = Arc::new(AtomicUsize::new(0));

        let accept_stop = Arc::clone(&stop);
        let accept_handlers = Arc::clone(&handlers);
        let accept_thread = std::thread::Builder::new()
            .name("net-accept".into())
            .spawn(move || {
                let mut conn_id: u64 = 0;
                while !accept_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            conn_id += 1;
                            if active.load(Ordering::Relaxed) >= config.max_connections {
                                refuse_busy(&service, stream, &config);
                                continue;
                            }
                            active.fetch_add(1, Ordering::Relaxed);
                            let service = Arc::clone(&service);
                            let cfg = config.clone();
                            let stop = Arc::clone(&accept_stop);
                            let active = Arc::clone(&active);
                            let handle = std::thread::Builder::new()
                                .name(format!("net-conn-{conn_id}"))
                                .spawn(move || {
                                    service.metrics().record_conn_accepted();
                                    // A handler panic must close its own
                                    // connection's books, never the server.
                                    let killed = contain_panic(|| {
                                        handle_conn(stream, &service, &cfg, &stop)
                                    })
                                    .unwrap_or(true);
                                    if killed {
                                        service.metrics().record_conn_killed();
                                    }
                                    service.metrics().record_conn_closed();
                                    active.fetch_sub(1, Ordering::Relaxed);
                                })
                                .expect("spawn connection handler");
                            let mut hs = lock_handlers(&accept_handlers);
                            hs.retain(|h| !h.is_finished());
                            hs.push(handle);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })?;

        Ok(NetServer {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            handlers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, drain in-flight connections and join every
    /// thread. Handlers notice the stop flag at their next frame
    /// boundary (within one idle-poll slice), finish the frame they
    /// are serving, and close — so the drain is bounded by one frame
    /// budget plus one request budget, not by client goodwill.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let handles: Vec<_> = lock_handlers(&self.handlers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn lock_handlers(
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
    match handlers.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Best-effort `ServerBusy` refusal for an over-cap accept: the peer
/// gets a typed reason when it can read one, and a close either way.
fn refuse_busy(service: &CompressionService, mut stream: TcpStream, config: &NetConfig) {
    service.metrics().record_conn_refused();
    let _ = stream.set_write_timeout(Some(IO_TICK));
    let frame = response_frame(&Response::Error {
        code: ErrorCode::ServerBusy,
        message: "connection cap reached".into(),
    });
    if write_frame(&mut stream, &frame, Deadline::after(config.write_timeout)).is_ok() {
        service.metrics().record_frame_tx(frame.len() as u64);
    }
}

/// State of one in-progress streamed upload.
struct Upload {
    file: String,
    priority: Priority,
    context: Context,
    total_len: u64,
    chunk_bases: u64,
    next: u64,
    words: Vec<u8>,
}

impl Upload {
    fn chunk_count(&self) -> u64 {
        self.total_len.div_ceil(self.chunk_bases)
    }

    fn expected_words(&self, index: u64) -> u64 {
        let start = index * self.chunk_bases;
        let bases = self.total_len.saturating_sub(start).min(self.chunk_bases);
        bases.div_ceil(4)
    }
}

/// What handling one frame decided about the connection's future.
enum Flow {
    /// Keep serving frames.
    Continue,
    /// Clean close (Bye, or post-reply shutdown drain).
    Close,
    /// Supervisor kill: desync or strike budget exhausted.
    Kill,
}

/// Serve one connection to completion. Returns `true` when the
/// connection was killed (vs closed cleanly).
fn handle_conn(
    mut stream: TcpStream,
    service: &CompressionService,
    cfg: &NetConfig,
    stop: &AtomicBool,
) -> bool {
    let _ = stream.set_read_timeout(Some(IO_TICK));
    let _ = stream.set_write_timeout(Some(IO_TICK));
    let _ = stream.set_nodelay(true);
    let m = service.metrics();

    let mut strikes: u32 = 0;
    let mut handshaken = false;
    let mut upload: Option<Upload> = None;
    let mut idle = Deadline::after(cfg.idle_timeout);

    loop {
        if stop.load(Ordering::Relaxed) {
            return false; // drain: frame boundary, close cleanly
        }
        // Short idle slices keep the shutdown flag observed promptly
        // while the overall idle budget stays `idle_timeout`.
        let slice = Deadline::after(idle.remaining().min(Duration::from_millis(50)));
        let (ftype, payload, wire) =
            match read_frame(&mut stream, cfg.max_frame_payload, slice, cfg.frame_timeout) {
                Ok(frame) => frame,
                Err(ProtoError::Idle) => {
                    if idle.expired() {
                        return false; // clean idle close
                    }
                    continue;
                }
                Err(ProtoError::Closed) => return false,
                Err(ProtoError::ChecksumMismatch { .. }) => {
                    // Frame-synced violation: the whole frame was
                    // consumed, so a typed reply is still possible.
                    m.record_protocol_error();
                    strikes += 1;
                    let flow = send_reply(
                        &mut stream,
                        service,
                        cfg,
                        &Response::Error {
                            code: ErrorCode::BadFrame,
                            message: "frame checksum mismatch".into(),
                        },
                    );
                    if strikes >= cfg.max_strikes || matches!(flow, Flow::Kill) {
                        return true;
                    }
                    idle = Deadline::after(cfg.idle_timeout);
                    continue;
                }
                Err(e) => {
                    // Desync: bad magic/version, forged length, torn
                    // frame, mid-frame timeout, transport error. No
                    // frame boundary remains — best-effort typed
                    // refusal, then kill.
                    m.record_protocol_error();
                    let code = match e {
                        ProtoError::Oversize { .. } => ErrorCode::TooLarge,
                        _ => ErrorCode::BadFrame,
                    };
                    let _ = send_reply(
                        &mut stream,
                        service,
                        cfg,
                        &Response::Error {
                            code,
                            message: e.to_string(),
                        },
                    );
                    return true;
                }
            };
        m.record_frame_rx(wire);
        idle = Deadline::after(cfg.idle_timeout);

        let req = match Request::decode(ftype, &payload) {
            Ok(req) => req,
            Err(e) => {
                // Payload-level violation: frame-synced, reply + strike.
                m.record_protocol_error();
                strikes += 1;
                let flow = send_reply(
                    &mut stream,
                    service,
                    cfg,
                    &Response::Error {
                        code: ErrorCode::BadFrame,
                        message: e.to_string(),
                    },
                );
                if strikes >= cfg.max_strikes || matches!(flow, Flow::Kill) {
                    return true;
                }
                continue;
            }
        };

        let (reply, flow, strike) = dispatch(service, cfg, &mut handshaken, &mut upload, req);
        if strike {
            m.record_protocol_error();
            strikes += 1;
        }
        let wrote = send_reply(&mut stream, service, cfg, &reply);
        if matches!(wrote, Flow::Kill) {
            return false; // peer vanished mid-reply: close, not a kill
        }
        match flow {
            Flow::Kill => return true,
            Flow::Close => return false,
            Flow::Continue => {
                if strikes >= cfg.max_strikes {
                    return true;
                }
            }
        }
    }
}

/// Write one reply frame; `Flow::Kill` here means the write failed
/// (peer gone or write deadline blown).
fn send_reply(
    stream: &mut TcpStream,
    service: &CompressionService,
    cfg: &NetConfig,
    resp: &Response,
) -> Flow {
    let frame = response_frame(resp);
    match write_frame(stream, &frame, Deadline::after(cfg.write_timeout)) {
        Ok(()) => {
            service.metrics().record_frame_tx(frame.len() as u64);
            Flow::Continue
        }
        Err(_) => Flow::Kill,
    }
}

/// Vet a ring-aware handshake against this node's pinned identity.
/// Returns `(reply, flow, strike)`; the caller flips `handshaken` on
/// success.
fn epoch_handshake(cfg: &NetConfig, version: u8, epoch: u64, shard: u32) -> (Response, Flow, bool) {
    if version != WIRE_VERSION {
        return (
            Response::Error {
                code: ErrorCode::Handshake,
                message: format!("server speaks version {WIRE_VERSION}, client {version}"),
            },
            Flow::Kill,
            true,
        );
    }
    if shard != cfg.shard_id {
        return (
            Response::Error {
                code: ErrorCode::WrongShard,
                message: format!(
                    "this node is shard {}, client addressed shard {shard}",
                    cfg.shard_id
                ),
            },
            Flow::Kill,
            true,
        );
    }
    if let Some(pinned) = cfg.epoch {
        if epoch != pinned {
            return (
                Response::Error {
                    code: ErrorCode::WrongShard,
                    message: format!("stale ring epoch {epoch:#x} (node pinned to {pinned:#x})"),
                },
                Flow::Kill,
                true,
            );
        }
    }
    (
        Response::HelloEpochOk {
            version: WIRE_VERSION,
            epoch: cfg.epoch.unwrap_or(epoch),
            shard: cfg.shard_id,
        },
        Flow::Continue,
        false,
    )
}

/// Handle one decoded request. Returns `(reply, flow, strike)`.
fn dispatch(
    service: &CompressionService,
    cfg: &NetConfig,
    handshaken: &mut bool,
    upload: &mut Option<Upload>,
    req: Request,
) -> (Response, Flow, bool) {
    // The handshake gate: before Hello, only Hello.
    if !*handshaken {
        return match req {
            Request::Hello { version } if version == WIRE_VERSION => {
                *handshaken = true;
                (
                    Response::HelloOk {
                        version: WIRE_VERSION,
                    },
                    Flow::Continue,
                    false,
                )
            }
            Request::Hello { version } => (
                Response::Error {
                    code: ErrorCode::Handshake,
                    message: format!("server speaks version {WIRE_VERSION}, client {version}"),
                },
                Flow::Kill,
                true,
            ),
            Request::HelloEpoch {
                version,
                epoch,
                shard,
            } => {
                let (reply, flow, strike) = epoch_handshake(cfg, version, epoch, shard);
                if matches!(reply, Response::HelloEpochOk { .. }) {
                    *handshaken = true;
                }
                (reply, flow, strike)
            }
            _ => (
                Response::Error {
                    code: ErrorCode::Handshake,
                    message: "first frame must be Hello".into(),
                },
                Flow::Continue,
                true,
            ),
        };
    }

    match req {
        Request::Hello { .. } => (
            Response::HelloOk {
                version: WIRE_VERSION,
            },
            Flow::Continue,
            false,
        ),
        Request::Ping => (Response::Pong, Flow::Continue, false),
        Request::Metrics => (
            Response::MetricsOk {
                json: service.metrics().snapshot().to_json(),
            },
            Flow::Continue,
            false,
        ),
        Request::Bye => (Response::ByeOk, Flow::Close, false),
        Request::Compress {
            file,
            priority,
            context,
            seq_len,
            words,
        } => match PackedSeq::from_words(words, seq_len as usize) {
            Ok(seq) => (
                run_job(service, cfg, file, seq, priority, context),
                Flow::Continue,
                false,
            ),
            Err(_) => (
                Response::Error {
                    code: ErrorCode::BadSequence,
                    message: "packed words do not form a sequence".into(),
                },
                Flow::Continue,
                true,
            ),
        },
        Request::CompressBegin {
            file,
            priority,
            context,
            total_len,
            chunk_bases,
        } => {
            if upload.is_some() {
                return (
                    Response::Error {
                        code: ErrorCode::BadFrame,
                        message: "upload already open".into(),
                    },
                    Flow::Continue,
                    true,
                );
            }
            if chunk_bases == 0 || chunk_bases % 4 != 0 {
                return (
                    Response::Error {
                        code: ErrorCode::BadFrame,
                        message: "chunk_bases must be a positive multiple of 4".into(),
                    },
                    Flow::Continue,
                    true,
                );
            }
            if total_len > cfg.max_total_bases {
                return (
                    Response::Error {
                        code: ErrorCode::TooLarge,
                        message: format!(
                            "total_len {total_len} exceeds cap {}",
                            cfg.max_total_bases
                        ),
                    },
                    Flow::Continue,
                    false,
                );
            }
            if chunk_bases.div_ceil(4) > cfg.max_frame_payload as u64 {
                return (
                    Response::Error {
                        code: ErrorCode::TooLarge,
                        message: "chunk_bases exceeds the frame payload cap".into(),
                    },
                    Flow::Continue,
                    false,
                );
            }
            // Affordability: reserve from the *declared* geometry only
            // after every bound above held.
            *upload = Some(Upload {
                file,
                priority,
                context,
                total_len,
                chunk_bases,
                next: 0,
                words: Vec::with_capacity(total_len.div_ceil(4) as usize),
            });
            (Response::Ack, Flow::Continue, false)
        }
        Request::CompressChunk { index, words } => {
            let Some(up) = upload.as_mut() else {
                return (
                    Response::Error {
                        code: ErrorCode::BadFrame,
                        message: "chunk without an open upload".into(),
                    },
                    Flow::Continue,
                    true,
                );
            };
            if index != up.next || index >= up.chunk_count() {
                let msg = format!("chunk {index} out of order (expected {})", up.next);
                *upload = None;
                return (
                    Response::Error {
                        code: ErrorCode::BadFrame,
                        message: msg,
                    },
                    Flow::Continue,
                    true,
                );
            }
            if words.len() as u64 != up.expected_words(index) {
                let msg = format!(
                    "chunk {index} carries {} words, geometry says {}",
                    words.len(),
                    up.expected_words(index)
                );
                *upload = None;
                return (
                    Response::Error {
                        code: ErrorCode::BadSequence,
                        message: msg,
                    },
                    Flow::Continue,
                    true,
                );
            }
            up.words.extend_from_slice(&words);
            up.next += 1;
            (Response::Ack, Flow::Continue, false)
        }
        Request::CompressEnd { checksum } => {
            let Some(up) = upload.take() else {
                return (
                    Response::Error {
                        code: ErrorCode::BadFrame,
                        message: "end without an open upload".into(),
                    },
                    Flow::Continue,
                    true,
                );
            };
            if up.next != up.chunk_count() {
                return (
                    Response::Error {
                        code: ErrorCode::BadSequence,
                        message: format!(
                            "upload ended after {} of {} chunks",
                            up.next,
                            up.chunk_count()
                        ),
                    },
                    Flow::Continue,
                    true,
                );
            }
            if fnv1a(&up.words) != checksum {
                return (
                    Response::Error {
                        code: ErrorCode::BadSequence,
                        message: "reassembled sequence fails its checksum".into(),
                    },
                    Flow::Continue,
                    true,
                );
            }
            match PackedSeq::from_words(up.words, up.total_len as usize) {
                Ok(seq) => (
                    run_job(service, cfg, up.file, seq, up.priority, up.context),
                    Flow::Continue,
                    false,
                ),
                Err(_) => (
                    Response::Error {
                        code: ErrorCode::BadSequence,
                        message: "packed words do not form a sequence".into(),
                    },
                    Flow::Continue,
                    true,
                ),
            }
        }
        Request::Get { key } => {
            let Some(store) = cfg.store.as_deref() else {
                return (
                    Response::Error {
                        code: ErrorCode::NoStore,
                        message: "no store attached".into(),
                    },
                    Flow::Continue,
                    false,
                );
            };
            match store.get(&ContentKey(key)) {
                Ok(blob) => {
                    let bytes = blob.to_bytes();
                    if bytes.len() > cfg.max_frame_payload {
                        (
                            Response::Error {
                                code: ErrorCode::TooLarge,
                                message: "stored blob exceeds the frame payload cap".into(),
                            },
                            Flow::Continue,
                            false,
                        )
                    } else {
                        (Response::GetOk { blob: bytes }, Flow::Continue, false)
                    }
                }
                Err(StoreError::NotFound(k)) => (
                    Response::Error {
                        code: ErrorCode::UnknownKey,
                        message: format!("no record under {}", k.to_hex()),
                    },
                    Flow::Continue,
                    false,
                ),
                Err(e) => (
                    Response::Error {
                        code: ErrorCode::JobFailed,
                        message: format!("store read failed: {e}"),
                    },
                    Flow::Continue,
                    false,
                ),
            }
        }
        Request::Stat { key } => {
            let Some(store) = cfg.store.as_deref() else {
                return (
                    Response::Error {
                        code: ErrorCode::NoStore,
                        message: "no store attached".into(),
                    },
                    Flow::Continue,
                    false,
                );
            };
            let json = match key {
                None => {
                    let s = store.snapshot();
                    format!(
                        concat!(
                            "{{\"records\":{},\"segments\":{},",
                            "\"runs\":{},\"tombstones\":{},",
                            "\"bytes_on_disk\":{},\"live_bytes\":{},",
                            "\"puts\":{},\"dedup_hits\":{},",
                            "\"removes\":{},\"scrub_failures\":{},",
                            "\"seals\":{},\"merges\":{},",
                            "\"bloom_negatives\":{},",
                            "\"cache_hits\":{},\"cache_misses\":{},",
                            "\"wal_appends\":{},\"wal_batches\":{}}}"
                        ),
                        s.records,
                        s.segments,
                        s.runs,
                        s.tombstones,
                        s.bytes_on_disk,
                        s.live_bytes,
                        s.puts,
                        s.dedup_hits,
                        s.removes,
                        s.scrub_failures,
                        s.seals,
                        s.merges,
                        s.bloom_negatives,
                        s.cache_hits,
                        s.cache_misses,
                        s.wal_appends,
                        s.wal_batches
                    )
                }
                Some(key) => match store.stat(&ContentKey(key)) {
                    Some(rs) => format!(
                        concat!(
                            "{{\"key\":\"{}\",\"algorithm\":\"{}\",",
                            "\"original_len\":{},\"stored_bytes\":{},",
                            "\"segment\":{},\"level\":{}}}"
                        ),
                        rs.key.to_hex(),
                        rs.algorithm.name(),
                        rs.original_len,
                        rs.stored_bytes,
                        rs.segment,
                        rs.level
                    ),
                    None => {
                        return (
                            Response::Error {
                                code: ErrorCode::UnknownKey,
                                message: format!(
                                    "no record under {}",
                                    ContentKey(key).to_hex()
                                ),
                            },
                            Flow::Continue,
                            false,
                        )
                    }
                },
            };
            (Response::StatOk { json }, Flow::Continue, false)
        }
        Request::HelloEpoch {
            version,
            epoch,
            shard,
        } => epoch_handshake(cfg, version, epoch, shard),
        Request::Keys => {
            let Some(store) = cfg.store.as_deref() else {
                return (
                    Response::Error {
                        code: ErrorCode::NoStore,
                        message: "no store attached".into(),
                    },
                    Flow::Continue,
                    false,
                );
            };
            let keys: Vec<[u8; 16]> = store.keys().into_iter().map(|k| k.0).collect();
            // The key list must fit one reply frame; 10 bytes covers
            // the count uvarint.
            if keys.len() * 16 + 10 > cfg.max_frame_payload {
                (
                    Response::Error {
                        code: ErrorCode::TooLarge,
                        message: format!("{} keys exceed the reply frame cap", keys.len()),
                    },
                    Flow::Continue,
                    false,
                )
            } else {
                (Response::KeysOk { keys }, Flow::Continue, false)
            }
        }
        Request::Remove { key } => {
            let Some(store) = cfg.store.as_deref() else {
                return (
                    Response::Error {
                        code: ErrorCode::NoStore,
                        message: "no store attached".into(),
                    },
                    Flow::Continue,
                    false,
                );
            };
            match store.remove(&ContentKey(key)) {
                Ok(existed) => (Response::RemoveOk { existed }, Flow::Continue, false),
                Err(e) => (
                    Response::Error {
                        code: ErrorCode::JobFailed,
                        message: format!("remove failed: {e}"),
                    },
                    Flow::Continue,
                    false,
                ),
            }
        }
        Request::MigrateBatch { epoch, records } => {
            let Some(store) = cfg.store.as_deref() else {
                return (
                    Response::Error {
                        code: ErrorCode::NoStore,
                        message: "no store attached".into(),
                    },
                    Flow::Continue,
                    false,
                );
            };
            if let Some(pinned) = cfg.epoch {
                if epoch != pinned {
                    // A correctness refusal, not a protocol violation:
                    // the batch framed cleanly, the sender's ring is
                    // just stale. No strike, connection survives.
                    return (
                        Response::Error {
                            code: ErrorCode::WrongShard,
                            message: format!(
                                "migration planned under epoch {epoch:#x}, node pinned to {pinned:#x}"
                            ),
                        },
                        Flow::Continue,
                        false,
                    );
                }
            }
            let mut stored = 0u64;
            let mut deduped = 0u64;
            for (idx, (key, bytes)) in records.iter().enumerate() {
                let blob = match CompressedBlob::from_bytes(bytes) {
                    Ok(blob) => blob,
                    Err(_) => {
                        return (
                            Response::Error {
                                code: ErrorCode::BadSequence,
                                message: format!("record {idx} is not a valid container"),
                            },
                            Flow::Continue,
                            true,
                        )
                    }
                };
                match store.put_with_key(ContentKey(*key), &blob) {
                    Ok(outcome) => {
                        stored += 1;
                        if outcome.deduped {
                            deduped += 1;
                        }
                    }
                    Err(e) => {
                        return (
                            Response::Error {
                                code: ErrorCode::JobFailed,
                                message: format!("record {idx} write failed: {e}"),
                            },
                            Flow::Continue,
                            false,
                        )
                    }
                }
            }
            (Response::MigrateOk { stored, deduped }, Flow::Continue, false)
        }
    }
}

/// Submit one job and wait (bounded) for its ticket.
fn run_job(
    service: &CompressionService,
    cfg: &NetConfig,
    file: String,
    seq: PackedSeq,
    priority: Priority,
    context: Context,
) -> Response {
    let req = CompressRequest {
        file,
        sequence: seq,
        context,
        priority,
        deadline: Some(cfg.request_timeout),
        exchange: cfg.exchange,
    };
    let ticket = match service.submit(req) {
        Ok(t) => t,
        Err(SubmitError::QueueFull) => {
            return Response::Error {
                code: ErrorCode::ServerBusy,
                message: "submission queue full".into(),
            }
        }
        Err(SubmitError::ShuttingDown) => {
            return Response::Error {
                code: ErrorCode::ServerBusy,
                message: "service shutting down".into(),
            }
        }
    };
    let deadline = Deadline::after(cfg.request_timeout);
    let result = loop {
        if let Some(r) = ticket.try_wait() {
            break r;
        }
        if deadline.expired() {
            // The ticket still resolves inside the service; the wire
            // contract only promises this *frame* a typed reply.
            return Response::Error {
                code: ErrorCode::Timeout,
                message: "job still running at the request deadline".into(),
            };
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    match result {
        Ok(resp) => Response::CompressOk {
            file: resp.file,
            algorithm: resp.algorithm.tag(),
            original_len: resp.original_len as u64,
            compressed_bytes: resp.compressed_bytes as u64,
            blocks: resp.blocks as u64,
            sim_ms: resp.sim_ms,
            cache_hit: resp.cache_hit,
            key: resp.persisted.map(|p| p.key.0),
        },
        Err(e @ JobError::Shed { .. }) => Response::Error {
            code: ErrorCode::Shed,
            message: e.to_string(),
        },
        Err(e @ JobError::Expired { .. }) => Response::Error {
            code: ErrorCode::Timeout,
            message: e.to_string(),
        },
        Err(e) => Response::Error {
            code: ErrorCode::JobFailed,
            message: e.to_string(),
        },
    }
}

/// A typed failure from a [`NetClient`] call.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientError {
    /// Transport or framing failure.
    Proto(ProtoError),
    /// The server answered with a typed error frame.
    Server {
        /// The machine-readable reason.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The server answered with a frame of the wrong type.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected reply: {what}"),
        }
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// A protocol client over any byte stream — a plain `TcpStream` in
/// production, a [`crate::conn::FaultyStream`] in the chaos tests.
#[derive(Debug)]
pub struct NetClient<S> {
    stream: S,
    cap: usize,
    timeout: Duration,
}

impl NetClient<TcpStream> {
    /// Connect, configure tick timeouts, and run the handshake.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ProtoError::Io(e.kind()))?;
        stream
            .set_read_timeout(Some(IO_TICK))
            .map_err(|e| ProtoError::Io(e.kind()))?;
        stream
            .set_write_timeout(Some(IO_TICK))
            .map_err(|e| ProtoError::Io(e.kind()))?;
        let _ = stream.set_nodelay(true);
        let mut client = NetClient::over(stream, timeout);
        client.handshake()?;
        Ok(client)
    }
}

impl<S: Read + Write> NetClient<S> {
    /// Wrap an already-configured stream (no handshake yet). The
    /// stream's own read/write timeouts should be short ticks (see
    /// [`IO_TICK`]) for the deadline loops to work.
    pub fn over(stream: S, timeout: Duration) -> Self {
        NetClient {
            stream,
            cap: MAX_WIRE_PAYLOAD,
            timeout,
        }
    }

    /// Say Hello and require a matching HelloOk.
    pub fn handshake(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Hello {
            version: WIRE_VERSION,
        })? {
            Response::HelloOk { version } if version == WIRE_VERSION => Ok(()),
            Response::HelloOk { .. } => Err(ClientError::Unexpected("handshake version")),
            other => Err(unexpected(other, "HelloOk")),
        }
    }

    /// One request/response exchange, bounded by the client timeout.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let frame = request_frame(req);
        write_frame(&mut self.stream, &frame, Deadline::after(self.timeout))?;
        let (t, payload, _) = read_frame(
            &mut self.stream,
            self.cap,
            Deadline::after(self.timeout),
            self.timeout,
        )?;
        Ok(Response::decode(t, &payload)?)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(other, "Pong")),
        }
    }

    /// Fetch the service metrics snapshot as JSON.
    pub fn metrics_json(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::MetricsOk { json } => Ok(json),
            other => Err(unexpected(other, "MetricsOk")),
        }
    }

    /// Ring-aware handshake: assert the ring epoch and the shard id
    /// this connection is meant for, and require the node to agree.
    pub fn handshake_epoch(&mut self, epoch: u64, shard: u32) -> Result<(), ClientError> {
        match self.call(&Request::HelloEpoch {
            version: WIRE_VERSION,
            epoch,
            shard,
        })? {
            Response::HelloEpochOk {
                version,
                epoch: server_epoch,
                shard: server_shard,
            } => {
                if version != WIRE_VERSION {
                    return Err(ClientError::Unexpected("handshake version"));
                }
                if server_epoch != epoch || server_shard != shard {
                    return Err(ClientError::Unexpected("handshake ring identity"));
                }
                Ok(())
            }
            other => Err(unexpected(other, "HelloEpochOk")),
        }
    }

    /// List every content key resident in the node's store.
    pub fn keys(&mut self) -> Result<Vec<[u8; 16]>, ClientError> {
        match self.call(&Request::Keys)? {
            Response::KeysOk { keys } => Ok(keys),
            other => Err(unexpected(other, "KeysOk")),
        }
    }

    /// Remove one record by content key; `Ok(existed)`.
    pub fn remove(&mut self, key: [u8; 16]) -> Result<bool, ClientError> {
        match self.call(&Request::Remove { key })? {
            Response::RemoveOk { existed } => Ok(existed),
            other => Err(unexpected(other, "RemoveOk")),
        }
    }

    /// Ship a checksummed batch of records into the node's store;
    /// `Ok((stored, deduped))`.
    pub fn migrate_batch(
        &mut self,
        epoch: u64,
        records: Vec<([u8; 16], Vec<u8>)>,
    ) -> Result<(u64, u64), ClientError> {
        match self.call(&Request::MigrateBatch { epoch, records })? {
            Response::MigrateOk { stored, deduped } => Ok((stored, deduped)),
            other => Err(unexpected(other, "MigrateOk")),
        }
    }

    /// Compress one sequence, streaming it in chunks when it is
    /// longer than [`STREAM_THRESHOLD_BASES`].
    pub fn compress(
        &mut self,
        file: &str,
        seq: &PackedSeq,
        priority: Priority,
        context: Context,
    ) -> Result<Response, ClientError> {
        if seq.len() <= STREAM_THRESHOLD_BASES {
            return self.call(&Request::Compress {
                file: file.to_owned(),
                priority,
                context,
                seq_len: seq.len() as u64,
                words: seq.as_words().to_vec(),
            });
        }
        self.compress_streamed(file, seq, priority, context, STREAM_CHUNK_BASES)
    }

    /// Compress via the streamed path with an explicit chunk size.
    pub fn compress_streamed(
        &mut self,
        file: &str,
        seq: &PackedSeq,
        priority: Priority,
        context: Context,
        chunk_bases: u64,
    ) -> Result<Response, ClientError> {
        let words = seq.as_words();
        let total_len = seq.len() as u64;
        expect_ack(self.call(&Request::CompressBegin {
            file: file.to_owned(),
            priority,
            context,
            total_len,
            chunk_bases,
        })?)?;
        let chunk_words = (chunk_bases / 4) as usize;
        for (index, chunk) in words.chunks(chunk_words.max(1)).enumerate() {
            expect_ack(self.call(&Request::CompressChunk {
                index: index as u64,
                words: chunk.to_vec(),
            })?)?;
        }
        self.call(&Request::CompressEnd {
            checksum: fnv1a(words),
        })
    }

    /// Fetch a stored container's bytes by content key.
    pub fn get(&mut self, key: [u8; 16]) -> Result<Vec<u8>, ClientError> {
        match self.call(&Request::Get { key })? {
            Response::GetOk { blob } => Ok(blob),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(unexpected(other, "GetOk")),
        }
    }

    /// Store statistics (whole store, or one record).
    pub fn stat(&mut self, key: Option<[u8; 16]>) -> Result<String, ClientError> {
        match self.call(&Request::Stat { key })? {
            Response::StatOk { json } => Ok(json),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(unexpected(other, "StatOk")),
        }
    }

    /// Clean goodbye; consumes the client.
    pub fn bye(mut self) -> Result<(), ClientError> {
        match self.call(&Request::Bye)? {
            Response::ByeOk => Ok(()),
            other => Err(unexpected(other, "ByeOk")),
        }
    }

    /// The wrapped stream (chaos tests inspect fault state).
    pub fn stream_ref(&self) -> &S {
        &self.stream
    }
}

fn expect_ack(resp: Response) -> Result<(), ClientError> {
    match resp {
        Response::Ack => Ok(()),
        Response::Error { code, message } => Err(ClientError::Server { code, message }),
        other => Err(unexpected(other, "Ack")),
    }
}

fn unexpected(resp: Response, wanted: &'static str) -> ClientError {
    match resp {
        Response::Error { code, message } => ClientError::Server { code, message },
        _ => ClientError::Unexpected(wanted),
    }
}
