//! The connection core every `"DW"` endpoint runs on, plus bounded
//! frame I/O and the stream wrappers the router and the chaos tests use.
//!
//! `serve` owns everything per connection that the shard
//! ([`crate::net::NetServer`]) and the router
//! ([`crate::router::RouterServer`]) have in common. An endpoint
//! supplies only a `Handler`: its `HelloEpoch` rule, what it does
//! with an assembled sequence, and its answers to every other request.
//! The core's rules, in order:
//!
//! 1. **Every accepted frame gets exactly one typed reply or a clean
//!    close** — the wire extension of the service's "every ticket
//!    resolves exactly once" contract. Even refusals (`ServerBusy`,
//!    `TooLarge`, `Handshake`) are frames, never silent drops.
//! 2. **No operation outlives its deadline.** Idle connections close
//!    after the idle budget; a frame that started must finish within
//!    the frame budget; a reply must be written within the write
//!    budget. Slow-loris peers therefore cost one frame budget, not a
//!    thread forever.
//! 3. **Violators get strikes, desyncers get killed.** A violation
//!    that leaves the stream at a frame boundary (bad checksum,
//!    unknown type, malformed payload, traffic before `Hello`) earns a
//!    typed reply and a strike; [`ConnConfig::max_strikes`] strikes end
//!    the connection. A violation that loses framing (bad magic,
//!    forged length, mid-frame timeout or EOF) kills the connection
//!    immediately — there is no longer a frame boundary to reply on. A
//!    `Hello` or `HelloEpoch` of the wrong version, before or after the
//!    handshake, is refused and killed.
//! 4. **The cap is typed.** Over [`ConnConfig::max_connections`], a
//!    connection is accepted only to be refused with `ServerBusy`.
//!
//! Accept blocks. Shutdown sets the stop flag and wakes the accept
//! with one connection to the bound address; every connection thread
//! sees the flag at its next frame boundary (within one idle slice)
//! and closes cleanly, so the drain is bounded by server budgets, not
//! by client goodwill.
//!
//! Frame I/O builds its deadlines from two layers: the stream's own
//! read/write timeout is set to a short tick ([`IO_TICK`]), and the
//! loops here treat a `WouldBlock`/`TimedOut` tick as a chance to
//! check a [`Deadline`], not as an error. That turns the OS timeout
//! primitive (coarse, per-call) into a precise per-frame budget. The
//! incremental reader enforces the same affordability discipline as
//! [`crate::proto::decode_frame`]: the declared payload length is
//! validated against the cap *before* the payload buffer exists.

use crate::metrics::ConnStats;
use crate::proto::{
    frame_checksum_of, response_frame, ErrorCode, ProtoError, Request, Response, FRAME_OVERHEAD,
    MAX_WIRE_PAYLOAD, WIRE_MAGIC, WIRE_VERSION,
};
use crate::queue::Priority;
use dnacomp_cloud::FaultPlan;
use dnacomp_codec::checksum::fnv1a;
use dnacomp_core::{contain_panic, Context, Deadline};
use dnacomp_seq::PackedSeq;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Stream-level read/write timeout: the polling tick the deadline
/// loops are built from. Short enough that idle/frame budgets are
/// honoured within one tick of slack.
pub const IO_TICK: Duration = Duration::from_millis(20);

/// Longest wait for the next frame before a connection thread looks at
/// the stop flag again.
const IDLE_SLICE: Duration = Duration::from_millis(50);

/// Budget for the connection that wakes a blocked accept at shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Limits and budgets of one endpoint's client connections, the same
/// for the shard and the router.
#[derive(Clone, Copy, Debug)]
pub struct ConnConfig {
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
    /// Frame-synced protocol violations tolerated before the kill.
    pub max_strikes: u32,
    /// Cap on a streamed upload's declared total length, bases.
    pub max_total_bases: u64,
}

impl Default for ConnConfig {
    fn default() -> Self {
        ConnConfig {
            max_connections: 64,
            max_frame_payload: MAX_WIRE_PAYLOAD,
            idle_timeout: Duration::from_secs(10),
            frame_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            max_strikes: 3,
            max_total_bases: 1 << 26,
        }
    }
}

/// What one endpoint does with the requests the core has vetted.
pub(crate) trait Handler: Send + Sync + 'static {
    /// The counters the core keeps for this endpoint's connections.
    fn stats(&self) -> &ConnStats;

    /// Vet a `HelloEpoch` whose version the gate already accepted:
    /// `Ok` carries the `HelloEpochOk`, `Err` a refusal that kills the
    /// connection.
    fn hello_epoch(&self, epoch: u64, shard: u32) -> Result<Response, Response>;

    /// Compress one assembled sequence, uploaded in one frame or
    /// streamed in chunks.
    fn compress(
        &self,
        file: String,
        seq: PackedSeq,
        priority: Priority,
        context: Context,
    ) -> Response;

    /// Answer any other request past the gate (`Metrics`, `Get`,
    /// `Stat`, `Keys`, `Remove`, `MigrateBatch`); `true` marks a
    /// frame-synced protocol violation, which costs a strike.
    fn dispatch(&self, req: Request) -> (Response, bool);
}

/// A typed error reply.
pub(crate) fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

/// A running endpoint: its accept thread and one thread per
/// connection. [`shutdown`](Endpoint::shutdown), or drop, stops
/// accepting, drains the connections and joins every thread.
#[derive(Debug)]
pub(crate) struct Endpoint {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Serve `handler` on `listener` until the returned [`Endpoint`] shuts
/// down.
pub(crate) fn serve<H: Handler>(
    listener: TcpListener,
    cfg: ConnConfig,
    handler: Arc<H>,
) -> std::io::Result<Endpoint> {
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let (stop, conns) = (Arc::clone(&stop), Arc::clone(&conns));
        std::thread::Builder::new()
            .name("dw-accept".into())
            .spawn(move || accept_loop(&listener, cfg, &handler, &stop, &conns))?
    };
    Ok(Endpoint {
        local_addr,
        stop,
        accept: Some(accept),
        conns,
    })
}

impl Endpoint {
    /// The bound address.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, drain in-flight connections and join every
    /// thread. Connection threads notice the stop flag at their next
    /// frame boundary, finish the frame they are serving, and close —
    /// so the drain is bounded by one frame budget plus one request,
    /// not by client goodwill. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // The accept thread is blocked in `accept`; one connection
        // wakes it, and it sees the flag before serving anything.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, WAKE_TIMEOUT);
        let _ = accept.join();
        let conns: Vec<_> = lock_handlers(&self.conns).drain(..).collect();
        for conn in conns {
            let _ = conn.join();
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The handle list stays valid across a panicking holder: it is only
/// ever pushed to, pruned of finished threads, or drained.
fn lock_handlers(conns: &Mutex<Vec<JoinHandle<()>>>) -> MutexGuard<'_, Vec<JoinHandle<()>>> {
    conns
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Accept until the stop flag is set, checking it each time `accept`
/// returns. A failed accept (the peer reset before it was taken, or
/// the process is out of descriptors) is skipped.
fn accept_loop<H: Handler>(
    listener: &TcpListener,
    cfg: ConnConfig,
    handler: &Arc<H>,
    stop: &Arc<AtomicBool>,
    conns: &Mutex<Vec<JoinHandle<()>>>,
) {
    let active = Arc::new(AtomicUsize::new(0));
    let mut conn_id: u64 = 0;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else {
            continue;
        };
        conn_id += 1;
        if active.load(Ordering::Relaxed) >= cfg.max_connections {
            refuse_busy(handler.stats(), stream, &cfg);
            continue;
        }
        active.fetch_add(1, Ordering::Relaxed);
        let (handler, stop, active) = (Arc::clone(handler), Arc::clone(stop), Arc::clone(&active));
        let conn = std::thread::Builder::new()
            .name(format!("dw-conn-{conn_id}"))
            .spawn(move || {
                let stats = handler.stats();
                stats.record_accepted();
                // A handler panic must close its own connection's
                // books, never the server.
                let killed =
                    contain_panic(|| serve_conn(stream, &*handler, &cfg, &stop)).unwrap_or(true);
                if killed {
                    stats.killed.inc();
                }
                stats.record_closed();
                active.fetch_sub(1, Ordering::Relaxed);
            })
            .expect("spawn connection thread");
        let mut conns = lock_handlers(conns);
        conns.retain(|c| !c.is_finished());
        conns.push(conn);
    }
}

/// Best-effort `ServerBusy` refusal for an over-cap accept: the peer
/// gets a typed reason when it can read one, and a close either way.
fn refuse_busy(stats: &ConnStats, mut stream: TcpStream, cfg: &ConnConfig) {
    stats.refused.inc();
    let _ = stream.set_write_timeout(Some(IO_TICK));
    send_reply(
        &mut stream,
        stats,
        cfg,
        &err(ErrorCode::ServerBusy, "connection cap reached"),
    );
}

/// Write one reply frame within the write budget; `false` when the
/// peer is gone or the budget ran out.
fn send_reply(
    stream: &mut TcpStream,
    stats: &ConnStats,
    cfg: &ConnConfig,
    resp: &Response,
) -> bool {
    let frame = response_frame(resp);
    let sent = write_frame(stream, &frame, Deadline::after(cfg.write_timeout)).is_ok();
    if sent {
        stats.record_frame_tx(frame.len() as u64);
    }
    sent
}

/// What handling one frame decided about the connection's future.
enum Flow {
    /// Keep serving frames.
    Continue,
    /// Clean close (`Bye`).
    Close,
    /// Supervisor kill: the peer cannot be trusted with another frame.
    Kill,
}

/// One frame's outcome: the reply, the connection's future, and
/// whether the frame was a frame-synced violation (a strike).
type Reply = (Response, Flow, bool);

/// A reply that keeps the connection open and costs no strike.
fn ok(resp: Response) -> Reply {
    (resp, Flow::Continue, false)
}

/// A typed reply that costs the peer a strike.
fn violation(code: ErrorCode, message: impl Into<String>) -> Reply {
    (err(code, message), Flow::Continue, true)
}

/// Serve one connection to completion. Returns `true` when the
/// connection was killed (vs closed cleanly).
fn serve_conn<H: Handler>(
    mut stream: TcpStream,
    handler: &H,
    cfg: &ConnConfig,
    stop: &AtomicBool,
) -> bool {
    let _ = stream.set_read_timeout(Some(IO_TICK));
    let _ = stream.set_write_timeout(Some(IO_TICK));
    let _ = stream.set_nodelay(true);
    let stats = handler.stats();
    let mut session = Session::default();
    let mut strikes: u32 = 0;
    let mut idle = Deadline::after(cfg.idle_timeout);
    loop {
        if stop.load(Ordering::Relaxed) {
            return false; // drain: frame boundary, close cleanly
        }
        // Short idle slices keep the stop flag observed promptly
        // while the overall idle budget stays `idle_timeout`.
        let slice = Deadline::after(idle.remaining().min(IDLE_SLICE));
        let (reply, flow, strike) =
            match read_frame(&mut stream, cfg.max_frame_payload, slice, cfg.frame_timeout) {
                Ok((ftype, payload, wire)) => {
                    stats.record_frame_rx(wire);
                    match Request::decode(ftype, &payload) {
                        Ok(req) => session.handle(handler, cfg, req),
                        Err(e) => violation(ErrorCode::BadFrame, e.to_string()),
                    }
                }
                Err(ProtoError::Idle) if !idle.expired() => continue,
                // Clean idle close, or the peer hung up between frames.
                Err(ProtoError::Idle | ProtoError::Closed) => return false,
                // The whole frame was consumed, so a typed reply is
                // still possible.
                Err(ProtoError::ChecksumMismatch { .. }) => {
                    violation(ErrorCode::BadFrame, "frame checksum mismatch")
                }
                Err(e) => {
                    // Desync: bad magic/version, forged length, torn
                    // frame, mid-frame timeout, transport error. No
                    // frame boundary remains — best-effort typed
                    // refusal, then kill.
                    stats.protocol_errors.inc();
                    let code = match e {
                        ProtoError::Oversize { .. } => ErrorCode::TooLarge,
                        _ => ErrorCode::BadFrame,
                    };
                    send_reply(&mut stream, stats, cfg, &err(code, e.to_string()));
                    return true;
                }
            };
        idle = Deadline::after(cfg.idle_timeout);
        if strike {
            stats.protocol_errors.inc();
            strikes += 1;
        }
        let sent = send_reply(&mut stream, stats, cfg, &reply);
        match flow {
            Flow::Kill => return true,
            Flow::Continue if strikes >= cfg.max_strikes => return true,
            Flow::Close => return false,
            // The peer vanished mid-reply: a close, not a kill.
            Flow::Continue if !sent => return false,
            Flow::Continue => {}
        }
    }
}

/// One connection's protocol state: the handshake gate and the open
/// streamed upload.
#[derive(Default)]
struct Session {
    handshaken: bool,
    upload: Option<Upload>,
}

/// State of one in-progress streamed upload. The buffer is reserved
/// once from the declared geometry, after every bound on it held.
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

impl Session {
    /// Handle one decoded request: the handshake gate, `Ping`, `Bye`
    /// and upload reassembly here, everything else in `handler`.
    fn handle<H: Handler>(&mut self, handler: &H, cfg: &ConnConfig, req: Request) -> Reply {
        match req {
            Request::Hello { version } | Request::HelloEpoch { version, .. }
                if version != WIRE_VERSION =>
            {
                let message = format!("server speaks version {WIRE_VERSION}, client {version}");
                (err(ErrorCode::Handshake, message), Flow::Kill, true)
            }
            Request::Hello { .. } => {
                self.handshaken = true;
                ok(Response::HelloOk {
                    version: WIRE_VERSION,
                })
            }
            Request::HelloEpoch { epoch, shard, .. } => match handler.hello_epoch(epoch, shard) {
                Ok(reply) => {
                    self.handshaken = true;
                    ok(reply)
                }
                Err(refused) => (refused, Flow::Kill, true),
            },
            _ if !self.handshaken => violation(ErrorCode::Handshake, "first frame must be Hello"),
            Request::Ping => ok(Response::Pong),
            Request::Bye => (Response::ByeOk, Flow::Close, false),
            Request::Compress {
                file,
                priority,
                context,
                seq_len,
                words,
            } => compress(handler, file, priority, context, words, seq_len),
            Request::CompressBegin {
                file,
                priority,
                context,
                total_len,
                chunk_bases,
            } => {
                if self.upload.is_some() {
                    return violation(ErrorCode::BadFrame, "upload already open");
                }
                if chunk_bases == 0 || chunk_bases % 4 != 0 {
                    return violation(
                        ErrorCode::BadFrame,
                        "chunk_bases must be a positive multiple of 4",
                    );
                }
                // Too large is a refusal of a well-formed request: no strike.
                if total_len > cfg.max_total_bases {
                    let message =
                        format!("total_len {total_len} exceeds cap {}", cfg.max_total_bases);
                    return ok(err(ErrorCode::TooLarge, message));
                }
                if chunk_bases.div_ceil(4) > cfg.max_frame_payload as u64 {
                    let message = "chunk_bases exceeds the frame payload cap";
                    return ok(err(ErrorCode::TooLarge, message));
                }
                self.upload = Some(Upload {
                    file,
                    priority,
                    context,
                    total_len,
                    chunk_bases,
                    next: 0,
                    words: Vec::with_capacity(total_len.div_ceil(4) as usize),
                });
                ok(Response::Ack)
            }
            Request::CompressChunk { index, words } => {
                let Some(up) = self.upload.as_mut() else {
                    return violation(ErrorCode::BadFrame, "chunk without an open upload");
                };
                if index != up.next || index >= up.chunk_count() {
                    let message = format!("chunk {index} out of order (expected {})", up.next);
                    self.upload = None;
                    return violation(ErrorCode::BadFrame, message);
                }
                if words.len() as u64 != up.expected_words(index) {
                    let message = format!(
                        "chunk {index} carries {} words, geometry says {}",
                        words.len(),
                        up.expected_words(index)
                    );
                    self.upload = None;
                    return violation(ErrorCode::BadSequence, message);
                }
                up.words.extend_from_slice(&words);
                up.next += 1;
                ok(Response::Ack)
            }
            Request::CompressEnd { checksum } => {
                let Some(up) = self.upload.take() else {
                    return violation(ErrorCode::BadFrame, "end without an open upload");
                };
                if up.next != up.chunk_count() {
                    let message = format!(
                        "upload ended after {} of {} chunks",
                        up.next,
                        up.chunk_count()
                    );
                    return violation(ErrorCode::BadSequence, message);
                }
                if fnv1a(&up.words) != checksum {
                    return violation(
                        ErrorCode::BadSequence,
                        "reassembled sequence fails its checksum",
                    );
                }
                compress(
                    handler,
                    up.file,
                    up.priority,
                    up.context,
                    up.words,
                    up.total_len,
                )
            }
            other => {
                let (reply, strike) = handler.dispatch(other);
                (reply, Flow::Continue, strike)
            }
        }
    }
}

/// Hand an uploaded sequence, one-shot or reassembled, to the handler.
fn compress<H: Handler>(
    handler: &H,
    file: String,
    priority: Priority,
    context: Context,
    words: Vec<u8>,
    len: u64,
) -> Reply {
    match PackedSeq::from_words(words, len as usize) {
        Ok(seq) => ok(handler.compress(file, seq, priority, context)),
        Err(_) => violation(
            ErrorCode::BadSequence,
            "packed words do not form a sequence",
        ),
    }
}

/// Longest legal payload-length varint (LEB128 of a u64).
const MAX_LEN_VARINT: usize = 10;

fn tickable(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Fill `buf` completely before `deadline`, treating stream-timeout
/// ticks as deadline probes.
///
/// Unlike `Read::read_exact`, partial progress survives a tick: bytes
/// already read stay in `buf` and the loop resumes where it stopped.
/// EOF mid-buffer is [`ProtoError::Truncated`]; deadline expiry is
/// [`ProtoError::Timeout`].
fn read_full<S: Read>(
    stream: &mut S,
    buf: &mut [u8],
    deadline: Deadline,
) -> Result<(), ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(ProtoError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if tickable(e.kind()) => {
                if deadline.expired() {
                    return Err(ProtoError::Timeout);
                }
            }
            Err(e) => return Err(ProtoError::Io(e.kind())),
        }
    }
    Ok(())
}

/// Read one byte, distinguishing the three ways a frame can fail to
/// start: clean EOF ([`ProtoError::Closed`]), idle-budget expiry
/// ([`ProtoError::Idle`]), transport error.
fn read_first_byte<S: Read>(stream: &mut S, idle: Deadline) -> Result<u8, ProtoError> {
    let mut b = [0u8; 1];
    loop {
        match stream.read(&mut b) {
            Ok(0) => return Err(ProtoError::Closed),
            Ok(_) => return Ok(b[0]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if tickable(e.kind()) => {
                if idle.expired() {
                    return Err(ProtoError::Idle);
                }
            }
            Err(e) => return Err(ProtoError::Io(e.kind())),
        }
    }
}

/// Read one complete frame: `(frame type, payload, wire bytes)`.
///
/// The wait for the frame's **first byte** is governed by `idle` —
/// expiry there is a clean [`ProtoError::Idle`], EOF a clean
/// [`ProtoError::Closed`]. Once the first byte arrives the rest of
/// the frame must land within `frame_budget` (expiry is
/// [`ProtoError::Timeout`] — a kill offence, because the peer left us
/// desynchronised mid-frame). The declared payload length is checked
/// against `cap` before allocation.
pub fn read_frame<S: Read>(
    stream: &mut S,
    cap: usize,
    idle: Deadline,
    frame_budget: Duration,
) -> Result<(u8, Vec<u8>, u64), ProtoError> {
    let first = read_first_byte(stream, idle)?;
    let deadline = Deadline::after(frame_budget);
    let mut head = [0u8; 3]; // magic[1], version, type
    read_full(stream, &mut head, deadline)?;
    if [first, head[0]] != WIRE_MAGIC {
        return Err(ProtoError::BadMagic);
    }
    if head[1] != WIRE_VERSION {
        return Err(ProtoError::BadVersion(head[1]));
    }
    let ftype = head[2];

    // Length varint, byte by byte: the declared size is known (and
    // checked) before any payload-sized buffer exists.
    let mut declared: u64 = 0;
    let mut shift = 0u32;
    let mut len_bytes = 0usize;
    loop {
        let mut b = [0u8; 1];
        read_full(stream, &mut b, deadline)?;
        len_bytes += 1;
        declared |= u64::from(b[0] & 0x7F) << shift;
        if b[0] & 0x80 == 0 {
            break;
        }
        shift += 7;
        if len_bytes >= MAX_LEN_VARINT {
            return Err(ProtoError::Malformed("length varint too long"));
        }
    }
    if declared > cap as u64 {
        return Err(ProtoError::Oversize {
            declared,
            cap: cap as u64,
        });
    }

    let mut payload = vec![0u8; declared as usize];
    read_full(stream, &mut payload, deadline)?;
    let mut tail = [0u8; 8];
    read_full(stream, &mut tail, deadline)?;
    let expected = u64::from_le_bytes(tail);
    let actual = frame_checksum_of(ftype, &payload);
    if expected != actual {
        return Err(ProtoError::ChecksumMismatch { expected, actual });
    }
    Ok((
        ftype,
        payload,
        (FRAME_OVERHEAD - 8 + len_bytes + declared as usize + 8) as u64,
    ))
}

/// Write a complete frame before `deadline`, treating stream-timeout
/// ticks as deadline probes. Partial progress survives a tick.
pub fn write_frame<S: Write>(
    stream: &mut S,
    frame: &[u8],
    deadline: Deadline,
) -> Result<(), ProtoError> {
    let mut written = 0;
    while written < frame.len() {
        match stream.write(&frame[written..]) {
            Ok(0) => return Err(ProtoError::Io(ErrorKind::WriteZero)),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if tickable(e.kind()) => {
                if deadline.expired() {
                    return Err(ProtoError::Timeout);
                }
            }
            Err(e) => return Err(ProtoError::Io(e.kind())),
        }
    }
    match stream.flush() {
        Ok(()) => Ok(()),
        Err(e) if tickable(e.kind()) => Ok(()),
        Err(e) => Err(ProtoError::Io(e.kind())),
    }
}

/// A byte stream that injects deterministic network faults from a
/// [`FaultPlan`]'s network rates: connection drops, torn (strict-
/// prefix) writes, per-op delays, and single-bit corruption of
/// outbound bytes.
///
/// Draws are keyed on `(plan seed, stream name, monotone op counter)`
/// — the same re-derivable scheme the exchange faults use — so a
/// chaos run is reproducible from its seed alone. The wrapper lives
/// in the server crate (not behind `cfg(test)`) so integration tests
/// and the CLI's chaos mode can both reach it, but it injects nothing
/// when the plan carries no network rates.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    plan: FaultPlan,
    name: String,
    op: u64,
    dead: bool,
}

impl<S> FaultyStream<S> {
    /// Wrap `inner`, drawing faults for `name` from `plan`.
    pub fn new(inner: S, plan: FaultPlan, name: impl Into<String>) -> Self {
        FaultyStream {
            inner,
            plan,
            name: name.into(),
            op: 0,
            dead: false,
        }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Whether an injected drop or torn write has killed this stream.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    fn next_op(&mut self) -> u64 {
        let op = self.op;
        self.op += 1;
        op
    }

    fn maybe_delay(&mut self, op: u64) {
        let ms = self.plan.net_delay(&self.name, op);
        if ms > 0.0 {
            std::thread::sleep(Duration::from_micros((ms * 1_000.0) as u64));
        }
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(std::io::Error::from(ErrorKind::ConnectionReset));
        }
        let op = self.next_op();
        if self.plan.net_drops(&self.name, op) {
            self.dead = true;
            return Err(std::io::Error::from(ErrorKind::ConnectionReset));
        }
        self.maybe_delay(op);
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(std::io::Error::from(ErrorKind::BrokenPipe));
        }
        let op = self.next_op();
        if self.plan.net_drops(&self.name, op) {
            self.dead = true;
            return Err(std::io::Error::from(ErrorKind::BrokenPipe));
        }
        self.maybe_delay(op);
        if let Some(torn) = self.plan.net_partial_write(&self.name, op, buf.len()) {
            // Deliver a strict prefix, then die: the peer sees a torn
            // frame followed by EOF — the classic mid-frame disconnect.
            let n = self.inner.write(&buf[..torn])?;
            let _ = self.inner.flush();
            self.dead = true;
            return Ok(n.max(1));
        }
        if let Some((pos, mask)) = self.plan.net_corrupt(&self.name, op, buf.len()) {
            let mut copy = buf.to_vec();
            copy[pos] ^= mask;
            return self.inner.write(&copy);
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.dead {
            return Err(std::io::Error::from(ErrorKind::BrokenPipe));
        }
        self.inner.flush()
    }
}

/// What a [`StreamPool::checkout`] hands back.
#[derive(Debug)]
pub enum Checkout<T> {
    /// An idle pooled connection, ready to use.
    Reused(T),
    /// A permit to dial a new connection: the pool reserved a slot.
    /// The caller must follow up with [`StreamPool::checkin`] (dial
    /// succeeded) or [`StreamPool::discard`] (dial failed), or the
    /// slot leaks.
    Dial,
}

/// A bounded blocking pool of connections to one back-end.
///
/// The cap is the real resource limit the router grants each shard:
/// at most `cap` connections exist at once (in use + idle), and a
/// checkout beyond the cap **blocks** until a connection is returned
/// or the caller's deadline expires — so per-shard concurrency is a
/// hard budget, not a suggestion. Generic over the pooled type so the
/// chaos tests can pool fault-wrapped clients.
#[derive(Debug)]
pub struct StreamPool<T> {
    state: Mutex<PoolState<T>>,
    available: Condvar,
    cap: usize,
}

#[derive(Debug)]
struct PoolState<T> {
    idle: Vec<T>,
    /// Connections that currently exist: checked out + idle.
    outstanding: usize,
}

impl<T> StreamPool<T> {
    /// A pool allowing at most `cap` live connections (min 1).
    pub fn new(cap: usize) -> Self {
        StreamPool {
            state: Mutex::new(PoolState {
                idle: Vec::new(),
                outstanding: 0,
            }),
            available: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Take an idle connection, or reserve a slot to dial a new one.
    /// Blocks while the pool is at capacity with nothing idle;
    /// returns `None` if `deadline` expires first.
    pub fn checkout(&self, deadline: Deadline) -> Option<Checkout<T>> {
        let mut state = self.state.lock().expect("pool lock poisoned");
        loop {
            if let Some(t) = state.idle.pop() {
                return Some(Checkout::Reused(t));
            }
            if state.outstanding < self.cap {
                state.outstanding += 1;
                return Some(Checkout::Dial);
            }
            let remaining = deadline.remaining();
            if remaining.is_zero() {
                return None;
            }
            let (next, timed_out) = self
                .available
                .wait_timeout(state, remaining)
                .expect("pool lock poisoned");
            state = next;
            if timed_out.timed_out() && state.idle.is_empty() && state.outstanding >= self.cap {
                return None;
            }
        }
    }

    /// Return a live connection to the pool.
    pub fn checkin(&self, t: T) {
        let mut state = self.state.lock().expect("pool lock poisoned");
        state.idle.push(t);
        drop(state);
        self.available.notify_one();
    }

    /// Report a connection gone (dial failed, or it died in use):
    /// frees its slot for a future dial.
    pub fn discard(&self) {
        let mut state = self.state.lock().expect("pool lock poisoned");
        state.outstanding = state.outstanding.saturating_sub(1);
        drop(state);
        self.available.notify_one();
    }

    /// Drain every idle connection (shard ejection closes them); the
    /// drained connections no longer count against the cap.
    pub fn drain_idle(&self) -> Vec<T> {
        let mut state = self.state.lock().expect("pool lock poisoned");
        let drained = std::mem::take(&mut state.idle);
        state.outstanding = state.outstanding.saturating_sub(drained.len());
        drop(state);
        self.available.notify_all();
        drained
    }

    /// Connections currently existing (checked out + idle).
    pub fn outstanding(&self) -> usize {
        self.state.lock().expect("pool lock poisoned").outstanding
    }
}

/// A byte stream that counts wire bytes into shared atomics — the
/// router wraps each back-end connection in one so the per-shard
/// byte counters in the metrics rollup are exact, whatever protocol
/// traffic flows over it.
#[derive(Debug)]
pub struct CountingStream<S> {
    inner: S,
    tx: Arc<AtomicU64>,
    rx: Arc<AtomicU64>,
}

impl<S> CountingStream<S> {
    /// Wrap `inner`; `tx`/`rx` accumulate bytes written/read.
    pub fn new(inner: S, tx: Arc<AtomicU64>, rx: Arc<AtomicU64>) -> Self {
        CountingStream { inner, tx, rx }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }
}

impl<S: Read> Read for CountingStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.rx.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl<S: Write> Write for CountingStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.tx.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{request_frame, Request, MAX_WIRE_PAYLOAD};
    use std::io::Cursor;

    fn long_idle() -> Deadline {
        Deadline::after(Duration::from_secs(5))
    }

    #[test]
    fn frames_roundtrip_through_the_bounded_reader() {
        let frame = request_frame(&Request::Ping);
        let mut cur = Cursor::new(frame.clone());
        let (t, payload, wire) =
            read_frame(&mut cur, MAX_WIRE_PAYLOAD, long_idle(), Duration::from_secs(1)).unwrap();
        assert_eq!(wire as usize, frame.len());
        assert_eq!(Request::decode(t, &payload).unwrap(), Request::Ping);
    }

    #[test]
    fn eof_at_boundary_is_closed_but_mid_frame_is_truncated() {
        let mut empty = Cursor::new(Vec::<u8>::new());
        assert_eq!(
            read_frame(
                &mut empty,
                MAX_WIRE_PAYLOAD,
                long_idle(),
                Duration::from_secs(1)
            )
            .unwrap_err(),
            ProtoError::Closed
        );
        let frame = request_frame(&Request::Metrics);
        for cut in 1..frame.len() {
            let mut cur = Cursor::new(frame[..cut].to_vec());
            assert_eq!(
                read_frame(
                    &mut cur,
                    MAX_WIRE_PAYLOAD,
                    long_idle(),
                    Duration::from_secs(1)
                )
                .unwrap_err(),
                ProtoError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversize_declaration_is_refused_before_payload_read() {
        // Header declares ~4 TiB; only the header bytes exist. The
        // reader must refuse on the declaration, not try to allocate.
        let mut frame = WIRE_MAGIC.to_vec();
        frame.push(WIRE_VERSION);
        frame.push(0x02);
        dnacomp_codec::varint::write_uvarint(&mut frame, 1u64 << 42);
        let mut cur = Cursor::new(frame);
        assert_eq!(
            read_frame(&mut cur, 1024, long_idle(), Duration::from_secs(1)).unwrap_err(),
            ProtoError::Oversize {
                declared: 1 << 42,
                cap: 1024
            }
        );
    }

    #[test]
    fn forged_overlong_varint_is_malformed() {
        let mut frame = WIRE_MAGIC.to_vec();
        frame.push(WIRE_VERSION);
        frame.push(0x02);
        frame.extend_from_slice(&[0x80; 12]); // continuation forever
        let mut cur = Cursor::new(frame);
        assert_eq!(
            read_frame(&mut cur, 1024, long_idle(), Duration::from_secs(1)).unwrap_err(),
            ProtoError::Malformed("length varint too long")
        );
    }

    #[test]
    fn faulty_stream_is_transparent_at_zero_rates() {
        let frame = request_frame(&Request::Hello { version: 1 });
        let mut s = FaultyStream::new(Cursor::new(Vec::new()), FaultPlan::none(), "c0");
        write_frame(&mut s, &frame, long_idle()).unwrap();
        assert!(!s.is_dead());
        assert_eq!(s.get_ref().get_ref(), &frame);
    }

    #[test]
    fn faulty_stream_faults_are_deterministic() {
        let plan = FaultPlan::network(99, 0.5);
        let run = |()| {
            let mut s = FaultyStream::new(Cursor::new(Vec::new()), plan, "conn-3");
            let mut outcomes = Vec::new();
            for _ in 0..40 {
                outcomes.push(match s.write(&[0xAA; 64]) {
                    Ok(n) => n as i64,
                    Err(e) => -(e.kind() as i64),
                });
            }
            (outcomes, s.get_ref().get_ref().clone())
        };
        let (a, abytes) = run(());
        let (b, bbytes) = run(());
        assert_eq!(a, b);
        assert_eq!(abytes, bbytes);
        // At 50% aggregate fault pressure something must have fired.
        assert!(
            a.iter().any(|&o| o != 64),
            "no fault fired in 40 ops at 50%: {a:?}"
        );
    }

    #[test]
    fn pool_reuses_idle_connections_before_dialling() {
        let pool: StreamPool<u32> = StreamPool::new(2);
        assert!(matches!(
            pool.checkout(Deadline::after(Duration::from_millis(50))),
            Some(Checkout::Dial)
        ));
        pool.checkin(7);
        match pool.checkout(Deadline::after(Duration::from_millis(50))) {
            Some(Checkout::Reused(v)) => assert_eq!(v, 7),
            other => panic!("expected reuse, got {other:?}"),
        }
        assert_eq!(pool.outstanding(), 1);
    }

    #[test]
    fn pool_cap_blocks_until_checkin_and_respects_deadlines() {
        let pool: Arc<StreamPool<u32>> = Arc::new(StreamPool::new(1));
        assert!(matches!(
            pool.checkout(Deadline::after(Duration::from_millis(50))),
            Some(Checkout::Dial)
        ));
        // At cap with nothing idle: a short deadline expires empty.
        assert!(pool
            .checkout(Deadline::after(Duration::from_millis(30)))
            .is_none());
        // A checkin from another thread unblocks a waiting checkout.
        let waiter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.checkout(Deadline::after(Duration::from_secs(5))))
        };
        std::thread::sleep(Duration::from_millis(20));
        pool.checkin(42);
        match waiter.join().unwrap() {
            Some(Checkout::Reused(v)) => assert_eq!(v, 42),
            other => panic!("expected reuse after checkin, got {other:?}"),
        }
        // A discard frees the slot for a fresh dial.
        pool.discard();
        assert!(matches!(
            pool.checkout(Deadline::after(Duration::from_millis(50))),
            Some(Checkout::Dial)
        ));
    }

    #[test]
    fn pool_drain_closes_idle_and_frees_slots() {
        let pool: StreamPool<u32> = StreamPool::new(3);
        // Reserve all three slots first — a checkin would otherwise be
        // reused by the next checkout instead of granting a dial.
        for _ in 0..3 {
            assert!(matches!(
                pool.checkout(Deadline::after(Duration::from_millis(50))),
                Some(Checkout::Dial)
            ));
        }
        for v in 0..3 {
            pool.checkin(v);
        }
        assert_eq!(pool.outstanding(), 3);
        let drained = pool.drain_idle();
        assert_eq!(drained.len(), 3);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn counting_stream_counts_exact_wire_bytes() {
        let tx = Arc::new(AtomicU64::new(0));
        let rx = Arc::new(AtomicU64::new(0));
        let frame = request_frame(&Request::Ping);
        let mut s = CountingStream::new(
            Cursor::new(frame.clone()),
            Arc::clone(&tx),
            Arc::clone(&rx),
        );
        let (t, payload, wire) =
            read_frame(&mut s, MAX_WIRE_PAYLOAD, long_idle(), Duration::from_secs(1)).unwrap();
        assert_eq!(Request::decode(t, &payload).unwrap(), Request::Ping);
        assert_eq!(rx.load(Ordering::Relaxed), wire);
        let mut s = CountingStream::new(Cursor::new(Vec::new()), Arc::clone(&tx), rx);
        write_frame(&mut s, &frame, long_idle()).unwrap();
        assert_eq!(tx.load(Ordering::Relaxed), frame.len() as u64);
    }
}
