//! The shard's TCP front-end: a [`CompressionService`] served over the
//! [`crate::proto`] wire protocol as one handler of the connection
//! core (`conn::serve`).
//!
//! The core owns accept, the frame loop, strikes and kills, the
//! handshake gate and upload reassembly. This handler supplies what is
//! particular to a shard:
//!
//! * **the pinned-shard `HelloEpoch` rule** — the claimed shard id
//!   must be [`NetConfig::shard_id`], and a node pinned to an epoch
//!   ([`NetConfig::epoch`]) refuses any other with `WrongShard`;
//! * **compression** — an assembled sequence is submitted to the
//!   service and its ticket awaited within the request budget. The
//!   service's admission control sheds Low lanes first, surfacing as
//!   typed `Shed` replies; a full queue surfaces as `ServerBusy`.
//!   Degradation is typed at every layer — load never turns into hangs
//!   or aborts;
//! * **the store requests** — `Get`, `Stat`, `Keys`, `Remove` and
//!   `MigrateBatch` against the attached store, plus `Metrics`.
//!
//! [`NetClient`] is the matching client, generic over any byte stream.

use crate::conn::{err, read_frame, serve, write_frame, ConnConfig, Endpoint, Handler, IO_TICK};
use crate::metrics::ConnStats;
use crate::proto::{
    request_frame, ErrorCode, ProtoError, Request, Response, MAX_WIRE_PAYLOAD, WIRE_VERSION,
};
use crate::queue::Priority;
use crate::service::{CompressRequest, CompressionService, JobError, SubmitError};
use dnacomp_algos::CompressedBlob;
use dnacomp_codec::checksum::fnv1a;
use dnacomp_core::{Context, Deadline};
use dnacomp_seq::PackedSeq;
use dnacomp_store::{ContentKey, SequenceStore, StoreError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
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
    /// Connection limits and budgets, the same as the router's.
    pub conn: ConnConfig,
    /// Budget from job submission to reply; exceeded ⇒ typed
    /// `Timeout` error reply (the ticket is abandoned, the service
    /// still resolves it internally).
    pub request_timeout: Duration,
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
            conn: ConnConfig::default(),
            request_timeout: Duration::from_secs(30),
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
    endpoint: Endpoint,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `service`.
    pub fn start(
        service: Arc<CompressionService>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let conn = config.conn;
        let shard = Shard {
            service,
            cfg: config,
        };
        let endpoint = serve(listener, conn, Arc::new(shard))?;
        Ok(NetServer { endpoint })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.endpoint.local_addr()
    }

    /// Stop accepting, drain in-flight connections and join every
    /// thread. Handlers notice the stop flag at their next frame
    /// boundary (within one idle-poll slice), finish the frame they
    /// are serving, and close — so the drain is bounded by one frame
    /// budget plus one request budget, not by client goodwill.
    pub fn shutdown(mut self) {
        self.endpoint.shutdown();
    }
}

/// The shard's handler: jobs go to the service, store requests to the
/// attached store.
struct Shard {
    service: Arc<CompressionService>,
    cfg: NetConfig,
}

impl Handler for Shard {
    fn stats(&self) -> &ConnStats {
        self.service.metrics().conn()
    }

    fn hello_epoch(&self, epoch: u64, shard: u32) -> Result<Response, Response> {
        let cfg = &self.cfg;
        if shard != cfg.shard_id {
            return Err(err(
                ErrorCode::WrongShard,
                format!(
                    "this node is shard {}, client addressed shard {shard}",
                    cfg.shard_id
                ),
            ));
        }
        match cfg.epoch {
            Some(pinned) if epoch != pinned => Err(err(
                ErrorCode::WrongShard,
                format!("stale ring epoch {epoch:#x} (node pinned to {pinned:#x})"),
            )),
            pinned => Ok(Response::HelloEpochOk {
                version: WIRE_VERSION,
                epoch: pinned.unwrap_or(epoch),
                shard: cfg.shard_id,
            }),
        }
    }

    fn compress(
        &self,
        file: String,
        seq: PackedSeq,
        priority: Priority,
        context: Context,
    ) -> Response {
        run_job(&self.service, &self.cfg, file, seq, priority, context)
    }

    fn dispatch(&self, req: Request) -> (Response, bool) {
        if let Request::Metrics = req {
            let json = self.service.metrics().snapshot().to_json();
            return (Response::MetricsOk { json }, false);
        }
        let Some(store) = self.cfg.store.as_deref() else {
            return (err(ErrorCode::NoStore, "no store attached"), false);
        };
        let reply = match req {
            Request::Get { key } => match store.get(&ContentKey(key)) {
                Ok(blob) => {
                    let bytes = blob.to_bytes();
                    if bytes.len() > self.cfg.conn.max_frame_payload {
                        err(
                            ErrorCode::TooLarge,
                            "stored blob exceeds the frame payload cap",
                        )
                    } else {
                        Response::GetOk { blob: bytes }
                    }
                }
                Err(StoreError::NotFound(k)) => err(
                    ErrorCode::UnknownKey,
                    format!("no record under {}", k.to_hex()),
                ),
                Err(e) => err(ErrorCode::JobFailed, format!("store read failed: {e}")),
            },
            Request::Stat { key: None } => Response::StatOk {
                json: serde_json::to_string(&store.snapshot())
                    .expect("stat serialisation cannot fail"),
            },
            Request::Stat { key: Some(key) } => match store.stat(&ContentKey(key)) {
                Some(rs) => Response::StatOk {
                    json: format!(
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
                },
                None => err(
                    ErrorCode::UnknownKey,
                    format!("no record under {}", ContentKey(key).to_hex()),
                ),
            },
            Request::Keys => {
                let keys: Vec<[u8; 16]> = store.keys().into_iter().map(|k| k.0).collect();
                // The key list must fit one reply frame; 10 bytes covers
                // the count uvarint.
                if keys.len() * 16 + 10 > self.cfg.conn.max_frame_payload {
                    err(
                        ErrorCode::TooLarge,
                        format!("{} keys exceed the reply frame cap", keys.len()),
                    )
                } else {
                    Response::KeysOk { keys }
                }
            }
            Request::Remove { key } => match store.remove(&ContentKey(key)) {
                Ok(existed) => Response::RemoveOk { existed },
                Err(e) => err(ErrorCode::JobFailed, format!("remove failed: {e}")),
            },
            Request::MigrateBatch { epoch, records } => {
                return migrate(store, self.cfg.epoch, epoch, &records)
            }
            _ => err(ErrorCode::Unsupported, "not a store request"),
        };
        (reply, false)
    }
}

/// Apply one checksummed migration batch; `(reply, strike)`.
fn migrate(
    store: &SequenceStore,
    pinned: Option<u64>,
    epoch: u64,
    records: &[([u8; 16], Vec<u8>)],
) -> (Response, bool) {
    if let Some(pinned) = pinned {
        if epoch != pinned {
            // A correctness refusal, not a protocol violation: the
            // batch framed cleanly, the sender's ring is just stale.
            // No strike, connection survives.
            let message =
                format!("migration planned under epoch {epoch:#x}, node pinned to {pinned:#x}");
            return (err(ErrorCode::WrongShard, message), false);
        }
    }
    let mut stored = 0u64;
    let mut deduped = 0u64;
    for (idx, (key, bytes)) in records.iter().enumerate() {
        let Ok(blob) = CompressedBlob::from_bytes(bytes) else {
            let message = format!("record {idx} is not a valid container");
            return (err(ErrorCode::BadSequence, message), true);
        };
        match store.put_with_key(ContentKey(*key), &blob) {
            Ok(outcome) => {
                stored += 1;
                if outcome.deduped {
                    deduped += 1;
                }
            }
            Err(e) => {
                let message = format!("record {idx} write failed: {e}");
                return (err(ErrorCode::JobFailed, message), false);
            }
        }
    }
    (Response::MigrateOk { stored, deduped }, false)
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
    let Some(result) = ticket.wait_timeout(cfg.request_timeout) else {
        // The ticket still resolves inside the service; the wire
        // contract only promises this *frame* a typed reply.
        return Response::Error {
            code: ErrorCode::Timeout,
            message: "job still running at the request deadline".into(),
        };
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
