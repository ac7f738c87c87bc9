//! Wire protocol for the TCP front-end: length-prefixed, checksummed
//! frames carrying a typed request/response set.
//!
//! Frame layout (bytes):
//!
//! ```text
//! 0..2   magic  b"DW"  ("DX" is the flat or framed container)
//! 2      protocol version (1)
//! 3      frame type byte
//! 4..    uvarint: payload length in bytes
//! ..     payload
//! ..     u64 LE: FNV-1a checksum of [version, type, payload]
//! ```
//!
//! The same codec helpers the containers use ([`dnacomp_codec::varint`],
//! [`dnacomp_codec::checksum`]) frame the wire, so a torn or bit-flipped
//! frame is detected exactly like a corrupted blob: typed, before any
//! payload is trusted.
//!
//! ## Hostile-frame discipline
//!
//! Mirroring the container decoders, [`decode_frame`] applies an
//! **affordability check before allocation**: a declared payload length
//! over the connection's cap ([`MAX_WIRE_PAYLOAD`] by default) is
//! refused as [`ProtoError::Oversize`] while only the fixed-size header
//! has been read. Checksums cover the type byte too, so a frame whose
//! type was flipped in transit fails closed instead of dispatching the
//! wrong handler.
//!
//! ## Streaming
//!
//! Large sequences travel as [`Request::CompressBegin`] → N ×
//! [`Request::CompressChunk`] → [`Request::CompressEnd`]: chunk
//! boundaries are the same pure function of `(chunk_bases, total_len)`
//! the framed `DX` container uses, so a streamed upload maps 1:1 onto
//! frame blocks and the server never needs a reassembly side channel
//! beyond the declared geometry.

use crate::queue::Priority;
use dnacomp_codec::checksum::Fnv1a;
use dnacomp_codec::varint::{read_u64_le, read_uvarint, write_u64_le, write_uvarint};
use dnacomp_codec::CodecError;
use dnacomp_core::Context;

/// Magic prefix of every wire frame.
pub const WIRE_MAGIC: [u8; 2] = *b"DW";
/// Protocol version spoken by this build.
pub const WIRE_VERSION: u8 = 1;
/// Hard cap on a frame's payload, bytes (4 MiB): the affordability
/// limit checked before any payload allocation.
pub const MAX_WIRE_PAYLOAD: usize = 1 << 22;
/// Cap on string fields (file names) inside payloads, bytes.
pub const MAX_NAME_BYTES: usize = 4096;
/// Fixed frame overhead outside the payload: magic + version + type
/// + checksum (the length uvarint adds 1–5 more).
pub const FRAME_OVERHEAD: usize = 12;

/// Why a frame or payload was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Underlying transport error.
    Io(std::io::ErrorKind),
    /// The first two bytes are not [`WIRE_MAGIC`] — the stream is not
    /// speaking this protocol (or lost sync).
    BadMagic,
    /// Version byte this build does not speak.
    BadVersion(u8),
    /// Frame type byte outside the typed set.
    UnknownType(u8),
    /// Declared payload length exceeds the cap; refused before
    /// allocation.
    Oversize {
        /// Length the header claimed.
        declared: u64,
        /// The connection's payload cap.
        cap: u64,
    },
    /// Frame checksum disagrees with the received bytes.
    ChecksumMismatch {
        /// Checksum the frame carried.
        expected: u64,
        /// Checksum of what actually arrived.
        actual: u64,
    },
    /// The stream ended mid-frame.
    Truncated,
    /// Structurally invalid payload for the declared type.
    Malformed(&'static str),
    /// A read or write blew its deadline mid-frame.
    Timeout,
    /// No new frame arrived within the idle budget (clean close).
    Idle,
    /// The peer closed the stream at a frame boundary (clean close).
    Closed,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(kind) => write!(f, "i/o error: {kind:?}"),
            ProtoError::BadMagic => f.write_str("bad frame magic"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            ProtoError::Oversize { declared, cap } => {
                write!(f, "declared payload {declared} exceeds cap {cap}")
            }
            ProtoError::ChecksumMismatch { expected, actual } => write!(
                f,
                "frame checksum mismatch (expected {expected:#018x}, got {actual:#018x})"
            ),
            ProtoError::Truncated => f.write_str("stream ended mid-frame"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
            ProtoError::Timeout => f.write_str("deadline exceeded mid-frame"),
            ProtoError::Idle => f.write_str("idle timeout"),
            ProtoError::Closed => f.write_str("connection closed"),
        }
    }
}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::UnexpectedEof => ProtoError::Truncated,
            _ => ProtoError::Malformed("bad varint field"),
        }
    }
}

/// Typed reasons a request was answered with [`Response::Error`].
/// The numeric value is the wire encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Connection cap or submission queue full; retry later.
    ServerBusy = 1,
    /// The frame violated the protocol (strike counted).
    BadFrame = 2,
    /// Request valid but not supported in this server mode.
    Unsupported = 3,
    /// `get`/`stat` need a store and none is attached.
    NoStore = 4,
    /// No record under the requested content key.
    UnknownKey = 5,
    /// Admission control shed the job (low lanes shed first).
    Shed = 6,
    /// The job ran and failed with a typed service error.
    JobFailed = 7,
    /// The job out-waited the server's request budget.
    Timeout = 8,
    /// Declared size exceeds a server limit.
    TooLarge = 9,
    /// The streamed sequence failed reassembly validation.
    BadSequence = 10,
    /// Handshake expected/failed.
    Handshake = 11,
    /// The shard owning the requested key (and its successor) is
    /// unreachable or ejected; retry once the fleet heals.
    ShardDown = 12,
    /// The peer's ring view disagrees with this node: stale ring
    /// epoch, or a shard identity claim that does not match.
    WrongShard = 13,
    /// A replicated write committed on fewer shards than its write
    /// quorum. Replicas that did commit keep their copies — re-sending
    /// the same sequence is idempotent under content addressing — but
    /// the client must not treat the write as durable.
    QuorumFailed = 14,
}

impl ErrorCode {
    /// Decode from the wire byte.
    pub fn from_wire(byte: u8) -> Option<ErrorCode> {
        Some(match byte {
            1 => ErrorCode::ServerBusy,
            2 => ErrorCode::BadFrame,
            3 => ErrorCode::Unsupported,
            4 => ErrorCode::NoStore,
            5 => ErrorCode::UnknownKey,
            6 => ErrorCode::Shed,
            7 => ErrorCode::JobFailed,
            8 => ErrorCode::Timeout,
            9 => ErrorCode::TooLarge,
            10 => ErrorCode::BadSequence,
            11 => ErrorCode::Handshake,
            12 => ErrorCode::ShardDown,
            13 => ErrorCode::WrongShard,
            14 => ErrorCode::QuorumFailed,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::ServerBusy => "server-busy",
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::NoStore => "no-store",
            ErrorCode::UnknownKey => "unknown-key",
            ErrorCode::Shed => "shed",
            ErrorCode::JobFailed => "job-failed",
            ErrorCode::Timeout => "timeout",
            ErrorCode::TooLarge => "too-large",
            ErrorCode::BadSequence => "bad-sequence",
            ErrorCode::Handshake => "handshake",
            ErrorCode::ShardDown => "shard-down",
            ErrorCode::WrongShard => "wrong-shard",
            ErrorCode::QuorumFailed => "quorum-failed",
        };
        f.write_str(name)
    }
}

/// Client → server messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Handshake; must be the first frame on a connection.
    Hello {
        /// Protocol version the client speaks.
        version: u8,
    },
    /// Liveness probe.
    Ping,
    /// Ask for the service metrics snapshot (JSON).
    Metrics,
    /// Clean goodbye; the server replies and closes.
    Bye,
    /// Compress one sequence, whole payload in a single frame.
    Compress {
        /// Job identifier (feeds fault keys and the response echo).
        file: String,
        /// Queue lane.
        priority: Priority,
        /// The client's decision context.
        context: Context,
        /// Sequence length in bases.
        seq_len: u64,
        /// 2-bit packed words, `seq_len.div_ceil(4)` bytes.
        words: Vec<u8>,
    },
    /// Open a streamed upload: geometry only, no payload yet.
    CompressBegin {
        /// Job identifier.
        file: String,
        /// Queue lane.
        priority: Priority,
        /// The client's decision context.
        context: Context,
        /// Total sequence length in bases.
        total_len: u64,
        /// Bases per chunk (must be a positive multiple of 4 so packed
        /// words concatenate without bit shifts); chunk count is
        /// `total_len.div_ceil(chunk_bases)`, exactly the framed `DX`
        /// container's geometry.
        chunk_bases: u64,
    },
    /// One chunk of a streamed upload, in order.
    CompressChunk {
        /// Chunk index, starting at 0.
        index: u64,
        /// Packed words of this chunk.
        words: Vec<u8>,
    },
    /// Close a streamed upload.
    CompressEnd {
        /// FNV-1a over the whole reassembled packed words.
        checksum: u64,
    },
    /// Fetch a stored compressed container by content key.
    Get {
        /// 128-bit content key.
        key: [u8; 16],
    },
    /// Store statistics: whole-store when `key` is `None`.
    Stat {
        /// Optional record key.
        key: Option<[u8; 16]>,
    },
    /// Ring-aware handshake: like [`Request::Hello`] but the client
    /// also asserts the ring epoch it routes by and which shard it
    /// believes it is talking to. A node pinned to a different epoch
    /// or shard id refuses with [`ErrorCode::WrongShard`], so a stale
    /// router can never silently forward into the wrong ring.
    HelloEpoch {
        /// Protocol version the client speaks.
        version: u8,
        /// Ring epoch the client's shard map was built from.
        epoch: u64,
        /// Shard id the client believes this node is (0 = router /
        /// unsharded).
        shard: u32,
    },
    /// List every content key resident in the node's store (the
    /// rebalance enumeration primitive).
    Keys,
    /// Remove one record by content key (issued by the rebalancer
    /// only after the destination acknowledged the migrated copy).
    Remove {
        /// 128-bit content key.
        key: [u8; 16],
    },
    /// A checksummed batch of records migrating between stores.
    /// The wire encoding appends an FNV-1a digest over every
    /// `(key, blob)` pair; a batch whose digest disagrees is refused
    /// at decode as malformed, before any record is written.
    MigrateBatch {
        /// Ring epoch the batch was planned under; an epoch-pinned
        /// receiver refuses mismatches with [`ErrorCode::WrongShard`].
        epoch: u64,
        /// The records: content key plus serialised container bytes.
        records: Vec<([u8; 16], Vec<u8>)>,
    },
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// Protocol version the server speaks.
        version: u8,
    },
    /// Liveness reply.
    Pong,
    /// Metrics snapshot as a JSON object.
    MetricsOk {
        /// The JSON text.
        json: String,
    },
    /// Goodbye acknowledged; the server closes after this frame.
    ByeOk,
    /// Generic acknowledgement: the frame was accepted and changed
    /// state but produced no data (streamed `CompressBegin`/`Chunk`).
    Ack,
    /// A compress job completed.
    CompressOk {
        /// Echo of the request's file identifier.
        file: String,
        /// Tag of the algorithm that compressed the payload.
        algorithm: u8,
        /// Input length in bases.
        original_len: u64,
        /// Serialised container size in bytes.
        compressed_bytes: u64,
        /// Container blocks (1 = flat blob).
        blocks: u64,
        /// Simulated cost, ms.
        sim_ms: f64,
        /// Whether the decision came from the LRU cache.
        cache_hit: bool,
        /// Content key when the server persisted the result.
        key: Option<[u8; 16]>,
    },
    /// A stored container, in its ordinary container wire format.
    GetOk {
        /// The container bytes (flat "DX" blob).
        blob: Vec<u8>,
    },
    /// Store statistics as a JSON object.
    StatOk {
        /// The JSON text.
        json: String,
    },
    /// Typed refusal or failure; the connection usually survives.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Ring-aware handshake accepted; carries the node's own view.
    HelloEpochOk {
        /// Protocol version the server speaks.
        version: u8,
        /// Ring epoch the node is pinned to (echoes the client's when
        /// the node is epoch-agnostic).
        epoch: u64,
        /// The node's shard id (0 = router / unsharded).
        shard: u32,
    },
    /// The store's resident content keys.
    KeysOk {
        /// Every key, in store iteration order.
        keys: Vec<[u8; 16]>,
    },
    /// Remove acknowledged.
    RemoveOk {
        /// Whether the record existed.
        existed: bool,
    },
    /// Migration batch applied.
    MigrateOk {
        /// Records written (including deduplicated ones).
        stored: u64,
        /// Records that already existed under the same key.
        deduped: u64,
    },
}

// Frame type bytes. Requests are < 0x80, responses ≥ 0x80.
const T_HELLO: u8 = 0x01;
const T_PING: u8 = 0x02;
const T_METRICS: u8 = 0x03;
const T_BYE: u8 = 0x04;
const T_COMPRESS: u8 = 0x10;
const T_COMPRESS_BEGIN: u8 = 0x11;
const T_COMPRESS_CHUNK: u8 = 0x12;
const T_COMPRESS_END: u8 = 0x13;
const T_GET: u8 = 0x20;
const T_STAT: u8 = 0x21;
const T_HELLO_EPOCH: u8 = 0x30;
const T_KEYS: u8 = 0x31;
const T_REMOVE: u8 = 0x32;
const T_MIGRATE_BATCH: u8 = 0x33;
const T_HELLO_OK: u8 = 0x81;
const T_PONG: u8 = 0x82;
const T_METRICS_OK: u8 = 0x83;
const T_BYE_OK: u8 = 0x84;
const T_ACK: u8 = 0x85;
const T_COMPRESS_OK: u8 = 0x90;
const T_GET_OK: u8 = 0xA0;
const T_STAT_OK: u8 = 0xA1;
const T_HELLO_EPOCH_OK: u8 = 0xB0;
const T_KEYS_OK: u8 = 0xB1;
const T_REMOVE_OK: u8 = 0xB2;
const T_MIGRATE_OK: u8 = 0xB3;
const T_ERROR: u8 = 0xFF;

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_str(bytes: &[u8], pos: &mut usize, cap: usize) -> Result<String, ProtoError> {
    let len = read_uvarint(bytes, pos)? as usize;
    if len > cap {
        return Err(ProtoError::Malformed("string field over cap"));
    }
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or(ProtoError::Truncated)?;
    let s = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|_| ProtoError::Malformed("string field not utf-8"))?
        .to_owned();
    *pos = end;
    Ok(s)
}

fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
    write_uvarint(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn read_bytes(bytes: &[u8], pos: &mut usize, cap: usize) -> Result<Vec<u8>, ProtoError> {
    let len = read_uvarint(bytes, pos)? as usize;
    if len > cap {
        return Err(ProtoError::Malformed("byte field over cap"));
    }
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or(ProtoError::Truncated)?;
    let v = bytes[*pos..end].to_vec();
    *pos = end;
    Ok(v)
}

fn read_array16(bytes: &[u8], pos: &mut usize) -> Result<[u8; 16], ProtoError> {
    let end = pos
        .checked_add(16)
        .filter(|&e| e <= bytes.len())
        .ok_or(ProtoError::Truncated)?;
    let mut key = [0u8; 16];
    key.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(key)
}

fn write_context(out: &mut Vec<u8>, ctx: &Context) {
    write_uvarint(out, ctx.ram_mb as u64);
    write_uvarint(out, ctx.cpu_mhz as u64);
    write_u64_le(out, ctx.bandwidth_mbps.to_bits());
    write_uvarint(out, ctx.file_bytes);
}

fn read_context(bytes: &[u8], pos: &mut usize) -> Result<Context, ProtoError> {
    let ram_mb = read_uvarint(bytes, pos)?;
    let cpu_mhz = read_uvarint(bytes, pos)?;
    let bandwidth_mbps = f64::from_bits(read_u64_le(bytes, pos)?);
    let file_bytes = read_uvarint(bytes, pos)?;
    if ram_mb > u32::MAX as u64 || cpu_mhz > u32::MAX as u64 {
        return Err(ProtoError::Malformed("context field out of range"));
    }
    if !bandwidth_mbps.is_finite() || bandwidth_mbps < 0.0 {
        return Err(ProtoError::Malformed("context bandwidth not finite"));
    }
    Ok(Context {
        ram_mb: ram_mb as u32,
        cpu_mhz: cpu_mhz as u32,
        bandwidth_mbps,
        file_bytes,
    })
}

fn priority_byte(p: Priority) -> u8 {
    match p {
        Priority::High => 0,
        Priority::Normal => 1,
        Priority::Low => 2,
    }
}

fn priority_from(byte: u8) -> Result<Priority, ProtoError> {
    match byte {
        0 => Ok(Priority::High),
        1 => Ok(Priority::Normal),
        2 => Ok(Priority::Low),
        _ => Err(ProtoError::Malformed("bad priority byte")),
    }
}

fn read_u8(bytes: &[u8], pos: &mut usize) -> Result<u8, ProtoError> {
    let &b = bytes.get(*pos).ok_or(ProtoError::Truncated)?;
    *pos += 1;
    Ok(b)
}

fn done(bytes: &[u8], pos: usize) -> Result<(), ProtoError> {
    if pos != bytes.len() {
        return Err(ProtoError::Malformed("trailing payload bytes"));
    }
    Ok(())
}

/// FNV-1a digest over every `(key, blob)` pair of a migration batch,
/// in order. Carried at the end of the [`Request::MigrateBatch`]
/// payload and re-verified at decode, so a batch that framed cleanly
/// but whose record bytes were assembled wrong still fails closed.
pub fn migrate_batch_checksum(records: &[([u8; 16], Vec<u8>)]) -> u64 {
    let mut h = Fnv1a::new();
    for (key, blob) in records {
        h.update(key);
        h.update(&(blob.len() as u64).to_le_bytes());
        h.update(blob);
    }
    h.digest()
}

impl Request {
    /// Frame type byte plus encoded payload.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        let t = match self {
            Request::Hello { version } => {
                out.push(*version);
                T_HELLO
            }
            Request::Ping => T_PING,
            Request::Metrics => T_METRICS,
            Request::Bye => T_BYE,
            Request::Compress {
                file,
                priority,
                context,
                seq_len,
                words,
            } => {
                write_str(&mut out, file);
                out.push(priority_byte(*priority));
                write_context(&mut out, context);
                write_uvarint(&mut out, *seq_len);
                write_bytes(&mut out, words);
                T_COMPRESS
            }
            Request::CompressBegin {
                file,
                priority,
                context,
                total_len,
                chunk_bases,
            } => {
                write_str(&mut out, file);
                out.push(priority_byte(*priority));
                write_context(&mut out, context);
                write_uvarint(&mut out, *total_len);
                write_uvarint(&mut out, *chunk_bases);
                T_COMPRESS_BEGIN
            }
            Request::CompressChunk { index, words } => {
                write_uvarint(&mut out, *index);
                write_bytes(&mut out, words);
                T_COMPRESS_CHUNK
            }
            Request::CompressEnd { checksum } => {
                write_u64_le(&mut out, *checksum);
                T_COMPRESS_END
            }
            Request::Get { key } => {
                out.extend_from_slice(key);
                T_GET
            }
            Request::Stat { key } => {
                if let Some(key) = key {
                    out.extend_from_slice(key);
                }
                T_STAT
            }
            Request::HelloEpoch {
                version,
                epoch,
                shard,
            } => {
                out.push(*version);
                write_u64_le(&mut out, *epoch);
                write_uvarint(&mut out, *shard as u64);
                T_HELLO_EPOCH
            }
            Request::Keys => T_KEYS,
            Request::Remove { key } => {
                out.extend_from_slice(key);
                T_REMOVE
            }
            Request::MigrateBatch { epoch, records } => {
                write_u64_le(&mut out, *epoch);
                write_uvarint(&mut out, records.len() as u64);
                for (key, blob) in records {
                    out.extend_from_slice(key);
                    write_bytes(&mut out, blob);
                }
                write_u64_le(&mut out, migrate_batch_checksum(records));
                T_MIGRATE_BATCH
            }
        };
        (t, out)
    }

    /// Decode a request payload for frame type `t`.
    pub fn decode(t: u8, bytes: &[u8]) -> Result<Request, ProtoError> {
        let mut pos = 0;
        let req = match t {
            T_HELLO => Request::Hello {
                version: read_u8(bytes, &mut pos)?,
            },
            T_PING => Request::Ping,
            T_METRICS => Request::Metrics,
            T_BYE => Request::Bye,
            T_COMPRESS => {
                let file = read_str(bytes, &mut pos, MAX_NAME_BYTES)?;
                let priority = priority_from(read_u8(bytes, &mut pos)?)?;
                let context = read_context(bytes, &mut pos)?;
                let seq_len = read_uvarint(bytes, &mut pos)?;
                let words = read_bytes(bytes, &mut pos, MAX_WIRE_PAYLOAD)?;
                if words.len() as u64 != seq_len.div_ceil(4) {
                    return Err(ProtoError::Malformed("words disagree with length"));
                }
                Request::Compress {
                    file,
                    priority,
                    context,
                    seq_len,
                    words,
                }
            }
            T_COMPRESS_BEGIN => {
                let file = read_str(bytes, &mut pos, MAX_NAME_BYTES)?;
                let priority = priority_from(read_u8(bytes, &mut pos)?)?;
                let context = read_context(bytes, &mut pos)?;
                let total_len = read_uvarint(bytes, &mut pos)?;
                let chunk_bases = read_uvarint(bytes, &mut pos)?;
                Request::CompressBegin {
                    file,
                    priority,
                    context,
                    total_len,
                    chunk_bases,
                }
            }
            T_COMPRESS_CHUNK => {
                let index = read_uvarint(bytes, &mut pos)?;
                let words = read_bytes(bytes, &mut pos, MAX_WIRE_PAYLOAD)?;
                Request::CompressChunk { index, words }
            }
            T_COMPRESS_END => Request::CompressEnd {
                checksum: read_u64_le(bytes, &mut pos)?,
            },
            T_GET => Request::Get {
                key: read_array16(bytes, &mut pos)?,
            },
            T_STAT => Request::Stat {
                key: if bytes.is_empty() {
                    None
                } else {
                    Some(read_array16(bytes, &mut pos)?)
                },
            },
            T_HELLO_EPOCH => {
                let version = read_u8(bytes, &mut pos)?;
                let epoch = read_u64_le(bytes, &mut pos)?;
                let shard = read_uvarint(bytes, &mut pos)?;
                if shard > u32::MAX as u64 {
                    return Err(ProtoError::Malformed("shard id out of range"));
                }
                Request::HelloEpoch {
                    version,
                    epoch,
                    shard: shard as u32,
                }
            }
            T_KEYS => Request::Keys,
            T_REMOVE => Request::Remove {
                key: read_array16(bytes, &mut pos)?,
            },
            T_MIGRATE_BATCH => {
                let epoch = read_u64_le(bytes, &mut pos)?;
                let count = read_uvarint(bytes, &mut pos)? as usize;
                // Affordability: each record costs at least 17 bytes on
                // the wire, so a forged count is refused before any
                // record Vec is allocated.
                if count > bytes.len().saturating_sub(pos) / 17 {
                    return Err(ProtoError::Malformed("migrate count over payload"));
                }
                let mut records = Vec::with_capacity(count);
                for _ in 0..count {
                    let key = read_array16(bytes, &mut pos)?;
                    let blob = read_bytes(bytes, &mut pos, MAX_WIRE_PAYLOAD)?;
                    records.push((key, blob));
                }
                let expected = read_u64_le(bytes, &mut pos)?;
                if expected != migrate_batch_checksum(&records) {
                    return Err(ProtoError::Malformed("migrate batch checksum mismatch"));
                }
                Request::MigrateBatch { epoch, records }
            }
            other => return Err(ProtoError::UnknownType(other)),
        };
        done(bytes, pos)?;
        Ok(req)
    }
}

impl Response {
    /// Frame type byte plus encoded payload.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        let t = match self {
            Response::HelloOk { version } => {
                out.push(*version);
                T_HELLO_OK
            }
            Response::Pong => T_PONG,
            Response::MetricsOk { json } => {
                write_str(&mut out, json);
                T_METRICS_OK
            }
            Response::ByeOk => T_BYE_OK,
            Response::Ack => T_ACK,
            Response::CompressOk {
                file,
                algorithm,
                original_len,
                compressed_bytes,
                blocks,
                sim_ms,
                cache_hit,
                key,
            } => {
                write_str(&mut out, file);
                out.push(*algorithm);
                write_uvarint(&mut out, *original_len);
                write_uvarint(&mut out, *compressed_bytes);
                write_uvarint(&mut out, *blocks);
                write_u64_le(&mut out, sim_ms.to_bits());
                out.push(u8::from(*cache_hit));
                match key {
                    Some(key) => {
                        out.push(1);
                        out.extend_from_slice(key);
                    }
                    None => out.push(0),
                }
                T_COMPRESS_OK
            }
            Response::GetOk { blob } => {
                write_bytes(&mut out, blob);
                T_GET_OK
            }
            Response::StatOk { json } => {
                write_str(&mut out, json);
                T_STAT_OK
            }
            Response::Error { code, message } => {
                out.push(*code as u8);
                write_str(&mut out, message);
                T_ERROR
            }
            Response::HelloEpochOk {
                version,
                epoch,
                shard,
            } => {
                out.push(*version);
                write_u64_le(&mut out, *epoch);
                write_uvarint(&mut out, *shard as u64);
                T_HELLO_EPOCH_OK
            }
            Response::KeysOk { keys } => {
                write_uvarint(&mut out, keys.len() as u64);
                for key in keys {
                    out.extend_from_slice(key);
                }
                T_KEYS_OK
            }
            Response::RemoveOk { existed } => {
                out.push(u8::from(*existed));
                T_REMOVE_OK
            }
            Response::MigrateOk { stored, deduped } => {
                write_uvarint(&mut out, *stored);
                write_uvarint(&mut out, *deduped);
                T_MIGRATE_OK
            }
        };
        (t, out)
    }

    /// Decode a response payload for frame type `t`.
    pub fn decode(t: u8, bytes: &[u8]) -> Result<Response, ProtoError> {
        let mut pos = 0;
        let resp = match t {
            T_HELLO_OK => Response::HelloOk {
                version: read_u8(bytes, &mut pos)?,
            },
            T_PONG => Response::Pong,
            T_METRICS_OK => Response::MetricsOk {
                json: read_str(bytes, &mut pos, MAX_WIRE_PAYLOAD)?,
            },
            T_BYE_OK => Response::ByeOk,
            T_ACK => Response::Ack,
            T_COMPRESS_OK => {
                let file = read_str(bytes, &mut pos, MAX_NAME_BYTES)?;
                let algorithm = read_u8(bytes, &mut pos)?;
                let original_len = read_uvarint(bytes, &mut pos)?;
                let compressed_bytes = read_uvarint(bytes, &mut pos)?;
                let blocks = read_uvarint(bytes, &mut pos)?;
                let sim_ms = f64::from_bits(read_u64_le(bytes, &mut pos)?);
                let cache_hit = read_u8(bytes, &mut pos)? != 0;
                let key = match read_u8(bytes, &mut pos)? {
                    0 => None,
                    1 => Some(read_array16(bytes, &mut pos)?),
                    _ => return Err(ProtoError::Malformed("bad key-present flag")),
                };
                Response::CompressOk {
                    file,
                    algorithm,
                    original_len,
                    compressed_bytes,
                    blocks,
                    sim_ms,
                    cache_hit,
                    key,
                }
            }
            T_GET_OK => Response::GetOk {
                blob: read_bytes(bytes, &mut pos, MAX_WIRE_PAYLOAD)?,
            },
            T_STAT_OK => Response::StatOk {
                json: read_str(bytes, &mut pos, MAX_WIRE_PAYLOAD)?,
            },
            T_ERROR => {
                let code = ErrorCode::from_wire(read_u8(bytes, &mut pos)?)
                    .ok_or(ProtoError::Malformed("unknown error code"))?;
                let message = read_str(bytes, &mut pos, MAX_NAME_BYTES)?;
                Response::Error { code, message }
            }
            T_HELLO_EPOCH_OK => {
                let version = read_u8(bytes, &mut pos)?;
                let epoch = read_u64_le(bytes, &mut pos)?;
                let shard = read_uvarint(bytes, &mut pos)?;
                if shard > u32::MAX as u64 {
                    return Err(ProtoError::Malformed("shard id out of range"));
                }
                Response::HelloEpochOk {
                    version,
                    epoch,
                    shard: shard as u32,
                }
            }
            T_KEYS_OK => {
                let count = read_uvarint(bytes, &mut pos)? as usize;
                if count > bytes.len().saturating_sub(pos) / 16 {
                    return Err(ProtoError::Malformed("key count over payload"));
                }
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(read_array16(bytes, &mut pos)?);
                }
                Response::KeysOk { keys }
            }
            T_REMOVE_OK => Response::RemoveOk {
                existed: match read_u8(bytes, &mut pos)? {
                    0 => false,
                    1 => true,
                    _ => return Err(ProtoError::Malformed("bad existed flag")),
                },
            },
            T_MIGRATE_OK => Response::MigrateOk {
                stored: read_uvarint(bytes, &mut pos)?,
                deduped: read_uvarint(bytes, &mut pos)?,
            },
            other => return Err(ProtoError::UnknownType(other)),
        };
        done(bytes, pos)?;
        Ok(resp)
    }
}

/// Checksum of a frame's covered region: version, type, payload.
pub fn frame_checksum_of(ftype: u8, payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(&[WIRE_VERSION, ftype]);
    h.update(payload);
    h.digest()
}

/// Serialise one complete frame.
pub fn frame_bytes(ftype: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + 5 + payload.len());
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.push(ftype);
    write_uvarint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    write_u64_le(&mut out, frame_checksum_of(ftype, payload));
    out
}

/// Serialise a request into a complete frame.
pub fn request_frame(req: &Request) -> Vec<u8> {
    let (t, payload) = req.encode();
    frame_bytes(t, &payload)
}

/// Serialise a response into a complete frame.
pub fn response_frame(resp: &Response) -> Vec<u8> {
    let (t, payload) = resp.encode();
    frame_bytes(t, &payload)
}

/// Parse one frame from the front of `bytes`.
///
/// Returns `(frame type, payload, bytes consumed)`. The declared
/// payload length is checked against `cap` **before** the payload is
/// copied — the same refuse-before-allocation discipline as the
/// container decoders. Used by the pure-buffer tests; the incremental
/// stream reader in [`crate::conn`] enforces identical checks byte by
/// byte.
pub fn decode_frame(bytes: &[u8], cap: usize) -> Result<(u8, Vec<u8>, usize), ProtoError> {
    if bytes.len() < 2 {
        return Err(ProtoError::Truncated);
    }
    if bytes[0..2] != WIRE_MAGIC {
        return Err(ProtoError::BadMagic);
    }
    if bytes.len() < 4 {
        return Err(ProtoError::Truncated);
    }
    if bytes[2] != WIRE_VERSION {
        return Err(ProtoError::BadVersion(bytes[2]));
    }
    let ftype = bytes[3];
    let mut pos = 4;
    let declared = read_uvarint(bytes, &mut pos)?;
    if declared > cap as u64 {
        return Err(ProtoError::Oversize {
            declared,
            cap: cap as u64,
        });
    }
    let len = declared as usize;
    let payload_end = pos.checked_add(len).ok_or(ProtoError::Truncated)?;
    if payload_end + 8 > bytes.len() {
        return Err(ProtoError::Truncated);
    }
    let payload = bytes[pos..payload_end].to_vec();
    let mut cpos = payload_end;
    let expected = read_u64_le(bytes, &mut cpos)?;
    let actual = frame_checksum_of(ftype, &payload);
    if expected != actual {
        return Err(ProtoError::ChecksumMismatch { expected, actual });
    }
    Ok((ftype, payload, cpos))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context {
            ram_mb: 2048,
            cpu_mhz: 2393,
            bandwidth_mbps: 2.0,
            file_bytes: 51_200,
        }
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello { version: 1 },
            Request::Ping,
            Request::Metrics,
            Request::Bye,
            Request::Compress {
                file: "f1".into(),
                priority: Priority::Normal,
                context: ctx(),
                seq_len: 10,
                words: vec![0xAB, 0xCD, 0x12],
            },
            Request::CompressBegin {
                file: "big".into(),
                priority: Priority::Low,
                context: ctx(),
                total_len: 100_000,
                chunk_bases: 4096,
            },
            Request::CompressChunk {
                index: 3,
                words: vec![1, 2, 3, 4],
            },
            Request::CompressEnd { checksum: 0xDEAD_BEEF },
            Request::Get { key: [7u8; 16] },
            Request::Stat { key: None },
            Request::Stat { key: Some([9u8; 16]) },
            Request::HelloEpoch {
                version: 1,
                epoch: 0xFEED_F00D_CAFE,
                shard: 3,
            },
            Request::Keys,
            Request::Remove { key: [0x55; 16] },
            Request::MigrateBatch {
                epoch: 42,
                records: vec![],
            },
            Request::MigrateBatch {
                epoch: 7,
                records: vec![([1u8; 16], vec![9, 8, 7]), ([2u8; 16], vec![])],
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::HelloOk { version: 1 },
            Response::Pong,
            Response::MetricsOk { json: "{}".into() },
            Response::ByeOk,
            Response::Ack,
            Response::CompressOk {
                file: "f1".into(),
                algorithm: 4,
                original_len: 10_000,
                compressed_bytes: 2_600,
                blocks: 3,
                sim_ms: 12.5,
                cache_hit: true,
                key: Some([3u8; 16]),
            },
            Response::CompressOk {
                file: "f2".into(),
                algorithm: 0,
                original_len: 0,
                compressed_bytes: 13,
                blocks: 1,
                sim_ms: 0.0,
                cache_hit: false,
                key: None,
            },
            Response::GetOk { blob: vec![1, 2, 3] },
            Response::StatOk { json: "{\"records\":1}".into() },
            Response::Error {
                code: ErrorCode::ServerBusy,
                message: "full".into(),
            },
            Response::Error {
                code: ErrorCode::ShardDown,
                message: "shard 2 ejected".into(),
            },
            Response::Error {
                code: ErrorCode::WrongShard,
                message: "stale ring epoch".into(),
            },
            Response::Error {
                code: ErrorCode::QuorumFailed,
                message: "1 of 3 replica commits, need 2".into(),
            },
            Response::HelloEpochOk {
                version: 1,
                epoch: u64::MAX,
                shard: u32::MAX,
            },
            Response::KeysOk { keys: vec![] },
            Response::KeysOk {
                keys: vec![[4u8; 16], [5u8; 16]],
            },
            Response::RemoveOk { existed: true },
            Response::MigrateOk {
                stored: 12,
                deduped: 3,
            },
        ]
    }

    #[test]
    fn every_message_roundtrips_through_its_frame() {
        for req in sample_requests() {
            let frame = request_frame(&req);
            let (t, payload, used) = decode_frame(&frame, MAX_WIRE_PAYLOAD).unwrap();
            assert_eq!(used, frame.len());
            assert_eq!(Request::decode(t, &payload).unwrap(), req);
        }
        for resp in sample_responses() {
            let frame = response_frame(&resp);
            let (t, payload, used) = decode_frame(&frame, MAX_WIRE_PAYLOAD).unwrap();
            assert_eq!(used, frame.len());
            assert_eq!(Response::decode(t, &payload).unwrap(), resp);
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame = request_frame(&Request::Compress {
            file: "f".into(),
            priority: Priority::High,
            context: ctx(),
            seq_len: 8,
            words: vec![1, 2],
        });
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                // A flip may corrupt the magic, version, length, payload
                // or checksum — all typed rejections, never a silent
                // success returning the original request.
                match decode_frame(&bad, MAX_WIRE_PAYLOAD) {
                    Err(_) => {}
                    Ok((t, payload, _)) => {
                        // Length-field flips can still frame-checksum
                        // correctly only if they decode to the same
                        // request; anything else must fail.
                        assert_ne!(
                            Request::decode(t, &payload).ok(),
                            Some(Request::Ping),
                            "flip at {byte}:{bit} silently accepted"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn oversize_declared_length_is_refused_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&WIRE_MAGIC);
        frame.push(WIRE_VERSION);
        frame.push(0x02);
        // Forge a length far over the cap; the body is absent.
        dnacomp_codec::varint::write_uvarint(&mut frame, (MAX_WIRE_PAYLOAD as u64) * 1000);
        assert_eq!(
            decode_frame(&frame, MAX_WIRE_PAYLOAD),
            Err(ProtoError::Oversize {
                declared: (MAX_WIRE_PAYLOAD as u64) * 1000,
                cap: MAX_WIRE_PAYLOAD as u64,
            })
        );
    }

    #[test]
    fn bad_magic_version_and_truncation_are_typed() {
        let good = request_frame(&Request::Ping);
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(decode_frame(&bad, MAX_WIRE_PAYLOAD), Err(ProtoError::BadMagic));
        let mut bad = good.clone();
        bad[2] = 9;
        assert_eq!(
            decode_frame(&bad, MAX_WIRE_PAYLOAD),
            Err(ProtoError::BadVersion(9))
        );
        for cut in 0..good.len() {
            assert!(decode_frame(&good[..cut], MAX_WIRE_PAYLOAD).is_err());
        }
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let (t, mut payload) = Request::Ping.encode();
        payload.push(0);
        assert_eq!(
            Request::decode(t, &payload),
            Err(ProtoError::Malformed("trailing payload bytes"))
        );
        let (t, mut payload) = Request::Get { key: [0u8; 16] }.encode();
        payload.push(1);
        assert!(Request::decode(t, &payload).is_err());
    }

    #[test]
    fn unknown_types_and_error_codes_are_typed() {
        assert_eq!(
            Request::decode(0x6E, &[]),
            Err(ProtoError::UnknownType(0x6E))
        );
        assert_eq!(
            Response::decode(0xF0, &[]),
            Err(ProtoError::UnknownType(0xF0))
        );
        assert_eq!(ErrorCode::from_wire(0), None);
        assert_eq!(ErrorCode::from_wire(200), None);
        for code in 1..=14u8 {
            let decoded = ErrorCode::from_wire(code).unwrap();
            assert_eq!(decoded as u8, code);
        }
        assert_eq!(ErrorCode::from_wire(15), None);
    }

    #[test]
    fn migrate_batch_integrity_is_enforced_at_decode() {
        let batch = Request::MigrateBatch {
            epoch: 9,
            records: vec![([7u8; 16], vec![1, 2, 3, 4])],
        };
        let (t, payload) = batch.encode();
        assert_eq!(Request::decode(t, &payload).unwrap(), batch);
        // Flip one record byte: the frame itself would re-checksum
        // fine if re-framed, but the batch digest catches it.
        let mut bad = payload.clone();
        bad[8 + 1 + 16] ^= 0x40; // inside the first record's key/blob region
        assert!(matches!(
            Request::decode(t, &bad),
            Err(ProtoError::Malformed(_)) | Err(ProtoError::Truncated)
        ));
        // Forge the record count far beyond the payload: refused by the
        // affordability check before any allocation.
        let mut forged = Vec::new();
        write_u64_le(&mut forged, 9);
        write_uvarint(&mut forged, u32::MAX as u64);
        assert_eq!(
            Request::decode(t, &forged),
            Err(ProtoError::Malformed("migrate count over payload"))
        );
    }

    #[test]
    fn lying_shard_ids_and_forged_epochs_stay_typed() {
        // A shard id over u32::MAX is a lie by construction.
        let mut payload = vec![WIRE_VERSION];
        write_u64_le(&mut payload, 5);
        write_uvarint(&mut payload, u64::MAX);
        assert_eq!(
            Request::decode(T_HELLO_EPOCH, &payload),
            Err(ProtoError::Malformed("shard id out of range"))
        );
        // Any epoch value is decodable — epoch *checking* is the
        // receiver's policy, not the codec's.
        let req = Request::HelloEpoch {
            version: 1,
            epoch: u64::MAX,
            shard: 0,
        };
        let (t, payload) = req.encode();
        assert_eq!(Request::decode(t, &payload).unwrap(), req);
        // KeysOk with a forged count is refused before allocation.
        let mut forged = Vec::new();
        write_uvarint(&mut forged, u32::MAX as u64);
        assert_eq!(
            Response::decode(T_KEYS_OK, &forged),
            Err(ProtoError::Malformed("key count over payload"))
        );
    }

    #[test]
    fn compress_words_must_match_declared_length() {
        let (t, payload) = Request::Compress {
            file: "f".into(),
            priority: Priority::Normal,
            context: ctx(),
            seq_len: 100,
            words: vec![0; 3], // should be 25
        }
        .encode();
        assert_eq!(
            Request::decode(t, &payload),
            Err(ProtoError::Malformed("words disagree with length"))
        );
    }
}
