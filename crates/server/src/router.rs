//! The shard router: one `"DW"` endpoint in front of N shard servers.
//!
//! A [`RouterServer`] speaks the existing wire protocol on both sides.
//! Clients connect to it exactly as they would to a single
//! [`crate::net::NetServer`]; every keyed request (`Get`, `Stat`,
//! `Compress` — whose content key is a pure function of the sequence)
//! is mapped to a shard by the consistent-hash [`Ring`] and forwarded
//! over a pooled back-end connection. The router is therefore a
//! *transparent* scale-out layer: a compress acknowledged through the
//! router is stored on some shard, and a later get for its key routes
//! to the same shard by construction.
//!
//! Its client side is the same connection core the shard runs on
//! (`conn::serve`): accept, strikes and kills, the handshake gate and
//! upload reassembly are shared, and the router supplies only its
//! `HelloEpoch` rule, the quorum route for an assembled sequence, and
//! its answers to `Metrics`, `Get` and `Stat`. Store admin requests
//! (`Keys`, `Remove`, `MigrateBatch`) are refused as `Unsupported`:
//! they go to shards directly.
//!
//! ## Replication and failure discipline
//!
//! Every keyed write lands on the key's **replica set** — the owner
//! plus its R−1 distinct ring successors ([`Ring::replica_slots`]) —
//! and the client is acknowledged only once a configurable **write
//! quorum** W of replicas committed. A write is compressed once: the
//! first replica in ring order whose compress commits (the owner, when
//! it is healthy) is the holder, and the router fetches its container,
//! verifies it against the content key and ships it to every other
//! healthy replica at once over the checksummed migrate path.
//! Per-replica failures are typed partial results, never client
//! errors: as long as the quorum held, each missed replica becomes a
//! persisted **hinted handoff** record ([`crate::hints::HintQueue`])
//! of the same verified container, which the prober drains back to the
//! shard once it is healthy again. Only a write that cannot reach W
//! replicas surfaces, as a typed [`ErrorCode::QuorumFailed`].
//!
//! Reads walk the same replica set: a transport failure or any typed
//! error (a clean `UnknownKey`, a store refusing a damaged record)
//! falls through to the next replica, and a replica that missed (or
//! serves a container that does not parse) is **read-repaired** with
//! the canonical bytes — verified by the write path's rule and shipped
//! through its fan-out. Exhausting every replica is a typed
//! [`ErrorCode::ShardDown`]; never a hang, never a silent drop.
//!
//! A prober thread pings every shard on a fixed cadence; consecutive
//! failures eject a shard (strike-based, like connection kills), a
//! successful probe re-admits it. Ejected shards are skipped by the
//! forwarding path, which is what turns a dead back-end from "every
//! request times out" into "requests fail over instantly".
//!
//! ## Epochs and the placement sweep
//!
//! The ring's membership digest — its **epoch** — is asserted by
//! epoch-aware peers in the `HelloEpoch` handshake. A router refuses
//! mismatching epochs with [`ErrorCode::WrongShard`]: a stale peer
//! cannot forward into a reshaped ring. Offline, one [`sweep`] keeps
//! every key on its whole replica set: it lists every shard's keys over
//! the wire, ships each copy a member lacks in checksummed batches
//! capped at one frame, and — when pruning after a membership change
//! (`route rebalance`) — removes copies outside the set only after the
//! batch was acknowledged. Without pruning (`route repair`) it only
//! adds, so a shard restored from an empty disk converges back to full
//! replication. A persisted `{epoch, last_key}` cursor lets a crashed
//! sweep resume instead of redoing finished batches.

use crate::conn::{
    err, serve, Checkout, ConnConfig, CountingStream, Endpoint, Handler, StreamPool, IO_TICK,
};
use crate::hints::HintQueue;
use crate::metrics::{ConnStats, RouterMetrics, RouterMetricsSnapshot, ShardLabel};
use crate::net::{ClientError, NetClient};
use crate::proto::{ErrorCode, ProtoError, Request, Response, MAX_WIRE_PAYLOAD, WIRE_VERSION};
use crate::queue::Priority;
use crate::ring::{Ring, ShardSpec};
use dnacomp_algos::{compressor_for, Algorithm, CompressedBlob};
use dnacomp_core::{contain_panic, Context, Deadline};
use dnacomp_seq::PackedSeq;
use dnacomp_store::{ContentKey, StoreSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Router tuning knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Client connection limits and budgets, the same as a shard's.
    pub conn: ConnConfig,
    /// Per-shard forward deadline: pool checkout + dial + the whole
    /// request/response exchange against one shard.
    pub shard_timeout: Duration,
    /// Back-end connections per shard — the hard per-shard
    /// concurrency budget ([`StreamPool`] blocks beyond it).
    pub pool_per_shard: usize,
    /// Cadence of shard health probes.
    pub probe_interval: Duration,
    /// Deadline for one probe ping.
    pub probe_timeout: Duration,
    /// Consecutive probe failures before a shard is ejected.
    pub probe_strikes: u32,
    /// Replication factor R: each keyed write lands on the key's
    /// owner plus the next R−1 distinct shards clockwise (capped by
    /// the fleet size; 1 = the old single-owner behaviour).
    pub replicas: usize,
    /// Write quorum W: replica commits required before the client is
    /// acknowledged (clamped to `1..=R` per key).
    pub write_quorum: usize,
    /// Directory persisting hinted-handoff records for replicas that
    /// missed a quorum write; `None` disables hinting (`route repair`
    /// remains the convergence path).
    pub hint_dir: Option<PathBuf>,
    /// Pending hints held before new ones are dropped (and counted).
    pub hint_cap: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            conn: ConnConfig::default(),
            shard_timeout: Duration::from_secs(5),
            pool_per_shard: 2,
            probe_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_millis(500),
            probe_strikes: 3,
            replicas: 3,
            write_quorum: 2,
            hint_dir: None,
            hint_cap: 1024,
        }
    }
}

type BackendClient = NetClient<CountingStream<TcpStream>>;

/// Live state of one back-end shard.
#[derive(Debug)]
struct ShardState {
    spec: ShardSpec,
    healthy: AtomicBool,
    probe_strikes: AtomicU32,
    pool: StreamPool<BackendClient>,
}

/// Everything the handler and prober threads share.
#[derive(Debug)]
struct RouterShared {
    ring: Ring,
    cfg: RouterConfig,
    shards: Vec<ShardState>,
    metrics: RouterMetrics,
    hints: Option<HintQueue>,
}

impl RouterShared {
    fn labels(&self) -> Vec<ShardLabel> {
        self.shards
            .iter()
            .map(|s| ShardLabel {
                id: s.spec.id,
                addr: s.spec.addr.clone(),
                healthy: s.healthy.load(Ordering::Relaxed),
            })
            .collect()
    }

    fn snapshot(&self) -> RouterMetricsSnapshot {
        let pending = self.hints.as_ref().map_or(0, |h| h.pending() as u64);
        self.metrics
            .snapshot(self.ring.epoch(), &self.labels(), pending)
    }
}

/// How a back-end attempt failed (typed server errors are not
/// failures — they are forwarded to the client verbatim).
#[derive(Debug)]
enum BackendError {
    /// The per-shard connection budget stayed exhausted for the whole
    /// deadline.
    PoolBusy,
    /// Dial, handshake or transport failure.
    Transport(ClientError),
}

/// Dial one fresh connection to `slot`, wire-byte-counted and
/// handshaken.
fn dial(shared: &RouterShared, slot: usize) -> Result<BackendClient, ClientError> {
    let spec = &shared.shards[slot].spec;
    let stream =
        TcpStream::connect(spec.addr.as_str()).map_err(|e| ProtoError::Io(e.kind()))?;
    stream
        .set_read_timeout(Some(IO_TICK))
        .map_err(|e| ProtoError::Io(e.kind()))?;
    stream
        .set_write_timeout(Some(IO_TICK))
        .map_err(|e| ProtoError::Io(e.kind()))?;
    let _ = stream.set_nodelay(true);
    let (tx, rx) = shared.metrics.byte_counters(slot);
    let mut client = NetClient::over(CountingStream::new(stream, tx, rx), shared.cfg.shard_timeout);
    client.handshake()?;
    Ok(client)
}

/// Run `f` against a pooled connection to `slot`, within `budget`.
///
/// A pooled connection that fails in transport is retried once, on the
/// next checkout (a fresh dial, or a connection another thread just
/// returned), before the attempt is declared failed — a shard restart
/// leaves stale sockets in every pool, and one redial cleanly
/// distinguishes "shard was restarted" from "shard is down". A fresh
/// connection that fails is final.
fn with_backend<T>(
    shared: &RouterShared,
    slot: usize,
    budget: Duration,
    f: impl Fn(&mut BackendClient) -> Result<T, ClientError>,
) -> Result<T, BackendError> {
    let pool = &shared.shards[slot].pool;
    let deadline = Deadline::after(budget);
    // The failure of a reused socket, kept while its one retry runs.
    let mut first: Option<ClientError> = None;
    loop {
        let (mut client, reused) = match pool.checkout(deadline) {
            None => return Err(first.map_or(BackendError::PoolBusy, BackendError::Transport)),
            Some(Checkout::Reused(c)) => (c, true),
            Some(Checkout::Dial) => match dial(shared, slot) {
                Ok(c) => (c, false),
                Err(e) => {
                    pool.discard();
                    return Err(BackendError::Transport(e));
                }
            },
        };
        match f(&mut client) {
            Ok(v) => {
                pool.checkin(client);
                return Ok(v);
            }
            Err(e) => {
                pool.discard();
                if !reused || first.is_some() {
                    return Err(BackendError::Transport(e));
                }
                // Stale pooled socket: one more checkout, one more try.
                first = Some(e);
            }
        }
    }
}

fn healthy(shared: &RouterShared, slot: usize) -> bool {
    shared.shards[slot].healthy.load(Ordering::Relaxed)
}

fn backend_failure(shared: &RouterShared, slot: usize, e: &BackendError) -> String {
    match e {
        BackendError::PoolBusy => {
            format!("shard {} pool saturated", shared.shards[slot].spec.id)
        }
        BackendError::Transport(err) => {
            format!("shard {}: {err}", shared.shards[slot].spec.id)
        }
    }
}

/// The candidate order for one key's reads: its replica set, widened
/// to at least two distinct shards so an unreplicated ring keeps the
/// owner → successor fallback, filtered to healthy shards. If the
/// whole set is ejected the unfiltered set is returned — one
/// desperate pass still beats an instant refusal (the prober may
/// simply not have re-admitted anything yet).
fn read_candidates(shared: &RouterShared, key: &[u8; 16]) -> Vec<usize> {
    let all = shared.ring.replica_slots(key, shared.cfg.replicas.max(2));
    let alive: Vec<usize> = all.iter().copied().filter(|&s| healthy(shared, s)).collect();
    if alive.is_empty() {
        all
    } else {
        alive
    }
}

/// Forward one keyed read (`Stat {key}`): walk the key's replica
/// candidates, falling through on transport failure and on a clean
/// `UnknownKey` (the record may live on a replica that took it during
/// an owner outage). Exhausting every candidate is a typed
/// `ShardDown`; an everywhere-miss is the last `UnknownKey` verbatim.
fn forward(
    shared: &RouterShared,
    key: &[u8; 16],
    run: impl Fn(&mut BackendClient) -> Result<Response, ClientError>,
) -> Response {
    let candidates = read_candidates(shared, key);
    let last = candidates.len() - 1;
    let mut last_miss: Option<Response> = None;
    let mut last_failure = String::from("no healthy candidate");
    for (i, &slot) in candidates.iter().enumerate() {
        shared.metrics.shard(slot).forwards.inc();
        match with_backend(shared, slot, shared.cfg.shard_timeout, &run) {
            Ok(resp) => {
                shared.metrics.shard(slot).frames.inc();
                if let Response::Error { code, .. } = &resp {
                    shared.metrics.shard(slot).errors.inc();
                    if *code == ErrorCode::UnknownKey {
                        if i < last {
                            last_miss = Some(resp);
                            continue;
                        }
                        return last_miss.unwrap_or(resp);
                    }
                }
                return resp;
            }
            Err(e) => {
                last_failure = backend_failure(shared, slot, &e);
                if i < last {
                    shared.metrics.shard(slot).retries.inc();
                }
            }
        }
    }
    last_miss.unwrap_or_else(|| Response::Error {
        code: ErrorCode::ShardDown,
        message: format!(
            "no replica of the key reachable ({} candidate shard(s)): {last_failure}",
            candidates.len()
        ),
    })
}

/// Aggregate `Stat {key: None}` across every healthy shard: the
/// field-wise sum of the [`StoreSnapshot`] each shard answered with,
/// plus how many shards answered.
fn aggregate_stat(shared: &RouterShared) -> Response {
    let mut sum = StoreSnapshot::default();
    let mut reporting = 0u64;
    for (slot, shard) in shared.shards.iter().enumerate() {
        if !shard.healthy.load(Ordering::Relaxed) {
            continue;
        }
        let got = with_backend(shared, slot, shared.cfg.shard_timeout, |c| {
            c.call(&Request::Stat { key: None })
        });
        shared.metrics.shard(slot).frames.inc();
        if let Ok(Response::StatOk { json }) = got {
            if let Ok(stat) = serde_json::from_str::<StoreSnapshot>(&json) {
                reporting += 1;
                sum += stat;
            }
        }
    }
    // The summed snapshot's object, led by `shards_reporting`.
    let json = serde_json::to_string(&sum).expect("stat serialisation cannot fail");
    Response::StatOk {
        json: format!("{{\"shards_reporting\":{reporting},{}", &json[1..]),
    }
}

/// The rule a container must pass before the router ships or hints
/// it: it parses and, unless it is `Reference`-coded (which does not
/// decode standalone), decodes back to the sequence `key` names.
fn canonical(key: &[u8; 16], blob: &[u8]) -> bool {
    let Ok(container) = CompressedBlob::from_bytes(blob) else {
        return false;
    };
    container.algorithm == Algorithm::Reference
        || compressor_for(container.algorithm)
            .decompress(&container)
            .is_ok_and(|seq| ContentKey::of_sequence(&seq).0 == *key)
}

/// Run `run` for every slot of `targets` at once, returning the
/// results in `targets` order: one scoped thread per target beyond
/// the first, which runs on the caller's thread. Each `run` touches
/// only its own shard's pool, so no thread holds one shard's
/// connection while it waits on another shard, and a pool of one
/// connection per shard cannot deadlock.
fn fan_out<T: Send>(targets: &[usize], run: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let Some((&first, rest)) = targets.split_first() else {
        return Vec::new();
    };
    let run = &run;
    std::thread::scope(|s| {
        let spawned: Vec<_> = rest
            .iter()
            .map(|&slot| {
                let handle = std::thread::Builder::new().spawn_scoped(s, move || run(slot));
                (slot, handle)
            })
            .collect();
        let mut out = Vec::with_capacity(targets.len());
        out.push(run(first));
        for (slot, handle) in spawned {
            out.push(match handle {
                Ok(h) => h
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                // No thread to be had: run it on this one instead.
                Err(_) => run(slot),
            });
        }
        out
    })
}

/// Send one replica write to `slot`, counting its forward: the reply
/// when the replica committed (`CompressOk` or `MigrateOk`), else why
/// it did not.
fn send(
    shared: &RouterShared,
    slot: usize,
    call: impl Fn(&mut BackendClient) -> Result<Response, ClientError>,
) -> Result<Response, String> {
    let counters = shared.metrics.shard(slot);
    counters.forwards.inc();
    let id = shared.shards[slot].spec.id;
    let reply = with_backend(shared, slot, shared.cfg.shard_timeout, call)
        .map_err(|e| backend_failure(shared, slot, &e))?;
    counters.frames.inc();
    match reply {
        Response::CompressOk { .. } | Response::MigrateOk { .. } => Ok(reply),
        Response::Error { code, message } => {
            counters.errors.inc();
            Err(format!("shard {id}: {code}: {message}"))
        }
        _ => {
            counters.errors.inc();
            Err(format!("shard {id}: unexpected reply"))
        }
    }
}

/// Ship `key`'s verified container to every slot of `targets` at once
/// over the checksummed migrate path; each target's outcome, in order.
fn ship(
    shared: &RouterShared,
    key: &[u8; 16],
    blob: &[u8],
    targets: &[usize],
) -> Vec<Result<Response, String>> {
    let epoch = shared.ring.epoch();
    fan_out(targets, |slot| {
        send(shared, slot, |c| {
            c.call(&Request::MigrateBatch {
                epoch,
                records: vec![(*key, blob.to_vec())],
            })
        })
    })
}

/// The holder's stored container for `key`, when it is [`canonical`].
/// `None` when the holder's `Get` fails or is refused (a container
/// above one frame is `TooLarge`) or its bytes fail verification.
fn fetch_canonical(shared: &RouterShared, key: &[u8; 16], holder: usize) -> Option<Vec<u8>> {
    let reply = with_backend(shared, holder, shared.cfg.shard_timeout, |c| {
        c.call(&Request::Get { key: *key })
    })
    .ok()?;
    shared.metrics.shard(holder).frames.inc();
    match reply {
        Response::GetOk { blob } if canonical(key, &blob) => Some(blob),
        _ => None,
    }
}

/// A quorum write committed but some replicas missed it: persist one
/// handoff hint per missed replica, carrying the verified container.
/// A replica the queue cannot take (capacity, I/O failure, no
/// verified container) is a counted drop — `route repair` is its
/// convergence path.
fn queue_hints(shared: &RouterShared, key: &[u8; 16], container: Option<&[u8]>, missed: &[usize]) {
    let Some(hints) = &shared.hints else {
        return;
    };
    for &slot in missed {
        match container.map(|blob| hints.save(shared.shards[slot].spec.id, key, blob)) {
            Some(Ok(true)) => shared.metrics.hints_queued.inc(),
            _ => shared.metrics.hints_dropped.inc(),
        }
    }
}

/// Route a fully assembled sequence through a quorum write that
/// compresses once. Its content key *is* the routing key, and the
/// replica set is the owner plus its R−1 distinct ring successors.
/// The replicas are tried in ring order until one compress commits:
/// that replica is the *holder* (the owner, when it is healthy), and
/// its `CompressOk` is the reply. When a later healthy replica needs
/// it, or a missed replica will be hinted, the holder's stored
/// container is fetched once, verified ([`canonical`]) and shipped to
/// every later healthy replica at once ([`ship`]); a write with no
/// such replica fetches nothing. Without a verified container the
/// sequence goes to the later replicas instead, through the same
/// fan-out, and each compresses it. The client is acknowledged once
/// every sent replica answered and `write_quorum` of them committed.
/// Missed replicas become hinted handoffs of the verified container —
/// typed partial results, never client errors — as long as the
/// quorum held; short of the quorum the client gets a typed
/// `QuorumFailed` (safe to retry verbatim: duplicate keyed commits
/// dedup by content address).
fn route_compress(
    shared: &RouterShared,
    file: String,
    seq: PackedSeq,
    priority: Priority,
    context: Context,
) -> Response {
    let key = ContentKey::of_sequence(&seq).0;
    let replicas = shared.ring.replica_slots(&key, shared.cfg.replicas);
    let quorum = shared.cfg.write_quorum.clamp(1, replicas.len());
    let desperate = replicas.iter().all(|&s| !healthy(shared, s));
    let compress = |slot| {
        send(shared, slot, |c| {
            c.compress(&file, &seq, priority, context.clone())
        })
    };
    let mut holder: Option<(usize, Response)> = None;
    let mut targets: Vec<usize> = Vec::new();
    let mut missed: Vec<usize> = Vec::new();
    let mut last_failure = String::from("no healthy replica");
    for &slot in &replicas {
        if !desperate && !healthy(shared, slot) {
            missed.push(slot);
            last_failure = format!("shard {} is ejected", shared.shards[slot].spec.id);
        } else if holder.is_some() {
            targets.push(slot);
        } else {
            match compress(slot) {
                Ok(reply) => holder = Some((slot, reply)),
                Err(why) => {
                    missed.push(slot);
                    last_failure = why;
                }
            }
        }
    }
    // Replicas after the holder are the targets: none without one.
    // The container serves only the targets and the hints, so a write
    // with neither (every R=1 put) fetches nothing.
    let wanted = !targets.is_empty() || (shared.hints.is_some() && !missed.is_empty());
    let container = match &holder {
        Some((slot, Response::CompressOk { key: Some(_), .. })) if wanted => {
            fetch_canonical(shared, &key, *slot)
        }
        _ => None,
    };
    let sent = match &container {
        Some(blob) => ship(shared, &key, blob, &targets),
        None => fan_out(&targets, compress),
    };
    let mut commits = usize::from(holder.is_some());
    for (&slot, got) in targets.iter().zip(sent) {
        match got {
            Ok(_) => commits += 1,
            Err(why) => {
                missed.push(slot);
                last_failure = why;
            }
        }
    }
    shared.metrics.replica_writes.add(commits as u64);
    if holder.is_some() && !missed.is_empty() {
        queue_hints(shared, &key, container.as_deref(), &missed);
    }
    match holder {
        Some((_, reply)) if commits >= quorum => reply,
        _ => {
            shared.metrics.quorum_failures.inc();
            Response::Error {
                code: ErrorCode::QuorumFailed,
                message: format!(
                    "{commits} of {} replica commit(s), need {quorum}: {last_failure}",
                    replicas.len()
                ),
            }
        }
    }
}

/// Ship the canonical container to each stale (missed or divergent)
/// healthy replica, at once, over the write path's verified fan-out:
/// bytes that are not [`canonical`] are never propagated.
fn read_repair(shared: &RouterShared, key: &[u8; 16], blob: &[u8], stale: &[usize]) {
    if !canonical(key, blob) {
        return;
    }
    let targets: Vec<usize> = stale
        .iter()
        .copied()
        .filter(|&s| healthy(shared, s))
        .collect();
    for shipped in ship(shared, key, blob, &targets) {
        if shipped.is_ok() {
            shared.metrics.read_repairs.inc();
        }
    }
}

/// Route one `Get`: walk the key's replica candidates, falling
/// through on transport failure, any typed error (a clean
/// `UnknownKey`, or a store that refuses a damaged record), or a
/// container that does not parse (a divergent replica). The first
/// good copy answers the client; healthy replicas that missed or
/// served an unparsable container are then read-repaired with the
/// canonical bytes. With no copy served, the last typed error is the
/// reply, else a typed `ShardDown`.
fn route_get(shared: &RouterShared, key: [u8; 16]) -> Response {
    let candidates = read_candidates(shared, &key);
    // Only true members of the replica set are repair targets — the
    // widened R=1 successor is a legitimate non-holder.
    let replica_set = shared.ring.replica_slots(&key, shared.cfg.replicas);
    let last = candidates.len() - 1;
    let mut stale: Vec<usize> = Vec::new();
    let mut last_error: Option<Response> = None;
    let mut last_failure = String::from("no healthy candidate");
    for (i, &slot) in candidates.iter().enumerate() {
        shared.metrics.shard(slot).forwards.inc();
        match with_backend(shared, slot, shared.cfg.shard_timeout, |c| {
            c.call(&Request::Get { key })
        }) {
            Ok(Response::GetOk { blob }) => {
                shared.metrics.shard(slot).frames.inc();
                if CompressedBlob::from_bytes(&blob).is_err() {
                    // Divergent replica: what it serves is not even a
                    // valid container. Treat as a miss and repair it.
                    shared.metrics.shard(slot).errors.inc();
                    if replica_set.contains(&slot) {
                        stale.push(slot);
                    }
                    last_failure = format!(
                        "shard {} served a corrupt container",
                        shared.shards[slot].spec.id
                    );
                    continue;
                }
                if !stale.is_empty() {
                    read_repair(shared, &key, &blob, &stale);
                }
                return Response::GetOk { blob };
            }
            Ok(resp @ Response::Error { .. }) => {
                shared.metrics.shard(slot).frames.inc();
                shared.metrics.shard(slot).errors.inc();
                // Any typed error falls through: one replica's store
                // refusing a damaged record must not hide the good
                // copies. Only a clean miss is repaired — `MigrateBatch`
                // dedups on the key index, so a ship to a replica that
                // still indexes the damaged record would change nothing.
                let is_miss = matches!(
                    &resp,
                    Response::Error {
                        code: ErrorCode::UnknownKey,
                        ..
                    }
                );
                if is_miss && replica_set.contains(&slot) && healthy(shared, slot) {
                    stale.push(slot);
                }
                last_error = Some(resp);
            }
            Ok(other) => {
                shared.metrics.shard(slot).frames.inc();
                return other;
            }
            Err(e) => {
                last_failure = backend_failure(shared, slot, &e);
                if i < last {
                    shared.metrics.shard(slot).retries.inc();
                }
            }
        }
    }
    last_error.unwrap_or_else(|| Response::Error {
        code: ErrorCode::ShardDown,
        message: format!(
            "no replica of the key reachable ({} candidate shard(s)): {last_failure}",
            candidates.len()
        ),
    })
}

/// The router's handler: sequences route through a quorum write, keyed
/// reads through the key's replica set.
impl Handler for RouterShared {
    fn stats(&self) -> &ConnStats {
        self.metrics.conn()
    }

    /// An epoch-aware peer must claim shard 0 ("a router") and agree
    /// with the ring: a stale peer is refused before any forward.
    fn hello_epoch(&self, epoch: u64, shard: u32) -> Result<Response, Response> {
        if shard != 0 {
            return Err(err(
                ErrorCode::WrongShard,
                format!("this is a router, not shard {shard}"),
            ));
        }
        if epoch != self.ring.epoch() {
            return Err(err(
                ErrorCode::WrongShard,
                format!(
                    "stale ring epoch {epoch:#x} (router at {:#x})",
                    self.ring.epoch()
                ),
            ));
        }
        Ok(Response::HelloEpochOk {
            version: WIRE_VERSION,
            epoch,
            shard: 0,
        })
    }

    fn compress(
        &self,
        file: String,
        seq: PackedSeq,
        priority: Priority,
        context: Context,
    ) -> Response {
        route_compress(self, file, seq, priority, context)
    }

    fn dispatch(&self, req: Request) -> (Response, bool) {
        let reply = match req {
            Request::Metrics => Response::MetricsOk {
                json: self.snapshot().to_json(),
            },
            Request::Get { key } => route_get(self, key),
            Request::Stat { key: Some(key) } => forward(self, &key, move |c| {
                c.call(&Request::Stat { key: Some(key) })
            }),
            Request::Stat { key: None } => aggregate_stat(self),
            _ => err(
                ErrorCode::Unsupported,
                "store admin requests go to shards directly, not through the router",
            ),
        };
        (reply, false)
    }
}

/// One probe pass over every shard: ping, strike, eject, re-admit —
/// then drain pending handoff hints to every healthy shard.
fn probe_pass(shared: &RouterShared) {
    for (slot, shard) in shared.shards.iter().enumerate() {
        let got = with_backend(shared, slot, shared.cfg.probe_timeout, |c| c.ping());
        match got {
            // A saturated pool proves the shard is busy serving, which
            // is the opposite of dead.
            Ok(()) | Err(BackendError::PoolBusy) => {
                shard.probe_strikes.store(0, Ordering::Relaxed);
                if !shard.healthy.swap(true, Ordering::Relaxed) {
                    shared.metrics.shard(slot).readmissions.inc();
                }
            }
            Err(BackendError::Transport(_)) => {
                let strikes = shard.probe_strikes.fetch_add(1, Ordering::Relaxed) + 1;
                if strikes >= shared.cfg.probe_strikes
                    && shard.healthy.swap(false, Ordering::Relaxed)
                {
                    shared.metrics.shard(slot).ejections.inc();
                    // Close every idle socket to the dead shard now:
                    // the next forward dials fresh instead of timing
                    // out on a corpse.
                    drop(shard.pool.drain_idle());
                }
            }
        }
    }
    drain_hints(shared);
}

/// Deliver pending handoff hints to every currently-healthy shard,
/// over the checksummed migrate path, removing each hint only after
/// its shard acknowledged the batch. A delivery failure stops that
/// shard's drain for this pass (it probably flapped again); a hint
/// whose payload no longer parses is condemned as a counted drop.
fn drain_hints(shared: &RouterShared) {
    let Some(hints) = &shared.hints else {
        return;
    };
    if hints.pending() == 0 {
        return;
    }
    let epoch = shared.ring.epoch();
    for (slot, shard) in shared.shards.iter().enumerate() {
        if !shard.healthy.load(Ordering::Relaxed) {
            continue;
        }
        for key in hints.for_shard(shard.spec.id) {
            let bytes = match hints.load(shard.spec.id, &key) {
                Ok(bytes) => bytes,
                Err(_) => {
                    let _ = hints.remove(shard.spec.id, &key);
                    shared.metrics.hints_dropped.inc();
                    continue;
                }
            };
            let got = with_backend(shared, slot, shared.cfg.shard_timeout, |c| {
                c.migrate_batch(epoch, vec![(key, bytes.clone())])
            });
            match got {
                Ok(_) => {
                    shared.metrics.shard(slot).frames.inc();
                    let _ = hints.remove(shard.spec.id, &key);
                    shared.metrics.hints_drained.inc();
                }
                Err(_) => break,
            }
        }
    }
}

/// A running shard router. [`shutdown`](RouterServer::shutdown) (or
/// drop) stops accepting, drains in-flight connections and joins every
/// thread.
#[derive(Debug)]
pub struct RouterServer {
    endpoint: Endpoint,
    /// Dropped to stop the prober: its wait wakes at once.
    prober_stop: Option<mpsc::Sender<()>>,
    prober_thread: Option<JoinHandle<()>>,
    shared: Arc<RouterShared>,
}

impl RouterServer {
    /// Bind `addr`, build the ring over `shards`, start the prober and
    /// begin accepting clients.
    pub fn start(
        addr: impl ToSocketAddrs,
        ring: Ring,
        config: RouterConfig,
    ) -> std::io::Result<RouterServer> {
        let listener = TcpListener::bind(addr)?;
        let metrics = RouterMetrics::new(ring.shards().len());
        let shards = ring
            .shards()
            .iter()
            .map(|spec| ShardState {
                spec: spec.clone(),
                healthy: AtomicBool::new(true),
                probe_strikes: AtomicU32::new(0),
                pool: StreamPool::new(config.pool_per_shard),
            })
            .collect();
        let hints = match &config.hint_dir {
            Some(dir) => Some(
                HintQueue::open(dir, config.hint_cap)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?,
            ),
            None => None,
        };
        let shared = Arc::new(RouterShared {
            ring,
            cfg: config,
            shards,
            metrics,
            hints,
        });

        let endpoint = serve(listener, shared.cfg.conn, Arc::clone(&shared))?;
        let (prober_stop, stop) = mpsc::channel::<()>();
        let prober_shared = Arc::clone(&shared);
        let prober_thread = std::thread::Builder::new()
            .name("route-probe".into())
            .spawn(move || loop {
                let _ = contain_panic(|| probe_pass(&prober_shared));
                let interval = prober_shared.cfg.probe_interval;
                if stop.recv_timeout(interval) != Err(mpsc::RecvTimeoutError::Timeout) {
                    break;
                }
            })?;
        Ok(RouterServer {
            endpoint,
            prober_stop: Some(prober_stop),
            prober_thread: Some(prober_thread),
            shared,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.endpoint.local_addr()
    }

    /// The ring epoch this router serves.
    pub fn epoch(&self) -> u64 {
        self.shared.ring.epoch()
    }

    /// The aggregated metrics rollup (fleet counters + per-shard).
    pub fn metrics_snapshot(&self) -> RouterMetricsSnapshot {
        self.shared.snapshot()
    }

    /// Stop accepting, drain in-flight connections and join every
    /// thread.
    pub fn shutdown(mut self) -> RouterMetricsSnapshot {
        self.stop_and_join();
        self.shared.snapshot()
    }

    fn stop_and_join(&mut self) {
        self.endpoint.shutdown();
        self.prober_stop.take();
        if let Some(t) = self.prober_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RouterServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Outcome of one [`sweep`]. Each listed key counts once, in `scanned`
/// or in `skipped`, however many shards hold it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Keys checked against their replica sets.
    pub scanned: u64,
    /// Keys at or before the resume cursor, left alone.
    pub skipped: u64,
    /// Copies stored by replica-set members that lacked them.
    pub shipped: u64,
    /// Shipped copies the member already held.
    pub deduped: u64,
    /// Copies outside the replica set removed (pruning sweeps only).
    pub removed: u64,
    /// Container bytes shipped over the wire.
    pub bytes: u64,
}

/// Persisted progress of a [`sweep`]: every key at or before
/// `last_key` (hex, in key order) sits on its whole replica set. A
/// cursor from another ring epoch, or one that does not parse, is
/// ignored — the plan it tracked no longer exists.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepCursor {
    /// Ring epoch the sweep was planned under.
    pub epoch: u64,
    /// Last key (hex) of the last completed batch.
    pub last_key: String,
}

/// The records of one `MigrateBatch`: each key with its container.
type Records = Vec<([u8; 16], Vec<u8>)>;

/// Dial-on-demand connections for a [`sweep`]: one lazily dialled
/// plain-TCP client per shard slot.
struct SweepConns<'a> {
    ring: &'a Ring,
    timeout: Duration,
    conns: Vec<Option<NetClient<TcpStream>>>,
}

impl<'a> SweepConns<'a> {
    fn new(ring: &'a Ring, timeout: Duration) -> Self {
        SweepConns {
            ring,
            timeout,
            conns: (0..ring.shards().len()).map(|_| None).collect(),
        }
    }

    fn get(&mut self, slot: usize) -> Result<&mut NetClient<TcpStream>, String> {
        if self.conns[slot].is_none() {
            let addr = self.ring.shards()[slot].addr.as_str();
            self.conns[slot] = Some(
                NetClient::connect(addr, self.timeout)
                    .map_err(|e| format!("dialling shard at {addr}: {e}"))?,
            );
        }
        Ok(self.conns[slot].as_mut().expect("just connected"))
    }

    fn finish(self) {
        for conn in self.conns.into_iter().flatten() {
            let _ = conn.bye();
        }
    }

    /// `key`'s container from the first of `held` that serves it, or
    /// `None` when each answers `UnknownKey` (removed since listing).
    fn fetch(&mut self, key: [u8; 16], held: &[usize]) -> Result<Option<Vec<u8>>, String> {
        for &slot in held {
            let id = self.ring.shards()[slot].id;
            let reply = self.get(slot)?.call(&Request::Get { key });
            match reply.map_err(|e| format!("fetching a record from shard {id}: {e}"))? {
                Response::GetOk { blob } => return Ok(Some(blob)),
                Response::Error {
                    code: ErrorCode::UnknownKey,
                    ..
                } => {}
                other => return Err(format!("unexpected get reply from shard {id}: {other:?}")),
            }
        }
        Ok(None)
    }

    /// Send one `MigrateBatch` frame to `slot`, counting what it stored.
    fn migrate(
        &mut self,
        slot: usize,
        records: Records,
        report: &mut SweepReport,
    ) -> Result<(), String> {
        let ring = self.ring;
        let (stored, deduped) = self
            .get(slot)?
            .migrate_batch(ring.epoch(), records)
            .map_err(|e| format!("migrating to shard {}: {e}", ring.shards()[slot].id))?;
        report.shipped += stored;
        report.deduped += deduped;
        Ok(())
    }
}

/// `MigrateBatch` payload bytes besides the containers: the epoch, the
/// record count and the batch checksum per frame, and per record its
/// key and length varint (varints counted at their widest).
const FRAME_BYTES: usize = 8 + 10 + 8;
const RECORD_BYTES: usize = 16 + 10;

/// Put every key on its whole replica set under `ring`, with
/// `replicas` copies per key; with `prune`, also remove every copy
/// outside the set (`route rebalance`), without it add only
/// (`route repair`, which can never destroy a replica).
///
/// Every shard is listed once (`Keys`) into one sorted map from key to
/// the slots holding it. The keys are then walked in order, at most
/// `batch_records` at a time. A key that some member of its replica
/// set lacks is fetched (`Get`) from the first holder that serves it
/// and shipped to every member lacking it, in checksummed
/// `MigrateBatch` frames that close before they would pass
/// [`MAX_WIRE_PAYLOAD`] (a container larger than one frame is refused
/// by its shard, and fails the sweep). Copies outside the set are
/// removed only after every frame of the batch was acknowledged, so a
/// crash mid-sweep can duplicate a copy but never lose one.
///
/// With `cursor` set, `{epoch, last_key}` is saved after every batch
/// and the file removed on completion; a re-run skips the keys at or
/// before `last_key`, counting them as `skipped`. Cursor writes are
/// best-effort: losing one only costs a rescan.
pub fn sweep(
    ring: &Ring,
    replicas: usize,
    timeout: Duration,
    batch_records: usize,
    cursor: Option<&Path>,
    prune: bool,
) -> Result<SweepReport, String> {
    let epoch = ring.epoch();
    let mut conns = SweepConns::new(ring, timeout);
    let mut holders: BTreeMap<[u8; 16], Vec<usize>> = BTreeMap::new();
    for slot in 0..ring.shards().len() {
        let keys = conns
            .get(slot)?
            .keys()
            .map_err(|e| format!("listing keys on shard {}: {e}", ring.shards()[slot].id))?;
        for key in keys {
            holders.entry(key).or_default().push(slot);
        }
    }
    let after = cursor.and_then(|path| {
        let text = std::fs::read_to_string(path).ok()?;
        let cur: SweepCursor = serde_json::from_str(&text).ok()?;
        let last = ContentKey::from_hex(&cur.last_key)?;
        (cur.epoch == epoch).then_some(last.0)
    });
    let mut report = SweepReport::default();
    let listed = holders.len();
    let todo: Vec<([u8; 16], Vec<usize>)> = holders
        .into_iter()
        .filter(|(key, _)| after.is_none_or(|last| *key > last))
        .collect();
    report.skipped = (listed - todo.len()) as u64;

    for batch in todo.chunks(batch_records.max(1)) {
        // Per lacking member: the open frame's records and their bytes.
        let mut frames: BTreeMap<usize, (Records, usize)> = BTreeMap::new();
        // When pruning: each key whose set is whole once the frames
        // land, with the slots that hold it outside the set.
        let mut strays: Vec<([u8; 16], Vec<usize>)> = Vec::new();
        for (key, held) in batch {
            report.scanned += 1;
            let set = ring.replica_slots(key, replicas);
            let lacking: Vec<usize> = set.iter().copied().filter(|s| !held.contains(s)).collect();
            if !lacking.is_empty() {
                let Some(blob) = conns.fetch(*key, held)? else {
                    continue;
                };
                let size = RECORD_BYTES + blob.len();
                for slot in lacking {
                    let (records, bytes) = frames.entry(slot).or_default();
                    if !records.is_empty() && FRAME_BYTES + *bytes + size > MAX_WIRE_PAYLOAD {
                        conns.migrate(slot, std::mem::take(records), &mut report)?;
                        *bytes = 0;
                    }
                    *bytes += size;
                    report.bytes += blob.len() as u64;
                    records.push((*key, blob.clone()));
                }
            }
            let stray: Vec<usize> = held.iter().copied().filter(|s| !set.contains(s)).collect();
            if prune && !stray.is_empty() {
                strays.push((*key, stray));
            }
        }
        for (slot, (records, _)) in frames {
            conns.migrate(slot, records, &mut report)?;
        }
        // Only now is every copy outside the replica set redundant.
        for (key, slots) in &strays {
            for &slot in slots {
                let id = ring.shards()[slot].id;
                let existed = conns
                    .get(slot)?
                    .remove(*key)
                    .map_err(|e| format!("removing a stray copy on shard {id}: {e}"))?;
                report.removed += u64::from(existed);
            }
        }
        if let (Some(path), Some((last, _))) = (cursor, batch.last()) {
            let last_key = ContentKey(*last).to_hex();
            let json = serde_json::to_string(&SweepCursor { epoch, last_key })
                .expect("cursor serialisation cannot fail");
            let _ = std::fs::write(path, json);
        }
    }
    conns.finish();
    if let Some(path) = cursor {
        let _ = std::fs::remove_file(path);
    }
    Ok(report)
}
