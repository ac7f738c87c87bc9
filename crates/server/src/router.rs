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
//! ## Epochs, rebalance and anti-entropy
//!
//! The ring's membership digest — its **epoch** — is asserted by
//! epoch-aware peers in the `HelloEpoch` handshake. A router refuses
//! mismatching epochs with [`ErrorCode::WrongShard`]: a stale peer
//! cannot forward into a reshaped ring. When the shard set changes,
//! [`rebalance`] walks every shard's resident keys over the wire and
//! migrates misplaced records to their new owners in checksummed
//! batches, deleting each source record only after the destination
//! acknowledged the copy; the sweep persists a resumable cursor so a
//! crash restarts where it stopped instead of rescanning every shard.
//! [`repair`] is the self-healing backstop: an anti-entropy sweep
//! that compares bucketed key digests per shard and ships only the
//! differing buckets, so a shard restored from an empty disk
//! converges to full replication without a manual rebalance.

use crate::conn::{
    err, serve, Checkout, ConnConfig, CountingStream, Endpoint, Handler, StreamPool, IO_TICK,
};
use crate::hints::HintQueue;
use crate::metrics::{ConnStats, RouterMetrics, RouterMetricsSnapshot, ShardLabel};
use crate::net::{ClientError, NetClient};
use crate::proto::{ErrorCode, ProtoError, Request, Response, WIRE_VERSION};
use crate::queue::Priority;
use crate::ring::{Ring, ShardSpec};
use dnacomp_algos::{compressor_for, Algorithm, CompressedBlob};
use dnacomp_codec::checksum::{fnv1a, mix64};
use dnacomp_core::{contain_panic, Context, Deadline};
use dnacomp_seq::PackedSeq;
use dnacomp_store::{ContentKey, StoreSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
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
    /// missed a quorum write; `None` disables hinting (anti-entropy
    /// repair remains the convergence path).
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
/// A pooled connection that fails in transport is retried once on a
/// fresh dial before the attempt is declared failed — a shard restart
/// leaves stale sockets in every pool, and one redial cleanly
/// distinguishes "shard was restarted" from "shard is down".
fn with_backend<T>(
    shared: &RouterShared,
    slot: usize,
    budget: Duration,
    f: impl Fn(&mut BackendClient) -> Result<T, ClientError>,
) -> Result<T, BackendError> {
    let pool = &shared.shards[slot].pool;
    let deadline = Deadline::after(budget);
    let (mut client, reused) = match pool.checkout(deadline) {
        None => return Err(BackendError::PoolBusy),
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
            Ok(v)
        }
        Err(first) => {
            pool.discard();
            if !reused {
                return Err(BackendError::Transport(first));
            }
            // Stale pooled socket: one fresh dial, one more try.
            match pool.checkout(deadline) {
                Some(Checkout::Dial) => match dial(shared, slot) {
                    Ok(mut fresh) => match f(&mut fresh) {
                        Ok(v) => {
                            pool.checkin(fresh);
                            Ok(v)
                        }
                        Err(e) => {
                            pool.discard();
                            Err(BackendError::Transport(e))
                        }
                    },
                    Err(e) => {
                        pool.discard();
                        Err(BackendError::Transport(e))
                    }
                },
                Some(Checkout::Reused(c)) => {
                    // Another thread returned a conn meanwhile; use it.
                    let mut c = c;
                    match f(&mut c) {
                        Ok(v) => {
                            pool.checkin(c);
                            Ok(v)
                        }
                        Err(e) => {
                            pool.discard();
                            Err(BackendError::Transport(e))
                        }
                    }
                }
                None => Err(BackendError::Transport(first)),
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
/// verified container) is a counted drop — anti-entropy repair is its
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

    /// Run one anti-entropy [`repair`] sweep over this router's ring
    /// (dialling the shards directly, like [`rebalance`]) at the
    /// router's configured replication factor, accounting shipped
    /// buckets into the metrics rollup.
    pub fn repair(&self, timeout: Duration, buckets: u32) -> Result<RepairReport, String> {
        let report = repair(&self.shared.ring, self.shared.cfg.replicas, timeout, buckets)?;
        self.shared
            .metrics
            .repair_buckets_shipped
            .add(report.buckets_shipped);
        Ok(report)
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

/// Outcome of one [`rebalance`] sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Keys enumerated and processed across every shard.
    pub scanned: u64,
    /// Keys skipped because a resume cursor marked them done.
    pub skipped: u64,
    /// Records shipped to their new owner.
    pub moved: u64,
    /// Shipped records the owner already held.
    pub deduped: u64,
    /// Source records deleted after the owner acknowledged.
    pub removed: u64,
    /// Container bytes shipped over the wire.
    pub bytes: u64,
}

/// Persisted progress of a [`rebalance_resumable`] sweep: shard slots
/// strictly below `next_slot` are fully swept; within `next_slot`,
/// keys at or below `last_key` (in sorted key order) are done. A
/// cursor from a different ring epoch is ignored — the plan it
/// tracked no longer exists.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RebalanceCursor {
    /// Ring epoch the sweep was planned under.
    pub epoch: u64,
    /// First shard slot not yet fully swept.
    pub next_slot: usize,
    /// Last key (hex) already processed within `next_slot`, if any.
    pub last_key: Option<String>,
}

/// Dial-on-demand connections for offline sweeps ([`rebalance`],
/// [`repair`]): one lazily dialled plain-TCP client per shard slot.
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
}

/// Migrate every misplaced record to its owner under `ring`, with
/// `replicas` copies per key considered correctly placed. Equivalent
/// to [`rebalance_resumable`] with no cursor.
pub fn rebalance(
    ring: &Ring,
    replicas: usize,
    timeout: Duration,
    batch_records: usize,
) -> Result<RebalanceReport, String> {
    rebalance_resumable(ring, replicas, timeout, batch_records, None)
}

/// Migrate every misplaced record to its owner under `ring`.
///
/// For each shard, in slot order: enumerate its resident keys in
/// sorted order, fetch each record whose replica set (under
/// `replicas`) does not include this shard, ship them to the key's
/// owner in checksummed batches of at most `batch_records` records,
/// and delete each source record **only after** the owner's typed
/// `MigrateOk` acknowledged the batch — a crash mid-rebalance
/// duplicates records (idempotent: the store dedups by key), it never
/// loses one.
///
/// With `cursor_path` set, the sweep position is persisted after
/// every batch and the file removed on completion; a re-run after a
/// crash resumes from the cursor instead of rescanning every shard,
/// counting cursor-skipped keys as `skipped` (fully-swept shards are
/// not contacted at all). Cursor writes are best-effort: losing one
/// only costs rescanning, never a record.
pub fn rebalance_resumable(
    ring: &Ring,
    replicas: usize,
    timeout: Duration,
    batch_records: usize,
    cursor_path: Option<&Path>,
) -> Result<RebalanceReport, String> {
    let batch_records = batch_records.max(1);
    let mut report = RebalanceReport::default();
    let epoch = ring.epoch();
    let n = ring.shards().len();
    let mut conns = SweepConns::new(ring, timeout);

    // Resume point, if a cursor from this epoch exists.
    let mut start_slot = 0usize;
    let mut resume_after: Option<[u8; 16]> = None;
    if let Some(path) = cursor_path {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(cur) = serde_json::from_str::<RebalanceCursor>(&text) {
                if cur.epoch == epoch {
                    start_slot = cur.next_slot.min(n);
                    resume_after = cur
                        .last_key
                        .as_deref()
                        .and_then(ContentKey::from_hex)
                        .map(|k| k.0);
                }
            }
        }
    }
    let save_cursor = |slot: usize, last: Option<[u8; 16]>| {
        if let Some(path) = cursor_path {
            let cur = RebalanceCursor {
                epoch,
                next_slot: slot,
                last_key: last.map(|k| ContentKey(k).to_hex()),
            };
            if let Ok(json) = serde_json::to_string(&cur) {
                let _ = std::fs::write(path, json);
            }
        }
    };

    for source in start_slot..n {
        let mut keys = conns
            .get(source)?
            .keys()
            .map_err(|e| format!("listing keys on shard {}: {e}", ring.shards()[source].id))?;
        keys.sort_unstable();
        let cut = if source == start_slot {
            resume_after.take()
        } else {
            None
        };

        // Walk keys in sorted order, flushing misplaced ones in
        // batches; the cursor advances to the last enumerated key of
        // each flushed batch, so everything at or before it is done.
        let mut pending: Vec<[u8; 16]> = Vec::new();
        let flush = |pending: &mut Vec<[u8; 16]>,
                         conns: &mut SweepConns<'_>,
                         report: &mut RebalanceReport,
                         upto: [u8; 16]|
         -> Result<(), String> {
            let mut by_owner: BTreeMap<usize, Vec<[u8; 16]>> = BTreeMap::new();
            for key in pending.drain(..) {
                by_owner
                    .entry(ring.replica_slots(&key, replicas)[0])
                    .or_default()
                    .push(key);
            }
            for (owner, keys) in by_owner {
                // Fetch the batch from the source.
                let mut records = Vec::with_capacity(keys.len());
                for &key in &keys {
                    let got = conns
                        .get(source)?
                        .call(&Request::Get { key })
                        .map_err(|e| format!("fetching record: {e}"))?;
                    match got {
                        Response::GetOk { blob } => {
                            report.bytes += blob.len() as u64;
                            records.push((key, blob));
                        }
                        // Deleted between enumeration and fetch: fine.
                        Response::Error {
                            code: ErrorCode::UnknownKey,
                            ..
                        } => {}
                        other => return Err(format!("unexpected get reply: {other:?}")),
                    }
                }
                if records.is_empty() {
                    continue;
                }
                let batch_keys: Vec<[u8; 16]> = records.iter().map(|(k, _)| *k).collect();
                let (stored, deduped) = conns
                    .get(owner)?
                    .migrate_batch(epoch, records)
                    .map_err(|e| format!("migrating to shard {}: {e}", ring.shards()[owner].id))?;
                report.moved += stored;
                report.deduped += deduped;
                // Only now is the source copy redundant.
                for key in batch_keys {
                    if conns
                        .get(source)?
                        .remove(key)
                        .map_err(|e| format!("removing migrated record: {e}"))?
                    {
                        report.removed += 1;
                    }
                }
            }
            save_cursor(source, Some(upto));
            Ok(())
        };

        let total = keys.len();
        for (i, key) in keys.into_iter().enumerate() {
            if let Some(cut) = cut {
                if key <= cut {
                    report.skipped += 1;
                    continue;
                }
            }
            report.scanned += 1;
            if !ring.replica_slots(&key, replicas).contains(&source) {
                pending.push(key);
            }
            if pending.len() >= batch_records || (i + 1 == total && !pending.is_empty()) {
                flush(&mut pending, &mut conns, &mut report, key)?;
            }
        }
        save_cursor(source + 1, None);
    }
    conns.finish();
    if let Some(path) = cursor_path {
        let _ = std::fs::remove_file(path);
    }
    Ok(report)
}

/// Outcome of one [`repair`] anti-entropy sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Resident keys enumerated across every shard.
    pub keys_scanned: u64,
    /// `(shard, bucket)` digest pairs compared.
    pub buckets_checked: u64,
    /// Digests that disagreed with the expected placement.
    pub buckets_differing: u64,
    /// Differing buckets that had missing keys shipped (a bucket that
    /// differs only by *extra* copies is [`rebalance`]'s business).
    pub buckets_shipped: u64,
    /// Records shipped to under-replicated shards.
    pub keys_shipped: u64,
    /// Shipped records the target already held.
    pub deduped: u64,
    /// Container bytes shipped over the wire.
    pub bytes: u64,
}

/// The digest bucket a key rolls up into.
fn repair_bucket(key: &[u8; 16], buckets: u32) -> u32 {
    (fnv1a(key) % buckets as u64) as u32
}

/// Order-independent per-bucket rollup of a key set: each bucket
/// holds a count and a wrapping sum of `mix64(fnv1a(key))` — two sets
/// agree on a bucket iff (modulo collisions far below the container
/// checksum's error floor) they hold the same keys in it.
fn repair_digests(keys: &BTreeSet<[u8; 16]>, buckets: u32) -> Vec<(u64, u64)> {
    let mut out = vec![(0u64, 0u64); buckets as usize];
    for key in keys {
        let b = repair_bucket(key, buckets) as usize;
        out[b].0 += 1;
        out[b].1 = out[b].1.wrapping_add(mix64(fnv1a(key)));
    }
    out
}

/// Anti-entropy sweep: converge every shard toward holding every key
/// whose replica set (under `replicas`) includes it.
///
/// Instead of shipping whole key listings between shards, each
/// shard's residency is rolled up into `buckets` order-independent
/// FNV-1a digest buckets and compared against the expected placement
/// of the cluster-wide key union. Only differing buckets are
/// expanded, and only the missing keys are fetched from a current
/// holder and shipped over the checksummed `MigrateBatch` path — so a
/// shard restored from an empty disk converges to full replication
/// while an already-converged cluster exchanges nothing but digests.
///
/// The sweep is **additive**: it never removes a record (extra copies
/// after a membership change are [`rebalance`]'s business), so repair
/// can never destroy a replica.
pub fn repair(
    ring: &Ring,
    replicas: usize,
    timeout: Duration,
    buckets: u32,
) -> Result<RepairReport, String> {
    let buckets = buckets.max(1);
    let n = ring.shards().len();
    let mut report = RepairReport::default();
    let mut conns = SweepConns::new(ring, timeout);

    // Enumerate residency per shard.
    let mut resident: Vec<BTreeSet<[u8; 16]>> = Vec::with_capacity(n);
    for slot in 0..n {
        let keys = conns
            .get(slot)?
            .keys()
            .map_err(|e| format!("listing keys on shard {}: {e}", ring.shards()[slot].id))?;
        report.keys_scanned += keys.len() as u64;
        resident.push(keys.into_iter().collect());
    }

    // The cluster-wide key union, each with one current holder, and
    // the placement every shard is expected to converge to.
    let mut holders: BTreeMap<[u8; 16], usize> = BTreeMap::new();
    for (slot, keys) in resident.iter().enumerate() {
        for key in keys {
            holders.entry(*key).or_insert(slot);
        }
    }
    let mut expected: Vec<BTreeSet<[u8; 16]>> = vec![BTreeSet::new(); n];
    for key in holders.keys() {
        for slot in ring.replica_slots(key, replicas) {
            expected[slot].insert(*key);
        }
    }

    let epoch = ring.epoch();
    for slot in 0..n {
        let have = repair_digests(&resident[slot], buckets);
        let want = repair_digests(&expected[slot], buckets);
        for b in 0..buckets {
            report.buckets_checked += 1;
            if have[b as usize] == want[b as usize] {
                continue;
            }
            report.buckets_differing += 1;
            let missing: Vec<[u8; 16]> = expected[slot]
                .iter()
                .filter(|k| repair_bucket(k, buckets) == b && !resident[slot].contains(*k))
                .copied()
                .collect();
            if missing.is_empty() {
                continue;
            }
            report.buckets_shipped += 1;
            // Fetch each missing key from a current holder, then ship
            // the bucket to the shard in bounded checksummed batches.
            let mut records: Vec<([u8; 16], Vec<u8>)> = Vec::with_capacity(missing.len());
            for key in missing {
                let holder = holders[&key];
                let got = conns
                    .get(holder)?
                    .call(&Request::Get { key })
                    .map_err(|e| format!("fetching record: {e}"))?;
                match got {
                    Response::GetOk { blob } => {
                        report.bytes += blob.len() as u64;
                        records.push((key, blob));
                    }
                    // Deleted between enumeration and fetch: fine.
                    Response::Error {
                        code: ErrorCode::UnknownKey,
                        ..
                    } => {}
                    other => return Err(format!("unexpected get reply: {other:?}")),
                }
            }
            for chunk in records.chunks(64) {
                let (stored, deduped) = conns
                    .get(slot)?
                    .migrate_batch(epoch, chunk.to_vec())
                    .map_err(|e| format!("repairing shard {}: {e}", ring.shards()[slot].id))?;
                report.keys_shipped += stored;
                report.deduped += deduped;
            }
        }
    }
    conns.finish();
    Ok(report)
}
