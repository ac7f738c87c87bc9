//! # dnacomp-server — concurrent context-aware compression service
//!
//! The paper's Figure-7 deployment serves one request at a time; this
//! crate is the production-shaped version: a multi-threaded service
//! that takes [`CompressRequest`] jobs through a bounded, prioritised
//! submission queue, dispatches them to a fixed worker pool, runs the
//! context-aware framework per job (rule lookup → chosen compressor →
//! optional resilient cloud exchange) and resolves each job's
//! [`JobTicket`] with a [`CompressResponse`].
//!
//! What makes per-request selection cheap at scale:
//!
//! * a shared read-only rule-tree snapshot
//!   ([`dnacomp_core::FrameworkHandle`]) — trained once, shared by
//!   every worker behind an `Arc`, no locks on the decide path;
//! * an LRU **decision cache** ([`cache`]) keyed by the quantized
//!   context, so repeated contexts skip tree traversal entirely (and,
//!   by deciding on each key's canonical representative, stay
//!   deterministic under any thread interleaving);
//! * lock-free [`metrics`] — counters, per-algorithm wins, cache hit
//!   rate and simulated-latency p50/p95 — exported as JSON by
//!   `dnacomp serve` / `dnacomp bench-serve`.
//!
//! The pool is **supervised** ([`supervisor`]): job panics are
//! contained per job, crashed worker threads are detected and respawned
//! within a restart budget, repeat-offender jobs are quarantined into a
//! bounded dead-letter queue ([`dlq`]), and admission control sheds
//! low-priority work before overload turns into latency collapse. The
//! contract: **every ticket resolves exactly once with a typed
//! outcome** — `Ok`, typed `Err`, shed, or quarantined.
//!
//! Module map (one concern each): [`queue`] → [`worker`] → [`cache`] →
//! [`metrics`], supervised by [`supervisor`] + [`dlq`], assembled by
//! [`service`]. On the network, [`proto`] is the wire protocol and
//! [`conn`] the one connection core (accept, frame loop, handshake
//! gate, upload reassembly) that both front doors run on: the shard's
//! [`net`] and the [`router`] are two handlers of it. The service's
//! benchmarks live in `dnacomp-bench`, apart from the code they
//! measure.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod conn;
pub mod dlq;
pub mod dlq_dir;
pub mod hints;
pub mod metrics;
pub mod net;
pub mod proto;
pub mod queue;
pub mod ring;
pub mod router;
pub mod service;
pub(crate) mod supervisor;
pub(crate) mod worker;

pub use cache::{ContextKey, LruCache};
pub use conn::{
    read_frame, write_frame, Checkout, ConnConfig, CountingStream, FaultyStream, StreamPool,
    IO_TICK,
};
pub use dlq::{DeadLetter, DeadLetterInfo, DeadLetterQueue, QuarantineRegistry};
pub use dlq_dir::DlqDir;
pub use hints::HintQueue;
pub use metrics::{
    AlgorithmWins, Metrics, MetricsSnapshot, RouterMetrics, RouterMetricsSnapshot, ShardLabel,
};
pub use net::{ClientError, NetClient, NetConfig, NetServer};
pub use proto::{
    decode_frame, frame_bytes, migrate_batch_checksum, request_frame, response_frame, ErrorCode,
    ProtoError, Request, Response, MAX_WIRE_PAYLOAD, WIRE_MAGIC, WIRE_VERSION,
};
pub use queue::{JobQueue, Priority, PushError};
pub use ring::{Ring, ShardSpec, DEFAULT_RING_SEED, DEFAULT_VNODES};
pub use router::{
    rebalance, rebalance_resumable, repair, RebalanceCursor, RebalanceReport, RepairReport,
    RouterConfig, RouterServer,
};
pub use service::{
    synthetic_framework, CompressRequest, CompressResponse, CompressionService, JobError,
    JobResult, JobTicket, ServiceConfig, SubmitError,
};
