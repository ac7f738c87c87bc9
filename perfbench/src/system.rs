//! The system under test, started in-process on loopback: shards
//! (`CompressionService` + `NetServer` + `SequenceStore`), optionally
//! fronted by a `RouterServer`, plus the standalone per-layer
//! instances the traced run calls directly.
//!
//! Every workload uses the one `service_config` and the one
//! `store_config`; only the topology differs.

use crate::inputs::{Plan, Scale, Workload};
use dnacomp_algos::{compressor_for, Algorithm, CompressedBlob, TaskPool};
use dnacomp_core::FrameworkHandle;
use dnacomp_server::{
    synthetic_framework, ClientError, CompressionService, ContextKey, ErrorCode, LruCache,
    NetClient, NetConfig, NetServer, Ring, RouterConfig, RouterServer, ServiceConfig, ShardSpec,
    DEFAULT_RING_SEED, DEFAULT_VNODES,
};
use dnacomp_store::{SequenceStore, StoreConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Seed of the rule tree every shard trains at start-up. Fixed: the
/// workload seed drives inputs only.
const FRAMEWORK_SEED: u64 = 42;
/// Worker threads per shard.
const WORKERS: usize = 2;
/// Shards behind the router in the routed workloads.
const ROUTED_SHARDS: usize = 3;
/// Client-side deadline for one request.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The service configuration of every shard and standalone service:
/// two workers, the block-parallel threshold of the scale, persist
/// into the shard's own store; everything else at its default.
fn service_config(scale: &Scale, store: Arc<SequenceStore>) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        block_size: Some(scale.block_bases),
        store: Some(store),
        ..ServiceConfig::default()
    }
}

/// The store configuration of every store: fsync on commit with the
/// default group commit, a small segment roll and block cache so the
/// fetch data spans several sealed runs and outgrows the cache.
fn store_config(scale: &Scale) -> StoreConfig {
    StoreConfig {
        sync: true,
        segment_target_bytes: scale.segment_bytes,
        cache_bytes: scale.cache_bytes,
        run_block_bytes: scale.run_block_bytes,
        ..StoreConfig::default()
    }
}

/// The router configuration: R=3 replicas, write quorum W=2.
fn router_config() -> RouterConfig {
    RouterConfig {
        replicas: 3,
        write_quorum: 2,
        ..RouterConfig::default()
    }
}

fn open_store(dir: &Path, scale: &Scale) -> Result<Arc<SequenceStore>, String> {
    SequenceStore::open(dir, store_config(scale))
        .map(Arc::new)
        .map_err(|e| format!("opening store {}: {e}", dir.display()))
}

/// One shard: a service persisting into its own store, served over TCP.
pub struct Shard {
    server: NetServer,
    /// The shard's service.
    pub service: Arc<CompressionService>,
    /// The shard's store.
    pub store: Arc<SequenceStore>,
}

impl Shard {
    /// Train the rule tree, open the store, start the service and bind
    /// a loopback port.
    pub fn start(dir: &Path, scale: &Scale) -> Result<Shard, String> {
        let framework = synthetic_framework(FRAMEWORK_SEED);
        let store = open_store(dir, scale)?;
        let service = Arc::new(CompressionService::start(
            framework,
            service_config(scale, Arc::clone(&store)),
        ));
        let net = NetConfig {
            store: Some(Arc::clone(&store)),
            ..NetConfig::default()
        };
        let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", net)
            .map_err(|e| format!("binding shard: {e}"))?;
        Ok(Shard {
            server,
            service,
            store,
        })
    }

    /// The shard's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    fn stop(self) -> Result<(), String> {
        self.server.shutdown();
        let service = Arc::try_unwrap(self.service)
            .map_err(|_| "shard service still referenced after its server stopped".to_owned())?;
        service.shutdown();
        Ok(())
    }
}

/// The front-door system of one workload.
pub struct System {
    router: Option<RouterServer>,
    /// Shards, in ring order.
    pub shards: Vec<Shard>,
    /// Where clients connect: the router, or the only shard.
    pub front: SocketAddr,
}

impl System {
    /// Start the workload's topology: three shards behind an R=3/W=2
    /// router, or one shard with no router.
    pub fn start(workload: Workload, scale: &Scale, dir: &Path) -> Result<System, String> {
        let count = if workload.routed() { ROUTED_SHARDS } else { 1 };
        let shards = (0..count)
            .map(|i| Shard::start(&dir.join(format!("shard{i}")), scale))
            .collect::<Result<Vec<_>, _>>()?;
        System::over(shards, workload.routed())
    }

    /// Front `shards` with a router, or serve the only shard directly.
    fn over(shards: Vec<Shard>, routed: bool) -> Result<System, String> {
        if !routed {
            let front = shards[0].addr();
            return Ok(System {
                router: None,
                shards,
                front,
            });
        }
        let specs = shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardSpec {
                id: i as u32 + 1,
                addr: s.addr().to_string(),
            })
            .collect();
        let ring = Ring::new(specs, DEFAULT_VNODES, DEFAULT_RING_SEED)?;
        let router = RouterServer::start("127.0.0.1:0", ring, router_config())
            .map_err(|e| format!("binding router: {e}"))?;
        let front = router.local_addr();
        Ok(System {
            router: Some(router),
            shards,
            front,
        })
    }

    /// The router, when the workload has one.
    pub fn router(&self) -> Option<&RouterServer> {
        self.router.as_ref()
    }

    /// Every shard store.
    pub fn stores(&self) -> Vec<&SequenceStore> {
        self.shards.iter().map(|s| s.store.as_ref()).collect()
    }

    /// Stop the router, then every shard, joining all their threads.
    pub fn stop(self) -> Result<(), String> {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for shard in self.shards {
            shard.stop()?;
        }
        Ok(())
    }
}

/// A content key no generated sequence has: a Get of it must ask every
/// replica before the front door can answer `UnknownKey`.
const ABSENT_KEY: [u8; 16] = [0; 16];

/// Interval at which the accept loops poll a non-blocking listener.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Start the system and time the set-up: from the first constructor
/// call (rule-tree training, store opens, binds) to the first answer
/// through the front door that every shard took part in. That answer is
/// a Get of [`ABSENT_KEY`]: the router forwards it to all three
/// replicas, so their dials and `Hello` handshakes are inside the span
/// (a Ping the router answers by itself would leave them out). Without
/// a router, the only shard answers it.
///
/// The client arrives `arrival` of one accept-poll interval after the
/// system is started, and that wait counts. A client connecting the
/// instant the listener is bound would race the accept thread's first
/// poll, and who wins that race (no wait, or a whole poll interval)
/// depends on thread scheduling, not on the code.
pub fn timed_start(
    workload: Workload,
    scale: &Scale,
    dir: &Path,
    arrival: f64,
) -> Result<(System, f64), String> {
    let started = Instant::now();
    let system = System::start(workload, scale, dir)?;
    std::thread::sleep(ACCEPT_POLL.mul_f64(arrival.clamp(0.0, 1.0)));
    let mut client = NetClient::connect(system.front, CLIENT_TIMEOUT)
        .map_err(|e| format!("connecting to the front door: {e}"))?;
    match client.get(ABSENT_KEY) {
        Err(ClientError::Server {
            code: ErrorCode::UnknownKey,
            ..
        }) => {}
        Ok(_) => return Err("front door served a blob for the absent key".to_owned()),
        Err(e) => return Err(format!("front-door get of the absent key: {e}")),
    }
    let secs = started.elapsed().as_secs_f64();
    client.bye().map_err(|e| format!("front-door bye: {e}"))?;
    Ok((system, secs))
}

/// Standalone instances of each lower layer, identically configured,
/// which the traced run calls directly on the same inputs as the front
/// door. Each owns its state, so content-address dedup never turns a
/// direct call into a no-op.
pub struct Layers {
    /// For a workload without a router: a router in front of a shard of
    /// its own (`router`). One shard caps the replication at one copy.
    pub router: Option<System>,
    /// A shard called over TCP without the router (`net`).
    pub net: Shard,
    /// A service called in-process (`service`).
    pub service: CompressionService,
    /// A store called in-process (`store`).
    pub store: Arc<SequenceStore>,
    /// A block pool for framed compression (`frame`, `pool`).
    pub pool: Arc<TaskPool>,
    /// A decision cache (`cache`), the service's default capacity.
    pub cache: Mutex<LruCache<ContextKey, Algorithm>>,
    /// The rule tree (`core`).
    pub framework: FrameworkHandle,
}

impl Layers {
    /// Start every standalone layer under `dir`.
    pub fn start(workload: Workload, scale: &Scale, dir: &Path) -> Result<Layers, String> {
        let router = match workload.routed() {
            true => None,
            false => Some(System::over(
                vec![Shard::start(&dir.join("router"), scale)?],
                true,
            )?),
        };
        let net = Shard::start(&dir.join("net"), scale)?;
        let service_store = open_store(&dir.join("service"), scale)?;
        let service = CompressionService::start(
            synthetic_framework(FRAMEWORK_SEED),
            service_config(scale, service_store),
        );
        Ok(Layers {
            router,
            net,
            service,
            store: open_store(&dir.join("store"), scale)?,
            pool: Arc::new(TaskPool::new(WORKERS)),
            cache: Mutex::new(LruCache::new(ServiceConfig::default().cache_capacity)),
            framework: synthetic_framework(FRAMEWORK_SEED),
        })
    }

    /// Stores that must hold the preload for reads to hit.
    pub fn read_stores(&self) -> Vec<&SequenceStore> {
        vec![self.net.store.as_ref(), self.store.as_ref()]
    }

    /// Stop every layer, joining its threads.
    pub fn stop(self) -> Result<(), String> {
        if let Some(router) = self.router {
            router.stop()?;
        }
        self.service.shutdown();
        self.net.stop()
    }
}

/// Preload `plan.preload` into `stores`, untimed: each sequence is
/// compressed once with the algorithm the rule tree picks for its
/// context, then put into every store in parallel (one thread per
/// store). Returns the bases preloaded.
pub fn preload(plan: &Plan, stores: &[&SequenceStore]) -> Result<u64, String> {
    if plan.preload.is_empty() {
        return Ok(0);
    }
    let framework = synthetic_framework(FRAMEWORK_SEED);
    let blobs: Vec<CompressedBlob> = std::thread::scope(|s| {
        let per_thread = plan.preload.len().div_ceil(WORKERS);
        let parts: Vec<_> = plan
            .preload
            .chunks(per_thread)
            .map(|chunk| {
                let framework = &framework;
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|(seq, ctx)| {
                            let alg = framework.decide(&ContextKey::quantize(ctx).canonical());
                            compressor_for(alg).compress(seq).map_err(|e| e.to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(plan.preload.len());
        for part in parts {
            out.extend(
                part.join()
                    .map_err(|_| "preload compressor panicked".to_owned())??,
            );
        }
        Ok::<_, String>(out)
    })?;
    std::thread::scope(|s| {
        let puts: Vec<_> = stores
            .iter()
            .map(|store| {
                let blobs = &blobs;
                s.spawn(move || {
                    for ((seq, _), blob) in plan.preload.iter().zip(blobs) {
                        store
                            .put(seq, blob)
                            .map_err(|e| format!("preload put: {e}"))?;
                    }
                    Ok::<_, String>(())
                })
            })
            .collect();
        for put in puts {
            put.join()
                .map_err(|_| "preload writer panicked".to_owned())??;
        }
        Ok::<_, String>(())
    })?;
    Ok(plan.preload.iter().map(|(seq, _)| seq.len() as u64).sum())
}

/// A working directory under the current directory for one run's stores,
/// removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `.perfbench/work-<pid>-<n>` under the current directory.
    pub fn create() -> Result<WorkDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".perfbench").join(format!("work-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
