//! Seeded inputs. Every sequence, size, context, key choice and op
//! kind is a pure function of (workload, scale, seed, op index); the
//! system under test receives only the generated sequences and
//! contexts, never the seed.

use dnacomp_cloud::{context_grid, ClientContext};
use dnacomp_core::Context;
use dnacomp_seq::gen::GenomeModel;
use dnacomp_seq::PackedSeq;
use dnacomp_store::ContentKey;

/// The three workloads of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Many small replicated writes through the router (R=3/W=2).
    IngestSmallR3,
    /// Few multi-megabase writes to one shard, block-parallel framed.
    IngestBulkFramed,
    /// Zipf-skewed reads beside 10 % writes on the replicated cluster.
    FetchZipfMixed,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::IngestSmallR3,
        Workload::IngestBulkFramed,
        Workload::FetchZipfMixed,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestSmallR3 => "ingest-small-r3",
            Workload::IngestBulkFramed => "ingest-bulk-framed",
            Workload::FetchZipfMixed => "fetch-zipf-mixed",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` when the front door is the router over three shards;
    /// `false` for a single shard with no router.
    pub fn routed(self) -> bool {
        self != Workload::IngestBulkFramed
    }

    /// Closed-loop client threads, each with its own connection. At
    /// most `nproc` (2) on the reference host.
    pub fn clients(self) -> usize {
        if self == Workload::IngestBulkFramed {
            1
        } else {
            2
        }
    }

    /// Ops a client sends on one connection before reconnecting.
    pub fn reconnect_every(self) -> Option<u64> {
        (self == Workload::FetchZipfMixed).then_some(32)
    }
}

/// Input sizes and the size-dependent configuration. [`Scale::FULL`]
/// is the benchmark; [`Scale::TOY`] shrinks every size so the tests
/// of the benchmark itself run in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Sequence length range of `ingest-small-r3` ops, bases.
    pub small_bases: (usize, usize),
    /// Sequence length range of `ingest-bulk-framed` ops, bases.
    pub bulk_bases: (usize, usize),
    /// Sequence length range of fetch preloads and writes, bases.
    pub fetch_bases: (usize, usize),
    /// Total bases preloaded before `fetch-zipf-mixed` is timed.
    pub preload_bases: usize,
    /// Block-parallel threshold of every shard's service, bases.
    pub block_bases: usize,
    /// Store segment roll size, bytes.
    pub segment_bytes: u64,
    /// Store block-cache budget, bytes.
    pub cache_bytes: u64,
    /// Target size of a sorted run's data block (the cache unit), bytes.
    pub run_block_bytes: usize,
    /// Length of the seeded source genome every sequence is sliced
    /// from, bases; long enough that a run's content statistics barely
    /// depend on the seed.
    pub source_bases: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        small_bases: (1 << 10, 8 << 10),
        bulk_bases: (1 << 18, 2 << 20),
        fetch_bases: (4 << 10, 64 << 10),
        preload_bases: 20 << 20,
        block_bases: 1 << 18,
        segment_bytes: 192 << 10,
        cache_bytes: 704 << 10,
        run_block_bytes: 4096,
        source_bases: 8 << 20,
    };

    /// Toy sizes for the benchmark's own tests.
    pub const TOY: Scale = Scale {
        small_bases: (256, 1 << 10),
        bulk_bases: (8 << 10, 32 << 10),
        fetch_bases: (512, 2 << 10),
        preload_bases: 192 << 10,
        block_bases: 4 << 10,
        segment_bytes: 4 << 10,
        cache_bytes: 16 << 10,
        run_block_bytes: 256,
        source_bases: 256 << 10,
    };
}

/// SplitMix64: small, fast and seedable. The benchmark needs
/// reproducible streams, not statistical perfection.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`0` when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// Point `i` of a Weyl sequence. Any prefix covers `[0, 1)` evenly,
/// so the size mix and the read/write mix of a run hardly depend on
/// how many ops it completed; the seed only shifts the phase.
fn weyl(phase: f64, step: f64, i: u64) -> f64 {
    (phase + step * i as f64).fract()
}

/// Length `i` of a size ladder over `lo..=hi`.
fn ladder((lo, hi): (usize, usize), phase: f64, i: u64) -> usize {
    lo + (weyl(phase, GOLDEN, i) * (hi - lo + 1) as f64) as usize
}

/// Fixes which preloaded sizes are popular and where in the store's
/// write order they landed, so the cost of a read does not hinge on the
/// seed; the seed still picks every sequence's content and every draw.
const PRELOAD_LAYOUT_SEED: u64 = 0x5EED_1A70;

const GOLDEN: f64 = 0.618_033_988_749_894_8;
const PLASTIC: f64 = 0.754_877_666_246_692_7;

/// Share of `fetch-zipf-mixed` ops that write a new sequence.
const WRITE_SHARE: f64 = 0.10;

/// Op ids below this are preloaded sequences; run ops start here.
/// The id is stamped into each sequence, so ids never collide.
const FIRST_OP_ID: u64 = 1 << 24;

/// What one op does.
#[derive(Clone, Debug)]
pub enum OpInput {
    /// Compress and store a new sequence.
    Put {
        /// Job file name.
        file: String,
        /// The sequence.
        seq: PackedSeq,
        /// The client context it is compressed for.
        ctx: Context,
    },
    /// Read back preloaded sequence `index` by its content key.
    Get {
        /// Index into [`Plan::preload`].
        index: usize,
        /// Its content key.
        key: [u8; 16],
    },
}

/// The full input plan of one run.
pub struct Plan {
    /// Workload the plan drives.
    pub workload: Workload,
    /// Sizes in force.
    pub scale: Scale,
    seed: u64,
    source: PackedSeq,
    grid: Vec<ClientContext>,
    size_phase: f64,
    mix_phase: f64,
    /// Sequences stored before `fetch-zipf-mixed` is timed (empty for
    /// the other workloads), with their contexts.
    pub preload: Vec<(PackedSeq, Context)>,
    preload_keys: Vec<[u8; 16]>,
    zipf_cdf: Vec<f64>,
    zipf_rank_to_index: Vec<usize>,
}

impl Plan {
    /// Generate the plan: a seeded source genome every op slices from,
    /// and for `fetch-zipf-mixed` the preload set and its Zipf(1)
    /// popularity order.
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Plan {
        let mut rng = Rng::new(seed ^ 0xD1CE_5EED_0000_0000);
        // Repeats copy from at most 8 Ki bases back, so even a 1 kbase
        // slice holds repeats for the compressors to find.
        let model = GenomeModel {
            back_window: 1 << 13,
            ..GenomeModel::default()
        };
        let source = model.generate(scale.source_bases, rng.next_u64());
        let mut plan = Plan {
            workload,
            scale,
            seed,
            source,
            grid: context_grid(),
            size_phase: rng.unit(),
            mix_phase: rng.unit(),
            preload: Vec::new(),
            preload_keys: Vec::new(),
            zipf_cdf: Vec::new(),
            zipf_rank_to_index: Vec::new(),
        };
        if workload == Workload::FetchZipfMixed {
            let mut total = 0usize;
            let mut id = 0u64;
            while total < scale.preload_bases {
                let len = ladder(scale.fetch_bases, 0.5, id);
                total += len;
                let seq = plan.sequence(&mut Rng::new(seed ^ id), id, len);
                let ctx = plan.context(id, len);
                plan.preload_keys.push(ContentKey::of_sequence(&seq).0);
                plan.preload.push((seq, ctx));
                id += 1;
            }
            let n = plan.preload.len();
            let mut acc = 0.0;
            for rank in 0..n {
                acc += 1.0 / (rank + 1) as f64;
                plan.zipf_cdf.push(acc);
            }
            for c in &mut plan.zipf_cdf {
                *c /= acc;
            }
            let mut layout = Rng::new(PRELOAD_LAYOUT_SEED);
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, layout.below(i as u64 + 1) as usize);
            }
            plan.zipf_rank_to_index = order;
        }
        plan
    }

    /// The input of run op `i` (op id `FIRST_OP_ID + i`).
    pub fn op(&self, i: u64) -> OpInput {
        let id = FIRST_OP_ID + i;
        let mut rng = Rng::new(self.seed.rotate_left(17) ^ id.wrapping_mul(0xA24B_AED4_963E_E407));
        let range = match self.workload {
            Workload::IngestSmallR3 => self.scale.small_bases,
            Workload::IngestBulkFramed => self.scale.bulk_bases,
            Workload::FetchZipfMixed => {
                if weyl(self.mix_phase, PLASTIC, i) >= WRITE_SHARE {
                    let u = rng.unit();
                    let rank = self
                        .zipf_cdf
                        .partition_point(|&c| c < u)
                        .min(self.zipf_cdf.len() - 1);
                    let index = self.zipf_rank_to_index[rank];
                    return OpInput::Get {
                        index,
                        key: self.preload_keys[index],
                    };
                }
                self.scale.fetch_bases
            }
        };
        let len = ladder(range, self.size_phase, i);
        OpInput::Put {
            file: format!("op-{id}"),
            seq: self.sequence(&mut rng, id, len),
            ctx: self.context(i, len),
        }
    }

    /// Contexts cycle through the paper's 32-context grid.
    fn context(&self, i: u64, len: usize) -> Context {
        Context::new(
            &self.grid[(i % self.grid.len() as u64) as usize],
            len as u64,
        )
    }

    /// `len` bases sliced from the source at a seeded, word-aligned
    /// offset, with the op id stamped into the first 16 bases so no two
    /// ops (or preloads) ever share a content key.
    fn sequence(&self, rng: &mut Rng, id: u64, len: usize) -> PackedSeq {
        let words_needed = len.div_ceil(4);
        let max_word = self.source.len() / 4 - words_needed;
        let first = rng.below(max_word as u64 + 1) as usize;
        let mut words = self.source.as_words()[first..first + words_needed].to_vec();
        words[..4].copy_from_slice(&(id as u32).to_le_bytes());
        PackedSeq::from_words(words, len).expect("the word slice covers len bases")
    }
}
