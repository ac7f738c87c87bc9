//! # dnacomp-store — crash-safe, content-addressed sequence repository
//!
//! The durable layer behind the exchange endpoint: the framework picks
//! the best compressor per (file, context), the service runs the job,
//! and this crate is where the result *lands*. Production DNA exchange
//! assumes a persistent, deduplicating store — every run starting cold
//! is a simulation artifact, not an architecture.
//!
//! A store is a directory holding a small LSM tree:
//!
//! ```text
//! store/
//! ├── manifest.log      write-ahead log: the single source of truth
//! ├── seg-000000.seg    level 0: append-only record segments
//! ├── seg-000001.seg
//! ├── run-000000.sst    level 1+: immutable sorted runs with sparse
//! └── run-000001.sst    index and bloom filter
//! ```
//!
//! * **Content-addressed & deduplicating** — records are keyed by a
//!   128-bit hash of the *original* sequence ([`ContentKey`]); putting
//!   the same genome twice stores one payload, whatever algorithm
//!   either put chose.
//! * **Crash-safe** — a record is committed exactly when its manifest
//!   entry is durable; level transitions (sealing L0 into a run,
//!   merging runs) commit through one atomic manifest entry each.
//!   [`SequenceStore::open`] replays the log, truncates torn tails and
//!   deletes orphans, recovering every committed record bit-exact after
//!   a kill at any write point (the chaos tests sweep literally every
//!   byte, including mid-seal and mid-merge).
//! * **Group-committed** — a put's fsync starts at once, and puts that
//!   arrive while one is in flight share the next fsync batch instead
//!   of paying one fsync each; no commit window, no timer.
//! * **Read-optimised** — per-run bloom filters answer negative gets
//!   from memory; a sharded, byte-budgeted LRU block cache serves hot
//!   gets without touching disk.
//! * **Self-checking** — each record carries an FNV-1a checksum over
//!   header + payload; [`SequenceStore::verify`] audits everything at
//!   once, [`SequenceStore::scrub_step`] audits incrementally in the
//!   background, and the payload's own `DX` container checksum still
//!   guards the decompressed sequence end-to-end.
//! * **Self-compacting** — background maintenance seals full L0
//!   segments into sorted runs and merges runs level by level,
//!   streaming one block at a time;
//!   [`SequenceStore::compact`] forces the whole cascade and atomically
//!   checkpoints the manifest (temp-file + rename).
//!
//! Module map: [`record`] (wire format + keys) → [`segment`] (L0 data
//! files) / [`sstable`] (sorted runs) → [`bloom`] + [`cache`] (read
//! path) → [`manifest`] (commit log) + [`wal`] (group commit) →
//! [`index`] (sharded lookup), assembled by [`store`] with level
//! maintenance in [`compact`] and background auditing in [`scrub`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bloom;
pub mod cache;
mod compact;
pub mod error;
pub mod index;
pub mod manifest;
pub mod record;
pub mod scrub;
pub mod segment;
pub mod sstable;
pub mod store;
mod wal;

pub use bloom::Bloom;
pub use cache::{BlockCache, CacheStats};
pub use error::StoreError;
pub use index::ShardedIndex;
pub use manifest::{Entry, Location, ReplayStats};
pub use record::{ContentKey, Record};
pub use scrub::ScrubTask;
pub use segment::SegmentInfo;
pub use sstable::RunMeta;
pub use store::{
    CompactReport, LevelStat, PutOutcome, RecordStat, ScrubFailure, ScrubReport, SequenceStore,
    StoreConfig, StoreSnapshot,
};
pub use wal::WalStats;
