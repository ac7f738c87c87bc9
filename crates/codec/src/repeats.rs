//! Repeat search over DNA sequences.
//!
//! DNA-specific compressors exploit the paper's repeat classes (§II-B):
//! DNAX encodes **exact** repeats and **reverse-complement** repeats
//! ("'A' always having a pair with 'T', and 'C' with 'G'"), while
//! GenCompress extends exact seeds into **approximate** repeats with edit
//! operations. This module provides the shared seed-and-extend machinery:
//! a hash-chain index over 2-bit-packed k-mers that answers "longest
//! forward match" and "longest reverse-complement match" queries as the
//! compressor sweeps left to right.
//!
//! The chain heads live in `KmerTable`, one flat open-addressing table
//! sized once for every position the finder can publish, so an insert
//! never rehashes or reallocates. Seeds are at most 16 bases, which keeps
//! a k-mer within the table's 32-bit key. The sweep rolls the forward
//! k-mer and its reverse complement one base at a time, and prefetches
//! their home slots before the next query.

use dnacomp_seq::{common_prefix_len, prefetch_read, Base};

/// Orientation of a repeat.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RepeatKind {
    /// `text[dst..dst+len] == text[src..src+len]` with `src < dst`
    /// (LZ-style overlap allowed: `src + len` may exceed `dst`).
    Forward,
    /// `text[dst+l] == complement(text[src_end-1-l])` for `l < len`, with
    /// `src_end ≤ dst` — the copy reads *backwards* from `src_end`,
    /// complementing each base.
    ReverseComplement,
}

/// A repeat found at some destination position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepeatMatch {
    /// Forward: source start. ReverseComplement: source *end* (exclusive).
    pub src: usize,
    /// Match length in bases.
    pub len: usize,
    /// Orientation.
    pub kind: RepeatKind,
}

impl RepeatMatch {
    /// Materialise the referenced bases given the already-decoded prefix.
    /// Used by decoders; returns `None` if the reference is invalid.
    pub fn resolve(&self, prefix: &[Base], dst: usize) -> Option<Vec<Base>> {
        match self.kind {
            RepeatKind::Forward => {
                if self.src >= dst || self.src >= prefix.len() {
                    return None;
                }
                // Overlapping copy (LZ-style): base `src + l` may land in
                // the part this match itself produced; since `src < dst`,
                // that part is already in `out` when needed.
                let mut out: Vec<Base> = Vec::with_capacity(self.len);
                for l in 0..self.len {
                    let idx = self.src + l;
                    let b = if idx < prefix.len() {
                        prefix[idx]
                    } else {
                        *out.get(idx - prefix.len())?
                    };
                    out.push(b);
                }
                Some(out)
            }
            RepeatKind::ReverseComplement => {
                if self.src > dst || self.src > prefix.len() || self.len > self.src {
                    return None;
                }
                Some(
                    (0..self.len)
                        .map(|l| prefix[self.src - 1 - l].complement())
                        .collect(),
                )
            }
        }
    }
}

/// Configuration for the repeat finder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepeatConfig {
    /// Seed k-mer length (4..=16: a seed packs into the 32-bit key of
    /// the chain-head table). Longer seeds are faster but miss short
    /// repeats; DNAX-style compressors use ~12–16.
    pub seed_len: usize,
    /// Maximum chain probes per query (effort knob — the paper's
    /// "threshold is what changes the RAM consumption and time").
    pub max_chain: usize,
    /// Search window: only sources within this many bases are considered
    /// (0 = unbounded).
    pub window: usize,
    /// Also search reverse-complement repeats.
    pub search_revcomp: bool,
}

impl Default for RepeatConfig {
    fn default() -> Self {
        RepeatConfig {
            seed_len: 12,
            max_chain: 64,
            window: 0,
            search_revcomp: true,
        }
    }
}

/// Sentinel "no position" in chain links and table lookups.
pub(crate) const NO_POS: u32 = u32::MAX;

/// Most bases a [`KmerTable`] key packs: 2 bits each in 32 bits.
pub(crate) const MAX_KEY_BASES: usize = 16;

/// Chain heads of a k-mer index: key (at most 32 bits) → most recent
/// position published under it.
///
/// One flat open-addressing table of `key << 32 | pos` slots, `EMPTY`
/// marking a free one. It is sized once for every position its owner can
/// publish, at a load factor of at most 1/2, probed linearly, and never
/// grows or deletes, so every probe ends at the key's slot or a free one.
pub(crate) struct KmerTable {
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: the home slot is the top bits of a
    /// Fibonacci hash.
    shift: u32,
    /// Distinct keys inserted.
    len: usize,
    /// Capacity of the `HashMap<u64, u32>` this table replaced, after the
    /// same inserts; see [`KmerTable::modelled_heap_bytes`].
    map_capacity: usize,
}

const EMPTY: u64 = u64::MAX;

impl KmerTable {
    /// An empty table with room for `positions` distinct keys.
    pub(crate) fn new(positions: usize) -> KmerTable {
        let capacity = positions.saturating_mul(2).next_power_of_two().max(16);
        KmerTable {
            slots: vec![EMPTY; capacity],
            shift: 64 - capacity.trailing_zeros(),
            len: 0,
            map_capacity: 0,
        }
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Index of the slot holding `key`, or of the free slot it would take.
    fn slot(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let s = self.slots[i];
            if s == EMPTY || s >> 32 == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Most recent position published under `key`.
    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        let s = self.slots[self.slot(key)];
        (s != EMPTY).then_some(s as u32)
    }

    /// Make `pos` the head for `key`; returns the previous head, or
    /// [`NO_POS`] for a new key.
    pub(crate) fn replace(&mut self, key: u64, pos: u32) -> u32 {
        debug_assert!(
            key >> 32 == 0 && pos != NO_POS,
            "key or position out of range"
        );
        // The replaced map reserved room for one more entry before every
        // insert, new key or not, so a full map grew even on a repeat.
        if self.len == self.map_capacity {
            self.map_capacity = hash_map_capacity(self.len + 1);
        }
        let i = self.slot(key);
        let old = std::mem::replace(&mut self.slots[i], (key << 32) | u64::from(pos));
        if old == EMPTY {
            self.len += 1;
            debug_assert!(self.len <= self.slots.len() / 2, "more keys than positions");
            NO_POS
        } else {
            old as u32
        }
    }

    /// Start pulling `key`'s home slot toward L1 ahead of a lookup.
    pub(crate) fn prefetch(&self, key: u64) {
        prefetch_read(&self.slots[self.home(key)]);
    }

    /// The RAM meter's figure for the heads: the 20 bytes per entry it
    /// charged the `HashMap<u64, u32>` this table replaced, times the
    /// capacity that map held after the same inserts. Modelled, not
    /// measured, so every `ResourceStats`, and the simulated costs priced
    /// from it, stay as they were.
    pub(crate) fn modelled_heap_bytes(&self) -> usize {
        self.map_capacity * (8 + 4 + 8)
    }
}

/// Capacity std's `HashMap<u64, u32>` allocates for `n > 0` entries:
/// 4 buckets hold 3, 8 hold 7, and larger power-of-two bucket counts
/// hold 7/8 of themselves.
fn hash_map_capacity(n: usize) -> usize {
    match n {
        0..=3 => 3,
        4..=7 => 7,
        _ => (n * 8 / 7).next_power_of_two() / 8 * 7,
    }
}

/// Hash-chain index answering longest-match queries as a left-to-right
/// sweep advances. The caller must call [`RepeatFinder::advance`] to
/// publish positions into the index before querying past them.
pub struct RepeatFinder<'a> {
    text: &'a [Base],
    cfg: RepeatConfig,
    /// kmer -> most recent published start position.
    head: KmerTable,
    /// prev[pos] = previous position with the same kmer.
    prev: Vec<u32>,
    /// Positions `< published` are in the index.
    published: usize,
    /// Mask selecting the low `2*seed_len` bits of a k-mer.
    mask: u64,
    /// Rolling k-mer at position `published` and its reverse complement,
    /// if that window exists. Maintained incrementally by
    /// [`RepeatFinder::advance`] — one shift-or each per published
    /// position instead of an O(seed_len) rebuild — and served to
    /// queries landing exactly at `published`, which is the sweep pattern
    /// every compressor uses (`advance(i)` then `find(i)`).
    cur_kmer: Option<(u64, u64)>,
}

impl<'a> RepeatFinder<'a> {
    /// Build an empty index over `text`.
    pub fn new(text: &'a [Base], cfg: RepeatConfig) -> Self {
        assert!(
            (4..=MAX_KEY_BASES).contains(&cfg.seed_len),
            "seed_len out of range"
        );
        RepeatFinder {
            text,
            cfg,
            head: KmerTable::new(text.len()),
            prev: vec![NO_POS; text.len()],
            published: 0,
            mask: (1u64 << (2 * cfg.seed_len)) - 1,
            cur_kmer: None,
        }
    }

    /// Approximate heap footprint in bytes (for the RAM meter). The
    /// chain-head share is a modelled figure, not the table's
    /// allocation, so the meter does not move with the table's layout.
    pub fn heap_bytes(&self) -> usize {
        self.prev.capacity() * 4 + self.head.modelled_heap_bytes()
    }

    fn kmer_at(&self, pos: usize) -> u64 {
        let mut v = 0u64;
        for b in &self.text[pos..pos + self.cfg.seed_len] {
            v = (v << 2) | b.code() as u64;
        }
        v
    }

    fn revcomp_kmer(&self, mut v: u64) -> u64 {
        // Reverse the k 2-bit groups and complement each (XOR 0b11).
        let k = self.cfg.seed_len;
        let mut out = 0u64;
        for _ in 0..k {
            out = (out << 2) | ((v & 0b11) ^ 0b11);
            v >>= 2;
        }
        out
    }

    /// The k-mer anchored at `dst`: served from the rolling value when
    /// the query lands exactly on `published` (the sweep fast path),
    /// rebuilt in O(seed_len) otherwise.
    fn query_kmer(&self, dst: usize) -> u64 {
        match self.cur_kmer {
            Some((v, _)) if dst == self.published => v,
            _ => self.kmer_at(dst) & self.mask,
        }
    }

    /// Reverse complement of [`RepeatFinder::query_kmer`], on the same
    /// fast path.
    fn query_rc(&self, dst: usize) -> u64 {
        match self.cur_kmer {
            Some((_, rc)) if dst == self.published => rc,
            _ => self.revcomp_kmer(self.kmer_at(dst) & self.mask),
        }
    }

    /// Publish all positions `< upto` into the index.
    ///
    /// The per-position k-mer and its reverse complement are maintained
    /// as rolling values — shift in the one new base instead of
    /// rebuilding the window — so a full sweep costs O(n), not
    /// O(n·seed_len). On return the home slots of the next query's
    /// k-mers are already being fetched.
    pub fn advance(&mut self, upto: usize) {
        let k = self.cfg.seed_len;
        let n = self.text.len();
        let limit = upto.min(n.saturating_sub(k - 1));
        while self.published < limit {
            let pos = self.published;
            let (kmer, rc) = self.cur_kmer.unwrap_or_else(|| {
                let v = self.kmer_at(pos) & self.mask;
                (v, self.revcomp_kmer(v))
            });
            self.prev[pos] = self.head.replace(kmer, pos as u32);
            self.published += 1;
            // The new base enters the forward k-mer at the low end and,
            // complemented, the reverse complement at the high end.
            self.cur_kmer = (pos + k < n).then(|| {
                let code = self.text[pos + k].code() as u64;
                let rc = (rc >> 2) | ((code ^ 0b11) << (2 * (k - 1)));
                (((kmer << 2) | code) & self.mask, rc)
            });
        }
        self.published = self.published.max(upto.min(n));
        if let Some((kmer, rc)) = self.cur_kmer {
            self.head.prefetch(kmer);
            if self.cfg.search_revcomp {
                self.head.prefetch(rc);
            }
        }
    }

    /// Longest repeat (of either configured orientation) whose copy starts
    /// at `dst`. Only returns matches of length ≥ `seed_len`.
    pub fn find(&self, dst: usize) -> Option<RepeatMatch> {
        let fwd = self.find_forward(dst);
        if !self.cfg.search_revcomp {
            return fwd;
        }
        let rc = self.find_revcomp(dst);
        match (fwd, rc) {
            (Some(f), Some(r)) => Some(if r.len > f.len { r } else { f }),
            (f, r) => f.or(r),
        }
    }

    /// Longest forward repeat copying to `dst`.
    pub fn find_forward(&self, dst: usize) -> Option<RepeatMatch> {
        let k = self.cfg.seed_len;
        let n = self.text.len();
        if dst + k > n {
            return None;
        }
        let kmer = self.query_kmer(dst);
        let mut cand = self.head.get(kmer)?;
        let mut best: Option<RepeatMatch> = None;
        let mut probes = self.cfg.max_chain;
        while cand != NO_POS && probes > 0 {
            let c = cand as usize;
            if self.cfg.window > 0 && dst.saturating_sub(c) > self.cfg.window {
                break;
            }
            // A candidate at or past `dst` can surface when querying behind
            // the published frontier; it is never a usable source (matches
            // copy strictly from the past), so skip it — same policy as
            // `forward_chain`.
            if c < dst {
                // Extend through the SIMD-dispatched prefix kernel. The
                // source window may overlap the destination (LZ-style
                // runs): both views are read-only, and `c < dst` keeps the
                // source slice in bounds (`c + max_len <= n`).
                let max_len = n - dst;
                let l = common_prefix_len(&self.text[c..c + max_len], &self.text[dst..]);
                if l >= k && best.is_none_or(|b| l > b.len) {
                    best = Some(RepeatMatch {
                        src: c,
                        len: l,
                        kind: RepeatKind::Forward,
                    });
                }
            }
            cand = self.prev[c];
            probes -= 1;
        }
        best
    }

    /// All published chain candidates whose seed k-mer matches the one at
    /// `dst`, most recent first, up to `max_chain` entries. Used by
    /// approximate matchers (GenCompress) that score every candidate
    /// rather than just the longest exact extension.
    pub fn forward_chain(&self, dst: usize, max_chain: usize) -> Vec<usize> {
        let k = self.cfg.seed_len;
        if dst + k > self.text.len() {
            return Vec::new();
        }
        let kmer = self.query_kmer(dst);
        let mut out = Vec::new();
        let Some(mut cand) = self.head.get(kmer) else {
            return out;
        };
        while cand != NO_POS && out.len() < max_chain {
            let c = cand as usize;
            if self.cfg.window > 0 && dst.saturating_sub(c) > self.cfg.window {
                break;
            }
            if c < dst {
                out.push(c);
            }
            cand = self.prev[c];
        }
        out
    }

    /// Longest reverse-complement repeat copying to `dst`.
    pub fn find_revcomp(&self, dst: usize) -> Option<RepeatMatch> {
        let k = self.cfg.seed_len;
        let n = self.text.len();
        if dst + k > n {
            return None;
        }
        // A reverse-complement repeat anchors where an earlier k-mer
        // equals revcomp(text[dst..dst+k]).
        let mut cand = self.head.get(self.query_rc(dst))?;
        let mut best: Option<RepeatMatch> = None;
        let mut probes = self.cfg.max_chain;
        while cand != NO_POS && probes > 0 {
            let c = cand as usize; // source k-mer start; src_end = c + k
            let src_end = c + k;
            if src_end <= dst {
                if self.cfg.window == 0 || dst - c <= self.cfg.window {
                    // Extend: text[dst+l] == complement(text[src_end-1-l]).
                    let max_len = (n - dst).min(src_end);
                    let mut l = 0usize;
                    while l < max_len
                        && self.text[dst + l] == self.text[src_end - 1 - l].complement()
                    {
                        l += 1;
                    }
                    if l >= k && best.is_none_or(|b| l > b.len) {
                        best = Some(RepeatMatch {
                            src: src_end,
                            len: l,
                            kind: RepeatKind::ReverseComplement,
                        });
                    }
                } else {
                    break;
                }
            }
            cand = self.prev[c];
            probes -= 1;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnacomp_seq::PackedSeq;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn bases(s: &str) -> Vec<Base> {
        PackedSeq::from_ascii(s.as_bytes()).unwrap().unpack()
    }

    fn small_cfg() -> RepeatConfig {
        RepeatConfig {
            seed_len: 4,
            max_chain: 32,
            window: 0,
            search_revcomp: true,
        }
    }

    #[test]
    fn finds_planted_forward_repeat() {
        // "ACGTTGCA" planted at 0 and again at 14.
        let text = bases("ACGTTGCAGGGTTTACGTTGCA");
        let mut f = RepeatFinder::new(&text, small_cfg());
        f.advance(14);
        let m = f.find_forward(14).expect("repeat found");
        assert_eq!(m.src, 0);
        assert_eq!(m.len, 8);
        assert_eq!(m.kind, RepeatKind::Forward);
        let resolved = m.resolve(&text[..14], 14).unwrap();
        assert_eq!(resolved, bases("ACGTTGCA"));
    }

    #[test]
    fn finds_planted_revcomp_repeat() {
        // source "AACCGG" at 0..6; its revcomp is "CCGGTT".
        let text = bases("AACCGGTTTTTTTTCCGGTT");
        let mut f = RepeatFinder::new(&text, small_cfg());
        f.advance(14);
        let m = f.find_revcomp(14).expect("revcomp repeat");
        assert_eq!(m.kind, RepeatKind::ReverseComplement);
        assert_eq!(m.len, 6);
        assert_eq!(m.src, 6); // src_end = 6 → reads text[5],text[4],… complemented
        // Verify via resolve.
        let resolved = m.resolve(&text[..14], 14).unwrap();
        assert_eq!(resolved, bases("CCGGTT"));
    }

    #[test]
    fn no_match_on_unique_text() {
        let text = bases("ACGTACTGATCGATGCTAGCTAGCATCGT");
        let mut f = RepeatFinder::new(&text, RepeatConfig {
            seed_len: 12,
            ..small_cfg()
        });
        f.advance(20);
        assert!(f.find(20).is_none());
    }

    #[test]
    fn overlap_forward_match_resolves() {
        // "AAAAAAAA…": match at dst=4 with src=0 can have len > 4 (overlap).
        let text = bases("AAAAAAAAAAAAAAAA");
        let mut f = RepeatFinder::new(&text, small_cfg());
        f.advance(4);
        let m = f.find_forward(4).expect("run match");
        assert!(m.src < 4);
        assert!(m.len >= 8, "len = {}", m.len);
        let resolved = m.resolve(&text[..4], 4).unwrap();
        assert!(resolved.iter().all(|&b| b == Base::A));
        assert_eq!(resolved.len(), m.len);
    }

    #[test]
    fn window_limits_sources() {
        let mut text = bases("ACGTTGCAGCA");
        text.extend(bases(&"T".repeat(5000)));
        text.extend(bases("ACGTTGCAGCA"));
        let dst = 11 + 5000;
        let mut f = RepeatFinder::new(
            &text,
            RepeatConfig {
                seed_len: 8,
                max_chain: 64,
                window: 100,
                search_revcomp: false,
            },
        );
        f.advance(dst);
        // The only 8-seed match source is at 0, which is outside window.
        assert!(f.find(dst).is_none());
    }

    #[test]
    fn resolve_rejects_invalid_references() {
        let prefix = bases("ACGT");
        let bad = RepeatMatch {
            src: 9,
            len: 3,
            kind: RepeatKind::Forward,
        };
        assert!(bad.resolve(&prefix, 4).is_none());
        let bad = RepeatMatch {
            src: 2,
            len: 5,
            kind: RepeatKind::ReverseComplement,
        };
        assert!(bad.resolve(&prefix, 4).is_none());
    }

    #[test]
    fn advance_is_idempotent_and_monotone() {
        let text = bases(&"ACGT".repeat(50));
        let mut f = RepeatFinder::new(&text, small_cfg());
        f.advance(10);
        f.advance(10);
        f.advance(5); // going backwards must not corrupt
        f.advance(30);
        let m = f.find_forward(30);
        assert!(m.is_some());
    }

    #[test]
    fn rolling_kmer_matches_rebuild_at_every_position() {
        let text = bases(&"ACGTTGCAACGGTACCAGT".repeat(20));
        for seed_len in [4, 16] {
            let mut f = RepeatFinder::new(
                &text,
                RepeatConfig {
                    seed_len,
                    ..small_cfg()
                },
            );
            for dst in 0..=text.len() {
                f.advance(dst);
                if dst + seed_len <= text.len() {
                    let kmer = f.kmer_at(dst) & f.mask;
                    assert_eq!(f.query_kmer(dst), kmer, "k-mer at {dst}");
                    assert_eq!(f.query_rc(dst), f.revcomp_kmer(kmer), "revcomp at {dst}");
                }
            }
        }
    }

    #[test]
    fn sweep_and_jump_advance_agree() {
        // Publishing one position at a time (rolling path) must build the
        // same index as one big jump (cold rebuild path).
        let text = bases(&"ACGATTACAGGACGTT".repeat(25));
        let mut swept = RepeatFinder::new(&text, small_cfg());
        for i in 0..=300 {
            swept.advance(i);
        }
        let mut jumped = RepeatFinder::new(&text, small_cfg());
        jumped.advance(300);
        for dst in 295..text.len().saturating_sub(4) {
            assert_eq!(swept.find(dst), jumped.find(dst), "at {dst}");
            assert_eq!(swept.forward_chain(dst, 8), jumped.forward_chain(dst, 8));
        }
    }

    #[test]
    #[should_panic(expected = "seed_len out of range")]
    fn tiny_seed_rejected() {
        let text = bases("ACGT");
        let _ = RepeatFinder::new(
            &text,
            RepeatConfig {
                seed_len: 2,
                ..RepeatConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "seed_len out of range")]
    fn seed_longer_than_a_32_bit_key_rejected() {
        let text = bases(&"ACGT".repeat(8));
        let _ = RepeatFinder::new(
            &text,
            RepeatConfig {
                seed_len: 17,
                ..RepeatConfig::default()
            },
        );
    }

    #[test]
    fn table_probes_wrap_around_its_end() {
        // Eight keys whose home is the last of 16 slots: all but the
        // first probe past the end and land at the front. A ninth with
        // the same home is looked up but never inserted.
        let mut t = KmerTable::new(8);
        let last = t.slots.len() - 1;
        let keys: Vec<u64> = (0u64..).filter(|&k| t.home(k) == last).take(9).collect();
        let (absent, keys) = keys.split_last().unwrap();
        for (pos, &k) in keys.iter().enumerate() {
            assert_eq!(t.replace(k, pos as u32), NO_POS);
        }
        for (pos, &k) in keys.iter().enumerate().rev() {
            assert_eq!(t.replace(k, 100 + pos as u32), pos as u32, "key {k}");
        }
        for (pos, &k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(100 + pos as u32), "key {k}");
        }
        assert_eq!(t.get(*absent), None);
        assert_eq!(t.len, 8);
        assert!(t.slots[..7].iter().all(|&s| s != EMPTY));
    }

    #[test]
    fn modelled_heap_follows_the_replaced_maps_growth() {
        // Capacities a `HashMap<u64, u32>` reported after the same
        // inserts: it reserves before every insert, so a full map grows
        // on a repeated key too.
        let mut t = KmerTable::new(64);
        assert_eq!(t.modelled_heap_bytes(), 0);
        for key in 0..3 {
            t.replace(key, key as u32);
        }
        assert_eq!(t.modelled_heap_bytes(), 3 * 20);
        t.replace(0, 9);
        assert_eq!((t.len, t.modelled_heap_bytes()), (3, 7 * 20));
        let mut caps = Vec::new();
        for key in 3..60 {
            t.replace(key, key as u32);
            caps.push(t.modelled_heap_bytes() / 20);
        }
        caps.dedup();
        assert_eq!(caps, vec![7, 14, 28, 56, 112]);
        assert_eq!(hash_map_capacity(113), 224);
        assert_eq!(hash_map_capacity(1 << 20), (1 << 21) / 8 * 7);
    }

    /// The chain index this module used before [`KmerTable`]: `HashMap`
    /// heads over `prev` links, every k-mer rebuilt from the text. Its
    /// queries walk whole chains under the finder's probe, window and
    /// source rules, extending base by base.
    struct MapOracle<'a> {
        text: &'a [Base],
        cfg: RepeatConfig,
        head: HashMap<u64, u32>,
        prev: Vec<u32>,
        published: usize,
    }

    impl<'a> MapOracle<'a> {
        fn new(text: &'a [Base], cfg: RepeatConfig) -> Self {
            let (head, prev) = (HashMap::new(), vec![NO_POS; text.len()]);
            MapOracle {
                text,
                cfg,
                head,
                prev,
                published: 0,
            }
        }

        fn kmer(&self, pos: usize, rc: bool) -> u64 {
            let window = &self.text[pos..pos + self.cfg.seed_len];
            if rc {
                let comp = window.iter().rev().map(|b| b.complement());
                comp.fold(0, |v, b| (v << 2) | b.code() as u64)
            } else {
                window.iter().fold(0, |v, b| (v << 2) | b.code() as u64)
            }
        }

        fn advance(&mut self, upto: usize) {
            let n = self.text.len();
            while self.published < upto.min(n.saturating_sub(self.cfg.seed_len - 1)) {
                let pos = self.published;
                let old = self.head.insert(self.kmer(pos, false), pos as u32);
                self.prev[pos] = old.unwrap_or(NO_POS);
                self.published += 1;
            }
            self.published = self.published.max(upto.min(n));
        }

        /// Every position chained under the k-mer (or its reverse
        /// complement) at `dst`, most recent first.
        fn chain(&self, dst: usize, rc: bool) -> Vec<usize> {
            let mut out = Vec::new();
            let mut c = self.head.get(&self.kmer(dst, rc)).copied();
            while let Some(pos) = c.filter(|&p| p != NO_POS) {
                out.push(pos as usize);
                c = self.prev.get(pos as usize).copied();
            }
            out
        }

        fn in_window(&self, dst: usize, c: usize) -> bool {
            self.cfg.window == 0 || dst - c <= self.cfg.window
        }

        fn forward_chain(&self, dst: usize, max: usize) -> Vec<usize> {
            if dst + self.cfg.seed_len > self.text.len() {
                return Vec::new();
            }
            let chain = self.chain(dst, false).into_iter();
            let in_reach = chain.take_while(|&c| c >= dst || self.in_window(dst, c));
            in_reach.filter(|&c| c < dst).take(max).collect()
        }

        /// Longest match of one orientation at `dst`.
        fn best(&self, dst: usize, rc: bool) -> Option<RepeatMatch> {
            let (k, n) = (self.cfg.seed_len, self.text.len());
            if dst + k > n {
                return None;
            }
            let mut best: Option<RepeatMatch> = None;
            for c in self.chain(dst, rc).into_iter().take(self.cfg.max_chain) {
                if (rc && c + k > dst) || (!rc && c >= dst) {
                    continue;
                }
                if !self.in_window(dst, c) {
                    break;
                }
                let (src, len, kind) = if rc {
                    let end = c + k;
                    let same =
                        |&l: &usize| self.text[dst + l] == self.text[end - 1 - l].complement();
                    let len = (0..(n - dst).min(end)).take_while(same).count();
                    (end, len, RepeatKind::ReverseComplement)
                } else {
                    let same = |&l: &usize| self.text[c + l] == self.text[dst + l];
                    (
                        c,
                        (0..n - dst).take_while(same).count(),
                        RepeatKind::Forward,
                    )
                };
                if len >= k && best.is_none_or(|b| len > b.len) {
                    best = Some(RepeatMatch { src, len, kind });
                }
            }
            best
        }

        fn find(&self, dst: usize) -> Option<RepeatMatch> {
            match (self.best(dst, false), self.best(dst, true)) {
                (Some(f), Some(r)) => Some(if r.len > f.len { r } else { f }),
                (f, r) => f.or(r),
            }
        }
    }

    /// Every query the finder answers, at `dst`, against the oracle.
    fn assert_agrees(f: &RepeatFinder<'_>, o: &MapOracle<'_>, dst: usize) {
        assert_eq!(f.find(dst), o.find(dst), "find at {dst}");
        assert_eq!(
            f.find_forward(dst),
            o.best(dst, false),
            "find_forward at {dst}"
        );
        assert_eq!(
            f.find_revcomp(dst),
            o.best(dst, true),
            "find_revcomp at {dst}"
        );
        for max in [3, f.cfg.max_chain] {
            assert_eq!(
                f.forward_chain(dst, max),
                o.forward_chain(dst, max),
                "chain at {dst}"
            );
        }
        assert_eq!(f.head.len, o.head.len(), "distinct k-mers at {dst}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn queries_agree_with_the_map_oracle(
            codes in prop::collection::vec(0u8..4, 0..400),
            shape in (any::<bool>(), 0usize..3, 0usize..2),
            max_chain in 1usize..48,
            jumps in prop::collection::vec(0usize..40, 1..48),
        ) {
            let (two_letter, seed_pick, window_pick) = shape;
            // Two-letter texts give long chains and, on short texts,
            // probe clusters that wrap around the table's end.
            let text: Vec<Base> = codes
                .iter()
                .map(|&c| Base::from_code(if two_letter { c & 1 } else { c }))
                .collect();
            let cfg = RepeatConfig {
                seed_len: [4, 12, 16][seed_pick],
                max_chain,
                window: [0, 48][window_pick],
                search_revcomp: true,
            };
            // The sweep: every position, queried where it was published.
            let mut f = RepeatFinder::new(&text, cfg);
            let mut o = MapOracle::new(&text, cfg);
            for dst in 0..=text.len() {
                f.advance(dst);
                o.advance(dst);
                assert_agrees(&f, &o, dst);
            }
            // Jumps: queries at, behind and ahead of the frontier.
            let mut f = RepeatFinder::new(&text, cfg);
            let mut o = MapOracle::new(&text, cfg);
            let mut dst = 0;
            for jump in jumps {
                dst = (dst + jump).min(text.len());
                f.advance(dst);
                o.advance(dst);
                for q in [dst.saturating_sub(5), dst, dst + 2] {
                    assert_agrees(&f, &o, q.min(text.len()));
                }
            }
        }

        #[test]
        fn table_agrees_with_a_hash_map(
            ops in prop::collection::vec((0u64..48, any::<bool>()), 0..200),
        ) {
            // Small keys collide in few home slots; spread ones reach
            // the top of the 32-bit key range.
            let mut t = KmerTable::new(ops.len());
            let mut map: HashMap<u64, u32> = HashMap::new();
            for (pos, &(k, spread)) in ops.iter().enumerate() {
                let key = if spread { u64::from(u32::MAX) - k * 0x0101_0101 } else { k };
                let old = map.insert(key, pos as u32).unwrap_or(NO_POS);
                prop_assert_eq!(t.replace(key, pos as u32), old);
            }
            prop_assert_eq!(t.len, map.len());
            for k in 0..48u64 {
                for key in [k, u64::from(u32::MAX) - k * 0x0101_0101] {
                    prop_assert_eq!(t.get(key), map.get(&key).copied());
                }
            }
        }

        #[test]
        fn found_matches_are_always_valid(s in "[ACGT]{30,300}", dst_frac in 0.3f64..0.95) {
            let text = bases(&s);
            let dst = ((text.len() as f64) * dst_frac) as usize;
            let mut f = RepeatFinder::new(&text, small_cfg());
            f.advance(dst);
            if let Some(m) = f.find(dst) {
                let resolved = m.resolve(&text[..dst], dst).expect("resolvable");
                prop_assert_eq!(&resolved[..], &text[dst..dst + m.len]);
                prop_assert!(m.len >= 4);
            }
        }

        #[test]
        fn forward_extension_matches_bytewise_reference(
            s in "[ACGT]{40,400}",
            dst_frac in 0.3f64..0.95,
        ) {
            // The SIMD-dispatched extension in `find_forward` must report
            // exactly the length a scalar bytewise loop would.
            let text = bases(&s);
            let dst = ((text.len() as f64) * dst_frac) as usize;
            let mut f = RepeatFinder::new(&text, small_cfg());
            f.advance(dst);
            if let Some(m) = f.find_forward(dst) {
                let n = text.len();
                let mut l = 0usize;
                while dst + l < n && text[m.src + l] == text[dst + l] {
                    l += 1;
                }
                prop_assert_eq!(m.len, l, "src {} dst {}", m.src, dst);
            }
        }

        #[test]
        fn revcomp_matches_verify(s in "[ACGT]{10,80}") {
            // Construct text = s ++ filler ++ revcomp(s); finder must
            // discover a revcomp match at the start of the third part.
            let mut text = bases(&s);
            text.extend(bases("ACGTACGTACGTACGT"));
            let dst = text.len();
            let rc: Vec<Base> = text[..s.len()].iter().rev().map(|b| b.complement()).collect();
            text.extend(rc);
            let mut f = RepeatFinder::new(&text, small_cfg());
            f.advance(dst);
            if s.len() >= 4 {
                let m = f.find(dst);
                prop_assert!(m.is_some());
                let m = m.unwrap();
                let resolved = m.resolve(&text[..dst], dst).expect("resolvable");
                prop_assert_eq!(&resolved[..], &text[dst..dst + m.len]);
            }
        }
    }
}
