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
//! a k-mer within the table's 32-bit key. [`RepeatFinder::sweep`] is the
//! only way through a text: it rolls the forward k-mer and its reverse
//! complement one base at a time, probes the forward slot once per
//! position, answers the caller's queries at each [`Stop`] and publishes
//! into the slot it probed. On block-sized tables it prefetches the home
//! slots a fixed distance ahead.

use crate::error::CodecError;
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

    /// The position held in slot `i`: [`NO_POS`] for a free slot, whose
    /// low 32 bits are all ones.
    fn head_at(&self, i: usize) -> u32 {
        self.slots[i] as u32
    }

    /// Most recent position published under `key`.
    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        let head = self.head_at(self.slot(key));
        (head != NO_POS).then_some(head)
    }

    /// Make `pos` the head for `key`; returns the previous head, or
    /// [`NO_POS`] for a new key.
    pub(crate) fn replace(&mut self, key: u64, pos: u32) -> u32 {
        self.replace_at(self.slot(key), key, pos)
    }

    /// [`KmerTable::replace`] with `key`'s slot `i` already found.
    fn replace_at(&mut self, i: usize, key: u64, pos: u32) -> u32 {
        debug_assert!(
            key >> 32 == 0 && pos != NO_POS,
            "key or position out of range"
        );
        // The replaced map reserved room for one more entry before every
        // insert, new key or not, so a full map grew even on a repeat.
        if self.len == self.map_capacity {
            self.map_capacity = hash_map_capacity(self.len + 1);
        }
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

/// Positions the sweep rolls its second k-mer pair ahead of the one it
/// publishes, so that pair's home slots are in cache when probed.
const LOOKAHEAD: usize = 16;

/// Smallest table, in slots, whose sweep prefetches [`LOOKAHEAD`]
/// positions ahead: every text over 64 Ki bases, so every 262,144-base
/// frame block. A smaller table (at most 1 MiB) stays cache-resident,
/// where the second roll and its prefetches cost more than they hide.
const LOOKAHEAD_MIN_SLOTS: usize = 1 << 18;

/// A k-mer and its reverse complement, 2 bits a base.
#[derive(Clone, Copy)]
struct Kmers {
    fwd: u64,
    rc: u64,
}

/// Hash-chain index over one text, filled by a single left-to-right
/// [`RepeatFinder::sweep`] that answers longest-match queries at each
/// stop the caller steps to.
pub struct RepeatFinder<'a> {
    text: &'a [Base],
    cfg: RepeatConfig,
    /// kmer -> most recent published start position.
    head: KmerTable,
    /// prev[pos] = previous position with the same kmer.
    prev: Vec<u32>,
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
        }
    }

    /// Approximate heap footprint in bytes (for the RAM meter). The
    /// chain-head share is a modelled figure, not the table's
    /// allocation, so the meter does not move with the table's layout.
    pub fn heap_bytes(&self) -> usize {
        self.prev.capacity() * 4 + self.head.modelled_heap_bytes()
    }

    /// Walk the text left to right, calling `at` at each stop: position
    /// 0 first, then wherever the step `at` returns (at least 1) leads,
    /// until a step reaches the end of the text.
    ///
    /// At a stop exactly the positions before it are published. Every
    /// position with a whole k-mer probes its forward k-mer's slot once:
    /// a stop answers its queries from the head found there, and the
    /// position then takes that slot, unless the stop was the last one.
    /// The positions a step skips are published in the same pass. On a
    /// table of at least [`LOOKAHEAD_MIN_SLOTS`] slots the sweep also
    /// prefetches the home slots of the k-mers [`LOOKAHEAD`] positions
    /// ahead. An error from `at` ends the sweep and is returned.
    ///
    /// # Panics
    /// If the finder has published a position already, or `at` returns
    /// a step of 0.
    pub fn sweep(
        &mut self,
        at: impl FnMut(&Stop<'_>) -> Result<usize, CodecError>,
    ) -> Result<(), CodecError> {
        assert_eq!(self.head.len, 0, "sweep walks a fresh finder");
        if self.head.slots.len() >= LOOKAHEAD_MIN_SLOTS {
            self.sweep_with::<true>(at)
        } else {
            self.sweep_with::<false>(at)
        }
    }

    /// The sweep, with the lookahead gate a constant so the loop for
    /// small tables carries no lookahead code.
    fn sweep_with<const AHEAD: bool>(
        &mut self,
        mut at: impl FnMut(&Stop<'_>) -> Result<usize, CodecError>,
    ) -> Result<(), CodecError> {
        let text = self.text;
        let (n, k) = (text.len(), self.cfg.seed_len);
        // Positions `< full` start a whole k-mer.
        let full = n.saturating_sub(k - 1);
        let mask = (1u64 << (2 * k)) - 1;
        let rc_shift = 2 * (k - 1);
        // The base after a pair's window enters the forward k-mer at the
        // low end and, complemented, the reverse complement at the high
        // end.
        let roll = |pair: Kmers, b: &Base| {
            let code = b.code() as u64;
            Kmers {
                fwd: ((pair.fwd << 2) | code) & mask,
                rc: (pair.rc >> 2) | ((code ^ 0b11) << rc_shift),
            }
        };
        // Each pair starts one roll short of its first position.
        let start = Kmers { fwd: 0, rc: 0 };
        let mut cur = text[..n.min(k - 1)].iter().fold(start, roll);
        let mut ahead = if AHEAD {
            text[..n.min(k - 1 + LOOKAHEAD)].iter().fold(start, roll)
        } else {
            start
        };
        let mut stop = 0usize;
        for pos in 0..full {
            cur = roll(cur, &text[pos + k - 1]);
            if AHEAD && pos + LOOKAHEAD < full {
                ahead = roll(ahead, &text[pos + LOOKAHEAD + k - 1]);
                self.head.prefetch(ahead.fwd);
                if self.cfg.search_revcomp {
                    self.head.prefetch(ahead.rc);
                }
            }
            let slot = self.head.slot(cur.fwd);
            if pos == stop {
                let fwd = self.head.head_at(slot);
                let rc = match self.cfg.search_revcomp {
                    false => NO_POS,
                    true if cur.rc == cur.fwd => fwd,
                    true => self.head.head_at(self.head.slot(cur.rc)),
                };
                let view = Stop {
                    finder: self,
                    pos,
                    fwd,
                    rc,
                };
                stop = next_stop(pos, at(&view)?);
                if stop >= n {
                    return Ok(());
                }
            }
            self.prev[pos] = self.head.replace_at(slot, cur.fwd, pos as u32);
        }
        // The last `k - 1` positions have no k-mer, so no chain either.
        while stop < n {
            let view = Stop {
                finder: self,
                pos: stop,
                fwd: NO_POS,
                rc: NO_POS,
            };
            stop = next_stop(stop, at(&view)?);
        }
        Ok(())
    }
}

/// The stop `step` positions after `pos`.
fn next_stop(pos: usize, step: usize) -> usize {
    assert_ne!(step, 0, "a sweep step must advance");
    pos.saturating_add(step)
}

/// One stop of [`RepeatFinder::sweep`] at [`Stop::pos`]: exactly the
/// positions before it are published, and its queries walk the chains
/// whose heads the sweep looked up there.
pub struct Stop<'f> {
    finder: &'f RepeatFinder<'f>,
    pos: usize,
    /// Heads of the chains under the forward k-mer at `pos` and under its
    /// reverse complement, [`NO_POS`] when empty.
    fwd: u32,
    rc: u32,
}

impl Stop<'_> {
    /// The position this stop queries.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Longest repeat (of either configured orientation) whose copy starts
    /// here. Only returns matches of length ≥ `seed_len`.
    pub fn find(&self) -> Option<RepeatMatch> {
        match (self.find_forward(), self.find_revcomp()) {
            (Some(f), Some(r)) => Some(if r.len > f.len { r } else { f }),
            (f, r) => f.or(r),
        }
    }

    /// Longest forward repeat copying to this stop.
    pub fn find_forward(&self) -> Option<RepeatMatch> {
        let (text, dst) = (self.finder.text, self.pos);
        let k = self.finder.cfg.seed_len;
        let mut best: Option<RepeatMatch> = None;
        for c in self.chain(self.fwd).take(self.finder.cfg.max_chain) {
            // Extend through the SIMD-dispatched prefix kernel. The source
            // window may overlap the destination (LZ-style runs): both
            // views are read-only, and `c < dst` keeps the source slice in
            // bounds.
            let max_len = text.len() - dst;
            let l = common_prefix_len(&text[c..c + max_len], &text[dst..]);
            if l >= k && best.is_none_or(|b| l > b.len) {
                best = Some(RepeatMatch {
                    src: c,
                    len: l,
                    kind: RepeatKind::Forward,
                });
            }
        }
        best
    }

    /// Longest reverse-complement repeat copying to this stop; `None`
    /// when the finder does not search reverse complements.
    pub fn find_revcomp(&self) -> Option<RepeatMatch> {
        let (text, dst) = (self.finder.text, self.pos);
        let k = self.finder.cfg.seed_len;
        let mut best: Option<RepeatMatch> = None;
        // A reverse-complement repeat anchors where an earlier k-mer
        // equals revcomp(text[dst..dst+k]); a source k-mer overlapping
        // `dst` is skipped.
        for c in self.chain(self.rc).take(self.finder.cfg.max_chain) {
            let src_end = c + k;
            if src_end > dst {
                continue;
            }
            // Extend: text[dst+l] == complement(text[src_end-1-l]).
            let max_len = (text.len() - dst).min(src_end);
            let mut l = 0usize;
            while l < max_len && text[dst + l] == text[src_end - 1 - l].complement() {
                l += 1;
            }
            if l >= k && best.is_none_or(|b| l > b.len) {
                best = Some(RepeatMatch {
                    src: src_end,
                    len: l,
                    kind: RepeatKind::ReverseComplement,
                });
            }
        }
        best
    }

    /// The forward chain's candidates, most recent first, up to `max`.
    /// Used by approximate matchers (GenCompress) that score every
    /// candidate rather than just the longest exact extension.
    pub fn forward_chain(&self, max: usize) -> Vec<usize> {
        self.chain(self.fwd).take(max).collect()
    }

    /// The positions chained from `head`, most recent first, while they
    /// lie within the search window. All are before the stop.
    fn chain(&self, head: u32) -> impl Iterator<Item = usize> + '_ {
        let (window, dst) = (self.finder.cfg.window, self.pos);
        let mut cand = head;
        std::iter::from_fn(move || {
            let c = cand as usize;
            if cand == NO_POS || (window > 0 && dst - c > window) {
                return None;
            }
            cand = self.finder.prev[c];
            Some(c)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnacomp_seq::gen::GenomeModel;
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

    /// Sweep `text` with stops at 0 and `dst` only, and answer `query`
    /// at `dst`.
    fn at_stop<T>(
        text: &[Base],
        cfg: RepeatConfig,
        dst: usize,
        query: impl FnOnce(&Stop<'_>) -> T,
    ) -> T {
        let mut f = RepeatFinder::new(text, cfg);
        let (mut query, mut out) = (Some(query), None);
        f.sweep(|s| {
            if s.pos() < dst {
                return Ok(dst - s.pos());
            }
            out = query.take().map(|q| q(s));
            Ok(text.len())
        })
        .unwrap();
        out.expect("the sweep stops at dst")
    }

    #[test]
    fn finds_planted_forward_repeat() {
        // "ACGTTGCA" planted at 0 and again at 14.
        let text = bases("ACGTTGCAGGGTTTACGTTGCA");
        let m = at_stop(&text, small_cfg(), 14, |s| s.find_forward()).expect("repeat found");
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
        let m = at_stop(&text, small_cfg(), 14, |s| s.find_revcomp()).expect("revcomp repeat");
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
        let cfg = RepeatConfig {
            seed_len: 12,
            ..small_cfg()
        };
        assert!(at_stop(&text, cfg, 12, |s| s.find()).is_none());
    }

    #[test]
    fn overlap_forward_match_resolves() {
        // "AAAAAAAA…": match at dst=4 with src=0 can have len > 4 (overlap).
        let text = bases("AAAAAAAAAAAAAAAA");
        let m = at_stop(&text, small_cfg(), 4, |s| s.find_forward()).expect("run match");
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
        let cfg = RepeatConfig {
            seed_len: 8,
            max_chain: 64,
            window: 100,
            search_revcomp: false,
        };
        // The only 8-seed match source is at 0, which is outside window.
        assert!(at_stop(&text, cfg, dst, |s| s.find()).is_none());
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
    fn jumps_publish_the_positions_they_skip() {
        // Stops at 0, 10 and 30 only: the chain at 30 runs through 26,
        // 22 and 18, which the jumps published without stopping there.
        let text = bases(&"ACGT".repeat(50));
        let mut f = RepeatFinder::new(&text, small_cfg());
        let mut stops = Vec::new();
        f.sweep(|s| {
            stops.push(s.pos());
            if s.pos() == 30 {
                assert_eq!(s.forward_chain(3), vec![26, 22, 18]);
                assert!(s.find_forward().is_some_and(|m| m.src < 30));
                return Ok(1000);
            }
            Ok(10 + s.pos())
        })
        .unwrap();
        assert_eq!(stops, [0, 10, 30]);
        // The last stop publishes nothing: positions 0..30 hold the four
        // k-mers of a period-4 text.
        assert_eq!(f.head.len, 4);
    }

    #[test]
    #[should_panic(expected = "sweep walks a fresh finder")]
    fn second_sweep_rejected() {
        let text = bases("ACGTACGTACGT");
        let mut f = RepeatFinder::new(&text, small_cfg());
        f.sweep(|_| Ok(1)).unwrap();
        let _ = f.sweep(|_| Ok(1));
    }

    #[test]
    #[should_panic(expected = "a sweep step must advance")]
    fn zero_step_rejected() {
        let text = bases("ACGTACGTACGT");
        let _ = RepeatFinder::new(&text, small_cfg()).sweep(|_| Ok(0));
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

    /// Every query a stop answers against the oracle advanced to it.
    fn assert_agrees(s: &Stop<'_>, o: &mut MapOracle<'_>) {
        let dst = s.pos();
        o.advance(dst);
        assert_eq!(s.find(), o.find(dst), "find at {dst}");
        assert_eq!(
            s.find_forward(),
            o.best(dst, false),
            "find_forward at {dst}"
        );
        assert_eq!(s.find_revcomp(), o.best(dst, true), "find_revcomp at {dst}");
        for max in [3, s.finder.cfg.max_chain] {
            assert_eq!(
                s.forward_chain(max),
                o.forward_chain(dst, max),
                "chain at {dst}"
            );
        }
        assert_eq!(s.finder.head.len, o.head.len(), "distinct k-mers at {dst}");
    }

    /// Sweep `text` with the steps `steps` (cycled), checking every stop
    /// against the oracle; returns the stops.
    fn sweep_against_the_oracle(text: &[Base], cfg: RepeatConfig, steps: &[usize]) -> Vec<usize> {
        let mut f = RepeatFinder::new(text, cfg);
        let mut o = MapOracle::new(text, cfg);
        let mut stops = Vec::new();
        f.sweep(|s| {
            assert_agrees(s, &mut o);
            stops.push(s.pos());
            Ok(steps[(stops.len() - 1) % steps.len()])
        })
        .unwrap();
        // The last stop's own position stays unpublished.
        assert_eq!(f.head.len, o.head.len(), "distinct k-mers after the sweep");
        stops
    }

    #[test]
    fn lookahead_sweep_agrees_with_the_map_oracle_to_the_text_end() {
        // Over 64 Ki bases, so the sweep prefetches ahead; the last
        // stops fall where the lookahead has run out of k-mers.
        let text = GenomeModel::default().generate(70_001, 7).unpack();
        let n = text.len();
        for seed_len in [4, 12, 16] {
            let cfg = RepeatConfig {
                seed_len,
                ..small_cfg()
            };
            assert!(RepeatFinder::new(&text, cfg).head.slots.len() >= LOOKAHEAD_MIN_SLOTS);
            let tail = n - (LOOKAHEAD + seed_len + 3);
            let wanted: Vec<usize> = (0..tail).step_by(997).chain(tail..n).collect();
            let mut steps: Vec<usize> = wanted.windows(2).map(|w| w[1] - w[0]).collect();
            steps.push(1);
            assert_eq!(sweep_against_the_oracle(&text, cfg, &steps), wanted);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn queries_agree_with_the_map_oracle(
            codes in prop::collection::vec(0u8..4, 0..400),
            shape in (any::<bool>(), 0usize..3, 0usize..2),
            max_chain in 1usize..48,
            steps in prop::collection::vec(1usize..40, 1..48),
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
            // A stop at every position, then the chosen steps.
            let every = sweep_against_the_oracle(&text, cfg, &[1]);
            prop_assert_eq!(every.len(), text.len());
            sweep_against_the_oracle(&text, cfg, &steps);
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
            if let Some(m) = at_stop(&text, small_cfg(), dst, |s| s.find()) {
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
            if let Some(m) = at_stop(&text, small_cfg(), dst, |s| s.find_forward()) {
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
            if s.len() >= 4 {
                let m = at_stop(&text, small_cfg(), dst, |s| s.find());
                prop_assert!(m.is_some());
                let m = m.unwrap();
                let resolved = m.resolve(&text[..dst], dst).expect("resolvable");
                prop_assert_eq!(&resolved[..], &text[dst..dst + m.len]);
            }
        }
    }
}
