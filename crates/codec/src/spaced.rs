//! Spaced-seed matching (PatternHunter-style).
//!
//! DNACompress (paper §III-A, Table 1) "finds all approximate repeats by
//! using Software Pattern Hunter". PatternHunter's contribution was the
//! **spaced seed**: instead of requiring `k` consecutive matching bases,
//! the seed is a pattern like `111*1**1*1**11*111` whose `1` positions
//! must match while `*` positions are free. For a fixed weight (number of
//! `1`s), spaced seeds hit approximate repeats with point mutations far
//! more often than contiguous k-mers — a mutation only kills the hits
//! whose `1` positions cover it.
//!
//! [`SpacedSeed`] extracts the packed care-positions of a window;
//! [`SpacedIndex`] is the hash-chain index DNACompress sweeps with. Its
//! chain heads live in the same flat k-mer table as
//! [`crate::repeats::RepeatFinder`]'s, so a seed weighs at most 16 bases
//! (a 32-bit key).

use crate::repeats::{KmerTable, MAX_KEY_BASES, NO_POS};
use dnacomp_seq::Base;

/// A spaced seed: a pattern of care (`1`) and don't-care (`*`/`0`)
/// positions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpacedSeed {
    /// Offsets of the care positions within the window.
    care: Vec<u8>,
    /// Window length (span of the pattern).
    span: usize,
}

impl SpacedSeed {
    /// PatternHunter's classic weight-11, span-18 seed.
    pub fn pattern_hunter() -> SpacedSeed {
        SpacedSeed::parse("111010010100110111").expect("valid builtin seed")
    }

    /// A contiguous seed of weight `w` (degenerates to a plain k-mer).
    pub fn contiguous(w: usize) -> SpacedSeed {
        assert!((1..=MAX_KEY_BASES).contains(&w), "seed weight out of range");
        SpacedSeed {
            care: (0..w as u8).collect(),
            span: w,
        }
    }

    /// Parse a pattern of `1` (care) and `0`/`*` (don't care). Must start
    /// and end with `1` and have weight 1..=16.
    pub fn parse(pattern: &str) -> Option<SpacedSeed> {
        let bytes = pattern.as_bytes();
        if bytes.is_empty() || bytes[0] != b'1' || bytes[bytes.len() - 1] != b'1' {
            return None;
        }
        let mut care = Vec::new();
        for (i, &b) in bytes.iter().enumerate() {
            match b {
                b'1' => care.push(u8::try_from(i).ok()?),
                b'0' | b'*' => {}
                _ => return None,
            }
        }
        if care.is_empty() || care.len() > MAX_KEY_BASES {
            return None;
        }
        Some(SpacedSeed {
            span: bytes.len(),
            care,
        })
    }

    /// Window span in bases.
    pub fn span(&self) -> usize {
        self.span
    }

    /// Seed weight (number of care positions).
    pub fn weight(&self) -> usize {
        self.care.len()
    }

    /// Pack the care positions of the window starting at `pos` into a
    /// key. `None` if the window overruns the text.
    pub fn key_at(&self, text: &[Base], pos: usize) -> Option<u64> {
        if pos + self.span > text.len() {
            return None;
        }
        let mut k = 0u64;
        for &off in &self.care {
            k = (k << 2) | text[pos + off as usize].code() as u64;
        }
        Some(k)
    }
}

/// Hash-chain index over spaced-seed keys, built incrementally like
/// [`crate::repeats::RepeatFinder`].
pub struct SpacedIndex<'a> {
    text: &'a [Base],
    seed: &'a SpacedSeed,
    head: KmerTable,
    prev: Vec<u32>,
    published: usize,
}

impl<'a> SpacedIndex<'a> {
    /// Empty index over `text`.
    pub fn new(text: &'a [Base], seed: &'a SpacedSeed) -> Self {
        SpacedIndex {
            text,
            seed,
            head: KmerTable::new(text.len()),
            prev: vec![NO_POS; text.len()],
            published: 0,
        }
    }

    /// Approximate heap footprint in bytes; the chain-head share is
    /// modelled, as for [`crate::repeats::RepeatFinder::heap_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.prev.capacity() * 4 + self.head.modelled_heap_bytes()
    }

    /// Publish all window positions `< upto`.
    pub fn advance(&mut self, upto: usize) {
        let limit = upto.min(self.text.len().saturating_sub(self.seed.span - 1));
        while self.published < limit {
            let pos = self.published;
            if let Some(key) = self.seed.key_at(self.text, pos) {
                self.prev[pos] = self.head.replace(key, pos as u32);
            }
            self.published += 1;
        }
        self.published = self.published.max(upto.min(self.text.len()));
    }

    /// Candidate earlier positions whose spaced key matches the window at
    /// `pos`, most recent first.
    pub fn candidates(&self, pos: usize, max: usize) -> Vec<usize> {
        let Some(key) = self.seed.key_at(self.text, pos) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut cand = self.head.get(key).unwrap_or(NO_POS);
        while cand != NO_POS && out.len() < max {
            let c = cand as usize;
            if c < pos {
                out.push(c);
            }
            cand = self.prev[c];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnacomp_seq::gen::GenomeModel;
    use dnacomp_seq::PackedSeq;

    fn bases(s: &str) -> Vec<Base> {
        PackedSeq::from_ascii(s.as_bytes()).unwrap().unpack()
    }

    #[test]
    fn parse_patterns() {
        let s = SpacedSeed::parse("111010010100110111").unwrap();
        assert_eq!(s.weight(), 11);
        assert_eq!(s.span(), 18);
        assert_eq!(SpacedSeed::pattern_hunter(), s);
        assert!(SpacedSeed::parse("").is_none());
        assert!(SpacedSeed::parse("0110").is_none()); // must start with 1
        assert!(SpacedSeed::parse("011").is_none());
        assert!(SpacedSeed::parse("1x1").is_none());
        // Weight 16 is the most a 32-bit key holds.
        assert_eq!(SpacedSeed::parse(&"1".repeat(16)).unwrap().weight(), 16);
        assert!(SpacedSeed::parse(&"1".repeat(17)).is_none());
        assert!(SpacedSeed::parse(&format!("1{}1", "01".repeat(15))).is_none());
        let c = SpacedSeed::contiguous(11);
        assert_eq!(c.weight(), 11);
        assert_eq!(c.span(), 11);
    }

    #[test]
    fn key_ignores_dont_care_positions() {
        let seed = SpacedSeed::parse("1*1").unwrap();
        let a = bases("AAA");
        let b = bases("ACA"); // middle differs
        let c = bases("CAA"); // care position differs
        assert_eq!(seed.key_at(&a, 0), seed.key_at(&b, 0));
        assert_ne!(seed.key_at(&a, 0), seed.key_at(&c, 0));
        assert_eq!(seed.key_at(&a, 1), None);
    }

    #[test]
    fn index_finds_exact_copies() {
        let text = bases(&("ACGTTGCAGGATTCACGA".to_owned() + "TTTTTTTTTT" + "ACGTTGCAGGATTCACGA"));
        let seed = SpacedSeed::pattern_hunter();
        let mut idx = SpacedIndex::new(&text, &seed);
        let dst = 28;
        idx.advance(dst);
        let cands = idx.candidates(dst, 8);
        assert_eq!(cands, vec![0]);
    }

    #[test]
    fn spaced_seed_survives_mutations_better_than_contiguous() {
        // The PatternHunter property: on pairs of 64-base windows with 3
        // random substitutions, the spaced seed hits (some window offset
        // matches) more often than the contiguous seed of equal weight.
        let spaced = SpacedSeed::pattern_hunter();
        let contiguous = SpacedSeed::contiguous(11);
        let mut spaced_hits = 0;
        let mut contiguous_hits = 0;
        let mut x = 0xFEEDu64;
        let mut rand = move |m: usize| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((x >> 33) as usize) % m
        };
        for trial in 0..300 {
            let a = GenomeModel::random_only(0.5)
                .generate(64, trial as u64)
                .unpack();
            let mut b = a.clone();
            for _ in 0..3 {
                let p = rand(64);
                b[p] = Base::from_code(b[p].code().wrapping_add(1 + rand(3) as u8));
            }
            let hit = |seed: &SpacedSeed| -> bool {
                (0..=(64 - seed.span())).any(|off| {
                    seed.key_at(&a, off).is_some()
                        && seed.key_at(&a, off) == seed.key_at(&b, off)
                })
            };
            if hit(&spaced) {
                spaced_hits += 1;
            }
            if hit(&contiguous) {
                contiguous_hits += 1;
            }
        }
        assert!(
            spaced_hits >= contiguous_hits,
            "spaced {spaced_hits} vs contiguous {contiguous_hits}"
        );
        assert!(spaced_hits > 200, "spaced hit rate too low: {spaced_hits}/300");
    }

    #[test]
    fn advance_is_monotone_and_idempotent() {
        let text = GenomeModel::default().generate(2_000, 5).unpack();
        let seed = SpacedSeed::pattern_hunter();
        let mut idx = SpacedIndex::new(&text, &seed);
        idx.advance(500);
        idx.advance(100);
        idx.advance(500);
        idx.advance(1_500);
        // All published candidates must be strictly earlier positions.
        for pos in [600usize, 1_000, 1_400] {
            for c in idx.candidates(pos, 16) {
                assert!(c < pos);
            }
        }
    }
}
