//! Reproducible benchmark corpus.
//!
//! The paper's evaluation uses **132 DNA files**: sequences downloaded from
//! NCBI (mostly bacteria, gzip-compressed, cleaned to single sequences)
//! plus files from the standard DNA-compression corpus "used by most of
//! the authors in their work" (§IV-A, ref \[18\]). Real NCBI traffic is not
//! available offline, so this module generates a **seeded synthetic
//! corpus** with the same shape:
//!
//! * 11 named stand-ins for the classic standard-corpus files (chmpxx,
//!   humdyst, …) at their published lengths;
//! * 121 "NCBI-style" files with log-uniform sizes across the paper's
//!   range (the paper caps files at 10 MB; most corpus files are far
//!   smaller), drawn from bacterial-like, repetitive, and low-repeat
//!   genome models.
//!
//! The substitution preserves what the experiments measure: per-algorithm
//! compression ratio, time and RAM as functions of file size and repeat
//! structure. Every file is reproducible from `(corpus seed, file index)`.

use crate::gen::GenomeModel;
use crate::packed::PackedSeq;

/// The flavour of genome model behind a corpus file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// Stand-in for a named standard-corpus file.
    Standard,
    /// Bacterial-like NCBI download (default model).
    Bacterial,
    /// Highly repetitive region (best case for repeat compressors).
    Repetitive,
    /// Low-repeat, near-i.i.d. sequence (worst case).
    LowRepeat,
}

/// Description of one corpus file. The sequence itself is produced on
/// demand by [`FileSpec::generate`] so the corpus description stays cheap
/// to pass around.
#[derive(Clone, Debug, PartialEq)]
pub struct FileSpec {
    /// Stable identifier, e.g. `"humdyst"` or `"ncbi_042"`.
    pub name: String,
    /// Sequence length in bases.
    pub len: usize,
    /// Which genome model generates it.
    pub kind: FileKind,
    /// Generation seed (already mixed with the corpus seed).
    pub seed: u64,
}

impl FileSpec {
    /// Generate the sequence for this spec.
    pub fn generate(&self) -> PackedSeq {
        self.model().generate(self.len, self.seed)
    }

    /// The genome model for this file kind.
    pub fn model(&self) -> GenomeModel {
        match self.kind {
            FileKind::Standard | FileKind::Bacterial => GenomeModel::default(),
            FileKind::Repetitive => GenomeModel::highly_repetitive(),
            FileKind::LowRepeat => GenomeModel::random_only(0.47),
        }
    }
}

/// The classic standard-corpus names with their published base counts.
/// (Lengths from the DNA-compression literature, e.g. Manzini & Rastero.)
pub const STANDARD_FILES: [(&str, usize); 11] = [
    ("chmpxx", 121_024),
    ("chntxx", 155_844),
    ("hehcmv", 229_354),
    ("humdyst", 38_770),
    ("humghcs", 66_495),
    ("humhbb", 73_308),
    ("humhdab", 58_864),
    ("humprtb", 56_737),
    ("mpomtcg", 186_609),
    ("mtpacg", 100_314),
    ("vaccg", 191_737),
];

/// Number of files in the paper corpus.
pub const PAPER_CORPUS_SIZE: usize = 132;

/// Builder for corpora.
#[derive(Clone, Debug)]
pub struct CorpusBuilder {
    seed: u64,
    min_len: usize,
    max_len: usize,
    ncbi_files: usize,
    include_standard: bool,
}

impl CorpusBuilder {
    /// The paper corpus: 11 standard + 121 NCBI-style files (132 total),
    /// sizes log-uniform between 1 kB and `max_len` (default 2 MB — a
    /// tractability cap below the paper's 10 MB limit; see DESIGN.md).
    pub fn paper(seed: u64) -> Self {
        CorpusBuilder {
            seed,
            min_len: 1_000,
            max_len: 2_000_000,
            ncbi_files: PAPER_CORPUS_SIZE - STANDARD_FILES.len(),
            include_standard: true,
        }
    }

    /// A small corpus for fast tests and examples.
    pub fn small(seed: u64) -> Self {
        CorpusBuilder {
            seed,
            min_len: 500,
            max_len: 20_000,
            ncbi_files: 12,
            include_standard: false,
        }
    }

    /// Override the size range.
    pub fn size_range(mut self, min_len: usize, max_len: usize) -> Self {
        assert!(min_len >= 1 && min_len <= max_len, "bad size range");
        self.min_len = min_len;
        self.max_len = max_len;
        self
    }

    /// Override the number of NCBI-style files.
    pub fn ncbi_files(mut self, n: usize) -> Self {
        self.ncbi_files = n;
        self
    }

    /// Include or exclude the named standard files.
    pub fn include_standard(mut self, yes: bool) -> Self {
        self.include_standard = yes;
        self
    }

    /// Produce the file specs. Deterministic in the builder parameters.
    pub fn build(&self) -> Vec<FileSpec> {
        let mut files = Vec::with_capacity(
            self.ncbi_files + if self.include_standard { STANDARD_FILES.len() } else { 0 },
        );
        if self.include_standard {
            for (i, &(name, len)) in STANDARD_FILES.iter().enumerate() {
                files.push(FileSpec {
                    name: name.to_owned(),
                    len,
                    kind: FileKind::Standard,
                    seed: mix(self.seed, 0xC0FFEE + i as u64),
                });
            }
        }
        for i in 0..self.ncbi_files {
            let u = hash_unit(mix(self.seed, 0xBEEF_0000 + i as u64));
            // Log-uniform size in [min_len, max_len].
            let ln_min = (self.min_len as f64).ln();
            let ln_max = (self.max_len as f64).ln();
            let len = (ln_min + u * (ln_max - ln_min)).exp().round() as usize;
            // Mostly bacterial, as the paper's NCBI downloads were
            // ("most of the sequences are of bacteria", §IV-A), with a
            // sprinkle of extreme repeat structures for coverage.
            let kind = match i % 8 {
                6 => FileKind::Repetitive,
                7 => FileKind::LowRepeat,
                _ => FileKind::Bacterial,
            };
            files.push(FileSpec {
                name: format!("ncbi_{i:03}"),
                len: len.clamp(self.min_len, self.max_len),
                kind,
                seed: mix(self.seed, 0xDEAD_0000 + i as u64),
            });
        }
        files
    }
}

/// SplitMix64 step — cheap, well-distributed seed mixing.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a u64 to the unit interval.
fn hash_unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn paper_corpus_has_132_files() {
        let files = CorpusBuilder::paper(1).build();
        assert_eq!(files.len(), PAPER_CORPUS_SIZE);
    }

    #[test]
    fn names_are_unique() {
        let files = CorpusBuilder::paper(1).build();
        let names: HashSet<_> = files.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names.len(), files.len());
    }

    #[test]
    fn standard_files_have_published_lengths() {
        let files = CorpusBuilder::paper(1).build();
        let humdyst = files.iter().find(|f| f.name == "humdyst").unwrap();
        assert_eq!(humdyst.len, 38_770);
        assert_eq!(humdyst.kind, FileKind::Standard);
    }

    #[test]
    fn sizes_respect_bounds() {
        let b = CorpusBuilder::paper(3).size_range(2_000, 50_000);
        for f in b.build() {
            if f.kind != FileKind::Standard {
                assert!((2_000..=50_000).contains(&f.len), "{} len {}", f.name, f.len);
            }
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let a = CorpusBuilder::paper(9).build();
        let b = CorpusBuilder::paper(9).build();
        assert_eq!(a, b);
        // And the generated sequences are identical too.
        assert_eq!(a[12].generate(), b[12].generate());
    }

    #[test]
    fn different_seeds_give_different_files() {
        let a = CorpusBuilder::small(1).build();
        let b = CorpusBuilder::small(2).build();
        assert_ne!(a[0].generate(), b[0].generate());
    }

    #[test]
    fn generate_matches_spec_len() {
        for f in CorpusBuilder::small(5).build() {
            assert_eq!(f.generate().len(), f.len);
        }
    }

    #[test]
    fn size_distribution_spans_range() {
        // Log-uniform sizes should populate both the small and large ends.
        let files = CorpusBuilder::paper(7).build();
        let small = files.iter().filter(|f| f.len < 50_000).count();
        let large = files.iter().filter(|f| f.len > 500_000).count();
        assert!(small >= 10, "small files: {small}");
        assert!(large >= 10, "large files: {large}");
    }

    #[test]
    fn kinds_are_mixed() {
        let files = CorpusBuilder::paper(11).build();
        for kind in [
            FileKind::Bacterial,
            FileKind::Repetitive,
            FileKind::LowRepeat,
        ] {
            assert!(
                files.iter().any(|f| f.kind == kind),
                "missing kind {kind:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bad size range")]
    fn invalid_size_range_panics() {
        let _ = CorpusBuilder::small(1).size_range(10, 5);
    }
}
