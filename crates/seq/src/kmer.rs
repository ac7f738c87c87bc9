//! k-mer counting and spectra.
//!
//! Corpus characterisation beyond `stats`: the k-mer spectrum shows the
//! repeat mass the compressors feed on, and the distance between spectra
//! quantifies how "same-species" two sequences are (the 99.9 % identity
//! claim of §II-B is visible as near-identical spectra).

use crate::base::Base;
use crate::packed::PackedSeq;
use std::collections::HashMap;

/// Count all k-mers (k ≤ 31) of `seq`. Keys are the 2-bit packed k-mers.
pub fn count_kmers(seq: &PackedSeq, k: usize) -> HashMap<u64, u32> {
    assert!((1..=31).contains(&k), "k out of range");
    let mut counts = HashMap::new();
    if seq.len() < k {
        return counts;
    }
    let mask = (1u64 << (2 * k)) - 1;
    let mut kmer = 0u64;
    for (i, b) in seq.iter().enumerate() {
        kmer = ((kmer << 2) | b.code() as u64) & mask;
        if i + 1 >= k {
            *counts.entry(kmer).or_insert(0) += 1;
        }
    }
    counts
}

/// Decode a packed k-mer back to bases.
pub fn unpack_kmer(kmer: u64, k: usize) -> Vec<Base> {
    (0..k)
        .rev()
        .map(|i| Base::from_code((kmer >> (2 * i)) as u8))
        .collect()
}

/// Fraction of k-mer positions whose k-mer occurs more than once — a
/// direct measure of the repeat mass available to the compressors.
pub fn repeat_mass(seq: &PackedSeq, k: usize) -> f64 {
    let counts = count_kmers(seq, k);
    let total: u64 = counts.values().map(|&c| c as u64).sum();
    if total == 0 {
        return 0.0;
    }
    let repeated: u64 = counts
        .values()
        .filter(|&&c| c > 1)
        .map(|&c| c as u64)
        .sum();
    repeated as f64 / total as f64
}

/// Cosine similarity of two k-mer spectra in [0, 1]. Near-identical
/// sequences score ≈ 1.
pub fn spectrum_similarity(a: &PackedSeq, b: &PackedSeq, k: usize) -> f64 {
    let ca = count_kmers(a, k);
    let cb = count_kmers(b, k);
    if ca.is_empty() || cb.is_empty() {
        return if ca.is_empty() && cb.is_empty() { 1.0 } else { 0.0 };
    }
    let mut dot = 0f64;
    for (kmer, &x) in &ca {
        if let Some(&y) = cb.get(kmer) {
            dot += x as f64 * y as f64;
        }
    }
    let na: f64 = ca.values().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt();
    let nb: f64 = cb.values().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt();
    dot / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenomeModel;

    fn seq_of(s: &str) -> PackedSeq {
        PackedSeq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn counts_small_example() {
        // "ACGAC": 2-mers AC, CG, GA, AC.
        let counts = count_kmers(&seq_of("ACGAC"), 2);
        assert_eq!(counts.len(), 3);
        let ac = (Base::A.code() as u64) << 2 | Base::C.code() as u64;
        assert_eq!(counts[&ac], 2);
    }

    #[test]
    fn unpack_roundtrips() {
        let s = seq_of("ACGTACGTTG");
        let counts = count_kmers(&s, 5);
        for (&kmer, _) in counts.iter().take(5) {
            let bases = unpack_kmer(kmer, 5);
            // The unpacked 5-mer must occur in the original string.
            let as_str: String = bases.iter().map(|b| b.to_ascii() as char).collect();
            assert!(s.to_ascii().contains(&as_str), "{as_str}");
        }
    }

    #[test]
    fn short_sequences() {
        assert!(count_kmers(&seq_of("AC"), 5).is_empty());
        assert!(count_kmers(&PackedSeq::new(), 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "k out of range")]
    fn oversized_k_panics() {
        let _ = count_kmers(&seq_of("ACGT"), 32);
    }

    #[test]
    fn repeat_mass_separates_models() {
        let rep = GenomeModel::highly_repetitive().generate(40_000, 1);
        let iid = GenomeModel::random_only(0.5).generate(40_000, 1);
        let m_rep = repeat_mass(&rep, 16);
        let m_iid = repeat_mass(&iid, 16);
        assert!(m_rep > m_iid + 0.2, "repetitive {m_rep} vs iid {m_iid}");
    }

    #[test]
    fn similarity_of_identical_is_one() {
        let s = GenomeModel::default().generate(10_000, 3);
        assert!((spectrum_similarity(&s, &s, 8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_orders_relatedness() {
        let a = GenomeModel::random_only(0.5).generate(20_000, 7);
        // Mutated copy (same species).
        let close = {
            let mut bases = a.unpack();
            for i in (0..bases.len()).step_by(500) {
                bases[i] = bases[i].complement();
            }
            PackedSeq::from(bases.as_slice())
        };
        let unrelated = GenomeModel::random_only(0.5).generate(20_000, 99);
        let s_close = spectrum_similarity(&a, &close, 12);
        let s_far = spectrum_similarity(&a, &unrelated, 12);
        assert!(s_close > 0.9, "close similarity {s_close}");
        assert!(s_far < 0.1, "unrelated similarity {s_far}");
    }

    #[test]
    fn empty_edge_cases() {
        let e = PackedSeq::new();
        let s = seq_of("ACGTACGT");
        assert_eq!(spectrum_similarity(&e, &e, 4), 1.0);
        assert_eq!(spectrum_similarity(&e, &s, 4), 0.0);
        assert_eq!(repeat_mass(&e, 4), 0.0);
    }
}
