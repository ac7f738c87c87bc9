//! Adaptive probability models for arithmetic coding.
//!
//! * [`AdaptiveModel`] — order-0 frequency model over an arbitrary
//!   alphabet with periodic rescaling.
//! * [`ContextModel`] — order-`k` model over the 4-letter DNA alphabet
//!   (the "order-2 arithmetic coding" of BioCompress-2 / DNAPack is
//!   `ContextModel::new(2)`).
//! * [`KtEstimator`] — the Krichevsky–Trofimov binary estimator that CTW
//!   mixes over its context tree.

use crate::arith::{ArithDecoder, ArithEncoder, MAX_TOTAL};
use crate::error::CodecError;

/// Adaptive order-0 model with add-one initialisation.
///
/// Frequencies halve (never below 1) when the total hits
/// the rescale threshold, keeping the model responsive to local
/// statistics and the arithmetic coder inside its precision budget.
#[derive(Clone, Debug)]
pub struct AdaptiveModel {
    freqs: Vec<u32>,
    total: u32,
    rescale_at: u32,
}

impl AdaptiveModel {
    /// Model over `n` symbols, all initially equiprobable.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "empty alphabet");
        assert!((n as u64) < MAX_TOTAL / 2, "alphabet too large");
        AdaptiveModel {
            freqs: vec![1; n],
            total: n as u32,
            rescale_at: (MAX_TOTAL / 4) as u32,
        }
    }

    /// Model with a custom rescale threshold (must exceed the alphabet
    /// size and stay within the coder's precision).
    pub fn with_rescale(n: usize, rescale_at: u32) -> Self {
        let mut m = Self::new(n);
        assert!(rescale_at as u64 <= MAX_TOTAL && rescale_at > n as u32);
        m.rescale_at = rescale_at;
        m
    }

    /// Alphabet size.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// `false` — the alphabet is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Cumulative range `[lo, hi)` and `total` for `sym`.
    pub fn range(&self, sym: usize) -> (u32, u32, u32) {
        let lo: u32 = self.freqs[..sym].iter().sum();
        (lo, lo + self.freqs[sym], self.total)
    }

    /// Record one occurrence of `sym`.
    pub fn update(&mut self, sym: usize) {
        self.freqs[sym] += 32;
        self.total += 32;
        if self.total >= self.rescale_at {
            self.rescale();
        }
    }

    fn rescale(&mut self) {
        self.total = 0;
        for f in &mut self.freqs {
            *f = (*f / 2).max(1);
            self.total += *f;
        }
    }

    /// Encode `sym` and update the model.
    pub fn encode(&mut self, enc: &mut ArithEncoder, sym: usize) {
        let (lo, hi, total) = self.range(sym);
        enc.encode(lo, hi, total);
        self.update(sym);
    }

    /// Decode one symbol and update the model.
    pub fn decode(&mut self, dec: &mut ArithDecoder<'_>) -> Result<usize, CodecError> {
        let target = dec.decode_target(self.total);
        let mut lo = 0u32;
        for (sym, &f) in self.freqs.iter().enumerate() {
            if target < lo + f {
                dec.update(lo, lo + f, self.total);
                self.update(sym);
                return Ok(sym);
            }
            lo += f;
        }
        Err(CodecError::Corrupt("adaptive model target out of range"))
    }
}

/// Order-`k` adaptive model over the DNA alphabet (4 symbols).
///
/// Contexts are the previous `k` bases packed 2 bits each; each context
/// owns an independent [`AdaptiveModel`]-style frequency row. Memory is
/// `4^k · 4` counters, so `k ≤ 12` is enforced (64 MiB of counters at 12).
#[derive(Clone, Debug)]
pub struct ContextModel {
    k: usize,
    rows: Vec<[u32; 4]>,
    totals: Vec<u32>,
    ctx: usize,
    mask: usize,
}

impl ContextModel {
    /// Order-`k` model, `k ≤ 12`.
    pub fn new(k: usize) -> Self {
        assert!(k <= 12, "context order too large");
        let n_ctx = 1usize << (2 * k);
        ContextModel {
            k,
            rows: vec![[1; 4]; n_ctx],
            totals: vec![4; n_ctx],
            ctx: 0,
            mask: n_ctx - 1,
        }
    }

    /// The model order.
    pub fn order(&self) -> usize {
        self.k
    }

    /// Reset the sliding context (e.g. between independent blocks).
    pub fn reset_context(&mut self) {
        self.ctx = 0;
    }

    fn advance(&mut self, sym: usize) {
        self.ctx = ((self.ctx << 2) | sym) & self.mask;
    }

    fn update_counts(&mut self, sym: usize) {
        let row = &mut self.rows[self.ctx];
        row[sym] += 24;
        self.totals[self.ctx] += 24;
        if self.totals[self.ctx] >= (MAX_TOTAL / 4) as u32 {
            let mut total = 0;
            for f in row.iter_mut() {
                *f = (*f / 2).max(1);
                total += *f;
            }
            self.totals[self.ctx] = total;
        }
    }

    /// Encode one 2-bit DNA symbol (0..4) and update.
    pub fn encode(&mut self, enc: &mut ArithEncoder, sym: usize) {
        debug_assert!(sym < 4);
        let row = &self.rows[self.ctx];
        let total = self.totals[self.ctx];
        // Read from the fenceposts, not summed over `row[..sym]`: that
        // loop's trip count is the symbol, which mispredicts on DNA.
        let cum = [0, row[0], row[0] + row[1], row[0] + row[1] + row[2], total];
        enc.encode(cum[sym], cum[sym + 1], total);
        self.update_counts(sym);
        self.advance(sym);
    }

    /// Decode one symbol and update. Never fails:
    /// [`ArithDecoder::decode4`] picks a symbol of the row on any input,
    /// corrupt or not (a container's checksum catches the corruption).
    pub fn decode(&mut self, dec: &mut ArithDecoder<'_>) -> Result<usize, CodecError> {
        let sym = dec.decode4(&self.rows[self.ctx], self.totals[self.ctx]);
        self.update_counts(sym);
        self.advance(sym);
        Ok(sym)
    }

    /// Approximate heap footprint in bytes (for the RAM meter).
    pub fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<[u32; 4]>()
            + self.totals.capacity() * std::mem::size_of::<u32>()
    }
}

/// Krichevsky–Trofimov estimator: sequential probability for a binary
/// source, `P(next = 1) = (c1 + 1/2) / (c0 + c1 + 1)`.
///
/// Counts are kept in halves so the estimator stays in integer arithmetic:
/// numerator `2·c1 + 1`, denominator `2·(c0 + c1) + 2`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KtEstimator {
    zeros: u32,
    ones: u32,
}

impl KtEstimator {
    /// Fresh estimator with zero counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Probability of the next bit being 0, as `(num, den)` with
    /// `den ≤ MAX_TOTAL`.
    pub fn prob_zero(&self) -> (u32, u32) {
        let num = 2 * self.zeros + 1;
        let den = 2 * (self.zeros + self.ones) + 2;
        (num, den)
    }

    /// Record an observation.
    pub fn update(&mut self, bit: bool) {
        if bit {
            self.ones += 1;
        } else {
            self.zeros += 1;
        }
        // Halve on approach to the coder's precision limit.
        if 2 * (self.zeros + self.ones) + 2 >= MAX_TOTAL as u32 {
            self.zeros = (self.zeros / 2).max(1);
            self.ones = (self.ones / 2).max(1);
        }
    }

    /// Observed totals `(zeros, ones)`.
    pub fn counts(&self) -> (u32, u32) {
        (self.zeros, self.ones)
    }

    /// Natural log of the KT sequential probability of observing `bit`
    /// next — used by CTW's mixing arithmetic.
    pub fn log_prob(&self, bit: bool) -> f64 {
        let (num, den) = self.prob_zero();
        let p0 = num as f64 / den as f64;
        if bit {
            (1.0 - p0).ln()
        } else {
            p0.ln()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::ArithEncoder;
    use proptest::prelude::*;

    #[test]
    fn adaptive_model_roundtrip() {
        let symbols: Vec<usize> = (0..2000).map(|i| (i * i) % 5).collect();
        let mut enc_model = AdaptiveModel::new(5);
        let mut enc = ArithEncoder::new();
        for &s in &symbols {
            enc_model.encode(&mut enc, s);
        }
        let bytes = enc.finish();
        let mut dec_model = AdaptiveModel::new(5);
        let mut dec = ArithDecoder::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec_model.decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    fn adaptive_model_learns() {
        // A heavily skewed stream should code below 0.7 bits/symbol.
        let symbols: Vec<usize> = (0..8000).map(|i| usize::from(i % 20 == 0)).collect();
        let mut model = AdaptiveModel::new(2);
        let mut enc = ArithEncoder::new();
        for &s in &symbols {
            model.encode(&mut enc, s);
        }
        let bytes = enc.finish();
        let bits_per_sym = bytes.len() as f64 * 8.0 / symbols.len() as f64;
        assert!(bits_per_sym < 0.7, "bits/sym = {bits_per_sym}");
    }

    #[test]
    fn adaptive_model_rescale_keeps_roundtrip() {
        let mut model = AdaptiveModel::with_rescale(3, 64);
        let mut enc = ArithEncoder::new();
        let symbols: Vec<usize> = (0..500).map(|i| i % 3).collect();
        for &s in &symbols {
            model.encode(&mut enc, s);
        }
        let bytes = enc.finish();
        let mut dec_model = AdaptiveModel::with_rescale(3, 64);
        let mut dec = ArithDecoder::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec_model.decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    #[should_panic(expected = "empty alphabet")]
    fn zero_alphabet_panics() {
        let _ = AdaptiveModel::new(0);
    }

    #[test]
    fn context_model_roundtrip_order2() {
        // Period-3 pattern: order-2 context fully determines the symbol.
        let symbols: Vec<usize> = (0..3000).map(|i| [0, 2, 1][i % 3]).collect();
        let mut m = ContextModel::new(2);
        let mut enc = ArithEncoder::new();
        for &s in &symbols {
            m.encode(&mut enc, s);
        }
        let bytes = enc.finish();
        let bits_per_sym = bytes.len() as f64 * 8.0 / symbols.len() as f64;
        assert!(bits_per_sym < 0.25, "bits/sym = {bits_per_sym}");
        let mut d = ContextModel::new(2);
        let mut dec = ArithDecoder::new(&bytes);
        for &s in &symbols {
            assert_eq!(d.decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    fn context_model_order0_equals_flat() {
        let mut m = ContextModel::new(0);
        let mut enc = ArithEncoder::new();
        for s in [0usize, 1, 2, 3, 3, 3] {
            m.encode(&mut enc, s);
        }
        let bytes = enc.finish();
        let mut d = ContextModel::new(0);
        let mut dec = ArithDecoder::new(&bytes);
        for s in [0usize, 1, 2, 3, 3, 3] {
            assert_eq!(d.decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    fn context_model_reset() {
        let mut m = ContextModel::new(4);
        m.advance(3);
        m.advance(1);
        assert_ne!(m.ctx, 0);
        m.reset_context();
        assert_eq!(m.ctx, 0);
    }

    #[test]
    #[should_panic(expected = "context order too large")]
    fn oversized_context_panics() {
        let _ = ContextModel::new(13);
    }

    #[test]
    fn kt_estimator_start_is_half() {
        let kt = KtEstimator::new();
        assert_eq!(kt.prob_zero(), (1, 2));
    }

    #[test]
    fn kt_estimator_sequence() {
        // After seeing one 0: P(0) = (2*1+1)/(2*1+2) = 3/4.
        let mut kt = KtEstimator::new();
        kt.update(false);
        assert_eq!(kt.prob_zero(), (3, 4));
        kt.update(false);
        assert_eq!(kt.prob_zero(), (5, 6));
        kt.update(true);
        assert_eq!(kt.prob_zero(), (5, 8));
        assert_eq!(kt.counts(), (2, 1));
    }

    #[test]
    fn kt_log_prob_sums_match_product_rule() {
        // log P(sequence) accumulated stepwise must equal the closed-form
        // KT block probability for small cases: P(0^3) = 1/2·3/4·5/6.
        let mut kt = KtEstimator::new();
        let mut logp = 0.0;
        for _ in 0..3 {
            logp += kt.log_prob(false);
            kt.update(false);
        }
        let expect = (0.5f64 * 0.75 * (5.0 / 6.0)).ln();
        assert!((logp - expect).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn adaptive_roundtrip_random(
            n in 2usize..12,
            stream in prop::collection::vec(any::<u8>(), 0..500),
        ) {
            let symbols: Vec<usize> = stream.iter().map(|&b| b as usize % n).collect();
            let mut em = AdaptiveModel::new(n);
            let mut enc = ArithEncoder::new();
            for &s in &symbols {
                em.encode(&mut enc, s);
            }
            let bytes = enc.finish();
            let mut dm = AdaptiveModel::new(n);
            let mut dec = ArithDecoder::new(&bytes);
            for &s in &symbols {
                prop_assert_eq!(dm.decode(&mut dec).unwrap(), s);
            }
        }

        #[test]
        fn context_roundtrip_random(
            k in 0usize..6,
            stream in prop::collection::vec(0usize..4, 0..500),
        ) {
            let mut em = ContextModel::new(k);
            let mut enc = ArithEncoder::new();
            for &s in &stream {
                em.encode(&mut enc, s);
            }
            let bytes = enc.finish();
            let mut dm = ContextModel::new(k);
            let mut dec = ArithDecoder::new(&bytes);
            for &s in &stream {
                prop_assert_eq!(dm.decode(&mut dec).unwrap(), s);
            }
        }

        #[test]
        fn context_model_writes_and_reads_the_oracles_bits_at_orders_0_to_6(
            k in 0usize..=6,
            stream in prop::collection::vec(0usize..4, 0..3000),
        ) {
            use crate::arith::oracle;
            // The oracle codes the row as the model did before: `lo`
            // summed over `row[..sym]`, the symbol found by a scan.
            let mut em = ContextModel::new(k);
            let mut enc = ArithEncoder::new();
            let mut shadow = ContextModel::new(k);
            let mut old = oracle::Encoder::new();
            for &s in &stream {
                em.encode(&mut enc, s);
                let row = shadow.rows[shadow.ctx];
                let lo: u32 = row[..s].iter().sum();
                old.encode(lo, lo + row[s], shadow.totals[shadow.ctx]);
                shadow.update_counts(s);
                shadow.advance(s);
            }
            let bytes = enc.finish();
            prop_assert_eq!(&bytes, &old.finish());
            let mut dm = ContextModel::new(k);
            let mut dec = ArithDecoder::new(&bytes);
            let mut shadow = ContextModel::new(k);
            let mut old = oracle::Decoder::new(&bytes);
            for &s in &stream {
                prop_assert_eq!(dm.decode(&mut dec).unwrap(), s);
                let row = shadow.rows[shadow.ctx];
                let cum = [0, row[0], row[0] + row[1], row[0] + row[1] + row[2], row.iter().sum()];
                prop_assert_eq!(old.decode_cum(&cum), s);
                shadow.update_counts(s);
                shadow.advance(s);
                prop_assert_eq!(dec.exhausted(), old.exhausted());
            }
        }

        #[test]
        fn kt_probabilities_stay_valid(bits in prop::collection::vec(any::<bool>(), 0..2000)) {
            let mut kt = KtEstimator::new();
            for b in bits {
                let (num, den) = kt.prob_zero();
                prop_assert!(num > 0 && num < den);
                prop_assert!((den as u64) <= crate::arith::MAX_TOTAL);
                kt.update(b);
            }
        }
    }
}
