//! Integer arithmetic coder (Witten–Neal–Cleary style, 32-bit registers).
//!
//! This is the entropy-coding backend the paper's DNA compressors share:
//! DNAX encodes non-repeat regions arithmetically, BioCompress-2 and
//! DNAPack use order-2 arithmetic coding, and CTW drives the binary
//! encoder with its weighted probabilities (Table 1).
//!
//! The coder works on cumulative frequency ranges `[lo, hi) / total` and
//! performs the classic E1/E2 renormalisation plus E3 (pending-bit)
//! underflow handling. Precision is 32 bits; `total` must not exceed
//! [`MAX_TOTAL`] so that every symbol keeps a nonzero code range.
//!
//! It writes and reads exactly the bits of the textbook loop that
//! renormalises one bit per trip (kept as the test module's oracle), at
//! a fraction of its cost:
//!
//! * **One renormalisation step per symbol.** All E1/E2 shifts go at
//!   once, then all E3 shifts (see `renormalise` on either side for the
//!   proof against the loop).
//! * **Word I/O.** The encoder appends a symbol's settled bits and
//!   pending bits to a 64-bit buffer with one shift and one 8-byte
//!   store; the decoder takes its next bits from one big-endian `u64`
//!   load.
//! * **No division on the coder's chain.** `floor(range · cum / total)`
//!   is a multiply-high by `u64::MAX / total` plus one correction
//!   (`scale`); that one division reads only the model's total, so it
//!   runs beside the `low`/`high` chain, not on it.
//! * **Decoding by boundary compare.** [`ArithDecoder::decode4`] and
//!   [`ArithDecoder::decode_bit`] compare `value − low` with the same
//!   boundaries the encoder narrowed to, instead of dividing by the
//!   range to find a target.

use crate::error::CodecError;
use crate::rans::{quantize_bit, RansDecoder, RansEncoder, RANS_BIT_BITS};

const PRECISION: u32 = 32;
const TOP: u64 = (1 << PRECISION) - 1;
const HALF: u64 = 1 << (PRECISION - 1);
const QUARTER: u64 = 1 << (PRECISION - 2);

/// Maximum allowed `total` of a frequency distribution (2^24). Keeping
/// `total ≤ range/4` guarantees `range/total ≥ 1` after renormalisation,
/// so no symbol's interval collapses.
pub const MAX_TOTAL: u64 = 1 << 24;

/// Most bits one `ArithEncoder::put` appends: at most 7 bits wait in
/// the word between puts, and `7 + 56 < 64` keeps every shift in range.
const PUT_MAX: u32 = 56;

/// `floor(p / total)` for `p ≤ 2^56`, given `recip = u64::MAX / total`.
///
/// Write `recip = (2^64 − 1 − r) / total` with `r = (2^64 − 1) mod total`.
/// Then `p · recip / 2^64 = p / total − p · (1 + r) / (total · 2^64)`,
/// and since `1 + r ≤ total` the subtracted term is at most
/// `p / 2^64 ≤ 2^−8`. So the high word `q` is `floor(p / total)` or one
/// less, and one compare of the remainder with `total` settles which.
/// Every caller passes `p = range · cum` with `range ≤ 2^32` and
/// `cum ≤ total ≤ MAX_TOTAL = 2^24`.
#[inline(always)]
fn scale(p: u64, recip: u64, total: u64) -> u64 {
    debug_assert!(p <= 1 << 56);
    let q = ((p as u128 * recip as u128) >> 64) as u64;
    q + (p - q * total >= total) as u64
}

/// Arithmetic encoder.
#[derive(Clone, Debug)]
pub struct ArithEncoder {
    low: u64,
    high: u64,
    /// E3 steps taken since the last settled bit: that many inverted
    /// copies of the next settled bit are owed.
    pending: u64,
    /// Whole bytes written. Each put stores all 8 bytes of `word` here
    /// and keeps only the complete ones.
    out: Vec<u8>,
    /// Bits not yet in `out`, left-aligned; `used ≤ 7` between puts.
    word: u64,
    used: u32,
}

impl Default for ArithEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ArithEncoder {
    /// Fresh encoder.
    pub fn new() -> Self {
        ArithEncoder {
            low: 0,
            high: TOP,
            pending: 0,
            out: Vec::new(),
            word: 0,
            used: 0,
        }
    }

    /// Encode a symbol occupying the cumulative range `[cum_lo, cum_hi)`
    /// out of `total`.
    ///
    /// # Panics
    /// Debug-asserts `cum_lo < cum_hi ≤ total ≤ MAX_TOTAL`.
    #[inline]
    pub fn encode(&mut self, cum_lo: u32, cum_hi: u32, total: u32) {
        let (cum_lo, cum_hi, total) = (cum_lo as u64, cum_hi as u64, total as u64);
        debug_assert!(cum_lo < cum_hi && cum_hi <= total);
        debug_assert!(total <= MAX_TOTAL);
        let recip = u64::MAX / total;
        let range = self.high - self.low + 1;
        self.high = self.low + scale(range * cum_hi, recip, total) - 1;
        self.low += scale(range * cum_lo, recip, total);
        self.renormalise();
    }

    /// Encode one bit with probability `p0_num/p_den` of being zero.
    /// Convenience wrapper used by the CTW compressor.
    pub fn encode_bit(&mut self, bit: bool, p0_num: u32, p_den: u32) {
        debug_assert!(0 < p0_num && p0_num < p_den);
        if bit {
            self.encode(p0_num, p_den, p_den);
        } else {
            self.encode(0, p0_num, p_den);
        }
    }

    /// Both renormalisations in one step each. Against the loop that
    /// shifts one bit per trip:
    ///
    /// * **E1/E2.** A trip shifts while `low` and `high` share their top
    ///   bit, so the trips are the `n` leading bits the two share. They
    ///   leave in order (the first followed by the pending bits), and
    ///   `n` trips of `low ← 2·low mod 2^32`, `high ← (2·high + 1) mod
    ///   2^32` are one shift by `n` with `n` ones filled into `high`.
    ///   A narrowing leaves `range / total ≥ 2^30 / 2^24 = 64`, so
    ///   `high − low ≥ 63` and `n ≤ 26`.
    /// * **E3.** An E3 trip never enables E1/E2 (it leaves `low < HALF ≤
    ///   high`), so every E3 trip follows the E1/E2 ones. With
    ///   `low = 0…` and `high = 1…`, a trip needs low's next bit 1 and
    ///   high's 0, and it deletes that bit from both, keeping the top
    ///   bit: `low ← 0 b29…b0 0`, `high ← 1 b29…b0 1`. So the trips are
    ///   the leading ones of `low & !high` below the top bit, `m` of
    ///   them, each owing one pending bit; `m` trips shift both by `m`,
    ///   clear low's top bit and set high's.
    #[inline(always)]
    fn renormalise(&mut self) {
        let n = ((self.low ^ self.high) as u32).leading_zeros();
        if n > 0 {
            self.settle(self.low >> (PRECISION - n), n);
            self.low = (self.low << n) & TOP;
            self.high = ((self.high << n) | ((1 << n) - 1)) & TOP;
        }
        let m = (((self.low & !self.high) as u32) << 1).leading_ones();
        self.pending += m as u64;
        self.low = (self.low << m) & (HALF - 1);
        self.high = (((self.high << m) | ((1 << m) - 1)) & TOP) | HALF;
    }

    /// Write the `n ≥ 1` settled bits `t` (right-aligned), the first one
    /// followed by `pending` inverted copies of it.
    #[inline(always)]
    fn settle(&mut self, t: u64, n: u32) {
        let k = self.pending + n as u64;
        if k <= PUT_MAX as u64 {
            // The `k`-bit string `b, !b × pending, t's other n − 1 bits`
            // is the number `t + (2^pending − 1) · 2^(n−1)`: for b = 0
            // the sum only fills in the ones; for b = 1 its carry clears
            // b's bit and sets the one `pending` places above it.
            self.put(t + (((1 << self.pending) - 1) << (n - 1)), k as u32);
        } else {
            self.settle_long(t, n);
        }
        self.pending = 0;
    }

    /// [`ArithEncoder::settle`] for a pending run too long for one put.
    #[cold]
    #[inline(never)]
    fn settle_long(&mut self, t: u64, n: u32) {
        let b = t >> (n - 1);
        self.put(b, 1);
        let inverted = if b == 0 { u64::MAX } else { 0 };
        let mut left = self.pending;
        while left > 0 {
            let k = left.min(PUT_MAX as u64) as u32;
            self.put(inverted >> (64 - k), k);
            left -= k as u64;
        }
        if n > 1 {
            self.put(t & ((1 << (n - 1)) - 1), n - 1);
        }
    }

    /// Append the `1 ≤ k ≤ PUT_MAX` low bits of `bits`, MSB first.
    #[inline(always)]
    fn put(&mut self, bits: u64, k: u32) {
        debug_assert!((1..=PUT_MAX).contains(&k) && self.used <= 7 && bits >> k == 0);
        self.word |= bits << (64 - self.used - k);
        self.used += k;
        let len = self.out.len();
        self.out.extend_from_slice(&self.word.to_be_bytes());
        let whole = self.used / 8;
        self.out.truncate(len + whole as usize);
        self.word <<= whole * 8;
        self.used %= 8;
    }

    /// Flush the final interval and return the encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        // Disambiguate the final interval with one more bit (+pending).
        self.pending += 1;
        self.settle((self.low >= QUARTER) as u64, 1);
        if self.used > 0 {
            self.out.push((self.word >> 56) as u8);
        }
        self.out
    }

    /// Bits emitted so far (excludes the final flush).
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.used as usize
    }
}

/// Arithmetic decoder.
///
/// The decoder deliberately reads *past* the physical end of the stream —
/// the encoder's flush guarantees those phantom bits decode correctly as
/// zeros — so the caller must know (from a container header) how many
/// symbols to decode.
#[derive(Clone, Debug)]
pub struct ArithDecoder<'a> {
    low: u64,
    high: u64,
    value: u64,
    bytes: &'a [u8],
    /// Bits consumed, counting the phantom zeros read past the end.
    pos: usize,
}

impl<'a> ArithDecoder<'a> {
    /// Start decoding from `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        let mut dec = ArithDecoder {
            low: 0,
            high: TOP,
            value: 0,
            bytes,
            pos: 0,
        };
        dec.value = dec.read(PRECISION);
        dec
    }

    /// The next `k ≤ 32` input bits, zeros past the end.
    #[inline(always)]
    fn read(&mut self, k: u32) -> u64 {
        debug_assert!(k <= PRECISION);
        let at = self.pos / 8;
        let word = match self.bytes.get(at..at + 8) {
            Some(b) => u64::from_be_bytes(b.try_into().expect("8-byte slice")),
            None => self.tail_word(at),
        };
        // Two shifts, so that `k = 0` reads nothing.
        let bits = ((word << (self.pos % 8)) >> 1) >> (63 - k);
        self.pos += k as usize;
        bits
    }

    /// The big-endian word at byte `at` within 8 bytes of the end,
    /// zero-filled.
    #[cold]
    fn tail_word(&self, at: usize) -> u64 {
        let mut buf = [0u8; 8];
        if let Some(rest) = self.bytes.get(at..) {
            buf[..rest.len()].copy_from_slice(rest);
        }
        u64::from_be_bytes(buf)
    }

    /// The cumulative-frequency slot the next symbol falls into, given the
    /// current model `total`. The caller maps this to a symbol and then
    /// must call [`ArithDecoder::update`] with that symbol's range.
    pub fn decode_target(&self, total: u32) -> u32 {
        let total = total as u64;
        debug_assert!(total <= MAX_TOTAL && total > 0);
        let range = self.high - self.low + 1;
        let target = ((self.value - self.low + 1) * total - 1) / range;
        debug_assert!(target < total);
        target as u32
    }

    /// Narrow the interval to the decoded symbol's range and renormalise.
    #[inline]
    pub fn update(&mut self, cum_lo: u32, cum_hi: u32, total: u32) {
        let (cum_lo, cum_hi, total) = (cum_lo as u64, cum_hi as u64, total as u64);
        debug_assert!(cum_lo < cum_hi && cum_hi <= total);
        let recip = u64::MAX / total;
        let range = self.high - self.low + 1;
        let lo = scale(range * cum_lo, recip, total);
        let hi = scale(range * cum_hi, recip, total);
        self.narrow(lo, hi);
    }

    /// Decode one bit given probability `p0_num/p_den` of zero — the
    /// mirror of [`ArithEncoder::encode_bit`].
    ///
    /// Compares `value − low` with the one boundary
    /// `b = floor(range · p0_num / p_den)`: see [`ArithDecoder::decode4`]
    /// for why that is the bit `decode_target` would pick.
    #[inline]
    pub fn decode_bit(&mut self, p0_num: u32, p_den: u32) -> bool {
        debug_assert!(0 < p0_num && p0_num < p_den);
        let total = p_den as u64;
        let range = self.high - self.low + 1;
        let b = scale(range * p0_num as u64, u64::MAX / total, total);
        let bit = self.value - self.low >= b;
        if bit {
            self.narrow(b, range);
        } else {
            self.narrow(0, b);
        }
        bit
    }

    /// Decode one symbol of a 4-symbol count row summing to `total`, the
    /// mirror of encoding `[cum_s, cum_s + row[s])` with `ArithEncoder`.
    ///
    /// With `off = value − low` and the encoder's boundaries
    /// `b_s = floor(range · cum_s / total)`, the symbol is the number of
    /// `b_1, b_2, b_3` at or below `off`. That is the symbol
    /// `decode_target` picks, on any input, valid or corrupt: for an
    /// integer `off`, `b_s ≤ off ⟺ range · cum_s / total < off + 1 ⟺
    /// cum_s ≤ ((off + 1) · total − 1) / range`, whose floor is the
    /// target. Since `off < range = b_4`, the row never runs out.
    #[inline]
    pub fn decode4(&mut self, row: &[u32; 4], total: u32) -> usize {
        let total = total as u64;
        debug_assert!(row.iter().map(|&c| c as u64).sum::<u64>() == total);
        debug_assert!(total <= MAX_TOTAL);
        let recip = u64::MAX / total;
        let range = self.high - self.low + 1;
        let c1 = row[0] as u64;
        let c2 = c1 + row[1] as u64;
        let c3 = c2 + row[2] as u64;
        let b = [
            0,
            scale(range * c1, recip, total),
            scale(range * c2, recip, total),
            scale(range * c3, recip, total),
            range,
        ];
        let off = self.value - self.low;
        let sym = (off >= b[1]) as usize + (off >= b[2]) as usize + (off >= b[3]) as usize;
        self.narrow(b[sym], b[sym + 1]);
        sym
    }

    /// Narrow to `[low + lo, low + hi)` and renormalise.
    #[inline(always)]
    fn narrow(&mut self, lo: u64, hi: u64) {
        self.high = self.low + hi - 1;
        self.low += lo;
        self.renormalise();
    }

    /// The encoder's renormalisation (see `ArithEncoder::renormalise`),
    /// applied to `value` too. `value` stays in `[low, high]`, so it
    /// shares the `n` leading bits E1/E2 drop, and in E3 its bits below
    /// the top are the complement of the top, as in `low` or `high`.
    /// The loop's E3 trip `value ← 2 · (value − QUARTER)` taken `m`
    /// times is `2^m · value − (2^m − 1) · HALF`, which is
    /// `(value << m) + HALF − (HALF << m)` mod 2^32. Both steps shift in
    /// zeros, which the next `n + m` input bits replace.
    #[inline(always)]
    fn renormalise(&mut self) {
        let n = ((self.low ^ self.high) as u32).leading_zeros();
        let low = (self.low << n) & TOP;
        let high = ((self.high << n) | ((1 << n) - 1)) & TOP;
        let m = (((low & !high) as u32) << 1).leading_ones();
        self.low = (low << m) & (HALF - 1);
        self.high = (((high << m) | ((1 << m) - 1)) & TOP) | HALF;
        let value = (self.value << n) & TOP;
        let value = (value << m).wrapping_add(HALF).wrapping_sub(HALF << m) & TOP;
        self.value = value | self.read(n + m);
    }

    /// `true` once the decoder has consumed more bits than physically
    /// existed — useful only as a corruption heuristic, not for framing.
    pub fn exhausted(&self) -> bool {
        self.pos > self.bytes.len() * 8
    }
}

/// Which entropy coder sits behind the context models.
///
/// The adaptive models produce identical probability streams either way;
/// only the final coding stage differs. `Rans` is the default (and the
/// fast path); `Arith` is kept both as the decoder for pre-rANS blobs
/// and as the differential-test oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EntropyBackend {
    /// Arithmetic coder (legacy blobs, differential oracle).
    Arith,
    /// Interleaved table-driven rANS (see [`crate::rans`]).
    #[default]
    Rans,
}

impl EntropyBackend {
    /// Stable lowercase name, used in bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            EntropyBackend::Arith => "arith",
            EntropyBackend::Rans => "rans",
        }
    }
}

/// Backend-polymorphic entropy encoder: one enum instead of a trait so
/// the per-symbol hot path stays a direct match, not a vtable call.
///
/// The `Arith` arm is byte-for-byte the pre-seam encoder behaviour; the
/// `Discard` arm is a no-op sink used by bench stage-timing to measure
/// model cost with the entropy stage subtracted.
#[derive(Debug)]
pub enum EntropyEncoder {
    /// Arithmetic coding.
    Arith(ArithEncoder),
    /// Buffering interleaved rANS.
    Rans(RansEncoder),
    /// Emits nothing (stage-timing probe).
    Discard,
}

impl EntropyEncoder {
    /// Fresh encoder for `backend`.
    pub fn new(backend: EntropyBackend) -> Self {
        match backend {
            EntropyBackend::Arith => EntropyEncoder::Arith(ArithEncoder::new()),
            EntropyBackend::Rans => EntropyEncoder::Rans(RansEncoder::new()),
        }
    }

    /// No-op sink: models run at full fidelity, nothing is coded.
    pub fn discard() -> Self {
        EntropyEncoder::Discard
    }

    /// Encode one bit with probability `p0_num / p_den` of being zero.
    /// The rANS arm quantizes to the 2^16 scale ([`quantize_bit`]) —
    /// exact when `p_den` is already `1 << 16`.
    pub fn encode_bit(&mut self, bit: bool, p0_num: u32, p_den: u32) {
        match self {
            EntropyEncoder::Arith(enc) => enc.encode_bit(bit, p0_num, p_den),
            EntropyEncoder::Rans(enc) => {
                enc.push_bit(bit as u8, quantize_bit(p0_num, p_den));
            }
            EntropyEncoder::Discard => {}
        }
    }

    /// Encode `sym` under an exact cumulative distribution over
    /// `1 << 16` (5 fenceposts for 4 symbols, `cum[0] == 0`,
    /// `cum[4] == 65536`, strictly increasing).
    pub fn encode_cum16(&mut self, cum: &[u32; 5], sym: usize) {
        debug_assert!(cum[0] == 0 && cum[4] == 1 << 16);
        match self {
            EntropyEncoder::Arith(enc) => enc.encode(cum[sym], cum[sym + 1], 1 << 16),
            EntropyEncoder::Rans(enc) => {
                enc.push(cum[sym], cum[sym + 1] - cum[sym], RANS_BIT_BITS);
            }
            EntropyEncoder::Discard => {}
        }
    }

    /// Finalize the stream. `Discard` yields an empty payload.
    pub fn finish(self) -> Vec<u8> {
        match self {
            EntropyEncoder::Arith(enc) => enc.finish(),
            EntropyEncoder::Rans(enc) => enc.finish(),
            EntropyEncoder::Discard => Vec::new(),
        }
    }
}

/// Backend-polymorphic entropy decoder, mirror of [`EntropyEncoder`].
#[derive(Debug)]
pub enum EntropyDecoder<'a> {
    /// Arithmetic decoding.
    Arith(ArithDecoder<'a>),
    /// Interleaved rANS decoding.
    Rans(RansDecoder<'a>),
}

impl<'a> EntropyDecoder<'a> {
    /// Start decoding `bytes` under `backend`. The rANS arm validates
    /// its 8-byte state header here (typed error, never a hang).
    pub fn new(backend: EntropyBackend, bytes: &'a [u8]) -> Result<Self, CodecError> {
        Ok(match backend {
            EntropyBackend::Arith => EntropyDecoder::Arith(ArithDecoder::new(bytes)),
            EntropyBackend::Rans => EntropyDecoder::Rans(RansDecoder::new(bytes)?),
        })
    }

    /// Decode one bit — mirror of [`EntropyEncoder::encode_bit`].
    pub fn decode_bit(&mut self, p0_num: u32, p_den: u32) -> bool {
        match self {
            EntropyDecoder::Arith(dec) => dec.decode_bit(p0_num, p_den),
            EntropyDecoder::Rans(dec) => dec.decode_bit(quantize_bit(p0_num, p_den)) != 0,
        }
    }

    /// Decode one symbol under an exact cumulative distribution over
    /// `1 << 16` — mirror of [`EntropyEncoder::encode_cum16`].
    pub fn decode_cum16(&mut self, cum: &[u32; 5]) -> usize {
        debug_assert!(cum[0] == 0 && cum[4] == 1 << 16);
        match self {
            EntropyDecoder::Arith(dec) => {
                let target = dec.decode_target(1 << 16);
                let sym = cum[1..].partition_point(|&c| c <= target);
                dec.update(cum[sym], cum[sym + 1], 1 << 16);
                sym
            }
            EntropyDecoder::Rans(dec) => {
                let target = dec.target(RANS_BIT_BITS);
                let sym = cum[1..].partition_point(|&c| c <= target);
                dec.advance(cum[sym], cum[sym + 1] - cum[sym], RANS_BIT_BITS);
                sym
            }
        }
    }
}

/// The bit-at-a-time coder [`ArithEncoder`] and [`ArithDecoder`]
/// replaced, kept as their differential oracle: one loop trip per
/// renormalisation bit, two divisions per encoded symbol, three per
/// decoded one.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{HALF, PRECISION, QUARTER, TOP};
    use crate::bitio::{BitReader, BitWriter};

    const THREE_QUARTERS: u64 = 3 * QUARTER;

    pub(crate) struct Encoder {
        low: u64,
        high: u64,
        pending: u64,
        out: BitWriter,
    }

    impl Encoder {
        pub(crate) fn new() -> Self {
            Encoder {
                low: 0,
                high: TOP,
                pending: 0,
                out: BitWriter::new(),
            }
        }

        pub(crate) fn encode(&mut self, cum_lo: u32, cum_hi: u32, total: u32) {
            let (cum_lo, cum_hi, total) = (cum_lo as u64, cum_hi as u64, total as u64);
            let range = self.high - self.low + 1;
            self.high = self.low + range * cum_hi / total - 1;
            self.low += range * cum_lo / total;
            loop {
                if self.high < HALF {
                    self.emit(false);
                } else if self.low >= HALF {
                    self.emit(true);
                    self.low -= HALF;
                    self.high -= HALF;
                } else if self.low >= QUARTER && self.high < THREE_QUARTERS {
                    self.pending += 1;
                    self.low -= QUARTER;
                    self.high -= QUARTER;
                } else {
                    break;
                }
                self.low <<= 1;
                self.high = (self.high << 1) | 1;
            }
        }

        pub(crate) fn encode_bit(&mut self, bit: bool, p0_num: u32, p_den: u32) {
            if bit {
                self.encode(p0_num, p_den, p_den);
            } else {
                self.encode(0, p0_num, p_den);
            }
        }

        fn emit(&mut self, bit: bool) {
            self.out.push_bit(bit);
            for _ in 0..self.pending {
                self.out.push_bit(!bit);
            }
            self.pending = 0;
        }

        pub(crate) fn bit_len(&self) -> usize {
            self.out.bit_len()
        }

        pub(crate) fn finish(mut self) -> Vec<u8> {
            self.pending += 1;
            self.emit(self.low >= QUARTER);
            self.out.into_bytes()
        }
    }

    pub(crate) struct Decoder<'a> {
        low: u64,
        high: u64,
        value: u64,
        input: BitReader<'a>,
    }

    impl<'a> Decoder<'a> {
        pub(crate) fn new(bytes: &'a [u8]) -> Self {
            let mut input = BitReader::new(bytes);
            let mut value = 0u64;
            for _ in 0..PRECISION {
                value = (value << 1) | input.read_bit_padded() as u64;
            }
            Decoder {
                low: 0,
                high: TOP,
                value,
                input,
            }
        }

        pub(crate) fn decode_target(&self, total: u32) -> u32 {
            let range = self.high - self.low + 1;
            (((self.value - self.low + 1) * total as u64 - 1) / range) as u32
        }

        pub(crate) fn update(&mut self, cum_lo: u32, cum_hi: u32, total: u32) {
            let (cum_lo, cum_hi, total) = (cum_lo as u64, cum_hi as u64, total as u64);
            let range = self.high - self.low + 1;
            self.high = self.low + range * cum_hi / total - 1;
            self.low += range * cum_lo / total;
            loop {
                if self.high < HALF {
                } else if self.low >= HALF {
                    self.low -= HALF;
                    self.high -= HALF;
                    self.value -= HALF;
                } else if self.low >= QUARTER && self.high < THREE_QUARTERS {
                    self.low -= QUARTER;
                    self.high -= QUARTER;
                    self.value -= QUARTER;
                } else {
                    break;
                }
                self.low <<= 1;
                self.high = (self.high << 1) | 1;
                self.value = (self.value << 1) | self.input.read_bit_padded() as u64;
            }
        }

        pub(crate) fn decode_bit(&mut self, p0_num: u32, p_den: u32) -> bool {
            let bit = self.decode_target(p_den) >= p0_num;
            if bit {
                self.update(p0_num, p_den, p_den);
            } else {
                self.update(0, p0_num, p_den);
            }
            bit
        }

        /// The symbol of `cum` (fenceposts, `cum[0] = 0`) holding the
        /// next target, found by the scan the context models used.
        pub(crate) fn decode_cum(&mut self, cum: &[u32]) -> usize {
            let total = *cum.last().expect("fenceposts");
            let target = self.decode_target(total);
            let sym = cum[1..]
                .iter()
                .position(|&c| target < c)
                .expect("target < total");
            self.update(cum[sym], cum[sym + 1], total);
            sym
        }

        pub(crate) fn exhausted(&self) -> bool {
            self.input.position() > self.input.bit_len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Encode/decode a symbol string under a fixed distribution.
    fn roundtrip_fixed(symbols: &[usize], freqs: &[u32]) {
        let total: u32 = freqs.iter().sum();
        let cums: Vec<u32> = std::iter::once(0)
            .chain(freqs.iter().scan(0, |acc, &f| {
                *acc += f;
                Some(*acc)
            }))
            .collect();
        let mut enc = ArithEncoder::new();
        for &s in symbols {
            enc.encode(cums[s], cums[s + 1], total);
        }
        let bytes = enc.finish();
        let mut dec = ArithDecoder::new(&bytes);
        for &s in symbols {
            let t = dec.decode_target(total);
            let sym = cums.iter().rposition(|&c| c <= t).unwrap();
            assert_eq!(sym, s);
            dec.update(cums[sym], cums[sym + 1], total);
        }
    }

    #[test]
    fn uniform_quaternary_roundtrip() {
        let symbols: Vec<usize> = (0..1000).map(|i| i % 4).collect();
        roundtrip_fixed(&symbols, &[1, 1, 1, 1]);
    }

    #[test]
    fn skewed_distribution_roundtrip_and_compresses() {
        // 97% zeros should code well under 1 bit/symbol.
        let symbols: Vec<usize> = (0..5000).map(|i| usize::from(i % 33 == 0)).collect();
        let freqs = [97u32, 3];
        let total: u32 = 100;
        let mut enc = ArithEncoder::new();
        for &s in &symbols {
            let (lo, hi) = if s == 0 { (0, 97) } else { (97, 100) };
            enc.encode(lo, hi, total);
        }
        let bytes = enc.finish();
        // Entropy of 3% ones ≈ 0.194 bits → 5000 syms ≈ 122 bytes.
        assert!(bytes.len() < 200, "got {} bytes", bytes.len());
        let mut dec = ArithDecoder::new(&bytes);
        for &s in &symbols {
            let t = dec.decode_target(total);
            let sym = usize::from(t >= 97);
            assert_eq!(sym, s);
            let (lo, hi) = if sym == 0 { (0, 97) } else { (97, 100) };
            dec.update(lo, hi, total);
        }
        let _ = symbols;
        roundtrip_fixed(&symbols, &freqs);
    }

    #[test]
    fn single_symbol_stream() {
        roundtrip_fixed(&[0; 100], &[1, 1]);
        roundtrip_fixed(&[1; 100], &[1, 1]);
    }

    #[test]
    fn empty_stream() {
        let enc = ArithEncoder::new();
        let bytes = enc.finish();
        assert!(bytes.len() <= 2);
    }

    #[test]
    fn encode_bit_decode_bit_mirror() {
        let bits = [true, false, false, true, true, true, false];
        let mut enc = ArithEncoder::new();
        for &b in &bits {
            enc.encode_bit(b, 3, 7);
        }
        let bytes = enc.finish();
        let mut dec = ArithDecoder::new(&bytes);
        for &b in &bits {
            assert_eq!(dec.decode_bit(3, 7), b);
        }
    }

    #[test]
    fn extreme_probabilities() {
        // p0 = 1/MAX, p0 = (MAX-1)/MAX with MAX near MAX_TOTAL.
        let den = MAX_TOTAL as u32;
        let mut enc = ArithEncoder::new();
        enc.encode_bit(true, 1, den);
        enc.encode_bit(false, 1, den);
        enc.encode_bit(false, den - 1, den);
        enc.encode_bit(true, den - 1, den);
        let bytes = enc.finish();
        let mut dec = ArithDecoder::new(&bytes);
        assert!(dec.decode_bit(1, den));
        assert!(!dec.decode_bit(1, den));
        assert!(!dec.decode_bit(den - 1, den));
        assert!(dec.decode_bit(den - 1, den));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn arbitrary_symbols_roundtrip(
            symbols in prop::collection::vec(0usize..4, 0..800),
            f0 in 1u32..100, f1 in 1u32..100, f2 in 1u32..100, f3 in 1u32..100,
        ) {
            roundtrip_fixed(&symbols, &[f0, f1, f2, f3]);
        }

        #[test]
        fn arbitrary_bit_probs_roundtrip(
            bits in prop::collection::vec(any::<bool>(), 0..400),
            num in 1u32..255,
        ) {
            let mut enc = ArithEncoder::new();
            for &b in &bits {
                enc.encode_bit(b, num, 256);
            }
            let bytes = enc.finish();
            let mut dec = ArithDecoder::new(&bytes);
            for &b in &bits {
                prop_assert_eq!(dec.decode_bit(num, 256), b);
            }
        }
    }

    /// SplitMix64: the differential tests draw their streams from one
    /// proptest seed.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One step of a differential stream.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// A `ContextModel`-style row (every count ≥ 1, total ≤
        /// `MAX_TOTAL`), its symbol, and whether to decode it through
        /// `decode_target` + `update` rather than `decode4`.
        Row([u32; 4], usize, bool),
        /// A symbol `[lo, hi)` out of `total ≤ MAX_TOTAL`, of any width.
        Range(u32, u32, u32),
        /// A bit with `P(0) = p0_num / p_den`, `p_den ≤ MAX_TOTAL`.
        Bit(bool, u32, u32),
    }

    fn steps(seed: u64, n: usize) -> Vec<Step> {
        let mut st = seed;
        let mut below = |bound: u64| mix(&mut st) % bound;
        (0..n)
            .map(|_| match below(3) {
                0 => {
                    let mut row = [0u32; 4];
                    for r in &mut row {
                        let shift = below(23);
                        *r = 1 + below(1 << shift) as u32;
                    }
                    Step::Row(row, below(4) as usize, below(2) == 0)
                }
                1 => {
                    let shift = below(25);
                    let total = 1 + below(1 << shift) as u32;
                    let (x, y) = (below(total as u64) as u32, below(total as u64) as u32);
                    Step::Range(x.min(y), x.max(y) + 1, total)
                }
                _ => {
                    let den = 2 + below(MAX_TOTAL - 1) as u32;
                    let num = match below(4) {
                        0 => 1,
                        1 => den - 1,
                        _ => 1 + below(den as u64 - 1) as u32,
                    };
                    Step::Bit(below(2) == 0, num, den)
                }
            })
            .collect()
    }

    fn fenceposts(row: &[u32; 4]) -> [u32; 5] {
        let mut cum = [0u32; 5];
        for s in 0..4 {
            cum[s + 1] = cum[s] + row[s];
        }
        cum
    }

    fn encode_step(enc: &mut ArithEncoder, old: &mut oracle::Encoder, step: Step) {
        match step {
            Step::Row(row, sym, _) => {
                let cum = fenceposts(&row);
                enc.encode(cum[sym], cum[sym + 1], cum[4]);
                old.encode(cum[sym], cum[sym + 1], cum[4]);
            }
            Step::Range(lo, hi, total) => {
                enc.encode(lo, hi, total);
                old.encode(lo, hi, total);
            }
            Step::Bit(bit, num, den) => {
                enc.encode_bit(bit, num, den);
                old.encode_bit(bit, num, den);
            }
        }
        assert_eq!(enc.bit_len(), old.bit_len(), "bit_len after {step:?}");
    }

    /// Encode `steps` with both encoders, checking `bit_len` after every
    /// step; returns both streams.
    fn encode_both(steps: &[Step]) -> (Vec<u8>, Vec<u8>) {
        let mut enc = ArithEncoder::new();
        let mut old = oracle::Encoder::new();
        for &step in steps {
            encode_step(&mut enc, &mut old, step);
        }
        (enc.finish(), old.finish())
    }

    /// Decode `steps` from `bytes` with both decoders in lockstep; every
    /// symbol, every target and `exhausted()` after every step must
    /// agree. Returns the decoded symbols (bits as 0/1).
    fn decode_both(bytes: &[u8], steps: &[Step]) -> Vec<usize> {
        let mut dec = ArithDecoder::new(bytes);
        let mut old = oracle::Decoder::new(bytes);
        let mut out = Vec::with_capacity(steps.len());
        for (i, &step) in steps.iter().enumerate() {
            let (got, want) = match step {
                Step::Row(row, _, via_target) => {
                    let cum = fenceposts(&row);
                    let got = if via_target {
                        let target = dec.decode_target(cum[4]);
                        assert_eq!(target, old.decode_target(cum[4]), "target at step {i}");
                        let sym = cum[1..].iter().position(|&c| target < c).unwrap();
                        dec.update(cum[sym], cum[sym + 1], cum[4]);
                        sym
                    } else {
                        dec.decode4(&row, cum[4])
                    };
                    (got, old.decode_cum(&cum))
                }
                Step::Range(lo, hi, total) => {
                    let cum = [0, lo, hi, total];
                    let target = dec.decode_target(total);
                    assert_eq!(target, old.decode_target(total), "target at step {i}");
                    let sym = cum[1..].iter().position(|&c| target < c).unwrap();
                    dec.update(cum[sym], cum[sym + 1], total);
                    (sym, old.decode_cum(&cum))
                }
                Step::Bit(_, num, den) => (
                    dec.decode_bit(num, den) as usize,
                    old.decode_bit(num, den) as usize,
                ),
            };
            assert_eq!(got, want, "symbol at step {i}: {step:?}");
            assert_eq!(
                dec.exhausted(),
                old.exhausted(),
                "exhausted() after step {i}"
            );
            out.push(got);
        }
        out
    }

    /// The symbol each step encoded, as `decode_both` reports it (a
    /// `Range` step decodes as slot 1 of `[0, lo, hi, total]`).
    fn encoded_symbols(steps: &[Step]) -> Vec<usize> {
        steps
            .iter()
            .map(|&step| match step {
                Step::Row(_, sym, _) => sym,
                Step::Range(..) => 1,
                Step::Bit(bit, _, _) => bit as usize,
            })
            .collect()
    }

    #[test]
    fn empty_stream_matches_the_oracle() {
        assert_eq!(
            ArithEncoder::new().finish(),
            oracle::Encoder::new().finish()
        );
        assert!(decode_both(&[], &steps(1, 64)).len() == 64);
    }

    #[test]
    fn scale_is_the_exact_quotient_at_the_extremes() {
        let max = MAX_TOTAL;
        for (range, cum, total) in [
            (1 << 32, max, max),
            (1 << 32, max - 1, max),
            (1 << 32, 1, max),
            ((1 << 32) - 1, max - 1, max),
            ((1 << 30) + 1, 3, 7),
            (1 << 32, 1, 1),
            (12345, 0, 1),
            (1 << 32, 0, max),
        ] {
            let p = range * cum;
            assert_eq!(
                scale(p, u64::MAX / total, total),
                p / total,
                "{range}·{cum}/{total}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn scale_is_the_exact_quotient(range in 1u64..=1 << 32, a in any::<u64>(), b in any::<u64>()) {
            let total = 1 + a % MAX_TOTAL;
            let cum = b % (total + 1);
            let p = range * cum;
            prop_assert_eq!(scale(p, u64::MAX / total, total), p / total);
        }

        #[test]
        fn encoder_writes_the_oracles_bytes(seed in any::<u64>(), n in 0usize..600) {
            let (new, old) = encode_both(&steps(seed, n));
            prop_assert_eq!(new, old);
        }

        #[test]
        fn encode_bit_at_the_extremes_writes_the_oracles_bytes(
            bits in prop::collection::vec((any::<bool>(), any::<bool>()), 0..2000),
        ) {
            let den = MAX_TOTAL as u32;
            let steps: Vec<Step> = bits
                .iter()
                .map(|&(bit, likely)| Step::Bit(bit, if likely { den - 1 } else { 1 }, den))
                .collect();
            let (new, old) = encode_both(&steps);
            prop_assert_eq!(&new, &old);
            prop_assert_eq!(decode_both(&new, &steps), encoded_symbols(&steps));
        }

        #[test]
        fn long_pending_runs_write_the_oracles_bytes(
            seed in any::<u64>(),
            run in 100usize..400,
        ) {
            // From the fresh interval every middle-half symbol is one E3
            // step, so the run owes more pending bits than one put holds.
            let mut all = vec![Step::Range(1, 3, 4); run];
            all.extend(steps(seed, 16));
            let mut enc = ArithEncoder::new();
            let mut old = oracle::Encoder::new();
            let mut most = 0;
            for &step in &all {
                encode_step(&mut enc, &mut old, step);
                most = most.max(enc.pending);
            }
            prop_assert!(most > PUT_MAX as u64, "pending peaked at {most}");
            let (new, old) = (enc.finish(), old.finish());
            prop_assert_eq!(&new, &old);
            prop_assert_eq!(decode_both(&new, &all), encoded_symbols(&all));
        }

        #[test]
        fn decoder_reads_the_oracles_symbols_from_valid_streams(
            seed in any::<u64>(),
            n in 0usize..600,
        ) {
            let steps = steps(seed, n);
            let (bytes, _) = encode_both(&steps);
            prop_assert_eq!(decode_both(&bytes, &steps), encoded_symbols(&steps));
        }

        #[test]
        fn decoder_reads_the_oracles_symbols_from_arbitrary_bytes(
            seed in any::<u64>(),
            bytes in prop::collection::vec(any::<u8>(), 0..96),
            n in 0usize..600,
        ) {
            let _ = decode_both(&bytes, &steps(seed, n));
        }
    }
}
