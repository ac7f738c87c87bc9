//! Interleaved range asymmetric numeral system (rANS) entropy coder.
//!
//! This is the table-driven fast path behind the [`crate::arith`]
//! `EntropyBackend` seam: the adaptive context models keep producing the
//! same probability estimates they always did, but the bit-serial
//! arithmetic coder is replaced by a byte-renormalized rANS pair. Two
//! independent u32 states are interleaved (slot *i* uses lane `i & 1`)
//! so the decoder's multiply/shift chains overlap in the pipeline.
//!
//! rANS is a LIFO code: the encoder must see the whole symbol stream
//! before it can emit bytes, so [`RansEncoder::push`] only buffers
//! `(start, freq, bits)` slots and [`RansEncoder::finish`] encodes them
//! in reverse. The decoder then streams forward. Determinism contract:
//! both sides must derive **identical** slots from identical model
//! state, which is why the quantizers in this module are pure integer
//! arithmetic ([`quantize_bit`], [`FreqTable::build`]).
//!
//! Wire layout produced by [`RansEncoder::finish`]:
//!
//! ```text
//! [state0: u32 LE][state1: u32 LE][renormalization bytes ...]
//! ```
//!
//! The header states are the encoder's *final* states, which is exactly
//! where the decoder must start. [`RansDecoder::new`] rejects header
//! states below [`RANS_L`]: combined with `freq >= 1` this guarantees
//! every renormalization loop terminates, even on zero-padded reads
//! past a truncated stream — corruption can mis-decode, but it can
//! never hang or overflow.
//!
//! [`FreqTable`] adds the static-distribution layer used by the BWT
//! entropy stage: quantized frequencies summing to exactly
//! `1 << RANS_TABLE_BITS`, serialized as varint counts followed by an
//! FNV-1a checksum, with every count validated *before* any
//! symbol-proportional allocation.

use crate::checksum::Fnv1a;
use crate::error::CodecError;
use crate::varint::{read_u64_le, read_uvarint, write_u64_le, write_uvarint};

/// Lower bound of the normalized state interval: states live in
/// `[RANS_L, RANS_L << 8)` between symbols.
pub const RANS_L: u32 = 1 << 23;

/// Probability scale (log2) for static frequency tables: quantized
/// frequencies sum to exactly `1 << RANS_TABLE_BITS`.
pub const RANS_TABLE_BITS: u32 = 14;

/// Probability scale (log2) for binary (bit-level) coding. Matches the
/// CTW mixer's own `1 << 16` quantization, so binary rANS coding is an
/// exact pass-through of the model's probabilities.
pub const RANS_BIT_BITS: u32 = 16;

/// One buffered symbol: its cumulative start, frequency, and the
/// probability scale it was quantized to. `freq >= 1` always; with
/// `bits <= 16` every field fits the packed width.
#[derive(Clone, Copy, Debug)]
struct Slot {
    start: u16,
    freq: u16,
    bits: u8,
}

/// Buffering rANS encoder over two interleaved states.
///
/// Call [`RansEncoder::push`] once per symbol in stream order, then
/// [`RansEncoder::finish`] to materialize the byte stream.
#[derive(Debug, Default)]
pub struct RansEncoder {
    slots: Vec<Slot>,
}

impl RansEncoder {
    /// Fresh encoder with no buffered symbols.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of symbols buffered so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no symbols have been pushed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Buffer one symbol occupying `[start, start + freq)` out of
    /// `1 << bits`. Requires `freq >= 1`, `start + freq <= 1 << bits`,
    /// and `bits <= 16`; the quantizers in this module guarantee all
    /// three.
    pub fn push(&mut self, start: u32, freq: u32, bits: u32) {
        debug_assert!((1..=16).contains(&bits), "rANS scale out of range");
        debug_assert!(freq >= 1, "rANS symbol with zero frequency");
        debug_assert!(start + freq <= 1 << bits, "rANS slot overflows scale");
        debug_assert!(start <= u16::MAX as u32 && freq <= u16::MAX as u32);
        self.slots.push(Slot {
            start: start as u16,
            freq: freq as u16,
            bits: bits as u8,
        });
    }

    /// Encode a bit against `P(bit = 0) = q0 / 2^16` where
    /// `q0 = quantize_bit(..)` (so `1 <= q0 <= 0xFFFF`).
    pub fn push_bit(&mut self, bit: u8, q0: u32) {
        debug_assert!((1..1 << RANS_BIT_BITS).contains(&q0));
        if bit == 0 {
            self.push(0, q0, RANS_BIT_BITS);
        } else {
            self.push(q0, (1 << RANS_BIT_BITS) - q0, RANS_BIT_BITS);
        }
    }

    /// Encode all buffered symbols (in reverse, as rANS requires) and
    /// return the wire bytes: an 8-byte final-state header followed by
    /// the renormalization stream in decode order.
    pub fn finish(self) -> Vec<u8> {
        let mut states: [u32; 2] = [RANS_L, RANS_L];
        // Renormalization bytes come out in reverse decode order; they
        // are collected and flipped once at the end.
        let mut renorm: Vec<u8> = Vec::with_capacity(self.slots.len() / 2 + 8);
        for (i, slot) in self.slots.iter().enumerate().rev() {
            let x = &mut states[i & 1];
            let freq = slot.freq as u32;
            let bits = slot.bits as u32;
            // Renormalize down so the post-encode state stays in
            // [RANS_L, RANS_L << 8). Upper bound fits u32:
            // (RANS_L >> 16) << 8 == 2^15, times freq <= 0xFFFF < 2^31.
            let x_max = ((RANS_L >> bits) << 8) * freq;
            while *x >= x_max {
                renorm.push((*x & 0xFF) as u8);
                *x >>= 8;
            }
            *x = ((*x / freq) << bits) + (*x % freq) + slot.start as u32;
        }
        renorm.reverse();
        let mut out = Vec::with_capacity(8 + renorm.len());
        out.extend_from_slice(&states[0].to_le_bytes());
        out.extend_from_slice(&states[1].to_le_bytes());
        out.extend_from_slice(&renorm);
        out
    }
}

/// Streaming rANS decoder over the byte layout produced by
/// [`RansEncoder::finish`].
#[derive(Debug)]
pub struct RansDecoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    states: [u32; 2],
    slot: usize,
}

impl<'a> RansDecoder<'a> {
    /// Parse the 8-byte state header. Rejects short input and header
    /// states below [`RANS_L`] (a state of 0 would otherwise spin the
    /// renormalization loop forever on zero padding).
    pub fn new(bytes: &'a [u8]) -> Result<Self, CodecError> {
        if bytes.len() < 8 {
            return Err(CodecError::UnexpectedEof);
        }
        let s0 = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
        let s1 = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if s0 < RANS_L || s1 < RANS_L {
            return Err(CodecError::Corrupt("rANS header state below interval bound"));
        }
        Ok(Self {
            bytes,
            pos: 8,
            states: [s0, s1],
            slot: 0,
        })
    }

    /// Low `bits` of the current lane's state: the cumulative-frequency
    /// target the caller resolves to a symbol before [`Self::advance`].
    pub fn target(&self, bits: u32) -> u32 {
        self.states[self.slot & 1] & ((1u32 << bits) - 1)
    }

    /// Consume the current symbol, whose slot `[start, start + freq)`
    /// must contain `self.target(bits)`. Reads past the physical end of
    /// the stream are zero-padded; termination is still guaranteed
    /// because the state never drops to zero (see module docs).
    pub fn advance(&mut self, start: u32, freq: u32, bits: u32) {
        let lane = self.slot & 1;
        self.slot += 1;
        let x = self.states[lane];
        let mask = (1u32 << bits) - 1;
        debug_assert!(start <= (x & mask) && (x & mask) < start + freq);
        let mut x = freq * (x >> bits) + (x & mask) - start;
        while x < RANS_L {
            let byte = self.bytes.get(self.pos).copied().unwrap_or(0);
            self.pos += 1;
            x = (x << 8) | byte as u32;
        }
        self.states[lane] = x;
    }

    /// Decode one bit given the same `q0` the encoder used.
    pub fn decode_bit(&mut self, q0: u32) -> u8 {
        debug_assert!((1..1 << RANS_BIT_BITS).contains(&q0));
        let t = self.target(RANS_BIT_BITS);
        if t < q0 {
            self.advance(0, q0, RANS_BIT_BITS);
            0
        } else {
            self.advance(q0, (1 << RANS_BIT_BITS) - q0, RANS_BIT_BITS);
            1
        }
    }

    /// True once every well-formed symbol has been decoded: both states
    /// are back at the encoder's initial value and the physical byte
    /// stream is fully consumed. Corrupt streams generally fail this,
    /// making it a cheap end-of-payload integrity check.
    pub fn is_drained(&self) -> bool {
        self.pos >= self.bytes.len() && self.states == [RANS_L, RANS_L]
    }
}

/// Quantize `P(bit = 0) = p0_num / p_den` to a 16-bit scale, clamped to
/// `[1, 0xFFFF]` so both symbols keep nonzero frequency. When `p_den`
/// is already `1 << 16` (the CTW mixer's native scale) this is an exact
/// pass-through.
pub fn quantize_bit(p0_num: u32, p_den: u32) -> u32 {
    debug_assert!(p0_num < p_den && p0_num > 0);
    if p_den == 1 << RANS_BIT_BITS {
        return p0_num.clamp(1, (1 << RANS_BIT_BITS) - 1);
    }
    (((p0_num as u64) << RANS_BIT_BITS) / p_den as u64).clamp(1, (1 << RANS_BIT_BITS) - 1) as u32
}

/// A static quantized frequency table for rANS coding, with a
/// checksummed wire form for container headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreqTable {
    /// Quantized frequencies, each `>= 1`, summing to exactly
    /// `1 << RANS_TABLE_BITS`.
    freqs: Vec<u32>,
    /// Exclusive prefix sums of `freqs`.
    starts: Vec<u32>,
}

impl FreqTable {
    /// Build a table from raw symbol counts (zero counts allowed; every
    /// symbol still gets frequency `>= 1`). `counts` must be non-empty
    /// and hold at most `1 << RANS_TABLE_BITS` symbols.
    pub fn build(counts: &[u32]) -> Self {
        assert!(!counts.is_empty() && counts.len() <= 1 << RANS_TABLE_BITS);
        let t = 1u64 << RANS_TABLE_BITS;
        let total: u64 = counts.iter().map(|&c| c as u64).sum::<u64>().max(1);
        let mut freqs: Vec<u32> = counts
            .iter()
            .map(|&c| ((c as u64 * t / total) as u32).max(1))
            .collect();
        let mut sum: i64 = freqs.iter().map(|&v| v as i64).sum();
        while sum != t as i64 {
            let step_up = sum < t as i64;
            let mut best = usize::MAX;
            let mut best_v = 0u32;
            for (i, &v) in freqs.iter().enumerate() {
                if (step_up || v > 1) && (best == usize::MAX || v > best_v) {
                    best = i;
                    best_v = v;
                }
            }
            if step_up {
                freqs[best] += 1;
                sum += 1;
            } else {
                freqs[best] -= 1;
                sum -= 1;
            }
        }
        Self::from_freqs(freqs)
    }

    fn from_freqs(freqs: Vec<u32>) -> Self {
        let mut starts = Vec::with_capacity(freqs.len());
        let mut acc = 0u32;
        for &f in &freqs {
            starts.push(acc);
            acc += f;
        }
        debug_assert_eq!(acc, 1 << RANS_TABLE_BITS);
        Self { freqs, starts }
    }

    /// Number of symbols in the table.
    pub fn n_symbols(&self) -> usize {
        self.freqs.len()
    }

    /// `(start, freq)` slot for `sym`.
    pub fn slot(&self, sym: usize) -> (u32, u32) {
        (self.starts[sym], self.freqs[sym])
    }

    /// Resolve a decoder target (low [`RANS_TABLE_BITS`] state bits) to
    /// the symbol whose cumulative interval contains it.
    pub fn symbol_for(&self, target: u32) -> usize {
        debug_assert!(target < 1 << RANS_TABLE_BITS);
        // partition_point returns the first start > target; the owning
        // symbol is the one before it.
        self.starts.partition_point(|&s| s <= target) - 1
    }

    /// Encode `sym` through `enc`.
    pub fn encode(&self, enc: &mut RansEncoder, sym: usize) {
        let (start, freq) = self.slot(sym);
        enc.push(start, freq, RANS_TABLE_BITS);
    }

    /// Decode one symbol from `dec`.
    pub fn decode(&self, dec: &mut RansDecoder<'_>) -> usize {
        let sym = self.symbol_for(dec.target(RANS_TABLE_BITS));
        let (start, freq) = self.slot(sym);
        dec.advance(start, freq, RANS_TABLE_BITS);
        sym
    }

    /// Serialize: `uvarint n_symbols`, `n` × `uvarint freq`, then a
    /// fixed u64 FNV-1a checksum of the preceding header bytes.
    pub fn write(&self, out: &mut Vec<u8>) {
        let head = out.len();
        write_uvarint(out, self.freqs.len() as u64);
        for &f in &self.freqs {
            write_uvarint(out, f as u64);
        }
        let mut h = Fnv1a::new();
        h.update(&out[head..]);
        write_u64_le(out, h.digest());
    }

    /// Parse and validate a table written by [`Self::write`].
    ///
    /// Every structural check runs *before* the symbol-proportional
    /// allocation: a forged count cannot make the decoder reserve more
    /// than the input could possibly back (each frequency costs at
    /// least one byte on the wire), and frequencies are bounds- and
    /// sum-checked as they stream in. The trailing FNV-1a checksum
    /// catches in-flight damage the structural checks might miss.
    pub fn read(
        bytes: &[u8],
        pos: &mut usize,
        max_symbols: usize,
    ) -> Result<Self, CodecError> {
        let head = *pos;
        let n = read_uvarint(bytes, pos)?;
        if n == 0 {
            return Err(CodecError::Corrupt("rANS table with zero symbols"));
        }
        if n > max_symbols as u64 {
            return Err(CodecError::Corrupt("rANS table symbol count exceeds alphabet"));
        }
        // Affordability: n frequencies need at least n wire bytes (plus
        // the 8-byte checksum); refuse a lying count before allocating.
        let remaining = bytes.len().saturating_sub(*pos);
        if (n as usize).saturating_add(8) > remaining {
            return Err(CodecError::Corrupt("rANS table longer than its container"));
        }
        let n = n as usize;
        let t = 1u64 << RANS_TABLE_BITS;
        let mut freqs = Vec::with_capacity(n);
        let mut sum = 0u64;
        for _ in 0..n {
            let f = read_uvarint(bytes, pos)?;
            if f == 0 {
                return Err(CodecError::Corrupt("rANS table frequency of zero"));
            }
            sum += f;
            if sum > t {
                return Err(CodecError::Corrupt("rANS table frequencies overflow scale"));
            }
            freqs.push(f as u32);
        }
        if sum != t {
            return Err(CodecError::Corrupt("rANS table frequencies do not fill scale"));
        }
        let mut h = Fnv1a::new();
        h.update(&bytes[head..*pos]);
        let expected = read_u64_le(bytes, pos)?;
        let actual = h.digest();
        if expected != actual {
            return Err(CodecError::ChecksumMismatch { expected, actual });
        }
        Ok(Self::from_freqs(freqs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stream_roundtrips() {
        let bytes = RansEncoder::new().finish();
        assert_eq!(bytes.len(), 8);
        let dec = RansDecoder::new(&bytes).unwrap();
        assert!(dec.is_drained());
    }

    #[test]
    fn short_header_is_typed_error() {
        for len in 0..8 {
            assert_eq!(
                RansDecoder::new(&vec![0xAB; len]).unwrap_err(),
                CodecError::UnexpectedEof
            );
        }
    }

    #[test]
    fn zero_state_header_is_rejected() {
        // A zeroed header would spin the renormalization loop forever
        // on zero padding if it were accepted.
        let bytes = [0u8; 8];
        assert!(matches!(
            RansDecoder::new(&bytes).unwrap_err(),
            CodecError::Corrupt(_)
        ));
    }

    #[test]
    fn static_table_roundtrips() {
        let table = FreqTable::build(&[10, 1, 0, 500, 3]);
        let syms = [0usize, 3, 3, 3, 1, 4, 3, 0, 2, 3, 3];
        let mut enc = RansEncoder::new();
        for &s in &syms {
            table.encode(&mut enc, s);
        }
        let bytes = enc.finish();
        let mut dec = RansDecoder::new(&bytes).unwrap();
        for &s in &syms {
            assert_eq!(table.decode(&mut dec), s);
        }
        assert!(dec.is_drained());
    }

    #[test]
    fn bit_stream_roundtrips_at_native_scale() {
        // q0 at the CTW mixer's 2^16 scale: exact pass-through.
        let plan: Vec<(u8, u32)> = (0..2000)
            .map(|i| ((i % 3 == 0) as u8, 1 + (i * 2654435761u64 as usize % 65534) as u32))
            .collect();
        let mut enc = RansEncoder::new();
        for &(bit, q0) in &plan {
            enc.push_bit(bit, q0);
        }
        let bytes = enc.finish();
        let mut dec = RansDecoder::new(&bytes).unwrap();
        for &(bit, q0) in &plan {
            assert_eq!(dec.decode_bit(q0), bit);
        }
        assert!(dec.is_drained());
    }

    #[test]
    fn quantize_bit_invariants() {
        assert_eq!(quantize_bit(40_000, 1 << 16), 40_000);
        assert_eq!(quantize_bit(1, 1 << 16), 1);
        assert_eq!(quantize_bit(65_535, 1 << 16), 65_535);
        assert_eq!(quantize_bit(1, 2), 1 << 15);
        for (num, den) in [(1u32, 3u32), (2, 3), (7, 11), (999, 1000)] {
            let q = quantize_bit(num, den);
            assert!((1..1 << 16).contains(&q));
        }
    }

    #[test]
    fn freq_table_header_roundtrips() {
        let table = FreqTable::build(&[5, 0, 9, 2, 1]);
        let mut out = vec![0xEE; 3]; // leading junk the cursor skips
        let mut pos = out.len();
        table.write(&mut out);
        let back = FreqTable::read(&out, &mut pos, 8).unwrap();
        assert_eq!(back, table);
        assert_eq!(pos, out.len());
    }

    #[test]
    fn freq_table_rejects_forged_headers() {
        let table = FreqTable::build(&[5, 0, 9, 2, 1]);
        let mut wire = Vec::new();
        table.write(&mut wire);

        // Truncation at every prefix length.
        for len in 0..wire.len() {
            let mut pos = 0;
            assert!(FreqTable::read(&wire[..len], &mut pos, 8).is_err());
        }
        // Zero symbol count.
        let mut forged = wire.clone();
        forged[0] = 0;
        let mut pos = 0;
        assert!(FreqTable::read(&forged, &mut pos, 8).is_err());
        // Count above the alphabet cap.
        let mut pos = 0;
        assert!(FreqTable::read(&wire, &mut pos, 4).is_err());
        // Lying huge count cannot trigger a huge allocation: it fails
        // the affordability check against the physical input length.
        let mut forged = vec![0xFF, 0xFF, 0xFF, 0x7F]; // uvarint ~2^28
        forged.extend_from_slice(&wire[1..]);
        let mut pos = 0;
        assert!(FreqTable::read(&forged, &mut pos, usize::MAX).is_err());
        // Single-bit damage anywhere is caught (structurally or by the
        // checksum).
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut flipped = wire.clone();
                flipped[byte] ^= 1 << bit;
                let mut pos = 0;
                assert!(
                    FreqTable::read(&flipped, &mut pos, 8).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn interleaved_lanes_share_one_stream() {
        // Alternating wildly different distributions across the two
        // lanes still roundtrips: lane assignment is positional.
        let table_a = FreqTable::build(&[1000, 1, 1, 1]);
        let table_b = FreqTable::build(&[1, 1, 1, 1000]);
        let syms: Vec<usize> = (0..999).map(|i| i % 4).collect();
        let mut enc = RansEncoder::new();
        for (i, &s) in syms.iter().enumerate() {
            let t = if i % 2 == 0 { &table_a } else { &table_b };
            t.encode(&mut enc, s);
        }
        let bytes = enc.finish();
        let mut dec = RansDecoder::new(&bytes).unwrap();
        for (i, &s) in syms.iter().enumerate() {
            let t = if i % 2 == 0 { &table_a } else { &table_b };
            assert_eq!(t.decode(&mut dec), s);
        }
        assert!(dec.is_drained());
    }

    proptest! {
        #[test]
        fn random_symbol_streams_roundtrip(
            counts in prop::collection::vec(0u32..10_000, 1..12),
            picks in prop::collection::vec(any::<u16>(), 0..2000),
        ) {
            let table = FreqTable::build(&counts);
            let syms: Vec<usize> =
                picks.iter().map(|&p| p as usize % table.n_symbols()).collect();
            let mut enc = RansEncoder::new();
            for &s in &syms {
                table.encode(&mut enc, s);
            }
            let bytes = enc.finish();
            let mut dec = RansDecoder::new(&bytes).unwrap();
            for &s in &syms {
                prop_assert_eq!(table.decode(&mut dec), s);
            }
            prop_assert!(dec.is_drained());
        }

        #[test]
        fn random_bit_streams_roundtrip(
            plan in prop::collection::vec((any::<bool>(), 1u32..65_536), 0..2000),
        ) {
            let mut enc = RansEncoder::new();
            for &(bit, q0) in &plan {
                enc.push_bit(bit as u8, q0);
            }
            let bytes = enc.finish();
            let mut dec = RansDecoder::new(&bytes).unwrap();
            for &(bit, q0) in &plan {
                prop_assert_eq!(dec.decode_bit(q0), bit as u8);
            }
            prop_assert!(dec.is_drained());
        }

        #[test]
        fn freq_table_wire_roundtrip(
            counts in prop::collection::vec(0u32..1_000_000, 1..40),
        ) {
            let table = FreqTable::build(&counts);
            let mut wire = Vec::new();
            table.write(&mut wire);
            let mut pos = 0;
            let back = FreqTable::read(&wire, &mut pos, counts.len()).unwrap();
            prop_assert_eq!(back, table);
            prop_assert_eq!(pos, wire.len());
        }
    }
}
