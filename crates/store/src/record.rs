//! The on-disk record: one compressed sequence, self-describing and
//! self-checking.
//!
//! Layout (bytes):
//!
//! ```text
//! 0..2    magic  b"DR"
//! 2       record format version (1)
//! 3       algorithm tag (the framework's choice for this sequence)
//! 4..20   content key — 128-bit hash of the *original* sequence
//! 20..    uvarint: original length in bases
//! ..      uvarint: payload length in bytes
//! ..      payload (a serialised flat or framed `DX` container)
//! ..      u64 LE: FNV-1a of every preceding byte of the record
//! ```
//!
//! The trailing checksum covers header *and* payload, so `verify`/`scrub`
//! detect a flipped bit anywhere in the record without decompressing.
//! The payload is the same `DX` container the rest of the workspace
//! exchanges — a flat blob, or a framed container of independently
//! compressed blocks — which carries its own end-to-end checksum of
//! the *decompressed* sequence: two independent layers of integrity.
//! The store never looks inside it.

use crate::error::StoreError;
use dnacomp_algos::Algorithm;
use dnacomp_codec::checksum::{mix64, Fnv1a};
use dnacomp_codec::varint::{read_u64_le, read_uvarint, write_u64_le, write_uvarint};
use dnacomp_codec::CodecError;
use dnacomp_seq::PackedSeq;
use std::fmt;

/// Magic prefix of every record.
pub const RECORD_MAGIC: [u8; 2] = *b"DR";
/// Record format version.
pub const RECORD_VERSION: u8 = 1;

/// 128-bit content address of a sequence: two independently seeded
/// FNV-1a/SplitMix64 streams over the packed words plus the length.
/// Records are keyed — and deduplicated — by the *original* sequence,
/// so the same genome compressed by two different algorithms is still
/// one entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentKey(pub [u8; 16]);

impl ContentKey {
    /// Derive the key for a sequence.
    pub fn of_sequence(seq: &PackedSeq) -> Self {
        let mut lo = Fnv1a::new();
        let mut hi = Fnv1a::with_seed(0x9E37_79B9_7F4A_7C15);
        for h in [&mut lo, &mut hi] {
            h.update(seq.as_words());
            h.update(&(seq.len() as u64).to_le_bytes());
        }
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&mix64(lo.digest()).to_le_bytes());
        key[8..].copy_from_slice(&mix64(hi.digest()).to_le_bytes());
        ContentKey(key)
    }

    /// Render as 32 lowercase hex digits (the CLI's key syntax).
    pub fn to_hex(self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Parse the CLI's 32-hex-digit key syntax.
    pub fn from_hex(hex: &str) -> Option<Self> {
        let hex = hex.trim();
        if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let mut key = [0u8; 16];
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let s = std::str::from_utf8(chunk).ok()?;
            key[i] = u8::from_str_radix(s, 16).ok()?;
        }
        Some(ContentKey(key))
    }

    /// Index-shard selector: low bits of the key.
    pub(crate) fn shard(&self, shards: usize) -> usize {
        self.0[0] as usize % shards
    }
}

impl fmt::Display for ContentKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// One store record, as written to a segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Content address of the original sequence.
    pub key: ContentKey,
    /// Algorithm the framework chose for this sequence.
    pub algorithm: Algorithm,
    /// Original sequence length in bases.
    pub original_len: u64,
    /// Serialised flat or framed `DX` container bytes.
    pub payload: Vec<u8>,
}

impl Record {
    /// Serialise to the segment wire format (layout in the module docs).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 40);
        out.extend_from_slice(&RECORD_MAGIC);
        out.push(RECORD_VERSION);
        out.push(self.algorithm.tag());
        out.extend_from_slice(&self.key.0);
        write_uvarint(&mut out, self.original_len);
        write_uvarint(&mut out, self.payload.len() as u64);
        out.extend_from_slice(&self.payload);
        let mut h = Fnv1a::new();
        h.update(&out);
        write_u64_le(&mut out, h.digest());
        out
    }

    /// Parse one record from the front of `bytes`, returning it and the
    /// number of bytes it occupied. Any structural damage or checksum
    /// mismatch is a typed error — a decoded record is bit-exact.
    pub fn decode(bytes: &[u8]) -> Result<(Record, usize), StoreError> {
        let corrupt = |what: &'static str| StoreError::Corrupt {
            what: "record",
            source: CodecError::Corrupt(what),
        };
        if bytes.len() < 20 {
            return Err(corrupt("record shorter than its fixed header"));
        }
        if bytes[0..2] != RECORD_MAGIC {
            return Err(corrupt("bad record magic"));
        }
        if bytes[2] != RECORD_VERSION {
            return Err(StoreError::Corrupt {
                what: "record",
                source: CodecError::UnknownFormat(bytes[2]),
            });
        }
        let algorithm = Algorithm::from_tag(bytes[3]).map_err(|source| StoreError::Corrupt {
            what: "record algorithm tag",
            source,
        })?;
        let mut key = [0u8; 16];
        key.copy_from_slice(&bytes[4..20]);
        let mut pos = 20;
        let original_len =
            read_uvarint(bytes, &mut pos).map_err(|source| StoreError::Corrupt {
                what: "record length field",
                source,
            })?;
        let payload_len =
            read_uvarint(bytes, &mut pos).map_err(|source| StoreError::Corrupt {
                what: "record payload-length field",
                source,
            })? as usize;
        let payload_end = pos
            .checked_add(payload_len)
            .filter(|&end| end + 8 <= bytes.len())
            .ok_or_else(|| corrupt("record payload runs past the segment"))?;
        let payload = bytes[pos..payload_end].to_vec();
        let mut h = Fnv1a::new();
        h.update(&bytes[..payload_end]);
        let mut cpos = payload_end;
        let stored = read_u64_le(bytes, &mut cpos).map_err(|source| StoreError::Corrupt {
            what: "record checksum field",
            source,
        })?;
        if stored != h.digest() {
            return Err(StoreError::Corrupt {
                what: "record",
                source: CodecError::ChecksumMismatch {
                    expected: stored,
                    actual: h.digest(),
                },
            });
        }
        Ok((
            Record {
                key: ContentKey(key),
                algorithm,
                original_len,
                payload,
            },
            cpos,
        ))
    }

    /// Encoded size in bytes without materialising the encoding.
    pub fn encoded_len(&self) -> usize {
        let mut n = 20 + self.payload.len() + 8;
        n += uvarint_len(self.original_len);
        n += uvarint_len(self.payload.len() as u64);
        n
    }
}

fn uvarint_len(v: u64) -> usize {
    (1 + (64 - (v | 1).leading_zeros() as usize - 1) / 7).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample(payload: Vec<u8>) -> Record {
        Record {
            key: ContentKey([7u8; 16]),
            algorithm: Algorithm::Dnax,
            original_len: payload.len() as u64 * 4,
            payload,
        }
    }

    #[test]
    fn key_hex_roundtrip() {
        let seq = PackedSeq::from_ascii(b"ACGTACGT").unwrap();
        let key = ContentKey::of_sequence(&seq);
        assert_eq!(ContentKey::from_hex(&key.to_hex()), Some(key));
        assert_eq!(ContentKey::from_hex("zz"), None);
        assert_eq!(ContentKey::from_hex(&"a".repeat(31)), None);
        // Keys separate by content and by length (A vs AA share words).
        let other = PackedSeq::from_ascii(b"ACGTACGA").unwrap();
        assert_ne!(key, ContentKey::of_sequence(&other));
        let a = PackedSeq::from_ascii(b"A").unwrap();
        let aa = PackedSeq::from_ascii(b"AA").unwrap();
        assert_ne!(ContentKey::of_sequence(&a), ContentKey::of_sequence(&aa));
    }

    #[test]
    fn decode_rejects_every_flipped_byte() {
        let rec = sample(b"payload!".to_vec());
        let good = rec.encode();
        assert_eq!(good.len(), rec.encoded_len());
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x20;
            assert!(
                Record::decode(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn decode_reports_consumed_length_with_trailing_data() {
        let rec = sample(vec![1, 2, 3]);
        let mut bytes = rec.encode();
        let n = bytes.len();
        bytes.extend_from_slice(b"next record starts here");
        let (back, used) = Record::decode(&bytes).unwrap();
        assert_eq!(back, rec);
        assert_eq!(used, n);
    }

    #[test]
    fn truncations_are_detected() {
        let bytes = sample(vec![9; 100]).encode();
        for cut in 0..bytes.len() {
            assert!(Record::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Satellite requirement: encode/decode roundtrip over arbitrary
        // payloads including the empty one (a zero-length sequence
        // compresses to a header-only container, so empty-ish payloads
        // are a real code path, not a degenerate case).
        #[test]
        fn record_roundtrips(
            payload in proptest::collection::vec(any::<u8>(), 0..600),
            key_lo in any::<u64>(),
            key_hi in any::<u64>(),
            original_len in any::<u64>(),
            alg_i in 0usize..Algorithm::ALL.len(),
        ) {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&key_lo.to_le_bytes());
            key[8..].copy_from_slice(&key_hi.to_le_bytes());
            let rec = Record {
                key: ContentKey(key),
                algorithm: Algorithm::ALL[alg_i],
                original_len,
                payload,
            };
            let bytes = rec.encode();
            prop_assert_eq!(bytes.len(), rec.encoded_len());
            let (back, used) = Record::decode(&bytes).unwrap();
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(back, rec);
        }

        #[test]
        fn content_keys_collide_only_on_equal_content(s1 in "[ACGT]{0,60}", s2 in "[ACGT]{0,60}") {
            let a = PackedSeq::from_ascii(s1.as_bytes()).unwrap();
            let b = PackedSeq::from_ascii(s2.as_bytes()).unwrap();
            let ka = ContentKey::of_sequence(&a);
            let kb = ContentKey::of_sequence(&b);
            if s1 == s2 {
                prop_assert_eq!(ka, kb);
            } else {
                prop_assert_ne!(ka, kb);
            }
        }
    }
}
