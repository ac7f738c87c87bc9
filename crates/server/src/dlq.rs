//! Poison-job quarantine and the bounded dead-letter queue.
//!
//! A job that panics once may have hit a transient (a worker's
//! simulator state, a cosmic-ray bit); a job whose *content* keeps
//! panicking is poison, and re-running it only burns workers. The
//! [`QuarantineRegistry`] counts strikes per content fingerprint
//! ([`ContentKey`] — two jobs with the same sequence are the same
//! offender no matter what the caller named them); crossing the strike
//! threshold moves the offending request into the [`DeadLetterQueue`],
//! and later submissions of the same content are refused up front with
//! `JobError::Quarantined` instead of being executed.
//!
//! The DLQ is **bounded** (a supervision layer must not convert a
//! poison flood into an OOM): when full, the oldest letter is evicted
//! and counted as dropped. Letters are inspectable and replayable —
//! [`DeadLetterQueue::take`] hands the full original request back so a
//! service can resubmit it after clearing its strikes (`dnacomp dlq
//! replay` does exactly this from the persisted form).

use crate::service::CompressRequest;
use dnacomp_store::ContentKey;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock that shrugs off poisoning: supervision makes poisoned mutexes
/// an expected, recoverable event (a contained panic may have unwound
/// through a guard), and every structure locked this way is valid
/// after any prefix of its mutations.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One quarantined job: the original request plus its offense record.
#[derive(Clone, Debug)]
pub struct DeadLetter {
    /// Content fingerprint the strikes were counted against.
    pub key: ContentKey,
    /// Strikes at the moment of quarantine.
    pub strikes: u32,
    /// Message of the panic (or crash description) that crossed the
    /// threshold.
    pub last_error: String,
    /// The full original request, replayable as-is.
    pub request: CompressRequest,
}

/// Serialisable summary of a dead letter (no sequence payload) — what
/// `dlq list` prints and the metrics endpoint could expose.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeadLetterInfo {
    /// Hex form of the content fingerprint.
    pub key: String,
    /// The request's file identifier.
    pub file: String,
    /// Sequence length in bases.
    pub original_len: usize,
    /// Strikes at quarantine time.
    pub strikes: u32,
    /// The panic/crash message that sealed the quarantine.
    pub last_error: String,
}

impl DeadLetter {
    /// The listing-friendly summary.
    pub fn info(&self) -> DeadLetterInfo {
        DeadLetterInfo {
            key: self.key.to_hex(),
            file: self.request.file.clone(),
            original_len: self.request.sequence.len(),
            strikes: self.strikes,
            last_error: self.last_error.clone(),
        }
    }
}

struct DlqState {
    letters: VecDeque<DeadLetter>,
    dropped: u64,
}

/// Bounded FIFO of quarantined jobs.
pub struct DeadLetterQueue {
    capacity: usize,
    state: Mutex<DlqState>,
}

impl DeadLetterQueue {
    /// An empty queue holding at most `capacity` letters.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "DLQ capacity must be positive");
        DeadLetterQueue {
            capacity,
            state: Mutex::new(DlqState {
                letters: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    /// Quarantine a letter. If the same content key is already present
    /// the existing letter is refreshed (strikes/error updated) rather
    /// than duplicated; otherwise the letter is appended, evicting the
    /// oldest when full.
    pub fn push(&self, letter: DeadLetter) {
        let mut st = lock_recover(&self.state);
        if let Some(existing) = st.letters.iter_mut().find(|l| l.key == letter.key) {
            existing.strikes = letter.strikes;
            existing.last_error = letter.last_error;
        } else {
            if st.letters.len() >= self.capacity {
                st.letters.pop_front();
                st.dropped += 1;
            }
            st.letters.push_back(letter);
        }
    }

    /// Letters currently held.
    pub fn depth(&self) -> usize {
        lock_recover(&self.state).letters.len()
    }

    /// Letters evicted because the queue was full.
    pub fn dropped(&self) -> u64 {
        lock_recover(&self.state).dropped
    }

    /// Summaries of every held letter, oldest first.
    pub fn list(&self) -> Vec<DeadLetterInfo> {
        lock_recover(&self.state)
            .letters
            .iter()
            .map(DeadLetter::info)
            .collect()
    }

    /// Remove and return the letter for `key`, if held (the `replay`
    /// and `drop` primitive).
    pub fn take(&self, key: &ContentKey) -> Option<DeadLetter> {
        let mut st = lock_recover(&self.state);
        let pos = st.letters.iter().position(|l| &l.key == key)?;
        st.letters.remove(pos)
    }

    /// Remove and return every held letter, oldest first (used to
    /// persist the DLQ at service shutdown).
    pub fn drain(&self) -> Vec<DeadLetter> {
        lock_recover(&self.state).letters.drain(..).collect()
    }
}

/// Per-content-fingerprint strike counter deciding quarantine.
pub struct QuarantineRegistry {
    threshold: u32,
    strikes: Mutex<HashMap<ContentKey, u32>>,
}

impl QuarantineRegistry {
    /// A registry quarantining content after `threshold` strikes.
    /// `threshold == u32::MAX` effectively disables quarantine.
    pub fn new(threshold: u32) -> Self {
        QuarantineRegistry {
            threshold: threshold.max(1),
            strikes: Mutex::new(HashMap::new()),
        }
    }

    /// Record one strike against `key`. Returns the new strike count
    /// and whether this strike *crossed* the threshold (true exactly
    /// once per key — the moment to write the dead letter).
    pub fn strike(&self, key: &ContentKey) -> (u32, bool) {
        let mut map = lock_recover(&self.strikes);
        let n = map.entry(*key).or_insert(0);
        *n = n.saturating_add(1);
        (*n, *n == self.threshold)
    }

    /// `true` once `key` has accumulated threshold strikes — the
    /// worker-side gate that refuses execution.
    pub fn is_quarantined(&self, key: &ContentKey) -> bool {
        lock_recover(&self.strikes)
            .get(key)
            .is_some_and(|&n| n >= self.threshold)
    }

    /// Forgive `key` entirely (replay resets the offender's record so
    /// one clean run re-earns trust from zero).
    pub fn clear(&self, key: &ContentKey) {
        lock_recover(&self.strikes).remove(key);
    }

    /// Strikes currently recorded against `key`.
    pub fn strikes(&self, key: &ContentKey) -> u32 {
        lock_recover(&self.strikes).get(key).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnacomp_core::Context;
    use dnacomp_seq::gen::GenomeModel;

    fn letter(i: u64, strikes: u32) -> DeadLetter {
        let seq = GenomeModel::default().generate(100 + i as usize, i);
        let key = ContentKey::of_sequence(&seq);
        DeadLetter {
            key,
            strikes,
            last_error: format!("panic {i}"),
            request: CompressRequest::new(
                format!("f{i}"),
                seq,
                Context {
                    ram_mb: 1024,
                    cpu_mhz: 1600,
                    bandwidth_mbps: 1.0,
                    file_bytes: 100,
                },
            ),
        }
    }

    #[test]
    fn bounded_push_evicts_oldest_and_counts_drops() {
        let dlq = DeadLetterQueue::new(2);
        dlq.push(letter(1, 2));
        dlq.push(letter(2, 2));
        dlq.push(letter(3, 2));
        assert_eq!((dlq.depth(), dlq.dropped()), (2, 1));
        let files: Vec<String> = dlq.list().into_iter().map(|l| l.file).collect();
        assert_eq!(files, vec!["f2", "f3"]);
        assert_eq!(dlq.dropped(), 1);
    }

    #[test]
    fn same_key_refreshes_instead_of_duplicating() {
        let dlq = DeadLetterQueue::new(4);
        dlq.push(letter(1, 2));
        let mut updated = letter(1, 5);
        updated.last_error = "again".into();
        dlq.push(updated);
        assert_eq!((dlq.depth(), dlq.dropped()), (1, 0));
        assert_eq!(dlq.list()[0].strikes, 5);
        assert_eq!(dlq.list()[0].last_error, "again");
    }

    #[test]
    fn take_removes_by_key() {
        let dlq = DeadLetterQueue::new(4);
        let l = letter(7, 3);
        let key = l.key;
        dlq.push(l);
        assert!(dlq.take(&key).is_some());
        assert!(dlq.take(&key).is_none());
        assert_eq!(dlq.depth(), 0);
    }

    #[test]
    fn registry_crosses_threshold_exactly_once() {
        let reg = QuarantineRegistry::new(2);
        let seq = GenomeModel::default().generate(64, 1);
        let key = ContentKey::of_sequence(&seq);
        assert!(!reg.is_quarantined(&key));
        assert_eq!(reg.strike(&key), (1, false));
        assert_eq!(reg.strike(&key), (2, true));
        assert_eq!(reg.strike(&key), (3, false));
        assert!(reg.is_quarantined(&key));
        reg.clear(&key);
        assert!(!reg.is_quarantined(&key));
        assert_eq!(reg.strikes(&key), 0);
    }

    #[test]
    fn info_summarises_without_payload() {
        let l = letter(9, 4);
        let info = l.info();
        assert_eq!(info.key, l.key.to_hex());
        assert_eq!(info.file, "f9");
        assert_eq!(info.strikes, 4);
        assert_eq!(info.original_len, 109);
        // The summary roundtrips through JSON for the CLI.
        let json = serde_json::to_string(&info).unwrap();
        let back: DeadLetterInfo = serde_json::from_str(&json).unwrap();
        assert_eq!(back, info);
    }
}
