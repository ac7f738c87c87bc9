//! Group commit: batch-fsync the write-ahead log on the hot path.
//!
//! With one fsync per append, N concurrent puts cost N segment fsyncs
//! plus N manifest fsyncs. Group commit decouples *appending* from
//! *making durable*, with a leader/follower pipeline and no timer:
//!
//! 1. A writer announces itself ([`GroupCommit::queue`]) before it
//!    takes the writer lock. Each append (under that lock) gets a
//!    monotonically increasing sequence number and marks its files
//!    dirty.
//! 2. The committing thread calls [`GroupCommit::wait_durable`]. If no
//!    batch is in flight and no queued writer is still to append, it
//!    becomes the leader and runs the sync closure at once — which
//!    re-takes the writer lock, fsyncs every dirty segment *then* the
//!    manifest, and reports the highest sequence it covered. Everyone
//!    whose sequence is covered wakes and returns.
//! 3. Writers that arrive while a leader's fsync holds the writer lock
//!    queue on it. Once it is released they append one after another,
//!    and each waits as a follower while writers queued before it
//!    started waiting are still to append, so the last of them leads
//!    one batch for the whole queue. Later arrivals do not extend the
//!    wait. A lone writer therefore pays exactly its own fsyncs, and
//!    concurrency is what fills the batches.
//!
//! Ordering is what makes the torn-tail rule stay sound: the sync
//! closure holds the writer lock for all of its fsyncs, so no append
//! can slip a manifest entry in *after* the segment fsync but *before*
//! the manifest fsync — every entry the manifest fsync persists has its
//! record bytes already durable. A batch is always a tail of the log,
//! so a crash mid-batch loses only entries that were never acknowledged.

use crate::error::StoreError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Point-in-time WAL counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Manifest entries appended since open.
    pub appends: u64,
    /// Fsync batches that made appends durable. Under concurrency this
    /// is well below `appends` — that gap *is* the group-commit win.
    pub fsync_batches: u64,
}

#[derive(Default)]
struct GcState {
    /// Highest sequence number known durable.
    synced: u64,
    /// A leader is currently syncing on behalf of the batch.
    leader: bool,
    /// Writers that announced an append ([`GroupCommit::queue`]).
    entered: u64,
    /// Of those, writers that have appended or given up.
    left: u64,
    /// A leader's fsync failed; waiters must not spin forever.
    failed: bool,
}

fn lock_state(m: &Mutex<GcState>) -> MutexGuard<'_, GcState> {
    // The state is five scalars; no critical section can leave it
    // half-mutated, so recover from poisoning.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The group-commit scheduler (one per store).
pub(crate) struct GroupCommit {
    appended: AtomicU64,
    batches: AtomicU64,
    state: Mutex<GcState>,
    cv: Condvar,
}

impl GroupCommit {
    pub(crate) fn new() -> GroupCommit {
        GroupCommit {
            appended: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            state: Mutex::new(GcState::default()),
            cv: Condvar::new(),
        }
    }

    /// Announce a writer about to take the writer lock to append. Until
    /// the returned guard drops — after the append, before the writer
    /// waits — committers ahead of it defer the lead to it.
    pub(crate) fn queue(&self) -> Queued<'_> {
        lock_state(&self.state).entered += 1;
        Queued(self)
    }

    /// Assign the next sequence number. Called with the writer lock
    /// held, immediately after the manifest append.
    pub(crate) fn note_append(&self) -> u64 {
        self.appended.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Highest assigned sequence. Only meaningful under the writer lock
    /// (where no new appends can race).
    pub(crate) fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Record that a checkpoint (or a level transition's fsync) made every
    /// append up to `seq` durable, releasing any waiters.
    pub(crate) fn note_synced(&self, seq: u64) {
        let mut st = lock_state(&self.state);
        if seq > st.synced {
            st.synced = seq;
            self.cv.notify_all();
        }
    }

    /// Block until sequence `seq` is durable, electing this thread as
    /// batch leader if none is active and every writer queued by now
    /// has appended. The caller must not hold a [`Queued`] guard (it
    /// would wait for itself). `sync_fn` must fsync every dirty file
    /// (segments before manifest) and return the highest sequence it
    /// covered; it is called without the state lock held, so it may
    /// take the writer lock.
    pub(crate) fn wait_durable<F>(&self, seq: u64, mut sync_fn: F) -> Result<(), StoreError>
    where
        F: FnMut() -> Result<u64, StoreError>,
    {
        let mut st = lock_state(&self.state);
        let queued_by_now = st.entered;
        loop {
            if st.synced >= seq {
                return Ok(());
            }
            if st.failed {
                // A prior leader's fsync failed; the store is no longer
                // promising durability. Surface it as the fail-stop
                // signal callers already handle by reopening.
                return Err(StoreError::Crashed);
            }
            if st.leader || st.left < queued_by_now {
                st = self
                    .cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            st.leader = true;
            drop(st);
            let outcome = sync_fn();
            st = lock_state(&self.state);
            st.leader = false;
            match outcome {
                Ok(covered) => {
                    st.synced = st.synced.max(covered);
                    self.batches.fetch_add(1, Ordering::Relaxed);
                    self.cv.notify_all();
                }
                Err(e) => {
                    st.failed = true;
                    self.cv.notify_all();
                    return Err(e);
                }
            }
        }
    }

    pub(crate) fn stats(&self) -> WalStats {
        WalStats {
            appends: self.appended.load(Ordering::Relaxed),
            fsync_batches: self.batches.load(Ordering::Relaxed),
        }
    }
}

/// A writer queued to append; see [`GroupCommit::queue`]. Dropping it
/// on every path — appended, deduplicated or failed — is what lets the
/// committers ahead of it go on.
pub(crate) struct Queued<'a>(&'a GroupCommit);

impl Drop for Queued<'_> {
    fn drop(&mut self) {
        lock_state(&self.0.state).left += 1;
        self.0.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn lone_waiter_leads_and_syncs_exactly_once() {
        let gc = GroupCommit::new();
        let seq = gc.note_append();
        let calls = Counter::new(0);
        gc.wait_durable(seq, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(seq)
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(gc.stats(), WalStats { appends: 1, fsync_batches: 1 });
        // Already durable: waiting again runs no second sync.
        gc.wait_durable(seq, || panic!("sequence already covered"))
            .unwrap();
    }

    #[test]
    fn concurrent_waiters_share_batches() {
        let gc = Arc::new(GroupCommit::new());
        let syncs = Arc::new(Counter::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let gc = Arc::clone(&gc);
                let syncs = Arc::clone(&syncs);
                std::thread::spawn(move || {
                    for _ in 0..4 {
                        let seq = gc.note_append();
                        gc.wait_durable(seq, || {
                            syncs.fetch_add(1, Ordering::Relaxed);
                            // Like the store's sync closure: cover what
                            // is appended when the fsync starts, then
                            // pay the fsync's latency. Appends that land
                            // meanwhile wait for the next batch.
                            let covered = gc.appended();
                            std::thread::sleep(Duration::from_millis(2));
                            Ok(covered)
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = gc.stats();
        assert_eq!(stats.appends, 32);
        assert_eq!(stats.fsync_batches, syncs.load(Ordering::Relaxed));
        assert!(
            stats.fsync_batches < stats.appends,
            "8 threads behind 2 ms fsyncs must batch: {stats:?}"
        );
    }

    #[test]
    fn appends_during_a_sync_form_the_next_batch() {
        let gc = Arc::new(GroupCommit::new());
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let first = gc.note_append();
        let leader = {
            let gc = Arc::clone(&gc);
            std::thread::spawn(move || {
                gc.wait_durable(first, || {
                    let covered = gc.appended();
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(covered)
                })
            })
        };
        // The leader's fsync is in flight; three more appends land.
        started_rx.recv().unwrap();
        let followers: Vec<_> = (0..3)
            .map(|_| {
                let gc = Arc::clone(&gc);
                let seq = gc.note_append();
                std::thread::spawn(move || gc.wait_durable(seq, || Ok(gc.appended())))
            })
            .collect();
        release_tx.send(()).unwrap();
        leader.join().unwrap().unwrap();
        for f in followers {
            f.join().unwrap().unwrap();
        }
        // One batch for the leader's append, one for the three behind it.
        assert_eq!(gc.stats(), WalStats { appends: 4, fsync_batches: 2 });
    }

    #[test]
    fn committers_leave_the_lead_to_a_queued_writer() {
        let gc = Arc::new(GroupCommit::new());
        // A appended; B is queued on the writer lock behind it.
        let queued = gc.queue();
        let a = gc.note_append();
        let (led_tx, led_rx) = mpsc::channel();
        let first = {
            let gc = Arc::clone(&gc);
            std::thread::spawn(move || {
                gc.wait_durable(a, || {
                    led_tx.send(()).unwrap();
                    Ok(gc.appended())
                })
            })
        };
        // A must not lead while B is still to append.
        assert!(led_rx.recv_timeout(Duration::from_millis(50)).is_err());
        // B appends and leaves the queue: whoever leads now covers both.
        let b = gc.note_append();
        drop(queued);
        gc.wait_durable(b, || Ok(gc.appended())).unwrap();
        first.join().unwrap().unwrap();
        assert_eq!(gc.stats(), WalStats { appends: 2, fsync_batches: 1 });
        // A queued writer that gives up without appending releases the
        // committer waiting on it.
        let queued = gc.queue();
        let c = gc.note_append();
        let waiter = {
            let gc = Arc::clone(&gc);
            std::thread::spawn(move || gc.wait_durable(c, || Ok(gc.appended())))
        };
        drop(queued);
        waiter.join().unwrap().unwrap();
        assert_eq!(gc.stats(), WalStats { appends: 3, fsync_batches: 2 });
    }

    #[test]
    fn leader_failure_fails_waiters_fast() {
        let gc = GroupCommit::new();
        let seq = gc.note_append();
        let err = gc
            .wait_durable(seq, || Err(StoreError::Crashed))
            .unwrap_err();
        assert!(err.is_simulated_crash());
        // Later waiters see the sticky failure without electing a leader.
        let seq2 = gc.note_append();
        let err2 = gc
            .wait_durable(seq2, || panic!("no new leader after failure"))
            .unwrap_err();
        assert!(err2.is_simulated_crash());
    }

    #[test]
    fn note_synced_releases_without_a_leader() {
        let gc = GroupCommit::new();
        let seq = gc.note_append();
        gc.note_synced(seq);
        gc.wait_durable(seq, || panic!("already durable, no sync needed"))
            .unwrap();
    }
}
