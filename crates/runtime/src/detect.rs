//! Failure detection and agreement — the substrate the paper assumes from
//! FT-MPI (§5) and that ULFM spells out as `revoke` + `agree`.
//!
//! One [`Detector`] is shared by every process of a world. It is the single
//! source of truth about failures and plays two roles:
//!
//! 1. **Revocation** (asynchronous failures): a chaos victim *revokes* the
//!    world as it dies. Every communication call and every barrier checks
//!    the revocation flag; on observing it, the call raises an
//!    [`Interrupt`] unwind instead of returning garbage. Blocked peers are
//!    woken by control messages and by the revocable barrier's condvar.
//! 2. **Agreement**: after unwinding, every process (victims' replacements
//!    included) calls `agree`, a full-world rendezvous that snapshots the
//!    cumulative victim set of the current round, bumps the communication
//!    epoch (so straggler messages from the aborted epoch are discarded),
//!    and clears the revocation flag. All participants leave with an
//!    identical, sorted victim set — the ULFM `MPI_Comm_agree` analogue.
//!
//! Scripted failures need neither: every rank reads their victims from the
//! script at the fail point ([`crate::Ctx::check_failpoint`]). They only
//! enter the round, so that a kill striking during their recovery agrees on
//! both.
//!
//! Victims accumulate in a *round* that spans nested aborts: if a second
//! failure strikes during recovery from a first, the next agreement returns
//! the union, which is what makes re-entrant recovery converge. The round
//! is cleared when the algorithm *commits* a fail-point boundary (recovery
//! done, protection re-armed).

use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// Why a communication call unwound. Carried inside [`Interrupt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptReason {
    /// This process is the victim: the chaos injector killed it.
    Died,
    /// A peer died; the world is revoked and agreement must run.
    Revoked,
}

/// Typed unwind payload raised by communication calls when the world is
/// revoked (or by the chaos injector on the victim itself). Catch it with
/// [`catch_interrupt`]; any other panic payload is propagated unchanged.
#[derive(Debug, Clone, Copy)]
pub struct Interrupt {
    /// What happened.
    pub reason: InterruptReason,
    /// The rank on which the interrupt was raised.
    pub rank: usize,
}

/// Raise an [`Interrupt`] unwind on the current thread.
pub(crate) fn raise_interrupt(reason: InterruptReason, rank: usize) -> ! {
    std::panic::panic_any(Interrupt { reason, rank })
}

/// Run `f`, catching an [`Interrupt`] unwind. Genuine panics (assertion
/// failures, bugs) are re-raised — only failure interrupts are converted
/// into an `Err`.
pub fn catch_interrupt<R>(f: impl FnOnce() -> R) -> Result<R, Interrupt> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => match payload.downcast::<Interrupt>() {
            Ok(i) => Err(*i),
            Err(other) => resume_unwind(other),
        },
    }
}

/// Install a panic hook that silences [`Interrupt`] unwinds (they are
/// control flow, not errors) and typed [`CommError`] unwinds (the
/// partition verdict already printed its one-line diagnosis; the default
/// hook's backtrace banner would bury it) while delegating everything
/// else to the previously installed hook. Idempotent; called when chaos
/// injection or a distributed fabric is actually in play so plain
/// shared-memory runs keep the pristine default hook.
pub(crate) fn install_quiet_interrupt_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quiet = info.payload().downcast_ref::<Interrupt>().is_some()
                || info.payload().downcast_ref::<crate::transport::CommError>().is_some();
            if !quiet {
                prev(info);
            }
        }));
    });
}

/// Result of one agreement round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureAgreement {
    /// Sorted union of every victim detected since the last committed
    /// boundary — identical on all participants.
    pub victims: Vec<usize>,
    /// The new communication epoch. Messages stamped with an older epoch
    /// are stragglers from an aborted attempt and must be dropped.
    pub epoch: u64,
}

#[derive(Debug, Default)]
struct DetectorState {
    /// Cumulative victims of the current round (scripted + chaos).
    round: BTreeSet<usize>,
    /// Victims revoked since the last agreement. A boundary commit may race
    /// a fresh revocation (the committer hasn't observed it yet), and must
    /// not wipe a victim nobody has agreed on — these survive the commit.
    pending_revoked: BTreeSet<usize>,
    /// World revoked: survivors must abort to agreement.
    revoked: bool,
    /// Communication epoch; bumped by each agreement.
    epoch: u64,
    /// Agreement rendezvous bookkeeping (generation-counted barrier).
    agree_count: usize,
    agree_gen: u64,
    agree_victims: Vec<usize>,
    /// Revocable-barrier bookkeeping.
    bar_count: usize,
    bar_gen: u64,
    /// Highest committed boundary id + 1 (0 = nothing committed).
    committed: u64,
}

/// Shared failure detector for one world. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct Detector {
    state: Mutex<DetectorState>,
    cv: Condvar,
    /// Lock-free mirror of `state.revoked`.
    revoked: AtomicBool,
    /// `true` while the current round has uncommitted victims — lets
    /// `commit` skip the lock entirely on the fault-free path.
    dirty: AtomicBool,
}

impl Detector {
    fn lock(&self) -> std::sync::MutexGuard<'_, DetectorState> {
        self.state.lock().expect("detector poisoned")
    }

    /// Asynchronous death: revoke the world. Wakes barrier/agreement
    /// waiters so nobody sleeps through the failure.
    pub(crate) fn revoke(&self, victim: usize) {
        let mut st = self.lock();
        st.round.insert(victim);
        st.pending_revoked.insert(victim);
        st.revoked = true;
        self.revoked.store(true, Ordering::Release);
        self.dirty.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    /// Whether the world is currently revoked (lock-free).
    pub(crate) fn is_revoked(&self) -> bool {
        self.revoked.load(Ordering::Acquire)
    }

    /// Snapshot of the current round's victims (diagnostics).
    pub(crate) fn current_victims(&self) -> Vec<usize> {
        self.lock().round.iter().copied().collect()
    }

    /// Full-world agreement rendezvous. Blocks until all `world` processes
    /// arrive, then atomically: snapshots the round's victims, bumps the
    /// epoch, clears the revocation flag. Everyone returns the same
    /// [`FailureAgreement`].
    pub(crate) fn agree(&self, world: usize) -> FailureAgreement {
        let mut st = self.lock();
        st.agree_count += 1;
        if st.agree_count == world {
            st.agree_count = 0;
            st.agree_gen += 1;
            st.epoch += 1;
            st.revoked = false;
            self.revoked.store(false, Ordering::Release);
            st.agree_victims = st.round.iter().copied().collect();
            // Everything revoked so far is now part of an agreement; only
            // revocations arriving after this point must survive commits.
            st.pending_revoked.clear();
            self.cv.notify_all();
        } else {
            let gen = st.agree_gen;
            while st.agree_gen == gen {
                st = self.cv.wait(st).expect("detector poisoned");
            }
        }
        FailureAgreement { victims: st.agree_victims.clone(), epoch: st.epoch }
    }

    /// Revocable barrier: all `world` processes must arrive for anyone to
    /// pass. If the world is revoked before this generation completes,
    /// every waiter backs out with `Err(())` (all-or-none: a generation
    /// that completed delivers `Ok` to all its participants).
    pub(crate) fn barrier(&self, world: usize) -> Result<(), ()> {
        let mut st = self.lock();
        if st.revoked {
            return Err(());
        }
        st.bar_count += 1;
        if st.bar_count == world {
            st.bar_count = 0;
            st.bar_gen += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let gen = st.bar_gen;
        while st.bar_gen == gen && !st.revoked {
            st = self.cv.wait(st).expect("detector poisoned");
        }
        if st.bar_gen == gen {
            // Revoked before completion: withdraw our arrival.
            st.bar_count -= 1;
            Err(())
        } else {
            Ok(())
        }
    }

    /// Completed barrier generations so far.
    #[cfg(test)]
    pub(crate) fn barrier_generation(&self) -> u64 {
        self.lock().bar_gen
    }

    /// Commit fail-point boundary `id`: recovery for the current round is
    /// complete and protection is re-armed, so the round's victim set is
    /// cleared — except victims revoked since the last agreement. Such a
    /// victim's death raced this commit (the committer cannot have
    /// recovered what it never observed), and dropping it would leave a
    /// dead process that no agreement ever reports. Idempotent per boundary
    /// — racing late committers of the same boundary must not wipe victims
    /// of a *new* failure that struck after the first commit.
    pub(crate) fn commit(&self, boundary: u64) {
        if !self.dirty.load(Ordering::Acquire) {
            return;
        }
        let mut st = self.lock();
        if st.committed <= boundary {
            st.committed = boundary + 1;
            let keep = std::mem::take(&mut st.pending_revoked);
            st.pending_revoked = keep.clone();
            st.round = keep;
            if st.round.is_empty() && !st.revoked {
                self.dirty.store(false, Ordering::Release);
            }
        }
    }

    /// Let boundary `boundary` and every later one commit again: a rollback
    /// re-runs them. Every rank rewinds to the same boundary before any of
    /// them commits it (they agreed on it and on the victims first).
    pub(crate) fn rewind(&self, boundary: u64) {
        let mut st = self.lock();
        st.committed = st.committed.min(boundary);
    }

    /// Current epoch (used by replacements joining after agreement and by
    /// the distributed agreement protocol, which stamps it into frames).
    pub(crate) fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Add `victims` to the current round without revoking the world: the
    /// scripted victims of a fail point every rank has just read, or the
    /// victims a distributed agreement iteration learned from a peer's view
    /// (the message-protocol analogue of hearing a `revoke` through shared
    /// memory).
    pub(crate) fn merge_round(&self, victims: &[usize]) {
        if victims.is_empty() {
            return;
        }
        let mut st = self.lock();
        for &v in victims {
            st.round.insert(v);
        }
        self.dirty.store(true, Ordering::Release);
    }

    /// Install the converged result of a *distributed* agreement: `victims`
    /// is the union every rank computed from the exchanged views, `epoch`
    /// the new communication epoch. Mirrors what the shared-memory
    /// rendezvous does on completion — with one difference: a death this
    /// rank observed locally but that did not make it into the union (it
    /// raced the exchange) stays pending and keeps the world revoked, so
    /// the very next communication call aborts into a fresh agreement
    /// instead of silently dropping the victim.
    pub(crate) fn apply_remote_agreement(&self, victims: &[usize], epoch: u64) {
        let mut st = self.lock();
        for &v in victims {
            st.round.insert(v);
        }
        st.epoch = epoch;
        st.agree_victims = victims.to_vec();
        st.pending_revoked = st.round.iter().copied().filter(|v| !victims.contains(v)).collect();
        st.revoked = !st.pending_revoked.is_empty();
        self.revoked.store(st.revoked, Ordering::Release);
        self.dirty.store(true, Ordering::Release);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn revoke_then_agree_converges_and_clears() {
        let d = Arc::new(Detector::default());
        d.revoke(3);
        d.merge_round(&[1]);
        assert!(d.is_revoked());
        let world = 4;
        let results: Vec<FailureAgreement> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..world).map(|_| s.spawn(|| d.agree(world))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results {
            assert_eq!(r.victims, vec![1, 3], "divergent victim set");
            assert_eq!(r.epoch, 1);
        }
        assert!(!d.is_revoked(), "agreement must clear revocation");
        // Commit clears the round; the next agreement sees only new victims.
        d.commit(0);
        d.revoke(2);
        let results: Vec<FailureAgreement> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..world).map(|_| s.spawn(|| d.agree(world))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results {
            assert_eq!(r.victims, vec![2]);
            assert_eq!(r.epoch, 2);
        }
        assert_eq!(d.epoch(), 2);
    }

    #[test]
    fn commit_is_idempotent_per_boundary() {
        let d = Detector::default();
        d.merge_round(&[5]);
        d.commit(7); // first committer clears
        assert!(d.current_victims().is_empty());
        d.merge_round(&[6]); // a NEW failure after the first commit...
        d.commit(7); // ...survives late committers of the same boundary
        assert_eq!(d.current_victims(), vec![6]);
    }

    #[test]
    fn commit_keeps_unagreed_revocations() {
        // A revocation racing a boundary commit: the committer cannot have
        // recovered a death it never observed, so the victim must survive
        // into the next agreement instead of silently vanishing.
        let d = Detector::default();
        d.revoke(3);
        assert_eq!(d.agree(1).victims, vec![3]);
        d.commit(0); // agreed victim: cleared
        assert!(d.current_victims().is_empty());
        d.revoke(2); // dies...
        d.commit(1); // ...just as a later boundary commits
        assert_eq!(d.current_victims(), vec![2], "unagreed victim wiped by commit");
        assert_eq!(d.agree(1).victims, vec![2]);
        d.commit(2);
        assert!(d.current_victims().is_empty());
    }

    #[test]
    fn barrier_completes_without_revocation() {
        let d = Arc::new(Detector::default());
        let world = 3;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..world).map(|_| s.spawn(|| d.barrier(world))).collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), Ok(()));
            }
        });
    }

    #[test]
    fn barrier_backs_out_on_revocation() {
        let d = Arc::new(Detector::default());
        let world = 3;
        std::thread::scope(|s| {
            // Only 2 of 3 arrive; the third revokes instead.
            let a = s.spawn(|| d.barrier(world));
            let b = s.spawn(|| d.barrier(world));
            std::thread::sleep(std::time::Duration::from_millis(20));
            d.revoke(2);
            assert_eq!(a.join().unwrap(), Err(()));
            assert_eq!(b.join().unwrap(), Err(()));
        });
        // After agreement the barrier works again.
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..world).map(|_| s.spawn(|| d.agree(world))).collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..world).map(|_| s.spawn(|| d.barrier(world))).collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), Ok(()));
            }
        });
    }

    #[test]
    fn catch_interrupt_passes_real_panics_through() {
        let r = catch_interrupt(|| 42);
        assert_eq!(r.unwrap(), 42);
        let r = catch_interrupt(|| raise_interrupt(InterruptReason::Revoked, 3));
        let i = r.unwrap_err();
        assert_eq!(i.reason, InterruptReason::Revoked);
        assert_eq!(i.rank, 3);
        // A genuine panic is NOT swallowed.
        let r = std::panic::catch_unwind(|| catch_interrupt(|| panic!("real bug")));
        assert!(r.is_err());
    }
}
