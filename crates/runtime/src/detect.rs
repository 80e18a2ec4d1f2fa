//! Failure detection — the substrate the paper assumes from FT-MPI (§5) and
//! that ULFM spells out as `revoke` + `agree`.
//!
//! Every [`crate::Ctx`] owns one [`Detector`]: plain per-rank state, shared
//! with nobody. A rank learns of a death only from its transport — a peer
//! whose endpoint is closed, or whose incarnation rose because a replacement
//! took the rank over — and its detector plays two roles:
//!
//! 1. **Revocation**: a death this rank observed revokes its view of the
//!    world. Every blocking call waits in `Ctx::wait`, which sweeps the
//!    transport into the detector after a whole tick without data; a death
//!    not yet agreed makes the call raise an [`Interrupt`] unwind instead
//!    of returning garbage.
//! 2. **The victim round** that agreement starts from: after unwinding, every
//!    process (victims' replacements included) gossips its round until all
//!    hold the identical union ([`crate::dist`], one protocol on every
//!    fabric). The agreed union goes back into the round and clears the
//!    revocation, unless a death raced the exchange.
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

use crate::transport::Transport;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

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

/// Result of one agreement ([`crate::Ctx::agree_on_failures`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureAgreement {
    /// Sorted union of every victim detected since the last committed
    /// boundary — identical on all participants.
    pub victims: Vec<usize>,
    /// The new communication epoch. Messages stamped with an older epoch
    /// are stragglers from an aborted attempt and must be dropped.
    pub epoch: u64,
}

/// One death: the rank, and the incarnation that replaced the one that
/// died. A rank killed twice dies twice, under two names. A scripted
/// failure respawns nothing and is named by incarnation 0.
pub(crate) type Death = (usize, u32);

/// One rank's failure detector. See the module docs.
#[derive(Debug)]
pub(crate) struct Detector {
    /// Cumulative deaths of the current round (scripted + observed).
    round: BTreeSet<Death>,
    /// Deaths observed since the last agreement. A boundary commit may race
    /// a fresh revocation, and must not wipe a death nobody has agreed on —
    /// these survive the commit.
    pending: BTreeSet<Death>,
    /// Highest committed boundary id + 1 (0 = nothing committed).
    committed: u64,
    /// Per peer: its closed endpoint was already swept (re-armed when the
    /// endpoint comes back, so a second death is reported again).
    swept: Vec<bool>,
    /// Per peer: the highest incarnation whose predecessor's death is
    /// already swept. A bump above it is positive death evidence even when
    /// the replacement reopened the rank before this rank looked:
    /// incarnation k+1 proves incarnation k is gone.
    seen_inc: Vec<u32>,
}

impl Detector {
    /// A detector for one rank of a `world`-rank world.
    pub(crate) fn new(world: usize) -> Detector {
        Detector {
            round: BTreeSet::new(),
            pending: BTreeSet::new(),
            committed: 0,
            swept: vec![false; world],
            seen_inc: vec![0; world],
        }
    }

    /// A death observed: revoke this rank's view until it is agreed.
    pub(crate) fn revoke(&mut self, death: Death) {
        self.round.insert(death);
        self.pending.insert(death);
    }

    /// Whether a death this rank observed awaits agreement.
    pub(crate) fn is_revoked(&self) -> bool {
        !self.pending.is_empty()
    }

    /// The current round's deaths, sorted.
    pub(crate) fn deaths(&self) -> Vec<Death> {
        self.round.iter().copied().collect()
    }

    /// The current round's victims, sorted.
    pub(crate) fn victims(&self) -> Vec<usize> {
        victims_of(&self.round)
    }

    /// Fold `transport`'s death evidence about every peer of rank `me` into
    /// the round: an incarnation above the one already seen, or a closed
    /// endpoint — the death of the current incarnation, which its successor
    /// will announce once more. Idempotent per death.
    pub(crate) fn sweep(&mut self, me: usize, transport: &dyn Transport) {
        for r in (0..self.swept.len()).filter(|&r| r != me) {
            let inc = transport.peer_incarnation(r);
            if inc > self.seen_inc[r] {
                self.seen_inc[r] = inc;
                self.revoke((r, inc));
                continue; // the slot is alive again: skip the closed check
            }
            let dead = transport.is_peer_dead(r);
            if dead && !self.swept[r] {
                self.seen_inc[r] = self.seen_inc[r].max(inc + 1);
                self.revoke((r, inc + 1));
            }
            self.swept[r] = dead;
        }
    }

    /// Commit fail-point boundary `boundary`: recovery for the current round
    /// is complete and protection is re-armed, so the round is cleared —
    /// except deaths observed since the last agreement. Such a death raced
    /// this commit (the committer cannot have recovered what it never
    /// agreed on), and dropping it would leave a dead process that no
    /// agreement ever reports. Idempotent per boundary: a boundary already
    /// committed and not rewound clears nothing.
    pub(crate) fn commit(&mut self, boundary: u64) {
        if self.committed <= boundary {
            self.committed = boundary + 1;
            self.round.clone_from(&self.pending);
        }
    }

    /// Let boundary `boundary` and every later one commit again: a rollback
    /// re-runs them. Every rank rewinds to the same boundary before any of
    /// them commits it (they agreed on it and on the victims first).
    pub(crate) fn rewind(&mut self, boundary: u64) {
        self.committed = self.committed.min(boundary);
    }

    /// Add `deaths` to the current round without revoking: the scripted
    /// victims of a fail point every rank has just read, or the deaths an
    /// agreement iteration learned from a peer's view.
    pub(crate) fn merge_round(&mut self, deaths: impl IntoIterator<Item = Death>) {
        self.round.extend(deaths);
    }

    /// Install an agreement's result, the union every rank computed. A
    /// death this rank observed that did not make it into the union (it
    /// raced the exchange) stays pending and keeps the view revoked, so the
    /// next communication call aborts into a fresh agreement instead of
    /// silently dropping the victim.
    pub(crate) fn agreed(&mut self, union: &BTreeSet<Death>) {
        self.round.extend(union);
        self.pending.retain(|d| !union.contains(d));
    }
}

/// The distinct ranks of `deaths`, sorted.
pub(crate) fn victims_of<'a>(deaths: impl IntoIterator<Item = &'a Death>) -> Vec<usize> {
    let ranks: BTreeSet<usize> = deaths.into_iter().map(|&(r, _)| r).collect();
    ranks.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{CommError, Msg};
    use std::cell::Cell;
    use std::time::Duration;

    /// The death evidence a fabric shows a sweep, set by hand: which
    /// endpoints read closed, and each rank's incarnation.
    struct Evidence {
        closed: Vec<Cell<bool>>,
        incarnations: Vec<Cell<u32>>,
    }

    impl Evidence {
        fn new(n: usize) -> Evidence {
            Evidence {
                closed: (0..n).map(|_| Cell::new(false)).collect(),
                incarnations: (0..n).map(|_| Cell::new(0)).collect(),
            }
        }
        /// A replacement takes `rank` over: open again, next incarnation.
        fn replace(&self, rank: usize) {
            self.closed[rank].set(false);
            self.incarnations[rank].set(self.incarnations[rank].get() + 1);
        }
    }

    // `Cell` keeps the fake `!Sync`; `Transport` asks only for `Send`.
    impl Transport for Evidence {
        fn rank(&self) -> usize {
            0
        }
        fn world_size(&self) -> usize {
            self.closed.len()
        }
        fn send(&self, _dst: usize, _msg: Msg) {}
        fn recv(&self, _timeout: Duration) -> Result<Msg, CommError> {
            Err(CommError::Timeout)
        }
        fn is_peer_dead(&self, peer: usize) -> bool {
            self.closed[peer].get()
        }
        fn peer_incarnation(&self, peer: usize) -> u32 {
            self.incarnations[peer].get()
        }
    }

    #[test]
    fn revoke_then_agree_converges_and_clears() {
        let mut d = Detector::new(4);
        d.revoke((3, 1));
        d.merge_round([(1, 0)]);
        assert!(d.is_revoked());
        d.agreed(&BTreeSet::from([(1, 0), (3, 1)]));
        assert!(!d.is_revoked(), "agreement must clear revocation");
        assert_eq!(d.victims(), vec![1, 3]);
        // Commit clears the round; the next agreement sees only new victims.
        d.commit(0);
        d.revoke((2, 1));
        assert_eq!(d.victims(), vec![2]);
        // A victim killed again is a new death, and the agreement on the
        // first does not settle it.
        d.revoke((2, 2));
        d.agreed(&BTreeSet::from([(2, 1)]));
        assert_eq!((d.is_revoked(), d.deaths()), (true, vec![(2, 1), (2, 2)]));
    }

    #[test]
    fn commit_is_idempotent_per_boundary() {
        let mut d = Detector::new(8);
        d.merge_round([(5, 0)]);
        d.commit(7); // first commit clears
        assert!(d.victims().is_empty());
        d.merge_round([(6, 0)]); // a NEW failure after the commit...
        d.commit(7); // ...survives a second commit of the same boundary
        assert_eq!(d.victims(), vec![6]);
        d.rewind(7); // a rollback re-runs boundary 7: its commit clears again
        d.commit(7);
        assert!(d.victims().is_empty());
    }

    #[test]
    fn commit_keeps_unagreed_revocations() {
        // A revocation racing a boundary commit: the committer cannot have
        // recovered a death it never agreed on, so the victim must survive
        // into the next agreement instead of silently vanishing.
        let mut d = Detector::new(4);
        d.revoke((3, 1));
        d.agreed(&BTreeSet::from([(3, 1)]));
        d.commit(0); // agreed victim: cleared
        assert!(d.victims().is_empty());
        d.revoke((2, 1)); // dies...
        d.commit(1); // ...just as a later boundary commits
        assert_eq!(d.victims(), vec![2], "unagreed victim wiped by commit");
        // A death that raced the exchange stays pending and revoked.
        d.revoke((1, 1));
        d.agreed(&BTreeSet::from([(2, 1)]));
        assert!(d.is_revoked(), "a death outside the union was dropped");
        d.agreed(&BTreeSet::from([(1, 1), (2, 1)]));
        d.commit(2);
        assert!(d.victims().is_empty());
    }

    #[test]
    fn sweep_reads_closed_endpoints_and_incarnation_bumps_once_each() {
        let ev = Evidence::new(3);
        let mut d = Detector::new(3);
        d.sweep(0, &ev);
        assert!(!d.is_revoked(), "a quiet fabric reads as a death");
        // Rank 1's endpoint closes, and its replacement reopens it before
        // the agreement ends: one death, however often it is swept.
        ev.closed[1].set(true);
        d.sweep(0, &ev);
        d.sweep(0, &ev);
        ev.replace(1);
        d.sweep(0, &ev);
        d.agreed(&BTreeSet::from([(1, 1)]));
        d.sweep(0, &ev);
        assert_eq!((d.is_revoked(), d.deaths()), (false, vec![(1, 1)]), "one death swept as two");
        d.commit(0);
        // Rank 2 dies and is replaced before this rank looks: the
        // incarnation bump is the only evidence left, and it is enough.
        ev.closed[2].set(true);
        ev.replace(2);
        d.sweep(0, &ev);
        assert_eq!((d.is_revoked(), d.deaths()), (true, vec![(2, 1)]));
    }

    #[test]
    fn barrier_completes_without_revocation() {
        let gens = crate::run_spmd(1, 3, crate::FaultScript::none(), |ctx| {
            for _ in 0..5 {
                ctx.barrier();
            }
            ctx.rendezvous.as_ref().expect("in-process").generation()
        });
        assert_eq!(gens, vec![5; 3]);
    }

    #[test]
    fn barrier_backs_out_on_revocation() {
        // Rank 2 dies at its first op while ranks 0 and 1 wait in the
        // rendezvous: each waiter sweeps the death from its own transport,
        // nobody passes the generation, and after the agreement the
        // barrier completes again.
        let script = crate::FaultScript::parse("0:at=2@0", 3, 0..1).unwrap();
        let out = crate::run_spmd(1, 3, script, |ctx| {
            ctx.arm_chaos();
            let r = catch_interrupt(|| {
                if ctx.rank() == 2 {
                    ctx.send(0, 7, &[]); // dies here
                }
                ctx.barrier();
            });
            let reason = r.expect_err("a barrier passed a death").reason;
            let agreed = ctx.agree_on_failures();
            ctx.barrier();
            ctx.barrier();
            (reason, agreed.victims, ctx.rendezvous.as_ref().expect("in-process").generation())
        });
        for (rank, (reason, victims, generation)) in out.into_iter().enumerate() {
            let want = if rank == 2 { InterruptReason::Died } else { InterruptReason::Revoked };
            assert_eq!((reason, victims, generation), (want, vec![2], 2), "rank {rank}");
        }
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
