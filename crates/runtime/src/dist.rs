//! Failure agreement on every fabric, and the barrier of a world whose
//! ranks share no memory ([`Ctx::distributed`]). Both are wire protocols on
//! reserved control wires, at or above [`crate::comm::DIST_CTRL_MIN`]:
//!
//! * **Agreement** ([`Ctx::agree_on_failures`]) — latest-wins view gossip,
//!   in process and across processes alike: every rank broadcasts its
//!   current view `{incarnation, epoch, deaths}`, keeps only the *freshest*
//!   view received from each peer, and exits as soon as the view it last
//!   broadcast and every peer's latest view all equal their union. A death
//!   is a victim rank and the incarnation that replaced it, so a rank killed
//!   twice counts twice and no rank can take its second death for its first.
//!   Views only ever grow (monotone under union), so the exit condition is
//!   stable: the exiting rank has itself broadcast the final union, and a
//!   straggler that still needs it holds that frame — every rank returns
//!   the identical sorted union and epoch. A rank that has not converged
//!   rebroadcasts once per [`AGREE_RESEND`] window, which bounds the
//!   gossip's rate; retransmission plus latest-wins makes loss and
//!   duplication harmless. Gossip rather than lock-step rounds because
//!   frames sent to a *dying* incarnation can vanish silently (the write
//!   lands in the kernel buffer of a socket whose peer is already dead),
//!   which would desynchronize any round-counting scheme.
//! * **Barrier** ([`Ctx::barrier`] across processes) — symmetric
//!   all-to-all arrival exchange: every rank sends `ARRIVE(epoch, gen)` to
//!   every peer and waits for the matching frame from each. Revocable: a
//!   death swept while waiting backs the waiter out with `Err`, as the
//!   in-process rendezvous does. Generations reset to 0 at each agreement,
//!   so an aborted generation's stragglers are discarded by their
//!   `(epoch, gen)` stamp.
//!
//! Both wait in [`Ctx::wait`], the one wait under every blocking call: it
//! stashes what arrives, judges liveness and ends a wedge — a
//! permanently-dead rank that is never respawned — at its deadline, in the
//! typed [`CommError::Partitioned`] unwind.
//!
//! ## Epoch fencing and incarnations
//!
//! Control frames carry their own epoch/generation *in the payload* and
//! bypass the data-plane epoch filter — an agreement frame is how epochs
//! advance, so it cannot be fenced by them. An agreement therefore fences
//! its own frames: it counts only views stamped with its current epoch. A
//! view from an older epoch is left over from an agreement that already
//! ended (its sender gossiped on after this rank exited) and is dropped. A
//! view from a newer epoch means its sender already ended this agreement
//! and began the next; this rank joins that one — it adopts the epoch,
//! forgets the views it held, and converges with the sender on the bigger
//! union. A replacement process (fresh detector, epoch 0, empty view) is
//! heard once it has adopted the survivors' epoch, one window after its
//! first broadcast. Frames from a victim's previous incarnation are dropped
//! by the incarnation in the payload.

use crate::comm::{Ctx, Waiting, AGREE_WIRE, BARRIER_WIRE, DIST_CTRL_MIN};
use crate::detect::{self, Death, FailureAgreement};
use crate::transport::{CommError, Msg};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Agreement rebroadcast window: a participant that has not converged
/// resends its view this often, so frames lost in a dying incarnation's
/// socket buffer never stall the exchange.
const AGREE_RESEND: Duration = Duration::from_millis(50);

impl Ctx {
    /// Fire-and-forget control frame. Control traffic bypasses the chaos
    /// op clock and the traffic ledger, so no protocol's frames move a
    /// pinned kill or a traffic count.
    fn send_ctrl(&self, dst: usize, wire: u64, payload: &[f64]) {
        self.transport.send(
            dst,
            Msg {
                src: self.rank(),
                wire,
                epoch: self.epoch.get(),
                payload: Arc::from(payload),
            },
        );
    }

    /// All-to-all arrival barrier; see the module docs. `Err` when a death
    /// revoked the world before this generation completed.
    pub(crate) fn dist_barrier(&self) -> Result<(), CommError> {
        let world = self.grid().size();
        if world == 1 {
            return Ok(());
        }
        if self.sweep_revoked() {
            return Err(CommError::Revoked);
        }
        let epoch = self.epoch.get();
        let gen = self.bar_gen.get();
        let frame = [epoch as f64, gen as f64];
        for r in 0..world {
            if r != self.rank() {
                self.send_ctrl(r, BARRIER_WIRE, &frame);
            }
        }
        for r in 0..world {
            if r == self.rank() {
                continue;
            }
            loop {
                let p = self.wait(Waiting::Arrival { src: r }, None, |w, _| match w.frame.take() {
                    Some(p) => Some(Ok(p)),
                    None => w.revoked.then_some(Err(CommError::Revoked)),
                })?;
                if p.len() != 2 {
                    continue;
                }
                let (e, g) = (p[0] as u64, p[1] as u64);
                if e < epoch || (e == epoch && g < gen) {
                    continue; // stale arrival from an aborted generation
                }
                // FIFO per (src, wire) makes a future stamp unreachable:
                // a peer cannot enter generation g+1 before our g frame
                // (which precedes this receive) was consumed.
                debug_assert_eq!((e, g), (epoch, gen), "barrier frame from the future");
                break;
            }
        }
        self.bar_gen.set(gen + 1);
        Ok(())
    }

    /// Fold the agreement frames the stash holds into `latest`, the view
    /// each peer last broadcast at `epoch`; see the module docs' fencing.
    /// Returns the epoch, moved on when a peer has already moved on.
    fn fold_views(&self, mut epoch: u64, latest: &mut [Option<BTreeSet<Death>>]) -> u64 {
        let mut stash = self.stash.borrow_mut();
        for r in (0..latest.len()).filter(|&r| r != self.rank()) {
            let Some(q) = stash.get_mut(&(r, AGREE_WIRE)) else { continue };
            while let Some((_, p)) = q.pop_front() {
                if p.len() < 3 || (p[0] as u32) < self.transport.peer_incarnation(r) {
                    continue; // malformed, or from a dead predecessor
                }
                let e = p[1] as u64;
                if e < epoch {
                    continue; // left over from an agreement that ended
                }
                if e > epoch {
                    epoch = e;
                    latest.fill(None);
                }
                let n = (p[2] as usize).min((p.len() - 3) / 2);
                latest[r] = Some(p[3..3 + 2 * n].chunks_exact(2).map(|d| (d[0] as usize, d[1] as u32)).collect());
            }
        }
        epoch
    }

    /// Full-world failure agreement — the ULFM `MPI_Comm_agree` analogue,
    /// one gossip protocol on every fabric (see the module docs).
    ///
    /// Called by every process (survivors and replacements alike) after a
    /// failure aborted the current attempt. Everyone returns the
    /// **identical** sorted victim set accumulated since the last committed
    /// boundary and the identical new communication epoch. The union goes
    /// into this rank's detector, the message-barrier generation restarts,
    /// and the aborted epoch's data frames are flushed from the stash
    /// (control frames fence themselves; data a fast peer already sent
    /// under the *new* epoch is kept).
    pub fn agree_on_failures(&self) -> FailureAgreement {
        let world = self.grid().size();
        let inc = self.transport.incarnation() as f64;
        let mut epoch = self.epoch.get();
        // The view each peer last broadcast at `epoch`.
        let mut latest: Vec<Option<BTreeSet<Death>>> = vec![None; world];
        // This rank's last broadcast view, the epoch it went out at, when
        // the next is due, and the union of everything heard since.
        let (mut mine, mut sent, mut resend) = (BTreeSet::new(), None, Instant::now());
        let mut union = BTreeSet::new();
        // When shrink mode armed an adoption during this agreement, the
        // time from launching it to convergence is the stall the shrink
        // protocol cost the survivors.
        let mut adoption_started: Option<Instant> = None;
        let agreed = self.wait(Waiting::Agreement, None, |_, _| loop {
            epoch = self.fold_views(epoch, &mut latest);
            union.extend(latest.iter().flatten().flatten());
            let heard = latest
                .iter()
                .enumerate()
                .all(|(r, v)| r == self.rank() || v.as_ref() == Some(&union));
            if heard && sent == Some(epoch) && mine == union {
                if let Some(t0) = adoption_started {
                    self.add_shrink_stall(t0.elapsed().as_secs_f64());
                }
                return Some(Ok(self.install_agreement(&union, epoch + 1)));
            }
            if Instant::now() < resend {
                return None;
            }
            // Adopt what the peers know and gossip the bigger view.
            self.detector.borrow_mut().merge_round(std::mem::take(&mut union));
            self.sweep_revoked();
            let deaths = self.detector.borrow().deaths();
            // Elastic shrink: agreement requires a frame from *every* rank,
            // so a dead rank that no launcher will re-spawn must be adopted
            // by a survivor from inside this very loop — the adopted thread
            // then joins the gossip like any replacement would.
            if self.try_shrink_adoptions(&detect::victims_of(&deaths)) && adoption_started.is_none() {
                adoption_started = Some(Instant::now());
            }
            let mut frame = Vec::with_capacity(3 + 2 * deaths.len());
            frame.extend([inc, epoch as f64, deaths.len() as f64]);
            frame.extend(deaths.iter().flat_map(|&(v, i)| [v as f64, i as f64]));
            for r in (0..world).filter(|&r| r != self.rank()) {
                self.send_ctrl(r, AGREE_WIRE, &frame);
            }
            (mine, sent, resend) = (deaths.into_iter().collect(), Some(epoch), Instant::now() + AGREE_RESEND);
            union.clone_from(&mine);
        });
        agreed.expect("a blocking wait returns only what its poll does")
    }

    /// Install an agreement's result on this rank; see
    /// [`Ctx::agree_on_failures`].
    fn install_agreement(&self, union: &BTreeSet<Death>, epoch: u64) -> FailureAgreement {
        self.detector.borrow_mut().agreed(union);
        self.epoch.set(epoch);
        self.bar_gen.set(0);
        self.stash.borrow_mut().retain(|&(_, w), q| {
            if w >= DIST_CTRL_MIN {
                return true;
            }
            q.retain(|&(e, _)| e >= epoch);
            !q.is_empty()
        });
        FailureAgreement { victims: detect::victims_of(union), epoch }
    }
}

#[cfg(test)]
mod tests {
    use crate::fault::FaultScript;
    use crate::grid::Grid;
    use crate::tcp::TcpTransport;
    use crate::{comm, Ctx};

    /// Spawn one thread per rank, each owning a distributed `Ctx` over an
    /// in-process localhost TCP fabric — the unit-test analogue of real
    /// child processes.
    fn run_dist<R: Send>(p: usize, q: usize, f: impl Fn(Ctx) -> R + Sync) -> Vec<R> {
        let eps = TcpTransport::fabric_localhost(p * q).expect("fabric");
        std::thread::scope(|s| {
            let handles: Vec<_> = eps
                .into_iter()
                .map(|t| {
                    let fref = &f;
                    s.spawn(move || {
                        let ctx = comm::distributed_ctx(Grid::new(p, q), FaultScript::none(), Box::new(t));
                        fref(ctx)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
        })
    }

    #[test]
    fn dist_barrier_synchronizes_and_generations_advance() {
        run_dist(2, 2, |ctx| {
            for _ in 0..5 {
                ctx.barrier();
            }
        });
    }

    #[test]
    fn dist_p2p_and_collectives_flow_over_tcp() {
        let out = run_dist(2, 2, |ctx| {
            let mut v = vec![ctx.rank() as f64];
            ctx.allreduce_sum_world(&mut v, 1);
            if ctx.rank() == 0 {
                ctx.send(3, 7, &[42.0]);
            }
            if ctx.rank() == 3 {
                assert_eq!(ctx.recv(0, 7), vec![42.0]);
            }
            ctx.barrier();
            v[0]
        });
        assert_eq!(out, vec![6.0; 4]);
    }

    #[test]
    fn dist_agreement_converges_on_announced_victim() {
        // Rank 2 plays a locally-detected victim: it revokes itself in its
        // own detector; the others learn of it purely through the exchange.
        let out = run_dist(1, 3, |ctx| {
            if ctx.rank() == 2 {
                ctx.detector.borrow_mut().revoke((2, 1));
            }
            let agreed = ctx.agree_on_failures();
            (agreed.victims, agreed.epoch)
        });
        for (victims, epoch) in out {
            assert_eq!(victims, vec![2], "divergent victim set");
            assert_eq!(epoch, 1, "divergent epoch");
        }
    }

    #[test]
    fn dist_agreement_merges_disjoint_views() {
        // Ranks 0 and 1 each know of a different victim; the union must
        // come out identical everywhere and the round survives in the
        // detector for the commit to clear.
        let out = run_dist(2, 2, |ctx| {
            if ctx.rank() == 0 {
                ctx.detector.borrow_mut().revoke((2, 1));
            }
            if ctx.rank() == 1 {
                ctx.detector.borrow_mut().revoke((3, 1));
            }
            let agreed = ctx.agree_on_failures();
            ctx.commit_boundary(0);
            agreed.victims
        });
        assert_eq!(out, vec![vec![2, 3]; 4]);
    }

    /// The one agreement body, on the in-process mpsc world and on the
    /// in-process TCP world: identical victims and epochs. Ranks 0 and 1
    /// each know of a different death; everyone agrees, passes a barrier
    /// and commits; then rank 3 alone knows of a third death, and the
    /// second agreement must name only that one — the first agreement's
    /// late frames are fenced out by their epoch.
    #[test]
    fn one_agreement_on_both_fabrics() {
        let body = |ctx: Ctx| {
            let knows = [Some((2, 1)), Some((3, 1)), None, None][ctx.rank()];
            if let Some(death) = knows {
                ctx.detector.borrow_mut().revoke(death);
            }
            let first = ctx.agree_on_failures();
            ctx.barrier();
            ctx.commit_boundary(0);
            if ctx.rank() == 3 {
                ctx.detector.borrow_mut().revoke((1, 1));
            }
            let second = ctx.agree_on_failures();
            (first.victims, first.epoch, second.victims, second.epoch)
        };
        let mpsc = crate::run_spmd(2, 2, FaultScript::none(), body);
        let tcp: Vec<Box<dyn crate::Transport>> = TcpTransport::fabric_localhost(4)
            .expect("fabric")
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn crate::Transport>)
            .collect();
        let tcp = crate::run_spmd_with(2, 2, FaultScript::none(), tcp, body);
        assert_eq!(mpsc, vec![(vec![2, 3], 1, vec![1], 2); 4], "mpsc");
        assert_eq!(tcp, mpsc, "the TCP world agreed otherwise");
    }

    #[test]
    fn dist_barrier_works_after_agreement_resets_generations() {
        run_dist(1, 2, |ctx| {
            ctx.barrier();
            ctx.barrier();
            if ctx.rank() == 0 {
                ctx.detector.borrow_mut().revoke((1, 1));
            }
            ctx.agree_on_failures();
            ctx.commit_boundary(0);
            ctx.barrier();
            if ctx.rank() == 0 {
                ctx.send(1, 9, &[1.0]);
            } else {
                assert_eq!(ctx.recv(0, 9), vec![1.0]);
            }
            ctx.barrier();
        });
    }
}
