//! Message-protocol replacements for the shared-memory barrier and
//! agreement when the world spans real processes ([`Ctx::distributed`]).
//!
//! The in-process world funnels both through one `Arc<Detector>` — a
//! counting rendezvous on a mutex. A multi-process world has no shared
//! memory, so the same two primitives become wire protocols on reserved
//! control wires just below [`crate::comm::CTRL_WIRE`]:
//!
//! * **Barrier** — symmetric all-to-all arrival exchange: every rank sends
//!   `ARRIVE(epoch, gen)` to every peer and waits for the matching frame
//!   from each. Revocable: a death observed while waiting (dead-peer sweep)
//!   backs the waiter out with `Err`, exactly like the shared barrier.
//!   Generations reset to 0 at each agreement, so an aborted generation's
//!   stragglers are discarded by their `(epoch, gen)` stamp.
//! * **Agreement** — latest-wins view gossip: every rank rebroadcasts its
//!   current victim view `{incarnation, epoch, victims}` on a short tick,
//!   keeps only the *freshest* view received from each peer, and exits
//!   once its own view and every peer's latest view all equal their
//!   union. Views only ever grow (monotone under union), so the exit
//!   condition is stable: the exit iteration itself broadcast the final
//!   union, and a straggler that still needs it holds that frame — every
//!   rank returns the identical sorted union and epoch. Gossip rather
//!   than lock-step rounds because frames sent to a *dying* incarnation
//!   can vanish silently (the write lands in the kernel buffer of a
//!   socket whose peer is already dead), which would desynchronize any
//!   round-counting scheme; retransmission plus latest-wins makes both
//!   loss and duplication harmless. A replacement process (fresh
//!   detector, empty view) simply joins with `{}` and adopts the
//!   survivors' union one tick later.
//!
//! ## Epoch fencing and incarnations
//!
//! Control frames carry their own epoch/generation *in the payload* and
//! bypass the data-plane epoch filter — an agreement frame is how epochs
//! advance, so it cannot be fenced by them. Stale barrier frames are
//! dropped by their stamp; stale agreement frames from a victim's previous
//! incarnation are dropped by comparing the incarnation in the payload
//! against the latest one the transport's reconnect handshake reported.
//!
//! ## Scope
//!
//! A rank that leaves agreement early and then learns of a *new* failure
//! simply starts gossiping a larger view; stragglers still in the old
//! instance fold those frames in and both converge on the bigger union at
//! a consistent epoch. The residual wedge — a permanently-dead rank that
//! is never respawned — is bounded by the control timeout, which turns
//! the hang into a typed panic.

use crate::comm::{Ctx, AGREE_WIRE, BARRIER_WIRE, CTRL_WIRE, DIST_CTRL_MIN};
use crate::detect::FailureAgreement;
use crate::transport::{CommError, Msg};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A wedged control protocol aborts loudly instead of hanging the run;
/// shares the (env-overridable) budget of [`crate::comm::recv_timeout`].
use crate::comm::recv_timeout as ctrl_timeout;

/// How often a blocked control receive re-sweeps peer liveness.
const CTRL_POLL: Duration = Duration::from_millis(20);

/// Agreement rebroadcast tick: a participant that has not converged yet
/// resends its view this often, so frames lost in a dying incarnation's
/// socket buffer never stall the exchange.
const AGREE_RESEND: Duration = Duration::from_millis(50);

impl Ctx {
    /// Fire-and-forget control frame. Control traffic bypasses the chaos
    /// op clock and the traffic ledger, mirroring the shared-memory
    /// detector whose rendezvous never counted as message ops.
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

    /// Pop the next control frame from `(src, wire)`, pulling frames off
    /// the transport (and stashing everything else) until one arrives.
    /// With `abort_on_revoke`, a revocation observed while waiting returns
    /// `Err(())` — the revocable-barrier contract. Agreement runs with it
    /// off: it *is* the revocation handler and must keep collecting.
    fn recv_ctrl(&self, src: usize, wire: u64, abort_on_revoke: bool) -> Result<Arc<[f64]>, ()> {
        let mut waited = Duration::ZERO;
        loop {
            if let Some(q) = self.stash.borrow_mut().get_mut(&(src, wire)) {
                if let Some((_, d)) = q.pop_front() {
                    return Ok(d);
                }
            }
            match self.transport.recv(CTRL_POLL) {
                Ok(msg) => {
                    if msg.wire == CTRL_WIRE {
                        continue;
                    }
                    if msg.wire < DIST_CTRL_MIN && msg.epoch < self.epoch.get() {
                        continue; // data straggler from an aborted epoch
                    }
                    let agree_frame = msg.wire == AGREE_WIRE;
                    self.stash
                        .borrow_mut()
                        .entry((msg.src, msg.wire))
                        .or_default()
                        .push_back((msg.epoch, msg.payload));
                    // An agreement frame is a revocation notice: its
                    // sender is inside the failure handler, so a barrier
                    // waiter must back out now — a steady gossip stream
                    // would otherwise starve the dry-inbox arm below.
                    if agree_frame && abort_on_revoke {
                        self.sweep_dead_peers();
                        if self.detector.is_revoked() {
                            return Err(());
                        }
                    }
                }
                Err(CommError::Timeout) => {
                    // Inbox dry: only now may liveness be judged, so a
                    // frame that already crossed the wire always beats a
                    // concurrently-observed death of its sender (a rank
                    // that finished and closed its sockets is not a
                    // failure to a receiver still holding its last frame).
                    self.sweep_dead_peers();
                    if abort_on_revoke && self.detector.is_revoked() {
                        return Err(());
                    }
                    waited += CTRL_POLL;
                    if waited >= ctrl_timeout() {
                        self.partition_panic(&format!("distributed control recv (src={src}, wire={wire:#x})"));
                    }
                }
                Err(e) => panic!("rank {}: distributed control recv failed: {e}", self.rank()),
            }
        }
    }

    /// All-to-all arrival barrier; see the module docs. `Err(())` when a
    /// failure revoked the world before this generation completed.
    pub(crate) fn dist_barrier(&self) -> Result<(), ()> {
        let world = self.grid().size();
        if world == 1 {
            return Ok(());
        }
        self.sweep_dead_peers();
        if self.detector.is_revoked() {
            return Err(());
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
                let p = self.recv_ctrl(r, BARRIER_WIRE, true)?;
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

    /// Pull frames off the transport into the stash for one full `wait`
    /// window. The window is never cut short: the gossip tick doubles as
    /// the rebroadcast rate limit, and an uncapped loop would let two
    /// agreeing ranks ping-pong frames at megahertz rates and flood every
    /// other inbox in the world.
    fn pump_ctrl(&self, wait: Duration) {
        let deadline = Instant::now() + wait;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            match self.transport.recv(left.min(CTRL_POLL)) {
                Ok(msg) => {
                    if msg.wire == CTRL_WIRE {
                        continue;
                    }
                    if msg.wire < DIST_CTRL_MIN && msg.epoch < self.epoch.get() {
                        continue; // data straggler from an aborted epoch
                    }
                    self.stash
                        .borrow_mut()
                        .entry((msg.src, msg.wire))
                        .or_default()
                        .push_back((msg.epoch, msg.payload));
                }
                Err(CommError::Timeout) => {}
                Err(e) => panic!("rank {}: distributed control recv failed: {e}", self.rank()),
            }
        }
    }

    /// The control plane wedged past its deadline: some set of ranks is
    /// unreachable and no replacement ever healed the view — an
    /// unhealable partition. Raise the *typed* [`CommError::Partitioned`]
    /// as an unwind payload so every surviving rank that hits its own
    /// deadline surfaces the identical error (and the identical exit
    /// code) instead of a hang or an anonymous panic string.
    fn partition_panic(&self, what: &str) -> ! {
        let mut unreachable = self.known_dead();
        unreachable.sort_unstable();
        unreachable.dedup();
        let err = CommError::Partitioned { unreachable };
        eprintln!("rank {}: {what} timed out after {:?} — {err}", self.rank(), ctrl_timeout());
        std::panic::panic_any(err);
    }

    /// Latest-wins gossip agreement; see the module docs. Converges to the
    /// identical sorted victim union and new epoch on every rank, installs
    /// both into the local detector, resets the barrier generation, and
    /// flushes the aborted epoch's data frames from the stash (control
    /// frames fence themselves; data a fast peer already sent under the
    /// *new* epoch is kept).
    pub(crate) fn dist_agree(&self) -> FailureAgreement {
        let world = self.grid().size();
        let inc = self.transport.incarnation() as f64;
        // Freshest `(epoch, victims)` view seen from each peer so far.
        let mut latest: Vec<Option<(u64, Vec<usize>)>> = vec![None; world];
        let deadline = Instant::now() + ctrl_timeout();
        // When shrink mode armed an adoption during this agreement, the
        // time from launching it to convergence is the stall the shrink
        // protocol cost the survivors.
        let mut adoption_started: Option<Instant> = None;
        loop {
            self.sweep_dead_peers();
            let mut mine = self.detector.current_victims();
            mine.sort_unstable();
            mine.dedup();
            // Elastic shrink: agreement requires a frame from *every* rank,
            // so a dead rank that no launcher will re-spawn must be adopted
            // by a survivor from inside this very loop — the adopted thread
            // then joins the gossip like any replacement would.
            if self.try_shrink_adoptions(&mine) && adoption_started.is_none() {
                adoption_started = Some(Instant::now());
            }
            let epoch = self.detector.epoch();
            let mut frame = Vec::with_capacity(3 + mine.len());
            frame.push(inc);
            frame.push(epoch as f64);
            frame.push(mine.len() as f64);
            frame.extend(mine.iter().map(|&v| v as f64));
            for r in 0..world {
                if r != self.rank() {
                    self.send_ctrl(r, AGREE_WIRE, &frame);
                }
            }
            self.pump_ctrl(AGREE_RESEND);
            {
                let mut stash = self.stash.borrow_mut();
                for (r, slot) in latest.iter_mut().enumerate() {
                    if r == self.rank() {
                        continue;
                    }
                    let Some(q) = stash.get_mut(&(r, AGREE_WIRE)) else { continue };
                    while let Some((_, p)) = q.pop_front() {
                        // Frames from a dead predecessor of a respawned
                        // rank are strays of the aborted epoch: drop them.
                        if p.len() >= 3 && (p[0] as u32) >= self.transport.peer_incarnation(r) {
                            let e = p[1] as u64;
                            let n = p[2] as usize;
                            let vs = p[3..3 + n.min(p.len() - 3)].iter().map(|&v| v as usize).collect();
                            *slot = Some((e, vs));
                        }
                    }
                }
            }
            if Instant::now() >= deadline {
                self.partition_panic("distributed agreement");
            }
            if (0..world).any(|r| r != self.rank() && latest[r].is_none()) {
                continue; // someone has never spoken: rebroadcast and wait
            }
            let mut union = BTreeSet::new();
            union.extend(mine.iter().copied());
            let mut emax = epoch;
            for (e, vs) in latest.iter().flatten() {
                emax = emax.max(*e);
                union.extend(vs.iter().copied());
            }
            let union: Vec<usize> = union.into_iter().collect();
            let all_equal = latest.iter().enumerate().all(|(r, slot)| {
                r == self.rank()
                    || slot.as_ref().is_some_and(|(_, vs)| {
                        let mut s = vs.clone();
                        s.sort_unstable();
                        s.dedup();
                        s == union
                    })
            });
            if all_equal && mine == union {
                if let Some(t0) = adoption_started {
                    self.add_shrink_stall(t0.elapsed().as_secs_f64());
                }
                let epoch_new = emax + 1;
                self.detector.apply_remote_agreement(&union, epoch_new);
                self.epoch.set(epoch_new);
                self.bar_gen.set(0);
                self.stash.borrow_mut().retain(|&(_, w), q| {
                    if w >= DIST_CTRL_MIN {
                        return true;
                    }
                    q.retain(|&(e, _)| e >= epoch_new);
                    !q.is_empty()
                });
                return FailureAgreement { victims: union, epoch: epoch_new };
            }
            // Adopt what the peers know and gossip the bigger view.
            self.detector.merge_round(&union);
        }
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
                ctx.detector.revoke(2);
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
                ctx.detector.revoke(2);
            }
            if ctx.rank() == 1 {
                ctx.detector.revoke(3);
            }
            let agreed = ctx.agree_on_failures();
            ctx.commit_boundary(0);
            agreed.victims
        });
        assert_eq!(out, vec![vec![2, 3]; 4]);
    }

    #[test]
    fn dist_barrier_works_after_agreement_resets_generations() {
        run_dist(1, 2, |ctx| {
            ctx.barrier();
            ctx.barrier();
            if ctx.rank() == 0 {
                ctx.detector.revoke(1);
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
