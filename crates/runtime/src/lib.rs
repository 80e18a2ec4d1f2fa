//! # ft-runtime — simulated distributed-memory machine
//!
//! The paper runs on Titan with MPI/BLACS. This crate is the substitution
//! documented in DESIGN.md §2: a process grid where every "process" is an OS
//! thread with **private local storage**, communicating exclusively through
//! typed message channels. The algorithms above this layer (ft-pblas,
//! ft-hess) only ever observe:
//!
//! * a `P×Q` logical process grid ([`Grid`]),
//! * point-to-point tagged `send`/`recv` over a pluggable [`Transport`],
//! * row/column/world binomial-tree broadcasts and sum-reductions with a
//!   **fixed, deterministic combine order** (the tree's — so residuals are
//!   bit-reproducible; see [`collectives`]),
//! * revocable barriers,
//! * one fault script ([`FaultScript`]: scripted quiescent failures,
//!   arbitrary-point kills, silent bit flips and wire faults — see
//!   [`fault`]) and a failure detection/agreement layer ([`detect`], the
//!   ULFM-style stand-in for FT-MPI).
//!
//! ## Failure model
//!
//! *Scripted* failures strike at *fail points* — quiescent phase boundaries
//! the algorithm announces via [`Ctx::check_failpoint`]. A victim's closure
//! observes [`FailCheck::Failure`] with `me == true`, at which point it must
//! act as the *replacement* process: drop all of its local data (that is the
//! data loss) and rejoin the recovery protocol. Survivors observe the victim
//! list and run the recovery side. Because fail points sit between
//! communication phases, channels are quiescent and no in-flight messages
//! are lost — matching the paper's recovery model, which repairs the grid
//! before recovering data (§5.3 step 1).
//!
//! *Kills* ([`ChaosKill`]) strike at arbitrary message-op boundaries with
//! no cooperation from the algorithm. The victim revokes
//! the world and closes its endpoint as it dies; every blocked or future
//! communication call on a survivor unwinds with a typed [`Interrupt`]
//! (catch it with [`catch_interrupt`]), and all processes then converge on
//! an identical victim set through [`Ctx::agree_on_failures`] before
//! restarting from their last consistent state. Messages from the aborted
//! attempt are discarded by epoch. Every fault kind is deterministic in the
//! script.

pub mod collectives;
pub mod comm;
pub mod crc;
pub mod detect;
pub mod dist;
pub mod fault;
pub mod grid;
pub mod netchaos;
pub mod tag;
pub mod tcp;
pub mod transport;

pub use collectives::PendingBcast;
pub use comm::{recv_timeout_env, Ctx, FailCheck};
pub use detect::{catch_interrupt, FailureAgreement, Interrupt, InterruptReason};
pub use fault::{poisson_failures, ChaosKill, ChaosPoint, FaultScript, PlannedFailure, SdcFlip};
pub use grid::Grid;
pub use netchaos::{NetFault, NetPartition};
pub use tag::{PhaseTraffic, Tag, TrafficLedger, TrafficPhase, JOB_TAG_CHANNELS, JOB_TAG_LANES};
pub use tcp::jobs::{self, JobFrame};
pub use tcp::{TcpConfig, TcpTransport};
pub use transport::{CommError, MpscTransport, Msg, PeerCounters, Transport, TransportStats};

/// Run `f` in SPMD style on a `p×q` grid: one thread per process, each
/// receiving its own [`Ctx`]. Returns the per-rank results in rank order.
///
/// `script` is the run's whole fault plan: fail-point failures strike in
/// [`Ctx::check_failpoint`]; kills and bit flips strike on the message-op
/// clock once the algorithm calls [`Ctx::arm_chaos`] (flips queue for
/// [`Ctx::take_sdc_flips`]); wire faults are the transport's business (see
/// [`TcpConfig::faults`]) and do nothing on the in-process fabric.
///
/// Panics in any process propagate (the whole run aborts), which keeps test
/// failures loud.
///
/// ```
/// use ft_runtime::{run_spmd, FaultScript};
///
/// // Every process contributes its rank; a row all-reduce sums them.
/// let sums = run_spmd(2, 3, FaultScript::none(), |ctx| {
///     let mut v = vec![ctx.rank() as f64];
///     ctx.allreduce_sum_row(&mut v, 1);
///     v[0]
/// });
/// // Row 0 holds ranks 0+1+2 = 3, row 1 holds 3+4+5 = 12.
/// assert_eq!(sums, vec![3.0, 3.0, 3.0, 12.0, 12.0, 12.0]);
/// ```
pub fn run_spmd<R, F>(p: usize, q: usize, script: FaultScript, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Ctx) -> R + Sync,
{
    let transports = MpscTransport::fabric(p * q)
        .into_iter()
        .map(|t| Box::new(t) as Box<dyn Transport>)
        .collect();
    run_spmd_with(p, q, script, transports, f)
}

/// [`run_spmd`] over caller-supplied [`Transport`] endpoints (in rank
/// order) instead of the default in-process mpsc fabric — the pluggable
/// communicator seam. Endpoint `i` becomes rank `i`'s wire.
pub fn run_spmd_with<R, F>(p: usize, q: usize, script: FaultScript, transports: Vec<Box<dyn Transport>>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Ctx) -> R + Sync,
{
    if !script.kills().is_empty() {
        // Interrupt unwinds are control flow; keep them off stderr.
        detect::install_quiet_interrupt_hook();
    }
    let ctxs = comm::world_ctxs(Grid::new(p, q), script, transports);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ctxs.into_iter().map(|ctx| scope.spawn(move || f(ctx))).collect();
        handles
            .into_iter()
            // Re-raise with the original payload so `should_panic`
            // expectations and error messages stay meaningful.
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    })
}

/// Run **one rank** of a multi-process world: this process owns a single
/// [`Ctx`] whose only tie to its `p·q − 1` peers is `transport` (typically
/// a [`tcp::TcpTransport`]). Barriers and failure agreement run as message
/// protocols over reserved control wires ([`dist`]); peer deaths are
/// detected from the wire (heartbeat silence / connection EOF) instead of
/// a shared revocation flag. The script's kills are evaluated against this
/// rank's op clock exactly as in-process, but a strike is a *real* process
/// death: the victim emits a `FT_CHAOS_KILL` marker for the launcher to
/// SIGKILL it (aborting itself if nobody does). Fail-point failures need
/// the in-process notice board and are refused here.
/// Terminal communication faults (an unhealable partition's agreement
/// deadline, raised as a typed [`CommError::Partitioned`] unwind) are
/// caught and surfaced as `Err` so every surviving rank process can exit
/// with the identical typed error instead of a panic trace. Genuine
/// panics still propagate.
pub fn run_distributed<R>(
    p: usize,
    q: usize,
    script: FaultScript,
    transport: Box<dyn Transport>,
    f: impl FnOnce(Ctx) -> R,
) -> Result<R, CommError> {
    // Real peers can die at any time, scripted or not: interrupt unwinds
    // are normal control flow here, keep them off stderr.
    detect::install_quiet_interrupt_hook();
    let ctx = comm::distributed_ctx(Grid::new(p, q), script, transport);
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx))) {
        Ok(v) => Ok(v),
        Err(payload) => match payload.downcast::<CommError>() {
            Ok(e) => Err(*e),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One kill on a 2-rank world: `RANK@OP`.
    fn kill_at(at: &str) -> FaultScript {
        FaultScript::parse(&format!("0:at={at}"), 2, 0..1).unwrap()
    }

    #[test]
    fn spmd_runs_all_ranks() {
        let out = run_spmd(2, 3, FaultScript::none(), |ctx| ctx.rank());
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn spmd_single_process() {
        let out = run_spmd(1, 1, FaultScript::none(), |ctx| {
            ctx.barrier();
            ctx.myrow() + ctx.mycol()
        });
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn chaos_kill_unwinds_victim_and_revokes_survivors() {
        // Rank 1 dies at its very first armed op (a send); rank 0's blocked
        // recv observes the revocation instead of deadlocking. Both then
        // agree on the victim set and finish in the new epoch.
        let out = run_spmd(1, 2, kill_at("1@0"), |ctx| {
            ctx.arm_chaos();
            let r = catch_interrupt(|| {
                if ctx.rank() == 1 {
                    ctx.send(0, 7, &[1.0]); // chaos kills rank 1 here
                    unreachable!("victim survived its own death");
                } else {
                    let _ = ctx.recv(1, 7); // unwinds on revocation
                    unreachable!("survivor missed the revocation");
                }
            });
            let interrupt = r.unwrap_err();
            let expect = if ctx.rank() == 1 { InterruptReason::Died } else { InterruptReason::Revoked };
            assert_eq!(interrupt.reason, expect);
            let agreed = ctx.agree_on_failures();
            assert_eq!(agreed.victims, vec![1], "divergent victim set");
            assert_eq!(agreed.epoch, 1);
            // The replacement's endpoint is reopened: traffic flows again.
            if ctx.rank() == 0 {
                ctx.send(1, 8, &[2.0]);
            } else {
                assert_eq!(ctx.recv(0, 8), vec![2.0]);
            }
            agreed.victims
        });
        assert_eq!(out, vec![vec![1], vec![1]]);
    }

    #[test]
    fn chaos_not_armed_means_no_kills() {
        // The script targets op 0, but the algorithm never arms chaos:
        // nothing dies.
        let out = run_spmd(1, 2, kill_at("1@0"), |ctx| {
            if ctx.rank() == 1 {
                ctx.send(0, 7, &[1.0]);
                0
            } else {
                ctx.recv(1, 7).len()
            }
        });
        assert_eq!(out, vec![1, 0]);
    }

    #[test]
    fn sdc_flips_queue_on_the_op_clock_and_drain_once() {
        let sdc = FaultScript::none().with_flips(vec![SdcFlip { victim: 1, op: 1, word: 5, bit: 40 }]);
        run_spmd(1, 2, sdc, |ctx| {
            // Not armed yet: the clock is dead, nothing can queue.
            assert!(!ctx.sdc_enabled());
            ctx.arm_chaos();
            assert!(ctx.sdc_enabled());
            if ctx.rank() == 1 {
                ctx.send(0, 7, &[1.0]); // op 0
                assert!(ctx.take_sdc_flips().is_empty(), "flip fired an op early");
                ctx.send(0, 7, &[2.0]); // op 1: the flip queues here
                assert_eq!(ctx.take_sdc_flips(), vec![SdcFlip { victim: 1, op: 1, word: 5, bit: 40 }]);
                // Drained exactly once.
                assert!(ctx.take_sdc_flips().is_empty());
            } else {
                let _ = ctx.recv(1, 7);
                let _ = ctx.recv(1, 7);
                // Ops tick on this rank too, but it is not the victim.
                assert!(ctx.take_sdc_flips().is_empty());
            }
            ctx.disarm_chaos();
        });
    }

    #[test]
    fn stale_epoch_messages_are_dropped_after_agreement() {
        use std::time::Duration;
        let out = run_spmd(1, 2, kill_at("1@2"), |ctx| {
            ctx.arm_chaos();
            let r = catch_interrupt(|| {
                if ctx.rank() == 1 {
                    ctx.send(0, 7, &[1.0]); // op 0: delivered, but never received
                    ctx.send(0, 7, &[2.0]); // op 1: straggler in rank 0's inbox
                    ctx.send(0, 7, &[3.0]); // op 2: chaos kills rank 1 here
                    unreachable!();
                } else {
                    // Block on a tag rank 1 never sends, so the pre-death
                    // messages sit in the inbox when revocation hits.
                    let _ = ctx.recv(1, 99);
                    unreachable!();
                }
            });
            assert!(r.is_err());
            ctx.agree_on_failures();
            if ctx.rank() == 0 {
                // Epoch-0 stragglers on tag 7 must be invisible now.
                let stale = ctx.try_recv(1, 7, Duration::from_millis(50));
                assert_eq!(stale, Err(CommError::Timeout), "stale-epoch message leaked");
            }
            ctx.barrier();
            // Fresh traffic in the new epoch flows normally.
            if ctx.rank() == 1 {
                ctx.send(0, 7, &[9.0]);
            } else {
                assert_eq!(ctx.recv(1, 7), vec![9.0]);
            }
            true
        });
        assert_eq!(out, vec![true, true]);
    }
}
