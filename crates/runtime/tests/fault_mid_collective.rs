//! Failure-path regression: a victim scripted at a fail point adjacent to
//! a tree collective must be observed identically by every survivor, and
//! the collectives before and after the failure must still complete with
//! correct (and deterministic) results — the tree's interior forwarding
//! must not smear messages across the fail-point boundary.

use ft_pblas::{pdlahrd, Desc, DistMatrix};
use ft_runtime::{catch_interrupt, run_spmd, ChaosKill, ChaosPoint, FaultScript, InterruptReason, PlannedFailure};

#[test]
fn victim_at_tree_collective_boundary_is_seen_consistently() {
    let (p, q) = (4usize, 4usize);
    let victim = 5usize;
    let point = 70u64;
    let checks = run_spmd(p, q, FaultScript::one(victim, point), move |ctx| {
        let w = p * q;

        // A tree collective right before the fail point…
        let mut v = vec![ctx.rank() as f64 + 1.0];
        ctx.allreduce_sum_world(&mut v, 400);
        assert_eq!(v[0], (w * (w + 1) / 2) as f64);

        // …the victim dies here…
        let victims = ctx.check_failpoint(point);

        // …and a tree collective right after still completes for everyone
        // (the simulated victim keeps participating as its replacement).
        let mut b = if ctx.rank() == 2 { vec![9.0; 65] } else { vec![] };
        ctx.bcast_world(2, &mut b, 402);
        assert_eq!(b, vec![9.0; 65]);
        victims
    });

    for (rank, victims) in checks.iter().enumerate() {
        assert_eq!(victims, &vec![victim], "rank {rank} saw the wrong victim list");
    }
}

#[test]
fn simultaneous_victims_between_collectives_are_seen_identically() {
    // Two victims at one fail point sandwiched between a reduce and a
    // broadcast; every rank must report the same (sorted) victim list even
    // though tree traffic surrounds the point.
    let script = FaultScript::new(vec![PlannedFailure { victim: 1, point: 9 }, PlannedFailure { victim: 6, point: 9 }]);
    let out = run_spmd(2, 4, script, |ctx| {
        let mut v = vec![1.0; 8];
        ctx.reduce_sum_col(0, &mut v, 500);
        let victims = ctx.check_failpoint(9);
        let mut b = vec![ctx.myrow() as f64];
        ctx.bcast_row(0, &mut b, 502);
        assert_eq!(b, vec![ctx.myrow() as f64]);
        victims
    });
    for v in &out {
        assert_eq!(v, &vec![1, 6], "victim lists diverged across survivors");
    }
}

#[test]
fn victim_between_two_rounds_of_a_world_allreduce_interrupts_everyone() {
    // Eight members, three rounds, a send and a receive per round: op 2 is
    // the victim's round-2 send. Its round-1 sum is already with rank 4, so
    // half the world (0, 2, 4, 6) can finish this all-reduce while the other
    // half waits on the victim or on someone who does; the next collective
    // must stop the finishers too.
    let victim = 5usize;
    let script = FaultScript::none().with_kills(vec![ChaosKill { victim, at: ChaosPoint::Op(2) }]);
    let out = run_spmd(2, 4, script, move |ctx| {
        ctx.arm_chaos();
        let interrupt = catch_interrupt(|| {
            let mut v = vec![ctx.rank() as f64; 3];
            ctx.allreduce_sum_world(&mut v, 600);
            ctx.allreduce_sum_world(&mut v, 602);
        })
        .expect_err("nobody gets through two all-reduces a member died in");
        let expect = if ctx.rank() == victim {
            InterruptReason::Died
        } else {
            InterruptReason::Revoked
        };
        assert_eq!(interrupt.reason, expect, "rank {}", ctx.rank());
        let agreed = ctx.agree_on_failures();
        // The replacement is back: the same collective completes.
        let mut v = vec![ctx.rank() as f64; 3];
        ctx.allreduce_sum_world(&mut v, 604);
        assert_eq!(v, vec![28.0; 3]);
        agreed.victims
    });
    assert_eq!(out, vec![vec![victim]; 8]);
}

#[test]
fn victim_between_the_two_rounds_of_a_panels_row_allreduce_interrupts_everyone() {
    // A 1×4 Hessenberg panel owned by column 0. Rank 2's clock: op 0 takes
    // the panel block from rank 0, op 1 forwards it to rank 3; column 0's
    // row all-reduce is ops 2 (send) and 3 (receive) with rank 3, then op 4,
    // the round-2 send to rank 0 — where it dies. Rank 3 already holds the
    // victim's round-1 sum; ranks 0 and 1 wait on the victim or on rank 3.
    // A panel is all-reduce after all-reduce, so nobody gets to its end.
    let (q, n, nb) = (4usize, 24usize, 4usize);
    let victim = 2usize;
    let script = FaultScript::none().with_kills(vec![ChaosKill { victim, at: ChaosPoint::Op(4) }]);
    let out = run_spmd(1, q, script, move |ctx| {
        let fresh = || DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        ctx.arm_chaos();
        let mut a = fresh();
        let interrupt = catch_interrupt(|| {
            pdlahrd(&ctx, &mut a, n, 0, nb);
        })
        .expect_err("nobody finishes a panel a member died in");
        let expect = if ctx.rank() == victim {
            InterruptReason::Died
        } else {
            InterruptReason::Revoked
        };
        assert_eq!(interrupt.reason, expect, "rank {}", ctx.rank());
        if ctx.rank() == victim {
            assert_eq!(ctx.chaos_ops(), 5, "the victim stopped at op 4");
        }
        let agreed = ctx.agree_on_failures();
        // The replacement is back: the same panel completes, replicated.
        let mut a = fresh();
        let f = pdlahrd(&ctx, &mut a, n, 0, nb);
        (agreed.victims, f.tau.iter().map(|t| t.to_bits()).collect::<Vec<_>>())
    });
    for (victims, tau) in &out {
        assert_eq!(victims, &vec![victim]);
        assert_eq!(tau, &out[0].1);
    }
}
