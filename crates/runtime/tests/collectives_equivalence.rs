//! Equivalence and determinism regression tests for the tree collectives.
//!
//! * Tree broadcast/reduce/all-reduce must produce the same results as a
//!   straightforward linear (root-loop) reference on every grid from 1×1
//!   to 4×4. The reduce comparison uses integer-valued data, where both
//!   association orders are exact — floating-point association is covered
//!   separately by the bitwise run-to-run test below.
//! * Repeated runs on association-sensitive float data must agree
//!   **bitwise**: the tree shape is fixed, so recovery replay stays
//!   bit-exact.

use ft_runtime::{run_spmd, Ctx, FaultScript};

/// Reference linear broadcast: root sends a full copy to every member.
fn linear_bcast(ctx: &Ctx, members: &[usize], root: usize, data: &mut Vec<f64>, tag: u64) {
    if ctx.rank() == root {
        for &m in members {
            if m != root {
                ctx.send(m, tag, data);
            }
        }
    } else if members.contains(&ctx.rank()) {
        *data = ctx.recv(root, tag);
    }
}

/// Reference linear reduction: root receives every member's contribution
/// and sums them in member order.
fn linear_reduce(ctx: &Ctx, members: &[usize], root: usize, data: &mut [f64], tag: u64) {
    if ctx.rank() == root {
        let mine = data.to_vec();
        data.fill(0.0);
        for &m in members {
            let part = if m == root { mine.clone() } else { ctx.recv(m, tag) };
            for (d, s) in data.iter_mut().zip(&part) {
                *d += s;
            }
        }
    } else if members.contains(&ctx.rank()) {
        ctx.send(root, tag, data);
    }
}

/// Integer-valued per-rank payload: sums are exact under any association,
/// so tree and linear results must be identical to the last bit.
fn payload(rank: usize, len: usize) -> Vec<f64> {
    (0..len).map(|i| (rank * 31 + i * 7 + 1) as f64).collect()
}

#[test]
fn tree_broadcast_matches_linear_reference_on_all_grids() {
    for p in 1..=4usize {
        for q in 1..=4usize {
            let w = p * q;
            for root in [0, w / 2, w - 1] {
                run_spmd(p, q, FaultScript::none(), move |ctx| {
                    let world: Vec<usize> = (0..w).collect();
                    let mut tree = payload(ctx.rank(), 9);
                    let mut lin = tree.clone();
                    ctx.bcast_world(root, &mut tree, 100);
                    linear_bcast(&ctx, &world, root, &mut lin, 102);
                    assert_eq!(tree, lin, "{p}x{q} world bcast from {root} diverged on rank {}", ctx.rank());

                    // Row/column broadcasts from the root's coordinates.
                    let (rp, rq) = ctx.grid().coords_of(root);
                    let mut tree = payload(ctx.rank(), 5);
                    let mut lin = tree.clone();
                    ctx.bcast_row(rq, &mut tree, 104);
                    linear_bcast(&ctx, ctx.row_ranks(), ctx.grid().rank_of(ctx.myrow(), rq), &mut lin, 106);
                    assert_eq!(tree, lin, "{p}x{q} row bcast diverged");

                    let mut tree = payload(ctx.rank(), 5);
                    let mut lin = tree.clone();
                    ctx.bcast_col(rp, &mut tree, 108);
                    linear_bcast(&ctx, ctx.col_ranks(), ctx.grid().rank_of(rp, ctx.mycol()), &mut lin, 110);
                    assert_eq!(tree, lin, "{p}x{q} col bcast diverged");
                });
            }
        }
    }
}

#[test]
fn tree_reduce_matches_linear_reference_on_all_grids() {
    for p in 1..=4usize {
        for q in 1..=4usize {
            let w = p * q;
            for root in [0, w - 1] {
                run_spmd(p, q, FaultScript::none(), move |ctx| {
                    let world: Vec<usize> = (0..w).collect();
                    let (rp, rq) = ctx.grid().coords_of(root);

                    // World all-reduce vs linear reduce + linear bcast.
                    let mut tree = payload(ctx.rank(), 7);
                    let mut lin = tree.clone();
                    ctx.allreduce_sum_world(&mut tree, 200);
                    linear_reduce(&ctx, &world, 0, &mut lin, 202);
                    linear_bcast(&ctx, &world, 0, &mut lin, 204);
                    assert_eq!(tree, lin, "{p}x{q} world allreduce diverged on rank {}", ctx.rank());

                    // Row reduce: compare at the root column only (non-root
                    // buffers are scratch in both implementations).
                    let mut tree = payload(ctx.rank(), 4);
                    let mut lin = tree.clone();
                    ctx.reduce_sum_row(rq, &mut tree, 206);
                    linear_reduce(&ctx, ctx.row_ranks(), ctx.grid().rank_of(ctx.myrow(), rq), &mut lin, 208);
                    if ctx.mycol() == rq {
                        assert_eq!(tree, lin, "{p}x{q} row reduce diverged");
                    }

                    // Column reduce likewise.
                    let mut tree = payload(ctx.rank(), 4);
                    let mut lin = tree.clone();
                    ctx.reduce_sum_col(rp, &mut tree, 210);
                    linear_reduce(&ctx, ctx.col_ranks(), ctx.grid().rank_of(rp, ctx.mycol()), &mut lin, 212);
                    if ctx.myrow() == rp {
                        assert_eq!(tree, lin, "{p}x{q} col reduce diverged");
                    }
                });
            }
        }
    }
}

#[test]
fn repeated_runs_are_bit_identical_on_association_sensitive_data() {
    // Float data where summation order changes the rounding: the fixed
    // tree shape must still give the same bits on every run, on every
    // grid shape it will later be asked to replay on.
    for (p, q) in [(1usize, 1usize), (2, 2), (3, 2), (2, 4), (4, 4)] {
        let run = || {
            run_spmd(p, q, FaultScript::none(), |ctx| {
                let mut v = vec![1.0 / (ctx.rank() as f64 + 3.0), 1e16, -1e16, std::f64::consts::PI];
                ctx.allreduce_sum_world(&mut v, 300);
                ctx.allreduce_sum_row(&mut v, 302);
                ctx.allreduce_sum_col(&mut v, 304);
                let mut w = v.clone();
                ctx.reduce_sum_row(0, &mut w, 306);
                ctx.bcast_row(0, &mut w, 308);
                v.extend_from_slice(&w);
                v
            })
        };
        let a = run();
        let b = run();
        for (ra, rb) in a.iter().zip(&b) {
            for (xa, xb) in ra.iter().zip(rb) {
                assert_eq!(xa.to_bits(), xb.to_bits(), "{p}x{q}: nondeterministic tree collective");
            }
        }
    }
}
