//! Distributed matrix-matrix multiply (`PDGEMM`) via the SUMMA algorithm:
//! `C ← α·A·op(B) + β·C` for 2D block-cyclic matrices sharing the grid and
//! blocking factor.
//!
//! The contraction dimension is processed in panels of `nb`: the `A` panel
//! (a block column) is broadcast along process rows; the `B` panel along
//! process columns (for `op = Bᵀ`, the panel is first assembled down the
//! column — acceptable for this library's use of `pdgemm` with a transposed
//! operand, which is result verification, not inner loops). One local GEMM
//! per panel does the arithmetic.
//!
//! ## Pipelined broadcasts (`op(B) = B`)
//!
//! The untransposed path is *software-pipelined*: the broadcasts for panel
//! `t+1` are posted eagerly ([`Ctx::post_bcast_row`]) before the local GEMM
//! of panel `t` runs, with the two in-flight panels double-buffered on
//! alternating tag pairs so they can never cross-talk. The panel owners'
//! sends therefore travel while every rank is busy multiplying, removing the
//! synchronous broadcast bubble between SUMMA steps that the TrafficLedger's
//! per-phase timings made visible. Total traffic is unchanged (P−1 messages
//! per broadcast, same payloads) — only the waiting moves.
//!
//! Only `A` untransposed is supported (`op(A) = A`); `B` may be transposed.
//! That covers `Q·H` and `(QH)·Qᵀ` — the distributed residual pipeline.

use crate::dist::DistMatrix;
use ft_dense::level3::gemm;
use ft_dense::{Matrix, Trans};
use ft_runtime::{Ctx, PendingBcast, Tag};

// Double-buffered tag pairs: in-flight panel t uses parity t%2, so the
// pipelined panel t+1 always lives on the other pair.
const TAG_APAN: [Tag; 2] = [Tag::Trailing(0), Tag::Trailing(4)];
const TAG_BPAN: [Tag; 2] = [Tag::Trailing(1), Tag::Trailing(5)];
const TAG_BGATH: Tag = Tag::Trailing(2);
const TAG_BRED: Tag = Tag::Trailing(3);

/// `C ← α·A·op(B) + β·C` on distributed operands (SPMD, collective).
///
/// Shapes (logical, checked): `A` is `m×kk`, `op(B)` is `kk×n`, `C` is
/// `m×n`; all three must share `nb` and live on the caller's grid. The
/// logical dims are taken from the descriptors.
#[allow(clippy::many_single_char_names)]
pub fn pdgemm(ctx: &Ctx, transb: Trans, alpha: f64, a: &DistMatrix, b: &DistMatrix, beta: f64, c: &mut DistMatrix) {
    let (m, kk) = (a.desc().m, a.desc().n);
    let (bn_rows, bn_cols) = (b.desc().m, b.desc().n);
    let (cm, cn) = (c.desc().m, c.desc().n);
    let n = match transb {
        Trans::No => {
            assert_eq!(bn_rows, kk, "pdgemm: inner dimensions");
            bn_cols
        }
        Trans::Yes => {
            assert_eq!(bn_cols, kk, "pdgemm: inner dimensions");
            bn_rows
        }
    };
    assert_eq!((cm, cn), (m, n), "pdgemm: C shape");
    let nb = a.desc().nb;
    assert_eq!(b.desc().nb, nb);
    assert_eq!(c.desc().nb, nb);

    // β pass.
    if beta != 1.0 {
        for v in c.local_mut().as_mut_slice().iter_mut() {
            *v *= beta;
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 || kk == 0 {
        return;
    }

    let my_crows = c.lrows();
    let my_ccols = c.lcols();
    let ldl_c = c.local().ld().max(1);

    match transb {
        Trans::No => {
            // ---- pipelined SUMMA: post panel t+1, then multiply panel t ----
            // Extract-and-post one k-panel's broadcasts; non-blocking.
            let post_panel = |kb: usize| -> (PendingBcast, PendingBcast, usize) {
                let w = nb.min(kk - kb);
                let parity = (kb / nb) % 2;
                // A panel: columns kb..kb+w, posted along process rows.
                let qa = a.col_owner(kb);
                let mut abuf = Vec::new();
                if ctx.mycol() == qa {
                    abuf.resize(my_crows * w, 0.0);
                    let lc0 = a.g2l_col(kb);
                    let lda = a.local().ld().max(1);
                    for l in 0..w {
                        let col = &a.local().as_slice()[(lc0 + l) * lda..(lc0 + l) * lda + my_crows];
                        abuf[l * my_crows..(l + 1) * my_crows].copy_from_slice(col);
                    }
                }
                let pa = ctx.post_bcast_row(qa, &abuf, TAG_APAN[parity]);
                // B panel: rows kb..kb+w (transposed into w×cols), posted
                // down process columns.
                let pb_owner = b.row_owner(kb);
                let mut bbuf = Vec::new();
                if ctx.myrow() == pb_owner {
                    bbuf.resize(w * my_ccols, 0.0);
                    let lr0 = b.g2l_row(kb);
                    let ldb = b.local().ld().max(1);
                    for jj in 0..my_ccols {
                        for l in 0..w {
                            bbuf[l + jj * w] = b.local().as_slice()[(lr0 + l) + jj * ldb];
                        }
                    }
                }
                let pb = ctx.post_bcast_col(pb_owner, &bbuf, TAG_BPAN[parity]);
                (pa, pb, w)
            };

            let mut inflight = Some(post_panel(0));
            let mut kb = 0usize;
            while let Some((pa, pb, w)) = inflight.take() {
                // Complete panel t, then immediately post panel t+1 so its
                // sends overlap the local GEMM below.
                let apan = ctx.wait_bcast(pa);
                let bpan = ctx.wait_bcast(pb);
                if kb + w < kk {
                    inflight = Some(post_panel(kb + w));
                }
                if my_crows > 0 && my_ccols > 0 {
                    gemm(
                        Trans::No,
                        Trans::No,
                        my_crows,
                        my_ccols,
                        w,
                        alpha,
                        &apan,
                        my_crows.max(1),
                        &bpan,
                        w.max(1),
                        1.0,
                        c.local_mut().as_mut_slice(),
                        ldl_c,
                    );
                }
                kb += w;
            }
        }
        Trans::Yes => {
            let mut kb = 0usize;
            while kb < kk {
                let w = nb.min(kk - kb);

                // A panel: columns kb..kb+w, broadcast along process rows.
                let qa = a.col_owner(kb);
                let mut apan = vec![0.0f64; my_crows * w];
                if ctx.mycol() == qa {
                    let lc0 = a.g2l_col(kb);
                    let lda = a.local().ld().max(1);
                    for l in 0..w {
                        let col = &a.local().as_slice()[(lc0 + l) * lda..(lc0 + l) * lda + my_crows];
                        apan[l * my_crows..(l + 1) * my_crows].copy_from_slice(col);
                    }
                }
                ctx.bcast_row(qa, &mut apan, TAG_APAN[0]);

                // op(B) rows kb..kb+w = B columns kb..kb+w; each process
                // needs the entries at B-rows matching its C-columns.
                // Assemble the full n×w column panel once per step:
                // owner column broadcasts its rows along rows, then the
                // column all-reduce superimposes the row pieces.
                let qb = b.col_owner(kb);
                let bm = b.desc().m;
                let mut full = vec![0.0f64; bm * w];
                if ctx.mycol() == qb {
                    let lc0 = b.g2l_col(kb);
                    for l in 0..w {
                        let (col, dst) = (b.local().col(lc0 + l), &mut full[l * bm..(l + 1) * bm]);
                        for (i, g, len) in b.row_runs(0, b.lrows()) {
                            dst[g..g + len].copy_from_slice(&col[i..i + len]);
                        }
                    }
                }
                ctx.bcast_row(qb, &mut full, TAG_BGATH);
                ctx.allreduce_sum_col(&mut full, TAG_BRED);
                // Select the rows matching my C columns, transposed into w×cols.
                let mut bpan = Matrix::zeros(w, my_ccols);
                for (j0, g0, len) in c.col_runs(0, my_ccols) {
                    for (jj, g) in (j0..j0 + len).zip(g0..) {
                        for (l, x) in bpan.col_mut(jj).iter_mut().enumerate() {
                            *x = full[g + l * bm];
                        }
                    }
                }

                if my_crows > 0 && my_ccols > 0 {
                    gemm(
                        Trans::No,
                        Trans::No,
                        my_crows,
                        my_ccols,
                        w,
                        alpha,
                        &apan,
                        my_crows.max(1),
                        bpan.as_slice(),
                        w.max(1),
                        1.0,
                        c.local_mut().as_mut_slice(),
                        ldl_c,
                    );
                }
                kb += w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Desc;
    use ft_dense::gen::uniform_entry;
    use ft_dense::level3::gemm_naive;
    use ft_runtime::{run_spmd, FaultScript};

    fn check(m: usize, k: usize, n: usize, nb: usize, transb: Trans, p: usize, q: usize) {
        run_spmd(p, q, FaultScript::none(), move |ctx| {
            let a = DistMatrix::from_global_fn(&ctx, Desc { m, n: k, nb }, |i, j| uniform_entry(1, i, j));
            let (br, bc) = match transb {
                Trans::No => (k, n),
                Trans::Yes => (n, k),
            };
            let b = DistMatrix::from_global_fn(&ctx, Desc { m: br, n: bc, nb }, |i, j| uniform_entry(2, i, j));
            let mut c = DistMatrix::from_global_fn(&ctx, Desc { m, n, nb }, |i, j| uniform_entry(3, i, j));
            pdgemm(&ctx, transb, 1.5, &a, &b, -0.5, &mut c);

            let ag = a.gather_all(&ctx, 880);
            let bg = b.gather_all(&ctx, 882);
            let cg = c.gather_all(&ctx, 884);
            if ctx.rank() == 0 {
                let mut want = ft_dense::gen::uniform_indexed_matrix(m, n, 3);
                gemm_naive(Trans::No, transb, m, n, k, 1.5, ag.as_slice(), m, bg.as_slice(), br, -0.5, want.as_mut_slice(), m);
                let d = cg.max_abs_diff(&want);
                assert!(d < 1e-11, "m={m} k={k} n={n} nb={nb} {transb:?} {p}x{q}: diff {d}");
            }
        });
    }

    #[test]
    fn pdgemm_nn_various() {
        check(12, 9, 15, 3, Trans::No, 2, 2);
        check(8, 8, 8, 2, Trans::No, 2, 3);
        check(17, 5, 11, 4, Trans::No, 3, 2);
        check(6, 6, 6, 6, Trans::No, 1, 2);
    }

    #[test]
    fn pdgemm_nt_various() {
        check(12, 9, 15, 3, Trans::Yes, 2, 2);
        check(8, 8, 8, 2, Trans::Yes, 2, 3);
        check(10, 7, 10, 2, Trans::Yes, 3, 2);
    }

    #[test]
    fn pdgemm_alpha_zero_scales_only() {
        run_spmd(2, 2, FaultScript::none(), |ctx| {
            let a = DistMatrix::from_global_fn(&ctx, Desc { m: 6, n: 6, nb: 2 }, |_, _| 1.0);
            let b = a.clone();
            let mut c = DistMatrix::from_global_fn(&ctx, Desc { m: 6, n: 6, nb: 2 }, |_, _| 2.0);
            pdgemm(&ctx, Trans::No, 0.0, &a, &b, 0.5, &mut c);
            let cg = c.gather_all(&ctx, 886);
            assert!(cg.as_slice().iter().all(|&x| x == 1.0));
        });
    }
}
