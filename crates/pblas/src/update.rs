//! Distributed trailing-matrix updates (the `PDGEMM` / `PDLARFB` steps of
//! Algorithm 1, and of the ABFT Algorithms 2 and 3 which additionally route
//! checksum columns through the same code paths).
//!
//! Both updates take an explicit list of **local** column indices plus the
//! per-column right-operand rows, so the ABFT layer can extend them to the
//! checksum columns (whose "V row" is the pseudo checksum `Ve` row rather
//! than a row of `V` — see paper §4/§5).
//!
//! The [`PackedA`] prepacks below inherit the full DESIGN.md §14
//! determinism contract: `gemm_packed_a` is bitwise identical to
//! pack-on-the-fly `gemm` under every microkernel ISA, so routing data and
//! checksum columns through the same prepacked panel keeps Theorem 1's
//! "same linear update" literal regardless of how the host dispatches the
//! kernel — and regardless of whether the kernel copies its right-hand
//! operand first:
//! `W = Vᵀ·C` (m = `w`) reads the trailing and checksum columns of `C` where
//! they lie, which changes no element's op sequence.

use crate::dist::DistMatrix;
use crate::panel::PanelFactors;
use ft_dense::level3::{gemm_packed_a, trmm, PackedA};
use ft_dense::{Diag, Matrix, Side, Trans, UpLo};
use ft_runtime::{Ctx, Tag};

const TAG_LARFB_W: Tag = Tag::Trailing(8);

/// Split a sorted list of local column indices into maximal contiguous runs
/// `(start_position_in_list, first_lc, len)` so updates can use one GEMM per
/// run instead of one GEMV per column.
fn contiguous_runs(local_cols: &[usize]) -> Vec<(usize, usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < local_cols.len() {
        let start = i;
        let lc0 = local_cols[i];
        while i + 1 < local_cols.len() && local_cols[i + 1] == local_cols[i] + 1 {
            i += 1;
        }
        runs.push((start, lc0, i - start + 1));
        i += 1;
    }
    runs
}

/// Right update `A(0..row_limit_g, cols) ← A(…) − Y·vrowsᵀ` (the paper's
/// `PDGEMM: trail(Aₑ) = trail(Aₑ) − Y·(Vₑ)ᵀ`).
///
/// * `local_cols` — sorted local column indices to update;
/// * `vrows` — `len(local_cols)×w`; row `i` is the (pseudo) `V` row of the
///   global column behind `local_cols[i]`;
/// * `y_loc` — `Y` on this process's local rows `< row_limit_g` (row `lr`
///   of `y_loc` corresponds to local row `lr` of `a`).
///
/// Purely local (no communication): `Y` is already replicated row-wise.
pub fn right_update(a: &mut DistMatrix, row_limit_g: usize, local_cols: &[usize], vrows: &Matrix, y_loc: &Matrix) {
    assert_eq!(vrows.rows(), local_cols.len());
    let w = vrows.cols();
    let m = a.local_rows_below(row_limit_g);
    assert!(y_loc.rows() >= m, "right_update: y_loc too short");
    assert_eq!(y_loc.cols(), w);
    if m == 0 || local_cols.is_empty() || w == 0 {
        return;
    }
    let ldl = a.local().ld().max(1);
    let nv = vrows.rows();
    // Y is the constant left operand of every run — original trailing
    // columns and checksum columns alike — so pack it exactly once and sweep
    // the packed panels over each run (tall-skinny friendly: the Delayed
    // variant's scope-boundary catch-up produces many short runs).
    let py = PackedA::pack(Trans::No, m, w, y_loc.as_slice(), y_loc.rows().max(1));
    for (pos, lc0, len) in contiguous_runs(local_cols) {
        // C(0..m, lc0..lc0+len) −= Y(0..m, :) · vrows(pos..pos+len, :)ᵀ
        let cbuf = &mut a.local_mut().as_mut_slice()[lc0 * ldl..];
        gemm_packed_a(&py, Trans::Yes, len, -1.0, &vrows.as_slice()[pos..], nv, 1.0, cbuf, ldl);
    }
}

/// Left update `A(row0_g..row_limit_g, cols) ← (I − V·T·Vᵀ)ᵀ·A(…)`
/// (the paper's `PDLARFB: trail(Aₑ) −= V·Tᵀ·Vᵀ·trail(Aₑ)`).
///
/// Collective within each process **column** (the `W = Vᵀ·C` reduction runs
/// down process columns); every process must call it, even with an empty
/// column list — the reduction shape only depends on the caller's own list,
/// which is identical down a process column.
///
/// * `row0_g` — first global row the block reflector acts on (the panel's
///   `k + v_row_offset`: `k+1` for Hessenberg, `k` for QR);
/// * `v_myrows` — `V` restricted to this process's local rows in
///   `[row0_g, row_limit_g)` (see [`PanelFactors::v_for_local_rows`]);
/// * `t` — the replicated `w×w` WY factor.
pub fn left_update(
    ctx: &Ctx,
    a: &mut DistMatrix,
    row0_g: usize,
    row_limit_g: usize,
    local_cols: &[usize],
    v_myrows: &Matrix,
    t: &Matrix,
) {
    left_update_op(ctx, a, row0_g, row_limit_g, local_cols, v_myrows, t, Trans::Yes)
}

/// [`left_update`] with an explicit choice of the `T` operator:
/// [`Trans::Yes`] applies `Qᵀ = I − V·Tᵀ·Vᵀ` (the reduction's left update);
/// [`Trans::No`] applies `Q = I − V·T·Vᵀ` (used when *verifying*: the
/// residuals of [`crate::verify`] apply `Q` from the left).
#[allow(clippy::too_many_arguments)]
pub fn left_update_op(
    ctx: &Ctx,
    a: &mut DistMatrix,
    row0_g: usize,
    row_limit_g: usize,
    local_cols: &[usize],
    v_myrows: &Matrix,
    t: &Matrix,
    t_op: Trans,
) {
    let w = t.rows();
    assert_eq!(t.cols(), w);
    assert_eq!(v_myrows.cols(), w);
    let lr0 = a.local_rows_below(row0_g);
    let lrn = a.local_rows_below(row_limit_g);
    let m = lrn - lr0;
    assert_eq!(v_myrows.rows(), m, "left_update: v_myrows rows");
    let nc = local_cols.len();
    let ldl = a.local().ld().max(1);

    // W = Vᵀ·C (w × nc): local partial, then column sum-reduce. V is the
    // constant operand across every run (data and checksum columns), so its
    // two orientations are each packed once and reused per run.
    let mut wbuf = vec![0.0f64; w * nc];
    if m > 0 && nc > 0 {
        let pvt = PackedA::pack(Trans::Yes, w, m, v_myrows.as_slice(), m.max(1));
        for (pos, lc0, len) in contiguous_runs(local_cols) {
            let cbuf = &a.local().as_slice()[lc0 * ldl + lr0..];
            gemm_packed_a(&pvt, Trans::No, len, 1.0, cbuf, ldl, 0.0, &mut wbuf[pos * w..], w);
        }
    }
    ctx.allreduce_sum_col(&mut wbuf, TAG_LARFB_W);
    if nc == 0 {
        return;
    }
    // W ← op(T)·W
    trmm(Side::Left, UpLo::Upper, t_op, Diag::NonUnit, w, nc, 1.0, t.as_slice(), w, &mut wbuf, w);
    // C −= V·W (local)
    if m > 0 {
        let pv = PackedA::pack(Trans::No, m, w, v_myrows.as_slice(), m.max(1));
        for (pos, lc0, len) in contiguous_runs(local_cols) {
            let cbuf = &mut a.local_mut().as_mut_slice()[lc0 * ldl + lr0..];
            gemm_packed_a(&pv, Trans::No, len, -1.0, &wbuf[pos * w..], w, 1.0, cbuf, ldl);
        }
    }
}

/// The full post-panel update of Algorithm 1 on the **original** matrix
/// columns: right update of the trailing columns, top-row fix of the
/// within-panel columns, left update of the trailing columns.
///
/// `col_limit_g` bounds the updated columns (`n` for the plain reduction;
/// the ABFT layer passes its own ranges and additionally updates checksum
/// columns through [`right_update`]/[`left_update`] directly).
pub fn apply_panel_updates(ctx: &Ctx, a: &mut DistMatrix, f: &PanelFactors, col_limit_g: usize) {
    let (k, w, n) = (f.k, f.w, f.n);
    debug_assert!(col_limit_g <= n);

    // ---- right update of trailing columns (all rows 0..n) -----------------
    let lc_t0 = a.local_cols_below(k + w);
    let lc_t1 = a.local_cols_below(col_limit_g);
    let trail_cols: Vec<usize> = (lc_t0..lc_t1).collect();
    let trail_g: Vec<usize> = trail_cols.iter().map(|&lc| a.l2g_col(lc)).collect();
    let vrows = f.vrows_for(&trail_g);
    right_update(a, n, &trail_cols, &vrows, &f.y_loc);

    // (The top-row fix of the within-panel columns happens inside pdlahrd —
    // the panel block column leaves the panel step already final, so the
    // ABFT bookkeeping copy is its final state.)

    // ---- left update of trailing columns (rows k+1..n) --------------------
    let v_myrows = f.v_for_local_rows(a);
    left_update(ctx, a, k + 1, n, &trail_cols, &v_myrows, &f.t);
}

/// The full post-panel update of right-looking QR on the **original**
/// matrix columns: the left update `A(k..n, k+w..col_limit_g) ← Qᵀ·A(…)` —
/// QR has no trailing right update (the factorization only multiplies from
/// the left), which is exactly why its checksum *columns* survive every
/// update untouched (paper §4: left updates preserve column checksums).
pub fn apply_qr_panel_updates(ctx: &Ctx, a: &mut DistMatrix, f: &PanelFactors, col_limit_g: usize) {
    let (k, w, n) = (f.k, f.w, f.n);
    debug_assert!(col_limit_g <= n);
    debug_assert_eq!(f.v_row_offset, 0);
    let lc_t0 = a.local_cols_below(k + w);
    let lc_t1 = a.local_cols_below(col_limit_g);
    let trail_cols: Vec<usize> = (lc_t0..lc_t1).collect();
    let v_myrows = f.v_for_local_rows(a);
    left_update(ctx, a, k, n, &trail_cols, &v_myrows, &f.t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Desc;
    use ft_dense::gen::uniform_entry;
    use ft_runtime::{run_spmd, FaultScript};

    #[test]
    fn runs_detection() {
        assert_eq!(contiguous_runs(&[]), vec![]);
        assert_eq!(contiguous_runs(&[4]), vec![(0, 4, 1)]);
        assert_eq!(contiguous_runs(&[1, 2, 3, 7, 9, 10]), vec![(0, 1, 3), (3, 7, 1), (4, 9, 2)]);
    }

    /// One panel + apply_panel_updates must reproduce one outer iteration of
    /// the shared-memory gehrd.
    #[test]
    fn one_blocked_iteration_matches_shared() {
        let n = 17;
        let nb = 4;
        let seed = 123;

        // Shared-memory reference: run gehrd manually for exactly one panel.
        let mut aref = ft_dense::gen::uniform_indexed_matrix(n, n, seed);
        {
            let mut tau = vec![0.0; nb];
            let mut t = ft_dense::Matrix::zeros(nb, nb);
            let mut y = ft_dense::Matrix::zeros(n, nb);
            ft_lapack::lahr2(&mut aref, 0, nb, &mut tau, &mut t, &mut y);
            // right update
            let ei = aref[(nb, nb - 1)];
            aref[(nb, nb - 1)] = 1.0;
            {
                let lda = n;
                let (vpart, cpart) = aref.as_mut_slice().split_at_mut(nb * lda);
                let vb = &vpart[nb..];
                ft_dense::level3::gemm(Trans::No, Trans::Yes, n, n - nb, nb, -1.0, y.as_slice(), n, vb, lda, 1.0, cpart, lda);
            }
            aref[(nb, nb - 1)] = ei;
            // top fix (k = 0 → rows 0..=0); the distributed code does this
            // inside pdlahrd, the combined iteration result is identical.
            {
                let mut wtop = ft_dense::Matrix::from_fn(1, nb - 1, |i, jj| y[(i, jj)]);
                let lda = n;
                let abuf = aref.as_slice().to_vec();
                ft_dense::level3::trmm(
                    Side::Right,
                    UpLo::Lower,
                    Trans::Yes,
                    Diag::Unit,
                    1,
                    nb - 1,
                    1.0,
                    &abuf[1..],
                    lda,
                    wtop.as_mut_slice(),
                    1,
                );
                for jj in 0..nb - 1 {
                    aref[(0, 1 + jj)] -= wtop[(0, jj)];
                }
            }
            // left update
            {
                let lda = n;
                let (vpart, cpart) = aref.as_mut_slice().split_at_mut(nb * lda);
                let v = &vpart[1..];
                ft_lapack::householder::larfb(
                    Side::Left,
                    Trans::Yes,
                    n - 1,
                    n - nb,
                    nb,
                    v,
                    lda,
                    t.as_slice(),
                    nb,
                    &mut cpart[1..],
                    lda,
                );
            }
        }

        for (p, q) in [(2usize, 3usize), (2, 2), (1, 2), (3, 1)] {
            let aref = aref.clone();
            run_spmd(p, q, FaultScript::none(), move |ctx| {
                let mut a =
                    DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| ft_dense::gen::uniform_entry(seed, i, j));
                let f = crate::panel::pdlahrd(&ctx, &mut a, n, 0, nb);
                apply_panel_updates(&ctx, &mut a, &f, n);
                let ag = a.gather_all(&ctx, 991);
                let d = ag.max_abs_diff(&aref);
                assert!(d < 1e-10, "grid {}x{}: diff {d}", ctx.nprow(), ctx.npcol());
            });
        }
    }

    /// Theorem 1's "same linear update", literally: one call over a
    /// `[trailing | gap | checksum-like]` column list — two contiguous runs,
    /// the last one ragged — leaves every column with the bits the same
    /// update gives it alone. `W = Vᵀ·C` reads `C` in place whatever the run
    /// (m = w); `C −= V·W` and `C −= Y·Vᵀ` pack their small operand when
    /// the local rows exceed the kernel's in-place bound (P = 1) and read it
    /// in place below it (P = 2). Local rows are never a multiple of 16.
    #[test]
    fn updates_over_column_runs_equal_one_column_at_a_time_bitwise() {
        let (rows, cols, nb, w, seed) = (150usize, 24usize, 4usize, 6usize, 77u64);
        let list: Vec<usize> = (3..14).chain(17..22).collect();
        let (row0, row_limit) = (5usize, rows - 3);
        for p in [1usize, 2] {
            let list = list.clone();
            run_spmd(p, 1, FaultScript::none(), move |ctx| {
                let fresh = || DistMatrix::from_global_fn(&ctx, Desc { m: rows, n: cols, nb }, |i, j| uniform_entry(seed, i, j));
                let bits = |a: &DistMatrix| a.local().as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
                let a0 = fresh();
                let (lr0, lrn) = (a0.local_rows_below(row0), a0.local_rows_below(row_limit));
                assert!(!(lrn - lr0).is_multiple_of(16) && !lrn.is_multiple_of(16), "local rows {lr0}..{lrn}");
                let v_myrows = Matrix::from_fn(lrn - lr0, w, |i, l| uniform_entry(seed + 1, a0.l2g_row(lr0 + i), l));
                let t = Matrix::from_fn(w, w, |i, j| if i <= j { uniform_entry(seed + 2, i, j) } else { 0.0 });
                let y_loc = Matrix::from_fn(lrn, w, |i, l| uniform_entry(seed + 3, a0.l2g_row(i), l));
                let vrows = Matrix::from_fn(list.len(), w, |i, l| uniform_entry(seed + 4, list[i], l));

                let (mut whole, mut single) = (fresh(), fresh());
                left_update(&ctx, &mut whole, row0, row_limit, &list, &v_myrows, &t);
                for &lc in &list {
                    left_update(&ctx, &mut single, row0, row_limit, &[lc], &v_myrows, &t);
                }
                assert_eq!(bits(&whole), bits(&single), "left update, P={p} rank {}", ctx.rank());
                assert_ne!(bits(&whole), bits(&a0), "left update changed nothing");

                right_update(&mut whole, row_limit, &list, &vrows, &y_loc);
                for (i, &lc) in list.iter().enumerate() {
                    let vrow = Matrix::from_fn(1, w, |_, l| vrows[(i, l)]);
                    right_update(&mut single, row_limit, &[lc], &vrow, &y_loc);
                }
                assert_eq!(bits(&whole), bits(&single), "right update, P={p} rank {}", ctx.rank());
            });
        }
    }
}
