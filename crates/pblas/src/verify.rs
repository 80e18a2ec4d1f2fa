//! Distributed verification: assemble `Q` from the stored reflectors
//! (`pd_orghr` / `pd_orgqr`, the distributed `DORGHR`/`DORGQR`), extract
//! `H` or `R`, and compute the paper's `r∞`-style residuals — all without
//! gathering the matrices to one process, so verification scales with the
//! computation.

use crate::dist::DistMatrix;
use crate::panel::{replicate_reflector_block, v_local_rows};
use crate::pdgemm::pdgemm;
use crate::update::left_update_op;
use ft_dense::Matrix;
use ft_dense::{Trans, EPS};
use ft_lapack::householder::larft;
use ft_runtime::{Ctx, Tag, TrafficLedger, TransportStats};

const TAG_NORM: Tag = Tag::User(0x170);

/// The panel partition `(k, w)` the blocked Hessenberg reduction used for
/// `n`/`nb`.
pub fn panel_blocks(n: usize, nb: usize) -> Vec<(usize, usize)> {
    let mut blocks = Vec::new();
    let mut k = 0;
    while k + 2 < n {
        let w = nb.min(n - 2 - k);
        blocks.push((k, w));
        k += w;
    }
    blocks
}

/// The panel partition `(k, w)` the blocked QR factorization used for
/// `n`/`nb` (QR reduces every column; Hessenberg stops two short).
pub fn qr_panel_blocks(n: usize, nb: usize) -> Vec<(usize, usize)> {
    let mut blocks = Vec::new();
    let mut k = 0;
    while k < n {
        let w = nb.min(n - k);
        blocks.push((k, w));
        k += w;
    }
    blocks
}

/// Assemble the orthogonal factor `Q` of a completed distributed reduction
/// (the output of `pdgehrd`/`ft_pdgehrd` with its `tau`): distributed
/// `DORGHR`. SPMD, collective.
///
/// `n` is the logical dimension (pass `a.desc().n` for plain matrices; the
/// encoded FT matrix is larger). The result lives on the same grid with the
/// same blocking.
pub fn pd_orghr(ctx: &Ctx, a: &DistMatrix, n: usize, tau: &[f64]) -> DistMatrix {
    let nb = a.desc().nb;
    let mut qm = DistMatrix::from_global_fn(ctx, crate::dist::Desc { m: n, n, nb }, |i, j| if i == j { 1.0 } else { 0.0 });
    // Q = B₀·B₁⋯B_last·I: apply the block reflectors from the last panel
    // backwards, each as Q ← (I − V·T·Vᵀ)·Q restricted to rows k+1..n.
    for &(k, w) in panel_blocks(n, nb).iter().rev() {
        let vfull = replicate_reflector_block(ctx, a, n, k, w, 1);
        // T from V and tau (replicated → local larft).
        let mut t = Matrix::zeros(w, w);
        larft(vfull.rows(), w, vfull.as_slice(), vfull.rows().max(1), &tau[k..k + w], t.as_mut_slice(), w);
        // V restricted to my local rows in [k+1, n).
        let v_myrows = v_local_rows(&vfull, k + 1, n, &qm);
        // Columns ≤ k of Q stay identity under these reflectors only if we
        // skip them — but unlike the shared-memory code we apply to all
        // local columns: the reflectors have zero rows above k+1, so
        // columns j ≤ k pick up contributions only in rows k+1.. where the
        // identity has zeros *until later blocks touch them*. Since we go
        // backwards, earlier columns are still e_j with zeros in rows k+1..
        // except entry j itself (j ≤ k < k+1), so the update is a no-op
        // there mathematically; we restrict to columns > k to save the
        // work, exactly like DORGHR.
        let lc0 = qm.local_cols_below(k + 1);
        let cols: Vec<usize> = (lc0..qm.lcols()).collect();
        left_update_op(ctx, &mut qm, k + 1, n, &cols, &v_myrows, &t, Trans::No);
    }
    qm
}

/// Assemble the orthogonal factor `Q` of a completed distributed QR
/// factorization (the output of `pdgeqrf`/`ft_pdgeqrf` with its `tau`):
/// distributed `DORGQR`. SPMD, collective. Mirrors [`pd_orghr`] with the
/// QR panel partition and reflector units on the diagonal
/// (`v_row_offset = 0`).
pub fn pd_orgqr(ctx: &Ctx, a: &DistMatrix, n: usize, tau: &[f64]) -> DistMatrix {
    let nb = a.desc().nb;
    let mut qm = DistMatrix::from_global_fn(ctx, crate::dist::Desc { m: n, n, nb }, |i, j| if i == j { 1.0 } else { 0.0 });
    for &(k, w) in qr_panel_blocks(n, nb).iter().rev() {
        let vfull = replicate_reflector_block(ctx, a, n, k, w, 0);
        let mut t = Matrix::zeros(w, w);
        larft(vfull.rows(), w, vfull.as_slice(), vfull.rows().max(1), &tau[k..k + w], t.as_mut_slice(), w);
        // V restricted to my local rows in [k, n).
        let v_myrows = v_local_rows(&vfull, k, n, &qm);
        // Going backwards, columns j < k are still e_j with zeros in the
        // reflector's row range [k, n) — a mathematical no-op we skip,
        // exactly like DORGQR. Column k itself IS in range (the unit sits
        // on the diagonal), so the restriction starts at k, not k+1.
        let lc0 = qm.local_cols_below(k);
        let cols: Vec<usize> = (lc0..qm.lcols()).collect();
        left_update_op(ctx, &mut qm, k, n, &cols, &v_myrows, &t, Trans::No);
    }
    qm
}

/// `H` of a completed reduction: copy with the reflectors zeroed below the
/// first subdiagonal (local; no communication).
pub fn pd_extract_h(ctx: &Ctx, a: &DistMatrix, n: usize) -> DistMatrix {
    logical_copy(ctx, a, n, |gc| gc + 2)
}

/// `R` of a completed QR factorization: copy with the reflectors zeroed
/// strictly below the diagonal (local; no communication).
pub fn pd_extract_r(ctx: &Ctx, a: &DistMatrix, n: usize) -> DistMatrix {
    logical_copy(ctx, a, n, |gc| gc + 1)
}

/// The logical `n×n` block of `a` as a matrix of its own, global column
/// `gc` keeping its rows `< keep(gc)` and zero below. `a` may be encoded:
/// its logical block sits at the same local indices, and rows below a
/// global cutoff are a local prefix, so each local column is one slice
/// copy.
fn logical_copy(ctx: &Ctx, a: &DistMatrix, n: usize, keep: impl Fn(usize) -> usize) -> DistMatrix {
    let mut out = DistMatrix::zeros(ctx, crate::dist::Desc { m: n, n, nb: a.desc().nb });
    for (c, gc0, len) in out.col_runs(0, out.lcols()) {
        for (lc, gc) in (c..c + len).zip(gc0..) {
            let rows = out.local_rows_below(keep(gc).min(n));
            out.local_mut().col_mut(lc)[..rows].copy_from_slice(&a.local().col(lc)[..rows]);
        }
    }
    out
}

/// Distributed infinity norm of the logical `n×n` part (replicated result).
pub fn pd_inf_norm(ctx: &Ctx, a: &DistMatrix, n: usize, tag: impl Into<Tag>) -> f64 {
    let tag = tag.into();
    let lrn = a.local_rows_below(n);
    let lcn = a.local_cols_below(n);
    let ldl = a.local().ld().max(1);
    // Partial |row| sums over my columns.
    let mut rowsum = vec![0.0f64; lrn];
    for lc in 0..lcn {
        let col = &a.local().as_slice()[lc * ldl..lc * ldl + lrn];
        for (i, v) in col.iter().enumerate() {
            rowsum[i] += v.abs();
        }
    }
    ctx.allreduce_sum_row(&mut rowsum, tag);
    let local_max = rowsum.into_iter().fold(0.0f64, f64::max);
    // Max across the grid via the one-hot-sum trick.
    let mut slots = vec![0.0f64; ctx.grid().size()];
    slots[ctx.rank()] = local_max;
    ctx.allreduce_sum_world(&mut slots, tag.offset(1));
    slots.into_iter().fold(0.0, f64::max)
}

/// The first checksum block column found violating Theorem 1 — the scan
/// result the ABFT layer's `assert_theorem1` and the scrub engine both
/// report instead of a bare pass/fail bool.
///
/// Carries the **solver** and **recovery-area** labels so diagnostics name
/// the right invariant: the area partition is solver-relative (Area 1 =
/// trailing scope groups, Area 2 = finished groups — §5.3's numbering for
/// Hessenberg, reused by every `FtSolver`), and a violation printed for a
/// QR run must not be mislabeled with Hessenberg wording.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Theorem1Violation {
    /// Global block-column index (global column ÷ nb) of the violating
    /// checksum block.
    pub block_col: usize,
    /// Largest absolute residual entry of that block, replicated on every
    /// process. `f64::INFINITY` when the residual contains Inf/NaN.
    pub max_abs: f64,
    /// Name of the solver whose invariant was violated (e.g. `"hessenberg"`,
    /// `"qr"`) — filled by the ABFT layer, which knows which `FtSolver` is
    /// running.
    pub solver: &'static str,
    /// Recovery-area label of the violating group relative to the solver's
    /// current scope (e.g. `"trailing (Area 1)"`, `"finished (Area 2)"`).
    pub area: &'static str,
}

impl std::fmt::Display for Theorem1Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "solver {} {} checksum block column {}: max |residual| {:e}",
            self.solver, self.area, self.block_col, self.max_abs
        )
    }
}

/// Theorem-1 residual of one checksum block column, fully distributed:
///
/// `R = Σⱼ wⱼ·A[0..nrows, baseⱼ..baseⱼ+nb) − A[0..nrows, chk_base..chk_base+nb)`
///
/// `members` lists the `(base column, weight)` of each member block —
/// passed explicitly because this crate cannot see the ABFT encoding.
/// Returns the **replicated** max-abs entry of `R` plus this process's
/// share of `R` (row-replicated across its process row; `local rows × nb`,
/// column-major by block offset) for block localization. NaN-safe: a
/// non-finite residual entry reports as `f64::INFINITY`, never as clean —
/// a plain `f64::max` fold would silently drop NaN.
pub fn pd_chk_block_residual(
    ctx: &Ctx,
    a: &DistMatrix,
    nrows: usize,
    nb: usize,
    members: &[(usize, f64)],
    chk_base: usize,
    tag: impl Into<Tag>,
) -> (f64, Vec<f64>) {
    let tag = tag.into();
    let lrn = a.local_rows_below(nrows);
    let ldl = a.local().ld().max(1);
    let mut partial = vec![0.0f64; lrn * nb];
    for off in 0..nb {
        for &(base, w) in members {
            let c = base + off;
            if a.owns_col(c) {
                let lc = a.g2l_col(c);
                let col = &a.local().as_slice()[lc * ldl..lc * ldl + lrn];
                for (i, v) in col.iter().enumerate() {
                    partial[i + off * lrn] += w * v;
                }
            }
        }
        let cc = chk_base + off;
        if a.owns_col(cc) {
            let lc = a.g2l_col(cc);
            let col = &a.local().as_slice()[lc * ldl..lc * ldl + lrn];
            for (i, v) in col.iter().enumerate() {
                partial[i + off * lrn] -= v;
            }
        }
    }
    ctx.allreduce_sum_row(&mut partial, tag);
    let local_max = partial
        .iter()
        .fold(0.0f64, |m, &x| if x.is_finite() { m.max(x.abs()) } else { f64::INFINITY });
    // Max across the grid via the one-hot-sum trick (Inf survives the sum).
    let mut slots = vec![0.0f64; ctx.grid().size()];
    slots[ctx.rank()] = local_max;
    ctx.allreduce_sum_world(&mut slots, tag.offset(2));
    (slots.into_iter().fold(0.0, f64::max), partial)
}

/// Grid-wide communication totals: every process's per-phase
/// [`TrafficLedger`] summed over the world (collective; replicated
/// result). The counts are exact — they stay far below 2⁵³, so the
/// `f64` all-reduce loses nothing. This is the hook the EXPERIMENTS
/// harness uses to report per-phase traffic next to run times.
pub fn pd_gather_traffic(ctx: &Ctx, tag: impl Into<Tag>) -> TrafficLedger {
    let mut row = ctx.traffic().to_f64_row();
    ctx.allreduce_sum_world(&mut row, tag);
    TrafficLedger::from_f64_row(&row)
}

/// Grid-wide transport wire counters: every process's per-peer
/// [`TransportStats`] summed over the world (collective; replicated
/// result). After the sum, row `r` holds the whole grid's traffic *to*
/// peer `r` — frames, bytes, connect retries, reconnects and heartbeat
/// misses. All zeros on in-process fabrics, which keep no wire counters;
/// over TCP this is the CLI's per-rank transport table.
pub fn pd_gather_transport(ctx: &Ctx, tag: impl Into<Tag>) -> TransportStats {
    let world = ctx.grid().size();
    let mut rows = ctx.transport_stats().to_f64_rows(world);
    ctx.allreduce_sum_world(&mut rows, tag);
    TransportStats::from_f64_rows(&rows)
}

/// The paper's §7.3 residual `r∞ = ‖A − Q·H·Qᵀ‖∞ / (‖A‖∞·N·ε)`, computed
/// fully distributed. `a0` holds the *original* matrix, `reduced` the
/// reduction output (reflectors below the subdiagonal), `tau` its scalars.
/// Result replicated on every process.
pub fn pd_hessenberg_residual(ctx: &Ctx, a0: &DistMatrix, reduced: &DistMatrix, n: usize, tau: &[f64]) -> f64 {
    let qm = pd_orghr(ctx, reduced, n, tau);
    let h = pd_extract_h(ctx, reduced, n);
    // T1 = Q·H ; R = A0 − T1·Qᵀ
    let nb = a0.desc().nb;
    let mut t1 = DistMatrix::zeros(ctx, crate::dist::Desc { m: n, n, nb });
    pdgemm(ctx, Trans::No, 1.0, &qm, &h, 0.0, &mut t1);
    // r = a0's logical part (a0 may be encoded).
    let mut r = logical_copy(ctx, a0, n, |_| n);
    pdgemm(ctx, Trans::Yes, -1.0, &t1, &qm, 1.0, &mut r);
    let na = pd_inf_norm(ctx, a0, n, TAG_NORM);
    if na == 0.0 {
        return 0.0;
    }
    pd_inf_norm(ctx, &r, n, TAG_NORM.offset(4)) / (na * n as f64 * EPS)
}

/// The QR analogue of the §7.3 residual, computed fully distributed:
/// `r∞ = ‖A − Q·R‖∞ / (‖A‖∞·N·ε)`. `a0` holds the *original* matrix,
/// `reduced` the factorization output (reflectors below the diagonal),
/// `tau` its scalars. Result replicated on every process.
pub fn pd_qr_residual(ctx: &Ctx, a0: &DistMatrix, reduced: &DistMatrix, n: usize, tau: &[f64]) -> f64 {
    let qm = pd_orgqr(ctx, reduced, n, tau);
    let rm = pd_extract_r(ctx, reduced, n);
    // r = a0's logical part (a0 may be encoded).
    let mut r = logical_copy(ctx, a0, n, |_| n);
    // r ← a0 − Q·R
    pdgemm(ctx, Trans::No, -1.0, &qm, &rm, 1.0, &mut r);
    let na = pd_inf_norm(ctx, a0, n, TAG_NORM.offset(8));
    if na == 0.0 {
        return 0.0;
    }
    pd_inf_norm(ctx, &r, n, TAG_NORM.offset(12)) / (na * n as f64 * EPS)
}

/// Scaled orthogonality residual `‖Q·Qᵀ − I‖∞ / (N·ε)` of a distributed
/// square `Q`, replicated on every process. (For square `Q`,
/// `‖QQᵀ − I‖ = ‖QᵀQ − I‖` up to the norm's row/column asymmetry — both
/// vanish exactly when `Q` is orthogonal.)
pub fn pd_orthogonality_residual(ctx: &Ctx, qm: &DistMatrix, n: usize) -> f64 {
    let nb = qm.desc().nb;
    let mut g = DistMatrix::from_global_fn(ctx, crate::dist::Desc { m: n, n, nb }, |i, j| if i == j { 1.0 } else { 0.0 });
    // g ← Q·Qᵀ − I
    pdgemm(ctx, Trans::Yes, 1.0, qm, qm, -1.0, &mut g);
    pd_inf_norm(ctx, &g, n, TAG_NORM.offset(16)) / (n as f64 * EPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Desc;
    use crate::hessd::pdgehrd;
    use ft_dense::gen::{uniform_entry, uniform_indexed_matrix};
    use ft_runtime::{run_spmd, FaultScript};

    #[test]
    fn pd_orghr_matches_shared() {
        let (n, nb) = (18, 4);
        let seed = 33;
        // Shared reference.
        let mut aref = uniform_indexed_matrix(n, n, seed);
        let mut tau_ref = vec![0.0; n - 1];
        ft_lapack::gehrd(&mut aref, nb, &mut tau_ref);
        let q_ref = ft_lapack::orghr(&aref, &tau_ref);

        run_spmd(2, 3, FaultScript::none(), move |ctx| {
            let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(seed, i, j));
            let mut tau = vec![0.0; n - 1];
            pdgehrd(&ctx, &mut a, &mut tau);
            let qd = pd_orghr(&ctx, &a, n, &tau);
            let qg = qd.gather_all(&ctx, 890);
            if ctx.rank() == 0 {
                let d = qg.max_abs_diff(&q_ref);
                assert!(d < 1e-10, "Q mismatch: {d}");
            }
        });
    }

    /// `H`, `R` and the residual's copy of `A₀` keep a local prefix of each
    /// column: bit for bit the per-element masks they replaced, read from a
    /// matrix larger than the logical `n×n` block (as an encoded one is) on
    /// a ragged 2×3 grid.
    #[test]
    fn logical_copies_are_the_per_element_masks() {
        let (n, nb) = (23, 4);
        run_spmd(2, 3, FaultScript::none(), move |ctx| {
            let a = DistMatrix::from_global_fn(&ctx, Desc { m: n + 9, n: n + 5, nb }, |i, j| uniform_entry(36, i, j));
            let bits = |d: &DistMatrix| d.local().as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let h: &dyn Fn(usize, usize) -> bool = &|gr, gc| gr <= gc + 1;
            let r: &dyn Fn(usize, usize) -> bool = &|gr, gc| gr <= gc;
            let all: &dyn Fn(usize, usize) -> bool = &|_, _| true;
            for (what, got, keep) in [
                ("H", pd_extract_h(&ctx, &a, n), h),
                ("R", pd_extract_r(&ctx, &a, n), r),
                ("A0", logical_copy(&ctx, &a, n, |_| n), all),
            ] {
                let mut want = DistMatrix::zeros(&ctx, Desc { m: n, n, nb });
                for lc in 0..want.lcols() {
                    let gc = want.l2g_col(lc);
                    for lr in 0..want.lrows() {
                        let gr = want.l2g_row(lr);
                        want.local_mut()[(lr, lc)] = if keep(gr, gc) { a.local()[(lr, lc)] } else { 0.0 };
                    }
                }
                assert_eq!(bits(&got), bits(&want), "{what}, rank {}", ctx.rank());
            }
        });
    }

    #[test]
    fn pd_residual_matches_shared() {
        let (n, nb) = (16, 4);
        let seed = 34;
        let a0g = uniform_indexed_matrix(n, n, seed);
        let mut aref = a0g.clone();
        let mut tau_ref = vec![0.0; n - 1];
        ft_lapack::gehrd(&mut aref, nb, &mut tau_ref);
        let r_shared = ft_lapack::hessenberg_residual(&a0g, &ft_lapack::extract_h(&aref), &ft_lapack::orghr(&aref, &tau_ref));

        run_spmd(2, 2, FaultScript::none(), move |ctx| {
            let a0 = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(seed, i, j));
            let mut a = a0.clone();
            let mut tau = vec![0.0; n - 1];
            pdgehrd(&ctx, &mut a, &mut tau);
            let r = pd_hessenberg_residual(&ctx, &a0, &a, n, &tau);
            assert!(r < 3.0, "distributed residual {r}");
            // Same ballpark as the shared-memory residual.
            assert!(r < 10.0 * r_shared.max(0.01), "{r} vs shared {r_shared}");
        });
    }

    #[test]
    fn pd_orgqr_and_qr_residual_match_shared() {
        let (n, nb) = (18, 4);
        let seed = 35;
        let a0g = uniform_indexed_matrix(n, n, seed);
        let mut aref = a0g.clone();
        let mut tau_ref = vec![0.0; n];
        ft_lapack::qr::geqrf(&mut aref, nb, &mut tau_ref);
        let q_ref = ft_lapack::qr::orgqr(&aref, &tau_ref);

        run_spmd(2, 3, FaultScript::none(), move |ctx| {
            let a0 = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(seed, i, j));
            let mut a = a0.clone();
            let mut tau = vec![0.0; n];
            crate::qrd::pdgeqrf(&ctx, &mut a, &mut tau);
            let qd = pd_orgqr(&ctx, &a, n, &tau);
            let qg = qd.gather_all(&ctx, 891);
            if ctx.rank() == 0 {
                let d = qg.max_abs_diff(&q_ref);
                assert!(d < 1e-10, "Q mismatch: {d}");
            }
            let r = pd_qr_residual(&ctx, &a0, &a, n, &tau);
            assert!(r < 3.0, "distributed QR residual {r}");
            let orth = pd_orthogonality_residual(&ctx, &qd, n);
            assert!(orth < 3.0, "distributed orthogonality {orth}");
        });
    }

    #[test]
    fn chk_block_residual_detects_and_is_nan_safe() {
        // 8 logical columns + one checksum block at column 8: chk = m0 + m1
        // with m0 = block col 0, m1 = block col 1 (weights 1).
        let (n, nb) = (8, 2);
        run_spmd(2, 2, FaultScript::none(), move |ctx| {
            let desc = Desc { m: n, n: n + nb, nb };
            let mut a = DistMatrix::from_global_fn(&ctx, desc, |i, j| {
                if j < nb {
                    uniform_entry(5, i, j)
                } else if j < 2 * nb {
                    uniform_entry(6, i, j - nb)
                } else if j < n {
                    0.0
                } else {
                    uniform_entry(5, i, j - n) + uniform_entry(6, i, j - n)
                }
            });
            let members = [(0usize, 1.0f64), (nb, 1.0f64)];
            let (clean, _) = pd_chk_block_residual(&ctx, &a, n, nb, &members, n, 7700);
            assert!(clean < 1e-12, "clean residual {clean}");

            // Corrupt one entry of member block 1 (global (3, 2)): the
            // residual magnitude and row must localize exactly.
            if a.owns_row(3) && a.owns_col(2) {
                let v = a.get(3, 2);
                a.set(3, 2, v + 7.0);
            }
            let (viol, local) = pd_chk_block_residual(&ctx, &a, n, nb, &members, n, 7710);
            assert!((viol - 7.0).abs() < 1e-12, "violation {viol}");
            // The row-replicated local residual peaks at global row 3,
            // block offset 0 — on the process row owning row 3.
            let lrn = a.local_rows_below(n);
            if a.owns_row(3) {
                let lr = a.g2l_row(3);
                assert!((local[lr].abs() - 7.0).abs() < 1e-12);
            } else {
                assert!(local.iter().take(lrn).all(|x| x.abs() < 1e-12));
            }

            // NaN in the data must read as an infinite violation, not clean.
            if a.owns_row(1) && a.owns_col(5) {
                a.set(1, 5, f64::NAN);
            }
            let (viol, _) = pd_chk_block_residual(&ctx, &a, n, nb, &[(4, 1.0), (6, 1.0)], n, 7720);
            assert_eq!(viol, f64::INFINITY, "NaN dropped by the residual scan");
        });
    }

    #[test]
    fn pd_inf_norm_matches_local() {
        let (n, nb) = (13, 3);
        run_spmd(2, 3, FaultScript::none(), move |ctx| {
            let a = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(9, i, j));
            let dist = pd_inf_norm(&ctx, &a, n, 7900);
            let local = ft_dense::norms::inf_norm(&uniform_indexed_matrix(n, n, 9));
            assert!((dist - local).abs() < 1e-12);
        });
    }
}
