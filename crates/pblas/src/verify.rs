//! Distributed verification: apply `Q` of a completed reduction as its
//! block reflectors (each replicated one panel at a time, as the
//! distributed `DORMHR`/`DORMQR` would), extract `H` or `R`, and compute the
//! paper's `r∞`-style residuals — all without gathering the matrices to one
//! process or forming `Q` explicitly, so verification scales with the
//! computation.

use crate::dist::DistMatrix;
use crate::panel::{replicate_reflector_block, v_local_cols, v_local_rows};
use crate::update::{left_update_op, right_update};
use ft_dense::level3::{gemm, trmm};
use ft_dense::{Diag, Matrix, Side, Trans, UpLo, EPS};
use ft_lapack::householder::larft;
use ft_runtime::{Ctx, Tag, TrafficLedger, TransportStats};

const TAG_VERIFY: Tag = Tag::User(0x170);
const TAG_RIGHT_W: Tag = Tag::User(0x178);

/// The block reflectors `B_j = I − V_j·T_j·V_jᵀ` of a completed reduction,
/// `Q = B₀·B₁⋯B_last`: the panel partition of `reduced`'s logical `n×n`
/// part with reflector units `off` rows below the panel's columns (1 for
/// Hessenberg, whose panels stop two columns short; 0 for QR).
struct Reflectors<'a> {
    reduced: &'a DistMatrix,
    tau: &'a [f64],
    n: usize,
    off: usize,
}

impl Reflectors<'_> {
    /// The panel partition `(k, w)` the reduction used: every `nb` columns
    /// up to `n − 2` for Hessenberg, `n` for QR.
    fn blocks(&self) -> Vec<(usize, usize)> {
        let (nb, end) = (self.reduced.desc().nb, self.n.saturating_sub(2 * self.off));
        (0..end).step_by(nb).map(|k| (k, nb.min(end - k))).collect()
    }

    /// Panel `[k, k+w)`'s `(V, T)`, replicated on every process
    /// (collective): `V` holds global rows `k+off..n`.
    fn block(&self, ctx: &Ctx, k: usize, w: usize) -> (Matrix, Matrix) {
        let v = replicate_reflector_block(ctx, self.reduced, self.n, k, w, self.off);
        let mut t = Matrix::zeros(w, w);
        larft(v.rows(), w, v.as_slice(), v.rows().max(1), &self.tau[k..k + w], t.as_mut_slice(), w);
        (v, t)
    }

    /// `x ← op(B)·x` on rows `k+off..n` of the columns from `c0` on
    /// (collective within each process column).
    fn left(&self, ctx: &Ctx, x: &mut DistMatrix, k: usize, c0: usize, (v, t): &(Matrix, Matrix), op: Trans) {
        let row0 = k + self.off;
        let v_myrows = v_local_rows(v, row0, self.n, x);
        let cols: Vec<usize> = (x.local_cols_below(c0)..x.local_cols_below(self.n)).collect();
        left_update_op(ctx, x, row0, self.n, &cols, &v_myrows, t, op);
    }

    /// `x ← Q·x` ([`Trans::No`]: blocks last→first, each on the columns
    /// from its panel on — the only ones it can touch while `x` starts
    /// upper Hessenberg, upper triangular or `I`) or `x ← Qᵀ·x`
    /// ([`Trans::Yes`]: blocks first→last, every column). Collective.
    fn apply_left(&self, ctx: &Ctx, x: &mut DistMatrix, op: Trans) {
        let mut blocks = self.blocks();
        if op == Trans::No {
            blocks.reverse();
        }
        for (k, w) in blocks {
            let b = self.block(ctx, k, w);
            let c0 = if op == Trans::No { k } else { 0 };
            self.left(ctx, x, k, c0, &b, op);
        }
    }

    /// `x ← x·Bᵀ` on columns `k+off..n` of every row: `W = X·V` summed
    /// across the process row, `W ← W·Tᵀ`, `X −= W·Vᵀ`. Collective within
    /// each process row.
    fn right_t(&self, ctx: &Ctx, x: &mut DistMatrix, k: usize, (v, t): &(Matrix, Matrix)) {
        let (row0, n, w) = (k + self.off, self.n, t.rows());
        let (lc0, lcn) = (x.local_cols_below(row0), x.local_cols_below(n));
        let (m, nc) = (x.local_rows_below(n), lcn - lc0);
        let vc = v_local_cols(v, row0, n, x);
        let ldl = x.local().ld().max(1);
        let mut wm = vec![0.0f64; m * w];
        if m > 0 && nc > 0 {
            let xs = &x.local().as_slice()[lc0 * ldl..];
            gemm(Trans::No, Trans::No, m, w, nc, 1.0, xs, ldl, vc.as_slice(), nc, 0.0, &mut wm, m);
        }
        ctx.allreduce_sum_row(&mut wm, TAG_RIGHT_W);
        trmm(Side::Right, UpLo::Upper, Trans::Yes, Diag::NonUnit, m, w, 1.0, t.as_slice(), w, &mut wm, m.max(1));
        right_update(x, n, &(lc0..lcn).collect::<Vec<_>>(), &vc, &Matrix::from_vec(m, w, wm));
    }
}

/// `H` of a completed reduction: copy with the reflectors zeroed below the
/// first subdiagonal (local; no communication).
pub fn pd_extract_h(ctx: &Ctx, a: &DistMatrix, n: usize) -> DistMatrix {
    logical_copy(ctx, a, n, |gc| gc + 2)
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
///
/// `Q·H·Qᵀ = B₀⋯B_last·H·B_lastᵀ⋯B₀ᵀ` is built from `H` one block a side
/// at a time, last block first; nothing forms `Q`.
pub fn pd_hessenberg_residual(ctx: &Ctx, a0: &DistMatrix, reduced: &DistMatrix, n: usize, tau: &[f64]) -> f64 {
    let q = Reflectors { reduced, tau, n, off: 1 };
    let mut x = pd_extract_h(ctx, reduced, n);
    for (k, w) in q.blocks().into_iter().rev() {
        let b = q.block(ctx, k, w);
        q.left(ctx, &mut x, k, k, &b, Trans::No);
        q.right_t(ctx, &mut x, k, &b);
    }
    scaled_residual(ctx, a0, x, n)
}

/// The QR analogue of the §7.3 residual, computed fully distributed:
/// `r∞ = ‖A − Q·R‖∞ / (‖A‖∞·N·ε)`. `a0` holds the *original* matrix,
/// `reduced` the factorization output (reflectors below the diagonal),
/// `tau` its scalars. Result replicated on every process.
pub fn pd_qr_residual(ctx: &Ctx, a0: &DistMatrix, reduced: &DistMatrix, n: usize, tau: &[f64]) -> f64 {
    let mut x = logical_copy(ctx, reduced, n, |gc| gc + 1);
    Reflectors { reduced, tau, n, off: 0 }.apply_left(ctx, &mut x, Trans::No);
    scaled_residual(ctx, a0, x, n)
}

/// Both accuracy checks of a completed distributed QR factorization
/// (`a0`, `reduced`, `tau` as for [`pd_qr_residual`]), replicated on every
/// process: the factorization residual [`pd_qr_residual`] returns, bit for
/// bit, and the scaled orthogonality residual `‖QᵀQ − I‖∞ / (N·ε)`. One
/// sweep, last block first, replicates each block once and applies it to
/// both `R` and `I`; then `I` gets `Qᵀ` applied from the left.
pub fn pd_orthogonality_residual(ctx: &Ctx, a0: &DistMatrix, reduced: &DistMatrix, n: usize, tau: &[f64]) -> (f64, f64) {
    let desc = crate::dist::Desc { m: n, n, nb: reduced.desc().nb };
    let eye = DistMatrix::from_global_fn(ctx, desc, |i, j| if i == j { 1.0 } else { 0.0 });
    let q = Reflectors { reduced, tau, n, off: 0 };
    let (mut qr, mut qi) = (logical_copy(ctx, reduced, n, |gc| gc + 1), eye.clone());
    for (k, w) in q.blocks().into_iter().rev() {
        let b = q.block(ctx, k, w);
        q.left(ctx, &mut qr, k, k, &b, Trans::No);
        q.left(ctx, &mut qi, k, k, &b, Trans::No);
    }
    q.apply_left(ctx, &mut qi, Trans::Yes);
    // ‖I‖∞ = 1: the scaled residual against I is the orthogonality's.
    (scaled_residual(ctx, a0, qr, n), scaled_residual(ctx, &eye, qi, n))
}

/// `‖A₀ − X‖∞ / (‖A₀‖∞·N·ε)` over the logical `n×n` block (`a0` may be
/// encoded: its logical block sits at the same local indices as `x`'s).
fn scaled_residual(ctx: &Ctx, a0: &DistMatrix, mut x: DistMatrix, n: usize) -> f64 {
    let lrn = x.local_rows_below(n);
    for lc in 0..x.local_cols_below(n) {
        for (xv, av) in x.local_mut().col_mut(lc)[..lrn].iter_mut().zip(&a0.local().col(lc)[..lrn]) {
            *xv -= av;
        }
    }
    let na = pd_inf_norm(ctx, a0, n, TAG_VERIFY);
    if na == 0.0 {
        return 0.0;
    }
    pd_inf_norm(ctx, &x, n, TAG_VERIFY.offset(2)) / (na * n as f64 * EPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Desc;
    use crate::hessd::pdgehrd;
    use ft_dense::gen::{uniform_entry, uniform_indexed_matrix};
    use ft_runtime::{run_spmd, FaultScript};

    /// `Q` applied to `I` as its block reflectors, on a ragged grid, is
    /// the shared-memory `orghr`/`orgqr`: the left-apply loop every residual
    /// runs, for both reflector layouts.
    fn q_from_identity(ctx: &Ctx, reduced: &DistMatrix, n: usize, tau: &[f64], off: usize) -> Matrix {
        let mut x =
            DistMatrix::from_global_fn(ctx, Desc { m: n, n, nb: reduced.desc().nb }, |i, j| if i == j { 1.0 } else { 0.0 });
        Reflectors { reduced, tau, n, off }.apply_left(ctx, &mut x, Trans::No);
        x.gather_all(ctx, 890)
    }

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
            let d = q_from_identity(&ctx, &a, n, &tau, 1).max_abs_diff(&q_ref);
            assert!(d < 1e-10, "Q mismatch: {d}");
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
                ("R", logical_copy(&ctx, &a, n, |gc| gc + 1), r),
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
            let d = q_from_identity(&ctx, &a, n, &tau, 0).max_abs_diff(&q_ref);
            assert!(d < 1e-10, "Q mismatch: {d}");
            let r = pd_qr_residual(&ctx, &a0, &a, n, &tau);
            assert!(r < 3.0, "distributed QR residual {r}");
            let (_, orth) = pd_orthogonality_residual(&ctx, &a0, &a, n, &tau);
            assert!(orth < 3.0, "distributed orthogonality {orth}");
        });
    }

    /// A factor perturbed by δ far above roundoff — one entry of `H` or `R`,
    /// one `tau` — moves each distributed residual to the sequential
    /// explicit-`Q` value of the same perturbed factor, bit-identical on
    /// every rank, on ragged grids. Applying the right-hand blocks in the
    /// wrong order, or `T` for `Tᵀ`, lands orders of magnitude away.
    #[test]
    fn residuals_of_a_perturbed_factor_match_the_explicit_q_ones() {
        let (n, nb, seed, delta) = (37, 4, 38, 1e-3);
        let a0g = uniform_indexed_matrix(n, n, seed);
        let close = |got: f64, want: f64, what: &str| {
            assert!(want > 1e6, "{what}: δ too small to dominate roundoff ({want})");
            assert!((got - want).abs() <= 1e-6 * want, "{what}: distributed {got} vs sequential {want}");
        };
        // Hessenberg: H(3, 9) += δ.
        let mut hf = a0g.clone();
        let mut htau = vec![0.0; n - 1];
        ft_lapack::gehrd(&mut hf, nb, &mut htau);
        hf[(3, 9)] += delta;
        let hess_want = ft_lapack::hessenberg_residual(&a0g, &ft_lapack::extract_h(&hf), &ft_lapack::orghr(&hf, &htau));
        // QR: R(5, 20) += δ for the residual, tau[6] += δ for orthogonality.
        let mut qf = a0g.clone();
        let mut qtau = vec![0.0; n];
        ft_lapack::qr::geqrf(&mut qf, nb, &mut qtau);
        qf[(5, 20)] += delta;
        let qr_want = ft_lapack::qr::qr_residual(&a0g, &ft_lapack::qr::orgqr(&qf, &qtau), &ft_lapack::qr::extract_r(&qf));
        qtau[6] += delta;
        let orth_want = ft_lapack::orthogonality_residual(&ft_lapack::qr::orgqr(&qf, &qtau));
        for (p, q) in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2)] {
            let got = run_spmd(p, q, FaultScript::none(), move |ctx| {
                let a0 = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(seed, i, j));
                let (mut h, mut ht) = (a0.clone(), vec![0.0; n - 1]);
                pdgehrd(&ctx, &mut h, &mut ht);
                let (mut r, mut rt) = (a0.clone(), vec![0.0; n]);
                crate::qrd::pdgeqrf(&ctx, &mut r, &mut rt);
                for (m, i, j) in [(&mut h, 3, 9), (&mut r, 5, 20)] {
                    if m.owns_row(i) && m.owns_col(j) {
                        m.set(i, j, m.get(i, j) + delta);
                    }
                }
                let hess = pd_hessenberg_residual(&ctx, &a0, &h, n, &ht);
                let qr = pd_qr_residual(&ctx, &a0, &r, n, &rt);
                rt[6] += delta;
                [hess, qr, pd_orthogonality_residual(&ctx, &a0, &r, n, &rt).1].map(f64::to_bits)
            });
            assert!(got.iter().all(|g| *g == got[0]), "{p}x{q}: ranks disagree");
            let [hess, qr, orth] = got[0].map(f64::from_bits);
            close(hess, hess_want, &format!("{p}x{q} hessenberg"));
            close(qr, qr_want, &format!("{p}x{q} qr"));
            close(orth, orth_want, &format!("{p}x{q} orthogonality"));
        }
    }

    /// The QR residual of the sweep that also checks orthogonality is bit
    /// for bit [`pd_qr_residual`]'s, on ragged grids.
    #[test]
    fn shared_sweep_qr_residual_is_pd_qr_residual() {
        let (n, nb) = (23, 4);
        for (p, q) in [(1, 1), (2, 3), (3, 2)] {
            run_spmd(p, q, FaultScript::none(), move |ctx| {
                let a0 = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(39, i, j));
                let (mut r, mut tau) = (a0.clone(), vec![0.0; n]);
                crate::qrd::pdgeqrf(&ctx, &mut r, &mut tau);
                let (qr, _) = pd_orthogonality_residual(&ctx, &a0, &r, n, &tau);
                assert_eq!(qr.to_bits(), pd_qr_residual(&ctx, &a0, &r, n, &tau).to_bits(), "{p}x{q}");
            });
        }
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
