//! Distributed Hessenberg panel factorization (ScaLAPACK `PDLAHRD`).
//!
//! Reduces `w` consecutive columns `k..k+w` of the distributed matrix,
//! producing the blocked WY factors needed for the trailing-matrix updates.
//! The panel is stored on a single process column (the blocking factor
//! equals the panel width, as in `PDGEHRD`), but — unlike one-sided
//! factorizations — **every** process participates in every column step:
//! computing the running `Y = Â·V·T` column requires a matrix-vector product
//! with the whole trailing matrix (`A(k+1..n, c+1..n)·v`), the data
//! dependency the paper highlights in §3.4 as the reason panel results must
//! be protected immediately.
//!
//! ### The panel block is replicated across the process row
//!
//! At panel entry the owning process column broadcasts its local rows
//! `[k+1, n)` of the panel's `w` columns along its process row, once
//! (`mlen×w`). Every process column then runs the column steps on its
//! replica — the lazy right and left update of column `c`, the distributed
//! `larfg`, the V buffer, `tcol`, the assembly of `Y(:,j)` and `T(:,j)` —
//! with the column collectives running side by side, one set per process
//! column. Each process therefore forms `v` itself and multiplies its own
//! trailing columns straight away, and the **one** row collective of a
//! column is the all-reduce of those products. When the columns are done
//! everyone already holds `V`, `Y`, `T` and `τ`; the owners write the
//! replica back over the panel block and fix its top rows.
//!
//! * **What it replaces.** The owner-column kernel (kept under
//!   `#[cfg(test)]` as the oracle): `v` broadcast from the owning column,
//!   the products reduced back to it, then a serial section there while
//!   the other `Q−1` process columns waited — two dependent row trips a
//!   column, `2⌈log₂Q⌉` hops — and five closing row collectives a panel
//!   (`V`, `Y`, `T`, `τ` broadcasts, the `Y_top` reduce).
//! * **What it costs.** A column's row path is `⌈log₂Q⌉` hops (1 at Q = 2,
//!   2 at Q = 4, 7 at the paper's Q = 96); a panel's is `w·⌈log₂Q⌉` plus
//!   `2⌈log₂Q⌉` (the entry broadcast and `Y_top`). What is repeated is the
//!   Level-2 work on `mlen×j` operands and the `O(w²)` assembly, `Q` times
//!   over instead of once (+2 % flops at Q = 2, +6 % at Q = 4 on the
//!   repo's workloads), and the column collectives, which now run in every
//!   process column at once. Row messages per column: `msgs(Q)` of
//!   `collectives.rs` where it was `2(Q−1)` — equal at Q = 2, 8 vs 6 at
//!   Q = 4, all sent in parallel.
//! * **Why not one bit moves.** Every replica starts as the owner's bytes
//!   and every process column applies the same operations to it in the
//!   same order with the same kernels, so the replicas stay identical; the
//!   row sums are [`Ctx::allreduce_sum_row_from`] rooted at the panel's
//!   column, whose association is the reduce-to-the-owner tree's.
//!
//! [`pdlaqrf`] stays owner-column: a QR panel has no trailing product, so
//! its column steps involve no row collective to remove — replicating it
//! would add a broadcast and save nothing.
//!
//! ### Reflector storage
//!
//! Reflectors are stored below the first subdiagonal of `A` exactly as in
//! ScaLAPACK, but unit positions keep their β value — the implicit 1 is
//! materialized only in extracted copies, so no set/restore dance is needed
//! across processes.
//!
//! ### The panel's V buffer
//!
//! `pdlahrd` keeps one such extracted copy per panel: an `m×w` buffer (`m`
//! = this process's local rows in `[k+1, n)`) to which reflector `j` is
//! appended — zeros above its unit, 1 at the unit, the stored entries below
//! — right after it is generated. Column `j`'s left update reads the
//! buffer's first `j` columns and the closing assembly of the replicated
//! `V` sums the whole of it over the process column, so nothing is
//! re-extracted inside the column loop. A stored reflector never changes
//! after its column step (later steps write only their own column), so the
//! buffer equals a fresh extraction at every step, bit for bit.

use crate::dist::DistMatrix;
use ft_dense::level1::scal;
use ft_dense::level2::{gemv, trmv};
use ft_dense::level3::{gemm, trmm};
use ft_dense::{Diag, Matrix, Side, Trans, UpLo};
use ft_runtime::{Ctx, Tag};

const TAG_VROW: Tag = Tag::Panel(0);
const TAG_LEFTW: Tag = Tag::Panel(1);
const TAG_NRM: Tag = Tag::Panel(2);
const TAG_ALPHA: Tag = Tag::Panel(3);
const TAG_VCOL: Tag = Tag::Panel(4);
const TAG_PANB: Tag = Tag::Panel(5);
const TAG_YRED: Tag = Tag::Panel(6);
const TAG_TCOL: Tag = Tag::Panel(7);
const TAG_VFULL: Tag = Tag::Panel(8);
const TAG_VFULLB: Tag = Tag::Panel(9);
const TAG_PTOP: Tag = Tag::Panel(10);
const TAG_TAUB: Tag = Tag::Panel(13);

/// The replicated/row-distributed outputs of one panel factorization —
/// exactly the `(V, T, Y)` triple the paper's Algorithms 2 and 3 checkpoint
/// after each `PDLAHRD` call.
#[derive(Debug, Clone)]
pub struct PanelFactors {
    /// First global column of the panel.
    pub k: usize,
    /// Panel width.
    pub w: usize,
    /// Logical matrix dimension `n` (the distributed matrix may be larger —
    /// the ABFT layer appends checksum rows/columns beyond `n`).
    pub n: usize,
    /// Row offset of the reflector block relative to the panel column:
    /// reflector `l`'s implicit unit sits at global row `k + l +
    /// v_row_offset` and `vfull` covers global rows `k + v_row_offset .. n`.
    /// Hessenberg panels (`pdlahrd`) use 1 (reflectors below the
    /// subdiagonal); QR panels (`pdlaqrf`) use 0 (reflectors at the
    /// diagonal).
    pub v_row_offset: usize,
    /// Reflector scalars, replicated everywhere.
    pub tau: Vec<f64>,
    /// `w×w` upper triangular WY factor, replicated everywhere.
    pub t: Matrix,
    /// `V` with explicit units/zeros, rows `k+v_row_offset..n` of the global
    /// matrix (`(n−k−v_row_offset)×w`), replicated everywhere.
    pub vfull: Matrix,
    /// `Y = Â·V·T` restricted to this process's local rows `< n`
    /// (`local_rows_below(n) × w`), identical across the process row.
    /// Empty (`0×w`) for solvers without a trailing right update.
    pub y_loc: Matrix,
}

impl PanelFactors {
    /// First global row covered by `vfull` (and by the left update).
    #[inline]
    pub fn v_row0(&self) -> usize {
        self.k + self.v_row_offset
    }

    /// Build the `len(cols)×w` matrix whose row `i` is the `V` row of global
    /// index `cols[i]` (used as the right operand of the right update
    /// `A ← A − Y·Vᵀ` for those global columns). Local indices map to runs
    /// of consecutive global ones, a block at a time; each run is one slice
    /// copy per reflector.
    pub fn vrows_for(&self, cols: &[usize]) -> Matrix {
        let mut i = 0;
        let runs = std::iter::from_fn(|| {
            (i < cols.len()).then(|| {
                let len = 1 + (i + 1..cols.len()).take_while(|&e| cols[e] == cols[e - 1] + 1).count();
                let run = (i, cols[i], len);
                i += len;
                run
            })
        });
        select_rows(&self.vfull, self.v_row0(), cols.len(), runs)
    }

    /// `V` restricted to the caller's local rows in `[k+v_row_offset, n)`,
    /// given the distributed matrix it belongs to.
    pub fn v_for_local_rows(&self, a: &DistMatrix) -> Matrix {
        v_local_rows(&self.vfull, self.v_row0(), self.n, a)
    }
}

/// My local rows in `[r0, n)` of a replicated `V` whose row 0 is global row
/// `r0`.
pub(crate) fn v_local_rows(vfull: &Matrix, r0: usize, n: usize, a: &DistMatrix) -> Matrix {
    let (lr0, lrn) = (a.local_rows_below(r0), a.local_rows_below(n));
    select_rows(vfull, r0, lrn - lr0, a.row_runs(lr0, lrn))
}

/// [`v_local_rows`] across the process row: the rows of `vfull` at my local
/// columns in `[r0, n)`, the `V` rows a right application `X·V` contracts.
pub(crate) fn v_local_cols(vfull: &Matrix, r0: usize, n: usize, a: &DistMatrix) -> Matrix {
    let (lc0, lcn) = (a.local_cols_below(r0), a.local_cols_below(n));
    select_rows(vfull, r0, lcn - lc0, a.col_runs(lc0, lcn))
}

/// The `m` rows of `vfull` (row 0 = global index `r0`) that the block runs
/// `runs` name, in run order: one slice copy per run and column.
fn select_rows(vfull: &Matrix, r0: usize, m: usize, runs: impl Iterator<Item = (usize, usize, usize)>) -> Matrix {
    let mut out = Matrix::zeros(m, vfull.cols());
    for (i, g, len) in runs {
        for l in 0..vfull.cols() {
            out.col_mut(l)[i..i + len].copy_from_slice(&vfull.col(l)[g - r0..g - r0 + len]);
        }
    }
    out
}

/// Extract this process's local rows in `[from_g, n)` of reflector columns
/// `0..j` of panel `k`, with explicit unit/zero structure. Reflector `l`'s
/// unit sits at global row `k + l + off` (`off` = the solver's
/// `v_row_offset`: 1 for Hessenberg, 0 for QR). Local order is globally
/// monotone, so the rows above the unit, the unit and the rows below it
/// are three local ranges: zeros, a 1 where the unit row is mine, and one
/// slice copy of the stored column. Only meaningful on the panel-owning
/// process column.
fn extract_v_local(a: &DistMatrix, k: usize, j: usize, from_g: usize, n: usize, off: usize) -> Matrix {
    let lr0 = a.local_rows_below(from_g);
    let lrn = a.local_rows_below(n);
    let mut v = Matrix::zeros(lrn - lr0, j);
    for l in 0..j {
        let unit = k + l + off;
        let (lu, lu1) = (a.local_rows_below(unit), a.local_rows_below(unit + 1));
        let lc = a.g2l_col(k + l);
        let col = v.col_mut(l);
        col[lu - lr0..lu1 - lr0].fill(1.0);
        col[lu1 - lr0..].copy_from_slice(&a.local().col(lc)[lu1..lrn]);
    }
    v
}

/// Replicate the reflector block of panel `[k, k+w)` on every process:
/// the `(n−k−off)×w` matrix `V` (global rows `k+off..n`, where `off` is the
/// solver's `v_row_offset` — 1 for Hessenberg reflectors below the first
/// subdiagonal, 0 for QR reflectors at the diagonal) with explicit
/// unit/zero structure, read from the reflectors stored in `a`. Collective.
/// Used by [`pdlaqrf`] and by [`crate::verify`] to apply `Q` after the
/// fact; [`pdlahrd`] assembles its own from the V buffer every process
/// column holds.
pub fn replicate_reflector_block(ctx: &Ctx, a: &DistMatrix, n: usize, k: usize, w: usize, off: usize) -> Matrix {
    let q_pan = a.col_owner(k);
    let vm = n - k - off;
    let mut vfull_buf = vec![0.0f64; vm * w];
    if ctx.mycol() == q_pan {
        let vmine = extract_v_local(a, k, w, k + off, n, off);
        scatter_v_rows(a, k + off, n, vmine.as_slice(), &mut vfull_buf);
        ctx.allreduce_sum_col(&mut vfull_buf, TAG_VFULL);
    }
    ctx.bcast_row(q_pan, &mut vfull_buf, TAG_VFULLB);
    Matrix::from_vec(vm, w, vfull_buf)
}

/// Write my rows of `V` (`vmine`: local rows in `[r0, n)` × `w`,
/// column-major) to their global rows of `vfull` (`(n−r0)×w`); summed over
/// the process column, the scattered pieces are the whole of `V`.
fn scatter_v_rows(a: &DistMatrix, r0: usize, n: usize, vmine: &[f64], vfull: &mut [f64]) {
    let lr0 = a.local_rows_below(r0);
    let m = a.local_rows_below(n) - lr0;
    let vm = n - r0;
    for (src, dst) in vmine.chunks_exact(m.max(1)).zip(vfull.chunks_exact_mut(vm)) {
        for (i, g, len) in a.row_runs(lr0, lr0 + m) {
            dst[g - r0..g - r0 + len].copy_from_slice(&src[i..i + len]);
        }
    }
}

/// Distributed panel factorization. SPMD: call on every process.
///
/// Requires the panel `[k, k+w)` to lie within one block column
/// (`w ≤ nb` and `k % nb == 0`) and `k + w ≤ n − 2`.
pub fn pdlahrd(ctx: &Ctx, a: &mut DistMatrix, n: usize, k: usize, w: usize) -> PanelFactors {
    assert!(w >= 1 && k + w < n, "pdlahrd: bad panel (k={k}, w={w}, n={n})");
    assert_eq!(k % a.desc().nb, 0, "pdlahrd: panel must start on a block boundary");
    assert!(w <= a.desc().nb, "pdlahrd: panel wider than the blocking factor");
    assert!(n <= a.desc().m && n <= a.desc().n, "pdlahrd: logical n exceeds the matrix");

    let q_pan = a.col_owner(k);
    let on_panel = ctx.mycol() == q_pan;
    let ldl = a.local().ld().max(1);
    let lr_n = a.local_rows_below(n);
    let lr0 = a.local_rows_below(k + 1);
    let mlen = lr_n - lr0;
    let lcn = a.local_cols_below(n);

    // ---- replicate the panel block across the process row (module docs):
    // my process row's rows in [k+1, n) of columns k..k+w, column l at
    // pan[l·mlen..]. The owners write it back when the panel is done.
    let mut pan = vec![0.0f64; mlen * w];
    if on_panel {
        let lck = a.g2l_col(k);
        for (l, col) in pan.chunks_exact_mut(mlen.max(1)).enumerate() {
            col.copy_from_slice(&a.local().as_slice()[(lck + l) * ldl + lr0..(lck + l) * ldl + lr_n]);
        }
    }
    ctx.bcast_row(q_pan, &mut pan, TAG_PANB);

    let mut t = Matrix::zeros(w, w);
    let mut tau = vec![0.0f64; w];
    let mut y_loc = Matrix::zeros(lr_n, w);
    let ldy = lr_n.max(1);
    // The panel's V buffer (module docs): my local rows in [k+1, n) of the
    // reflectors generated so far, column l = reflector l.
    let mut vbuf = vec![0.0f64; mlen * w];

    // Per-column scratch, allocated once per panel.
    let mut vrow: Vec<f64> = Vec::with_capacity(w);
    let mut wv: Vec<f64> = Vec::with_capacity(w);
    let mut tcol: Vec<f64> = Vec::with_capacity(w);
    let mut al = vec![0.0f64];
    let mut v: Vec<f64> = Vec::with_capacity(n - k - 1);
    let mut ypart = vec![0.0f64; mlen];
    let mut xloc: Vec<f64> = Vec::with_capacity(lcn - a.local_cols_below(k + 1));
    let mut vloc: Vec<f64> = Vec::with_capacity(mlen);

    for j in 0..w {
        let c = k + j;
        let u = c + 1;
        v.clear();
        v.resize(n - u, 0.0);
        // Rows u.. and u+1.. of the replica.
        let iu = a.local_rows_below(u) - lr0;
        let iu1 = a.local_rows_below(u + 1) - lr0;
        let (vstored, rest) = pan.split_at_mut(j * mlen);
        let bcol = &mut rest[..mlen];

        if j > 0 {
            // ---- right update of column c: b(k+1..n) −= Y(:,0..j)·vrowᵀ
            // vrow = row k+j of V columns 0..j (unit of reflector j−1 = 1).
            let p_r = a.row_owner(k + j);
            vrow.clear();
            vrow.resize(j, 0.0);
            if ctx.myrow() == p_r {
                let ir = a.g2l_row(k + j) - lr0;
                for (l, vr) in vrow.iter_mut().enumerate() {
                    *vr = if l == j - 1 { 1.0 } else { vstored[ir + l * mlen] };
                }
            }
            ctx.bcast_col(p_r, &mut vrow, TAG_VROW);
            if mlen > 0 {
                gemv(Trans::No, mlen, j, -1.0, &y_loc.as_slice()[lr0..], ldy, &vrow, 1.0, bcol);
            }

            // ---- left update of column c: b −= V·Tᵀ·Vᵀ·b over rows k+1..n
            let vfix = &vbuf[..mlen * j];
            wv.clear();
            wv.resize(j, 0.0);
            if mlen > 0 {
                gemv(Trans::Yes, mlen, j, 1.0, vfix, mlen, bcol, 0.0, &mut wv);
            }
            ctx.allreduce_sum_col(&mut wv, TAG_LEFTW);
            trmv(UpLo::Upper, Trans::Yes, Diag::NonUnit, j, t.as_slice(), w, &mut wv);
            if mlen > 0 {
                gemv(Trans::No, mlen, j, -1.0, vfix, mlen, &wv, 1.0, bcol);
            }
        }

        // ---- generate the reflector for column c (distributed larfg) ------
        let mut ss = [0.0f64];
        for x in &bcol[iu1..] {
            ss[0] += x * x;
        }
        ctx.allreduce_sum_col(&mut ss, TAG_NRM);
        let p_u = a.row_owner(u);
        al[0] = if ctx.myrow() == p_u { bcol[iu] } else { 0.0 };
        ctx.bcast_col(p_u, &mut al, TAG_ALPHA);
        let alpha = al[0];
        let xnorm = ss[0].sqrt();
        let tau_j = if xnorm == 0.0 {
            0.0
        } else {
            let beta = -f64::hypot(alpha, xnorm) * alpha.signum();
            let s = 1.0 / (alpha - beta);
            for x in &mut bcol[iu1..] {
                *x *= s;
            }
            if ctx.myrow() == p_u {
                bcol[iu] = beta;
            }
            (beta - alpha) / beta
        };
        tau[j] = tau_j;

        // ---- append reflector j to the V buffer: rows above the unit stay
        // 0, the unit row (when it is mine) reads 1, the rest is the column
        // just scaled.
        let vcol = &mut vbuf[j * mlen..(j + 1) * mlen];
        vcol[iu..iu1].fill(1.0);
        vcol[iu1..].copy_from_slice(&bcol[iu1..]);

        // ---- v = [1; A(u+1..n, c)], my rows; summed over the column ------
        for (i, g, len) in a.row_runs(lr0 + iu, lr_n) {
            v[g - u..g - u + len].copy_from_slice(&vcol[iu + i..iu + i + len]);
        }
        ctx.allreduce_sum_col(&mut v, TAG_VCOL);

        // ---- y(k+1..n) = A(k+1..n, c+1..n)·v: my trailing columns, summed
        // over the process row as the tree rooted at the panel's column.
        let lc0 = a.local_cols_below(c + 1);
        let ncl = lcn - lc0;
        if mlen > 0 && ncl > 0 {
            xloc.clear();
            for (_, g, len) in a.col_runs(lc0, lcn) {
                xloc.extend_from_slice(&v[g - u..g - u + len]);
            }
            let abuf = &a.local().as_slice()[lc0 * ldl + lr0..];
            gemv(Trans::No, mlen, ncl, 1.0, abuf, ldl, &xloc, 0.0, &mut ypart);
        } else {
            ypart.fill(0.0);
        }
        ctx.allreduce_sum_row_from(q_pan, &mut ypart, TAG_YRED);

        // ---- tcol = V(u..n, 0..j)ᵀ·v (rows ≥ u are plain stored data) ----
        tcol.clear();
        tcol.resize(j, 0.0);
        if j > 0 {
            if iu < mlen {
                vloc.clear();
                for (_, g, len) in a.row_runs(lr0 + iu, lr_n) {
                    vloc.extend_from_slice(&v[g - u..g - u + len]);
                }
                gemv(Trans::Yes, mlen - iu, j, 1.0, &vstored[iu..], mlen, &vloc, 0.0, &mut tcol);
            }
            ctx.allreduce_sum_col(&mut tcol, TAG_TCOL);
        }

        // ---- assemble Y(:, j) and T(:, j) --------------------------------
        {
            let (ydone, ycur) = y_loc.as_mut_slice().split_at_mut(j * ldy);
            let ycol = &mut ycur[lr0..lr_n];
            ycol.copy_from_slice(&ypart);
            if j > 0 && mlen > 0 {
                gemv(Trans::No, mlen, j, -1.0, &ydone[lr0..], ldy, &tcol, 1.0, ycol);
            }
            scal(tau_j, ycol);
        }
        scal(-tau_j, &mut tcol);
        trmv(UpLo::Upper, Trans::No, Diag::NonUnit, j, t.as_slice(), w, &mut tcol);
        for (l, tv) in tcol.iter().enumerate() {
            t[(l, j)] = *tv;
        }
        t[(j, j)] = tau_j;
    }

    // ---- V (rows k+1..n, explicit structure): every process column sums
    // the pieces of its own V buffer.
    let mut vfull_buf = vec![0.0f64; (n - k - 1) * w];
    scatter_v_rows(a, k + 1, n, &vbuf, &mut vfull_buf);
    ctx.allreduce_sum_col(&mut vfull_buf, TAG_VFULL);
    let vfull = Matrix::from_vec(n - k - 1, w, vfull_buf);

    // ---- Y top rows (0..=k): Y_top = A(0..=k, k+1..n)·V·T ------------------
    let lrtop = lr0;
    let lc0 = a.local_cols_below(k + 1);
    let ncl = lcn - lc0;
    let mut ptop = vec![0.0f64; lrtop * w];
    if lrtop > 0 && ncl > 0 {
        // vsel: V rows matching my local columns.
        let vsel = select_rows(&vfull, k + 1, ncl, a.col_runs(lc0, lcn));
        let abuf = &a.local().as_slice()[lc0 * ldl..];
        gemm(Trans::No, Trans::No, lrtop, w, ncl, 1.0, abuf, ldl, vsel.as_slice(), ncl, 0.0, &mut ptop, lrtop);
    }
    ctx.allreduce_sum_row_from(q_pan, &mut ptop, TAG_PTOP);
    if lrtop > 0 {
        trmm(Side::Right, UpLo::Upper, Trans::No, Diag::NonUnit, lrtop, w, 1.0, t.as_slice(), w, &mut ptop, lrtop);
        for l in 0..w {
            y_loc.col_mut(l)[..lrtop].copy_from_slice(&ptop[l * lrtop..(l + 1) * lrtop]);
        }
    }

    if on_panel {
        // ---- the replica is the finished panel block: write it back -------
        let lck = a.g2l_col(k);
        for (l, col) in pan.chunks_exact(mlen.max(1)).enumerate() {
            a.local_mut().as_mut_slice()[(lck + l) * ldl + lr0..(lck + l) * ldl + lr_n].copy_from_slice(col);
        }

        // ---- top-row fix of the within-panel columns -----------------------
        // A(0..=k, k+1..k+w) −= Y(0..=k, :)·V(row c, :)ᵀ finalizes the panel
        // block column completely, so the diskless checkpoint taken right
        // after this routine captures the panel's final state (ABFT Area-3
        // recovery relies on that). This commutes with the trailing updates
        // (disjoint columns).
        if lrtop > 0 {
            let lcp0 = a.local_cols_below(k + 1);
            let lcp1 = a.local_cols_below(k + w);
            for lc in lcp0..lcp1 {
                let gc = a.l2g_col(lc);
                let vr: Vec<f64> = (0..w).map(|l| vfull[(gc - k - 1, l)]).collect();
                let cbuf = &mut a.local_mut().as_mut_slice()[lc * ldl..lc * ldl + lrtop];
                gemv(Trans::No, lrtop, w, -1.0, y_loc.as_slice(), ldy, &vr, 1.0, cbuf);
            }
        }
    }

    PanelFactors { k, w, n, v_row_offset: 1, tau, t, vfull, y_loc }
}

/// Distributed right-looking QR panel factorization (ScaLAPACK `PDGEQR2`
/// within one block column, plus replicated WY factor assembly). SPMD: call
/// on every process.
///
/// Reduces columns `k..k+w` of the distributed matrix to upper-triangular
/// form with Householder reflectors whose units sit **on the diagonal**
/// (`v_row_offset = 0`), storing reflectors below the diagonal with β at
/// the unit positions — the same storage convention as `pdlahrd`, shifted
/// up one row. Unlike Hessenberg, a QR panel needs no `Y = Â·V·T` running
/// product (the trailing matrix is touched only by the *left* update), so
/// only the panel-owning process column does per-column work; all other
/// processes participate solely in the final replication collectives.
/// `y_loc` comes back empty (`0×w`).
///
/// Requires the panel `[k, k+w)` to lie within one block column
/// (`w ≤ nb` and `k % nb == 0`) and `k + w ≤ n`.
pub fn pdlaqrf(ctx: &Ctx, a: &mut DistMatrix, n: usize, k: usize, w: usize) -> PanelFactors {
    assert!(w >= 1 && k + w <= n, "pdlaqrf: bad panel (k={k}, w={w}, n={n})");
    assert_eq!(k % a.desc().nb, 0, "pdlaqrf: panel must start on a block boundary");
    assert!(w <= a.desc().nb, "pdlaqrf: panel wider than the blocking factor");
    assert!(n <= a.desc().m && n <= a.desc().n, "pdlaqrf: logical n exceeds the matrix");

    let q_pan = a.col_owner(k);
    let on_panel = ctx.mycol() == q_pan;
    let ldl = a.local().ld().max(1);
    let lr_n = a.local_rows_below(n);
    let mut tau = vec![0.0f64; w];

    // Per-column scratch, allocated once per panel.
    let mut al = vec![0.0f64];
    let mut vj: Vec<f64> = Vec::with_capacity(lr_n - a.local_rows_below(k));
    let mut wv: Vec<f64> = Vec::with_capacity(w);

    for (j, t) in tau.iter_mut().enumerate() {
        let c = k + j;
        let u = c; // unit on the diagonal
        if !on_panel {
            continue;
        }
        let lc = a.g2l_col(c);

        // ---- generate the reflector for column c (distributed larfg) ------
        let lr_u1 = a.local_rows_below(u + 1);
        let mut ss = [0.0f64];
        for x in &a.local().col(lc)[lr_u1..lr_n] {
            ss[0] += x * x;
        }
        ctx.allreduce_sum_col(&mut ss, TAG_NRM);
        let p_u = a.row_owner(u);
        al[0] = if ctx.myrow() == p_u { a.get(u, c) } else { 0.0 };
        ctx.bcast_col(p_u, &mut al, TAG_ALPHA);
        let alpha = al[0];
        let xnorm = ss[0].sqrt();
        let tau_j = if xnorm == 0.0 {
            0.0
        } else {
            let beta = -f64::hypot(alpha, xnorm) * alpha.signum();
            let s = 1.0 / (alpha - beta);
            for x in &mut a.local_mut().col_mut(lc)[lr_u1..lr_n] {
                *x *= s;
            }
            if ctx.myrow() == p_u {
                a.set(u, c, beta);
            }
            (beta - alpha) / beta
        };
        *t = tau_j;

        // ---- eager left application of H_j to the remaining panel columns
        // (rows u..n), the geqr2 step distributed over the process column.
        let rem = w - j - 1;
        if rem > 0 && tau_j != 0.0 {
            let lr_u = a.local_rows_below(u);
            let mt = lr_n - lr_u;
            // v_j = my rows of [1; A(u+1..n, c)]: the stored column, with
            // the unit in place of β where row u is mine (my first row ≥ u).
            vj.clear();
            vj.extend_from_slice(&a.local().as_slice()[lc * ldl + lr_u..lc * ldl + lr_n]);
            if ctx.myrow() == p_u {
                vj[0] = 1.0;
            }
            let lcc = a.g2l_col(c + 1);
            wv.clear();
            wv.resize(rem, 0.0);
            if mt > 0 {
                let cbuf = &a.local().as_slice()[lcc * ldl + lr_u..];
                gemv(Trans::Yes, mt, rem, 1.0, cbuf, ldl, &vj, 0.0, &mut wv);
            }
            ctx.allreduce_sum_col(&mut wv, TAG_LEFTW);
            if mt > 0 {
                for (jj, &wj) in wv.iter().enumerate() {
                    let cbuf = &mut a.local_mut().as_mut_slice()[(lcc + jj) * ldl + lr_u..(lcc + jj) * ldl + lr_n];
                    for (i, &vv) in vj.iter().enumerate() {
                        cbuf[i] -= tau_j * wj * vv;
                    }
                }
            }
        }
    }

    // ---- replicate V (rows k..n) and tau, assemble T locally --------------
    // T = larft(V, tau) is deterministic from replicated inputs, so every
    // process computes an identical copy without further communication.
    let vfull = replicate_reflector_block(ctx, a, n, k, w, 0);
    ctx.bcast_row(q_pan, &mut tau, TAG_TAUB);
    let mut t = Matrix::zeros(w, w);
    ft_lapack::householder::larft(vfull.rows(), w, vfull.as_slice(), vfull.rows().max(1), &tau, t.as_mut_slice(), w);
    let y_loc = Matrix::zeros(0, w);
    PanelFactors { k, w, n, v_row_offset: 0, tau, t, vfull, y_loc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Desc;
    use ft_dense::gen::uniform_entry;
    use ft_runtime::{run_spmd, FaultScript};

    /// Distributed panel must reproduce the shared-memory lahr2 outputs.
    #[test]
    fn pdlahrd_matches_shared_lahr2() {
        let n = 18;
        let nb = 4;
        let seed = 77;
        // Shared-memory reference.
        let mut aref = ft_dense::gen::uniform_indexed_matrix(n, n, seed);
        let mut tau_ref = vec![0.0; nb];
        let mut t_ref = Matrix::zeros(nb, nb);
        let mut y_ref = Matrix::zeros(n, nb);
        ft_lapack::lahr2(&mut aref, 0, nb, &mut tau_ref, &mut t_ref, &mut y_ref);
        // pdlahrd additionally applies the top-row fix to the within-panel
        // columns (k = 0 → row 0 of columns 1..nb); mirror it on the
        // reference. V(row g, l) = 0 / 1 / stored by position vs unit g=l+1.
        for gc in 1..nb {
            let mut s = 0.0;
            for l in 0..nb {
                let v = match gc.cmp(&(l + 1)) {
                    std::cmp::Ordering::Less => 0.0,
                    std::cmp::Ordering::Equal => 1.0,
                    std::cmp::Ordering::Greater => aref[(gc, l)],
                };
                s += y_ref[(0, l)] * v;
            }
            aref[(0, gc)] -= s;
        }

        for (p, q) in [(2usize, 2usize), (2, 3), (3, 2), (1, 1)] {
            let tau_ref = tau_ref.clone();
            let t_ref = t_ref.clone();
            let y_ref = y_ref.clone();
            let aref = aref.clone();
            run_spmd(p, q, FaultScript::none(), move |ctx| {
                let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(seed, i, j));
                let f = pdlahrd(&ctx, &mut a, n, 0, nb);
                // tau and T replicated and equal to reference.
                for (j, tr) in tau_ref.iter().enumerate() {
                    assert!((f.tau[j] - tr).abs() < 1e-12, "tau[{j}]");
                    for i in 0..=j {
                        assert!((f.t[(i, j)] - t_ref[(i, j)]).abs() < 1e-12, "T[{i},{j}]");
                    }
                }
                // V matches the reflectors stored by lahr2 (which stores β at
                // unit positions after the final restore — vfull holds 1).
                for l in 0..nb {
                    let unit = l + 1;
                    for g in 1..n {
                        let want = match g.cmp(&unit) {
                            std::cmp::Ordering::Less => 0.0,
                            std::cmp::Ordering::Equal => 1.0,
                            std::cmp::Ordering::Greater => aref[(g, l)],
                        };
                        assert!((f.vfull[(g - 1, l)] - want).abs() < 1e-12, "V[{g},{l}]: {} vs {want}", f.vfull[(g - 1, l)]);
                    }
                }
                // Y matches on my local rows.
                for lr in 0..f.y_loc.rows() {
                    let g = a.l2g_row(lr);
                    for l in 0..nb {
                        assert!(
                            (f.y_loc[(lr, l)] - y_ref[(g, l)]).abs() < 1e-10,
                            "Y[{g},{l}]: {} vs {}",
                            f.y_loc[(lr, l)],
                            y_ref[(g, l)]
                        );
                    }
                }
                // Panel columns of A match lahr2's in-place result.
                let ag = a.gather_all(&ctx, 990);
                for c in 0..nb {
                    for r in 0..n {
                        assert!((ag[(r, c)] - aref[(r, c)]).abs() < 1e-10, "A[{r},{c}]: {} vs {}", ag[(r, c)], aref[(r, c)]);
                    }
                }
            });
        }
    }

    /// Panels that do not start at column 0.
    #[test]
    fn pdlahrd_interior_panel_matches() {
        let n = 16;
        let nb = 3;
        let k = 3; // second block column
        let seed = 31;
        let mut aref = ft_dense::gen::uniform_indexed_matrix(n, n, seed);
        let mut tau_ref = vec![0.0; nb];
        let mut t_ref = Matrix::zeros(nb, nb);
        let mut y_ref = Matrix::zeros(n, nb);
        ft_lapack::lahr2(&mut aref, k, nb, &mut tau_ref, &mut t_ref, &mut y_ref);

        run_spmd(2, 2, FaultScript::none(), move |ctx| {
            let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(seed, i, j));
            let f = pdlahrd(&ctx, &mut a, n, k, nb);
            for (j, tr) in tau_ref.iter().enumerate() {
                assert!((f.tau[j] - tr).abs() < 1e-12);
            }
            for lr in 0..f.y_loc.rows() {
                let g = a.l2g_row(lr);
                for l in 0..nb {
                    assert!((f.y_loc[(lr, l)] - y_ref[(g, l)]).abs() < 1e-10);
                }
            }
        });
    }

    /// [`pdlahrd`] as it was before the panel block was replicated: only
    /// the owning process column runs the column steps; `v` is broadcast
    /// from it, the trailing products are reduced back to it, and `V`, `Y`,
    /// `T` and `τ` are broadcast when the panel is done. Kept as the oracle
    /// the replicated kernel is held to, bit for bit.
    fn pdlahrd_owner_column(ctx: &Ctx, a: &mut DistMatrix, n: usize, k: usize, w: usize) -> PanelFactors {
        const TAG_VCAST: Tag = Tag::Panel(20);
        const TAG_YB: Tag = Tag::Panel(21);
        const TAG_TB: Tag = Tag::Panel(22);
        let q_pan = a.col_owner(k);
        let on_panel = ctx.mycol() == q_pan;
        let ldl = a.local().ld().max(1);
        let lr_n = a.local_rows_below(n);
        let lr0 = a.local_rows_below(k + 1);
        let mlen = lr_n - lr0;
        let lcn = a.local_cols_below(n);

        let mut t = Matrix::zeros(w, w);
        let mut tau = vec![0.0f64; w];
        let mut y_loc = Matrix::zeros(lr_n, w);
        let ldy = lr_n.max(1);
        let mut vbuf = vec![0.0f64; if on_panel { mlen * w } else { 0 }];
        let mut ypart = vec![0.0f64; mlen];

        for j in 0..w {
            let c = k + j;
            let u = c + 1;
            let mut v = vec![0.0f64; n - u];

            if on_panel {
                let lc = a.g2l_col(c);
                if j > 0 {
                    let p_r = a.row_owner(k + j);
                    let mut vrow = vec![0.0f64; j];
                    if ctx.myrow() == p_r {
                        let lrr = a.g2l_row(k + j);
                        for (l, vr) in vrow.iter_mut().enumerate() {
                            *vr = if l == j - 1 { 1.0 } else { a.local()[(lrr, a.g2l_col(k + l))] };
                        }
                    }
                    ctx.bcast_col(p_r, &mut vrow, TAG_VROW);
                    if mlen > 0 {
                        let bcol = &mut a.local_mut().as_mut_slice()[lc * ldl + lr0..lc * ldl + lr_n];
                        gemv(Trans::No, mlen, j, -1.0, &y_loc.as_slice()[lr0..], ldy, &vrow, 1.0, bcol);
                    }

                    let vfix = &vbuf[..mlen * j];
                    let mut wv = vec![0.0f64; j];
                    if mlen > 0 {
                        let bcol = &a.local().as_slice()[lc * ldl + lr0..lc * ldl + lr_n];
                        gemv(Trans::Yes, mlen, j, 1.0, vfix, mlen.max(1), bcol, 0.0, &mut wv);
                    }
                    ctx.allreduce_sum_col(&mut wv, TAG_LEFTW);
                    trmv(UpLo::Upper, Trans::Yes, Diag::NonUnit, j, t.as_slice(), w, &mut wv);
                    if mlen > 0 {
                        let bcol = &mut a.local_mut().as_mut_slice()[lc * ldl + lr0..lc * ldl + lr_n];
                        gemv(Trans::No, mlen, j, -1.0, vfix, mlen.max(1), &wv, 1.0, bcol);
                    }
                }

                let lr_u = a.local_rows_below(u);
                let lr_u1 = a.local_rows_below(u + 1);
                let mut ss = [0.0f64];
                for lr in lr_u1..lr_n {
                    let x = a.local()[(lr, lc)];
                    ss[0] += x * x;
                }
                ctx.allreduce_sum_col(&mut ss, TAG_NRM);
                let p_u = a.row_owner(u);
                let mut al = vec![if ctx.myrow() == p_u { a.get(u, c) } else { 0.0 }];
                ctx.bcast_col(p_u, &mut al, TAG_ALPHA);
                let alpha = al[0];
                let xnorm = ss[0].sqrt();
                tau[j] = if xnorm == 0.0 {
                    0.0
                } else {
                    let beta = -f64::hypot(alpha, xnorm) * alpha.signum();
                    let s = 1.0 / (alpha - beta);
                    for lr in lr_u1..lr_n {
                        a.local_mut()[(lr, lc)] *= s;
                    }
                    if ctx.myrow() == p_u {
                        a.set(u, c, beta);
                    }
                    (beta - alpha) / beta
                };

                let vcol = &mut vbuf[j * mlen..(j + 1) * mlen];
                vcol[lr_u - lr0..lr_u1 - lr0].fill(1.0);
                vcol[lr_u1 - lr0..].copy_from_slice(&a.local().as_slice()[lc * ldl + lr_u1..lc * ldl + lr_n]);
                for (lr, &x) in (lr_u..lr_n).zip(&vcol[lr_u - lr0..]) {
                    v[a.l2g_row(lr) - u] = x;
                }
                ctx.allreduce_sum_col(&mut v, TAG_VCOL);
            }
            ctx.bcast_row(q_pan, &mut v, TAG_VCAST);

            let lc0 = a.local_cols_below(c + 1);
            let ncl = lcn - lc0;
            if mlen > 0 && ncl > 0 {
                let xloc: Vec<f64> = (lc0..lcn).map(|lcx| v[a.l2g_col(lcx) - u]).collect();
                let abuf = &a.local().as_slice()[lc0 * ldl + lr0..];
                gemv(Trans::No, mlen, ncl, 1.0, abuf, ldl, &xloc, 0.0, &mut ypart);
            } else {
                ypart.fill(0.0);
            }
            ctx.reduce_sum_row(q_pan, &mut ypart, TAG_YRED);

            if on_panel {
                let lr_u = a.local_rows_below(u);
                let mmt = lr_n - lr_u;
                let mut tcol = vec![0.0f64; j];
                if j > 0 {
                    if mmt > 0 {
                        let vloc: Vec<f64> = (lr_u..lr_n).map(|lr| v[a.l2g_row(lr) - u]).collect();
                        let abuf = &a.local().as_slice()[a.g2l_col(k) * ldl + lr_u..];
                        gemv(Trans::Yes, mmt, j, 1.0, abuf, ldl, &vloc, 0.0, &mut tcol);
                    }
                    ctx.allreduce_sum_col(&mut tcol, TAG_TCOL);
                }

                let tau_j = tau[j];
                {
                    let (ydone, ycur) = y_loc.as_mut_slice().split_at_mut(j * ldy);
                    let ycol = &mut ycur[lr0..lr_n];
                    ycol.copy_from_slice(&ypart);
                    if j > 0 && mlen > 0 {
                        gemv(Trans::No, mlen, j, -1.0, &ydone[lr0..], ldy, &tcol, 1.0, ycol);
                    }
                    scal(tau_j, ycol);
                }
                scal(-tau_j, &mut tcol);
                trmv(UpLo::Upper, Trans::No, Diag::NonUnit, j, t.as_slice(), w, &mut tcol);
                for (l, tv) in tcol.iter().enumerate() {
                    t[(l, j)] = *tv;
                }
                t[(j, j)] = tau_j;
            }
        }

        let vfull = replicate_reflector_block(ctx, a, n, k, w, 1);

        let lrtop = lr0;
        let lc0 = a.local_cols_below(k + 1);
        let ncl = lcn - lc0;
        let mut ptop = vec![0.0f64; lrtop * w];
        if lrtop > 0 && ncl > 0 {
            let vsel = Matrix::from_fn(ncl, w, |i, l| vfull[(a.l2g_col(lc0 + i) - k - 1, l)]);
            let abuf = &a.local().as_slice()[lc0 * ldl..];
            gemm(Trans::No, Trans::No, lrtop, w, ncl, 1.0, abuf, ldl, vsel.as_slice(), ncl, 0.0, &mut ptop, lrtop);
        }
        ctx.reduce_sum_row(q_pan, &mut ptop, TAG_PTOP);
        if on_panel && lrtop > 0 {
            trmm(Side::Right, UpLo::Upper, Trans::No, Diag::NonUnit, lrtop, w, 1.0, t.as_slice(), w, &mut ptop, lrtop);
            for l in 0..w {
                for i in 0..lrtop {
                    y_loc[(i, l)] = ptop[i + l * lrtop];
                }
            }
            for lc in a.local_cols_below(k + 1)..a.local_cols_below(k + w) {
                let gc = a.l2g_col(lc);
                let vr: Vec<f64> = (0..w).map(|l| vfull[(gc - k - 1, l)]).collect();
                let cbuf = &mut a.local_mut().as_mut_slice()[lc * ldl..lc * ldl + lrtop];
                gemv(Trans::No, lrtop, w, -1.0, y_loc.as_slice(), ldy, &vr, 1.0, cbuf);
            }
        }

        let mut ybuf = y_loc.as_slice().to_vec();
        ctx.bcast_row(q_pan, &mut ybuf, TAG_YB);
        let y_loc = Matrix::from_vec(lr_n, w, ybuf);
        let mut tbuf = t.as_slice().to_vec();
        ctx.bcast_row(q_pan, &mut tbuf, TAG_TB);
        let t = Matrix::from_vec(w, w, tbuf);
        ctx.bcast_row(q_pan, &mut tau, TAG_TAUB);
        PanelFactors { k, w, n, v_row_offset: 1, tau, t, vfull, y_loc }
    }

    /// Replicating the panel block changes who computes what, never a
    /// floating-point operation of the result: every output — and the whole
    /// local matrix — equals the owner-column kernel's bit for bit, on every
    /// rank; rows of one to five process columns (every rotation of the
    /// rooted row sums), one to three process rows, two sizes, first,
    /// interior and ragged last panels.
    #[test]
    fn pdlahrd_is_bitwise_the_owner_column_kernel() {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let grids = [
            (1usize, 1usize),
            (1, 2),
            (1, 3),
            (1, 4),
            (1, 5),
            (2, 2),
            (2, 3),
            (3, 2),
            (3, 3),
            (2, 4),
        ];
        for (n, nb, seed) in [(37usize, 5usize, 913u64), (50, 4, 17)] {
            let last = (n - 3) / nb * nb;
            for (p, q) in grids {
                // Every process column owns one of these panels when q ≤ 5.
                let interior: Vec<usize> = (1..=q.min(4)).map(|b| b * nb).collect();
                for k in [0].into_iter().chain(interior).chain([last]) {
                    let w = nb.min(n - 2 - k);
                    run_spmd(p, q, FaultScript::none(), move |ctx| {
                        let fresh = || DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(seed, i, j));
                        let (mut a, mut a_ref) = (fresh(), fresh());
                        let f = pdlahrd(&ctx, &mut a, n, k, w);
                        let f_ref = pdlahrd_owner_column(&ctx, &mut a_ref, n, k, w);
                        let at = format!("{p}x{q} n={n} k={k} w={w} rank {}", ctx.rank());
                        assert_eq!(bits(&f.tau), bits(&f_ref.tau), "tau, {at}");
                        assert_eq!(bits(f.t.as_slice()), bits(f_ref.t.as_slice()), "T, {at}");
                        assert_eq!(bits(f.vfull.as_slice()), bits(f_ref.vfull.as_slice()), "vfull, {at}");
                        assert_eq!(bits(f.y_loc.as_slice()), bits(f_ref.y_loc.as_slice()), "y_loc, {at}");
                        assert_eq!(bits(a.local().as_slice()), bits(a_ref.local().as_slice()), "local matrix, {at}");
                    });
                }
            }
        }
    }

    /// The run-copy gather of `pdlahrd`'s `xloc` and `vsel` is the
    /// per-element map it replaced: on ragged 1×4 and 2×3 grids (`n` not a
    /// multiple of `nb`, the matrix wider than `n` as under the checksum
    /// encoding), every range of my local columns — block-aligned or not —
    /// gathers what one `l2g_col` per column names.
    #[test]
    fn col_runs_gather_is_the_per_element_map() {
        for (p, q) in [(1usize, 4usize), (2, 3)] {
            run_spmd(p, q, FaultScript::none(), move |ctx| {
                let (n, nb) = (23, 3);
                let a = DistMatrix::zeros(&ctx, Desc { m: n, n: n + 2 * nb, nb });
                let src: Vec<f64> = (0..n + 2 * nb).map(|g| g as f64 * 0.5 - 3.0).collect();
                let lcn = a.local().cols();
                for lc0 in 0..=lcn {
                    for lc1 in lc0..=lcn {
                        let mut got = Vec::new();
                        for (i, g, len) in a.col_runs(lc0, lc1) {
                            assert_eq!(i, got.len(), "{p}x{q} rank {}: run offset", ctx.rank());
                            got.extend_from_slice(&src[g..g + len]);
                        }
                        let want: Vec<f64> = (lc0..lc1).map(|lc| src[a.l2g_col(lc)]).collect();
                        assert_eq!(got, want, "{p}x{q} rank {}: local columns {lc0}..{lc1}", ctx.rank());
                    }
                }
            });
        }
    }

    /// `pdlaqrf`'s replicated `V` is the per-element extraction from the
    /// factored matrix — 0 above each unit, 1 at it, the stored entry below —
    /// bit for bit, at P ∈ {1, 2, 3} with `N` not a multiple of `nb`, on
    /// every panel including the ragged last one.
    #[test]
    fn pdlaqrf_v_replica_is_the_per_element_extraction() {
        let (n, nb) = (23, 4);
        for (p, q) in [(1usize, 1usize), (2, 1), (3, 1), (3, 2)] {
            run_spmd(p, q, FaultScript::none(), move |ctx| {
                let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(21, i, j));
                for k in (0..n).step_by(nb) {
                    let w = nb.min(n - k);
                    let f = pdlaqrf(&ctx, &mut a, n, k, w);
                    let ag = a.gather_all(&ctx, 995);
                    let want = Matrix::from_fn(n - k, w, |r, l| match (k + r).cmp(&(k + l)) {
                        std::cmp::Ordering::Less => 0.0,
                        std::cmp::Ordering::Equal => 1.0,
                        std::cmp::Ordering::Greater => ag[(k + r, k + l)],
                    });
                    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&f.vfull), bits(&want), "{p}x{q} k={k} rank {}", ctx.rank());
                    if a.owns_col(k) {
                        assert_eq!(bits(&f.v_for_local_rows(&a)), bits(&extract_v_local(&a, k, w, k, n, 0)), "{p}x{q} k={k}");
                    }
                }
            });
        }
    }

    #[test]
    fn v_for_local_rows_is_my_rows_of_vfull() {
        let (n, nb, k) = (17, 3, 3);
        run_spmd(3, 2, FaultScript::none(), move |ctx| {
            let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(8, i, j));
            let f = pdlahrd(&ctx, &mut a, n, k, nb);
            let v = f.v_for_local_rows(&a);
            let lr0 = a.local_rows_below(f.v_row0());
            assert_eq!(v.rows(), a.local_rows_below(n) - lr0);
            for i in 0..v.rows() {
                let g = a.l2g_row(lr0 + i);
                for l in 0..nb {
                    assert_eq!(v[(i, l)].to_bits(), f.vfull[(g - f.v_row0(), l)].to_bits(), "row {g} reflector {l}");
                }
            }
        });
    }

    #[test]
    fn vrows_helper_units_and_zeros() {
        let n = 10;
        run_spmd(1, 1, FaultScript::none(), move |ctx| {
            let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb: 3 }, |i, j| uniform_entry(5, i, j));
            let f = pdlahrd(&ctx, &mut a, n, 0, 3);
            let vr = f.vrows_for(&[1, 2, 5]);
            // global row 1 = unit of reflector 0, zero for others
            assert_eq!(vr[(0, 0)], 1.0);
            assert_eq!(vr[(0, 1)], 0.0);
            assert_eq!(vr[(0, 2)], 0.0);
            // global row 2 = unit of reflector 1
            assert_eq!(vr[(1, 1)], 1.0);
            assert_eq!(vr[(1, 2)], 0.0);
            // row 5 all stored
            assert_eq!(vr[(2, 0)], f.vfull[(4, 0)]);
            // Runs of any length, in any order, gather the rows they name.
            let cols = [5, 6, 7, 2, 9, 3, 4];
            let vr = f.vrows_for(&cols);
            for (i, &g) in cols.iter().enumerate() {
                for l in 0..3 {
                    assert_eq!(vr[(i, l)].to_bits(), f.vfull[(g - 1, l)].to_bits(), "row {g} reflector {l}");
                }
            }
            assert_eq!(f.vrows_for(&[]).rows(), 0);
        });
    }
}
