//! The distributed matrix: per-process local storage of a 2D block-cyclic
//! global matrix (Figure 1 of the paper).

use crate::layout::{block_runs, g2l, g2p, l2g, numroc};
use ft_dense::Matrix;
use ft_runtime::{Ctx, Tag};

/// Global shape + blocking of a distributed matrix (a ScaLAPACK descriptor
/// with square `nb×nb` blocks and source process `(0,0)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Desc {
    /// Global rows.
    pub m: usize,
    /// Global columns.
    pub n: usize,
    /// Blocking factor (square blocks).
    pub nb: usize,
}

/// One process's share of a 2D block-cyclic distributed matrix.
///
/// The local part is a dense column-major [`Matrix`] whose local indices map
/// to global ones through [`Self::l2g_row`]/[`Self::l2g_col`]; local order
/// is globally monotone in both dimensions. Walks that copy between local
/// and global order go a block at a time, through [`Self::row_runs`] /
/// [`Self::col_runs`].
///
/// ```
/// use ft_pblas::{Desc, DistMatrix};
/// use ft_runtime::{run_spmd, FaultScript};
///
/// run_spmd(2, 3, FaultScript::none(), |ctx| {
///     // Each process materializes only its own entries of a 10×10 matrix.
///     let d = DistMatrix::from_global_fn(&ctx, Desc { m: 10, n: 10, nb: 2 }, |i, j| (i * 10 + j) as f64);
///     // … and the gathered global matrix is intact.
///     let g = d.gather_all(&ctx, 1);
///     assert_eq!(g[(7, 4)], 74.0);
/// });
/// ```
#[derive(Debug, Clone)]
pub struct DistMatrix {
    desc: Desc,
    nprow: usize,
    npcol: usize,
    myrow: usize,
    mycol: usize,
    local: Matrix,
}

impl DistMatrix {
    /// Allocate this process's zero-filled share.
    pub fn zeros(ctx: &Ctx, desc: Desc) -> Self {
        let (nprow, npcol) = (ctx.nprow(), ctx.npcol());
        let (myrow, mycol) = (ctx.myrow(), ctx.mycol());
        let lr = numroc(desc.m, desc.nb, myrow, nprow);
        let lc = numroc(desc.n, desc.nb, mycol, npcol);
        Self {
            desc,
            nprow,
            npcol,
            myrow,
            mycol,
            local: Matrix::zeros(lr, lc),
        }
    }

    /// Build this process's share from a function of the **global** index —
    /// no communication; every process evaluates only its own entries.
    pub fn from_global_fn(ctx: &Ctx, desc: Desc, f: impl Fn(usize, usize) -> f64) -> Self {
        Self::from_leading_fn(ctx, desc, desc.m, desc.n, f)
    }

    /// Like [`Self::from_global_fn`] for a matrix that is zero outside its
    /// leading `m×n` block: `f` is evaluated only at global `(i, j)` with
    /// `i < m` and `j < n`, and everything else stays zero as allocated.
    pub fn from_leading_fn(ctx: &Ctx, desc: Desc, m: usize, n: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        assert!(m <= desc.m && n <= desc.n, "from_leading_fn: {m}x{n} exceeds the matrix");
        let mut d = Self::zeros(ctx, desc);
        let lr = d.local_rows_below(m);
        for (c, gc0, clen) in d.col_runs(0, d.local_cols_below(n)) {
            for (lc, gc) in (c..c + clen).zip(gc0..) {
                let rows = d.row_runs(0, lr);
                let col = d.local.col_mut(lc);
                for (r, gr0, rlen) in rows {
                    for (x, gr) in col[r..r + rlen].iter_mut().zip(gr0..) {
                        *x = f(gr, gc);
                    }
                }
            }
        }
        d
    }

    /// Global shape descriptor.
    #[inline]
    pub fn desc(&self) -> Desc {
        self.desc
    }

    /// Local row count.
    #[inline]
    pub fn lrows(&self) -> usize {
        self.local.rows()
    }

    /// Local column count.
    #[inline]
    pub fn lcols(&self) -> usize {
        self.local.cols()
    }

    /// The local block, immutably.
    #[inline]
    pub fn local(&self) -> &Matrix {
        &self.local
    }

    /// The local block, mutably.
    #[inline]
    pub fn local_mut(&mut self) -> &mut Matrix {
        &mut self.local
    }

    /// My local rows `lr0..lr1` as runs of consecutive global rows, a block
    /// at a time ([`block_runs`]): `(i, g, len)` says local rows `lr0 + i ..`
    /// are global rows `g ..`.
    #[inline]
    pub(crate) fn row_runs(&self, lr0: usize, lr1: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        block_runs(lr0, lr1, self.desc.nb, self.myrow, self.nprow)
    }

    /// My local columns `lc0..lc1` as runs of consecutive global columns
    /// ([`Self::row_runs`] across the process row).
    #[inline]
    pub(crate) fn col_runs(&self, lc0: usize, lc1: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        block_runs(lc0, lc1, self.desc.nb, self.mycol, self.npcol)
    }

    /// Global row of local row `lr`.
    #[inline]
    pub fn l2g_row(&self, lr: usize) -> usize {
        l2g(lr, self.desc.nb, self.myrow, self.nprow)
    }

    /// Global column of local column `lc`.
    #[inline]
    pub fn l2g_col(&self, lc: usize) -> usize {
        l2g(lc, self.desc.nb, self.mycol, self.npcol)
    }

    /// Owning process row of global row `g`.
    #[inline]
    pub fn row_owner(&self, g: usize) -> usize {
        g2p(g, self.desc.nb, self.nprow)
    }

    /// Owning process column of global column `g`.
    #[inline]
    pub fn col_owner(&self, g: usize) -> usize {
        g2p(g, self.desc.nb, self.npcol)
    }

    /// `true` if this process owns global row `g`.
    #[inline]
    pub fn owns_row(&self, g: usize) -> bool {
        self.row_owner(g) == self.myrow
    }

    /// `true` if this process owns global column `g`.
    #[inline]
    pub fn owns_col(&self, g: usize) -> bool {
        self.col_owner(g) == self.mycol
    }

    /// Local row index of global row `g` (meaningful only on the owner).
    #[inline]
    pub fn g2l_row(&self, g: usize) -> usize {
        g2l(g, self.desc.nb, self.nprow)
    }

    /// Local column index of global column `g` (meaningful only on the owner).
    #[inline]
    pub fn g2l_col(&self, g: usize) -> usize {
        g2l(g, self.desc.nb, self.npcol)
    }

    /// Number of local rows with global index `< g` (they form the local
    /// prefix `0..count`, since local order is globally monotone).
    #[inline]
    pub fn local_rows_below(&self, g: usize) -> usize {
        numroc(g, self.desc.nb, self.myrow, self.nprow)
    }

    /// Number of local columns with global index `< g`.
    #[inline]
    pub fn local_cols_below(&self, g: usize) -> usize {
        numroc(g, self.desc.nb, self.mycol, self.npcol)
    }

    /// Read a global entry (panics unless this process owns it).
    #[inline]
    pub fn get(&self, gr: usize, gc: usize) -> f64 {
        debug_assert!(self.owns_row(gr) && self.owns_col(gc), "get({gr},{gc}): not the owner");
        self.local[(self.g2l_row(gr), self.g2l_col(gc))]
    }

    /// Write a global entry (panics unless this process owns it).
    #[inline]
    pub fn set(&mut self, gr: usize, gc: usize, v: f64) {
        debug_assert!(self.owns_row(gr) && self.owns_col(gc), "set({gr},{gc}): not the owner");
        let (lr, lc) = (self.g2l_row(gr), self.g2l_col(gc));
        self.local[(lr, lc)] = v;
    }

    /// Drop all local data (the fail-stop data loss of a process failure):
    /// the replacement process starts from zeros, exactly the "invalid data"
    /// state of Figure 2 of the paper.
    pub fn wipe_local(&mut self) {
        self.local.fill(0.0);
    }

    /// Assemble the full global matrix on **every** process (collective).
    /// Intended for tests, residual checks and result extraction — not for
    /// inner loops.
    pub fn gather_all(&self, ctx: &Ctx, tag: impl Into<Tag>) -> Matrix {
        // Every process contributes its entries into a zero global buffer,
        // then a world sum-reduce superimposes them (each entry has exactly
        // one owner, so the sum is exact placement).
        let mut g = vec![0.0f64; self.desc.m * self.desc.n];
        self.place_share(self.local.as_slice(), self.lrows(), (self.myrow, self.mycol), &mut g, self.desc.m);
        ctx.allreduce_sum_world(&mut g, tag);
        Matrix::from_vec(self.desc.m, self.desc.n, g)
    }

    /// Assemble the full global matrix on rank 0 only (collective; returns
    /// `None` elsewhere). Linear in total matrix size — prefer this over
    /// [`DistMatrix::gather_all`] when only one process needs the result.
    pub fn gather_root(&self, ctx: &Ctx, tag: impl Into<Tag>) -> Option<Matrix> {
        self.gather_root_leading(ctx, tag, self.desc.m, self.desc.n)
    }

    /// Assemble the leading `m×n` block of the global matrix on rank 0 only
    /// (collective; `None` elsewhere). Each process ships just its entries
    /// inside the block — the local prefix `local_rows_below(m) ×
    /// local_cols_below(n)`, no header: the root knows every share's shape.
    pub fn gather_root_leading(&self, ctx: &Ctx, tag: impl Into<Tag>, m: usize, n: usize) -> Option<Matrix> {
        assert!(m <= self.desc.m && n <= self.desc.n, "gather_root_leading: {m}x{n} exceeds the matrix");
        let tag = tag.into();
        let (lr, lc) = (self.local_rows_below(m), self.local_cols_below(n));
        let mut mine = Vec::with_capacity(lr * lc);
        for c in 0..lc {
            mine.extend_from_slice(&self.local.col(c)[..lr]);
        }
        if ctx.rank() != 0 {
            ctx.send(0, tag, &mine);
            return None;
        }
        let grid = ctx.grid();
        let mut g = Matrix::zeros(m, n);
        for src in 0..grid.size() {
            let theirs;
            let buf = if src == 0 {
                &mine
            } else {
                theirs = ctx.recv(src, tag);
                &theirs
            };
            let (sp, sq) = grid.coords_of(src);
            self.place_share(buf, numroc(m, self.desc.nb, sp, self.nprow), (sp, sq), g.as_mut_slice(), m);
        }
        Some(g)
    }

    /// Copy process `(p, q)`'s share `src` (column-major, `lr` rows a
    /// column, a prefix of its local block) to its global positions in `dst`
    /// (column-major, leading dimension `ldg`): one slice copy per local
    /// column and block row.
    fn place_share(&self, src: &[f64], lr: usize, (p, q): (usize, usize), dst: &mut [f64], ldg: usize) {
        if lr == 0 {
            return;
        }
        let nb = self.desc.nb;
        for (c, gc0, clen) in block_runs(0, src.len() / lr, nb, q, self.npcol) {
            for (col, gc) in src[c * lr..(c + clen) * lr].chunks_exact(lr).zip(gc0..) {
                let out = &mut dst[gc * ldg..(gc + 1) * ldg];
                for (r, gr, rlen) in block_runs(0, lr, nb, p, self.nprow) {
                    out[gr..gr + rlen].copy_from_slice(&col[r..r + rlen]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_runtime::{run_spmd, FaultScript};

    fn val(i: usize, j: usize) -> f64 {
        (i * 1000 + j) as f64
    }

    #[test]
    fn scatter_gather_roundtrip() {
        for &(p, q, m, n, nb) in &[
            (2usize, 3usize, 10usize, 13usize, 2usize),
            (2, 2, 8, 8, 3),
            (1, 1, 5, 4, 2),
            (3, 2, 7, 7, 7),
        ] {
            let globals = run_spmd(p, q, FaultScript::none(), |ctx| {
                let d = DistMatrix::from_global_fn(&ctx, Desc { m, n, nb }, val);
                d.gather_all(&ctx, 900)
            });
            let want = Matrix::from_fn(m, n, val);
            for g in globals {
                assert_eq!(g, want);
            }
        }
    }

    #[test]
    fn ownership_and_local_mapping() {
        run_spmd(2, 3, FaultScript::none(), |ctx| {
            let d = DistMatrix::from_global_fn(&ctx, Desc { m: 9, n: 9, nb: 2 }, val);
            // Every local entry maps back to the right global value.
            for lc in 0..d.lcols() {
                for lr in 0..d.lrows() {
                    let (gr, gc) = (d.l2g_row(lr), d.l2g_col(lc));
                    assert!(d.owns_row(gr) && d.owns_col(gc));
                    assert_eq!(d.get(gr, gc), val(gr, gc));
                }
            }
            // Prefix counts agree with explicit filters.
            for cutoff in 0..10 {
                let cnt = (0..9).filter(|&g| d.owns_row(g) && g < cutoff).count();
                assert_eq!(d.local_rows_below(cutoff), cnt);
            }
        });
    }

    #[test]
    fn local_sizes_sum_to_global() {
        let sizes = run_spmd(2, 3, FaultScript::none(), |ctx| {
            let d = DistMatrix::zeros(&ctx, Desc { m: 11, n: 7, nb: 3 });
            d.lrows() * d.lcols()
        });
        // Total elements = m*n only when summed correctly per row/col combo;
        // check row sums instead: per process row, columns split 7.
        let total: usize = sizes.iter().sum();
        assert_eq!(total, {
            // Σ_p Σ_q numroc_r(p)·numroc_c(q) = m·n
            11 * 7
        });
    }

    /// The per-element fill [`DistMatrix::from_leading_fn`] replaced: one
    /// `l2g_row` / `l2g_col` pair and one generator call per local entry.
    fn fill_per_element(d: &mut DistMatrix, m: usize, n: usize, f: impl Fn(usize, usize) -> f64) {
        for lc in 0..d.lcols() {
            let gc = d.l2g_col(lc);
            for lr in 0..d.lrows() {
                let gr = d.l2g_row(lr);
                d.local_mut()[(lr, lc)] = if gr < m && gc < n { f(gr, gc) } else { 0.0 };
            }
        }
    }

    /// The block-run fill is the per-element map, bit for bit, on 1×1, 1×3,
    /// 2×3 and 3×2 grids with `nb ∤ N`, for the whole matrix and for leading
    /// blocks of every shape. `N = 5, nb = 3` leaves process column 2 (and,
    /// on 3×2, process row 2) with an empty local block.
    #[test]
    fn from_global_fn_is_the_per_element_map() {
        let bits = |d: &DistMatrix| d.local().as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let f = |i: usize, j: usize| ft_dense::gen::uniform_entry(41, i, j);
        for (p, q) in [(1usize, 1usize), (1, 3), (2, 3), (3, 2)] {
            let empty = run_spmd(p, q, FaultScript::none(), move |ctx| {
                let mut empty = false;
                for (m, n, nb) in [(5usize, 5usize, 3usize), (7, 5, 3), (10, 13, 4), (13, 10, 4)] {
                    let desc = Desc { m, n, nb };
                    let mut want = DistMatrix::zeros(&ctx, desc);
                    fill_per_element(&mut want, m, n, f);
                    assert_eq!(bits(&DistMatrix::from_global_fn(&ctx, desc, f)), bits(&want), "{p}x{q} {m}x{n} nb={nb}");
                    for (lm, ln) in [(0, 0), (m, 0), (m - 1, n), (m / 2, n - 2), (1, 1)] {
                        let mut want = DistMatrix::zeros(&ctx, desc);
                        fill_per_element(&mut want, lm, ln, f);
                        let got = DistMatrix::from_leading_fn(&ctx, desc, lm, ln, f);
                        assert_eq!(bits(&got), bits(&want), "{p}x{q} {m}x{n} nb={nb}, leading {lm}x{ln}");
                    }
                    empty |= want.lrows() * want.lcols() == 0;
                }
                empty
            });
            assert_eq!(empty.iter().any(|&e| e), q == 3 || p == 3, "{p}x{q}: which ranks hold an empty block");
        }
    }

    /// The root's block-run placement of every share is `gather_all`'s
    /// leading block, bit for bit, on a ragged 2×3 grid — square, tall,
    /// wide, whole and empty-row/column blocks.
    #[test]
    fn gather_root_leading_is_gather_alls_leading_block() {
        let (m, n, nb) = (23, 19, 4);
        run_spmd(2, 3, FaultScript::none(), move |ctx| {
            let d = DistMatrix::from_global_fn(&ctx, Desc { m, n, nb }, |i, j| ft_dense::gen::uniform_entry(6, i, j));
            let whole = d.gather_all(&ctx, 902);
            for (i, (lm, ln)) in [(m, n), (19, 19), (23, 7), (5, 19), (9, 13), (0, 4), (4, 0)]
                .into_iter()
                .enumerate()
            {
                let got = d.gather_root_leading(&ctx, 903 + i as u32, lm, ln);
                if ctx.rank() != 0 {
                    assert!(got.is_none());
                    continue;
                }
                let got = got.expect("rank 0 holds the gathered block");
                let want = whole.submatrix(0, 0, lm, ln);
                let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "leading {lm}x{ln}");
            }
        });
    }

    #[test]
    fn wipe_clears_local_only() {
        let globals = run_spmd(2, 2, FaultScript::none(), |ctx| {
            let mut d = DistMatrix::from_global_fn(&ctx, Desc { m: 6, n: 6, nb: 2 }, |_, _| 1.0);
            if ctx.rank() == 3 {
                d.wipe_local();
            }
            d.gather_all(&ctx, 901)
        });
        let g = &globals[0];
        let zeros = g.as_slice().iter().filter(|&&x| x == 0.0).count();
        // rank 3 = (row 1, col 1): owns rows {2,3}, cols {2,3} of each 2-block
        // cycle → 2×... just assert some but not all entries were lost.
        assert!(zeros > 0 && zeros < 36);
    }
}
