//! Householder reflector kernels (LAPACK `dlarfg`/`dlarf`/`dlarft`/`dlarfb`
//! equivalents).
//!
//! A reflector is `H = I − τ·v·vᵀ` with `v[0] = 1`. A block of `k` reflectors
//! in the compact WY representation (Bischof & Van Loan; Schreiber & Van
//! Loan — refs [3, 40] of the paper) is `Q = H₀H₁⋯H_{k−1} = I − V·T·Vᵀ`
//! where `V` is unit lower trapezoidal (column `j` has an implicit 1 at row
//! `j` and zeros above) and `T` is `k×k` upper triangular.

use ft_dense::counters::add_flops;
use ft_dense::level1::{axpy, nrm2, scal};
use ft_dense::level2::{gemv, gemv_t_by_column, ger, trmv, trmv_scalar};
use ft_dense::level3::{gemm, trmm};
use ft_dense::{Diag, Side, Trans, UpLo};

/// Generate an elementary reflector `H = I − τ·v·vᵀ` such that
/// `H·[α; x] = [β; 0]` with `v = [1; x']` (LAPACK `dlarfg`).
///
/// On exit `alpha` holds `β` and `x` holds the tail of `v`; returns `τ`.
/// `τ = 0` (identity) when `x` is already zero.
pub fn larfg(alpha: &mut f64, x: &mut [f64]) -> f64 {
    let xnorm = nrm2(x);
    if xnorm == 0.0 {
        return 0.0;
    }
    let beta = -f64::hypot(*alpha, xnorm) * (*alpha).signum();
    let tau = (beta - *alpha) / beta;
    scal(1.0 / (*alpha - beta), x);
    *alpha = beta;
    tau
}

/// Apply `H = I − τ·v·vᵀ` from the **left**: `C ← H·C` where `C` is `m×n`
/// (leading dimension `ldc`) and `v` has length `m` (the leading 1 stored
/// explicitly by the caller).
pub fn larf_left(tau: f64, v: &[f64], m: usize, n: usize, c: &mut [f64], ldc: usize) {
    if tau == 0.0 || m == 0 || n == 0 {
        return;
    }
    assert_eq!(v.len(), m, "larf_left: v length");
    // w = Cᵀ·v ; C ← C − τ·v·wᵀ
    let mut w = vec![0.0; n];
    gemv(Trans::Yes, m, n, 1.0, c, ldc, v, 0.0, &mut w);
    ger(m, n, -tau, v, &w, c, ldc);
}

/// Apply `H = I − τ·v·vᵀ` from the **right**: `C ← C·H` where `C` is `m×n`
/// and `v` has length `n`.
pub fn larf_right(tau: f64, v: &[f64], m: usize, n: usize, c: &mut [f64], ldc: usize) {
    if tau == 0.0 || m == 0 || n == 0 {
        return;
    }
    assert_eq!(v.len(), n, "larf_right: v length");
    // w = C·v ; C ← C − τ·w·vᵀ
    let mut w = vec![0.0; m];
    gemv(Trans::No, m, n, 1.0, c, ldc, v, 0.0, &mut w);
    ger(m, n, -tau, &w, v, c, ldc);
}

/// Form the upper triangular factor `T` of the compact WY representation
/// (`dlarft` with `DIRECT='F'`, `STOREV='C'`).
///
/// `v` is `m×k` (leading dimension `ldv`) storing the reflectors
/// column-wise with the **implicit** unit diagonal: element `(j, j)` is
/// assumed 1 and elements above it are assumed 0, whatever the buffer holds.
/// `t` is `k×k` (leading dimension `ldt`); only its upper triangle is
/// written.
pub fn larft(m: usize, k: usize, v: &[f64], ldv: usize, tau: &[f64], t: &mut [f64], ldt: usize) {
    assert!(ldv >= m.max(1));
    assert!(ldt >= k.max(1));
    assert_eq!(tau.len(), k);
    let (dots, nj) = tail_dots(m, k, v, ldv);
    for i in 0..k {
        if tau[i] == 0.0 {
            for j in 0..=i {
                t[j + i * ldt] = 0.0;
            }
            continue;
        }
        // t(0..i) = −τᵢ · V(i..m, 0..i)ᵀ · v_i, exploiting v_i = [0…0, 1, tail].
        // Row i of V holds the stored entries of earlier columns (all below
        // their unit), and v_i's unit contributes V(i, j) directly; the
        // tail's dots are added as `gemv(Trans::Yes)` with β = 1 would add them.
        let mut tcol = vec![0.0; i];
        for (j, tc) in tcol.iter_mut().enumerate() {
            *tc = -tau[i] * v[i + j * ldv];
        }
        if m > i + 1 {
            add_flops(2 * (m - i - 1) as u64 * i as u64);
            let row = &dots[i * nj..];
            for (j, tc) in tcol.iter_mut().enumerate() {
                *tc += -tau[i] * row[j / 8][j % 8];
            }
        }
        // t(0..i) ← T(0..i,0..i)·t(0..i)
        trmv(UpLo::Upper, Trans::No, Diag::NonUnit, i, t, ldt, &mut tcol);
        for (j, tc) in tcol.iter().enumerate() {
            t[j + i * ldt] = *tc;
        }
        t[i + i * ldt] = tau[i];
    }
}

/// Rows of `V` per transposed tile in [`tail_dots`].
const DOT_ROWS: usize = 64;

/// The dots `larft` needs, in one pass over `V`: `S(i, j) = Σ_{r>i}
/// V(r,j)·V(r,i)` for every `j < i < k`, returned as `[f64; 8]` blocks at
/// `[i·nj + j/8][j % 8]` with `nj = ⌈k/8⌉` (the other lanes hold scratch).
/// Each dot is its own chain, summed from zero in row order with a multiply
/// then an add, as `gemv(Trans::Yes)`'s column sweep sums it, so no bit
/// depends on the blocking. `DOT_ROWS` rows at a time are transposed into a
/// row-major tile whose eight-column blocks are the lanes; eight columns `i`
/// share each pass over the tile, each with its own eight-lane chain.
fn tail_dots(m: usize, k: usize, v: &[f64], ldv: usize) -> (Vec<[f64; 8]>, usize) {
    const IB: usize = 8;
    let nj = k.div_ceil(8);
    let kp = 8 * nj;
    let mut dots = vec![[0.0f64; 8]; kp * nj];
    let mut tile = vec![0.0f64; DOT_ROWS.min(m) * kp];
    for r0 in (0..m).step_by(DOT_ROWS) {
        let r1 = (r0 + DOT_ROWS).min(m);
        for j in 0..k {
            let col = &v[j * ldv + r0..j * ldv + r1];
            col.iter().enumerate().for_each(|(r, &x)| tile[r * kp + j] = x);
        }
        for i0 in (0..k).step_by(IB) {
            // Dot (j, i) takes rows r > i: the rows below i0 + IB take every
            // column of this block, the ones above it only some.
            let head = r0.max(i0 + 1)..r1.min(i0 + IB);
            let bulk = r0.max(i0 + IB)..r1;
            for jb in 0..=i0 / 8 {
                for r in head.clone() {
                    let row = &tile[(r - r0) * kp..];
                    for ii in 0..r - i0 {
                        let (vi, s) = (row[i0 + ii], &mut dots[(i0 + ii) * nj + jb]);
                        (0..8).for_each(|c| s[c] += row[8 * jb + c] * vi);
                    }
                }
                let mut acc: [[f64; 8]; IB] = std::array::from_fn(|ii| dots[(i0 + ii) * nj + jb]);
                dot_rows(&tile[(bulk.start - r0).min(r1 - r0) * kp..(r1 - r0) * kp], kp, jb, i0, &mut acc);
                for (ii, s) in acc.into_iter().enumerate() {
                    dots[(i0 + ii) * nj + jb] = s;
                }
            }
        }
    }
    (dots, nj)
}

/// Every row of `tile` into the eight chains of `acc`: lanes `8·jb..` of a
/// row times its entry `i0 + ii`, added to `acc[ii]`. The sums live in
/// registers for the whole pass (the head rows, which take only some `ii`,
/// are added by the caller).
#[inline(always)]
fn dot_rows(tile: &[f64], kp: usize, jb: usize, i0: usize, acc: &mut [[f64; 8]; 8]) {
    let mut a = *acc;
    for row in tile.chunks_exact(kp) {
        let vj: [f64; 8] = row[8 * jb..8 * jb + 8].try_into().unwrap();
        let vi: [f64; 8] = row[i0..i0 + 8].try_into().unwrap();
        for ii in 0..8 {
            for c in 0..8 {
                a[ii][c] += vj[c] * vi[ii];
            }
        }
    }
    *acc = a;
}

/// [`larft`] as it was before its dots shared a pass over `V`: one
/// `gemv(Trans::Yes)` per reflector, run as the one-column-at-a-time loop
/// `gemv_t_by_column`, and the scalar trmv. The oracle `larft` is held to
/// bit for bit, and the yardstick `benches/kernels.rs` times it against.
/// Counts no flops.
#[doc(hidden)]
pub fn larft_by_column(m: usize, k: usize, v: &[f64], ldv: usize, tau: &[f64], t: &mut [f64], ldt: usize) {
    for i in 0..k {
        if tau[i] == 0.0 {
            for j in 0..=i {
                t[j + i * ldt] = 0.0;
            }
            continue;
        }
        let mut tcol = vec![0.0; i];
        for (j, tc) in tcol.iter_mut().enumerate() {
            *tc = -tau[i] * v[i + j * ldv];
        }
        if m > i + 1 {
            let tail = &v[i + 1 + i * ldv..i + 1 + i * ldv + (m - i - 1)];
            gemv_t_by_column(m - i - 1, i, -tau[i], &v[i + 1..], ldv, tail, 1.0, &mut tcol);
        }
        trmv_scalar(UpLo::Upper, Trans::No, Diag::NonUnit, i, t, ldt, &mut tcol);
        for (j, tc) in tcol.iter().enumerate() {
            t[j + i * ldt] = *tc;
        }
        t[i + i * ldt] = tau[i];
    }
}

/// Apply a block reflector `Q = I − V·T·Vᵀ` (forward, columnwise, implicit
/// unit diagonal in `V`) or its transpose to `C` (`dlarfb`).
///
/// * [`Side::Left`]: `C ← op(Q)·C`, `V` is `m×k`;
/// * [`Side::Right`]: `C ← C·op(Q)`, `V` is `n×k`;
///
/// with `op(Q) = Q` for [`Trans::No`] and `Qᵀ` for [`Trans::Yes`]. Note
/// `Qᵀ = I − V·Tᵀ·Vᵀ`.
#[allow(clippy::too_many_arguments)]
pub fn larfb(
    side: Side,
    trans: Trans,
    m: usize,
    n: usize,
    k: usize,
    v: &[f64],
    ldv: usize,
    t: &[f64],
    ldt: usize,
    c: &mut [f64],
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let t_op = trans;
    match side {
        Side::Left => {
            assert!(m >= k, "larfb left: m >= k required");
            // W = Cᵀ·V  (n×k):  W = C₁ᵀ·V₁ + C₂ᵀ·V₂
            let mut w = vec![0.0; n * k];
            // W ← C₁ᵀ  (C₁ = first k rows of C)
            for j in 0..k {
                for i in 0..n {
                    w[i + j * n] = c[j + i * ldc];
                }
            }
            trmm(Side::Right, UpLo::Lower, Trans::No, Diag::Unit, n, k, 1.0, v, ldv, &mut w, n);
            if m > k {
                gemm(Trans::Yes, Trans::No, n, k, m - k, 1.0, &c[k..], ldc, &v[k..], ldv, 1.0, &mut w, n);
            }
            // W ← W·op(T)ᵀ   (left-apply of I − V·T·Vᵀ gives W·Tᵀ; of Qᵀ gives W·T)
            let ttrans = match t_op {
                Trans::No => Trans::Yes,
                Trans::Yes => Trans::No,
            };
            trmm(Side::Right, UpLo::Upper, ttrans, Diag::NonUnit, n, k, 1.0, t, ldt, &mut w, n);
            // C ← C − V·Wᵀ
            if m > k {
                gemm(Trans::No, Trans::Yes, m - k, n, k, -1.0, &v[k..], ldv, &w, n, 1.0, &mut c[k..], ldc);
            }
            // C₁ ← C₁ − V₁·Wᵀ : first W ← W·V₁ᵀ, then subtract transposed.
            trmm(Side::Right, UpLo::Lower, Trans::Yes, Diag::Unit, n, k, 1.0, v, ldv, &mut w, n);
            for j in 0..n {
                for i in 0..k {
                    c[i + j * ldc] -= w[j + i * n];
                }
            }
        }
        Side::Right => {
            assert!(n >= k, "larfb right: n >= k required");
            // W = C·V (m×k)
            let mut w = vec![0.0; m * k];
            for j in 0..k {
                for i in 0..m {
                    w[i + j * m] = c[i + j * ldc];
                }
            }
            trmm(Side::Right, UpLo::Lower, Trans::No, Diag::Unit, m, k, 1.0, v, ldv, &mut w, m);
            if n > k {
                gemm(Trans::No, Trans::No, m, k, n - k, 1.0, &c[k * ldc..], ldc, &v[k..], ldv, 1.0, &mut w, m);
            }
            // W ← W·op(T)  (right-apply of Q gives W·T; of Qᵀ gives W·Tᵀ)
            trmm(Side::Right, UpLo::Upper, t_op, Diag::NonUnit, m, k, 1.0, t, ldt, &mut w, m);
            // C ← C − W·Vᵀ
            if n > k {
                gemm(Trans::No, Trans::Yes, m, n - k, k, -1.0, &w, m, &v[k..], ldv, 1.0, &mut c[k * ldc..], ldc);
            }
            let mut w2 = w;
            trmm(Side::Right, UpLo::Lower, Trans::Yes, Diag::Unit, m, k, 1.0, v, ldv, &mut w2, m);
            for j in 0..k {
                let col = &mut c[j * ldc..j * ldc + m];
                axpy(-1.0, &w2[j * m..j * m + m], col);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_dense::gen::uniform;
    use ft_dense::Matrix;

    /// Materialize H = I − τ·v·vᵀ densely.
    fn dense_reflector(tau: f64, v: &[f64]) -> Matrix {
        let n = v.len();
        Matrix::from_fn(n, n, |i, j| {
            let id = if i == j { 1.0 } else { 0.0 };
            id - tau * v[i] * v[j]
        })
    }

    fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        gemm(
            Trans::No,
            Trans::No,
            a.rows(),
            b.cols(),
            a.cols(),
            1.0,
            a.as_slice(),
            a.rows(),
            b.as_slice(),
            b.rows(),
            0.0,
            c.as_mut_slice(),
            a.rows(),
        );
        c
    }

    #[test]
    fn larfg_annihilates() {
        let mut col = [3.0, 1.0, -2.0, 0.5];
        let (head, tail) = col.split_at_mut(1);
        let tau = larfg(&mut head[0], tail);
        let beta = head[0];
        // v = [1; tail]; H [alpha; x] = [beta; 0]
        let v: Vec<f64> = std::iter::once(1.0).chain(tail.iter().copied()).collect();
        let h = dense_reflector(tau, &v);
        let orig = [3.0, 1.0, -2.0, 0.5];
        let mut out = vec![0.0; 4];
        gemv(Trans::No, 4, 4, 1.0, h.as_slice(), 4, &orig, 0.0, &mut out);
        assert!((out[0] - beta).abs() < 1e-14);
        for &z in &out[1..] {
            assert!(z.abs() < 1e-14, "tail not annihilated: {z}");
        }
        // norm preserved
        let n0 = nrm2(&orig);
        assert!((beta.abs() - n0).abs() < 1e-14);
        // beta has opposite sign of alpha (LAPACK convention)
        assert!(beta < 0.0);
    }

    #[test]
    fn larfg_zero_tail_is_identity() {
        let mut alpha = 2.5;
        let mut x = vec![0.0, 0.0];
        let tau = larfg(&mut alpha, &mut x);
        assert_eq!(tau, 0.0);
        assert_eq!(alpha, 2.5);
    }

    #[test]
    fn reflector_is_orthogonal_and_involutive() {
        let mut col = [1.0, 2.0, 3.0];
        let (head, tail) = col.split_at_mut(1);
        let tau = larfg(&mut head[0], tail);
        let v: Vec<f64> = std::iter::once(1.0).chain(tail.iter().copied()).collect();
        let h = dense_reflector(tau, &v);
        let hh = matmul(&h, &h);
        assert!(hh.max_abs_diff(&Matrix::identity(3)) < 1e-14, "H² ≠ I");
    }

    #[test]
    fn larf_left_right_match_dense() {
        let m = 6;
        let n = 4;
        let c0 = uniform(m, n, 3);
        let mut vl = uniform(m, 1, 4).as_slice().to_vec();
        vl[0] = 1.0;
        let tau = 1.3;

        let mut c = c0.clone();
        larf_left(tau, &vl, m, n, c.as_mut_slice(), m);
        let want = matmul(&dense_reflector(tau, &vl), &c0);
        assert!(c.max_abs_diff(&want) < 1e-13);

        let mut vr = uniform(n, 1, 5).as_slice().to_vec();
        vr[0] = 1.0;
        let mut c = c0.clone();
        larf_right(tau, &vr, m, n, c.as_mut_slice(), m);
        let want = matmul(&c0, &dense_reflector(tau, &vr));
        assert!(c.max_abs_diff(&want) < 1e-13);
    }

    /// Build k reflectors on random data, then check I − V·T·Vᵀ equals the
    /// product H₀·H₁⋯H_{k−1} formed densely.
    fn random_vt(m: usize, k: usize, seed: u64) -> (Matrix, Vec<f64>, Matrix) {
        let mut v = uniform(m, k, seed);
        let mut tau = vec![0.0; k];
        for j in 0..k {
            // enforce unit + zeros convention on the stored V for the dense
            // comparison (larft itself ignores the upper part).
            for i in 0..j {
                v[(i, j)] = 0.0;
            }
            v[(j, j)] = 1.0;
            tau[j] = 0.5 + 0.2 * j as f64;
        }
        let mut t = Matrix::zeros(k, k);
        larft(m, k, v.as_slice(), m, &tau, t.as_mut_slice(), k);
        (v, tau, t)
    }

    fn dense_q(v: &Matrix, tau: &[f64]) -> Matrix {
        let m = v.rows();
        let mut q = Matrix::identity(m);
        for j in 0..tau.len() {
            let vj: Vec<f64> = (0..m).map(|i| v[(i, j)]).collect();
            let h = dense_reflector(tau[j], &vj);
            q = matmul(&q, &h);
        }
        q
    }

    #[test]
    fn larft_reproduces_reflector_product() {
        let (v, tau, t) = random_vt(7, 3, 10);
        let q_dense = dense_q(&v, &tau);
        // Q = I − V·T·Vᵀ
        let mut vt = Matrix::zeros(7, 3);
        gemm(Trans::No, Trans::No, 7, 3, 3, 1.0, v.as_slice(), 7, t.as_slice(), 3, 0.0, vt.as_mut_slice(), 7);
        let mut q = Matrix::identity(7);
        gemm(Trans::No, Trans::Yes, 7, 7, 3, -1.0, vt.as_slice(), 7, v.as_slice(), 7, 1.0, q.as_mut_slice(), 7);
        assert!(q.max_abs_diff(&q_dense) < 1e-13);
    }

    #[test]
    fn larft_zero_tau_column() {
        let m = 5;
        let k = 2;
        let mut v = uniform(m, k, 3);
        for j in 0..k {
            for i in 0..j {
                v[(i, j)] = 0.0;
            }
            v[(j, j)] = 1.0;
        }
        let tau = vec![0.7, 0.0];
        let mut t = Matrix::zeros(k, k);
        larft(m, k, v.as_slice(), m, &tau, t.as_mut_slice(), k);
        assert_eq!(t[(0, 1)], 0.0);
        assert_eq!(t[(1, 1)], 0.0);
        assert_eq!(t[(0, 0)], 0.7);
    }

    /// `larft` takes every dot in one pass over `V`, eight columns a lane
    /// block: bitwise the one-`gemv`-per-reflector loop it replaced, over
    /// τ = 0 columns, `m ≤ k`, `ldv > m` with NaN in the gaps and above the
    /// unit diagonal (never read), row counts on both sides of the tile
    /// height and column counts off the lane width. `T`'s lower triangle and
    /// gaps must stay as they were.
    #[test]
    fn larft_is_bitwise_the_column_loop() {
        let mut rng = ft_dense::rng::Xoshiro256::seed_from_u64(0x1A2F);
        let shapes = [
            (1, 1),
            (2, 3),
            (5, 8),
            (8, 8),
            (9, 17),
            (40, 8),
            (37, 13),
            (63, 9),
            (64, 16),
            (65, 24),
            (100, 33),
            (200, 40),
            (1152, 32),
        ];
        for (m, k) in shapes {
            for ldv in [m, m + 3] {
                let mut v = vec![f64::NAN; ldv * k + k];
                for j in 0..k {
                    for i in j + 1..m {
                        v[i + j * ldv] = match rng.next_below(12) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.range_f64(-1.0, 1.0),
                        };
                    }
                }
                // Rows at and past m of the columns' first entries are read
                // by both loops when m ≤ k (the row-i term of V(i, j)).
                for i in m..k {
                    for j in 0..i {
                        v[i + j * ldv] = rng.range_f64(-1.0, 1.0);
                    }
                }
                let tau: Vec<f64> = (0..k)
                    .map(|_| if rng.next_below(5) == 0 { 0.0 } else { rng.range_f64(0.5, 2.0) })
                    .collect();
                let ldt = k + 2;
                let (mut got, mut want) = (vec![f64::NAN; ldt * k], vec![f64::NAN; ldt * k]);
                larft(m, k, &v, ldv, &tau, &mut got, ldt);
                larft_by_column(m, k, &v, ldv, &tau, &mut want, ldt);
                let same = got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()));
                assert!(same, "m={m} k={k} ldv={ldv}");
            }
        }
    }

    #[test]
    fn larfb_all_sides_match_dense() {
        let k = 3;
        for (m, n) in [(8, 5), (5, 8), (4, 4)] {
            for side in [Side::Left, Side::Right] {
                let vdim = match side {
                    Side::Left => m,
                    Side::Right => n,
                };
                if vdim < k {
                    continue;
                }
                let (v, tau, t) = random_vt(vdim, k, 20 + m as u64 + n as u64);
                let q = dense_q(&v, &tau);
                for trans in [Trans::No, Trans::Yes] {
                    let c0 = uniform(m, n, 30);
                    let mut c = c0.clone();
                    larfb(side, trans, m, n, k, v.as_slice(), vdim, t.as_slice(), k, c.as_mut_slice(), m);
                    let qop = match trans {
                        Trans::No => q.clone(),
                        Trans::Yes => q.transposed(),
                    };
                    let want = match side {
                        Side::Left => matmul(&qop, &c0),
                        Side::Right => matmul(&c0, &qop),
                    };
                    let d = c.max_abs_diff(&want);
                    assert!(d < 1e-12, "{side:?} {trans:?} m={m} n={n}: diff {d}");
                }
            }
        }
    }

    #[test]
    fn larfb_ignores_stored_upper_triangle_of_v() {
        // The buffer above the implicit unit diagonal may hold garbage
        // (in gehrd it holds Hessenberg data) — larfb must not read it.
        let m = 6;
        let n = 4;
        let k = 2;
        let (v, tau, t) = random_vt(m, k, 55);
        let q = dense_q(&v, &tau);
        let mut vdirty = v.clone();
        vdirty[(0, 1)] = 1e9; // above unit diagonal of column 1
        let c0 = uniform(m, n, 7);
        let mut c = c0.clone();
        larfb(Side::Left, Trans::Yes, m, n, k, vdirty.as_slice(), m, t.as_slice(), k, c.as_mut_slice(), m);
        let want = matmul(&q.transposed(), &c0);
        assert!(c.max_abs_diff(&want) < 1e-12);
    }
}
