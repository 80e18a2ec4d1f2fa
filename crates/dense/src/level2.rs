//! Level-2 BLAS: matrix-vector kernels on column-major storage.
//!
//! Each kernel takes the matrix as a raw slice plus an explicit leading
//! dimension, so callers can address sub-matrices by offsetting into a larger
//! buffer exactly as LAPACK does with `A(i,j)` arguments.

use crate::counters::add_flops;
use crate::{Diag, Trans, UpLo};

/// General matrix-vector product:
/// `y ← α·op(A)·x + β·y` where `op(A)` is `A` (`m×n`) or `Aᵀ`.
///
/// `x` has length `n` for [`Trans::No`], `m` for [`Trans::Yes`]; `y` the
/// other one.
pub fn gemv(trans: Trans, m: usize, n: usize, alpha: f64, a: &[f64], lda: usize, x: &[f64], beta: f64, y: &mut [f64]) {
    assert!(lda >= m.max(1), "gemv: lda {lda} < m {m}");
    if m > 0 && n > 0 {
        assert!(a.len() >= lda * (n - 1) + m, "gemv: A buffer too small");
    }
    let (xlen, ylen) = match trans {
        Trans::No => (n, m),
        Trans::Yes => (m, n),
    };
    assert_eq!(x.len(), xlen, "gemv: x length");
    assert_eq!(y.len(), ylen, "gemv: y length");

    if beta != 1.0 {
        if beta == 0.0 {
            y.fill(0.0);
        } else {
            for yi in y.iter_mut() {
                *yi *= beta;
            }
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 {
        return;
    }
    add_flops(2 * m as u64 * n as u64);

    match trans {
        Trans::No => {
            // y += Σ_j (α·x[j])·A(:,j) in column order, unit-stride reads.
            // One column at a time loads and stores all of y per column,
            // which bounds the sweep wherever A sits in L2: the columns whose
            // α·x[j] is nonzero (a zero one is skipped, as BLAS does) are
            // gathered eight at a time and share one pass over y, then the
            // last four, two, one. Each element still takes its products in
            // column order, so no bit depends on the grouping.
            let mut t = [0.0f64; 8];
            let mut cols = [0usize; 8];
            let mut nz = 0;
            for (j, &xj) in x.iter().enumerate() {
                let tj = alpha * xj;
                if tj == 0.0 {
                    continue;
                }
                (t[nz], cols[nz]) = (tj, j);
                nz += 1;
                if nz == 8 {
                    axpy_sweep::<8>(&t, &cols, a, lda, y);
                    nz = 0;
                }
            }
            let mut c = 0;
            if nz & 4 != 0 {
                axpy_sweep::<4>(&t[c..], &cols[c..], a, lda, y);
                c += 4;
            }
            if nz & 2 != 0 {
                axpy_sweep::<2>(&t[c..], &cols[c..], a, lda, y);
                c += 2;
            }
            if nz & 1 != 0 {
                axpy_sweep::<1>(&t[c..], &cols[c..], a, lda, y);
            }
        }
        Trans::Yes => {
            // Dot per column: y[j] += alpha * A(:,j)·x — unit-stride reads.
            // Each dot is one chain of dependent adds in row order, so a
            // lone column runs at the add latency, not at the bandwidth:
            // four columns share a sweep over x, then two, then the last.
            let j = dot_sweeps::<4>(0, n, alpha, a, lda, x, y);
            let j = dot_sweeps::<2>(j, n, alpha, a, lda, x, y);
            dot_sweeps::<1>(j, n, alpha, a, lda, x, y);
        }
    }
}

/// `y += Σ_c t[c]·A(:, cols[c])` over the first `B` entries of `t` and
/// `cols`, in one pass over `y`: each element is loaded once, takes its `B`
/// products in order — a multiply, then an add, as one column per pass
/// would — and is stored once.
#[inline]
fn axpy_sweep<const B: usize>(t: &[f64], cols: &[usize], a: &[f64], lda: usize, y: &mut [f64]) {
    let m = y.len();
    let t: [f64; B] = std::array::from_fn(|c| t[c]);
    let a: [&[f64]; B] = std::array::from_fn(|c| &a[cols[c] * lda..cols[c] * lda + m]);
    for (i, yi) in y.iter_mut().enumerate() {
        let mut s = *yi;
        for c in 0..B {
            s += t[c] * a[c][i];
        }
        *yi = s;
    }
}

/// `gemv(Trans::No)` one column per pass over `y`, as it was before the
/// sweep: the oracle the sweep is held to bit for bit, and the yardstick
/// `benches/kernels.rs` times it against. Counts no flops.
#[doc(hidden)]
pub fn gemv_n_by_column(m: usize, n: usize, alpha: f64, a: &[f64], lda: usize, x: &[f64], beta: f64, y: &mut [f64]) {
    if beta == 0.0 {
        y.fill(0.0);
    } else if beta != 1.0 {
        y.iter_mut().for_each(|yi| *yi *= beta);
    }
    if alpha == 0.0 || m == 0 {
        return;
    }
    for j in 0..n {
        let t = alpha * x[j];
        if t == 0.0 {
            continue;
        }
        let col = &a[j * lda..j * lda + m];
        for i in 0..m {
            y[i] += t * col[i];
        }
    }
}

/// `gemv(Trans::Yes)` one column, one running sum at a time, as it was
/// before it carried several columns per sweep: the oracle the kernel is
/// held to bit for bit, and the yardstick `benches/kernels.rs` times it
/// against. Counts no flops.
#[doc(hidden)]
pub fn gemv_t_by_column(m: usize, n: usize, alpha: f64, a: &[f64], lda: usize, x: &[f64], beta: f64, y: &mut [f64]) {
    if beta == 0.0 {
        y.fill(0.0);
    } else if beta != 1.0 {
        y.iter_mut().for_each(|yi| *yi *= beta);
    }
    if alpha == 0.0 || m == 0 {
        return;
    }
    for j in 0..n {
        let col = &a[j * lda..j * lda + m];
        let mut s = 0.0;
        for i in 0..m {
            s += col[i] * x[i];
        }
        y[j] += alpha * s;
    }
}

/// `y[j] += alpha * A(:,j)·x` for columns `j0, j0+1, …`, `B` at a time while
/// `B` more fit below `n`; returns the first column left over. Every dot is
/// summed from zero in row order, one accumulator per column, so the bits
/// do not depend on `B`.
#[inline]
fn dot_sweeps<const B: usize>(j0: usize, n: usize, alpha: f64, a: &[f64], lda: usize, x: &[f64], y: &mut [f64]) -> usize {
    let m = x.len();
    let mut j = j0;
    while j + B <= n {
        let cols: [&[f64]; B] = std::array::from_fn(|c| &a[(j + c) * lda..(j + c) * lda + m]);
        let mut s = [0.0f64; B];
        for (i, &xi) in x.iter().enumerate() {
            for c in 0..B {
                s[c] += cols[c][i] * xi;
            }
        }
        for c in 0..B {
            y[j + c] += alpha * s[c];
        }
        j += B;
    }
    j
}

/// Rank-1 update: `A ← α·x·yᵀ + A` with `A` being `m×n`.
pub fn ger(m: usize, n: usize, alpha: f64, x: &[f64], y: &[f64], a: &mut [f64], lda: usize) {
    assert!(lda >= m.max(1));
    assert_eq!(x.len(), m, "ger: x length");
    assert_eq!(y.len(), n, "ger: y length");
    if m > 0 && n > 0 {
        assert!(a.len() >= lda * (n - 1) + m, "ger: A buffer too small");
    }
    if alpha == 0.0 {
        return;
    }
    add_flops(2 * m as u64 * n as u64);
    for j in 0..n {
        let t = alpha * y[j];
        if t == 0.0 {
            continue;
        }
        let col = &mut a[j * lda..j * lda + m];
        for i in 0..m {
            col[i] += t * x[i];
        }
    }
}

/// Triangular matrix-vector product: `x ← op(A)·x` where `A` is an `n×n`
/// upper or lower triangular matrix, optionally with an implicit unit
/// diagonal (the part outside the selected triangle is never referenced).
pub fn trmv(uplo: UpLo, trans: Trans, diag: Diag, n: usize, a: &[f64], lda: usize, x: &mut [f64]) {
    assert!(lda >= n.max(1));
    assert_eq!(x.len(), n, "trmv: x length");
    if n == 0 {
        return;
    }
    assert!(a.len() >= lda * (n - 1) + n, "trmv: A buffer too small");
    add_flops(n as u64 * n as u64);
    trmv_lanes(uplo, trans, matches!(diag, Diag::Unit), n, a, lda, x.as_chunks_mut::<1>().0);
}

/// `x ← op(A)·x` on `L` vectors side by side: `x[i][c]` is element `i` of
/// vector `c`. Every lane runs [`trmv_scalar`]'s recurrence on its own
/// vector, so no lane's bits depend on `L` or on its neighbours; [`trmv`] is
/// the one-lane case and `trmm(Side::Left)` runs 32 columns of `B` at once.
/// The caller has checked the shapes.
///
/// Each element is finished in one go, its sum held in registers across the
/// lanes: it starts from `x[e]·A(e,e)` (or `x[e]`) and takes the products
/// of its row of `op(A)` in exactly the order the scalar loop adds them,
/// `a·x` for the dot sweeps and `x·a` for the column sweeps. The column
/// sweeps skip a zero `x[k]`, so a lane whose `x[k]` is zero keeps its sum
/// (adding the zero product would turn −0.0 into +0.0, and `0·∞` is NaN).
/// Every element is computed before the entries it reads are overwritten.
pub(crate) fn trmv_lanes<const L: usize>(
    uplo: UpLo,
    trans: Trans,
    unit: bool,
    n: usize,
    a: &[f64],
    lda: usize,
    x: &mut [[f64; L]],
) {
    let start = |xe: [f64; L], aee: f64| if unit { xe } else { xe.map(|v| v * aee) };
    let add_dot = |s: &mut [f64; L], ak: f64, xk: &[f64; L]| {
        for c in 0..L {
            s[c] += ak * xk[c];
        }
    };
    let add_sweep = |s: &mut [f64; L], ak: f64, xk: &[f64; L]| {
        for c in 0..L {
            let p = xk[c] * ak;
            s[c] = if xk[c] != 0.0 { s[c] + p } else { s[c] };
        }
    };
    match (uplo, trans) {
        (UpLo::Upper, Trans::No) => {
            // x[e] = A(e,e)·x[e] + Σ_{k>e} A(e,k)·x[k], k rising.
            for e in 0..n {
                let mut s = start(x[e], a[e + e * lda]);
                for k in e + 1..n {
                    add_sweep(&mut s, a[e + k * lda], &x[k]);
                }
                x[e] = s;
            }
        }
        (UpLo::Upper, Trans::Yes) => {
            // x[e] = A(e,e)·x[e] + Σ_{k<e} A(k,e)·x[k], k rising.
            for e in (0..n).rev() {
                let col = &a[e * lda..e * lda + e + 1];
                let mut s = start(x[e], col[e]);
                x[..e].iter().zip(col).for_each(|(xk, &ak)| add_dot(&mut s, ak, xk));
                x[e] = s;
            }
        }
        (UpLo::Lower, Trans::No) => {
            // x[e] = A(e,e)·x[e] + Σ_{k<e} A(e,k)·x[k], k falling.
            for e in (0..n).rev() {
                let mut s = start(x[e], a[e + e * lda]);
                for k in (0..e).rev() {
                    add_sweep(&mut s, a[e + k * lda], &x[k]);
                }
                x[e] = s;
            }
        }
        (UpLo::Lower, Trans::Yes) => {
            // x[e] = A(e,e)·x[e] + Σ_{k>e} A(k,e)·x[k], k rising.
            for e in 0..n {
                let col = &a[e * lda..e * lda + n];
                let mut s = start(x[e], col[e]);
                x[e + 1..]
                    .iter()
                    .zip(&col[e + 1..])
                    .for_each(|(xk, &ak)| add_dot(&mut s, ak, xk));
                x[e] = s;
            }
        }
    }
}

/// [`trmv`] as it was before its body took lanes: the scalar recurrence
/// every lane of [`trmv_lanes`] is held to bit for bit, and the loop
/// `trmm_left_by_column` runs per column. Counts no flops.
#[doc(hidden)]
pub fn trmv_scalar(uplo: UpLo, trans: Trans, diag: Diag, n: usize, a: &[f64], lda: usize, x: &mut [f64]) {
    let unit = matches!(diag, Diag::Unit);
    match (uplo, trans) {
        (UpLo::Upper, Trans::No) => {
            // x[i] = sum_{j>=i} A(i,j) x[j]; process columns left→right,
            // scattering into earlier x entries (they are finalized in order).
            for j in 0..n {
                let t = x[j];
                if t != 0.0 {
                    let col = &a[j * lda..];
                    for i in 0..j {
                        x[i] += t * col[i];
                    }
                }
                if !unit {
                    x[j] = t * a[j + j * lda];
                }
            }
        }
        (UpLo::Upper, Trans::Yes) => {
            // x[j] = sum_{i<=j} A(i,j) x[i]; right→left using dots.
            for j in (0..n).rev() {
                let col = &a[j * lda..];
                let mut s = if unit { x[j] } else { x[j] * col[j] };
                for i in 0..j {
                    s += col[i] * x[i];
                }
                x[j] = s;
            }
        }
        (UpLo::Lower, Trans::No) => {
            for j in (0..n).rev() {
                let t = x[j];
                if t != 0.0 {
                    let col = &a[j * lda..];
                    for i in j + 1..n {
                        x[i] += t * col[i];
                    }
                }
                if !unit {
                    x[j] = t * a[j + j * lda];
                }
            }
        }
        (UpLo::Lower, Trans::Yes) => {
            for j in 0..n {
                let col = &a[j * lda..];
                let mut s = if unit { x[j] } else { x[j] * col[j] };
                for i in j + 1..n {
                    s += col[i] * x[i];
                }
                x[j] = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn gemv_naive(trans: Trans, a: &Matrix, x: &[f64]) -> Vec<f64> {
        let (m, n) = (a.rows(), a.cols());
        match trans {
            Trans::No => (0..m).map(|i| (0..n).map(|j| a[(i, j)] * x[j]).sum()).collect(),
            Trans::Yes => (0..n).map(|j| (0..m).map(|i| a[(i, j)] * x[i]).sum()).collect(),
        }
    }

    #[test]
    fn gemv_matches_naive() {
        let a = Matrix::from_fn(4, 3, |i, j| (i + 1) as f64 * 0.5 + j as f64);
        let x = [1.0, -2.0, 0.5];
        let mut y = vec![1.0; 4];
        gemv(Trans::No, 4, 3, 2.0, a.as_slice(), 4, &x, 3.0, &mut y);
        let nv = gemv_naive(Trans::No, &a, &x);
        for i in 0..4 {
            assert!((y[i] - (2.0 * nv[i] + 3.0)).abs() < 1e-14);
        }

        let x2 = [1.0, 2.0, 3.0, 4.0];
        let mut y2 = vec![0.0; 3];
        gemv(Trans::Yes, 4, 3, 1.0, a.as_slice(), 4, &x2, 0.0, &mut y2);
        let nv2 = gemv_naive(Trans::Yes, &a, &x2);
        for j in 0..3 {
            assert!((y2[j] - nv2[j]).abs() < 1e-14);
        }
    }

    #[test]
    fn gemv_beta_zero_clears_nan() {
        // beta = 0 must overwrite y even if it contains NaN (BLAS convention).
        let a = Matrix::identity(2);
        let mut y = vec![f64::NAN; 2];
        gemv(Trans::No, 2, 2, 1.0, a.as_slice(), 2, &[1.0, 2.0], 0.0, &mut y);
        assert_eq!(y, vec![1.0, 2.0]);
    }

    /// Blocked against by-column on one shape, every α and β of the sweep,
    /// `y` starting finite, NaN (which only β = 0 may overwrite) and −0.0.
    fn assert_gemv_bitwise(trans: Trans, m: usize, n: usize, lda: usize, rng: &mut crate::rng::Xoshiro256) {
        let mut a = vec![f64::NAN; if n == 0 { 0 } else { lda * (n - 1) + m }];
        for j in 0..n {
            for i in 0..m {
                // Mixed magnitudes make the row order of each sum visible;
                // signed zeros must survive it.
                a[i + j * lda] = match rng.next_below(8) {
                    0 => -0.0,
                    1 => 0.0,
                    2 => rng.range_f64(-1e12, 1e12),
                    _ => rng.range_f64(-1.0, 1.0),
                };
            }
        }
        let (xlen, ylen) = match trans {
            Trans::No => (n, m),
            Trans::Yes => (m, n),
        };
        // A zero and a −0.0 in every run of four: inside every 8/4/2/1
        // group of the `Trans::No` sweep, which must skip those columns —
        // adding a zero product turns a −0.0 in `y` into +0.0.
        let salt = rng.next_below(4) as usize;
        let x: Vec<f64> = (0..xlen)
            .map(|i| match (i + salt) % 4 {
                1 => -0.0,
                2 => 0.0,
                _ => rng.range_f64(-2.0, 2.0),
            })
            .collect();
        for alpha in [0.0, 1.0, -2.5] {
            for beta in [0.0, 1.0, 0.5] {
                for y0 in [0.75, f64::NAN, -0.0] {
                    let mut got = vec![y0; ylen];
                    let mut want = got.clone();
                    gemv(trans, m, n, alpha, &a, lda, &x, beta, &mut got);
                    match trans {
                        Trans::No => gemv_n_by_column(m, n, alpha, &a, lda, &x, beta, &mut want),
                        Trans::Yes => gemv_t_by_column(m, n, alpha, &a, lda, &x, beta, &mut want),
                    }
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{trans:?} m={m} n={n} lda={lda} α={alpha} β={beta} y0={y0}");
                    if beta == 0.0 {
                        assert!(got.iter().all(|v| !v.is_nan()), "β = 0 read y: m={m} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn gemv_t_blocked_is_bitwise_one_column_at_a_time() {
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(0x6E3F);
        for m in 0..=9 {
            for n in 0..=9 {
                assert_gemv_bitwise(Trans::Yes, m, n, m.max(1), &mut rng);
                assert_gemv_bitwise(Trans::Yes, m, n, m + 3, &mut rng);
            }
        }
        // The panel's shapes: tall, a ragged handful of columns.
        for (m, n) in [(513, 31), (1000, 7), (257, 13), (64, 33), (1, 40), (300, 2)] {
            assert_gemv_bitwise(Trans::Yes, m, n, m, &mut rng);
            assert_gemv_bitwise(Trans::Yes, m, n, m + 5, &mut rng);
        }
    }

    /// `gemv(Trans::No)` sweeps up to eight columns per pass over `y`; up to
    /// seventeen columns hit every 8/4/2/1 tail, and the panel's trailing
    /// shapes (`hess_dense`'s first, `hess_grid`'s, `hess_tcp`'s and a late
    /// `hess_dense` one) the full groups at size.
    #[test]
    fn gemv_n_sweep_is_bitwise_one_column_at_a_time() {
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(0x5EE9);
        for m in 0..=9 {
            for n in 0..=17 {
                assert_gemv_bitwise(Trans::No, m, n, m.max(1), &mut rng);
                assert_gemv_bitwise(Trans::No, m, n, m + 3, &mut rng);
            }
        }
        for (m, n) in [(1023, 496), (639, 159), (383, 191), (191, 96)] {
            assert_gemv_bitwise(Trans::No, m, n, m, &mut rng);
            assert_gemv_bitwise(Trans::No, m, n, m + 5, &mut rng);
        }
    }

    #[test]
    fn gemv_submatrix_via_lda() {
        // Address the 2x2 bottom-right block of a 3x3 matrix via offset + lda.
        let a = Matrix::from_fn(3, 3, |i, j| (3 * i + j) as f64);
        let off = 1 + 3; // (1,1)
        let mut y = vec![0.0; 2];
        gemv(Trans::No, 2, 2, 1.0, &a.as_slice()[off..], 3, &[1.0, 1.0], 0.0, &mut y);
        // block = [[4,5],[7,8]]
        assert_eq!(y, vec![9.0, 15.0]);
    }

    #[test]
    fn ger_rank1() {
        let mut a = Matrix::zeros(2, 3);
        let lda = a.ld();
        ger(2, 3, 2.0, &[1.0, 2.0], &[1.0, 0.0, -1.0], a.as_mut_slice(), lda);
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(1, 0)], 4.0);
        assert_eq!(a[(1, 2)], -4.0);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn trmv_all_variants_match_naive() {
        let n = 5;
        let a = Matrix::from_fn(n, n, |i, j| ((i * n + j) % 7) as f64 + 1.0);
        let x0: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
        for uplo in [UpLo::Upper, UpLo::Lower] {
            for trans in [Trans::No, Trans::Yes] {
                for diag in [Diag::Unit, Diag::NonUnit] {
                    // Build the dense triangular matrix explicitly.
                    let t = Matrix::from_fn(n, n, |i, j| {
                        let inside = match uplo {
                            UpLo::Upper => i <= j,
                            UpLo::Lower => i >= j,
                        };
                        if i == j {
                            match diag {
                                Diag::Unit => 1.0,
                                Diag::NonUnit => a[(i, j)],
                            }
                        } else if inside {
                            a[(i, j)]
                        } else {
                            0.0
                        }
                    });
                    let expect = gemv_naive(trans, &t, &x0);
                    let mut x = x0.clone();
                    trmv(uplo, trans, diag, n, a.as_slice(), n, &mut x);
                    for i in 0..n {
                        assert!((x[i] - expect[i]).abs() < 1e-12, "{uplo:?} {trans:?} {diag:?} i={i}: {} vs {}", x[i], expect[i]);
                    }
                }
            }
        }
    }

    /// `trmv` is the one-lane case of the lane body: bitwise the scalar
    /// recurrence it replaced, for all eight variants, with ±0, ±∞ and NaN
    /// in `x` and NaN wherever `A` must not be read.
    #[test]
    fn trmv_is_bitwise_the_scalar_recurrence() {
        use crate::level3::tests::{adversarial_rhs, same_bits, triangle_with_nan_elsewhere};
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(0x7A34);
        for n in (0..=9).chain([31, 32, 33]) {
            for uplo in [UpLo::Upper, UpLo::Lower] {
                for trans in [Trans::No, Trans::Yes] {
                    for diag in [Diag::Unit, Diag::NonUnit] {
                        let (a, lda) = triangle_with_nan_elsewhere(&mut rng, uplo, diag, n);
                        for _ in 0..4 {
                            let x = adversarial_rhs(&mut rng, n, 1, n)[..n].to_vec();
                            let (mut got, mut want) = (x.clone(), x);
                            trmv(uplo, trans, diag, n, &a, lda, &mut got);
                            trmv_scalar(uplo, trans, diag, n, &a, lda, &mut want);
                            assert!(same_bits(&got, &want), "{uplo:?} {trans:?} {diag:?} n={n}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trmv_empty() {
        let mut x: Vec<f64> = vec![];
        trmv(UpLo::Upper, Trans::No, Diag::NonUnit, 0, &[], 1, &mut x);
    }
}
