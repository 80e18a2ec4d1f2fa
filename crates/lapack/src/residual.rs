//! Factorization quality checks.
//!
//! The paper (Section 7.3) verifies the reduction with the scaled residual
//!
//! ```text
//! r∞ = ‖A − U·H·Uᵀ‖∞ / (‖A‖∞ · N · ε)
//! ```
//!
//! and considers it correct when `r∞ < r_t = 3`. Table 1 compares this
//! residual between the fault-tolerant run (with one failure + recovery) and
//! the fault-free ScaLAPACK run; `table1` in the bench crate regenerates it
//! with these functions.

use ft_dense::level3::gemm;
use ft_dense::norms::inf_norm;
use ft_dense::{Matrix, Trans, EPS};

/// The residual threshold `r_t` used by the paper ("we consider the
/// reduction correct if the residual r∞ is smaller than the threshold
/// r_t = 3").
pub const RESIDUAL_THRESHOLD: f64 = 3.0;

/// Scaled factorization residual `r∞ = ‖A − Q·H·Qᵀ‖∞ / (‖A‖∞·N·ε)`.
pub fn hessenberg_residual(a: &Matrix, h: &Matrix, q: &Matrix) -> f64 {
    let n = a.rows();
    assert!(n > 0, "empty matrix");
    assert_eq!(a.cols(), n);
    assert_eq!((h.rows(), h.cols()), (n, n));
    assert_eq!((q.rows(), q.cols()), (n, n));
    // R = A − Q·H·Qᵀ
    let mut qh = Matrix::zeros(n, n);
    gemm(Trans::No, Trans::No, n, n, n, 1.0, q.as_slice(), n, h.as_slice(), n, 0.0, qh.as_mut_slice(), n);
    let mut r = a.clone();
    gemm(Trans::No, Trans::Yes, n, n, n, -1.0, qh.as_slice(), n, q.as_slice(), n, 1.0, r.as_mut_slice(), n);
    let na = inf_norm(a);
    if na == 0.0 {
        return 0.0;
    }
    inf_norm(&r) / (na * n as f64 * EPS)
}

/// Scaled orthogonality residual `‖QᵀQ − I‖∞ / (N·ε)`.
pub fn orthogonality_residual(q: &Matrix) -> f64 {
    let n = q.rows();
    assert_eq!(q.cols(), n);
    if n == 0 {
        return 0.0;
    }
    let mut qtq = Matrix::identity(n);
    gemm(Trans::Yes, Trans::No, n, n, n, 1.0, q.as_slice(), n, q.as_slice(), n, -1.0, qtq.as_mut_slice(), n);
    inf_norm(&qtq) / (n as f64 * EPS)
}

/// `true` if every entry strictly below the first subdiagonal is exactly 0.
pub fn is_hessenberg(h: &Matrix) -> bool {
    let n = h.rows();
    for j in 0..h.cols() {
        for i in j + 2..n {
            if h[(i, j)] != 0.0 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_factorization_has_zero_residual() {
        let a = Matrix::identity(5);
        let r = hessenberg_residual(&a, &a, &Matrix::identity(5));
        assert_eq!(r, 0.0);
        assert_eq!(orthogonality_residual(&Matrix::identity(5)), 0.0);
    }

    #[test]
    fn perturbed_factorization_detected() {
        let a = Matrix::identity(4);
        let mut h = a.clone();
        h[(0, 0)] = 2.0; // wrong H
        let r = hessenberg_residual(&a, &h, &Matrix::identity(4));
        assert!(r > RESIDUAL_THRESHOLD);
    }

    #[test]
    fn hessenberg_structure_checks() {
        let mut h = Matrix::zeros(4, 4);
        h[(1, 0)] = 1.0;
        h[(3, 2)] = 2.0;
        assert!(is_hessenberg(&h));
        h[(3, 0)] = 1e-30;
        assert!(!is_hessenberg(&h));
    }

    #[test]
    fn non_orthogonal_detected() {
        let mut q = Matrix::identity(3);
        q[(0, 0)] = 2.0;
        assert!(orthogonality_residual(&q) > 1e10);
    }
}
