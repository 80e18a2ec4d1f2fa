//! Matrix norms (LAPACK `dlange` equivalents).

use crate::Matrix;

/// Largest absolute entry `max |a_ij|`.
pub fn max_abs(a: &Matrix) -> f64 {
    a.as_slice().iter().fold(0.0, |m, &x| m.max(x.abs()))
}

/// Infinity-norm: maximum absolute row sum. This is the norm used by the
/// paper's residual `r∞ = ‖A − UHUᵀ‖∞ / (‖A‖∞ · N · ε)` (Section 7.3).
pub fn inf_norm(a: &Matrix) -> f64 {
    let mut rowsum = vec![0.0f64; a.rows()];
    for j in 0..a.cols() {
        for (i, &v) in a.col(j).iter().enumerate() {
            rowsum[i] += v.abs();
        }
    }
    rowsum.into_iter().fold(0.0, f64::max)
}

/// Frobenius norm, with scaling against overflow.
pub fn fro_norm(a: &Matrix) -> f64 {
    crate::level1::nrm2(a.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_of_known_matrix() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]);
        assert_eq!(inf_norm(&a), 7.0); // row sums 3, 7
        assert_eq!(max_abs(&a), 4.0);
        assert!((fro_norm(&a) - (30.0f64).sqrt()).abs() < 1e-14);
    }

    #[test]
    fn norms_empty() {
        let a = Matrix::zeros(0, 0);
        assert_eq!(inf_norm(&a), 0.0);
        assert_eq!(fro_norm(&a), 0.0);
    }
}
