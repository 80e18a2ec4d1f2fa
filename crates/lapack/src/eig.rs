//! Eigenvalues of a real upper Hessenberg matrix via the implicitly shifted
//! Francis double-shift QR iteration (EISPACK `hqr`; the "second step" of the
//! QR algorithm the paper describes in its introduction).
//!
//! The paper motivates the Hessenberg reduction as the expensive first phase
//! of dense nonsymmetric eigensolvers (spectral clustering, PageRank /
//! eigenvector centrality). This module provides that second phase so the
//! examples can run a complete eigensolver pipeline on top of the
//! fault-tolerant reduction.

use crate::hessenberg::{extract_h, gehrd};
use ft_dense::Matrix;

/// A computed eigenvalue `re + i·im`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eigenvalue {
    /// Real part.
    pub re: f64,
    /// Imaginary part (0 for real eigenvalues; complex ones come in
    /// conjugate pairs).
    pub im: f64,
}

impl Eigenvalue {
    /// Magnitude `|λ|`.
    pub fn abs(&self) -> f64 {
        f64::hypot(self.re, self.im)
    }
}

/// Eigenvalue iteration failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EigError {
    /// The QR iteration did not converge within the per-eigenvalue iteration
    /// limit (30, as in EISPACK).
    NoConvergence {
        /// Index of the eigenvalue being isolated when iteration stalled.
        at_index: usize,
    },
    /// The input matrix was not upper Hessenberg.
    NotHessenberg,
}

impl std::fmt::Display for EigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EigError::NoConvergence { at_index } => {
                write!(f, "QR iteration failed to converge at eigenvalue index {at_index}")
            }
            EigError::NotHessenberg => write!(f, "input matrix is not upper Hessenberg"),
        }
    }
}

impl std::error::Error for EigError {}

const MAX_ITS: usize = 30;

#[inline]
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Eigenvalues of an upper Hessenberg matrix (destroys a working copy; the
/// input is untouched). Entries strictly below the first subdiagonal must be
/// zero.
#[allow(unused_assignments)] // the Francis sweep reuses p/q/r across loop turns
pub fn hessenberg_eigenvalues(h: &Matrix) -> Result<Vec<Eigenvalue>, EigError> {
    if !crate::residual::is_hessenberg(h) {
        return Err(EigError::NotHessenberg);
    }
    let n = h.rows();
    if n == 0 {
        return Ok(vec![]);
    }
    let mut a = h.clone();
    let mut wr = vec![0.0f64; n];
    let mut wi = vec![0.0f64; n];

    // ‖H‖ restricted to the Hessenberg band, used for the negligibility test.
    let mut anorm = 0.0f64;
    for i in 0..n {
        for j in i.saturating_sub(1)..n {
            anorm += a[(i, j)].abs();
        }
    }
    if anorm == 0.0 {
        return Ok(vec![Eigenvalue { re: 0.0, im: 0.0 }; n]);
    }

    let mut nn: isize = n as isize - 1;
    let mut t = 0.0f64;
    while nn >= 0 {
        let mut its = 0usize;
        'seek: loop {
            // Find a negligible subdiagonal element, splitting the matrix.
            let mut l = nn;
            while l >= 1 {
                let li = l as usize;
                let mut s = a[(li - 1, li - 1)].abs() + a[(li, li)].abs();
                if s == 0.0 {
                    s = anorm;
                }
                if a[(li, li - 1)].abs() + s == s {
                    a[(li, li - 1)] = 0.0;
                    break;
                }
                l -= 1;
            }
            let nu = nn as usize;
            let mut x = a[(nu, nu)];
            if l == nn {
                // One real root found.
                wr[nu] = x + t;
                wi[nu] = 0.0;
                nn -= 1;
                break 'seek;
            }
            let mut y = a[(nu - 1, nu - 1)];
            let mut w = a[(nu, nu - 1)] * a[(nu - 1, nu)];
            if l == nn - 1 {
                // A 2×2 block: two roots (real pair or complex conjugates).
                let p = 0.5 * (y - x);
                let q = p * p + w;
                let mut z = q.abs().sqrt();
                x += t;
                if q >= 0.0 {
                    z = p + sign(z, p);
                    wr[nu - 1] = x + z;
                    wr[nu] = wr[nu - 1];
                    if z != 0.0 {
                        wr[nu] = x - w / z;
                    }
                    wi[nu - 1] = 0.0;
                    wi[nu] = 0.0;
                } else {
                    wr[nu - 1] = x + p;
                    wr[nu] = x + p;
                    wi[nu - 1] = -z;
                    wi[nu] = z;
                }
                nn -= 2;
                break 'seek;
            }
            // No root isolated yet: another double QR sweep.
            if its == MAX_ITS {
                return Err(EigError::NoConvergence { at_index: nu });
            }
            if its == 10 || its == 20 {
                // Exceptional shift.
                t += x;
                for i in 0..=nu {
                    a[(i, i)] -= x;
                }
                let s = a[(nu, nu - 1)].abs() + a[(nu - 1, nu - 2)].abs();
                y = 0.75 * s;
                x = y;
                w = -0.4375 * s * s;
            }
            its += 1;

            // Look for two consecutive small subdiagonal elements.
            let lu = l as usize;
            let mut m = nu - 2;
            let (mut p, mut q, mut r) = (0.0f64, 0.0f64, 0.0f64);
            loop {
                let z = a[(m, m)];
                let rr = x - z;
                let ss = y - z;
                p = (rr * ss - w) / a[(m + 1, m)] + a[(m, m + 1)];
                q = a[(m + 1, m + 1)] - z - rr - ss;
                r = a[(m + 2, m + 1)];
                let s = p.abs() + q.abs() + r.abs();
                p /= s;
                q /= s;
                r /= s;
                if m == lu {
                    break;
                }
                let u = a[(m, m - 1)].abs() * (q.abs() + r.abs());
                let v = p.abs() * (a[(m - 1, m - 1)].abs() + z.abs() + a[(m + 1, m + 1)].abs());
                if u + v == v {
                    break;
                }
                m -= 1;
            }
            for i in m + 2..=nu {
                a[(i, i - 2)] = 0.0;
                if i > m + 2 {
                    a[(i, i - 3)] = 0.0;
                }
            }

            // Double QR step on rows l..=nn, columns l..=nn.
            for k in m..nu {
                if k != m {
                    p = a[(k, k - 1)];
                    q = a[(k + 1, k - 1)];
                    r = if k != nu - 1 { a[(k + 2, k - 1)] } else { 0.0 };
                    x = p.abs() + q.abs() + r.abs();
                    if x != 0.0 {
                        p /= x;
                        q /= x;
                        r /= x;
                    }
                }
                let s = sign((p * p + q * q + r * r).sqrt(), p);
                if s == 0.0 {
                    continue;
                }
                if k == m {
                    if lu != m {
                        a[(k, k - 1)] = -a[(k, k - 1)];
                    }
                } else {
                    a[(k, k - 1)] = -s * x;
                }
                p += s;
                x = p / s;
                y = q / s;
                let z = r / s;
                q /= p;
                r /= p;
                // Row modification.
                for j in k..=nu {
                    let mut pp = a[(k, j)] + q * a[(k + 1, j)];
                    if k != nu - 1 {
                        pp += r * a[(k + 2, j)];
                        a[(k + 2, j)] -= pp * z;
                    }
                    a[(k + 1, j)] -= pp * y;
                    a[(k, j)] -= pp * x;
                }
                // Column modification.
                let mmin = nu.min(k + 3);
                for i in lu..=mmin {
                    let mut pp = x * a[(i, k)] + y * a[(i, k + 1)];
                    if k != nu - 1 {
                        pp += z * a[(i, k + 2)];
                        a[(i, k + 2)] -= pp * r;
                    }
                    a[(i, k + 1)] -= pp * q;
                    a[(i, k)] -= pp;
                }
            }
        }
    }

    Ok(wr.into_iter().zip(wi).map(|(re, im)| Eigenvalue { re, im }).collect())
}

/// Eigenvalues of a general square matrix: blocked Hessenberg reduction
/// followed by the QR iteration. `nb` is the reduction panel width.
pub fn eigenvalues(a: &Matrix, nb: usize) -> Result<Vec<Eigenvalue>, EigError> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "eigenvalues: matrix must be square");
    let mut work = a.clone();
    let mut tau = vec![0.0; n.saturating_sub(1)];
    gehrd(&mut work, nb, &mut tau);
    hessenberg_eigenvalues(&extract_h(&work))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_dense::gen;

    fn sorted_res(mut v: Vec<f64>) -> Vec<f64> {
        v.sort_by(f64::total_cmp);
        v
    }

    #[test]
    fn diagonal_matrix() {
        let d = [3.0, -1.0, 7.0, 0.5];
        let a = Matrix::from_fn(4, 4, |i, j| if i == j { d[i] } else { 0.0 });
        let eigs = hessenberg_eigenvalues(&a).unwrap();
        assert!(eigs.iter().all(|e| e.im == 0.0));
        let got = sorted_res(eigs.iter().map(|e| e.re).collect());
        assert_eq!(got, vec![-1.0, 0.5, 3.0, 7.0]);
    }

    #[test]
    fn rotation_block_gives_complex_pair() {
        // [[0, -1], [1, 0]] has eigenvalues ±i.
        let a = Matrix::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
        let eigs = hessenberg_eigenvalues(&a).unwrap();
        let mut ims: Vec<f64> = eigs.iter().map(|e| e.im).collect();
        ims.sort_by(f64::total_cmp);
        assert!((ims[0] + 1.0).abs() < 1e-12);
        assert!((ims[1] - 1.0).abs() < 1e-12);
        assert!(eigs.iter().all(|e| e.re.abs() < 1e-12));
    }

    #[test]
    fn trace_identities_on_random_matrix() {
        // Σλ = tr(A) and Σλ² = tr(A²) hold for the full spectrum.
        let n = 30;
        let a = gen::uniform(n, n, 11);
        let eigs = eigenvalues(&a, 8).unwrap();
        assert_eq!(eigs.len(), n);

        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum_re: f64 = eigs.iter().map(|e| e.re).sum();
        let sum_im: f64 = eigs.iter().map(|e| e.im).sum();
        assert!((sum_re - trace).abs() < 1e-9, "Σλ={sum_re} tr={trace}");
        assert!(sum_im.abs() < 1e-9);

        let tr_a2: f64 = (0..n).map(|i| (0..n).map(|k| a[(i, k)] * a[(k, i)]).sum::<f64>()).sum();
        // λ² = (re² − im²) + 2·re·im·i ; imaginary parts cancel in pairs.
        let sum_l2: f64 = eigs.iter().map(|e| e.re * e.re - e.im * e.im).sum();
        assert!((sum_l2 - tr_a2).abs() < 1e-8, "Σλ²={sum_l2} trA²={tr_a2}");
    }

    #[test]
    fn complex_pairs_are_conjugate() {
        let a = gen::uniform(25, 25, 4);
        let eigs = eigenvalues(&a, 4).unwrap();
        let mut ims: Vec<f64> = eigs.iter().map(|e| e.im).filter(|v| *v != 0.0).collect();
        ims.sort_by(f64::total_cmp);
        // pairs: sorted ims must be symmetric around zero
        let k = ims.len();
        for i in 0..k / 2 {
            assert!((ims[i] + ims[k - 1 - i]).abs() < 1e-9);
        }
        assert_eq!(k % 2, 0);
    }

    #[test]
    fn google_matrix_dominant_eigenvalue_is_one() {
        let g = gen::google_matrix(40, 0.85, 4, 9);
        let eigs = eigenvalues(&g, 8).unwrap();
        let dom = eigs.iter().max_by(|a, b| a.abs().total_cmp(&b.abs())).unwrap();
        assert!((dom.re - 1.0).abs() < 1e-8, "dominant {dom:?}");
        assert!(dom.im.abs() < 1e-8);
    }

    #[test]
    fn rejects_non_hessenberg() {
        let mut a = Matrix::zeros(3, 3);
        a[(2, 0)] = 1.0;
        assert_eq!(hessenberg_eigenvalues(&a), Err(EigError::NotHessenberg));
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(hessenberg_eigenvalues(&Matrix::zeros(0, 0)).unwrap().len(), 0);
        let a = Matrix::from_rows(&[&[5.0]]);
        let e = hessenberg_eigenvalues(&a).unwrap();
        assert_eq!(e[0], Eigenvalue { re: 5.0, im: 0.0 });
    }
}
