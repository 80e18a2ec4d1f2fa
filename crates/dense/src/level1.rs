//! Level-1 BLAS: vector-vector kernels.
//!
//! All kernels take contiguous slices (increment 1). The Hessenberg panel
//! kernels only ever touch contiguous columns of column-major storage, so
//! strided variants are not needed; where a row must be traversed the callers
//! use explicit gathers.

use crate::counters::add_flops;

/// `x · y` — dot product.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    add_flops(2 * x.len() as u64);
    // Accumulate in 4 lanes so LLVM can vectorize without breaking FP
    // semantics of a single serial chain.
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let b = c * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in chunks * 4..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// `y ← αx + y`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if alpha == 0.0 {
        return;
    }
    add_flops(2 * x.len() as u64);
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← αx`.
#[inline]
pub fn scal(alpha: f64, x: &mut [f64]) {
    add_flops(x.len() as u64);
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean norm `‖x‖₂`, computed with scaling to avoid overflow/underflow
/// (the classic LAPACK `dnrm2` algorithm).
pub fn nrm2(x: &[f64]) -> f64 {
    add_flops(2 * x.len() as u64);
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &xi in x {
        if xi != 0.0 {
            let a = xi.abs();
            if scale < a {
                let r = scale / a;
                ssq = 1.0 + ssq * r * r;
                scale = a;
            } else {
                let r = a / scale;
                ssq += r * r;
            }
        }
    }
    scale * ssq.sqrt()
}

/// `y ← x`.
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "copy: length mismatch");
    y.copy_from_slice(x);
}

/// Swap the contents of `x` and `y`.
#[inline]
pub fn swap(x: &mut [f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "swap: length mismatch");
    for (a, b) in x.iter_mut().zip(y.iter_mut()) {
        std::mem::swap(a, b);
    }
}

/// Index of the element with the largest absolute value (first on ties).
/// Returns `None` for an empty slice.
pub fn iamax(x: &[f64]) -> Option<usize> {
    let mut best = None;
    let mut best_v = -1.0;
    for (i, &xi) in x.iter().enumerate() {
        let a = xi.abs();
        if a > best_v {
            best_v = a;
            best = Some(i);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(dot(&x, &y), 35.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_basic() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        axpy(0.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn scal_basic() {
        let mut x = [1.0, -2.0, 3.0];
        scal(-2.0, &mut x);
        assert_eq!(x, [-2.0, 4.0, -6.0]);
    }

    #[test]
    fn nrm2_pythagorean() {
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(nrm2(&[]), 0.0);
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn nrm2_no_overflow() {
        let big = 1e300;
        let v = nrm2(&[big, big]);
        assert!((v - big * std::f64::consts::SQRT_2).abs() / v < 1e-15);
        let tiny = 1e-300;
        let v = nrm2(&[tiny, tiny]);
        assert!((v - tiny * std::f64::consts::SQRT_2).abs() / v < 1e-15);
    }

    #[test]
    fn iamax_ties_and_empty() {
        assert_eq!(iamax(&[1.0, -3.0, 3.0]), Some(1));
        assert_eq!(iamax(&[]), None);
    }

    #[test]
    fn swap_and_copy() {
        let mut x = [1.0, 2.0];
        let mut y = [3.0, 4.0];
        swap(&mut x, &mut y);
        assert_eq!(x, [3.0, 4.0]);
        let mut z = [0.0; 2];
        copy(&x, &mut z);
        assert_eq!(z, [3.0, 4.0]);
    }
}
