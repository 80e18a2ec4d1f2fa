//! Owned column-major matrix type.
//!
//! [`Matrix`] is the user-facing container. The BLAS kernels in this crate
//! operate on raw slices (`&[f64]`, `lda`) so that sub-matrices are cheap
//! offsets; `Matrix` provides the safe owning wrapper plus convenience
//! constructors and element access used throughout the workspace and in
//! tests.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, owned, column-major `rows × cols` matrix of `f64`.
///
/// Element `(i, j)` is stored at linear index `i + j * rows` — the leading
/// dimension of an owned matrix always equals its row count.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix from a function of the (row, column) index.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Create a matrix taking ownership of a column-major buffer.
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length {} does not match {rows}x{cols}", data.len());
        Self { rows, cols, data }
    }

    /// Copy an `rows × cols` window out of a column-major buffer with
    /// leading dimension `ld ≥ rows` — the inverse of passing a sub-matrix
    /// view into a kernel as `(&slice[offset], ld)`.
    pub fn from_strided(rows: usize, cols: usize, src: &[f64], ld: usize) -> Self {
        assert!(ld >= rows.max(1), "from_strided: ld too small");
        if rows > 0 && cols > 0 {
            assert!(src.len() >= ld * (cols - 1) + rows, "from_strided: buffer too small");
        }
        Self::from_fn(rows, cols, |i, j| src[i + j * ld])
    }

    /// Build from row-major nested slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Self::from_fn(r, c, |i, j| rows[i][j])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (= `rows()` for an owned matrix).
    #[inline]
    pub fn ld(&self) -> usize {
        self.rows
    }

    /// The whole column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The whole column-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow column `j` as a slice of length `rows()`.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        assert!(j < self.cols, "column {j} out of range {}", self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Borrow column `j` mutably.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.cols, "column {j} out of range {}", self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Copy out the sub-matrix with top-left corner `(i, j)` and shape `m × n`.
    pub fn submatrix(&self, i: usize, j: usize, m: usize, n: usize) -> Matrix {
        assert!(i + m <= self.rows && j + n <= self.cols, "submatrix out of range");
        Matrix::from_fn(m, n, |r, c| self[(i + r, j + c)])
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Maximum absolute difference to `other` (same shape required).
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// `true` when every element is finite (no NaN/Inf).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of {}x{}", self.rows, self.cols);
        &self.data[i + j * self.rows]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of {}x{}", self.rows, self.cols);
        &mut self.data[i + j * self.rows]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_r = self.rows.min(8);
        let show_c = self.cols.min(8);
        for i in 0..show_r {
            write!(f, "  ")?;
            for j in 0..show_c {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            if show_c < self.cols {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if show_r < self.rows {
            writeln!(f, "  ⋮")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 2);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 2);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let id = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn column_major_layout() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        // Column major: [1,3, 2,4]
        assert_eq!(m.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.col(1), &[2.0, 4.0]);
    }

    #[test]
    fn submatrix_roundtrip() {
        let m = Matrix::from_fn(5, 5, |i, j| (i * 10 + j) as f64);
        let s = m.submatrix(1, 2, 3, 2);
        assert_eq!(s[(0, 0)], 12.0);
        assert_eq!(s[(2, 1)], 33.0);
        assert_eq!(s, Matrix::from_fn(3, 2, |i, j| m[(1 + i, 2 + j)]));
    }

    #[test]
    fn transpose() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transposed(), m);
    }

    #[test]
    #[should_panic]
    fn bad_from_vec_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn max_abs_diff() {
        let a = Matrix::identity(3);
        let mut b = Matrix::identity(3);
        b[(2, 0)] = 0.5;
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }
}
