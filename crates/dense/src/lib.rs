//! # ft-dense — from-scratch dense linear algebra kernels
//!
//! This crate provides the sequential building blocks that the rest of the
//! ABFT Hessenberg reproduction is built on: a column-major [`Matrix`] type
//! and BLAS level 1/2/3 kernels written from scratch in Rust (no BLAS
//! bindings — the paper's evaluation platform used vendor BLAS, which we
//! substitute per DESIGN.md §2). The GEMM register tile additionally has
//! explicit `std::arch` AVX2/AVX-512/NEON flavors behind runtime dispatch
//! ([`simd`]); every kernel runs on the calling thread, one thread per rank
//! (DESIGN.md §14).
//!
//! ## Conventions
//!
//! All kernels follow BLAS conventions:
//!
//! * matrices are **column-major**: element `(i, j)` of a matrix with leading
//!   dimension `ld` lives at linear index `i + j * ld`;
//! * all indices are 0-based;
//! * kernels take raw `&[f64]` / `&mut [f64]` slices plus explicit dimensions
//!   so that sub-matrix views are just slice offsets (exactly how LAPACK
//!   routines pass `A(i,j)` sub-blocks);
//! * dimension mismatches panic (checked with `assert!` — negligible cost
//!   relative to the O(n²)/O(n³) work of the kernels themselves).
//!
//! ## Flop accounting
//!
//! Every level-2/3 kernel adds its floating point operation count to a global
//! relaxed atomic counter ([`counters`]). The Section 6 overhead model of the
//! paper is validated against these counters in the `model_validation` bench.

// BLAS kernel signatures intentionally mirror the Fortran interfaces
// (trans/m/n/k/alpha/a/lda/... argument lists), which exceed clippy's
// default argument-count lint; the convention is the documentation.
#![allow(clippy::too_many_arguments)]

pub mod counters;
pub mod gen;
pub mod level1;
pub mod level2;
pub mod level3;
pub mod matrix;
pub mod norms;
#[doc(hidden)]
pub mod pool;
pub mod rng;
pub mod simd;

pub use matrix::Matrix;

/// Machine epsilon for `f64` (unit roundoff `ε` in the paper's Section 7.3).
pub const EPS: f64 = f64::EPSILON / 2.0;

/// Transpose operation selector, mirroring the BLAS `TRANS` character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Operate on `A` as stored (`'N'`).
    No,
    /// Operate on `Aᵀ` (`'T'`).
    Yes,
}

impl Trans {
    /// Returns `true` for [`Trans::Yes`].
    #[inline]
    pub fn is_trans(self) -> bool {
        matches!(self, Trans::Yes)
    }
}

/// Upper/lower triangle selector, mirroring the BLAS `UPLO` character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpLo {
    /// Upper triangular (`'U'`).
    Upper,
    /// Lower triangular (`'L'`).
    Lower,
}

/// Unit/non-unit diagonal selector, mirroring the BLAS `DIAG` character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diag {
    /// The diagonal is implicitly all ones and is not referenced (`'U'`).
    Unit,
    /// The diagonal is stored explicitly (`'N'`).
    NonUnit,
}

/// Left/right side selector for triangular multiply, mirroring BLAS `SIDE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `B ← op(A)·B` (`'L'`).
    Left,
    /// `B ← B·op(A)` (`'R'`).
    Right,
}
