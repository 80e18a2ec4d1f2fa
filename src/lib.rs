//! # abft-hessenberg — umbrella crate
//!
//! Reproduction of *"Parallel Reduction to Hessenberg Form with
//! Algorithm-Based Fault Tolerance"* (Jia, Bosilca, Luszczek, Dongarra,
//! SC '13). This crate re-exports the public API of every subsystem; see the
//! workspace `README.md` for the architecture overview and `DESIGN.md` for
//! the per-experiment reproduction index.
//!
//! * [`dense`] — from-scratch dense BLAS kernels and the `Matrix` type.
//! * [`lapack`] — Householder kernels, blocked Hessenberg reduction, QR
//!   eigenvalue iteration.
//! * [`runtime`] — simulated distributed-memory machine (process grid,
//!   message passing, fault injection).
//! * [`pblas`] — 2D block-cyclic distribution and ScaLAPACK-style
//!   distributed kernels, including the baseline `pdgehrd`.
//! * [`hess`] — the paper's contribution: the ABFT Hessenberg reduction
//!   (Algorithms 2 and 3), checksum encoding, diskless checkpointing and
//!   the recovery procedure.
//! * [`serve`] — the persistent multi-tenant solver service: a daemonized
//!   pool of worker processes streaming reduction jobs over the TCP
//!   transport's job frames (DESIGN.md §15).
//! * [`knobs`] — the binary's one table of flags and `FT_*` variables.

pub use ft_dense as dense;
pub use ft_hess as hess;
pub use ft_lapack as lapack;
pub use ft_pblas as pblas;
pub use ft_runtime as runtime;
pub use ft_serve as serve;

pub mod knobs;
