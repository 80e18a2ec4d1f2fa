//! # ft-pblas — 2D block-cyclic distribution and distributed kernels
//!
//! The ScaLAPACK/PBLAS substitute (DESIGN.md §2) built on the simulated
//! machine in [`ft_runtime`]:
//!
//! * [`layout`] — block-cyclic index arithmetic (`numroc`, `g2p`, `g2l`,
//!   `l2g`) and the block-run walker every local↔global copy goes through
//!   (`block_runs`);
//! * [`dist`] — [`DistMatrix`], each process's local share of a global
//!   matrix (Figure 1 of the paper);
//! * [`panel`] — the distributed panel factorizations (`PDLAHRD` for
//!   Hessenberg, `PDLAQRF` for QR), returning the `(V, T, Y)` factors the
//!   ABFT layer must checkpoint;
//! * [`update`] — the `PDGEMM` right update and `PDLARFB` left update,
//!   parameterized over explicit column sets so the ABFT layer can route
//!   checksum columns through the identical code path;
//! * [`hessd`] — [`pdgehrd`], the fault-*intolerant* baseline (Algorithm 1)
//!   every experiment compares against;
//! * [`qrd`] — [`pdgeqrf`], the plain blocked QR baseline for the second
//!   solver of the ABFT framework;
//! * [`verify`] — the paper's `r∞` residuals, applying `Q` as its block
//!   reflectors through the same updates.

pub mod dist;
pub mod hessd;
pub mod layout;
pub mod panel;
pub mod qrd;
pub mod update;
pub mod verify;

pub use dist::{Desc, DistMatrix};
pub use hessd::pdgehrd;
pub use layout::{g2l, g2p, l2g, numroc};
pub use panel::{pdlahrd, pdlaqrf, replicate_reflector_block, PanelFactors};
pub use qrd::pdgeqrf;
pub use update::{apply_panel_updates, apply_qr_panel_updates, left_update, left_update_op, right_update};
pub use verify::{
    pd_chk_block_residual, pd_extract_h, pd_gather_traffic, pd_gather_transport, pd_hessenberg_residual, pd_inf_norm,
    pd_orthogonality_residual, pd_qr_residual, Theorem1Violation,
};
