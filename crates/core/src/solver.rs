//! The solver-agnostic ABFT framework contract (DESIGN.md §12).
//!
//! The paper develops its checksum machinery for the Hessenberg reduction,
//! but nothing in the encode / verify / recover / scrub pipeline is
//! Hessenberg-specific: the framework only needs to know the solver's panel
//! geometry (where panels exist, how wide they are, where the reflector
//! units sit) and whether the solver applies a trailing **right** update —
//! the one operation that requires the pseudo-checksum `Ve` machinery,
//! because a right update mixes *columns* and therefore moves mass between
//! checksum groups. Left updates (`QᵀA`) mix rows only, so column checksums
//! are invariant under them for free (Theorem 1's easy half).
//!
//! [`FtSolver`] captures exactly that contract. The driver in
//! [`crate::algorithm`], recovery in [`crate::recovery`] and the scrub
//! engine in [`crate::scrub`] are written once against `&dyn FtSolver`;
//! [`Hessenberg`] and [`HouseholderQr`] are the two instantiations. The
//! trait also carries what every *caller* of a solver needs — the plain
//! (non-FT) driver, the residual oracle, the flop coefficient — so the CLI,
//! the serve worker and the tests hold a `&dyn FtSolver` and never `match`
//! on which solver it is. A third solver (say FT-LU with partial pivoting
//! disabled, or two-sided tridiagonalization) slots in by implementing the
//! trait and adding itself to [`SOLVERS`] — see DESIGN.md §12.

use ft_pblas::{
    pd_hessenberg_residual, pd_orthogonality_residual, pd_qr_residual, pdgehrd, pdgeqrf, pdlahrd, pdlaqrf, DistMatrix,
    PanelFactors,
};
use ft_runtime::Ctx;

/// Every solver the framework knows: the registry behind
/// [`solver_by_name`] (CLI `--solver`).
pub static SOLVERS: [&dyn FtSolver; 2] = [&Hessenberg, &HouseholderQr];

/// Look a solver up by its [`FtSolver::name`].
pub fn solver_by_name(name: &str) -> Option<&'static dyn FtSolver> {
    SOLVERS.iter().copied().find(|s| s.name() == name)
}

/// The per-solver knobs of the ABFT framework: panel geometry, update
/// structure, and the distributed panel kernel. Everything else — encoding,
/// Theorem-1 verification, §5.3 recovery, SDC scrubbing, chaos rollback —
/// is shared code parameterized over this trait.
pub trait FtSolver: Sync {
    /// Short name for diagnostics (`"hessenberg"`, `"qr"`): surfaces in
    /// [`ft_pblas::Theorem1Violation`] messages and the CLI.
    fn name(&self) -> &'static str;

    /// Row offset of the reflector units relative to the panel's first
    /// column: reflector `l` of panel `k` has its implicit unit at global
    /// row `k + l + v_row_offset()`. Hessenberg reflectors sit below the
    /// subdiagonal (1); QR reflectors sit on the diagonal (0). Must match
    /// the `v_row_offset` of every [`PanelFactors`] the kernel returns.
    fn v_row_offset(&self) -> usize;

    /// Whether the solver applies a trailing **right** update
    /// (`A ← A − Y·Vᵀ`). Only right updates need the pseudo-checksum `Ve`
    /// rows and the right half of the Algorithm-3 catch-up / Area-4 replay;
    /// a left-only solver (QR) skips all of it and its `y_loc` is empty.
    fn has_right_update(&self) -> bool;

    /// Is there a panel to factor at column `k` of an `n×n` matrix?
    /// (Hessenberg stops at `n−2` — the last two columns are already
    /// Hessenberg; QR runs to the end.)
    fn panel_exists(&self, k: usize, n: usize) -> bool;

    /// Width of the panel at column `k` (the ragged last panel is narrower
    /// than `nb`).
    fn panel_width(&self, k: usize, n: usize, nb: usize) -> usize;

    /// Required length of the `tau` output for an `n×n` matrix
    /// (`n−1` reflectors for Hessenberg, `n` for QR).
    fn tau_len(&self, n: usize) -> usize;

    /// The distributed panel factorization kernel (SPMD, collective).
    fn factor_panel(&self, ctx: &Ctx, a: &mut DistMatrix, n: usize, k: usize, w: usize) -> PanelFactors;

    /// The plain (non-fault-tolerant) distributed driver of the same
    /// factorization — the baseline every overhead figure divides by. Its
    /// output is element-wise what [`crate::ft_solve`] leaves in the logical
    /// part of the encoded matrix.
    fn plain(&self, ctx: &Ctx, a: &mut DistMatrix, tau: &mut [f64]);

    /// The factorization residual on the paper's `r∞` scale (§7.3):
    /// `a0` is the original matrix, `reduced`/`tau` the solver's output.
    /// Collective; replicated result.
    fn residual(&self, ctx: &Ctx, a0: &DistMatrix, reduced: &DistMatrix, n: usize, tau: &[f64]) -> f64;

    /// The strictest eigen-free acceptance check the solver offers, on the
    /// same scale — what `--verify` prints. Defaults to [`FtSolver::residual`];
    /// a solver whose factorization residual alone cannot see a bad `Q`
    /// reports the worse of the two.
    fn verify_residual(&self, ctx: &Ctx, a0: &DistMatrix, reduced: &DistMatrix, n: usize, tau: &[f64]) -> f64 {
        self.residual(ctx, a0, reduced, n, tau)
    }

    /// Leading flop coefficient `c` of the factorization's `c·N³` cost
    /// (effective-GFLOP/s reporting).
    fn flop_coef(&self) -> f64;

    /// Panel iterations the solver runs on an `n×n` matrix at blocking `nb`.
    fn panel_count(&self, n: usize, nb: usize) -> usize {
        let (mut c, mut k) = (0, 0);
        while self.panel_exists(k, n) {
            k += self.panel_width(k, n, nb);
            c += 1;
        }
        c
    }
}

/// The paper's solver: blocked Hessenberg reduction (`PDLAHRD` panels,
/// right + left trailing updates, reflectors below the subdiagonal).
#[derive(Debug, Clone, Copy, Default)]
pub struct Hessenberg;

impl FtSolver for Hessenberg {
    fn name(&self) -> &'static str {
        "hessenberg"
    }

    fn v_row_offset(&self) -> usize {
        1
    }

    fn has_right_update(&self) -> bool {
        true
    }

    fn panel_exists(&self, k: usize, n: usize) -> bool {
        k + 2 < n
    }

    fn panel_width(&self, k: usize, n: usize, nb: usize) -> usize {
        nb.min(n - 2 - k)
    }

    fn tau_len(&self, n: usize) -> usize {
        n.saturating_sub(1)
    }

    fn factor_panel(&self, ctx: &Ctx, a: &mut DistMatrix, n: usize, k: usize, w: usize) -> PanelFactors {
        pdlahrd(ctx, a, n, k, w)
    }

    fn plain(&self, ctx: &Ctx, a: &mut DistMatrix, tau: &mut [f64]) {
        pdgehrd(ctx, a, tau)
    }

    fn residual(&self, ctx: &Ctx, a0: &DistMatrix, reduced: &DistMatrix, n: usize, tau: &[f64]) -> f64 {
        pd_hessenberg_residual(ctx, a0, reduced, n, tau)
    }

    fn flop_coef(&self) -> f64 {
        10.0 / 3.0
    }
}

/// The second solver: right-looking blocked Householder QR (`PDLAQRF`
/// panels, **left-only** trailing updates, reflectors on the diagonal).
/// Exercises the framework's left-only path: no `Ve`, no right half in
/// catch-up or replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct HouseholderQr;

impl FtSolver for HouseholderQr {
    fn name(&self) -> &'static str {
        "qr"
    }

    fn v_row_offset(&self) -> usize {
        0
    }

    fn has_right_update(&self) -> bool {
        false
    }

    fn panel_exists(&self, k: usize, n: usize) -> bool {
        k < n
    }

    fn panel_width(&self, k: usize, n: usize, nb: usize) -> usize {
        nb.min(n - k)
    }

    fn tau_len(&self, n: usize) -> usize {
        n
    }

    fn factor_panel(&self, ctx: &Ctx, a: &mut DistMatrix, n: usize, k: usize, w: usize) -> PanelFactors {
        pdlaqrf(ctx, a, n, k, w)
    }

    fn plain(&self, ctx: &Ctx, a: &mut DistMatrix, tau: &mut [f64]) {
        pdgeqrf(ctx, a, tau)
    }

    fn residual(&self, ctx: &Ctx, a0: &DistMatrix, reduced: &DistMatrix, n: usize, tau: &[f64]) -> f64 {
        pd_qr_residual(ctx, a0, reduced, n, tau)
    }

    /// QR has no spectrum to fall back on, so its acceptance check is the
    /// worse of the factorization residual and the loss of orthogonality.
    fn verify_residual(&self, ctx: &Ctx, a0: &DistMatrix, reduced: &DistMatrix, n: usize, tau: &[f64]) -> f64 {
        let (qr, orth) = pd_orthogonality_residual(ctx, a0, reduced, n, tau);
        qr.max(orth)
    }

    fn flop_coef(&self) -> f64 {
        4.0 / 3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hessenberg_geometry() {
        let h = Hessenberg;
        assert_eq!(h.name(), "hessenberg");
        assert_eq!(h.v_row_offset(), 1);
        assert!(h.has_right_update());
        assert!(h.panel_exists(0, 3));
        assert!(!h.panel_exists(1, 3));
        assert_eq!(h.panel_width(0, 16, 4), 4);
        assert_eq!(h.panel_width(12, 16, 4), 2); // ragged: n−2−k
        assert_eq!(h.tau_len(16), 15);
        assert_eq!(h.tau_len(1), 0);
    }

    #[test]
    fn qr_geometry() {
        let s = HouseholderQr;
        assert_eq!(s.name(), "qr");
        assert_eq!(s.v_row_offset(), 0);
        assert!(!s.has_right_update());
        assert!(s.panel_exists(15, 16));
        assert!(!s.panel_exists(16, 16));
        assert_eq!(s.panel_width(12, 14, 4), 2);
        assert_eq!(s.tau_len(16), 16);
    }

    /// The two solvers' panel schedules tile the matrix exactly: widths sum
    /// to the factored range and every panel starts on the previous end.
    #[test]
    fn panel_schedules_tile() {
        for solver in [&Hessenberg as &dyn FtSolver, &HouseholderQr] {
            for n in [1usize, 2, 3, 13, 16] {
                for nb in [1usize, 2, 4, 8] {
                    let mut k = 0;
                    while solver.panel_exists(k, n) {
                        let w = solver.panel_width(k, n, nb);
                        assert!(w >= 1 && w <= nb, "{} n={n} nb={nb} k={k}: w={w}", solver.name());
                        k += w;
                    }
                    let expect = if solver.has_right_update() { n.saturating_sub(2) } else { n };
                    assert_eq!(k, expect, "{} n={n} nb={nb}", solver.name());
                }
            }
        }
    }
}
