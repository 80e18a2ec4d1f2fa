//! Residual scanning and diagnosis: recompute the Theorem-1 row-checksum
//! residual of every live copy of a group and cross-check the copies to
//! decide *where* the corruption sits.
//!
//! The cross-check exploits that every member weight is ≥ 1: corruption in
//! a **data** block perturbs *all* copies of its group, while corruption in
//! a **checksum** block perturbs only that copy. A strict subset of
//! violated copies therefore convicts the checksums and acquits the data —
//! the surviving clean copies are the vouchers.

use crate::encode::Encoded;
use ft_pblas::{pd_chk_block_residual, Theorem1Violation};
use ft_runtime::{Ctx, Tag};

pub(crate) const TAG_SCRUB: Tag = Tag::Checksum(0x80);
pub(crate) const TAG_T1: Tag = Tag::Checksum(0x90);

/// Residuals of every checksum copy of one group, from one scan.
#[derive(Debug, Clone)]
pub struct GroupScan {
    /// Checksum group index.
    pub group: usize,
    /// Blocking factor (layout of the `local` blocks).
    pub nb: usize,
    /// Replicated max-abs residual per copy (`f64::INFINITY` for Inf/NaN).
    pub viol: Vec<f64>,
    /// Per-copy row-local residual block (`local rows × nb`, column-major
    /// by block offset; row-replicated across the process row) — the "row"
    /// half of the (row, block-column) localization intersection.
    pub local: Vec<Vec<f64>>,
}

/// Scan one group: one distributed residual per checksum copy. Collective;
/// `viol` is replicated on every process.
pub fn scan_group(ctx: &Ctx, enc: &Encoded, g: usize, tag: Tag) -> GroupScan {
    let mut viol = Vec::with_capacity(enc.ncopies());
    let mut local = Vec::with_capacity(enc.ncopies());
    for copy in 0..enc.ncopies() {
        let members = enc.weighted_members(g, copy);
        let (v, r) =
            pd_chk_block_residual(ctx, &enc.a, enc.n(), enc.nb(), &members, enc.chk_col(g, copy, 0), tag.offset(4 * copy as u16));
        viol.push(v);
        local.push(r);
    }
    GroupScan { group: g, nb: enc.nb(), viol, local }
}

/// What a group scan says about where the corruption sits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Diagnosis {
    /// Every copy within tolerance.
    Clean,
    /// A strict subset of copies violated: those *checksum* blocks are
    /// corrupt and the data is vouched for by the clean copies (any data
    /// corruption violates every copy — all weights are ≥ 1).
    ChecksumCorrupt {
        /// The violated copy indices.
        copies: Vec<usize>,
    },
    /// All copies violated: a data block is corrupt. `member` is the
    /// located group-member index; `None` when localization is impossible
    /// (Single redundancy on `Q > 1`) or inconsistent (multi-block damage).
    DataCorrupt { member: Option<usize> },
}

/// Cross-check the per-copy violations of one scan. Deterministic over the
/// replicated `viol` values, so every rank reaches the identical verdict.
pub fn diagnose(enc: &Encoded, scan: &GroupScan, q: usize, tol: f64) -> Diagnosis {
    let violated: Vec<usize> = scan.viol.iter().enumerate().filter(|(_, &v)| v > tol).map(|(c, _)| c).collect();
    if violated.is_empty() {
        Diagnosis::Clean
    } else if violated.len() < scan.viol.len() {
        Diagnosis::ChecksumCorrupt { copies: violated }
    } else {
        Diagnosis::DataCorrupt {
            member: super::localize::locate_member(enc.redundancy(), scan, q),
        }
    }
}

/// The first Theorem-1 violation among the live copies of every group
/// except the active scope itself (whose checksums are legitimately stale
/// mid-scope), as `(group, copy, violation)` — plus the number of
/// `(group, copy)` pairs that were checked before one failed (all of them
/// on a clean pass). `solver` names the running [`crate::FtSolver`] in the
/// violation report; the area label is solver-relative (`g > scope` is the
/// trailing Area 1, `g < scope` the finished Area 2). Collective; the
/// verdict is replicated, so every rank early-returns at the same pair.
pub fn first_theorem1_violation(
    ctx: &Ctx,
    enc: &Encoded,
    scope: usize,
    tol: f64,
    solver: &'static str,
) -> (usize, Option<(usize, usize, Theorem1Violation)>) {
    let mut checked = 0usize;
    for g in (0..enc.groups()).filter(|&g| g != scope) {
        for copy in 0..enc.ncopies() {
            let members = enc.weighted_members(g, copy);
            let chk_base = enc.chk_col(g, copy, 0);
            let (max_abs, _) = pd_chk_block_residual(ctx, &enc.a, enc.n(), enc.nb(), &members, chk_base, TAG_T1);
            if max_abs >= tol {
                let area = if g > scope { "trailing (Area 1)" } else { "finished (Area 2)" };
                let v = Theorem1Violation { block_col: chk_base / enc.nb(), max_abs, solver, area };
                return (checked, Some((g, copy, v)));
            }
            checked += 1;
        }
    }
    (checked, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Redundancy;
    use ft_dense::gen::uniform_entry;
    use ft_runtime::{run_spmd, FaultScript};

    #[test]
    fn diagnosis_separates_checksum_from_data_corruption() {
        run_spmd(1, 4, FaultScript::none(), |ctx| {
            let mut enc = Encoded::with_redundancy(&ctx, 16, 2, Redundancy::Coded(2), |i, j| uniform_entry(21, i, j));
            enc.compute_initial_checksums(&ctx);
            let scan = scan_group(&ctx, &enc, 0, TAG_SCRUB);
            assert_eq!(diagnose(&enc, &scan, 4, 1e-9), Diagnosis::Clean);

            // Corrupt checksum copy 2 of group 0: only that copy violates.
            let cc = enc.chk_col(0, 2, 1);
            if enc.a.owns_row(4) && enc.a.owns_col(cc) {
                let v = enc.a.get(4, cc);
                enc.a.set(4, cc, v + 11.0);
            }
            let scan = scan_group(&ctx, &enc, 0, TAG_SCRUB);
            assert_eq!(diagnose(&enc, &scan, 4, 1e-9), Diagnosis::ChecksumCorrupt { copies: vec![2] });
            enc.compute_group_checksum(&ctx, 0);

            // Corrupt a data entry: every copy violates, ratios locate it.
            if enc.a.owns_row(9) && enc.a.owns_col(5) {
                let v = enc.a.get(9, 5);
                enc.a.set(9, 5, v - 2.5);
            }
            let scan = scan_group(&ctx, &enc, 0, TAG_SCRUB);
            // Violations scale as node(idx)^copy with idx = member of col 5.
            let idx = enc.member_index(5);
            let node = enc.redundancy().node(idx, enc.members_per_group());
            for (c, &v) in scan.viol.iter().enumerate() {
                let want = 2.5 * node.powi(c as i32);
                assert!((v - want).abs() < 1e-9, "copy {c}: {v} vs {want}");
            }
            assert_eq!(diagnose(&enc, &scan, 4, 1e-9), Diagnosis::DataCorrupt { member: Some(idx) });
        });
    }

    #[test]
    fn first_violation_reports_block_column() {
        run_spmd(1, 2, FaultScript::none(), |ctx| {
            let mut enc = Encoded::from_global_fn(&ctx, 8, 2, |i, j| uniform_entry(22, i, j));
            enc.compute_initial_checksums(&ctx);
            let (checked, none) = first_theorem1_violation(&ctx, &enc, 0, 1e-9, "hessenberg");
            assert_eq!(checked, 2); // group 1, both copies
            assert!(none.is_none());

            // Corrupt checksum copy 1 of group 1 — the scan with scope
            // sentinel (all groups live) must name its block column.
            let cc = enc.chk_col(1, 1, 0);
            if enc.a.owns_row(2) && enc.a.owns_col(cc) {
                let v = enc.a.get(2, cc);
                enc.a.set(2, cc, v + 4.0);
            }
            let (_, hit) = first_theorem1_violation(&ctx, &enc, 0, 1e-9, "hessenberg");
            let (g, copy, viol) = hit.expect("corruption missed");
            assert_eq!((g, copy), (1, 1));
            assert_eq!(viol.block_col, cc / enc.nb());
            assert!((viol.max_abs - 4.0).abs() < 1e-9);
            // Satellite check: the human-facing message names solver + area.
            let msg = viol.to_string();
            assert!(msg.contains("solver hessenberg"), "{msg}");
            assert!(msg.contains("trailing (Area 1)"), "{msg}");
        });
    }
}
