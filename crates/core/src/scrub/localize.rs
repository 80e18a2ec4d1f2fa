//! Member localization: which block column of a convicted group is the
//! corrupted one.
//!
//! For a single corrupted member block `idx`, copy `c`'s residual is the
//! *same* row vector scaled by the Vandermonde weight
//! `w_c(idx) = node(idx)^c` with the nodes `node(idx) = 1 + idx/Q`
//! ([`crate::Redundancy::Coded`]). The max-abs ratios between copies are
//! therefore exact — `viol_1 / viol_0 = node(idx)` — and the nearest node
//! reveals `idx`; a consistency check across every copy rejects
//! multi-block damage (the residuals then mix two differently-weighted
//! vectors and the ratios drift off the single-member curve, which the
//! higher copies' faster-diverging weights expose).
//!
//! [`crate::Redundancy::Single`] weights everything 1, so its ratios carry
//! no position information and data corruption stays unlocalizable — except
//! on a `Q = 1` grid, where each group has exactly one member.

use crate::encode::Redundancy;

use super::residual::GroupScan;

/// Acceptance band for the ratio consistency check: 5% of the expected
/// violation. Single-member ratios are exact to rounding (every copy's
/// residual is the same vector rescaled), so a tight band is safe — and it
/// needs to be tight, because the `[1, 2)` node packing makes a two-member
/// mixture resemble an intermediate member's curve far more closely than
/// integer nodes would.
const RATIO_BAND: f64 = 0.05;

/// Locate the corrupted member block of a group whose copies are *all*
/// violated. `None` means uncorrectable in place: escalate.
pub fn locate_member(redundancy: Redundancy, scan: &GroupScan, q: usize) -> Option<usize> {
    if q == 1 {
        // One member per group: nothing to disambiguate, any redundancy.
        return Some(0);
    }
    let v0 = scan.viol[0];
    if !v0.is_finite() || v0 <= 0.0 {
        // Inf/NaN corruption destroys the ratios; rollback handles it.
        return None;
    }
    if !redundancy.weights_localize() {
        return None; // Single's flat weights carry no position information
    }
    let ratio = scan.viol.get(1).copied()? / v0;
    if !ratio.is_finite() {
        return None;
    }
    // The copy-1/copy-0 ratio is the member's node; pick the nearest.
    let idx = (0..q)
        .min_by(|&a, &b| {
            let da = (ratio - redundancy.node(a, q)).abs();
            let db = (ratio - redundancy.node(b, q)).abs();
            da.partial_cmp(&db).expect("finite ratio")
        })
        .expect("q >= 1");
    // Every copy must sit on the single-member curve viol_c = node(idx)^c·v0.
    let node = redundancy.node(idx, q);
    // A ratio farther than half a node gap from every node is not a
    // single-member signature at all (this is the only mixture rejection a
    // 2-copy `Coded(1)` encoding has — its band check below is vacuous).
    if (ratio - node).abs() > 0.5 / q as f64 {
        return None;
    }
    for (c, &v) in scan.viol.iter().enumerate() {
        let expect = node.powi(c as i32) * v0;
        if !v.is_finite() || (v - expect).abs() > RATIO_BAND * expect.max(v0) {
            return None;
        }
    }
    Some(idx)
}

/// Local row span `[lo, hi]` of the corruption within a scanned group: the
/// rows of my copy-0 residual block with any entry above `tol`. `None` when
/// my rows are clean (the corruption sits on another process row). This is
/// the "row" coordinate of the (row, block-column) residual intersection;
/// the block column is the located member.
pub fn local_row_span(scan: &GroupScan, tol: f64) -> Option<(usize, usize)> {
    let r = &scan.local[0];
    if scan.nb == 0 || r.is_empty() {
        return None;
    }
    let lrn = r.len() / scan.nb;
    let mut span: Option<(usize, usize)> = None;
    for off in 0..scan.nb {
        for i in 0..lrn {
            let x = r[off * lrn + i];
            if !x.is_finite() || x.abs() > tol {
                span = Some(match span {
                    None => (i, i),
                    Some((lo, hi)) => (lo.min(i), hi.max(i)),
                });
            }
        }
    }
    span
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(viol: Vec<f64>) -> GroupScan {
        GroupScan { group: 0, nb: 2, viol, local: vec![vec![0.0; 4]] }
    }

    #[test]
    fn dual_ratios_locate_each_member() {
        for idx in 0..4usize {
            let d = 3.0;
            let node = Redundancy::Coded(2).node(idx, 4);
            let viol: Vec<f64> = (0..4).map(|c| d * node.powi(c)).collect();
            assert_eq!(locate_member(Redundancy::Coded(2), &scan(viol), 4), Some(idx), "idx {idx}");
        }
    }

    #[test]
    fn inconsistent_ratios_reject() {
        // A ratio far off every node's curve (e.g. checksum-vs-data damage
        // mixing two weight curves) must not localize.
        let viol = vec![2.0, 4.0, 10.0, 28.0];
        assert_eq!(locate_member(Redundancy::Coded(2), &scan(viol), 4), None);
        // Two corrupted members (idx 0 and 3) mix their node curves: the
        // copy-1 ratio lands near a middle node but the higher copies
        // diverge off its curve.
        let (n0, n3) = (Redundancy::Coded(2).node(0, 4), Redundancy::Coded(2).node(3, 4));
        let viol: Vec<f64> = (0..4).map(|c| 2.0 * n0.powi(c) + 3.0 * n3.powi(c)).collect();
        assert_eq!(locate_member(Redundancy::Coded(2), &scan(viol), 4), None);
    }

    #[test]
    fn single_redundancy_unlocalizable_unless_trivial() {
        assert_eq!(locate_member(Redundancy::Single, &scan(vec![5.0, 5.0]), 2), None);
        // Q = 1: the only member is the answer, even with flat weights.
        assert_eq!(locate_member(Redundancy::Single, &scan(vec![5.0, 5.0]), 1), Some(0));
    }

    #[test]
    fn non_finite_violations_reject() {
        assert_eq!(locate_member(Redundancy::Coded(2), &scan(vec![f64::INFINITY; 4]), 4), None);
    }

    #[test]
    fn coded_ratios_locate_each_member() {
        // Coded(3) carries 6 copies; the same node(idx)^c curve locates any
        // member of a Q = 6 group.
        for idx in 0..6usize {
            let d = 0.75;
            let node = Redundancy::Coded(3).node(idx, 6);
            let viol: Vec<f64> = (0..6).map(|c| d * node.powi(c)).collect();
            assert_eq!(locate_member(Redundancy::Coded(3), &scan(viol), 6), Some(idx), "idx {idx}");
        }
        // Coded(1) has only the degenerate two-copy check, but it still
        // locates (and the node-gap gate still rejects off-curve ratios).
        let node = Redundancy::Coded(1).node(2, 4);
        let viol: Vec<f64> = (0..2).map(|c| 2.0 * node.powi(c)).collect();
        assert_eq!(locate_member(Redundancy::Coded(1), &scan(viol), 4), Some(2));
        assert_eq!(locate_member(Redundancy::Coded(1), &scan(vec![2.0, 11.0]), 4), None);
    }

    #[test]
    fn row_span_intersects() {
        // lrn = 3, nb = 2: hits in local rows 1 (off 0) and 2 (off 1).
        let s = GroupScan {
            group: 0,
            nb: 2,
            viol: vec![7.0, 7.0],
            local: vec![vec![0.0, 7.0, 0.0, 0.0, 0.0, 7.0], vec![0.0; 6]],
        };
        assert_eq!(local_row_span(&s, 1e-9), Some((1, 2)));
        let clean = GroupScan {
            group: 0,
            nb: 2,
            viol: vec![0.0; 2],
            local: vec![vec![0.0; 6], vec![0.0; 6]],
        };
        assert_eq!(local_row_span(&clean, 1e-9), None);
    }
}
