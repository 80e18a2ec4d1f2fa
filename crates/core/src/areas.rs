//! Shared checksum-group address arithmetic and the weighted partial-block
//! sum — the one copy of the loops that `encode`, `recovery` and `scrub`
//! all used to carry inline.
//!
//! The invariant everything here serves (paper §4): checksum copy `c` of
//! group `g` stores `Σ_idx w(c, idx) · member_block(g, idx)` over the
//! logical rows, where member `idx` of group `g` is the `nb`-wide block
//! column starting at [`member_base`]. Encoding computes that sum forward;
//! recovery and scrub correction rearrange it to solve for a lost or
//! corrupted member. All three need the identical partial-sum loop —
//! identical down to the floating-point accumulation order, because
//! recovery's bit-exactness guarantees ride on every process computing the
//! same sums the encoder did.

use crate::encode::Encoded;

/// First global column of member block `idx` of checksum group `g`:
/// `(g·Q + idx)·nb`. May lie in the ragged-`N` padding (`[N, n_pad)`) or
/// past the matrix entirely for the last group — callers clamp against
/// [`Encoded::n`] / [`Encoded::n_pad`] as their algebra requires.
#[inline]
pub(crate) fn member_base(enc: &Encoded, g: usize, idx: usize) -> usize {
    member_block_col(enc, g, idx) * enc.nb()
}

/// Global *block*-column index of member `idx` of group `g`: `g·Q + idx`.
#[inline]
pub(crate) fn member_block_col(enc: &Encoded, g: usize, idx: usize) -> usize {
    g * enc.members_per_group() + idx
}

/// The weighted partial-block sum over **my** columns of group `g`:
/// `partial[i + off·lrn] = Σ w(c) · A_local(i, c)` over the member columns
/// `c` of offset `off` that I own and that `include` admits. This is the
/// row-local half of every checksum equation; callers finish it with a
/// `reduce_sum_row` onto whichever process column their algebra lives on.
///
/// The loop nest (block offset outer, member columns inner, local rows
/// innermost) fixes the floating-point accumulation order — it is shared
/// by initial encoding ([`Encoded::compute_group_checksum`]), Area-1/2
/// recovery, and scrub correction precisely so that all three compute
/// bit-identical sums from identical data.
///
/// `include` admits skipping a member column *entirely* (scrub correction
/// excludes the convicted block, whose contents may be Inf/NaN garbage that
/// a zero weight would not neutralize); `weight_of` maps an admitted global
/// column to its checksum weight.
pub(crate) fn weighted_partial_block(
    enc: &Encoded,
    g: usize,
    lrn: usize,
    include: impl Fn(usize) -> bool,
    weight_of: impl Fn(usize) -> f64,
) -> Vec<f64> {
    let nb = enc.nb();
    let ldl = enc.a.local().ld().max(1);
    let mut partial = vec![0.0f64; lrn * nb];
    for off in 0..nb {
        for c in enc.member_cols(g, off) {
            if include(c) && enc.a.owns_col(c) {
                let w = weight_of(c);
                let lc = enc.a.g2l_col(c);
                let col = &enc.a.local().as_slice()[lc * ldl..lc * ldl + lrn];
                for (i, v) in col.iter().enumerate() {
                    partial[i + off * lrn] += w * v;
                }
            }
        }
    }
    partial
}

/// Overwrite my local rows (`0..N`) of the `nb`-wide block starting at
/// global column `base` with `data` (the [`weighted_partial_block`] layout:
/// `nb` stacked columns of `lrn` entries). Caller must own the block's
/// process column. The write-back twin of the partial-sum loop, shared by
/// recovery's Area-1/2 solve and scrub's member rewrite.
pub(crate) fn write_member_block(enc: &mut Encoded, base: usize, lrn: usize, data: &[f64]) {
    let nb = enc.nb();
    let ldl = enc.a.local().ld().max(1);
    debug_assert_eq!(data.len(), lrn * nb);
    for off in 0..nb {
        let lc = enc.a.g2l_col(base + off);
        enc.a.local_mut().as_mut_slice()[lc * ldl..lc * ldl + lrn].copy_from_slice(&data[off * lrn..(off + 1) * lrn]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_runtime::{run_spmd, FaultScript};

    #[test]
    fn member_addressing_matches_group_geometry() {
        run_spmd(1, 3, FaultScript::none(), |ctx| {
            let enc = Encoded::from_global_fn(&ctx, 18, 3, |i, j| (i + j) as f64);
            // Group 1 covers block columns 3..6 → bases 9, 12, 15.
            for idx in 0..3 {
                assert_eq!(member_block_col(&enc, 1, idx), 3 + idx);
                assert_eq!(member_base(&enc, 1, idx), 9 + 3 * idx);
                assert_eq!(enc.member_index(member_base(&enc, 1, idx)), idx);
            }
        });
    }

    #[test]
    fn partial_block_matches_direct_sum() {
        run_spmd(2, 2, FaultScript::none(), |ctx| {
            let enc = Encoded::from_global_fn(&ctx, 8, 2, |i, j| (1 + i * 8 + j) as f64);
            let lrn = enc.a.local_rows_below(enc.n());
            let skip = member_base(&enc, 0, 1); // exclude member 1 entirely
            let partial = weighted_partial_block(&enc, 0, lrn, |c| c < skip || c >= skip + 2, |c| enc.col_weight(0, c));
            for off in 0..2 {
                for lr in 0..lrn {
                    let gr = enc.a.l2g_row(lr);
                    let want: f64 = enc
                        .member_cols(0, off)
                        .filter(|&c| !(c >= skip && c < skip + 2) && enc.a.owns_col(c))
                        .map(|c| enc.a.get(gr, c))
                        .sum();
                    assert_eq!(partial[lr + off * lrn], want);
                }
            }
        });
    }

    /// Ragged N: the last group's member bases run past the logical N (into
    /// the zero padding, or past storage for the final group) and the
    /// partial sum only ever reads clamped member columns.
    #[test]
    fn member_addressing_and_partials_with_ragged_n() {
        run_spmd(1, 2, FaultScript::none(), |ctx| {
            // N = 7, nb = 2 → n_pad = 8, 4 block columns, Q = 2 → 2 groups.
            let enc = Encoded::from_global_fn(&ctx, 7, 2, |i, j| (1 + i * 7 + j) as f64);
            assert_eq!(member_base(&enc, 1, 0), 4);
            // Member 1 of group 1 is the ragged block: base 6 < n_pad = 8,
            // but its second column (global 7) is pure padding.
            assert_eq!(member_base(&enc, 1, 1), 6);
            let lrn = enc.a.local_rows_below(enc.n());
            let partial = weighted_partial_block(&enc, 1, lrn, |_| true, |c| enc.col_weight(0, c));
            assert_eq!(partial.len(), lrn * 2);
            for off in 0..2 {
                for lr in 0..lrn {
                    let gr = enc.a.l2g_row(lr);
                    // member_cols clamps at N, so offset 1 has only col 5.
                    let want: f64 = enc
                        .member_cols(1, off)
                        .filter(|&c| enc.a.owns_col(c))
                        .map(|c| enc.a.get(gr, c))
                        .sum();
                    assert_eq!(partial[lr + off * lrn], want);
                }
            }
        });
    }

    /// 1×1 grid: one member per group, every block column its own group,
    /// and the partial sum degenerates to a weighted copy of that member.
    #[test]
    fn partial_block_on_1x1_grid() {
        run_spmd(1, 1, FaultScript::none(), |ctx| {
            let enc = Encoded::from_global_fn(&ctx, 6, 2, |i, j| (1 + i * 6 + j) as f64);
            assert_eq!(enc.groups(), 3);
            for g in 0..enc.groups() {
                assert_eq!(member_block_col(&enc, g, 0), g);
                assert_eq!(member_base(&enc, g, 0), 2 * g);
                let lrn = enc.a.local_rows_below(enc.n());
                let partial = weighted_partial_block(&enc, g, lrn, |_| true, |c| enc.col_weight(1, c));
                for off in 0..2 {
                    for r in 0..lrn {
                        // Single's copy-1 weight is still 1.0 (duplicates).
                        assert_eq!(partial[r + off * lrn], enc.a.get(r, 2 * g + off));
                    }
                }
            }
        });
    }

    /// `Coded(2)` weights: the weighted partial applies `(1 + idx/Q)^copy`
    /// per member —
    /// checked against a direct per-element sum, and the write-back twin
    /// round-trips a member block exactly.
    #[test]
    fn dual_weighted_partial_and_write_back_round_trip() {
        run_spmd(1, 4, FaultScript::none(), |ctx| {
            use crate::encode::Redundancy;
            let mut enc = Encoded::with_redundancy(&ctx, 8, 2, Redundancy::Coded(2), |i, j| (1 + i * 8 + j) as f64);
            let lrn = enc.a.local_rows_below(enc.n());
            for copy in 0..enc.ncopies() {
                let partial = weighted_partial_block(&enc, 0, lrn, |_| true, |c| enc.col_weight(copy, c));
                for off in 0..2 {
                    for lr in 0..lrn {
                        let gr = enc.a.l2g_row(lr);
                        let want: f64 = enc
                            .member_cols(0, off)
                            .filter(|&c| enc.a.owns_col(c))
                            .map(|c| (1.0 + enc.member_index(c) as f64 / 4.0).powi(copy as i32) * enc.a.get(gr, c))
                            .sum();
                        assert_eq!(partial[lr + off * lrn], want, "copy {copy} off {off} lr {lr}");
                    }
                }
            }
            // Round-trip: read member 2's block via an include-one partial
            // with weight 1, write it back, and nothing changes.
            let base = member_base(&enc, 0, 2);
            if enc.a.owns_col(base) {
                let before: Vec<f64> = (0..2)
                    .flat_map(|off| (0..lrn).map(move |r| (r, off)))
                    .map(|(r, off)| enc.a.get(enc.a.l2g_row(r), base + off))
                    .collect();
                let block = weighted_partial_block(&enc, 0, lrn, |c| c >= base && c < base + 2, |_| 1.0);
                write_member_block(&mut enc, base, lrn, &block);
                let after: Vec<f64> = (0..2)
                    .flat_map(|off| (0..lrn).map(move |r| (r, off)))
                    .map(|(r, off)| enc.a.get(enc.a.l2g_row(r), base + off))
                    .collect();
                assert_eq!(before, after);
            }
        });
    }
}
