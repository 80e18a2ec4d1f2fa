//! In-place correction: rewrite a located member block from the surviving
//! checksums, and heal the active scope's Area 3 from the diskless
//! bookkeeping (which the injector cannot reach — it only corrupts the
//! matrix buffer). Area 4 is refreshed by the recovery's own replay,
//! [`crate::recovery::replay_area4`].

use crate::encode::Encoded;
use crate::scope::ScopeState;
use ft_runtime::Ctx;

use super::residual::TAG_SCRUB;

/// Rewrite member block `idx` of group `g` from checksum copy 0 and the
/// other members: `member = chk₀ − Σ_other members` (copy-0 weights are 1
/// at every redundancy level). Collective across the full grid. Also heals
/// a corrupted ragged-`N` *padding* block (base in `[N, n_pad)`): its clean
/// state is all zeros and the formula reproduces exactly that.
pub(crate) fn correct_member(ctx: &Ctx, enc: &mut Encoded, g: usize, idx: usize) {
    let nb = enc.nb();
    let base = crate::areas::member_base(enc, g, idx);
    if base >= enc.n_pad() {
        return;
    }
    let owner_q = enc.a.col_owner(base);
    let lrn = enc.a.local_rows_below(enc.n());

    // Partial sums of the *other* members over my columns — the convicted
    // block is excluded entirely (its contents may be Inf/NaN garbage that
    // a zero weight would not neutralize). `member_cols` clamps to the
    // logical N, so clean padding blocks contribute their true zeros
    // without being read.
    let mut partial = crate::areas::weighted_partial_block(enc, g, lrn, |c| c < base || c >= base + nb, |_| 1.0);
    ctx.reduce_sum_row(owner_q, &mut partial, TAG_SCRUB.offset(32));

    // Checksum copy 0 travels to the member owner's process column.
    let chk = enc.move_chk_block_to(ctx, g, 0, owner_q, TAG_SCRUB.offset(34));
    if ctx.mycol() == owner_q {
        let chk = chk.expect("destination column holds the moved block");
        let fixed: Vec<f64> = chk.iter().zip(&partial).map(|(c, p)| c - p).collect();
        crate::areas::write_member_block(enc, base, lrn, &fixed);
    }
}

/// Area 3 of the active scope: compare my factorized panel columns against
/// the bookkeeping pieces captured at factorization time (bit-identical by
/// construction — finished panel columns are never updated again within
/// their scope) and copy back any that differ. Purely local; returns the
/// number of repaired panel columns on this rank.
pub(crate) fn heal_area3(enc: &mut Encoded, st: &ScopeState) -> usize {
    let lrn = enc.a.local_rows_below(enc.n());
    if lrn == 0 {
        return 0;
    }
    let ldl = enc.a.local().ld().max(1);
    let mut repaired = 0usize;
    for (idx, piece) in &st.my_panel_pieces {
        // Panels can be narrower than nb (ragged last panel); the piece's
        // own length carries the width, as in `repair_after_failure`.
        let k = st.start_col + idx * enc.nb();
        let lc0 = enc.a.local_cols_below(k);
        let cols_cnt = piece.len() / lrn;
        for ci in 0..cols_cnt {
            let lc = lc0 + ci;
            let good = &piece[ci * lrn..(ci + 1) * lrn];
            let cur = &enc.a.local().as_slice()[lc * ldl..lc * ldl + lrn];
            if cur != good {
                enc.a.local_mut().as_mut_slice()[lc * ldl..lc * ldl + lrn].copy_from_slice(good);
                repaired += 1;
            }
        }
    }
    repaired
}
