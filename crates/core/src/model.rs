//! The Section 6 cost model: extra flops, communication and storage of the
//! ABFT scheme, as closed-form/loop-exact counts.
//!
//! The paper derives `FLOP_pdgemm ≈ 2N³/Q` and `FLOP_pdlarfb ≈ 8N³/(3Q)`
//! for the checksum-column updates (both duplicate copies included), giving
//!
//! ```text
//! overhead → (2 + 8/3)·N³/Q ÷ (10/3)·N³ = 7/(5Q)   as N → ∞
//! ```
//!
//! Note: the paper's Equation 2 prints the asymptote as `1/(5Q)`; its own
//! leading terms (`2N³/Q` + `8N³/(3Q)` over `10N³/3`) evaluate to `7/(5Q)`
//! as above. We implement the loop-exact sums, validate them against the
//! runtime flop counters in the `paper` bench, and report the
//! discrepancy in EXPERIMENTS.md. Either way the structural claim that the
//! figures test — *overhead ∝ 1/Q, vanishing relative cost at scale* — is
//! unchanged.

/// Exact-count flop model of one fault-free FT reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlopModel {
    /// Flops of the unprotected reduction (`10/3·N³` leading order).
    pub orig: f64,
    /// Extra flops: right updates (`PDGEMM`) on the checksum columns.
    pub extra_right: f64,
    /// Extra flops: left updates (`PDLARFB`) on the checksum columns.
    pub extra_left: f64,
    /// Extra flops: initial checksum encoding.
    pub encode: f64,
    /// Extra flops: per-panel pseudo checksums `Ve` of `V`.
    pub ve: f64,
}

impl FlopModel {
    /// Total extra flops.
    pub fn extra(&self) -> f64 {
        self.extra_right + self.extra_left + self.encode + self.ve
    }

    /// Predicted flop-overhead ratio `FLOP_extra / FLOP_orig`.
    pub fn overhead_ratio(&self) -> f64 {
        self.extra() / self.orig
    }
}

/// The `N → ∞` flop-overhead asymptote for a `·×Q` grid (see module docs
/// regarding the paper's printed `1/(5Q)`).
pub fn asymptotic_overhead(q: usize) -> f64 {
    7.0 / (5.0 * q as f64)
}

/// Loop-exact flop counts for `N×N`, blocking `nb`, grid `P×Q`, mirroring
/// the iteration structure of Algorithm 2 (`variant` differences only move
/// *when* checksum flops happen, not how many — Algorithm 3 performs the
/// same per-column update work at scope boundaries).
pub fn flop_model(n: usize, nb: usize, q: usize) -> FlopModel {
    let nf = n as f64;
    let orig = 10.0 / 3.0 * nf * nf * nf;

    let nblocks = n / nb;
    let groups = nblocks.div_ceil(q);
    // Initial encoding: each group sums up to Q member columns into one
    // checksum column, twice (both copies): ~ (members−1)·n adds per column.
    let mut encode = 0.0;
    for g in 0..groups {
        let members = ((g * q + q).min(nblocks)) - (g * q).min(nblocks);
        if members > 1 {
            encode += 2.0 * (members as f64 - 1.0) * nf * nb as f64;
        }
    }

    let mut extra_right = 0.0;
    let mut extra_left = 0.0;
    let mut ve = 0.0;
    let mut k = 0usize;
    while k + 2 < n {
        let w = nb.min(n - 2 - k);
        let s = (k / nb) / q;
        let chk_cols = 2 * nb * groups.saturating_sub(s + 1);
        let m_rows = (n - k - 1) as f64;
        // Right update on a checksum column: Y (n×w) times a w-row → 2·n·w.
        extra_right += chk_cols as f64 * 2.0 * nf * w as f64;
        // Left update on a checksum column: W = Vᵀc (2mw), TᵀW (w²),
        // c −= V·W (2mw).
        extra_left += chk_cols as f64 * (4.0 * m_rows * w as f64 + (w * w) as f64);
        // Ve: summing up to Q V-rows per pseudo-checksum row (both copies
        // stored, one summation): ~ n·w adds.
        ve += nf * w as f64;
        k += w;
    }

    FlopModel { orig, extra_right, extra_left, encode, ve }
}

/// Storage overhead in `f64` elements, global across the machine:
/// checksum columns + pseudo-checksum rows (4·G·nb·N ≈ 4N²/Q), the scope
/// snapshot (own + neighbor copy: 2·N·Q·nb) and the per-panel bookkeeping
/// high-water mark (panel + Y + T per scope panel). Compare with the
/// paper's `4N²/Q + (N+nb)·N/Q` aggregate.
pub fn storage_overhead_elements(n: usize, nb: usize, q: usize) -> usize {
    let nblocks = n / nb;
    let groups = nblocks.div_ceil(q);
    let checksums = 4 * groups * nb * n;
    let snapshot = 2 * n * q * nb;
    let bookkeeping = q * (n * nb /* panel */ + n * nb /* Y */ + nb * nb/* T */);
    checksums + snapshot + bookkeeping
}

/// The paper's printed storage formula (§6), for comparison.
pub fn paper_storage_formula(n: usize, nb: usize, q: usize) -> f64 {
    let (nf, nbf, qf) = (n as f64, nb as f64, q as f64);
    4.0 * nf * nf / qf + (nf + nbf) * (nf / qf) + nf * (nf / qf + 2.0 * nbf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_decreases_with_q() {
        let o2 = flop_model(512, 16, 2).overhead_ratio();
        let o4 = flop_model(512, 16, 4).overhead_ratio();
        let o8 = flop_model(512, 16, 8).overhead_ratio();
        assert!(o2 > o4 && o4 > o8, "{o2} {o4} {o8}");
    }

    #[test]
    fn overhead_approaches_asymptote_with_n_at_fixed_q() {
        // At fixed Q the pure-flop ratio approaches the asymptote
        // monotonically as N grows (the measured Figure 6 decrease comes
        // from amortizing fixed communication costs on top of this).
        let asym = asymptotic_overhead(4);
        let d1 = (flop_model(256, 16, 4).overhead_ratio() - asym).abs();
        let d2 = (flop_model(1024, 16, 4).overhead_ratio() - asym).abs();
        let d3 = (flop_model(4096, 16, 4).overhead_ratio() - asym).abs();
        assert!(d1 > d2 && d2 > d3, "{d1} {d2} {d3}");
    }

    #[test]
    fn converges_to_asymptote() {
        let q = 4;
        let big = flop_model(32768, 32, q).overhead_ratio();
        let asym = asymptotic_overhead(q);
        assert!((big - asym).abs() / asym < 0.1, "model {big} vs asymptote {asym}");
        // And approaches from above (finite-N overheads are higher).
        assert!(big > asym * 0.8);
    }

    #[test]
    fn storage_scales_like_4n2_over_q() {
        let n = 4096;
        let q = 8;
        let s = storage_overhead_elements(n, 32, q) as f64;
        let lead = 4.0 * (n * n) as f64 / q as f64;
        assert!(s > lead && s < 1.7 * lead, "storage {s} vs leading {lead}");
        // Same order as the paper's aggregate formula.
        let paper = paper_storage_formula(n, 32, q);
        assert!(s / paper > 0.4 && s / paper < 2.5, "{s} vs paper {paper}");
    }
}
