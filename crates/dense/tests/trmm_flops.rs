//! The flop counter is global, so the test that reads it exactly lives in a
//! binary of its own: no other test can add flops while it runs.

use ft_dense::counters::FlopRegion;
use ft_dense::level3::trmm;
use ft_dense::{Diag, Side, Trans, UpLo};

/// One `trmm` call adds exactly `m·n·k` flops, `k` being the triangle's
/// order: `m` on the left, `n` on the right. `n` spans one, two and three
/// 32-column tiles of the left path, with a fringe.
#[test]
fn trmm_counts_m_n_k_flops_once() {
    for (m, n) in [(1, 1), (7, 5), (32, 32), (33, 70), (96, 65)] {
        for side in [Side::Left, Side::Right] {
            for (uplo, trans, diag) in [(UpLo::Upper, Trans::No, Diag::NonUnit), (UpLo::Lower, Trans::Yes, Diag::Unit)] {
                let k = if matches!(side, Side::Left) { m } else { n };
                let a: Vec<f64> = (0..k * k).map(|i| 1.0 + (i % 7) as f64).collect();
                let mut b: Vec<f64> = (0..m * n).map(|i| (i % 5) as f64 - 2.0).collect();
                let r = FlopRegion::begin();
                trmm(side, uplo, trans, diag, m, n, 0.5, &a, k, &mut b, m);
                assert_eq!(r.elapsed(), (m * n * k) as u64, "{side:?} {uplo:?} {trans:?} m={m} n={n}");
            }
        }
    }
}
