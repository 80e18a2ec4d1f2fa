//! Tests of `Redundancy::Coded(2)` ("dual" on the CLI) — the first level of
//! the paper's §8 future work ("tolerate multiple simultaneous failures"):
//! Vandermonde-weighted checksums (4 per group, any 2 surviving rows
//! reconstruct 2 lost member blocks) plus dual-holder diskless checkpoints,
//! tolerating **two** simultaneous failures in the *same* process row.

use ft_dense::gen::uniform_entry;
use ft_dense::Matrix;
use ft_hess::{failpoint, ft_pdgehrd, Encoded, FtError, Phase, Redundancy, Variant};
use ft_runtime::{run_spmd, FaultScript, PlannedFailure};

#[allow(clippy::too_many_arguments)]
fn ft_result(
    n: usize,
    nb: usize,
    p: usize,
    q: usize,
    seed: u64,
    variant: Variant,
    red: Redundancy,
    script: FaultScript,
) -> (Matrix, usize) {
    run_spmd(p, q, script, move |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, n, nb, red, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n - 1];
        let rep = ft_pdgehrd(&ctx, &mut enc, variant, &mut tau).expect("within the fault model");
        (enc.gather_logical(&ctx, 630), rep.recoveries)
    })
    .into_iter()
    .next()
    .unwrap()
}

#[test]
fn dual_fault_free_matches_single() {
    // The weighted checksums ride along without touching the logical
    // computation: bitwise identical results across redundancy levels.
    let (n, nb, p, q) = (16, 2, 2, 4);
    let (a_single, _) = ft_result(n, nb, p, q, 50, Variant::NonDelayed, Redundancy::Single, FaultScript::none());
    let (a_dual, _) = ft_result(n, nb, p, q, 50, Variant::NonDelayed, Redundancy::Coded(2), FaultScript::none());
    assert_eq!(a_single.max_abs_diff(&a_dual), 0.0);
}

#[test]
fn dual_survives_single_failures_like_single() {
    let (n, nb, p, q) = (16, 2, 2, 4);
    let (reference, _) = ft_result(n, nb, p, q, 51, Variant::NonDelayed, Redundancy::Coded(2), FaultScript::none());
    for phase in Phase::ALL {
        let (got, rec) =
            ft_result(n, nb, p, q, 51, Variant::NonDelayed, Redundancy::Coded(2), FaultScript::one(5, failpoint(2, phase)));
        assert_eq!(rec, 1);
        let d = got.max_abs_diff(&reference);
        assert!(d < 1e-9, "{phase:?}: diff {d}");
    }
}

/// The headline capability: two victims in the SAME process row at the same
/// instant — impossible under the paper's scheme, recovered under `Coded(2)`.
#[test]
fn dual_survives_two_failures_same_row() {
    let (n, nb, p, q) = (16, 2, 2, 4);
    let (reference, _) = ft_result(n, nb, p, q, 52, Variant::NonDelayed, Redundancy::Coded(2), FaultScript::none());
    // Ranks 4..8 are process row 1 on a 2×4 grid; pick columns 1 and 3.
    for (va, vb) in [(5usize, 7usize), (4, 5), (6, 7), (4, 7)] {
        for phase in Phase::ALL {
            let script = FaultScript::new(vec![
                PlannedFailure { victim: va, point: failpoint(3, phase) },
                PlannedFailure { victim: vb, point: failpoint(3, phase) },
            ]);
            let (got, rec) = ft_result(n, nb, p, q, 52, Variant::NonDelayed, Redundancy::Coded(2), script);
            assert_eq!(rec, 1);
            let d = got.max_abs_diff(&reference);
            assert!(d < 1e-8, "victims ({va},{vb}) {phase:?}: diff {d}");
        }
    }
}

#[test]
fn dual_survives_two_failures_adjacent_columns() {
    // Adjacent victim columns stress the holder chains the hardest (one of
    // each victim's two holders is the other victim).
    let (n, nb, p, q) = (24, 2, 2, 4);
    let (reference, _) = ft_result(n, nb, p, q, 53, Variant::Delayed, Redundancy::Coded(2), FaultScript::none());
    let script = FaultScript::new(vec![
        PlannedFailure { victim: 4, point: failpoint(5, Phase::AfterRightUpdate) },
        PlannedFailure { victim: 5, point: failpoint(5, Phase::AfterRightUpdate) },
    ]);
    let (got, rec) = ft_result(n, nb, p, q, 53, Variant::Delayed, Redundancy::Coded(2), script);
    assert_eq!(rec, 1);
    let d = got.max_abs_diff(&reference);
    assert!(d < 1e-8, "diff {d}");
}

#[test]
fn dual_survives_four_victims_two_rows() {
    // Two victims in each of two rows simultaneously.
    let (n, nb, p, q) = (16, 2, 2, 4);
    let (reference, _) = ft_result(n, nb, p, q, 54, Variant::NonDelayed, Redundancy::Coded(2), FaultScript::none());
    let script = FaultScript::new(vec![
        PlannedFailure { victim: 0, point: failpoint(4, Phase::AfterLeftUpdate) },
        PlannedFailure { victim: 2, point: failpoint(4, Phase::AfterLeftUpdate) },
        PlannedFailure { victim: 5, point: failpoint(4, Phase::AfterLeftUpdate) },
        PlannedFailure { victim: 7, point: failpoint(4, Phase::AfterLeftUpdate) },
    ]);
    let (got, rec) = ft_result(n, nb, p, q, 54, Variant::NonDelayed, Redundancy::Coded(2), script);
    assert_eq!(rec, 1);
    let d = got.max_abs_diff(&reference);
    assert!(d < 1e-8, "diff {d}");
}

/// Chaos under `Coded(2)`: rank 2 dies at the 11th message op of rank 1's
/// recovery — its 3rd op of the recompute of every group a victim held a
/// copy of, finished groups included, on every owner (on rank 2 the round
/// runs the rollback's boundary alignment in ops 1–3, the repair and the
/// Area 1/2 solve in ops 4–8, the recompute in ops 9–26, as
/// `Ctx::chaos_ops` counts them) — so every rank rolls back to the same boundary
/// image a second time, and that rollback must undo those writes too (debug
/// builds check each restore against the capture, bit for bit).
#[test]
fn dual_chaos_kill_late_in_recovery_rolls_back_the_same_image() {
    let (n, nb, p, q) = (48, 4, 1, 4);
    let (reference, _) = ft_result(n, nb, p, q, 7, Variant::NonDelayed, Redundancy::Coded(2), FaultScript::none());
    let script = FaultScript::parse("0:at=1@137,at=2@r1:10", p * q, 0..1).expect("kill script");
    let (got, report) = run_spmd(p, q, script, move |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, n, nb, Redundancy::Coded(2), |i, j| uniform_entry(7, i, j));
        let mut tau = vec![0.0; n - 1];
        let rep = ft_pdgehrd(&ctx, &mut enc, Variant::NonDelayed, &mut tau).expect("within the fault model");
        (enc.gather_logical(&ctx, 630), rep)
    })
    .swap_remove(0);
    assert_eq!((report.recoveries, report.chaos_aborts), (1, 2), "the second kill must abort the recovery");
    assert_eq!(report.victims, vec![1, 2]);
    let d = got.max_abs_diff(&reference);
    assert!(d < 1e-8, "diff {d}");
}

#[test]
fn dual_sweep_over_panels_and_phases() {
    let (n, nb, p, q) = (16, 2, 2, 4);
    let (reference, _) = ft_result(n, nb, p, q, 55, Variant::NonDelayed, Redundancy::Coded(2), FaultScript::none());
    let panels = 7; // (16-2)/2
    for panel in 0..panels {
        for phase in [Phase::AfterPanel, Phase::AfterLeftUpdate] {
            let script = FaultScript::new(vec![
                PlannedFailure { victim: 1, point: failpoint(panel, phase) },
                PlannedFailure { victim: 2, point: failpoint(panel, phase) },
            ]);
            let (got, rec) = ft_result(n, nb, p, q, 55, Variant::NonDelayed, Redundancy::Coded(2), script);
            assert_eq!(rec, 1);
            let d = got.max_abs_diff(&reference);
            assert!(d < 1e-8, "panel {panel} {phase:?}: diff {d}");
        }
    }
}

#[test]
fn three_failures_same_row_rejected_even_dual() {
    // Beyond even the `Coded(2)` tolerance: a typed error on every rank, no panic.
    let script = FaultScript::new(vec![
        PlannedFailure { victim: 4, point: failpoint(1, Phase::AfterPanel) },
        PlannedFailure { victim: 5, point: failpoint(1, Phase::AfterPanel) },
        PlannedFailure { victim: 6, point: failpoint(1, Phase::AfterPanel) },
    ]);
    let errs = run_spmd(2, 4, script, |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, 16, 2, Redundancy::Coded(2), |i, j| uniform_entry(56, i, j));
        let mut tau = vec![0.0; 15];
        ft_pdgehrd(&ctx, &mut enc, Variant::NonDelayed, &mut tau).unwrap_err()
    });
    for e in &errs {
        assert_eq!(e, &errs[0], "ranks diverge on the error");
        let FtError::ExceededCodeDistance { victims, row, count, max_per_row, .. } = e else {
            panic!("expected ExceededCodeDistance, got {e:?}");
        };
        assert_eq!(victims, &[4, 5, 6]);
        assert_eq!((*row, *count, *max_per_row), (1, 3, 2));
    }
}

#[test]
fn dual_requires_q_at_least_4() {
    let result = std::panic::catch_unwind(|| {
        run_spmd(2, 3, FaultScript::none(), |ctx| {
            let _ = Encoded::with_redundancy(&ctx, 12, 2, Redundancy::Coded(2), |_, _| 0.0);
        })
    });
    assert!(result.is_err());
}

#[test]
fn weighted_checksums_detect_corruption() {
    // The Vandermonde weights keep per-copy violation proportional to the
    // weight of the corrupted member — the locate signal.
    run_spmd(1, 4, FaultScript::none(), |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, 8, 2, Redundancy::Coded(2), |i, j| (i * 8 + j) as f64);
        enc.compute_initial_checksums(&ctx);
        // Corrupt one entry in member index 2 of group 0 (column 4).
        if enc.a.owns_row(3) && enc.a.owns_col(4) {
            let v = enc.a.get(3, 4);
            enc.a.set(3, 4, v + 5.0);
        }
        let v0 = enc.checksum_violation(&ctx, 0, 0, 7200);
        let v1 = enc.checksum_violation(&ctx, 0, 1, 7210);
        let v2 = enc.checksum_violation(&ctx, 0, 2, 7220);
        // Member 2 of a 4-member group has node 1 + 2/4 = 1.5.
        assert!((v0 - 5.0).abs() < 1e-9, "copy0 violation {v0}");
        assert!((v1 - 7.5).abs() < 1e-9, "copy1 violation {v1} (node 1.5)");
        assert!((v2 - 11.25).abs() < 1e-9, "copy2 violation {v2} (node² 2.25)");
        // Ratio v1/v0 = node of the corrupted member → locates it.
        assert!(((v1 / v0) - 1.5).abs() < 1e-9);
    });
}
