//! Tests of `Redundancy::Coded(f)` — the configurable Reed–Solomon-style
//! generalization of the paper's duplicated checksums: each checksum group
//! carries `2f` independent Vandermonde-weighted rows, so any `f`
//! simultaneous failures in the *same* process row are reconstructed by
//! solving an f×f (or smaller) Vandermonde system per group. `Coded(1)` is
//! a weighted single-failure code; the `Coded(2)` battery lives in
//! `ft_dual_redundancy.rs`.

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
        (enc.gather_logical(&ctx, 640), rep.recoveries)
    })
    .into_iter()
    .next()
    .unwrap()
}

#[test]
fn coded_fault_free_matches_single() {
    // The coded checksums ride along without touching the logical
    // computation: bitwise identical results across redundancy levels.
    let (n, nb, p, q) = (18, 2, 1, 6);
    let (a_single, _) = ft_result(n, nb, p, q, 70, Variant::NonDelayed, Redundancy::Single, FaultScript::none());
    for f in 1..=3 {
        let (a_coded, _) = ft_result(n, nb, p, q, 70, Variant::NonDelayed, Redundancy::Coded(f), FaultScript::none());
        assert_eq!(a_single.max_abs_diff(&a_coded), 0.0, "f = {f}");
    }
}

#[test]
fn coded1_survives_single_failures() {
    // f = 1 on a narrow grid: the weighted single-failure code, recovered
    // by the divide-by-weight fast path.
    let (n, nb, p, q) = (12, 2, 2, 2);
    let (reference, _) = ft_result(n, nb, p, q, 72, Variant::NonDelayed, Redundancy::Coded(1), FaultScript::none());
    for phase in Phase::ALL {
        let (got, rec) =
            ft_result(n, nb, p, q, 72, Variant::NonDelayed, Redundancy::Coded(1), FaultScript::one(3, failpoint(2, phase)));
        assert_eq!(rec, 1);
        let d = got.max_abs_diff(&reference);
        assert!(d < 1e-9, "{phase:?}: diff {d}");
    }
}

/// The headline capability: k simultaneous victims in the SAME process row
/// for every k up to the code distance f = 3 — the m×m Vandermonde solve.
#[test]
fn coded3_survives_up_to_three_failures_same_row() {
    let (n, nb, p, q) = (18, 2, 1, 6);
    let (reference, _) = ft_result(n, nb, p, q, 73, Variant::NonDelayed, Redundancy::Coded(3), FaultScript::none());
    for victims in [vec![2usize], vec![1, 4], vec![0, 2, 4], vec![1, 2, 3], vec![3, 4, 5]] {
        for phase in [Phase::AfterPanel, Phase::AfterLeftUpdate] {
            let script = FaultScript::new(
                victims
                    .iter()
                    .map(|&v| PlannedFailure { victim: v, point: failpoint(2, phase) })
                    .collect(),
            );
            let (got, rec) = ft_result(n, nb, p, q, 73, Variant::NonDelayed, Redundancy::Coded(3), script);
            assert_eq!(rec, 1, "victims {victims:?} {phase:?}");
            let d = got.max_abs_diff(&reference);
            assert!(d < 1e-8, "victims {victims:?} {phase:?}: diff {d}");
        }
    }
}

/// Adjacent victim sets pick the closest-spaced Vandermonde nodes (gap
/// `1/Q`) — the worst-conditioned recovery subsystems the code admits. The
/// acceptance metric is parity against the fault-free run: it must stay
/// within 1e-10 at CLI scale (n = 96), even though the paper's
/// `ε·N·‖A‖`-normalized residual gate is stricter than the intrinsic
/// `‖A_S⁻¹‖·drift` recovery accuracy for these subsets (DESIGN.md §13.1).
#[test]
fn coded3_adjacent_victims_parity_at_scale() {
    let (n, nb, p, q) = (96, 8, 1, 6);
    let (reference, _) = ft_result(n, nb, p, q, 2013, Variant::NonDelayed, Redundancy::Coded(3), FaultScript::none());
    for victims in [[0usize, 1, 2], [3, 4, 5]] {
        let script = FaultScript::new(
            victims
                .iter()
                .map(|&v| PlannedFailure { victim: v, point: failpoint(2, Phase::AfterPanel) })
                .collect(),
        );
        let (got, rec) = ft_result(n, nb, p, q, 2013, Variant::NonDelayed, Redundancy::Coded(3), script);
        assert_eq!(rec, 1, "victims {victims:?}");
        let d = got.max_abs_diff(&reference);
        eprintln!("adjacent victims {victims:?}: parity {d:.3e}");
        assert!(d < 1e-10, "victims {victims:?}: diff {d}");
    }
}

#[test]
fn coded3_survives_three_failures_each_of_two_rows() {
    // Per-row budgets are independent: 3 + 3 victims across two rows on a
    // 2×6 grid, all at the same instant.
    let (n, nb, p, q) = (18, 2, 2, 6);
    let (reference, _) = ft_result(n, nb, p, q, 74, Variant::NonDelayed, Redundancy::Coded(3), FaultScript::none());
    let script = FaultScript::new(
        [0usize, 2, 5, 7, 9, 10]
            .iter()
            .map(|&v| PlannedFailure { victim: v, point: failpoint(3, Phase::AfterLeftUpdate) })
            .collect(),
    );
    let (got, rec) = ft_result(n, nb, p, q, 74, Variant::NonDelayed, Redundancy::Coded(3), script);
    assert_eq!(rec, 1);
    let d = got.max_abs_diff(&reference);
    assert!(d < 1e-8, "diff {d}");
}

#[test]
fn coded3_delayed_variant_sweep() {
    // Alg-3 scopes + coded recovery: the catch-up path replays into the
    // same Vandermonde solve.
    let (n, nb, p, q) = (18, 2, 1, 6);
    let (reference, _) = ft_result(n, nb, p, q, 75, Variant::Delayed, Redundancy::Coded(3), FaultScript::none());
    for panel in [1usize, 4, 6] {
        let script = FaultScript::new(vec![
            PlannedFailure { victim: 0, point: failpoint(panel, Phase::AfterPanel) },
            PlannedFailure { victim: 3, point: failpoint(panel, Phase::AfterPanel) },
            PlannedFailure { victim: 5, point: failpoint(panel, Phase::AfterPanel) },
        ]);
        let (got, rec) = ft_result(n, nb, p, q, 75, Variant::Delayed, Redundancy::Coded(3), script);
        assert_eq!(rec, 1, "panel {panel}");
        let d = got.max_abs_diff(&reference);
        assert!(d < 1e-8, "panel {panel}: diff {d}");
    }
}

#[test]
fn four_failures_same_row_rejected_coded3() {
    // k = f + 1 is beyond the code distance: every rank returns the
    // identical typed error, no panic, no hang.
    let script = FaultScript::new(
        (0..4)
            .map(|v| PlannedFailure { victim: v, point: failpoint(1, Phase::AfterPanel) })
            .collect(),
    );
    let errs = run_spmd(1, 6, script, |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, 18, 2, Redundancy::Coded(3), |i, j| uniform_entry(76, i, j));
        let mut tau = vec![0.0; 17];
        ft_pdgehrd(&ctx, &mut enc, Variant::NonDelayed, &mut tau).unwrap_err()
    });
    for e in &errs {
        assert_eq!(e, &errs[0], "ranks diverge on the error");
        let FtError::ExceededCodeDistance { victims, row, count, max_per_row, encoding_max, .. } = e else {
            panic!("expected ExceededCodeDistance, got {e:?}");
        };
        assert_eq!(victims, &[0, 1, 2, 3]);
        assert_eq!((*row, *count, *max_per_row, *encoding_max), (0, 4, 3, 3));
    }
}

#[test]
fn two_failures_same_row_rejected_coded1() {
    // The typed rejection holds at every redundancy level, not just the
    // widest: f = 1 rejects its k = 2 the same way Single does.
    let script = FaultScript::new(vec![
        PlannedFailure { victim: 0, point: failpoint(2, Phase::AfterLeftUpdate) },
        PlannedFailure { victim: 1, point: failpoint(2, Phase::AfterLeftUpdate) },
    ]);
    let errs = run_spmd(2, 2, script, |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, 12, 2, Redundancy::Coded(1), |i, j| uniform_entry(77, i, j));
        let mut tau = vec![0.0; 11];
        ft_pdgehrd(&ctx, &mut enc, Variant::NonDelayed, &mut tau).unwrap_err()
    });
    for e in &errs {
        assert_eq!(e, &errs[0], "ranks diverge on the error");
        let FtError::ExceededCodeDistance { victims, row, count, max_per_row, .. } = e else {
            panic!("expected ExceededCodeDistance, got {e:?}");
        };
        assert_eq!(victims, &[0, 1]);
        assert_eq!((*row, *count, *max_per_row), (0, 2, 1));
    }
}

#[test]
fn coded_requires_q_at_least_2f() {
    let result = std::panic::catch_unwind(|| {
        run_spmd(1, 4, FaultScript::none(), |ctx| {
            let _ = Encoded::with_redundancy(&ctx, 12, 2, Redundancy::Coded(3), |_, _| 0.0);
        })
    });
    assert!(result.is_err());
}

#[test]
fn coded_checksum_violation_ratios_locate_members() {
    // The Vandermonde weights keep per-copy violations proportional to
    // node(idx)^copy of the corrupted member — the scrub locate signal,
    // here verified through copy 3 (node 1 + 4/6 = 5/3).
    run_spmd(1, 6, FaultScript::none(), |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, 12, 2, Redundancy::Coded(3), |i, j| (i * 12 + j) as f64);
        enc.compute_initial_checksums(&ctx);
        // Corrupt one entry in member index 4 of group 0 (column 8).
        if enc.a.owns_row(5) && enc.a.owns_col(8) {
            let v = enc.a.get(5, 8);
            enc.a.set(5, 8, v + 2.0);
        }
        for copy in 0..4 {
            let v = enc.checksum_violation(&ctx, 0, copy, 7300 + 10 * copy as u64);
            let want = 2.0 * (5.0f64 / 3.0).powi(copy as i32);
            assert!((v - want).abs() < 1e-6, "copy {copy}: violation {v}, want {want}");
        }
    });
}
