//! Storm battery for the framework's second solver: fault-tolerant
//! Householder QR (`ft_pdgeqrf`) under scripted fail-stop failures, chaos
//! kills at arbitrary message-op boundaries, and seeded SDC bit-flips —
//! all running on the *shared* driver/recovery/scrub machinery, with QR's
//! left-only update path (no pseudo-checksum `Ve`, empty `y_loc`).
//!
//! The oracle is eigen-free (there is no spectrum to compare): scaled
//! `‖A − QR‖` and `‖QᵀQ − I‖` residuals, plus parity of the recovered
//! factorization with the fault-free run to 1e-10 (recovery replays
//! deterministic collectives, so a healed run reproduces the clean one).

use ft_dense::gen::{uniform_entry, uniform_indexed_matrix};
use ft_dense::Matrix;
use ft_hess::{
    assert_theorem1, failpoint, ft_pdgeqrf, ft_pdgeqrf_full, Encoded, FtReport, Phase, Redundancy, ScrubPolicy, Variant,
};
use ft_lapack::{extract_r, orgqr, orthogonality_residual, qr_residual, RESIDUAL_THRESHOLD};
use ft_runtime::{run_spmd, Ctx, FaultScript, PlannedFailure};

/// Fault-free reference factorization (gathered logical matrix + tau).
fn clean_run(n: usize, nb: usize, p: usize, q: usize, seed: u64, variant: Variant, red: Redundancy) -> (Matrix, Vec<f64>) {
    run_spmd(p, q, FaultScript::none(), move |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, n, nb, red, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n];
        ft_pdgeqrf(&ctx, &mut enc, variant, &mut tau).expect("fault-free");
        (enc.gather_logical(&ctx, 900), tau)
    })
    .into_iter()
    .next()
    .unwrap()
}

/// Run QR under `script`; returns rank 0's gathered state.
#[allow(clippy::too_many_arguments)]
fn storm_run(
    n: usize,
    nb: usize,
    p: usize,
    q: usize,
    seed: u64,
    variant: Variant,
    script: FaultScript,
) -> (Matrix, Vec<f64>, FtReport) {
    let results = run_spmd(p, q, script, move |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n];
        let report = ft_pdgeqrf(&ctx, &mut enc, variant, &mut tau).expect("within the fault model");
        let ag = enc.gather_logical(&ctx, 902);
        (ctx.rank() == 0).then_some((ag, tau, report))
    });
    results.into_iter().flatten().next().unwrap()
}

/// The eigen-free correctness oracle: scaled QR + orthogonality residuals
/// of the gathered factorization against the original matrix.
fn assert_qr_residuals(label: &str, n: usize, seed: u64, ag: &Matrix, tau: &[f64]) {
    let a0 = uniform_indexed_matrix(n, n, seed);
    let qm = orgqr(ag, tau);
    let res = qr_residual(&a0, &qm, &extract_r(ag));
    let orth = orthogonality_residual(&qm);
    assert!(res < RESIDUAL_THRESHOLD, "{label}: QR residual {res}");
    assert!(orth < RESIDUAL_THRESHOLD, "{label}: orthogonality {orth}");
}

/// Parity of a recovered run with the fault-free one — factorization and
/// tau to 1e-10 (deterministic replay makes recovery reproduce the clean
/// computation; the tolerance only absorbs printing-free bit equality we
/// don't insist on here).
fn assert_parity(label: &str, got: &(Matrix, Vec<f64>), want: &(Matrix, Vec<f64>)) {
    let d = got.0.max_abs_diff(&want.0);
    assert!(d < 1e-10, "{label}: matrix diff {d}");
    let dt = got.1.iter().zip(&want.1).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    assert!(dt < 1e-10, "{label}: tau diff {dt}");
}

/// Theorem 1 for the left-only solver: the Non-delayed QR maintains the
/// row-checksum invariant after **every** phase of every panel — with no
/// `Ve` machinery at all, because left updates mix rows only. This is the
/// QR counterpart of the Hessenberg invariance sweep in `ft_correctness`.
#[test]
fn qr_nondelayed_theorem1_every_phase() {
    let (n, nb, p, q) = (24usize, 2usize, 2usize, 2usize);
    run_spmd(p, q, FaultScript::none(), move |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(41, i, j));
        let mut tau = vec![0.0; n];
        let mut checked = 0usize;
        ft_pdgeqrf_full(
            &ctx,
            &mut enc,
            Variant::NonDelayed,
            &mut tau,
            ScrubPolicy::disabled(),
            &mut |ctx, enc, panel, phase| {
                let s = panel / ctx.npcol(); // w == nb here, so panel index == block column
                checked += assert_theorem1(ctx, enc, s, 1e-11, "qr", &format!("qr panel {panel} {phase:?}"));
            },
        )
        .expect("fault-free run");
        assert!(checked > 20, "only {checked} invariant checks ran");
    });
}

/// The Delayed QR owes the invariant at scope-opening boundaries, after
/// the catch-up — which for a left-only solver runs left halves only.
#[test]
fn qr_delayed_theorem1_at_scope_boundaries() {
    let (n, nb, p, q) = (24usize, 2usize, 2usize, 2usize);
    run_spmd(p, q, FaultScript::none(), move |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(43, i, j));
        let mut tau = vec![0.0; n];
        ft_pdgeqrf_full(
            &ctx,
            &mut enc,
            Variant::Delayed,
            &mut tau,
            ScrubPolicy::disabled(),
            &mut |ctx, enc, panel, phase| {
                if phase == Phase::BeforePanel && panel % ctx.npcol() == 0 {
                    let s = panel / ctx.npcol();
                    assert_theorem1(ctx, enc, s, 1e-11, "qr", &format!("qr scope boundary at panel {panel}"));
                }
            },
        )
        .expect("fault-free run");
    });
}

/// Scripted fail-stop sweep: one failure in every scope, rotating victims
/// and phases (including the no-op Right step, which must still carry its
/// fail point for solver-identical rollback boundaries). Each leg must
/// reproduce the fault-free factorization to 1e-10 — Areas 1–4 recovery
/// through the shared framework, exercised by the left-only solver.
#[test]
fn qr_scripted_storm_recovers_exactly() {
    let (n, nb, p, q) = (32usize, 4usize, 2usize, 2usize);
    let seed = 47;
    let reference = clean_run(n, nb, p, q, seed, Variant::NonDelayed, Redundancy::Single);
    let phases = [
        Phase::AfterPanel,
        Phase::AfterRightUpdate,
        Phase::AfterLeftUpdate,
        Phase::BeforePanel,
    ];
    let panels = n / nb; // QR tiles all of n
    let mut failures = Vec::new();
    for (i, panel) in (1..panels).step_by(q).enumerate() {
        failures.push(PlannedFailure {
            victim: (2 * i + 1) % (p * q),
            point: failpoint(panel, phases[i % phases.len()]),
        });
    }
    assert!(failures.len() >= 3, "storm too small");
    let total = failures.len();
    let (ag, tau, report) = storm_run(n, nb, p, q, seed, Variant::NonDelayed, FaultScript::new(failures));
    assert_eq!(report.victims.len(), total);
    assert_qr_residuals("qr scripted storm", n, seed, &ag, &tau);
    assert_parity("qr scripted storm", &(ag, tau), &reference);
}

/// The Delayed variant under scripted failures at every phase of one
/// mid-scope panel: recovery's catch-up must skip the right halves (QR has
/// none) while the progress markers advance identically.
#[test]
fn qr_delayed_scripted_failures_each_phase() {
    let (n, nb, p, q) = (24usize, 2usize, 2usize, 2usize);
    let seed = 53;
    let reference = clean_run(n, nb, p, q, seed, Variant::Delayed, Redundancy::Single);
    for phase in Phase::ALL {
        for victim in [0usize, 3] {
            let (ag, tau, report) = storm_run(n, nb, p, q, seed, Variant::Delayed, FaultScript::one(victim, failpoint(5, phase)));
            assert_eq!(report.recoveries, 1, "victim {victim} {phase:?}");
            assert_qr_residuals(&format!("qr delayed v{victim} {phase:?}"), n, seed, &ag, &tau);
            assert_parity(&format!("qr delayed v{victim} {phase:?}"), &(ag, tau), &reference);
        }
    }
}

/// A chaos kill at an arbitrary, un-scripted message-op boundary of a QR
/// run on a 2×2 grid: abort mid-phase, roll back to the last committed
/// boundary image, recover, finish — with residual/orthogonality parity
/// against the fault-free run. This is the acceptance scenario for the
/// second solver riding the shared chaos machinery.
#[test]
fn qr_chaos_kill_mid_factorization_recovers() {
    let (n, nb, p, q) = (48usize, 4usize, 2usize, 2usize);
    let seed = 59;
    let reference = clean_run(n, nb, p, q, seed, Variant::NonDelayed, Redundancy::Single);
    // The whole run is ~204 message ops at this size (probed with a
    // never-firing script + `ctx.chaos_ops()`); strike early, mid, late.
    for (victim, op) in [(2usize, 40u64), (1, 110), (3, 180)] {
        let (ag, tau, report) = storm_run(
            n,
            nb,
            p,
            q,
            seed,
            Variant::NonDelayed,
            FaultScript::parse(&format!("0:at={victim}@{op}"), p * q, 0..1).unwrap(),
        );
        assert!(report.chaos_aborts > 0, "kill at op {op} never fired");
        assert_eq!(report.recoveries, 1, "victim {victim} op {op}");
        assert_eq!(report.victims, vec![victim]);
        assert_qr_residuals(&format!("qr chaos v{victim} op{op}"), n, seed, &ag, &tau);
        assert_parity(&format!("qr chaos v{victim} op{op}"), &(ag, tau), &reference);
    }
}

/// Scrubbed QR run with a one-shot flip injected through the hook at
/// `(panel, AfterLeftUpdate)`; returns every rank's gathered state + report.
#[allow(clippy::too_many_arguments)]
fn qr_flip_run(
    n: usize,
    nb: usize,
    p: usize,
    q: usize,
    seed: u64,
    red: Redundancy,
    panel: usize,
    flip: (usize, usize, f64),
) -> Vec<(Matrix, Vec<f64>, ft_hess::ScrubReport)> {
    run_spmd(p, q, FaultScript::none(), move |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, n, nb, red, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n];
        let mut fired = false;
        let mut hook = |_ctx: &Ctx, enc: &mut Encoded, pi: usize, ph: Phase| {
            if !fired && pi == panel && ph == Phase::AfterLeftUpdate {
                fired = true;
                if enc.a.owns_row(flip.0) && enc.a.owns_col(flip.1) {
                    let v = enc.a.get(flip.0, flip.1);
                    enc.a.set(flip.0, flip.1, v + flip.2);
                }
            }
        };
        let rep = ft_pdgeqrf_full(&ctx, &mut enc, Variant::NonDelayed, &mut tau, ScrubPolicy::every_panels(1), &mut hook)
            .expect("scrub heals");
        (enc.gather_logical(&ctx, 904), tau, rep.scrub)
    })
}

/// The acceptance scenario: a seeded SDC bit-flip-style corruption on the
/// 2×2 grid. With only `Single` redundancy (all Q = 2 admits), the scrub
/// engine detects the violation, cannot localize, and escalates to a
/// verified-boundary rollback — healing the run to exact parity with the
/// flip-free reference.
#[test]
fn qr_sdc_flip_on_2x2_escalates_to_rollback_and_heals() {
    let (n, nb, p, q) = (24usize, 2usize, 2usize, 2usize);
    let seed = 61;
    let reference = clean_run(n, nb, p, q, seed, Variant::NonDelayed, Redundancy::Single);
    for (panel, flip_col) in [(1usize, 8usize), (3, 14)] {
        let results = qr_flip_run(n, nb, p, q, seed, Redundancy::Single, panel, (n - 1, flip_col, 0.43));
        for (ag, tau, scrub) in results {
            assert!(scrub.detections >= 1, "panel {panel} col {flip_col}: no detection");
            assert_eq!(scrub.corrections, 0, "Single cannot localize on Q > 1");
            assert!(scrub.escalations >= 1, "panel {panel} col {flip_col}");
            assert!(scrub.rollbacks >= 1, "panel {panel} col {flip_col}");
            assert_qr_residuals(&format!("qr sdc 2x2 panel {panel} col {flip_col}"), n, seed, &ag, &tau);
            assert_parity(&format!("qr sdc 2x2 panel {panel} col {flip_col}"), &(ag, tau), &reference);
        }
    }
}

/// With `Coded(2)` redundancy (needs Q ≥ 4 process columns) the same flip is
/// localized to its member block and corrected in place — no rollback.
#[test]
fn qr_sdc_flip_corrected_in_place_dual() {
    let (n, nb, p, q) = (32usize, 2usize, 2usize, 4usize);
    let seed = 63;
    let reference = clean_run(n, nb, p, q, seed, Variant::NonDelayed, Redundancy::Coded(2));
    let (panel, flip_col) = (2usize, 16usize); // trailing group for scope 0
    let results = qr_flip_run(n, nb, p, q, seed, Redundancy::Coded(2), panel, (n - 1, flip_col, 0.37));
    for (ag, tau, scrub) in results {
        assert!(scrub.detections >= 1, "no detection");
        assert!(scrub.corrections >= 1, "no in-place correction");
        assert_eq!(scrub.escalations, 0);
        assert_eq!(scrub.rollbacks, 0);
        assert_qr_residuals("qr sdc dual", n, seed, &ag, &tau);
        assert_parity("qr sdc dual", &(ag, tau), &reference);
    }
}

/// Coded(f) on the second solver: k simultaneous same-row victims for every
/// k ≤ f = 3 reconstruct through the shared Vandermonde solve and reproduce
/// the fault-free QR factorization to 1e-10 parity.
#[test]
fn qr_coded3_multi_kill_same_row_recovers_exactly() {
    let (n, nb, p, q) = (24usize, 2usize, 1usize, 6usize);
    let seed = 69;
    let reference = clean_run(n, nb, p, q, seed, Variant::NonDelayed, Redundancy::Coded(3));
    for victims in [vec![4usize], vec![0, 3], vec![1, 3, 5]] {
        let script = FaultScript::new(
            victims
                .iter()
                .map(|&v| PlannedFailure { victim: v, point: failpoint(3, Phase::AfterLeftUpdate) })
                .collect(),
        );
        let (ag, tau, rec) = run_spmd(p, q, script, move |ctx| {
            let mut enc = Encoded::with_redundancy(&ctx, n, nb, Redundancy::Coded(3), |i, j| uniform_entry(seed, i, j));
            let mut tau = vec![0.0; n];
            let rep = ft_pdgeqrf(&ctx, &mut enc, Variant::NonDelayed, &mut tau).expect("within the fault model");
            (enc.gather_logical(&ctx, 906), tau, rep.recoveries)
        })
        .into_iter()
        .next()
        .unwrap();
        assert_eq!(rec, 1, "victims {victims:?}");
        assert_qr_residuals(&format!("qr coded3 {victims:?}"), n, seed, &ag, &tau);
        assert_parity(&format!("qr coded3 {victims:?}"), &(ag, tau), &reference);
    }
}

/// Beyond-distance on QR: k = f + 1 same-row victims yield the identical
/// typed `ExceededCodeDistance` on every rank of the second solver too.
#[test]
fn qr_coded2_beyond_distance_rejected() {
    let script = FaultScript::new(
        (0..3)
            .map(|v| PlannedFailure { victim: v, point: failpoint(2, Phase::AfterPanel) })
            .collect(),
    );
    let errs = run_spmd(1, 4, script, |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, 16, 2, Redundancy::Coded(2), |i, j| uniform_entry(71, i, j));
        let mut tau = vec![0.0; 16];
        ft_pdgeqrf(&ctx, &mut enc, Variant::NonDelayed, &mut tau).unwrap_err()
    });
    for e in &errs {
        assert_eq!(e, &errs[0], "ranks diverge on the error");
        let ft_hess::FtError::ExceededCodeDistance { victims, row, count, max_per_row, .. } = e else {
            panic!("expected ExceededCodeDistance, got {e:?}");
        };
        assert_eq!(victims, &[0, 1, 2]);
        assert_eq!((*row, *count, *max_per_row), (0, 3, 2));
    }
}

/// Determinism witness: two identical fault-injected runs produce bitwise
/// identical factorizations — the property all parity checks above lean on.
#[test]
fn qr_recovered_runs_are_deterministic() {
    let (n, nb, p, q) = (24usize, 2usize, 2usize, 2usize);
    let seed = 67;
    let run = || storm_run(n, nb, p, q, seed, Variant::NonDelayed, FaultScript::one(1, failpoint(3, Phase::AfterPanel)));
    let (a1, t1, _) = run();
    let (a2, t2, _) = run();
    assert_eq!(a1.max_abs_diff(&a2), 0.0);
    assert_eq!(t1, t2);
}
