//! Integration tests of the ABFT Hessenberg reduction:
//!
//! * fault-free equivalence with the unprotected `pdgehrd` (the checksum
//!   machinery must not perturb the logical computation at all);
//! * Theorem 1: the row-checksum invariant for every group after the
//!   current panel scope, checked after **every** phase of every iteration;
//! * recovery: failures injected at every (iteration × phase × victim)
//!   combination must reproduce the fault-free factorization.

use ft_dense::gen::{uniform_entry, uniform_indexed_matrix};
use ft_dense::Matrix;
use ft_hess::{assert_theorem1, failpoint, ft_pdgehrd, ft_pdgehrd_full, Encoded, Phase, ScrubPolicy, Variant};
use ft_lapack::{extract_h, hessenberg_residual, is_hessenberg, orghr};
use ft_pblas::{pdgehrd, Desc, DistMatrix};
use ft_runtime::{run_spmd, FaultScript, PlannedFailure};

/// Fault-free reference: plain distributed reduction, gathered.
fn plain_reference(p: usize, q: usize, n: usize, nb: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let out = run_spmd(p, q, FaultScript::none(), move |ctx| {
        let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n - 1];
        pdgehrd(&ctx, &mut a, &mut tau);
        (a.gather_all(&ctx, 700), tau)
    });
    out.into_iter().next().unwrap()
}

fn ft_run(
    p: usize,
    q: usize,
    n: usize,
    nb: usize,
    seed: u64,
    variant: Variant,
    script_fn: impl Fn() -> FaultScript + Sync,
) -> (Matrix, Vec<f64>, usize) {
    let out = run_spmd(p, q, script_fn(), move |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n - 1];
        let report = ft_pdgehrd(&ctx, &mut enc, variant, &mut tau).expect("within the fault model");
        (enc.gather_logical(&ctx, 702), tau, report.recoveries)
    });
    out.into_iter().next().unwrap()
}

#[test]
fn fault_free_matches_plain_bitwise() {
    let (n, nb) = (16, 2);
    for (p, q) in [(2usize, 2usize), (2, 3), (1, 2)] {
        let (aref, tau_ref) = plain_reference(p, q, n, nb, 42);
        for variant in [Variant::NonDelayed, Variant::Delayed] {
            let (aft, tau_ft, rec) = ft_run(p, q, n, nb, 42, variant, FaultScript::none);
            assert_eq!(rec, 0);
            let d = aft.max_abs_diff(&aref);
            assert_eq!(d, 0.0, "{p}x{q} {variant:?}: fault-free FT diverged by {d}");
            assert_eq!(tau_ft, tau_ref);
        }
    }
}

#[test]
fn theorem1_invariant_all_phases() {
    // After every phase, the checksums of every group strictly after the
    // current panel scope must match the live data to rounding accuracy —
    // fault-free, and with a scripted failure at any phase of panel 3: the
    // hook sees every boundary once, the failed one after its recovery.
    let (n, nb, p, q) = (24, 2, 2, 3);
    let boundaries = |script: FaultScript| {
        let failed = !script.is_empty();
        run_spmd(p, q, script, move |ctx| {
            let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(7, i, j));
            let mut tau = vec![0.0; n - 1];
            let (mut checked, mut seen) = (0usize, Vec::new());
            let tol = if failed { 1e-10 } else { 1e-11 };
            let rep = ft_pdgehrd_full(
                &ctx,
                &mut enc,
                Variant::NonDelayed,
                &mut tau,
                ScrubPolicy::disabled(),
                &mut |ctx, enc, panel, phase| {
                    let s = panel / ctx.npcol(); // scope of this panel
                    checked += assert_theorem1(ctx, enc, s, tol, "hessenberg", &format!("panel {panel} {phase:?}"));
                    seen.push((panel, phase));
                },
            )
            .expect("within the fault model");
            // The sweep actually exercised trailing groups.
            assert!(checked > 20, "only {checked} invariant checks ran");
            assert_eq!(rep.recoveries, usize::from(failed));
            seen
        })
        .swap_remove(0)
    };
    let fault_free = boundaries(FaultScript::none());
    for phase in Phase::ALL {
        assert_eq!(boundaries(FaultScript::one(4, failpoint(3, phase))), fault_free, "failure at panel 3 {phase:?}");
    }
}

#[test]
fn theorem1_invariant_delayed_at_scope_boundaries() {
    // Algorithm 3 restores the invariant at scope boundaries (BeforePanel
    // of a scope-opening iteration ≡ just after the previous scope's
    // catch-up + recompute).
    let (n, nb, p, q) = (24, 2, 2, 2);
    run_spmd(p, q, FaultScript::none(), move |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(8, i, j));
        let mut tau = vec![0.0; n - 1];
        ft_pdgehrd_full(
            &ctx,
            &mut enc,
            Variant::Delayed,
            &mut tau,
            ScrubPolicy::disabled(),
            &mut |ctx, enc, panel, phase| {
                let bc = panel; // w == nb here, so panel index == block column
                if phase == Phase::BeforePanel && bc % ctx.npcol() == 0 {
                    let s = bc / ctx.npcol();
                    assert_theorem1(ctx, enc, s, 1e-11, "hessenberg", &format!("scope boundary at panel {panel}"));
                }
            },
        )
        .expect("within the fault model");
    });
}

/// Exhaustive single-failure sweep on a small problem: every iteration,
/// every phase, every victim rank; the recovered factorization must agree
/// with the fault-free one to rounding accuracy.
fn sweep_recovery(variant: Variant, p: usize, q: usize, n: usize, nb: usize, seed: u64, tol: f64) {
    let (aref, tau_ref) = {
        let (a, t, _) = ft_run(p, q, n, nb, seed, variant, FaultScript::none);
        (a, t)
    };
    let panels = {
        // mirror the driver's loop
        let mut c = 0;
        let mut k = 0;
        while k + 2 < n {
            let w = nb.min(n - 2 - k);
            k += w;
            c += 1;
        }
        c
    };
    for panel in 0..panels {
        for phase in Phase::ALL {
            for victim in 0..p * q {
                let (aft, tau_ft, rec) = ft_run(p, q, n, nb, seed, variant, || FaultScript::one(victim, failpoint(panel, phase)));
                assert_eq!(rec, 1, "panel {panel} {phase:?} victim {victim}: no recovery ran");
                let d = aft.max_abs_diff(&aref);
                assert!(d < tol, "{variant:?} panel {panel} {phase:?} victim {victim}: diff {d}");
                let dt: f64 = tau_ft.iter().zip(&tau_ref).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
                assert!(dt < tol, "tau diverged by {dt}");
            }
        }
    }
}

#[test]
fn recovery_sweep_nondelayed_2x2() {
    sweep_recovery(Variant::NonDelayed, 2, 2, 12, 2, 11, 1e-10);
}

#[test]
fn recovery_sweep_delayed_2x2() {
    sweep_recovery(Variant::Delayed, 2, 2, 12, 2, 11, 1e-10);
}

#[test]
fn recovery_sweep_nondelayed_2x3() {
    sweep_recovery(Variant::NonDelayed, 2, 3, 12, 2, 13, 1e-10);
}

#[test]
fn recovery_sweep_delayed_3x2() {
    sweep_recovery(Variant::Delayed, 3, 2, 12, 2, 17, 1e-10);
}

#[test]
fn simultaneous_failures_different_rows() {
    // Two victims in one event, different process rows (the paper's §1
    // fault model: tolerated as long as no process row loses two).
    let (n, nb, p, q) = (16, 2, 2, 2);
    let (aref, _) = {
        let (a, t, _) = ft_run(p, q, n, nb, 19, Variant::NonDelayed, FaultScript::none);
        (a, t)
    };
    for phase in Phase::ALL {
        // victims: rank 0 = (0,0) and rank 3 = (1,1) — different rows.
        let (aft, _, rec) = ft_run(p, q, n, nb, 19, Variant::NonDelayed, || {
            FaultScript::new(vec![
                PlannedFailure { victim: 0, point: failpoint(3, phase) },
                PlannedFailure { victim: 3, point: failpoint(3, phase) },
            ])
        });
        assert_eq!(rec, 1);
        let d = aft.max_abs_diff(&aref);
        assert!(d < 1e-10, "{phase:?}: diff {d}");
    }
}

#[test]
fn repeated_failures_across_the_run() {
    // One failure per scope, different victims — recover, keep going,
    // recover again ("ready to recover from the next failure", §8).
    let (n, nb, p, q) = (24, 2, 2, 3);
    let (aref, _) = {
        let (a, t, _) = ft_run(p, q, n, nb, 23, Variant::NonDelayed, FaultScript::none);
        (a, t)
    };
    let (aft, _, rec) = ft_run(p, q, n, nb, 23, Variant::NonDelayed, || {
        FaultScript::new(vec![
            PlannedFailure { victim: 1, point: failpoint(1, Phase::AfterPanel) },
            PlannedFailure { victim: 4, point: failpoint(4, Phase::AfterRightUpdate) },
            PlannedFailure { victim: 2, point: failpoint(8, Phase::AfterLeftUpdate) },
        ])
    });
    assert_eq!(rec, 3);
    let d = aft.max_abs_diff(&aref);
    assert!(d < 1e-9, "diff after three recoveries: {d}");
}

#[test]
fn recovered_run_is_backward_stable() {
    // §7.3 / Table 1: the residual after a failure + recovery stays at the
    // same order as the fault-free one, below the paper's threshold r_t = 3.
    let (n, nb, p, q) = (32, 4, 2, 2);
    let seed = 31;
    let a0 = uniform_indexed_matrix(n, n, seed);

    let run = |script: FaultScript| {
        let a0 = a0.clone();
        let out = run_spmd(p, q, script, move |ctx| {
            let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(seed, i, j));
            let mut tau = vec![0.0; n - 1];
            ft_pdgehrd(&ctx, &mut enc, Variant::NonDelayed, &mut tau).expect("within the fault model");
            let ag = enc.gather_logical(&ctx, 704);
            if ctx.rank() == 0 {
                let h = extract_h(&ag);
                assert!(is_hessenberg(&h));
                let qm = orghr(&ag, &tau);
                Some(hessenberg_residual(&a0, &h, &qm))
            } else {
                None
            }
        });
        out.into_iter().flatten().next().unwrap()
    };

    let r_ok = run(FaultScript::none());
    let r_ft = run(FaultScript::one(2, failpoint(3, Phase::AfterRightUpdate)));
    assert!(r_ok < 3.0, "fault-free residual {r_ok}");
    assert!(r_ft < 3.0, "post-recovery residual {r_ft}");
    assert!(r_ft < 10.0 * r_ok.max(0.01), "recovery degraded stability: {r_ft} vs {r_ok}");
}
