//! SDC storm battery: seeded single- and multi-bit flips into every
//! recovery area (trailing, finished, checksum copies), across both
//! variants and awkward geometries. Each case checks the scrub engine's
//! full contract — detect, localize, correct (or escalate to a verified
//! rollback) — and that the final reduction matches the flip-free run.

use ft_dense::gen::uniform_entry;
use ft_dense::Matrix;
use ft_hess::{
    failpoint, ft_pdgehrd, ft_pdgehrd_full, Encoded, FtError, FtSolver, Phase, Redundancy, ScrubPolicy, ScrubReport, Variant,
};
use ft_lapack::{extract_h, hessenberg_eigenvalues};
use ft_runtime::{run_spmd, Ctx, FaultScript};

/// Flip-free reference reduction (scrub disabled).
fn clean_run(n: usize, nb: usize, p: usize, q: usize, seed: u64, variant: Variant, red: Redundancy) -> Matrix {
    run_spmd(p, q, FaultScript::none(), move |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, n, nb, red, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n.saturating_sub(1).max(1)];
        ft_pdgehrd(&ctx, &mut enc, variant, &mut tau).expect("fault-free");
        enc.gather_logical(&ctx, 800)
    })
    .into_iter()
    .next()
    .unwrap()
}

/// Run the scrubbed reduction with a one-shot corruption injected through
/// the observation hook at `(panel, phase)`. Returns every rank's gathered
/// matrix + scrub report (replicated verdict fields must agree).
#[allow(clippy::too_many_arguments)]
fn corrupted_run(
    n: usize,
    nb: usize,
    p: usize,
    q: usize,
    seed: u64,
    variant: Variant,
    red: Redundancy,
    policy: ScrubPolicy,
    panel: usize,
    phase: Phase,
    inject: impl Fn(&Ctx, &mut Encoded) + Sync,
) -> Vec<Result<(Matrix, ScrubReport), FtError>> {
    run_spmd(p, q, FaultScript::none(), move |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, n, nb, red, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n.saturating_sub(1).max(1)];
        let mut fired = false;
        let inject = &inject;
        let mut hook = |ctx: &Ctx, enc: &mut Encoded, pi: usize, ph: Phase| {
            if !fired && pi == panel && ph == phase {
                fired = true;
                inject(ctx, enc);
            }
        };
        match ft_pdgehrd_full(&ctx, &mut enc, variant, &mut tau, policy, &mut hook) {
            Ok(rep) => Ok((enc.gather_logical(&ctx, 802), rep.scrub)),
            Err(e) => Err(e),
        }
    })
}

/// Add `delta` to logical entry `(i, j)` on whichever rank owns it.
fn bump(enc: &mut Encoded, i: usize, j: usize, delta: f64) {
    if enc.a.owns_row(i) && enc.a.owns_col(j) {
        let v = enc.a.get(i, j);
        enc.a.set(i, j, v + delta);
    }
}

// ---------------------------------------------------------------------------
// Area 1 (trailing): in-place correction under `Coded(2)` redundancy.
// ---------------------------------------------------------------------------

#[test]
fn trailing_flip_corrected_in_place_nondelayed() {
    let (n, nb, p, q) = (32, 2, 2, 4);
    let reference = clean_run(n, nb, p, q, 70, Variant::NonDelayed, Redundancy::Coded(2));
    // Only phases after the (column-mixing) right update keep a single
    // corrupted member block; earlier injections spread across the row and
    // are covered by the escalation tests below.
    for panel in [0usize, 2, 5] {
        for phase in [Phase::AfterRightUpdate, Phase::AfterLeftUpdate] {
            let s = panel / q;
            let col = (s + 1) * q * nb; // first column of the next (trailing) group
            let results = corrupted_run(
                n,
                nb,
                p,
                q,
                70,
                Variant::NonDelayed,
                Redundancy::Coded(2),
                ScrubPolicy::every_panels(1),
                panel,
                phase,
                move |_ctx, enc| bump(enc, n - 1, col, 0.37),
            );
            for r in results {
                let (got, scrub) = r.expect("corrected in place");
                assert!(scrub.detections >= 1, "panel {panel} {phase:?}: no detection");
                assert!(scrub.corrections >= 1, "panel {panel} {phase:?}: no correction");
                assert_eq!(scrub.escalations, 0, "panel {panel} {phase:?}");
                assert_eq!(scrub.rollbacks, 0, "panel {panel} {phase:?}");
                let d = got.max_abs_diff(&reference);
                assert!(d < 1e-10, "panel {panel} {phase:?}: diff {d}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Area 2 (finished): mid-scope scans cover it in both variants.
// ---------------------------------------------------------------------------

#[test]
fn finished_flip_corrected_in_place_delayed() {
    let (n, nb, p, q) = (40, 2, 2, 4);
    let reference = clean_run(n, nb, p, q, 71, Variant::Delayed, Redundancy::Coded(2));
    for phase in [Phase::AfterPanel, Phase::AfterLeftUpdate] {
        // Panel 5 sits in scope 1: group 0 is finished, its columns (and
        // checksums) are frozen — a flip there stays a single-member hit.
        let results = corrupted_run(
            n,
            nb,
            p,
            q,
            71,
            Variant::Delayed,
            Redundancy::Coded(2),
            ScrubPolicy::every_panels(1),
            5,
            phase,
            |_ctx, enc| bump(enc, 30, 2, -0.61),
        );
        for r in results {
            let (got, scrub) = r.expect("corrected in place");
            assert!(scrub.detections >= 1, "{phase:?}: no detection");
            assert!(scrub.corrections >= 1, "{phase:?}: no correction");
            assert_eq!(scrub.rollbacks, 0, "{phase:?}");
            let d = got.max_abs_diff(&reference);
            assert!(d < 1e-10, "{phase:?}: diff {d}");
        }
    }
}

// ---------------------------------------------------------------------------
// Checksum-copy corruption: repaired from the surviving copy, data blameless.
// ---------------------------------------------------------------------------

#[test]
fn checksum_copy_flip_repaired_both_variants() {
    let (n, nb, p, q) = (32, 2, 2, 4);
    for (variant, panel, group, copy) in [(Variant::NonDelayed, 1usize, 1usize, 1usize), (Variant::Delayed, 5, 0, 0)] {
        let reference = clean_run(n, nb, p, q, 72, variant, Redundancy::Coded(2));
        let results = corrupted_run(
            n,
            nb,
            p,
            q,
            72,
            variant,
            Redundancy::Coded(2),
            ScrubPolicy::every_panels(1),
            panel,
            Phase::AfterRightUpdate,
            move |_ctx, enc| {
                let cc = enc.chk_col(group, copy, 0);
                bump(enc, n / 2, cc, 4.2);
            },
        );
        for r in results {
            let (got, scrub) = r.expect("checksum repaired");
            assert!(scrub.detections >= 1, "{variant:?}: no detection");
            assert!(scrub.chk_repairs >= 1, "{variant:?}: no checksum repair");
            assert_eq!(scrub.corrections, 0, "{variant:?}: data was rewritten");
            assert_eq!(scrub.rollbacks, 0, "{variant:?}");
            // The data path never changed: bit-identical result.
            assert_eq!(got.max_abs_diff(&reference), 0.0, "{variant:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Escalation: unlocalizable (Single) and spread (multi-member) corruption
// fall back to the verified-boundary rollback and still finish exactly.
// ---------------------------------------------------------------------------

#[test]
fn single_redundancy_flip_escalates_to_rollback_and_heals() {
    let (n, nb, p, q) = (24, 2, 2, 2);
    let reference = clean_run(n, nb, p, q, 73, Variant::NonDelayed, Redundancy::Single);
    let results = corrupted_run(
        n,
        nb,
        p,
        q,
        73,
        Variant::NonDelayed,
        Redundancy::Single,
        ScrubPolicy::every_panels(1),
        2,
        Phase::AfterLeftUpdate,
        |_ctx, enc| bump(enc, 20, 8, 1.0),
    );
    for r in results {
        let (got, scrub) = r.expect("rollback heals");
        assert!(scrub.detections >= 1);
        assert_eq!(scrub.corrections, 0, "Single cannot localize on Q > 1");
        assert!(scrub.escalations >= 1);
        assert!(scrub.rollbacks >= 1);
        // Replay from the verified image is deterministic: exact match.
        assert_eq!(got.max_abs_diff(&reference), 0.0);
    }
}

#[test]
fn multi_block_corruption_escalates_and_rolls_back_dual() {
    let (n, nb, p, q) = (32, 2, 2, 4);
    let reference = clean_run(n, nb, p, q, 74, Variant::NonDelayed, Redundancy::Coded(2));
    // Two member blocks of the same trailing group corrupted at once (a bad
    // DIMM spanning blocks): the per-copy violation ratios match no single
    // member, so in-place repair is impossible even under `Coded(2)`.
    let results = corrupted_run(
        n,
        nb,
        p,
        q,
        74,
        Variant::NonDelayed,
        Redundancy::Coded(2),
        ScrubPolicy::every_panels(1),
        2,
        Phase::AfterLeftUpdate,
        |_ctx, enc| {
            bump(enc, 28, 8, 2.5);
            bump(enc, 29, 12, -1.9);
        },
    );
    for r in results {
        let (got, scrub) = r.expect("rollback heals");
        assert!(scrub.detections >= 1);
        assert_eq!(scrub.corrections, 0);
        assert!(scrub.escalations >= 1);
        assert!(scrub.rollbacks >= 1);
        assert_eq!(got.max_abs_diff(&reference), 0.0);
    }
}

#[test]
fn delayed_trailing_flip_is_rollback_only() {
    // Under the delayed variant a mid-scope trailing flip is consumed by
    // the scope-boundary checksum catch-up: the visible residual looks like
    // a single member, but an in-place rewrite would keep the consistent
    // spread. The engine must refuse the shortcut and take the rollback.
    let (n, nb, p, q) = (40, 2, 2, 4);
    let reference = clean_run(n, nb, p, q, 81, Variant::Delayed, Redundancy::Coded(2));
    let results = corrupted_run(
        n,
        nb,
        p,
        q,
        81,
        Variant::Delayed,
        Redundancy::Coded(2),
        ScrubPolicy::every_panels(1),
        5, // mid-scope in scope 1 (panels 4..7)
        Phase::AfterLeftUpdate,
        |_ctx, enc| bump(enc, 33, 24, 1.7), // group 3: trailing
    );
    for r in results {
        let (got, scrub) = r.expect("rollback heals");
        assert!(scrub.detections >= 1);
        assert_eq!(scrub.corrections, 0, "suspect trailing verdicts must not correct in place");
        assert!(scrub.rollbacks >= 1);
        assert_eq!(got.max_abs_diff(&reference), 0.0);
    }
}

/// The same unlocalizable `Single` flip struck again every time the run
/// passes its boundary — damage a rollback cannot outrun. The first
/// escalation rolls back to the last verified image; the re-run escalates
/// out of that same image, which the progress guard turns into the typed
/// terminal error, identical on every rank.
#[test]
fn uncorrectable_after_a_rollback_is_typed_error_on_all_ranks() {
    let (n, nb, p, q) = (24, 2, 2, 2);
    let errs = run_spmd(p, q, FaultScript::none(), move |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, n, nb, Redundancy::Single, |i, j| uniform_entry(75, i, j));
        let mut tau = vec![0.0; n - 1];
        let mut hook = |_: &Ctx, enc: &mut Encoded, panel: usize, phase: Phase| {
            if (panel, phase) == (2, Phase::AfterLeftUpdate) {
                bump(enc, 20, 8, 1.0);
            }
        };
        ft_pdgehrd_full(&ctx, &mut enc, Variant::NonDelayed, &mut tau, ScrubPolicy::every_panels(1), &mut hook)
            .expect_err("must not complete")
    });
    for e in &errs {
        assert_eq!(e, &errs[0], "ranks diverge on the error");
        let FtError::ScrubUnrecoverable { panel, group, block_col } = e else {
            panic!("expected ScrubUnrecoverable, got {e:?}");
        };
        assert_eq!(*panel, 2);
        assert_eq!(*group, 2, "flip at column 8 lives in group 2 (Q·nb = 4)");
        assert_eq!(*block_col, 4);
    }
}

/// Corruption that predates a fail-stop failure is caught by the scan right
/// after the recovery — and is terminal there, since no verified image also
/// reflects the repair. The flip lands at panel 2's right update, before
/// that panel's end-of-iteration scan; rank 3 fails at the panel's next
/// boundary, so the post-recovery scan is the first to see it.
#[test]
fn post_recovery_escalation_is_typed_error_on_all_ranks() {
    let (n, nb, p, q) = (24, 2, 2, 2);
    let script = FaultScript::one(3, failpoint(2, Phase::AfterLeftUpdate));
    let errs = run_spmd(p, q, script, move |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, n, nb, Redundancy::Single, |i, j| uniform_entry(75, i, j));
        let mut tau = vec![0.0; n - 1];
        let mut fired = false;
        let mut hook = |_: &Ctx, enc: &mut Encoded, panel: usize, phase: Phase| {
            if !fired && (panel, phase) == (2, Phase::AfterRightUpdate) {
                fired = true;
                bump(enc, 20, 8, 1.0);
            }
        };
        ft_pdgehrd_full(&ctx, &mut enc, Variant::NonDelayed, &mut tau, ScrubPolicy::every_panels(1), &mut hook)
            .expect_err("must not complete")
    });
    for e in &errs {
        assert_eq!(e, &errs[0], "ranks diverge on the error");
        assert!(
            matches!(e, FtError::ScrubUnrecoverable { panel: 2, .. }),
            "expected ScrubUnrecoverable at panel 2, got {e:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Edge shapes through the scrub path.
// ---------------------------------------------------------------------------

#[test]
fn ragged_n_and_narrow_last_scope_scrub() {
    // N = 19 with nb = 4 on Q = 4: five block columns, the last one ragged
    // (three real columns) and alone in its group — the final scope is
    // narrower than Q.
    let (n, nb, p, q) = (19, 4, 1, 4);
    let reference = clean_run(n, nb, p, q, 76, Variant::NonDelayed, Redundancy::Coded(2));
    let results = corrupted_run(
        n,
        nb,
        p,
        q,
        76,
        Variant::NonDelayed,
        Redundancy::Coded(2),
        ScrubPolicy::every_panels(1),
        0,
        Phase::AfterLeftUpdate,
        |_ctx, enc| bump(enc, 17, 16, 0.9), // inside the ragged trailing block
    );
    for r in results {
        let (got, scrub) = r.expect("corrected in place");
        assert!(scrub.detections >= 1);
        assert!(scrub.corrections >= 1);
        let d = got.max_abs_diff(&reference);
        assert!(d < 1e-10, "diff {d}");
    }
}

#[test]
fn one_by_one_grid_scrub_corrects() {
    // Q = 1: useless against fail-stop loss, but the scrub checksums still
    // localize trivially (every group has one member) and correct in place.
    let (n, nb) = (12, 2);
    let reference = clean_run(n, nb, 1, 1, 77, Variant::NonDelayed, Redundancy::Single);
    let results = corrupted_run(
        n,
        nb,
        1,
        1,
        77,
        Variant::NonDelayed,
        Redundancy::Single,
        ScrubPolicy::every_panels(1),
        1,
        Phase::AfterLeftUpdate,
        |_ctx, enc| bump(enc, 9, 6, -0.8),
    );
    for r in results {
        let (got, scrub) = r.expect("corrected in place");
        assert!(scrub.detections >= 1);
        assert!(scrub.corrections >= 1);
        let d = got.max_abs_diff(&reference);
        assert!(d < 1e-10, "diff {d}");
    }
}

// ---------------------------------------------------------------------------
// Downstream parity: the corrected reduction feeds the eigensolver the same
// Hessenberg matrix as the flip-free run.
// ---------------------------------------------------------------------------

#[test]
fn eigenvalues_match_flip_free() {
    let (n, nb, p, q) = (32, 2, 2, 4);
    let reference = clean_run(n, nb, p, q, 78, Variant::NonDelayed, Redundancy::Coded(2));
    let results = corrupted_run(
        n,
        nb,
        p,
        q,
        78,
        Variant::NonDelayed,
        Redundancy::Coded(2),
        ScrubPolicy::every_panels(1),
        1,
        Phase::AfterRightUpdate,
        |_ctx, enc| bump(enc, 25, 8, 0.5),
    );
    let (got, scrub) = results.into_iter().next().unwrap().expect("corrected in place");
    assert!(scrub.corrections >= 1);
    let mut clean_eigs = hessenberg_eigenvalues(&extract_h(&reference)).expect("converges");
    let mut sdc_eigs = hessenberg_eigenvalues(&extract_h(&got)).expect("converges");
    let key = |e: &ft_lapack::Eigenvalue| (e.re, e.im);
    clean_eigs.sort_by(|a, b| key(a).partial_cmp(&key(b)).unwrap());
    sdc_eigs.sort_by(|a, b| key(a).partial_cmp(&key(b)).unwrap());
    assert_eq!(clean_eigs.len(), sdc_eigs.len());
    for (c, s) in clean_eigs.iter().zip(&sdc_eigs) {
        let d = f64::hypot(c.re - s.re, c.im - s.im);
        assert!(d < 1e-10, "eigenvalue drift {d}");
    }
}

// ---------------------------------------------------------------------------
// Randomized storm through the runtime injector (the CLI's --faults flip= path).
// ---------------------------------------------------------------------------

#[test]
fn seeded_storm_heals_both_variants() {
    let (n, nb, p, q) = (32, 2, 2, 4);
    // Matches the CLI's op-clock window for this shape.
    let panels = 15u64;
    let op_hi = (panels * (4 * nb as u64 + 20)).max(200);
    for variant in [Variant::NonDelayed, Variant::Delayed] {
        let reference = clean_run(n, nb, p, q, 79, variant, Redundancy::Coded(2));
        for sdc_seed in [1u64, 2, 3, 4] {
            for flips in [1usize, 2] {
                let sdc = FaultScript::parse(&format!("{sdc_seed}:flip={flips}"), p * q, 50..op_hi).unwrap();
                let results = run_spmd(p, q, sdc, move |ctx| {
                    let mut enc = Encoded::with_redundancy(&ctx, n, nb, Redundancy::Coded(2), |i, j| uniform_entry(79, i, j));
                    let mut tau = vec![0.0; n - 1];
                    let rep =
                        ft_pdgehrd_full(&ctx, &mut enc, variant, &mut tau, ScrubPolicy::every_panels(1), &mut |_, _, _, _| {})
                            .expect("storm within the scrub model");
                    (enc.gather_logical(&ctx, 804), rep.scrub)
                });
                for (got, scrub) in results {
                    // Flips into low mantissa bits of small entries sit below
                    // the detectability floor (tol = 1e-8) by design; they are
                    // equally invisible to the final residual check. Everything
                    // above it must have been healed.
                    let d = got.max_abs_diff(&reference);
                    assert!(d < 1e-7, "{variant:?} seed {sdc_seed} flips {flips}: diff {d} ({scrub:?})");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fail-stop + scrub: the post-recovery pass runs and the run still matches.
// ---------------------------------------------------------------------------

#[test]
fn post_recovery_scan_extra_pass() {
    let (n, nb, p, q) = (24, 2, 2, 2);
    let reference = clean_run(n, nb, p, q, 80, Variant::NonDelayed, Redundancy::Single);
    let panels = 11; // (24 - 2) / 2
    let results = run_spmd(p, q, FaultScript::one(3, failpoint(4, Phase::AfterRightUpdate)), move |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, n, nb, Redundancy::Single, |i, j| uniform_entry(80, i, j));
        let mut tau = vec![0.0; n - 1];
        let rep =
            ft_pdgehrd_full(&ctx, &mut enc, Variant::NonDelayed, &mut tau, ScrubPolicy::every_panels(1), &mut |_, _, _, _| {})
                .expect("within the fault model");
        (enc.gather_logical(&ctx, 806), rep.recoveries, rep.scrub)
    });
    for (got, recoveries, scrub) in results {
        assert_eq!(recoveries, 1);
        assert!(scrub.scans > panels, "post-recovery pass missing: {} scans", scrub.scans);
        assert_eq!(scrub.escalations, 0);
        let d = got.max_abs_diff(&reference);
        assert!(d < 1e-10, "diff {d}");
    }
}

/// A kill's recovery gets the post-recovery pass too: scripted failures and
/// kills share one recovery path. The kill strikes rank 2 mid-panel, before
/// that panel's end-of-iteration scan, and the rollback re-runs the panel
/// from its start: the run scans once per panel, as the fault-free run
/// does, plus exactly once right after the recovery — and matches the
/// fault-free factor.
#[test]
fn post_recovery_scan_runs_after_a_kill_too() {
    let (n, nb, p, q) = (48, 4, 2, 2);
    let reference = clean_run(n, nb, p, q, 82, Variant::NonDelayed, Redundancy::Single);
    let panels = ft_hess::Hessenberg.panel_count(n, nb);
    let run = |spec: &str| {
        let script = FaultScript::parse(spec, p * q, 0..1).unwrap();
        run_spmd(p, q, script, move |ctx| {
            let mut enc = Encoded::with_redundancy(&ctx, n, nb, Redundancy::Single, |i, j| uniform_entry(82, i, j));
            let mut tau = vec![0.0; n - 1];
            let rep = ft_pdgehrd_full(
                &ctx,
                &mut enc,
                Variant::NonDelayed,
                &mut tau,
                ScrubPolicy::every_panels(1),
                &mut |_, _, _, _| {},
            )
            .expect("within the fault model");
            (enc.gather_logical(&ctx, 810), rep)
        })
    };
    for (_, rep) in run(&format!("0:at=2@{}", u64::MAX)) {
        assert_eq!((rep.recoveries, rep.scrub.scans), (0, panels), "a fault-free run scans once a panel");
    }
    for (got, rep) in run("0:at=2@137") {
        assert!(rep.chaos_aborts > 0, "the kill never fired");
        assert_eq!(rep.recoveries, 1);
        assert_eq!(rep.scrub.scans, panels + 1, "one scan a panel and one after the kill's recovery");
        assert_eq!(rep.scrub.escalations, 0);
        let d = got.max_abs_diff(&reference);
        assert!(d < 1e-10, "diff {d}");
    }
}

// ---------------------------------------------------------------------------
// Composition: one script, a memory fault and wire faults, over a real wire.
// ---------------------------------------------------------------------------

/// ONE [`FaultScript`] carrying a silent bit flip *and* frame loss +
/// duplication, handed to both the loopback TCP fabric (which injects the
/// wire items) and `run_spmd_with` (whose op clock queues the flip). Before
/// the injectors shared a script no entry point could express this: the
/// transport-taking one carried neither kills nor flips. The flip must be
/// detected and corrected in place, the wire noise must be masked by
/// retransmission alone — zero §5.3 recoveries — and the factor must pass
/// the paper's `r_t = 3` residual gate.
#[test]
fn flip_and_wire_noise_compose_in_one_script_over_tcp() {
    use ft_dense::gen::uniform_indexed_matrix;
    use ft_lapack::{hessenberg_residual, orghr};
    use ft_runtime::{run_spmd_with, TcpTransport, Transport};
    use std::time::Duration;

    let (n, nb, p, q) = (16usize, 2usize, 1usize, 4usize);
    // Seed 3 lands its flip in a live trailing block.
    let script = FaultScript::parse("3:flip=1,drop=0.05,dup=0.05", p * q, 30..130).unwrap();
    let fabric = TcpTransport::fabric_localhost_with(p * q, |c| {
        c.hb_interval = Duration::from_millis(40);
        // Loss slows ranks down; nobody dies.
        c.hb_miss_limit = 500;
        c.faults = script.clone();
    })
    .expect("loopback fabric");
    let endpoints = fabric.into_iter().map(|t| Box::new(t) as Box<dyn Transport>).collect();
    let results = run_spmd_with(p, q, script, endpoints, move |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, n, nb, Redundancy::Coded(2), |i, j| uniform_entry(81, i, j));
        let mut tau = vec![0.0; n - 1];
        let rep =
            ft_pdgehrd_full(&ctx, &mut enc, Variant::NonDelayed, &mut tau, ScrubPolicy::every_panels(1), &mut |_, _, _, _| {})
                .expect("one flip under Coded(2) is within the scrub model");
        let retransmits = ctx.transport_stats().total().retransmits;
        (enc.gather_logical(&ctx, 808), tau, rep.recoveries, rep.scrub, retransmits)
    });
    let retransmits: u64 = results.iter().map(|r| r.4).sum();
    assert!(retransmits > 0, "5% loss on every link and nothing was retransmitted");
    for (ag, tau, recoveries, scrub, _) in &results {
        assert!(scrub.detections >= 1 && scrub.corrections >= 1, "flip not corrected in place: {scrub:?}");
        assert_eq!((scrub.escalations, *recoveries), (0, 0), "wire noise or the flip leaked into recovery: {scrub:?}");
        let a0 = uniform_indexed_matrix(n, n, 81);
        let r = hessenberg_residual(&a0, &extract_h(ag), &orghr(ag, tau));
        assert!(r < 3.0, "residual {r}");
    }
}
