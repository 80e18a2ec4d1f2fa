//! Sustained resilience under storms of failures — scripted (cooperative
//! fail points) and chaos-mode (kills at arbitrary message-op boundaries,
//! no cooperation from the algorithm).
//!
//! Promoted from the old `failure_storm` example; all seeds and kill
//! schedules are fixed so every run reproduces exactly.

use ft_dense::gen::{uniform_entry, uniform_indexed_matrix};
use ft_hess::{
    assert_theorem1, failpoint, ft_pdgehrd, ft_pdgehrd_full, ft_pdgeqrf, Encoded, FtError, FtReport, Phase, Redundancy,
    ScrubPolicy, ToleranceCap, Variant,
};
use ft_lapack::{extract_h, extract_r, hessenberg_residual, orghr, orgqr, qr_residual};
use ft_runtime::{run_spmd, FaultScript, PlannedFailure};

/// The `--faults` grammar, for a `world`-rank grid; seeded kills draw their
/// ops from [100, 350).
fn faults(spec: &str, world: usize) -> FaultScript {
    FaultScript::parse(spec, world, 100..350).expect(spec)
}

/// Run the FT reduction under `script` and return
/// `(rank-0 gathered matrix, tau, report)`; the residual is checked by the
/// caller. Panics in any rank propagate out of `run_spmd`, so a
/// passing test doubles as a zero-panic assertion over every survivor.
#[allow(clippy::too_many_arguments)]
fn storm_run(
    n: usize,
    nb: usize,
    p: usize,
    q: usize,
    seed: u64,
    variant: Variant,
    script: FaultScript,
) -> (ft_dense::Matrix, Vec<f64>, FtReport) {
    let results = run_spmd(p, q, script, move |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n - 1];
        let report = ft_pdgehrd(&ctx, &mut enc, variant, &mut tau).expect("within the fault model");
        let ag = enc.gather_logical(&ctx, 1);
        (ctx.rank() == 0).then_some((ag, tau, report))
    });
    results.into_iter().flatten().next().unwrap()
}

fn residual_of(n: usize, seed: u64, ag: &ft_dense::Matrix, tau: &[f64]) -> f64 {
    let a0 = uniform_indexed_matrix(n, n, seed);
    let h = extract_h(ag);
    let qm = orghr(ag, tau);
    hessenberg_residual(&a0, &h, &qm)
}

/// The original storm: one scripted failure per panel scope with rotating
/// victims and phases, plus one simultaneous two-victim event in distinct
/// process rows (the paper's §1 fault model at its limit).
#[test]
fn scripted_storm_one_failure_per_scope() {
    let (n, nb, p, q) = (120usize, 4usize, 2usize, 3usize);
    let seed = 13;
    let panels = {
        let (mut c, mut k) = (0, 0);
        while k + 2 < n {
            k += nb.min(n - 2 - k);
            c += 1;
        }
        c
    };

    let phases = [
        Phase::AfterPanel,
        Phase::AfterRightUpdate,
        Phase::AfterLeftUpdate,
        Phase::BeforePanel,
    ];
    let mut failures = Vec::new();
    let mut i = 0;
    let mut panel = 1;
    while panel < panels {
        failures.push(PlannedFailure {
            victim: (i * 2 + 1) % (p * q),
            point: failpoint(panel, phases[i % phases.len()]),
        });
        i += 1;
        panel += q;
    }
    // Simultaneous double failure: ranks 0 and 5 sit in process rows 0 and 1.
    failures.push(PlannedFailure { victim: 0, point: failpoint(2, Phase::AfterRightUpdate) });
    failures.push(PlannedFailure { victim: 5, point: failpoint(2, Phase::AfterRightUpdate) });
    let total_victims = failures.len();
    assert!(total_victims >= 12, "storm too small: {total_victims}");

    let (ag, tau, report) = storm_run(n, nb, p, q, seed, Variant::NonDelayed, FaultScript::new(failures));
    assert_eq!(report.victims.len(), total_victims);
    let r = residual_of(n, seed, &ag, &tau);
    assert!(r < 3.0, "residual after the storm: {r}");
}

/// A chaos kill at an arbitrary, un-scripted message-op boundary: the run
/// aborts mid-phase, rolls back to the last committed boundary, recovers,
/// and still produces a backward-stable factorization.
#[test]
fn chaos_kill_at_unscripted_boundary_recovers() {
    let (n, nb, p, q) = (48usize, 4usize, 2usize, 2usize);
    let seed = 29;
    // A fault-free rank performs 612 message ops at this size (see
    // `Ctx::chaos_ops`); these land early, before the middle and past it.
    for (victim, op) in [(2usize, 137u64), (1, 260), (3, 350)] {
        let (ag, tau, report) = storm_run(n, nb, p, q, seed, Variant::NonDelayed, faults(&format!("0:at={victim}@{op}"), p * q));
        assert!(report.chaos_aborts > 0, "kill at op {op} never fired");
        assert_eq!(report.recoveries, 1, "victim {victim} op {op}");
        assert_eq!(report.victims, vec![victim]);
        let r = residual_of(n, seed, &ag, &tau);
        assert!(r < 3.0, "victim {victim} op {op}: residual {r}");
    }
}

/// Chaos under the Delayed (Algorithm 3) variant too — the rollback images
/// must capture the deferred-checksum bookkeeping correctly.
#[test]
fn chaos_kill_delayed_variant() {
    let (n, nb, p, q) = (48usize, 4usize, 2usize, 2usize);
    let seed = 31;
    let (ag, tau, report) = storm_run(n, nb, p, q, seed, Variant::Delayed, faults("0:at=0@333", p * q));
    assert!(report.chaos_aborts > 0);
    let r = residual_of(n, seed, &ag, &tau);
    assert!(r < 3.0, "residual {r}");
}

/// Two sequential chaos kills in *different* scopes under Delayed: the
/// second recovery reads checksum copies the first recovery's catch-up has
/// touched. Regression test — the catch-up's left updates used to mix the
/// first victim's garbage blocks into the survivors' blocks of every
/// checksum copy on the victim's process column, which nothing read until
/// a later recovery solved Area 1/2 from them (residual blew up to ~1e13).
#[test]
fn chaos_delayed_double_kill_across_scopes() {
    let (n, nb, p, q) = (96usize, 8usize, 2usize, 3usize);
    let seed = 2013;
    let (ag, tau, report) = storm_run(n, nb, p, q, seed, Variant::Delayed, faults("0:at=1@63,at=3@304", p * q));
    assert!(report.chaos_aborts >= 2, "both kills must fire: {} aborts", report.chaos_aborts);
    assert_eq!(report.recoveries, 2);
    let r = residual_of(n, seed, &ag, &tau);
    assert!(r < 3.0, "residual {r}");
}

/// The root-cause assertion behind the double-kill regression: after a
/// Delayed recovery, Theorem 1 must still hold for every *future* group's
/// checksum copies at the next scope boundaries — those copies are exactly
/// what a subsequent recovery would solve from.
#[test]
fn delayed_recovery_preserves_future_checksums() {
    let (n, nb, p, q) = (96usize, 8usize, 2usize, 3usize);
    run_spmd(p, q, FaultScript::one(1, failpoint(1, Phase::BeforePanel)), move |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(2013, i, j));
        let mut tau = vec![0.0; n - 1];
        ft_pdgehrd_full(
            &ctx,
            &mut enc,
            Variant::Delayed,
            &mut tau,
            ScrubPolicy::disabled(),
            &mut |ctx, enc, panel, phase| {
                // Delayed defers checksum updates mid-scope, so the invariant
                // is only owed at scope-opening boundaries.
                if phase == Phase::BeforePanel && panel % ctx.npcol() == 0 {
                    let s = panel / ctx.npcol();
                    assert_theorem1(ctx, enc, s, 1e-9, "hessenberg", &format!("scope {s} open (post-recovery)"));
                }
            },
        )
        .expect("within the fault model");
    });
}

/// A failure that strikes while a previous failure is being repaired: the
/// recovery aborts, the survivors re-agree on the union victim set, and the
/// (re-entrant) recovery completes from the same boundary image.
#[test]
fn chaos_failure_during_recovery_is_recovered() {
    let (n, nb, p, q) = (48usize, 4usize, 2usize, 2usize);
    let seed = 37;
    // Rank 1 dies mid-run; rank 2 (different process row) dies at the 2nd
    // message op of its §5.3 repair in the resulting recovery round — while
    // rank 1's repair is still in flight. The round opens with the rollback's
    // boundary alignment, three ops on rank 2, so that is op 4 of the round
    // (`Ctx::chaos_ops` at the round's start, after the alignment and after
    // the repair: 295, 298, 300). Rank 2 has a second repair op only when a
    // scope is open at the rollback boundary, so rank 1 must die inside the
    // *second* panel of a scope: of its 612 ops (fault free), 266..=312 are
    // panel 5's factorization, and 290 sits in their middle. (Op 250 was
    // such a place before the Hessenberg panel block was replicated; every
    // process column exchanges the column collectives since, and 250 is
    // inside panel 4, which opens its scope.)
    let (ag, tau, report) = storm_run(n, nb, p, q, seed, Variant::NonDelayed, faults("0:at=1@290,at=2@r1:4", p * q));
    assert!(report.chaos_aborts >= 2, "nested abort never happened: {} aborts", report.chaos_aborts);
    assert!(report.victims.contains(&1) && report.victims.contains(&2), "victims: {:?}", report.victims);
    let r = residual_of(n, seed, &ag, &tau);
    assert!(r < 3.0, "residual {r}");
}

/// One leg of the seeded chaos table at N = 48, nb = 4: rank 0's recovered
/// residual, or the typed error — which must be identical on every rank.
/// Panics in any rank propagate out of `run_spmd`.
fn table_leg(p: usize, q: usize, red: Redundancy, qr: bool, variant: Variant, script: FaultScript) -> Result<f64, FtError> {
    let (n, nb, seed) = (48, 4, 41);
    let out = run_spmd(p, q, script, move |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, n, nb, red, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n];
        let solved = if qr {
            ft_pdgeqrf(&ctx, &mut enc, variant, &mut tau)
        } else {
            ft_pdgehrd(&ctx, &mut enc, variant, &mut tau)
        };
        solved.map(|_| (enc.gather_logical(&ctx, 1), tau))
    });
    if let Some(Err(e)) = out.iter().find(|r| r.is_err()) {
        for r in &out {
            assert_eq!(r.as_ref().err(), Some(e), "ranks diverge on the verdict");
        }
        return Err(e.clone());
    }
    let (ag, tau) = out.into_iter().next().unwrap().unwrap();
    let a0 = uniform_indexed_matrix(n, n, seed);
    Ok(if qr {
        qr_residual(&a0, &orgqr(&ag, &tau), &extract_r(&ag))
    } else {
        residual_of(n, seed, &ag, &tau[..n - 1])
    })
}

/// The seeded multi-kill chaos table — the CI soak's in-process twin: both
/// solvers, 2×2 `Single` and 1×4 `Coded(2)`, both variants, eight seeds,
/// one to three kills. A case's kills draw their ops from its fault-free
/// run's clock, past the first tenth (`Ctx::chaos_ops`: 612 ops a rank for
/// Hessenberg at 2×2, 78 for QR at 1×4). Every leg recovers to a residual
/// below 3 or returns one typed error, identical on every rank; nothing
/// panics or hangs.
///
/// One more leg pins the places seed `11:kill=3` strikes for Hessenberg,
/// Algorithm 3, 2×2 (drawn from the CLI's window [50, 416) as ops 197, 221
/// and 315; the recovery rounds' alignment ops move them to 197, 227 and
/// 321): rank 0 dies, and dies again three ops before the end of its
/// recovery, after ranks 1 and 3 have finished theirs (they count that
/// recovery, ranks 0 and 2 do not); rank 2 dies after the second recovery.
/// The recovery that ranks 1 and 3 finished must not leave them on another
/// image than 0 and 2. The leg takes 0.11 s in a debug build (the whole
/// table 19 s, most of it agreement waits).
#[test]
fn chaos_seeded_storm_recovers() {
    let never = |world: usize| FaultScript::parse(&format!("0:at=0@{}", u64::MAX), world, 0..1).unwrap();
    let mut recovered = 0;
    for qr in [false, true] {
        for (p, q, red) in [(2, 2, Redundancy::Single), (1, 4, Redundancy::Coded(2))] {
            for variant in [Variant::NonDelayed, Variant::Delayed] {
                let ops = run_spmd(p, q, never(p * q), move |ctx| {
                    let mut enc = Encoded::with_redundancy(&ctx, 48, 4, red, |i, j| uniform_entry(41, i, j));
                    let mut tau = vec![0.0; 48];
                    let solved = if qr {
                        ft_pdgeqrf(&ctx, &mut enc, variant, &mut tau)
                    } else {
                        ft_pdgehrd(&ctx, &mut enc, variant, &mut tau)
                    };
                    solved.expect("fault-free");
                    ctx.chaos_ops()
                });
                let ops = ops.into_iter().max().unwrap();
                for seed in [1, 2, 3, 5, 8, 13, 21, 34] {
                    for kills in 1..=3 {
                        let spec = format!("{seed}:kill={kills}");
                        let at = format!("{} {p}x{q} {red:?} {variant:?} {spec}", if qr { "qr" } else { "hessenberg" });
                        let script = FaultScript::parse(&spec, p * q, ops / 10..ops).expect(&spec);
                        match table_leg(p, q, red, qr, variant, script) {
                            Ok(r) => {
                                assert!(r < 3.0, "{at}: residual {r}");
                                recovered += 1;
                            }
                            Err(FtError::ExceededCodeDistance { .. }) => {}
                            Err(e) => panic!("{at}: {e}"),
                        }
                    }
                }
            }
        }
    }
    assert!(recovered >= 150, "only {recovered} of 192 legs recovered (178 when written)");

    let script = FaultScript::parse("0:at=0@197,at=0@227,at=2@321", 4, 0..1).unwrap();
    let r = table_leg(2, 2, Redundancy::Single, false, Variant::Delayed, script).expect("recovers");
    assert!(r < 3.0, "residual {r}");
}

/// `Coded(f)` under Algorithm 3 with victims in two process rows and two
/// process columns, scripted at panel 1's start. The recovery's checksum
/// catch-up reduces over every process row of each checksum column, so it
/// spreads each victim's wiped blocks into every row's copies on that
/// victim's column; Areas 1/2 may solve only from copies on the other
/// columns. On 2×4 `Coded(2)`, {0, 5} (columns 0 and 1) leaves enough of
/// them and recovers, for both solvers (it read r∞ ≈ 1e14 when every row
/// still solved from the spread copies). 2×2 `Coded(1)` {0, 3} and 2×4
/// `Coded(2)` {0, 1, 6, 7} spread into every column: every rank returns the
/// one typed error, named at the agreed boundary.
#[test]
fn coded_alg3_victims_in_two_rows_recover_or_give_one_typed_error() {
    let script = |victims: &[usize]| {
        let point = failpoint(1, Phase::BeforePanel);
        FaultScript::new(victims.iter().map(|&victim| PlannedFailure { victim, point }).collect())
    };
    for qr in [false, true] {
        let solver = if qr { "qr" } else { "hessenberg" };
        let r = table_leg(2, 4, Redundancy::Coded(2), qr, Variant::Delayed, script(&[0, 5]))
            .unwrap_or_else(|e| panic!("{solver}: {{0, 5}} on 2x4 is within the code: {e}"));
        assert!(r < 3.0, "{solver}: residual {r}");
        for (p, q, red, victims) in [
            (2, 2, Redundancy::Coded(1), vec![0, 3]),
            (2, 4, Redundancy::Coded(2), vec![0, 1, 6, 7]),
        ] {
            match table_leg(p, q, red, qr, Variant::Delayed, script(&victims)) {
                Err(FtError::ExceededCodeDistance { victims: got, panel, phase, cap, .. }) => {
                    assert_eq!(
                        (got, panel, phase, cap),
                        (victims, 1, Phase::BeforePanel, ToleranceCap::CatchUpSpread),
                        "{solver} {p}x{q}"
                    );
                }
                other => panic!("{solver} {p}x{q} {victims:?}: expected the typed error, got {other:?}"),
            }
        }
    }
}

/// Beyond-tolerance chaos: two kills in the same process row. Every rank —
/// survivors and replacements alike — must return the *identical* typed
/// error, with no panic anywhere.
#[test]
fn chaos_beyond_tolerance_identical_typed_error() {
    let (n, nb, p, q) = (48usize, 4usize, 2usize, 2usize);
    let seed = 43;
    // Ranks 0 and 1 share process row 0 on a 2×2 grid; Single redundancy
    // tolerates one failure per row. Rank 0 dies *inside* the recovery of
    // rank 1, so both deaths land in the same agreement round — two kills
    // at independent op counts could otherwise resolve as two sequential
    // (recoverable) single failures depending on thread timing.
    let errs = run_spmd(p, q, faults("0:at=1@250,at=0@r1:0", p * q), move |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n - 1];
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

/// Chaos layered on top of a scripted failure in a different panel: both
/// events recovered, protection re-armed between them.
#[test]
fn chaos_and_scripted_failures_compose() {
    let (n, nb, p, q) = (48usize, 4usize, 2usize, 2usize);
    let seed = 47;
    // ONE script carrying both fault kinds.
    let script =
        faults("0:at=1@300", p * q).with_failures(vec![PlannedFailure { victim: 3, point: failpoint(1, Phase::AfterPanel) }]);
    let (ag, tau, report) = storm_run(n, nb, p, q, seed, Variant::NonDelayed, script);
    assert!(report.recoveries >= 2, "recoveries: {}", report.recoveries);
    assert!(report.chaos_aborts > 0);
    let r = residual_of(n, seed, &ag, &tau);
    assert!(r < 3.0, "residual {r}");
}

/// A scripted failure, then a kill of a rank in the same process row during
/// the very next phase: two sequential single failures, not one double
/// failure. Committing the repaired boundary clears the scripted victim
/// from the detector round and captures the repaired state, so the kill's
/// agreement names its own victim only and rolls back past the repair, not
/// to before it.
#[test]
fn kill_right_after_a_scripted_recovery_is_a_second_failure() {
    let (n, nb, p, q) = (48usize, 4usize, 2usize, 2usize);
    let seed = 47;
    // Ranks 2 and 3 share process row 1. With rank 3's failure repaired at
    // panel 1's right-update boundary, rank 2 counts ops 125 and 126 in
    // panel 1's left update (calibrated with the hook and `Ctx::chaos_ops`).
    let script = faults("0:at=2@126", p * q)
        .with_failures(vec![PlannedFailure { victim: 3, point: failpoint(1, Phase::AfterRightUpdate) }]);
    let (ag, tau, report) = storm_run(n, nb, p, q, seed, Variant::NonDelayed, script);
    assert_eq!(report.chaos_aborts, 1, "the kill must fire once, after the scripted recovery");
    assert_eq!(report.recoveries, 2);
    assert_eq!(report.victims, vec![3, 2]);
    let r = residual_of(n, seed, &ag, &tau);
    assert!(r < 3.0, "residual {r}");
}

/// A kill, then a kill of a rank in the same process row right after the
/// first one's rollback recovery has committed: two sequential single
/// failures, not one double failure — as after a scripted recovery. The
/// rollback rewinds the detector round's commit mark to the boundary it
/// restores, so the recovery's commit of that boundary ends the round that
/// held the first victim, and the second kill's agreement names its own.
#[test]
fn kill_right_after_a_rollback_recovery_is_a_second_failure() {
    let (n, nb, p, q, seed) = (48usize, 4usize, 2usize, 2usize, 47u64);
    // Ranks 2 and 3 share process row 1; every boundary each rank passes,
    // with its op clock.
    let run = |spec: &str| {
        run_spmd(p, q, faults(spec, p * q), move |ctx| {
            let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(seed, i, j));
            let mut tau = vec![0.0; n - 1];
            let mut seen = Vec::new();
            let mut hook =
                |ctx: &ft_runtime::Ctx, _: &mut Encoded, panel: usize, phase: Phase| seen.push((panel, phase, ctx.chaos_ops()));
            let out = ft_pdgehrd_full(&ctx, &mut enc, Variant::NonDelayed, &mut tau, ScrubPolicy::disabled(), &mut hook);
            let ag = enc.gather_logical(&ctx, 1);
            (out, ag, tau, seen)
        })
    };
    let op_at = |seen: &[(usize, Phase, u64)], panel: usize, phase: Phase| {
        seen.iter()
            .find(|&&(pn, ph, _)| (pn, ph) == (panel, phase))
            .expect("boundary seen")
            .2
    };
    // Rank 3 dies halfway through panel 5's factorization; the rollback
    // recovers it at panel 5's start and factors the panel again. Rank 2
    // dies at its first op of that re-run, right after the recovery
    // committed and before any rank passes another boundary.
    let clean = run(&format!("0:at=3@{}", u64::MAX));
    let panel_ops = |rank: usize| {
        let seen = &clean[rank].3;
        (op_at(seen, 5, Phase::BeforePanel), op_at(seen, 5, Phase::AfterPanel))
    };
    let ((from, to), (from2, to2)) = (panel_ops(3), panel_ops(2));
    let first = format!("0:at=3@{}", (from + to) / 2);
    let probe = run(&first);
    let second = format!("{first},at=2@{}", op_at(&probe[2].3, 5, Phase::AfterPanel) - (to2 - from2));
    let runs = run(&second);
    for (rank, (out, ..)) in runs.iter().enumerate() {
        let report = out.as_ref().expect("two single failures are within the fault model");
        assert_eq!((report.chaos_aborts, report.recoveries), (2, 2), "{second}: rank {rank}");
        assert_eq!(report.victims, vec![3, 2], "{second}: rank {rank}");
    }
    let (_, ag, tau, _) = &runs[0];
    let r = residual_of(n, seed, ag, tau);
    assert!(r < 3.0, "residual {r}");
}

/// Determinism: the same chaos seed twice gives bitwise-identical results
/// and identical reports — the property the CI soak relies on.
#[test]
fn chaos_runs_are_deterministic() {
    let (n, nb, p, q) = (48usize, 4usize, 2usize, 2usize);
    let seed = 53;
    let run = || storm_run(n, nb, p, q, seed, Variant::NonDelayed, faults("0:at=2@700", p * q));
    let (a1, t1, r1) = run();
    let (a2, t2, r2) = run();
    assert_eq!(a1.max_abs_diff(&a2), 0.0);
    assert_eq!(t1, t2);
    assert_eq!(r1.recoveries, r2.recoveries);
    assert_eq!(r1.victims, r2.victims);
    assert_eq!(r1.chaos_aborts, r2.chaos_aborts);
}

/// Scripted beyond-tolerance failures still work through `run_spmd` (no
/// chaos armed at all): same typed error, every rank.
#[test]
fn scripted_storm_beyond_tolerance_typed_error() {
    let script = FaultScript::new(vec![
        PlannedFailure { victim: 0, point: failpoint(2, Phase::AfterRightUpdate) },
        PlannedFailure { victim: 1, point: failpoint(2, Phase::AfterRightUpdate) },
    ]);
    let errs = run_spmd(2, 2, script, |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, 24, 2, |i, j| uniform_entry(59, i, j));
        let mut tau = vec![0.0; 23];
        ft_pdgehrd(&ctx, &mut enc, Variant::NonDelayed, &mut tau).unwrap_err()
    });
    for e in &errs {
        assert_eq!(e, &errs[0]);
        let FtError::ExceededCodeDistance { victims, .. } = e else {
            panic!("expected ExceededCodeDistance, got {e:?}");
        };
        assert_eq!(victims, &[0, 1]);
    }
}
