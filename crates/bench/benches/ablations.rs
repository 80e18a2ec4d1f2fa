//! Ablations beyond the paper's figures (DESIGN.md §4), every wall a series
//! over solves: the repo benchmark's legs (`e2e::run`, `run_leg`) or the
//! drivers' own timers (`FtReport`, `CrReport`).
//!
//! 1. nb ∈ {16, 32, 48, 64} at `hess_dense`'s shape (1×2, N = 1024, mpsc;
//!    nb = 48 leaves N ragged, which the encoder pads);
//! 2. grid shape at 16 ranks: the §6 model puts the overhead at 1/Q;
//! 3. Algorithm 2 vs 3 is `vs_alg2` in `BENCH_fig7.json` (the `paper` bench);
//! 4. recovery cost by failure time and phase;
//! 5. ABFT vs the §2 Checkpoint/Restart baseline under Poisson failures;
//! 6. redundancy levels, fault-free: `Single` against `Coded(2)`;
//! 7. blocked vs non-blocked reduction (§3.3/§3.4).
//!
//! Writes `BENCH_ablations.json` at the repo root; `FT_BENCH_SMOKE=1` runs
//! two solves a cell and writes under `target/`.

mod common;

use common::{hess, section, series};
use ft_benchsuite::e2e::RunCfg;
use ft_benchsuite::json::Value;
use ft_benchsuite::samples::Samples;
use ft_benchsuite::spmd::{run_leg, Leg, LegOpts, Shape};
use ft_dense::{counters, gen::uniform_entry};
use ft_hess::{cr_pdgehrd, failpoint, ft_pdgehrd, Encoded, FtReport, Phase, Redundancy, Variant};
use ft_pblas::{Desc, DistMatrix};
use ft_runtime::{poisson_failures, run_spmd, Ctx, FaultScript, PlannedFailure};

const SEED: u64 = 1;
/// Measuring seconds of each `e2e::run`, and solves per driver-timed cell.
const SECONDS: f64 = 10.0;
const REPS: usize = 5;
/// Sections 4–6 run at this shape.
const GRID16: Shape = hess(4, 4, 768, 16);

/// `e2e::run` on `shape`: plain and ft solve seconds and the paired overhead.
fn e2e_row(shape: Shape, cfg: &RunCfg) -> Value {
    let report = common::e2e(shape, cfg);
    report.print();
    assert!(report.correct(), "{}x{} nb={}: {:?}", shape.p, shape.q, shape.nb, report.problems);
    let metric = |name| report.metrics.iter().find(|m| m.name == name).and_then(|m| m.series.as_ref());
    let legs = ["plain_solve_s", "ft_solve_s", "ft_overhead"].map(|name| (name, series(metric(name).expect("a timed leg"))));
    let shape = Value::str(format!("{}x{} nb={}", shape.p, shape.q, shape.nb));
    Value::obj([("shape", shape)].into_iter().chain(legs))
}

/// Rank 0's result of `reps` solves of `body` at `GRID16` under `script`,
/// and the flops of the last.
fn grid16<T: Send>(reps: usize, script: &FaultScript, body: impl Fn(&Ctx) -> T + Sync) -> (Vec<T>, u64) {
    let solve = || {
        counters::reset_flops();
        run_spmd(GRID16.p, GRID16.q, script.clone(), |ctx| body(&ctx)).swap_remove(0)
    };
    ((0..reps).map(|_| solve()).collect(), counters::flops())
}

/// One Algorithm-2 solve at `GRID16` with `redundancy`.
fn ft(redundancy: Redundancy) -> impl Fn(&Ctx) -> FtReport + Sync {
    move |ctx| {
        let n = GRID16.n;
        let mut enc = Encoded::with_redundancy(ctx, n, GRID16.nb, redundancy, |i, j| uniform_entry(SEED, i, j));
        ft_pdgehrd(ctx, &mut enc, Variant::NonDelayed, &mut vec![0.0; n - 1]).expect("within the fault model")
    }
}

/// The series of one timer over a cell's solves.
fn secs<T>(runs: &[T], timer: impl Fn(&T) -> f64) -> Value {
    series(&Samples::new(runs.iter().map(timer).collect()))
}

fn main() {
    let smoke = common::smoke();
    let reps = if smoke { 2 } else { REPS };
    let cfg = RunCfg { seed: SEED, seconds: SECONDS, smoke, daemon: None };
    let nb_sweep = [16, 32, 48, 64].map(|nb| e2e_row(hess(1, 2, 1024, nb), &cfg));
    let grid_shape = [(8, 2), (4, 4), (2, 8)].map(|(p, q)| e2e_row(hess(p, q, 768, 16), &cfg));

    let (Shape { n, nb, .. }, panels) = (GRID16, GRID16.panels());
    let mut recovery_cost = Vec::new();
    for (when, panel) in [("early", 1), ("middle", panels / 2), ("late", panels - 2)] {
        for phase in [Phase::AfterPanel, Phase::AfterRightUpdate, Phase::AfterLeftUpdate] {
            let (runs, _) = grid16(reps, &FaultScript::one(5, failpoint(panel, phase)), ft(Redundancy::Single));
            assert!(runs.iter().all(|r| r.recoveries == 1), "{when} {phase:?}");
            recovery_cost.push(Value::obj([
                ("when", Value::str(format!("{when}: panel {panel}, {phase:?}"))),
                ("total_s", secs(&runs, |r| r.total_secs)),
                ("recovery_s", secs(&runs, |r| r.recovery_secs)),
            ]));
        }
    }

    // The same Poisson schedules drive both; C/R checkpoints every 8 panels.
    let abft_vs_cr = [0usize, 1, 3, 6].map(|expected| {
        let mtti = panels as f64 / expected as f64;
        let failures = (expected > 0).then(|| poisson_failures(panels as u64, mtti, GRID16.ranks(), 99 + expected as u64));
        let at_left_update = |f: PlannedFailure| PlannedFailure {
            point: failpoint(f.point as usize, Phase::AfterLeftUpdate),
            ..f
        };
        let script = FaultScript::new(failures.unwrap_or_default().into_iter().map(at_left_update).collect());
        let (abft, _) = grid16(reps, &script, ft(Redundancy::Single));
        let (cr, _) = grid16(reps, &script, |ctx| {
            let mut a = DistMatrix::from_global_fn(ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(SEED, i, j));
            cr_pdgehrd(ctx, &mut a, 8, &mut vec![0.0; n - 1])
        });
        let count = |c: usize| Value::Num(c as f64);
        Value::obj([
            ("expected", count(expected)),
            ("failures", count(script.failures().len())),
            ("abft_total_s", secs(&abft, |r| r.total_secs)),
            ("abft_recoveries", count(abft[0].recoveries)),
            ("cr_total_s", secs(&cr, |r| r.total_secs)),
            ("cr_rollbacks", count(cr[0].rollbacks)),
            ("cr_lost_panels", count(cr[0].lost_panels)),
        ])
    });

    let plain_flops = run_leg(&GRID16, Leg::Plain, SEED, LegOpts::TIMED).flops as f64;
    let redundancy = [("single", Redundancy::Single), ("coded2", Redundancy::Coded(2))].map(|(name, red)| {
        let (runs, flops) = grid16(reps, &FaultScript::none(), ft(red));
        let penalty = Value::Num((flops as f64 / plain_flops - 1.0) * 100.0);
        Value::obj([
            ("scheme", Value::str(name)),
            ("total_s", secs(&runs, |r| r.total_secs)),
            ("flop_penalty_pct", penalty),
        ])
    });

    let blocked = [1, 4, 16, 32].map(|nb| {
        let runs: Vec<_> = (0..reps)
            .map(|_| run_leg(&hess(2, 2, 256, nb), Leg::Plain, SEED, LegOpts::TIMED))
            .collect();
        Value::obj([("nb", Value::Num(nb as f64)), ("plain_solve_s", secs(&runs, |r| r.solve_s))])
    });

    let doc = Value::obj([
        ("bench", Value::str("ablations")),
        ("machine", ft_benchsuite::layers::machine_json()),
        ("seed", Value::Num(SEED as f64)),
        ("e2e_seconds", Value::Num(SECONDS)),
        ("solves_per_cell", Value::Num(reps as f64)),
        ("smoke", Value::Bool(smoke)),
        ("walls", Value::str("e2e rows corrected to the speed probe's reference speed; others as measured")),
        ("nb_sweep", section("1: blocking factor, 1x2 N = 1024 (hess_dense)", nb_sweep.to_vec())),
        ("grid_shape", section("2: grid shape at 16 ranks, N = 768", grid_shape.to_vec())),
        ("alg2_vs_alg3", Value::str("vs_alg2 in BENCH_fig7.json")),
        ("recovery_cost", section("4: recovery cost, 4x4 N = 768, victim rank 5", recovery_cost)),
        ("abft_vs_cr", section("5: ABFT vs Checkpoint/Restart, 4x4 N = 768", abft_vs_cr.to_vec())),
        ("redundancy", section("6: redundancy levels, fault-free, 4x4 N = 768", redundancy.to_vec())),
        ("blocked", section("7: blocked vs non-blocked plain reduction, 2x2 N = 256", blocked.to_vec())),
    ]);
    common::write_artifact("BENCH_ablations.json", &doc, smoke);
}
