//! The paper's evaluation (§7) on the repo benchmark's own legs: Figures
//! 6(a), 6(b) and 7, Table 1 and the §6 flop model, from one grid sweep.
//!
//! On every g×g grid of the sweep (N = 192·g, nb = 16, mpsc) the bench runs
//! `ft_benchsuite::e2e::run`. Its verified warm-up checks that the ft factor
//! is bitwise the plain one, that the recover leg recovers exactly once and
//! that every residual is below 3; its reps time plain, Algorithm 2 (Figure
//! 6(a)), Algorithm 3 (Figure 7), and Algorithm 2 with rank 1 failing after
//! the middle panel's right update (Figure 6(b)), and report each leg's
//! solve seconds as median and quartiles, corrected to the speed probe's
//! reference speed (`benchsuite/src/calib.rs`). Table 1's residuals come
//! from verified `run_leg` calls, the flop counts from unverified ones (a
//! verified leg's counters include the residual's own GEMMs).
//!
//! Writes `BENCH_{fig6a,fig6b,fig7,table1}.json` at the repo root;
//! `FT_BENCH_SMOKE=1` runs the three smallest grids (up to 16 ranks) at
//! their real N for two reps each and writes under `target/`. Exits 1 on a
//! failed check or operation, a residual ≥ 3, or an Algorithm-2 flop
//! penalty that does not fall from each grid to the next.

mod common;

use common::series;
use ft_benchsuite::e2e::RunCfg;
use ft_benchsuite::json::Value;
use ft_benchsuite::report::Report;
use ft_benchsuite::samples::Samples;
use ft_benchsuite::serve::RESIDUAL_LIMIT;
use ft_benchsuite::spmd::{run_leg, Leg, LegOpts, Shape};
use ft_hess::{asymptotic_overhead, flop_model};

/// The sweep's grid sides, as in the paper's figures.
const GRIDS: [usize; 5] = [2, 3, 4, 6, 8];
const SEED: u64 = 1;
/// Measuring seconds per grid of a full run (three reps at the least).
const SECONDS_PER_GRID: f64 = 30.0;
/// The report's solve metric of each leg, indexed like `Leg::TIMED`.
const SOLVE: [&str; 4] = ["plain_solve_s", "ft_solve_s", "ft_delayed_solve_s", "recover_solve_s"];
const PLAIN: usize = 0;
const FT: usize = 1;
const DELAYED: usize = 2;
const RECOVER: usize = 3;

/// One grid of the sweep, measured.
struct Measured {
    shape: Shape,
    report: Report,
    /// Flops of one unverified solve, indexed like `Leg::TIMED`.
    flops: [u64; 4],
    /// `r∞` of the plain, ft and recover legs.
    residuals: [f64; 3],
}

impl Measured {
    fn grid(&self) -> String {
        format!("{}x{}", self.shape.p, self.shape.q)
    }

    fn series(&self, metric: &str) -> &Samples {
        let m = self.report.metrics.iter().find(|m| m.name == metric);
        m.and_then(|m| m.series.as_ref()).expect("e2e reports a series for every leg")
    }

    fn flop_penalty_pct(&self, leg: usize) -> f64 {
        (self.flops[leg] as f64 / self.flops[PLAIN] as f64 - 1.0) * 100.0
    }
}

fn measure(g: usize, cfg: &RunCfg) -> Measured {
    let shape = common::hess(g, g, 192 * g, 16);
    let mut report = common::e2e(shape, cfg);
    let mut leg_run = |leg: Leg, verify: bool| {
        let run = run_leg(&shape, leg, cfg.seed, LegOpts { verify, traced: None });
        if !run.ok(leg) {
            report
                .problems
                .push(format!("{leg:?}: driver report {:?}", run.ranks[0].report));
        }
        run
    };
    let flops = Leg::TIMED.map(|leg| leg_run(leg, false).flops);
    let residuals = [Leg::Plain, Leg::Ft, Leg::Recover].map(|leg| leg_run(leg, true).residual().expect("verification was on"));
    for r in residuals.iter().filter(|r| r.is_nan() || **r >= RESIDUAL_LIMIT) {
        report
            .problems
            .push(format!("residual r_inf = {r} is not below {RESIDUAL_LIMIT}"));
    }
    report.print();
    Measured { shape, report, flops, residuals }
}

/// One figure row: `leg` against plain — walls, their ratio with the widest
/// spread the two IQRs allow, flops — then `extra`.
fn row(m: &Measured, leg: usize, extra: Vec<(&str, Value)>) -> Value {
    let (plain, timed) = (m.series(SOLVE[PLAIN]), m.series(SOLVE[leg]));
    let iqr = [timed.q1() / plain.q3(), timed.q3() / plain.q1()].map(Value::Num);
    let mut fields = vec![
        ("grid", Value::str(m.grid())),
        ("n", Value::Num(m.shape.n as f64)),
        ("nb", Value::Num(m.shape.nb as f64)),
        (SOLVE[PLAIN], series(plain)),
        (SOLVE[leg], series(timed)),
        ("ratio", Value::Num(timed.median() / plain.median())),
        ("ratio_iqr", Value::Arr(iqr.to_vec())),
        ("flops_plain", Value::Num(m.flops[PLAIN] as f64)),
        ("flops", Value::Num(m.flops[leg] as f64)),
        ("flop_penalty_pct", Value::Num(m.flop_penalty_pct(leg))),
    ];
    fields.extend(extra);
    fields.push(("notes", Value::Arr(m.report.notes.iter().map(Value::str).collect())));
    Value::obj(fields)
}

fn main() {
    let smoke = common::smoke();
    let cfg = RunCfg { seed: SEED, seconds: SECONDS_PER_GRID, smoke, daemon: None };
    let grids = if smoke { &GRIDS[..3] } else { &GRIDS[..] };
    let sweep: Vec<Measured> = grids.iter().map(|&g| measure(g, &cfg)).collect();

    let rows = |leg, extra: &dyn Fn(&Measured) -> Vec<(&'static str, Value)>| -> Vec<Value> {
        sweep.iter().map(|m| row(m, leg, extra(m))).collect()
    };
    let fig6a = rows(FT, &|m| {
        vec![
            ("ft_overhead", series(m.series("ft_overhead"))),
            ("model_flop_pct", Value::Num(flop_model(m.shape.n, m.shape.nb, m.shape.q).overhead_ratio() * 100.0)),
            ("asymptote_7_5q_pct", Value::Num(asymptotic_overhead(m.shape.q) * 100.0)),
        ]
    });
    let fig7 = rows(DELAYED, &|m| {
        vec![("vs_alg2", Value::Num(m.series(SOLVE[DELAYED]).median() / m.series(SOLVE[FT]).median()))]
    });
    let table1 = rows(RECOVER, &|m| {
        let [plain, ft, recover] = m.residuals.map(Value::Num);
        vec![("residual_plain", plain), ("residual_ft", ft), ("residual_recover", recover)]
    });
    let failure = "Algorithm 2, rank 1 failing after the middle panel's right update, one recovery, against plain";
    for (bench, what, data) in [
        ("fig6a", "Algorithm 2 (NonDelayed, Single), no failure, against plain", fig6a),
        ("fig6b", failure, rows(RECOVER, &|_| vec![])),
        ("fig7", "Algorithm 3 (Delayed, Single), no failure, against plain", fig7),
        ("table1", failure, table1),
    ] {
        let doc = Value::obj([
            ("bench", Value::str(bench)),
            ("rows_are", Value::str(what)),
            ("machine", ft_benchsuite::layers::machine_json()),
            ("seed", Value::Num(SEED as f64)),
            ("seconds_per_grid", Value::Num(cfg.seconds)),
            ("smoke", Value::Bool(smoke)),
            ("walls", Value::str("solve seconds at the speed probe's reference speed (see notes)")),
            ("rows", common::section(&format!("{bench}: {what}"), data)),
        ]);
        common::write_artifact(&format!("BENCH_{bench}.json"), &doc, smoke);
    }

    // Each report has printed its failed checks above.
    let incorrect = sweep.iter().filter(|m| !m.report.correct());
    let mut failed: Vec<String> = incorrect
        .map(|m| format!("{}: a check or an operation failed", m.grid()))
        .collect();
    for w in sweep.windows(2) {
        let (a, b, g0, g1) = (w[0].flop_penalty_pct(FT), w[1].flop_penalty_pct(FT), w[0].grid(), w[1].grid());
        if b >= a {
            failed.push(format!("the flop penalty does not fall from {g0} to {g1}: {a:.2}% -> {b:.2}%"));
        }
    }
    for f in &failed {
        eprintln!("FAIL: {f}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
