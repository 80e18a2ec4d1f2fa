//! The end-to-end run of one workload: tracing off, library drivers, raw
//! transports, the real daemon binary.
//!
//! A rep runs the four legs back to back (plain, ft, delayed, recover) so
//! that drift on a shared box hits all of them alike, with a reading of the
//! speed probe before each; one untimed rep first warms caches up and
//! carries the expensive checks; reps then repeat until the run's seconds
//! are used. Every timed solve is still checked: its factor must hash, bit
//! for bit, to the verified warm-up factor of its leg (the program is
//! deterministic), its report must be `Ok` with the expected recovery
//! count.

use crate::calib::Probe;
use crate::cpu::cores;
use crate::report::{Metric, Report};
use crate::samples::Samples;
use crate::serve::{client_jobs_and_secs, closed_loop, Daemon, LoopLength, RESIDUAL_LIMIT};
use crate::spmd::{run_leg, Leg, LegOpts, LegRun, Shape};
use crate::workloads::{ServeMix, Workload};
use std::time::{Duration, Instant};

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// N ≤ 192, 2 reps, 8 jobs: does every path work, not how fast.
    pub smoke: bool,
    /// The `abft-hessenberg` binary `serve_mix` spawns (the command builds
    /// it; the tests use it when it is already there).
    pub daemon: Option<std::path::PathBuf>,
}

impl RunCfg {
    /// Has a rep loop that began at `started` run long enough after `rep`
    /// reps? Smoke runs stop at two; timed runs when the next rep would
    /// overshoot `budget` seconds by more than it undershoots, never before
    /// three.
    pub fn enough_reps(&self, rep: usize, started: Instant, budget: f64) -> bool {
        if self.smoke {
            return rep >= 2;
        }
        let elapsed = started.elapsed().as_secs_f64();
        rep >= 3 && elapsed + elapsed / rep as f64 / 2.0 > budget
    }

    /// The daemon binary, or why the run cannot go on without it.
    pub fn daemon(&self) -> Result<&std::path::Path, String> {
        self.daemon
            .as_deref()
            .ok_or_else(|| "this workload needs the abft-hessenberg binary".to_string())
    }
}

/// Share of a `serve_mix` run spent on the bare-solver legs; the daemon
/// loops get the rest.
const SERVE_LEGS_SHARE: f64 = 0.4;

/// The timed legs of a run, one entry per rep, as measured.
#[derive(Default)]
struct LegSeries {
    /// Set-up seconds of the FT-family legs (they build the same encoded
    /// matrix; the plain leg's smaller one would make the series bimodal).
    setup: Vec<f64>,
    /// Solve seconds, indexed like [`Leg::TIMED`].
    solve: [Vec<f64>; 4],
    /// Per-rep `ft / plain`.
    overhead: Vec<f64>,
    /// Process CPU seconds of the ft leg.
    cpu: Vec<f64>,
    /// Call → result of the ft leg, milliseconds.
    latency_ms: Vec<f64>,
    ops: u64,
    failed: u64,
    /// Seconds of the whole timed loop: every leg from call to return.
    wall: f64,
    /// The machine's speed, read before every leg (see [`crate::calib`]).
    speed: Vec<f64>,
}

impl LegSeries {
    /// Every time of the run multiplied by `speed`: seconds at reference
    /// speed.
    fn corrected(mut self, speed: f64) -> LegSeries {
        let series = [&mut self.setup, &mut self.cpu, &mut self.latency_ms]
            .into_iter()
            .chain(&mut self.solve);
        for v in series.flatten() {
            *v *= speed;
        }
        self.wall *= speed;
        self
    }
}

/// The untimed first rep: run every leg with verification on and check the
/// results against each other. Returns the per-leg reference hashes.
fn warm_up(shape: &Shape, seed: u64, problems: &mut Vec<String>) -> [Vec<u64>; 4] {
    let verified = LegOpts { verify: true, traced: None };
    let runs: Vec<LegRun> = Leg::TIMED.iter().map(|&leg| run_leg(shape, leg, seed, verified)).collect();
    for (run, leg) in runs.iter().zip(Leg::TIMED) {
        if !run.ok(leg) {
            problems.push(format!("{leg:?}: unexpected driver report {:?}", run.ranks[0].report));
        }
        let r = run.residual().expect("verification was on");
        if r.is_nan() || r >= RESIDUAL_LIMIT {
            problems.push(format!("{leg:?}: residual r_inf = {r} is not below {RESIDUAL_LIMIT}"));
        }
    }
    // lib.rs of ft-hess documents the fault-free FT factor as element-wise
    // identical to the plain driver's.
    if runs[1].hashes() != runs[0].hashes() {
        problems.push("fault-free ft factor and tau are not bitwise equal to plain's".into());
    }
    [runs[0].hashes(), runs[1].hashes(), runs[2].hashes(), runs[3].hashes()]
}

/// Warm up, then time reps of the four legs for `budget` seconds (exactly
/// two reps in smoke mode).
fn time_legs(shape: &Shape, cfg: &RunCfg, budget: f64, problems: &mut Vec<String>) -> LegSeries {
    let expect = warm_up(shape, cfg.seed, problems);
    let mut probe = Probe::new(shape.ranks().min(cores()));
    let mut s = LegSeries::default();
    let started = Instant::now();
    for rep in 1.. {
        let mut solve = [0.0; 4];
        for (i, leg) in Leg::TIMED.into_iter().enumerate() {
            s.speed.push(probe.read().speed());
            let run = run_leg(shape, leg, cfg.seed, LegOpts::TIMED);
            s.ops += 1;
            if !run.ok(leg) || run.hashes() != expect[i] {
                s.failed += 1;
            }
            solve[i] = run.solve_s;
            s.solve[i].push(run.solve_s);
            s.wall += run.setup_s + run.solve_s + run.teardown_s;
            if leg != Leg::Plain {
                s.setup.push(run.setup_s);
            }
            if leg == Leg::Ft {
                s.cpu.push(run.cpu_s);
                s.latency_ms.push(run.latency_s() * 1e3);
            }
        }
        s.overhead.push(solve[1] / solve[0]);
        if cfg.enough_reps(rep, started, budget) {
            break;
        }
    }
    s
}

/// The daemon part of `serve_mix`.
struct ServeSeries {
    setup: Vec<f64>,
    latency_ms: Vec<f64>,
    failed: u64,
    /// Timed jobs and busy seconds of each client, summed over the daemons.
    clients: Vec<(u64, f64)>,
}

impl ServeSeries {
    fn jobs(&self) -> u64 {
        self.clients.iter().map(|c| c.0).sum()
    }

    /// The clients' own rates, added up (see [`client_jobs_and_secs`]).
    fn jobs_per_s(&self) -> f64 {
        self.clients.iter().map(|&(jobs, secs)| jobs as f64 / secs).sum()
    }
}

fn time_daemons(mix: &ServeMix, cfg: &RunCfg, budget: f64, problems: &mut Vec<String>) -> Result<ServeSeries, String> {
    let bin = cfg.daemon()?;
    let mut s = ServeSeries {
        setup: Vec::new(),
        latency_ms: Vec::new(),
        failed: 0,
        clients: vec![(0, 0.0); mix.clients],
    };
    let length = if cfg.smoke {
        LoopLength::Jobs(8 / mix.clients)
    } else {
        LoopLength::For(Duration::from_secs_f64(budget / mix.daemons as f64))
    };
    for d in 0..mix.daemons {
        let (daemon, setup_s) = Daemon::spawn(bin, mix.pool)?;
        s.setup.push(setup_s);
        // A different job stream per daemon, all derived from --seed.
        let seed = cfg.seed.wrapping_mul(31).wrapping_add(d as u64);
        let records = closed_loop(&daemon, mix, seed, length, false)?;
        daemon.shutdown()?;
        for (client, total) in s.clients.iter_mut().enumerate() {
            let (jobs, secs) = client_jobs_and_secs(&records, client);
            *total = (total.0 + jobs, total.1 + secs);
        }
        // Verification runs here, after the loop, on every job; only
        // timed jobs count as operations.
        for r in &records {
            match (r.correct(), r.warmup) {
                (true, _) => {}
                (false, true) => problems.push(format!("warm-up job of daemon {d} failed: {:?}", r.outcome.as_ref().err())),
                (false, false) => s.failed += 1,
            }
            if !r.warmup {
                s.latency_ms.push(r.latency_ms());
            }
        }
    }
    Ok(s)
}

fn median(v: &[f64]) -> f64 {
    Samples::new(v.to_vec()).median()
}

/// Run `w` end to end. `Err` means the harness could not run at all (no
/// daemon binary, a daemon that will not start); failed checks are
/// reported inside the [`Report`].
pub fn run(w: &Workload, cfg: &RunCfg) -> Result<Report, String> {
    let mut problems = Vec::new();
    let legs_budget = if w.serve.is_some() { cfg.seconds * SERVE_LEGS_SHARE } else { cfg.seconds };
    let raw = time_legs(&w.shape, cfg, legs_budget, &mut problems);
    let (speed, raw_plain, raw_ft) = (median(&raw.speed), median(&raw.solve[0]), median(&raw.solve[1]));
    let legs = raw.corrected(speed);
    let served = match &w.serve {
        Some(mix) => Some(time_daemons(mix, cfg, cfg.seconds - legs_budget, &mut problems)?),
        None => None,
    };

    // Set-up, throughput and job latency: from the daemon where there is
    // one, else from the legs themselves (a one-shot solve is the job).
    let (setup, latency_ms, jobs_per_s) = match &served {
        Some(s) => (&s.setup, &s.latency_ms, s.jobs_per_s()),
        None => (&legs.setup, &legs.latency_ms, legs.ops as f64 / legs.wall),
    };
    let series = |v: &[f64]| Samples::new(v.to_vec());
    let metrics = vec![
        Metric::median("setup_s", "s", series(setup)),
        Metric::median("plain_solve_s", "s", series(&legs.solve[0])),
        Metric::median("ft_solve_s", "s", series(&legs.solve[1])),
        Metric::median("ft_overhead", "ratio", series(&legs.overhead)),
        Metric::median("ft_cpu_s", "s", series(&legs.cpu)),
        Metric::median("ft_delayed_solve_s", "s", series(&legs.solve[2])),
        Metric::median("recover_solve_s", "s", series(&legs.solve[3])),
        Metric::single("jobs_per_s", "1/s", jobs_per_s),
        Metric::median("job_p50_ms", "ms", series(latency_ms)),
    ];

    let shape = &w.shape;
    let mut notes = vec![
        format!(
            "legs: {:?} {}x{} N={} nb={} over {:?}, {} reps of plain/ft/delayed/recover",
            shape.solver,
            shape.p,
            shape.q,
            shape.n,
            shape.nb,
            shape.fabric,
            legs.overhead.len()
        ),
        format!(
            "this run's median speed was {speed:.3}; in-process times are corrected to reference speed \
             (uncorrected medians: plain {raw_plain:.6} s, ft {raw_ft:.6} s)"
        ),
    ];
    if let (Some(mix), Some(s)) = (&w.serve, &served) {
        notes.push(format!(
            "daemon: {} spawns of --pool {}, closed loop of {} clients, {} timed jobs (uncorrected)",
            mix.daemons,
            mix.pool,
            mix.clients,
            s.jobs()
        ));
    }
    Ok(Report {
        workload: w.name,
        seed: cfg.seed,
        attempted: legs.ops + served.as_ref().map_or(0, |s| s.jobs()),
        failed: legs.failed + served.as_ref().map_or(0, |s| s.failed),
        problems,
        metrics,
        notes,
    })
}
