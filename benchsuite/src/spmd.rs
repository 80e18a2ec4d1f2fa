//! One SPMD leg: build the fabric, generate the matrix on every rank,
//! barrier, stamp, solve, stamp — the protocol every in-process timing of
//! the suite follows (README.md, "Protocol").
//!
//! A leg is run either plain (library drivers over `run_spmd` / raw
//! `TcpTransport`: what the end-to-end metrics time) or traced (decorated
//! endpoints, the bench's own plain loop, the FT phase hook: what the
//! per-layer metrics are read from). Both return the same [`LegRun`].

use crate::cpu::process_cpu_secs;
use crate::loops::{traced_pdgehrd, traced_pdgeqrf};
use crate::spans::{self, Span};
use crate::timed::{TimedTransport, WireTimes};
use ft_dense::gen::uniform_entry;
use ft_dense::{counters, pool};
use ft_hess::{failpoint, ft_pdgehrd_full, ft_pdgeqrf_full, Encoded, FtReport, Phase, Redundancy, ScrubPolicy, Variant};
use ft_pblas::{pd_hessenberg_residual, pd_qr_residual, pdgehrd, pdgeqrf, Desc, DistMatrix};
use ft_runtime::{
    run_spmd, run_spmd_with, Ctx, FaultScript, MpscTransport, PeerCounters, PlannedFailure, TcpTransport, TrafficLedger,
    Transport,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    Hess,
    Qr,
}

/// Which wire the ranks talk over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// In-process mpsc channels.
    Mpsc,
    /// Loopback TCP, one long-lived fabric per solve.
    Tcp,
}

/// Inputs of an in-process solve.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub solver: Solver,
    pub p: usize,
    pub q: usize,
    pub n: usize,
    pub nb: usize,
    pub fabric: Fabric,
}

impl Shape {
    /// `P·Q`.
    pub fn ranks(&self) -> usize {
        self.p * self.q
    }

    /// Number of panel iterations of the reduction.
    pub fn panels(&self) -> usize {
        match self.solver {
            Solver::Hess => self.n.saturating_sub(2).div_ceil(self.nb),
            Solver::Qr => self.n.div_ceil(self.nb),
        }
    }

    /// The model flop count of one plain solve (`10/3·N³` / `4/3·N³`).
    pub fn model_flops(&self) -> f64 {
        let n3 = (self.n as f64).powi(3);
        match self.solver {
            Solver::Hess => 10.0 / 3.0 * n3,
            Solver::Qr => 4.0 / 3.0 * n3,
        }
    }
}

/// What a leg runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// `pdgehrd` / `pdgeqrf`, the fault-intolerant baseline.
    Plain,
    /// `ft_pdgehrd` / `ft_pdgeqrf`, Algorithm 2, `Single`, no fault.
    Ft,
    /// The same with `Variant::Delayed` (Algorithm 3, Figure 7).
    Delayed,
    /// `Ft` with one scripted victim: rank 1, middle panel, after the
    /// right update (Hessenberg, as fig6b) or the left update (QR).
    Recover,
    /// `Ft` with the scrub engine scanning every panel.
    Scrubbed,
    /// `Coded(2)` with two same-row victims (ranks 1 and 2) at the
    /// `Recover` fail point. Needs Q ≥ 4.
    Coded2,
}

impl Leg {
    /// The four legs of a timed rep, in the order they run.
    pub const TIMED: [Leg; 4] = [Leg::Plain, Leg::Ft, Leg::Delayed, Leg::Recover];

    /// Recoveries a correct run of this leg reports.
    pub fn expected_recoveries(self) -> usize {
        match self {
            Leg::Recover | Leg::Coded2 => 1,
            _ => 0,
        }
    }
}

/// How to run a leg.
#[derive(Debug, Clone, Copy)]
pub struct LegOpts {
    /// Compute the paper's residual after the solve (outside every timed
    /// window).
    pub verify: bool,
    /// `Some((epoch, solve id))`: decorate the endpoints and record spans.
    pub traced: Option<(Instant, u32)>,
}

impl LegOpts {
    /// Plain and unverified: a timed end-to-end leg.
    pub const TIMED: LegOpts = LegOpts { verify: false, traced: None };
}

/// What one rank hands back.
pub struct RankOut {
    /// Taken right after the barrier, before the solver is called.
    pub stamp: Instant,
    /// Taken when the solver returned on this rank.
    pub done: Instant,
    /// Process CPU seconds at `stamp` (rank 0 only).
    cpu_at_stamp: Option<f64>,
    /// FNV-1a of this rank's share of the factor and of `tau`, bit for bit.
    pub hash: u64,
    /// `r∞` of the factorization, when verification was asked for.
    pub residual: Option<f64>,
    /// The FT driver's own report (FT legs), `Err` text on a typed error.
    pub report: Option<Result<FtReport, String>>,
    /// `ctx.traffic()` when the solver returned.
    pub traffic: TrafficLedger,
    /// `ctx.transport_stats()` totals when the solver returned.
    pub wire: PeerCounters,
    /// Elements of the encoded matrix (FT legs; 0 for plain).
    pub encoded_elems: u64,
    /// This rank's spans (traced legs).
    pub spans: Vec<Span>,
}

/// One finished leg.
pub struct LegRun {
    /// Call → earliest post-barrier stamp: build the fabric, spawn the
    /// ranks, generate and distribute the matrix.
    pub setup_s: f64,
    /// Earliest post-barrier stamp → the last rank's solver return.
    pub solve_s: f64,
    /// Last rank's solver return → `run_spmd*` returned (fabric teardown).
    pub teardown_s: f64,
    /// Process CPU seconds from rank 0's stamp to the return.
    pub cpu_s: f64,
    /// Flops, blocked-GEMM calls and pool jobs the whole call counted.
    pub flops: u64,
    pub gemm_calls: u64,
    pub pool_jobs: u64,
    pub ranks: Vec<RankOut>,
    /// Per-rank decorator totals (traced legs; empty otherwise).
    pub wire_times: Vec<Arc<WireTimes>>,
}

impl LegRun {
    /// Set-up plus solve: call → result, what a one-shot caller waits for.
    pub fn latency_s(&self) -> f64 {
        self.setup_s + self.solve_s
    }

    /// Per-rank hashes, for bitwise comparison between legs.
    pub fn hashes(&self) -> Vec<u64> {
        self.ranks.iter().map(|r| r.hash).collect()
    }

    /// Largest residual any rank reports (they agree; `None` unverified).
    pub fn residual(&self) -> Option<f64> {
        self.ranks.iter().filter_map(|r| r.residual).reduce(f64::max)
    }

    /// Did the leg do what a correct run of it does? (`Ok` report with the
    /// expected recovery count on every rank; a plain leg always has.)
    pub fn ok(&self, leg: Leg) -> bool {
        self.ranks.iter().all(|r| match &r.report {
            None => true,
            Some(Ok(rep)) => rep.recoveries == leg.expected_recoveries(),
            Some(Err(_)) => false,
        })
    }

    /// Grid-wide traffic ledger.
    pub fn traffic(&self) -> TrafficLedger {
        let mut total = TrafficLedger::default();
        for r in &self.ranks {
            total.merge(&r.traffic);
        }
        total
    }
}

/// The workload's TCP fabric: the production 100 ms heartbeat with a miss
/// limit no scheduler stall on a shared box can reach (60 s).
pub fn tcp_fabric(world: usize) -> Vec<TcpTransport> {
    TcpTransport::fabric_localhost_with(world, |cfg| {
        cfg.hb_interval = Duration::from_millis(100);
        cfg.hb_miss_limit = 600;
    })
    .expect("bind a loopback fabric")
}

/// Box a fabric's endpoints the way `run_spmd_with` takes them.
pub fn boxed<T: Transport + 'static>(fabric: Vec<T>) -> Vec<Box<dyn Transport>> {
    fabric.into_iter().map(|t| Box::new(t) as Box<dyn Transport>).collect()
}

/// Run one leg of `shape` on the matrix `uniform_entry(seed, i, j)`.
pub fn run_leg(shape: &Shape, leg: Leg, seed: u64, opts: LegOpts) -> LegRun {
    let (p, q) = (shape.p, shape.q);
    let phase = match shape.solver {
        Solver::Hess => Phase::AfterRightUpdate,
        Solver::Qr => Phase::AfterLeftUpdate,
    };
    let point = failpoint(shape.panels() / 2, phase);
    let script = match leg {
        Leg::Recover => FaultScript::one(1, point),
        Leg::Coded2 => FaultScript::new(vec![PlannedFailure { victim: 1, point }, PlannedFailure { victim: 2, point }]),
        _ => FaultScript::none(),
    };
    counters::reset_flops();
    counters::reset_gemm_calls();
    let pool_before = pool::jobs_dispatched();
    let body = |ctx: Ctx| rank_body(&ctx, shape, leg, seed, opts);

    let called = Instant::now();
    let (ranks, wire_times) = match (shape.fabric, opts.traced.is_some()) {
        (Fabric::Mpsc, false) => (run_spmd(p, q, script, body), Vec::new()),
        (Fabric::Tcp, false) => (run_spmd_with(p, q, script, boxed(tcp_fabric(p * q)), body), Vec::new()),
        (Fabric::Mpsc, true) => {
            let (endpoints, times) = TimedTransport::wrap_fabric(MpscTransport::fabric(p * q));
            (run_spmd_with(p, q, script, endpoints, body), times)
        }
        (Fabric::Tcp, true) => {
            let (endpoints, times) = TimedTransport::wrap_fabric(tcp_fabric(p * q));
            (run_spmd_with(p, q, script, endpoints, body), times)
        }
    };
    let returned = Instant::now();
    let cpu_end = process_cpu_secs();

    let stamp = ranks.iter().map(|r| r.stamp).min().expect("at least one rank");
    let done = ranks.iter().map(|r| r.done).max().expect("at least one rank");
    LegRun {
        setup_s: (stamp - called).as_secs_f64(),
        solve_s: (done - stamp).as_secs_f64(),
        teardown_s: (returned - done).as_secs_f64(),
        cpu_s: cpu_end - ranks[0].cpu_at_stamp.expect("rank 0 reads the CPU clock"),
        flops: counters::flops(),
        gemm_calls: counters::gemm_calls(),
        pool_jobs: pool::jobs_dispatched() - pool_before,
        ranks,
        wire_times,
    }
}

/// Span a hooked FT driver is in after the boundary `phase`.
fn span_after(phase: Phase) -> &'static str {
    match phase {
        Phase::BeforePanel => "core.panel",
        Phase::AfterPanel => "core.right",
        Phase::AfterRightUpdate => "core.left",
        Phase::AfterLeftUpdate => "core.scope",
    }
}

fn rank_body(ctx: &Ctx, shape: &Shape, leg: Leg, seed: u64, opts: LegOpts) -> RankOut {
    let Shape { solver, n, nb, .. } = *shape;
    let entry = |i: usize, j: usize| uniform_entry(seed, i, j);
    if let Some((epoch, solve)) = opts.traced {
        spans::install(epoch, solve, ctx.rank());
    }
    let mut tau = vec![0.0; n];
    // Generate → barrier → stamp → solve → stamp. Nothing else sits between
    // the two stamps.
    let mut plain: Option<DistMatrix> = None;
    let mut enc: Option<Encoded> = None;
    if leg == Leg::Plain {
        plain = Some(DistMatrix::from_global_fn(ctx, Desc { m: n, n, nb }, entry));
    } else {
        let redundancy = if leg == Leg::Coded2 { Redundancy::Coded(2) } else { Redundancy::Single };
        enc = Some(Encoded::with_redundancy(ctx, n, nb, redundancy, entry));
    }
    ctx.barrier();
    let cpu_at_stamp = (ctx.rank() == 0).then(process_cpu_secs);
    let stamp = Instant::now();
    spans::enter("solve", None);
    let report = match (&mut plain, &mut enc) {
        (Some(a), _) => {
            match (solver, opts.traced.is_some()) {
                (Solver::Hess, false) => pdgehrd(ctx, a, &mut tau),
                (Solver::Qr, false) => pdgeqrf(ctx, a, &mut tau),
                (Solver::Hess, true) => traced_pdgehrd(ctx, a, &mut tau),
                (Solver::Qr, true) => traced_pdgeqrf(ctx, a, &mut tau),
            }
            None
        }
        (None, Some(enc)) => {
            let variant = if leg == Leg::Delayed { Variant::Delayed } else { Variant::NonDelayed };
            let policy = if leg == Leg::Scrubbed {
                ScrubPolicy::every_panels(1)
            } else {
                ScrubPolicy::disabled()
            };
            // The hook stamps the four phase boundaries of every panel:
            // close the span the driver was in, open the next. Untraced
            // legs pass the same no-op the library's own entry points do.
            spans::enter("core.encode", None);
            let mut stamp_phase = |_: &Ctx, _: &mut Encoded, panel: usize, phase: Phase| {
                spans::exit();
                spans::enter(span_after(phase), Some(panel));
            };
            let mut no_hook = |_: &Ctx, _: &mut Encoded, _: usize, _: Phase| {};
            let hook: &mut dyn FnMut(&Ctx, &mut Encoded, usize, Phase) =
                if opts.traced.is_some() { &mut stamp_phase } else { &mut no_hook };
            let result = match solver {
                Solver::Hess => ft_pdgehrd_full(ctx, enc, variant, &mut tau, policy, hook),
                Solver::Qr => ft_pdgeqrf_full(ctx, enc, variant, &mut tau, policy, hook),
            };
            spans::exit();
            Some(result.map_err(|e| e.to_string()))
        }
        (None, None) => unreachable!("one of the two matrices was built"),
    };
    spans::exit();
    let done = Instant::now();

    // Everything below is outside the solve window.
    let traffic = ctx.traffic();
    let wire = ctx.transport_stats().total();
    let reduced = plain
        .as_ref()
        .unwrap_or_else(|| &enc.as_ref().expect("one of the two matrices was built").a);
    let hash = factor_hash(reduced, n, &tau);
    let residual = opts.verify.then(|| {
        let a0 = DistMatrix::from_global_fn(ctx, Desc { m: n, n, nb }, entry);
        match solver {
            Solver::Hess => pd_hessenberg_residual(ctx, &a0, reduced, n, &tau),
            Solver::Qr => pd_qr_residual(ctx, &a0, reduced, n, &tau),
        }
    });
    RankOut {
        stamp,
        done,
        cpu_at_stamp,
        hash,
        residual,
        report,
        traffic,
        wire,
        encoded_elems: enc.as_ref().map_or(0, |e| (e.a.desc().m * e.a.desc().n) as u64),
        spans: spans::take(),
    }
}

/// FNV-1a over the bits of this rank's share of the logical `n×n` factor
/// (an encoded matrix keeps it in the leading local rows and columns, at
/// the same local indices as the plain layout) and of `tau`.
fn factor_hash(a: &DistMatrix, n: usize, tau: &[f64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    };
    let rows = a.local_rows_below(n);
    for lc in 0..a.local_cols_below(n) {
        for &v in &a.local().col(lc)[..rows] {
            eat(v);
        }
    }
    tau.iter().copied().for_each(&mut eat);
    h
}
