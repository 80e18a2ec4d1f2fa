//! `abft-hessenberg` — command-line driver for the solver-agnostic ABFT
//! framework: fault-tolerant Hessenberg reduction or Householder QR.
//!
//! ```text
//! abft-hessenberg [OPTIONS]
//!
//!   --n <N>              matrix dimension (default 512)
//!   --nb <NB>            blocking factor / panel width (default 16)
//!   --grid <PxQ>         process grid (default 2x2)
//!   --solver <S>         hessenberg | qr (default hessenberg); qr is the
//!                        left-only second solver on the same framework
//!                        (no --variant cr, no --print-eigs)
//!   --variant <V>        plain | alg2 | alg3 | cr (default alg2)
//!   --redundancy <R>     single | <f> (default single; numeric f keeps 2f
//!                        weighted checksum copies, tolerates f same-row
//!                        failures and needs Q ≥ 2f; `dual` spells 2)
//!   --fail <P:PH:R>      scripted failure: panel : phase(0-3) : rank
//!                        (repeatable)
//!   --mtti <PANELS>      Poisson failures with this MTTI (in panels)
//!   --faults <SEED[:ITEM,...]>
//!                        the one fault script (DESIGN.md "Fault
//!                        injection"); one seed drives every item:
//!                          kill=K   K seeded kills at arbitrary message-op
//!                                   boundaries (real SIGKILLs + re-spawn
//!                                   with --distributed)
//!                          at=R@OP  kill rank R at its OP-th message op;
//!                                   at=R@rROUND:OP kills inside recovery
//!                                   round ROUND (repeatable)
//!                          flip=K   K seeded silent bit flips in local
//!                                   blocks (in-process only); implies
//!                                   --scrub-every 1 unless given
//!                          drop=P dup=P reorder=P corrupt=P reset=P
//!                          delay=P@MS  part=A-B@S[+D]
//!                                   wire faults on every rank's outbound
//!                                   links (--distributed only); part= cuts
//!                                   the link A->B from S ms, healing after
//!                                   D ms. The hardened transport (CRC
//!                                   frames, sequenced window, session
//!                                   resume) must mask all of it
//!                        kill/at/flip need --variant alg2 or alg3; every
//!                        rank an item names must lie in the grid;
//!                        beyond-tolerance kills, uncorrectable flips and
//!                        an unhealed partition exit with code 3 (the same
//!                        typed error on every surviving rank)
//!   --scrub-every <K>    scrub pass every K panel iterations and at every
//!                        scope boundary (alg2/alg3 only; default: off, or
//!                        1 under --faults flip=)
//!   --cr-interval <K>    C/R checkpoint interval in panels (default 8)
//!   --seed <S>           matrix / trace seed (default 2013)
//!   --verify             compute the distributed residual r∞ afterwards
//!   --print-eigs         rank 0 prints the eigenvalues of H (sorted)
//!   --help               this text
//!
//! Distributed mode (real processes over localhost TCP):
//!
//!   --distributed        launch P·Q child processes of this binary, one
//!                        per rank, wired by TCP (grid from --grid);
//!                        --faults kills are real SIGKILLs and the victim
//!                        is re-spawned as a replacement
//!   --rank <R>           internal: run as the child process of rank R
//!   --port-base <B>      listen ports B..B+P*Q-1 (default: probed)
//!   --hb-interval-ms <T> heartbeat period (default 100)
//!   --hb-miss-limit <K>  beats of silence before a peer is suspected
//!                        dead (default 30)
//!   --conn-timeout-ms <T> connect/reconnect budget (default 10000)
//!   --shrink             elastic shrink: a killed rank is NOT re-spawned —
//!                        the lowest-ranked survivor adopts the victim's
//!                        rank as a thread of its own process and the run
//!                        completes on fewer processes; adopted ranks /
//!                        redistributed bytes / stall time are reported in
//!                        the summary (distributed only)
//!
//!   Env knobs (CLI flags win): FT_HB_INTERVAL_MS, FT_HB_MISS_LIMIT,
//!   FT_HB_GRACE_BEATS (beats of reconnect grace before a closed-socket
//!   peer is declared dead, default 4), FT_RECV_TIMEOUT_MS (a positive
//!   number of milliseconds, default 120000). All validated at startup;
//!   inconsistent values exit with code 2.
//!
//!   --fail / --mtti / --faults flip= are not available with --distributed
//!   (scripted fail points and flip injection assume the in-process
//!   world); use --faults kill= / at= for real process death.
//! ```
//!
//! Examples:
//!
//! ```text
//! abft-hessenberg --n 768 --grid 4x4 --fail 10:2:5 --verify
//! abft-hessenberg --n 768 --grid 2x4 --variant alg3 --mtti 12
//! abft-hessenberg --n 512 --grid 4x4 --variant cr --mtti 10
//! abft-hessenberg --n 512 --grid 2x4 --redundancy dual --faults 7:flip=2 --verify
//! abft-hessenberg --n 256 --grid 2x2 --distributed --faults 0:at=3@120 --verify
//! abft-hessenberg --n 512 --grid 2x2 --solver qr --faults 5:kill=2 --verify
//! abft-hessenberg --n 64 --nb 8 --grid 2x2 --distributed --faults 3:kill=1,drop=0.05,dup=0.05 --verify
//! ```

use abft_hessenberg::dense::gen::uniform_entry;
use abft_hessenberg::dense::Matrix;
use abft_hessenberg::hess::{
    cr_pdgehrd, failpoint, ft_solve, solver_by_name, DriverControl, Encoded, FtError, FtSolver, Hessenberg, Phase, Redundancy,
    ScrubPolicy, ScrubReport, Variant,
};
use abft_hessenberg::lapack::hessenberg_eigenvalues;
use abft_hessenberg::pblas::{pd_extract_h, pd_gather_traffic, pd_gather_transport, Desc, DistMatrix};
use abft_hessenberg::runtime::{
    poisson_failures, recv_timeout_env, run_distributed, run_spmd, CommError, Ctx, FaultScript, PeerCounters, PlannedFailure,
    TcpConfig, TcpTransport, TrafficLedger, TrafficPhase, TransportStats,
};
use std::io::BufRead;
use std::process::exit;
use std::str::FromStr;
use std::time::{Duration, Instant};

mod serve_cli;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Alg2,
    Alg3,
    Cr,
}

impl Mode {
    /// The ABFT variant this mode runs, if it is one.
    fn variant(self) -> Option<Variant> {
        match self {
            Mode::Alg2 => Some(Variant::NonDelayed),
            Mode::Alg3 => Some(Variant::Delayed),
            Mode::Plain | Mode::Cr => None,
        }
    }
}

fn usage() -> ! {
    // The module docs are the single source of truth for the help text.
    let doc = include_str!("main.rs");
    for line in doc.lines().take_while(|l| l.starts_with("//!")) {
        println!("{}", line.trim_start_matches("//!").trim_start_matches(' '));
    }
    exit(0)
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\nrun with --help for usage");
    exit(2)
}

/// `FT_RECV_TIMEOUT_MS` is read once per process; a bad value is a usage
/// error here, at startup, not a panic in the first receive.
fn check_recv_timeout() {
    if let Err(e) = recv_timeout_env() {
        fail(&e)
    }
}

fn parse<T: FromStr>(v: &str, what: &str) -> T {
    v.parse().unwrap_or_else(|_| fail(&format!("{what}: bad value '{v}'")))
}

/// The command line as a cursor — every verb's flag loop pulls values from
/// it, so "needs a value" / "bad value" are usage errors (exit 2) worded
/// once.
struct Args(std::vec::IntoIter<String>);

impl Args {
    fn next(&mut self) -> Option<String> {
        self.0.next()
    }

    fn val(&mut self, flag: &str) -> String {
        self.0.next().unwrap_or_else(|| fail(&format!("{flag} needs a value")))
    }

    fn num<T: FromStr>(&mut self, flag: &str) -> T {
        parse(&self.val(flag), flag)
    }

    fn positive<T: FromStr + PartialOrd + Default>(&mut self, flag: &str) -> T {
        let v: T = self.num(flag);
        if v <= T::default() {
            fail(&format!("{flag}: must be at least 1"));
        }
        v
    }
}

/// The job-shape flags — `--n/--nb/--grid/--solver/--variant/--redundancy/
/// --seed` — parsed in one place for the driver and for `submit` (only the
/// defaults differ).
#[derive(Clone, Copy)]
struct Shape {
    n: usize,
    nb: usize,
    p: usize,
    q: usize,
    solver: &'static dyn FtSolver,
    mode: Mode,
    redundancy: Redundancy,
    seed: u64,
}

/// The driver's defaults.
impl Default for Shape {
    fn default() -> Self {
        Shape {
            n: 512,
            nb: 16,
            p: 2,
            q: 2,
            solver: &Hessenberg,
            mode: Mode::Alg2,
            redundancy: Redundancy::Single,
            seed: 2013,
        }
    }
}

impl Shape {
    /// Consume `flag` (and its value) if it is a shape flag.
    fn parse_flag(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--n" => self.n = args.positive(flag),
            "--nb" => self.nb = args.positive(flag),
            "--grid" => {
                let v = args.val(flag);
                let (ps, qs) = v.split_once(['x', 'X']).unwrap_or_else(|| fail("--grid: use PxQ"));
                self.p = parse(ps, "--grid P");
                self.q = parse(qs, "--grid Q");
                if self.p == 0 || self.q == 0 {
                    fail("--grid: P and Q must be at least 1");
                }
            }
            "--solver" => {
                let v = args.val(flag);
                self.solver = solver_by_name(&v).unwrap_or_else(|| fail(&format!("--solver: unknown '{v}'")));
            }
            "--variant" => {
                self.mode = match args.val(flag).as_str() {
                    "plain" => Mode::Plain,
                    "alg2" => Mode::Alg2,
                    "alg3" => Mode::Alg3,
                    "cr" => Mode::Cr,
                    other => fail(&format!("--variant: unknown '{other}'")),
                }
            }
            "--redundancy" => {
                self.redundancy = match args.val(flag).as_str() {
                    "single" => Redundancy::Single,
                    "dual" => Redundancy::Coded(2),
                    other => match other.parse::<usize>() {
                        Ok(f) if f >= 1 => Redundancy::Coded(f),
                        _ => fail(&format!("--redundancy: unknown '{other}' (single | f ≥ 1)")),
                    },
                }
            }
            "--seed" => self.seed = args.num(flag),
            _ => return false,
        }
        true
    }
}

/// The fabric-liveness flags shared by the driver and `serve`.
#[derive(Clone, Copy, Default, PartialEq)]
struct HbFlags {
    interval_ms: Option<u64>,
    miss_limit: Option<u32>,
    conn_timeout_ms: Option<u64>,
}

impl HbFlags {
    fn parse_flag(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--hb-interval-ms" => self.interval_ms = Some(args.positive(flag)),
            "--hb-miss-limit" => self.miss_limit = Some(args.positive(flag)),
            "--conn-timeout-ms" => self.conn_timeout_ms = Some(args.positive(flag)),
            _ => return false,
        }
        true
    }

    /// The transport config a fabric actually runs with: built-in defaults,
    /// overlaid with the `FT_HB_*` environment, overlaid with
    /// these flags — and validated, so inconsistent liveness settings die as
    /// a usage error (exit 2) before any socket work starts.
    fn tcp_config(&self, rank: usize, world: usize) -> TcpConfig {
        let mut cfg = TcpConfig::new(rank, world);
        if let Err(e) = cfg.apply_env() {
            fail(&format!("transport config: {e}"));
        }
        if let Some(ms) = self.interval_ms {
            cfg.hb_interval = Duration::from_millis(ms);
        }
        if let Some(k) = self.miss_limit {
            cfg.hb_miss_limit = k;
        }
        if let Some(ms) = self.conn_timeout_ms {
            cfg.conn_timeout = Duration::from_millis(ms);
        }
        if let Err(e) = cfg.validate() {
            fail(&format!("transport config: {e}"));
        }
        cfg
    }
}

#[derive(Clone, Default)]
struct Opts {
    shape: Shape,
    /// The run's one fault script: the `--faults` items plus the
    /// `--fail` / `--mtti` fail-point failures.
    faults: FaultScript,
    scrub_every: Option<usize>,
    mtti: Option<f64>,
    cr_interval: Option<usize>,
    verify: bool,
    // Distributed (TCP multi-process) mode.
    distributed: bool,
    rank: Option<usize>,
    port_base: Option<u16>,
    hb: HbFlags,
    shrink: bool,
    respawn: u32,
    chaos_fired: Vec<usize>,
    print_eigs: bool,
}

impl Opts {
    fn world(&self) -> usize {
        self.shape.p * self.shape.q
    }
}

fn parse_args() -> Opts {
    let mut o = Opts::default();
    let mut faults: Option<String> = None;
    let mut failures: Vec<PlannedFailure> = Vec::new();
    let mut args = Args(std::env::args().skip(1).collect::<Vec<_>>().into_iter());
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        if o.shape.parse_flag(flag, &mut args) || o.hb.parse_flag(flag, &mut args) {
            continue;
        }
        match flag {
            "--help" | "-h" => usage(),
            "--fail" => {
                let v = args.val(flag);
                let parts: Vec<&str> = v.split(':').collect();
                if parts.len() != 3 {
                    fail("--fail: use PANEL:PHASE:RANK");
                }
                let ph: usize = parse(parts[1], "--fail phase");
                if ph > 3 {
                    fail("--fail: phase is 0..=3");
                }
                failures.push(PlannedFailure {
                    victim: parse(parts[2], "--fail rank"),
                    point: failpoint(parse(parts[0], "--fail panel"), Phase::ALL[ph]),
                });
            }
            "--faults" => faults = Some(args.val(flag)),
            "--scrub-every" => o.scrub_every = Some(args.positive(flag)),
            "--mtti" => o.mtti = Some(args.num(flag)),
            "--cr-interval" => o.cr_interval = Some(args.num(flag)),
            "--verify" => o.verify = true,
            "--print-eigs" => o.print_eigs = true,
            "--distributed" => o.distributed = true,
            "--rank" => o.rank = Some(args.num(flag)),
            "--port-base" => o.port_base = Some(args.num(flag)),
            "--shrink" => o.shrink = true,
            "--respawn" => o.respawn = args.num(flag),
            "--chaos-fired" => {
                let v = args.val(flag);
                o.chaos_fired
                    .extend(v.split(',').filter(|s| !s.is_empty()).map(|s| parse::<usize>(s, flag)));
            }
            other => fail(&format!("unknown argument '{other}'")),
        }
    }
    let Shape { n, nb, solver, seed, .. } = o.shape;
    if let Some(mtti) = o.mtti {
        let poisson = poisson_failures(solver.panel_count(n, nb) as u64, mtti, o.world(), seed);
        failures.extend(poisson.into_iter().map(|f| PlannedFailure {
            victim: f.victim,
            point: failpoint(f.point as usize, Phase::AfterLeftUpdate),
        }));
    }
    // The grammar belongs to the runtime; it needs the grid (rank
    // references) and the op window (seeded events), both known only now.
    // No flag = a bare seed = the empty script.
    let script = FaultScript::parse(faults.as_deref().unwrap_or("0"), o.world(), 50..op_hi(&o.shape))
        .unwrap_or_else(|e| fail(&format!("--faults: {e}")));
    o.faults = script.with_failures(failures);
    o
}

fn print_scrub_summary(s: &ScrubReport) {
    println!("scrub (grid-wide, aggregated):");
    println!("  {:<22} {:>10}", "scans", s.scans);
    println!("  {:<22} {:>10}", "detections", s.detections);
    println!("  {:<22} {:>10}", "corrections", s.corrections);
    println!("  {:<22} {:>10}", "checksum repairs", s.chk_repairs);
    println!("  {:<22} {:>10}", "area-3 repairs", s.area3_repairs);
    println!("  {:<22} {:>10}", "escalations", s.escalations);
    println!("  {:<22} {:>10}", "rollbacks", s.rollbacks);
    println!("  {:<22} {:>10.4}", "scan seconds (mean)", s.scan_secs);
    println!("  {:<22} {:>10.3e}", "residual mass (frob2)", s.residual_mass);
}

fn print_transport_summary(stats: &TransportStats) {
    type Col = (&'static str, usize, fn(&PeerCounters) -> u64);
    const COLS: [Col; 13] = [
        ("frames_tx", 9, |c| c.frames_tx),
        ("bytes_tx", 12, |c| c.bytes_tx),
        ("frames_rx", 9, |c| c.frames_rx),
        ("bytes_rx", 12, |c| c.bytes_rx),
        ("retries", 7, |c| c.retries),
        ("reconnects", 10, |c| c.reconnects),
        ("hb_misses", 9, |c| c.hb_misses),
        ("rexmit", 7, |c| c.retransmits),
        ("dupsup", 7, |c| c.dup_suppressed),
        ("resumes", 7, |c| c.resumes),
        ("crc_rej", 7, |c| c.crc_rejects),
        ("frm_rej", 7, |c| c.frame_rejects),
        ("rescinds", 8, |c| c.rescinds),
    ];
    let line = |label: &str, cell: &dyn Fn(&Col) -> String| {
        let cells: String = COLS.iter().map(|col| format!(" {:>w$}", cell(col), w = col.1)).collect();
        println!("  {label:>4}{cells}");
    };
    println!("transport (grid-wide, by peer):");
    line("peer", &|col| col.0.to_string());
    for (r, c) in stats.peers.iter().enumerate() {
        line(&r.to_string(), &|col| (col.2)(c).to_string());
    }
    let all = stats.total();
    line("all", &|col| (col.2)(&all).to_string());
}

/// Flag combinations that make no sense together, rejected identically in
/// both in-process and distributed modes (exit 2).
fn sanity_check(o: &Opts) {
    let Shape { solver, mode, redundancy, q, .. } = o.shape;
    // The encoder asserts this; say it as a usage error before anything runs.
    if q < redundancy.min_q() {
        let (f, min_q) = (redundancy.max_failures_per_row(), redundancy.min_q());
        fail(&format!("--redundancy {f} needs Q >= {min_q} process columns for its checksums (got Q = {q})"));
    }
    // `cr` is the Hessenberg checkpoint/restart baseline and the spectrum
    // needs the Hessenberg form: features of that one solver, not framework
    // dispatch.
    if solver.name() != Hessenberg.name() {
        if mode == Mode::Cr {
            fail(&format!(
                "--variant cr is the Hessenberg checkpoint/restart baseline; not available with --solver {}",
                solver.name()
            ));
        }
        if o.print_eigs {
            fail(&format!(
                "--print-eigs needs the Hessenberg form (no spectrum to extract); not available with --solver {}",
                solver.name()
            ));
        }
    }
    let abft = mode.variant().is_some();
    let (kills, flips) = (!o.faults.kills().is_empty(), !o.faults.flips().is_empty());
    if kills && !abft {
        fail("--faults kill= / at= need --variant alg2 or alg3 (the others never arm the injector)");
    }
    if (flips || o.scrub_every.is_some()) && !abft {
        fail("--faults flip= / --scrub-every need --variant alg2 or alg3 (the scrub engine lives in the ABFT driver)");
    }
    if !(o.distributed || o.rank.is_some()) {
        if o.shrink
            || o.port_base.is_some()
            || o.hb != HbFlags::default()
            || !o.faults.net_is_empty()
            || o.print_eigs
            || o.respawn > 0
            || !o.chaos_fired.is_empty()
        {
            fail("--shrink / --port-base / --hb-interval-ms / --hb-miss-limit / --conn-timeout-ms / --faults wire items (drop= delay= dup= reorder= corrupt= reset= part=) / --print-eigs need --distributed");
        }
        return;
    }
    let world = o.world();
    if !o.faults.failures().is_empty() || o.mtti.is_some() {
        fail("--fail / --mtti assume the in-process world; use --faults kill= or at= with --distributed");
    }
    if flips {
        fail("--faults flip= assumes the in-process flip injector; not available with --distributed");
    }
    if mode == Mode::Cr {
        fail("--variant cr is not available with --distributed");
    }
    if o.shrink && !abft {
        fail("--shrink needs --variant alg2 or alg3 (an adopted rank re-enters through ABFT recovery)");
    }
    if let Some(r) = o.rank {
        if !o.distributed {
            fail("--rank is the internal child-mode flag; it needs --distributed");
        }
        if r >= world {
            fail(&format!("--rank {r} is outside the {world}-rank grid"));
        }
        if o.port_base.is_none() {
            fail("--rank needs an explicit --port-base");
        }
    } else if o.respawn > 0 || !o.chaos_fired.is_empty() {
        fail("--respawn / --chaos-fired are internal child-mode flags (need --rank)");
    }
}

/// Upper end of the op range seeded kills/flips are drawn from. A rank
/// performs roughly `4*nb + 20` message ops per panel iteration (measured
/// via `Ctx::chaos_ops`, conservative at common grids), so this keeps seeded
/// events inside the run; events scheduled past the end simply never fire.
fn op_hi(s: &Shape) -> u64 {
    (s.solver.panel_count(s.n, s.nb) as u64 * (4 * s.nb as u64 + 20)).max(200)
}

/// What one rank brings back from a run: the solve's own numbers plus the
/// grid-wide gathers (replicated, or rank 0's). [`print_summary`] turns
/// rank 0's into the report.
struct RankOutcome {
    /// Matrix build + solve on this rank.
    secs: f64,
    /// `(recoveries, chaos aborts)` of an ABFT run, `(rollbacks, lost panel
    /// iterations)` of a C/R run.
    events: (usize, usize),
    /// `(commit seconds, image words)` of an ABFT run (`FtReport`).
    commit: (f64, usize),
    residual: Option<f64>,
    scrub: Option<ScrubReport>,
    traffic: TrafficLedger,
    /// Wire counters — real transports only.
    wire: Option<TransportStats>,
    /// `(adopted ranks, agreement stall seconds)` under `--shrink`.
    shrink: Option<(Vec<usize>, f64)>,
    /// The gathered Hessenberg form (`--print-eigs`, rank 0).
    h: Option<Matrix>,
}

/// One rank's whole computation — build the matrix, run the chosen driver,
/// verify, gather the grid-wide statistics — for every way a rank can come
/// to exist: a thread of the in-process world, a launcher's child process,
/// a re-spawned replacement, or a rank adopted by a survivor. `Err` is the
/// typed beyond-tolerance verdict, identical on every rank.
fn rank_body(ctx: &Ctx, o: &Opts) -> Result<RankOutcome, FtError> {
    let Shape { n, nb, solver, mode, redundancy, seed, .. } = o.shape;
    let entry = |i, j| uniform_entry(seed, i, j);
    let desc = Desc { m: n, n, nb };
    // Flips without an explicit cadence are scanned for at every panel
    // boundary.
    let policy = match o.scrub_every {
        Some(k) => ScrubPolicy::every_panels(k),
        None if !o.faults.flips().is_empty() => ScrubPolicy::every_panels(1),
        None => ScrubPolicy::disabled(),
    };
    let t = Instant::now();
    let mut tau = vec![0.0; solver.tau_len(n).max(1)];
    let mut scrub = None;
    let mut commit = (0.0, 0);
    let (a, events) = match mode.variant() {
        Some(variant) => {
            let mut enc = Encoded::with_redundancy(ctx, n, nb, redundancy, entry);
            // A re-spawned (or adopted) rank joins an already-running
            // factorization: skip encoding, enter recovery first (§5.3).
            let ctl = DriverControl {
                replacement: o.respawn > 0,
                scrub: policy,
                ..DriverControl::default()
            };
            let rep = ft_solve(ctx, solver, &mut enc, variant, &mut tau, ctl)?;
            // Aggregate the per-rank scrub statistics (collective).
            scrub = policy.active().then(|| rep.scrub.gathered(ctx, 622));
            commit = (rep.commit_secs, rep.image_words);
            (enc.a, (rep.recoveries, rep.chaos_aborts))
        }
        None => {
            let mut a = DistMatrix::from_global_fn(ctx, desc, entry);
            let events = if mode == Mode::Cr {
                let rep = cr_pdgehrd(ctx, &mut a, o.cr_interval.unwrap_or(8), &mut tau);
                (rep.rollbacks, rep.lost_panels)
            } else {
                solver.plain(ctx, &mut a, &mut tau);
                (0, 0)
            };
            (a, events)
        }
    };
    let secs = t.elapsed().as_secs_f64();
    let residual = o
        .verify
        .then(|| solver.verify_residual(ctx, &DistMatrix::from_global_fn(ctx, desc, entry), &a, n, &tau));
    // Grid-wide per-phase traffic (collective; identical on all ranks).
    let traffic = pd_gather_traffic(ctx, 620);
    let wire = ctx.distributed().then(|| pd_gather_transport(ctx, 624));
    // Shrink report (collective): every rank contributes its adopted-rank
    // flags and agreement-stall seconds; rank 0 aggregates. The adopted
    // threads participate like any rank, so the gather is world-complete
    // even after the process count shrank.
    let shrink = o.shrink.then(|| {
        let world = o.world();
        let (flags, stall) = ctx.shrink_stats();
        if ctx.rank() == 0 {
            let mut ranks: Vec<usize> = (0..world).filter(|&r| flags[r]).collect();
            let mut stall_total = stall;
            for r in 1..world {
                let p = ctx.recv(r, 628u64);
                ranks.extend((0..world).filter(|&v| p[v] != 0.0));
                stall_total += p[world];
            }
            ranks.sort_unstable();
            (ranks, stall_total)
        } else {
            let mut payload: Vec<f64> = (0..world).map(|r| if flags[r] { 1.0 } else { 0.0 }).collect();
            payload.push(stall);
            ctx.send(0, 628u64, &payload);
            (Vec::new(), 0.0)
        }
    });
    let h = o.print_eigs.then(|| pd_extract_h(ctx, &a, n).gather_root(ctx, 626)).flatten();
    Ok(RankOutcome {
        secs,
        events,
        commit,
        residual,
        scrub,
        traffic,
        wire,
        shrink,
        h,
    })
}

/// Rank 0's report. Returns the exit code: 0, 1 if `--verify` failed, 3 if
/// the eigenvalue extraction did.
fn print_summary(o: &Opts, out: &RankOutcome) -> i32 {
    let Shape { n, solver, mode, .. } = o.shape;
    let gf = solver.flop_coef() * (n as f64).powi(3) / out.secs / 1e9;
    println!("time: {:.3} s  ({gf:.2} effective GFLOP/s)", out.secs);
    let (events, lost) = out.events;
    match mode {
        Mode::Plain => {}
        Mode::Cr => println!("rollbacks: {events}, lost panel iterations: {lost}"),
        // Arbitrary-point aborts exist only where kills are live: scripted
        // in-process, or any run over a real transport.
        _ if !o.faults.kills().is_empty() || o.distributed => println!("recoveries: {events}, chaos aborts: {lost}"),
        _ => println!("recoveries: {events}"),
    }
    if let (secs, words @ 1..) = out.commit {
        println!("commit (rank 0): {secs:.4} s in barriers and image captures, {words} words copied into images");
    }
    if let Some(s) = &out.scrub {
        print_scrub_summary(s);
    }
    println!("traffic (grid-wide, by phase):");
    for ph in TrafficPhase::ALL {
        let t = out.traffic.phase(ph);
        if t.msgs > 0 {
            println!("  {:<16} {:>12} bytes  {:>8} msgs", ph.name(), t.bytes, t.msgs);
        }
    }
    println!("  {:<16} {:>12} bytes  {:>8} msgs", "total", out.traffic.total_bytes(), out.traffic.total_msgs());
    if let Some((ranks, stall)) = &out.shrink {
        if ranks.is_empty() {
            println!("shrink: armed, no rank adopted");
        } else {
            println!("shrink (survivor-adopted ranks):");
            println!("  {:<22} {:?}", "adopted ranks", ranks);
            println!("  {:<22} {:>10} bytes", "redistributed", out.traffic.phase(TrafficPhase::Recovery).bytes);
            println!("  {:<22} {:>10.3} s", "agreement stall", stall);
        }
    }
    if let Some(wire) = &out.wire {
        print_transport_summary(wire);
    }
    if let Some(h) = &out.h {
        let mut ev = match hessenberg_eigenvalues(h) {
            Ok(ev) => ev,
            Err(e) => {
                eprintln!("eigenvalue extraction failed: {e:?}");
                return 3;
            }
        };
        ev.sort_by(|a, b| (a.re, a.im).partial_cmp(&(b.re, b.im)).unwrap());
        println!("eigenvalues ({}):", ev.len());
        for e in &ev {
            println!("eig {:+.15e} {:+.15e}", e.re, e.im);
        }
    }
    if let Some(r) = out.residual {
        println!("residual r_inf = {r:.4}  (paper threshold r_t = 3)");
        if r >= 3.0 {
            eprintln!("VERIFICATION FAILED");
            return 1;
        }
        println!("verification passed");
    }
    0
}

/// Turn one rank's result into its exit code: the typed rejection is
/// reported (exit 3), rank 0 prints the summary, everybody else is done.
fn finish(o: &Opts, rank: usize, res: Result<RankOutcome, FtError>) -> i32 {
    match res {
        Err(err) => {
            let who = if o.distributed { format!("rank {rank}: ") } else { String::new() };
            eprintln!("{who}UNRECOVERABLE: {err}");
            3
        }
        Ok(out) if rank == 0 => print_summary(o, &out),
        Ok(_) => 0,
    }
}

/// Run `rank` of the TCP fabric inside this process and return its exit
/// code. Partition agreement: every surviving rank lands in the `Err` arm
/// with the same typed error and the same code — no hang, no split verdicts
/// (DESIGN.md §16).
fn run_tcp_rank(o: &Opts, rank: usize, incarnation: u32, faults: FaultScript, setup: impl FnOnce(&Ctx)) -> i32 {
    let port_base = o.port_base.expect("checked in sanity_check");
    let cfg = TcpConfig {
        incarnation,
        faults: faults.clone(),
        ..o.hb.tcp_config(rank, o.world())
    };
    let transport = match TcpTransport::connect(cfg, port_base) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rank {rank}: transport connect failed: {e}");
            return 3;
        }
    };
    let run = run_distributed(o.shape.p, o.shape.q, faults, Box::new(transport), |ctx| {
        setup(&ctx);
        finish(o, rank, rank_body(&ctx, o))
    });
    match run {
        Ok(code) => code,
        Err(err @ CommError::Partitioned { .. }) => {
            eprintln!("rank {rank}: UNRECOVERABLE: {err}");
            3
        }
        Err(err) => {
            eprintln!("rank {rank}: transport: {err}");
            3
        }
    }
}

/// Host a dead peer's rank inside this process (elastic shrink): bind the
/// victim's freed port under its next incarnation, join the fabric exactly
/// like a launcher re-spawn would, and run the rank to completion through
/// the §5.3 replacement entry. The adopted rank's exit code is published
/// as an `FT_SHRINK_CODE` stdout marker so the launcher can honor rank 0's
/// verdict even when rank 0's original process is gone.
fn adopt_rank(mut o: Opts, victim: usize, incarnation: u32) {
    eprintln!("shrink: adopting rank {victim} (incarnation {incarnation})");
    // The incarnation doubles as the respawn counter, exactly as the
    // launcher's `--respawn` flag would.
    o.respawn = incarnation.max(1);
    // An adopted rank starts a fresh op clock mid-run: the wire faults
    // still apply to its links, the kills (all struck or moot) do not.
    let faults = o.faults.clone().with_kills(Vec::new());
    let code = run_tcp_rank(&o, victim, incarnation, faults, |_| {});
    println!("FT_SHRINK_CODE rank={victim} code={code}");
}

/// Child mode: run as rank `rank` of the TCP fabric and exit with the
/// rank's code. The parent launcher spawns one of these per rank.
fn child_main(o: Opts, rank: usize) -> ! {
    // Threads hosting adopted ranks (shrink mode). The process must outlive
    // them: their epilogue (collectives, the FT_SHRINK_CODE marker) runs
    // after this rank's own body has already returned.
    let adoptions: std::sync::Arc<std::sync::Mutex<Vec<std::thread::JoinHandle<()>>>> = Default::default();
    let code = run_tcp_rank(&o, rank, o.respawn, o.faults.clone(), |ctx| {
        // A replacement is told which kills already struck its predecessor
        // so they do not re-fire against the fresh op clock.
        ctx.mark_chaos_fired(&o.chaos_fired);
        if o.shrink {
            let (o2, adoptions) = (o.clone(), std::sync::Arc::clone(&adoptions));
            ctx.set_shrink_handler(move |victim, incarnation| {
                let o3 = o2.clone();
                let h = std::thread::spawn(move || adopt_rank(o3, victim, incarnation));
                adoptions.lock().unwrap().push(h);
            });
        }
    });
    for h in std::mem::take(&mut *adoptions.lock().unwrap()) {
        let _ = h.join();
    }
    exit(code)
}

/// Bind-probe a run of `world` consecutive free localhost ports in
/// [20000, 32768): below the kernel's ephemeral range, where some client
/// socket's `TIME_WAIT` can hold a port against `bind` for a minute whatever
/// `SO_REUSEADDR` says.
fn probe_port_base(world: usize) -> u16 {
    let pid = std::process::id();
    let span = (32768 - 20000u32).saturating_sub(world as u32).max(1);
    for attempt in 0..512u32 {
        let base = 20000 + ((pid.wrapping_mul(131).wrapping_add(attempt.wrapping_mul(977))) % span) as u16;
        let held: Vec<_> = (0..world)
            .map(|r| std::net::TcpListener::bind(("127.0.0.1", base + r as u16)))
            .collect();
        if held.iter().all(|l| l.is_ok()) {
            return base;
        }
    }
    fail("could not probe a free localhost port range; pass --port-base")
}

enum LauncherEvent {
    /// A child announced its scripted death (`FT_CHAOS_KILL` marker):
    /// SIGKILL it for real and re-spawn a replacement (or, with
    /// `--shrink`, leave it dead for the survivors to adopt).
    Marker { rank: usize, idx: usize },
    /// A surviving process finished hosting an adopted rank and reports
    /// that rank's exit code (`FT_SHRINK_CODE` marker) — the only route to
    /// rank 0's verdict when rank 0's original process is gone.
    ShrinkCode { rank: usize, code: i32 },
    /// A line of child stdout (rank 0's are passed through; under
    /// `--shrink` every process's, since rank 0 may be hosted anywhere).
    Line { rank: usize, line: String },
    /// A child's stdout closed — it is dead, reap it.
    Eof { rank: usize },
}

/// Parse `key=value` tokens of a launcher marker line.
fn marker_field<T: std::str::FromStr>(rest: &str, key: &str) -> Option<T> {
    rest.split_whitespace().find_map(|tok| tok.strip_prefix(key)?.parse().ok())
}

/// Spawn rank `rank` as a child process: the launcher's own command line,
/// verbatim, plus the internal child-mode flags — so a flag is declared in
/// `parse_args` and nowhere else.
fn spawn_rank(
    exe: &std::path::Path,
    probed_port_base: Option<u16>,
    rank: usize,
    incarnation: u32,
    fired: &[usize],
    tx: &std::sync::mpsc::Sender<LauncherEvent>,
) -> std::io::Result<std::process::Child> {
    let mut cmd = std::process::Command::new(exe);
    cmd.args(std::env::args_os().skip(1));
    cmd.arg("--rank").arg(rank.to_string());
    if let Some(base) = probed_port_base {
        cmd.arg("--port-base").arg(base.to_string());
    }
    if incarnation > 0 {
        cmd.arg("--respawn").arg(incarnation.to_string());
    }
    if !fired.is_empty() {
        let list: Vec<String> = fired.iter().map(|i| i.to_string()).collect();
        cmd.arg("--chaos-fired").arg(list.join(","));
    }
    cmd.stdout(std::process::Stdio::piped());
    cmd.stderr(std::process::Stdio::inherit());
    let mut child = cmd.spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let tx = tx.clone();
    std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("FT_CHAOS_KILL ") {
                if let (Some(rank), Some(idx)) = (marker_field(rest, "rank="), marker_field(rest, "idx=")) {
                    let _ = tx.send(LauncherEvent::Marker { rank, idx });
                    continue;
                }
            }
            if let Some(rest) = line.strip_prefix("FT_SHRINK_CODE ") {
                if let (Some(rank), Some(code)) = (marker_field(rest, "rank="), marker_field(rest, "code=")) {
                    let _ = tx.send(LauncherEvent::ShrinkCode { rank, code });
                    continue;
                }
            }
            let _ = tx.send(LauncherEvent::Line { rank, line });
        }
        let _ = tx.send(LauncherEvent::Eof { rank });
    });
    Ok(child)
}

/// Parent mode: spawn one child process per rank, SIGKILL chaos victims
/// when they announce their scripted death, re-spawn them as replacements,
/// and exit with rank 0's code.
fn parent_main(o: Opts) -> ! {
    let world = o.world();
    // Validate the liveness config once, up front — a bad FT_HB_* value or
    // CLI combination must not get as far as spawning children.
    let _ = o.hb.tcp_config(0, world);
    // A probed base is the one thing the children cannot read off the
    // launcher's own command line.
    let probed = o.port_base.is_none().then(|| probe_port_base(world));
    let port_base = o.port_base.or(probed).expect("given or probed");
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate own binary: {e}");
        exit(3)
    });
    println!(
        "abft-hessenberg (distributed): {} ports={}..{} kills={} seed={}",
        shape_line(&o.shape),
        port_base,
        port_base as usize + world - 1,
        o.faults.kills().len(),
        o.shape.seed
    );

    let (tx, rx) = std::sync::mpsc::channel();
    let mut children: Vec<Option<std::process::Child>> = Vec::with_capacity(world);
    for rank in 0..world {
        match spawn_rank(&exe, probed, rank, 0, &[], &tx) {
            Ok(c) => {
                // The pid marker lets external harnesses (stall soaks,
                // SIGSTOP tests) target a specific rank's process.
                println!("FT_RANK_SPAWN rank={rank} pid={} incarnation=0", c.id());
                children.push(Some(c));
            }
            Err(e) => {
                eprintln!("failed to spawn rank {rank}: {e}");
                for c in children.iter_mut().flatten() {
                    let _ = c.kill();
                }
                exit(3)
            }
        }
    }

    let deadline = Instant::now() + Duration::from_secs(600);
    let mut incarnation = vec![0u32; world];
    let mut pending_respawn = vec![false; world];
    // Shrink mode: ranks whose death is expected and final — no respawn;
    // a survivor adopts them and reports their code via FT_SHRINK_CODE.
    let mut shrunk = vec![false; world];
    let mut fired: Vec<usize> = Vec::new();
    let mut live = world;
    let mut code0: i32 = 3;
    while live > 0 {
        let timeout = deadline.saturating_duration_since(Instant::now());
        let ev = match rx.recv_timeout(timeout) {
            Ok(ev) => ev,
            Err(_) => {
                eprintln!("watchdog: distributed run exceeded its budget; killing all ranks");
                for c in children.iter_mut().flatten() {
                    let _ = c.kill();
                }
                exit(124)
            }
        };
        match ev {
            LauncherEvent::Marker { rank, idx } => {
                // The victim stalls on its marker until this very real
                // SIGKILL lands — peers see sockets drop, not a shutdown.
                if !fired.contains(&idx) {
                    fired.push(idx);
                }
                if let Some(c) = children.get_mut(rank).and_then(|c| c.as_mut()) {
                    let _ = c.kill();
                    if o.shrink {
                        // Final: the survivors must adopt this rank.
                        shrunk[rank] = true;
                        println!("launcher: SIGKILL rank {rank} (chaos kill #{idx}, shrink — no re-spawn)");
                    } else {
                        pending_respawn[rank] = true;
                        println!("launcher: SIGKILL rank {rank} (chaos kill #{idx})");
                    }
                }
            }
            LauncherEvent::ShrinkCode { rank, code } => {
                println!("launcher: adopted rank {rank} finished with code {code}");
                if rank == 0 {
                    code0 = code;
                }
            }
            LauncherEvent::Line { rank, line } => {
                // Under --shrink, rank 0 may end up hosted by any process,
                // so every survivor's stdout is passed through.
                if rank == 0 || o.shrink {
                    println!("{line}");
                }
            }
            LauncherEvent::Eof { rank } => {
                let status = children[rank].take().and_then(|mut c| c.wait().ok());
                if pending_respawn[rank] {
                    pending_respawn[rank] = false;
                    incarnation[rank] += 1;
                    match spawn_rank(&exe, probed, rank, incarnation[rank], &fired, &tx) {
                        Ok(c) => {
                            println!("launcher: re-spawned rank {rank} (incarnation {})", incarnation[rank]);
                            println!("FT_RANK_SPAWN rank={rank} pid={} incarnation={}", c.id(), incarnation[rank]);
                            children[rank] = Some(c);
                        }
                        Err(e) => {
                            eprintln!("failed to re-spawn rank {rank}: {e}");
                            live -= 1;
                        }
                    }
                } else {
                    live -= 1;
                    // A shrunk rank 0's SIGKILL status is meaningless; its
                    // verdict arrives via FT_SHRINK_CODE from its adopter.
                    if rank == 0 && !shrunk[0] {
                        code0 = status.and_then(|s| s.code()).unwrap_or(3);
                    }
                }
            }
        }
    }
    exit(code0)
}

/// `N=… nb=… grid=… solver=… variant=… redundancy=…` — the shape half of
/// both modes' header line.
fn shape_line(s: &Shape) -> String {
    let Shape { n, nb, p, q, solver, mode, redundancy, .. } = *s;
    format!("N={n} nb={nb} grid={p}x{q} solver={} variant={mode:?} redundancy={redundancy:?}", solver.name())
}

fn main() {
    // Serving-plane verbs (`serve` / `submit` / `serve-worker`) route
    // before the classic flag parser — they have their own flag grammar
    // (and `submit` must work without --distributed).
    if let Some(code) = serve_cli::route() {
        exit(code);
    }
    let o = parse_args();
    sanity_check(&o);
    // Before the in-process run, and before the launcher spawns a rank.
    check_recv_timeout();
    if let Some(rank) = o.rank {
        child_main(o, rank);
    }
    if o.distributed {
        parent_main(o);
    }
    // Ragged N is handled by the encoder (zero-padded to whole blocks, see
    // DESIGN.md §10) — no round-up needed.
    let Shape { p, q, seed, .. } = o.shape;
    println!("abft-hessenberg: {} failures={} seed={seed}", shape_line(&o.shape), o.faults.failures().len());
    let rank0 = run_spmd(p, q, o.faults.clone(), |ctx| rank_body(&ctx, &o))
        .into_iter()
        .next()
        .unwrap();
    exit(finish(&o, 0, rank0))
}
