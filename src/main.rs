//! `abft-hessenberg` — command-line driver for the solver-agnostic ABFT
//! framework: a fault-tolerant Hessenberg reduction or Householder QR, in
//! one process or as one process per rank (`--distributed`), and the
//! persistent job service (`serve` / `submit`, see `serve_cli`). Every flag
//! and `FT_*` variable is a row of [`abft_hessenberg::knobs::KNOBS`]; each
//! verb's `--help` prints its rows.

use abft_hessenberg::dense::gen::uniform_entry;
use abft_hessenberg::dense::Matrix;
use abft_hessenberg::hess::{
    cr_pdgehrd, failpoint, ft_solve, DriverControl, Encoded, FtError, FtSolver, Hessenberg, Phase, Redundancy, ScrubPolicy,
    ScrubReport,
};
use abft_hessenberg::knobs::{self, num, Args, Mode, Verb};
use abft_hessenberg::lapack::hessenberg_eigenvalues;
use abft_hessenberg::pblas::{pd_extract_h, pd_gather_traffic, pd_gather_transport, Desc, DistMatrix};
use abft_hessenberg::runtime::{
    catch_comm_error, poisson_failures, run_distributed, run_spmd, CommError, Ctx, FaultScript, PeerCounters, PlannedFailure,
    TcpConfig, TcpTransport, TrafficLedger, TrafficPhase, TransportStats,
};
use std::io::{BufRead, Write};
use std::process::exit;
use std::time::{Duration, Instant};

/// `println!` that ignores a closed stdout (`abft-hessenberg … | head -1`):
/// the launcher keeps reaping its ranks and every run exits with its own
/// code instead of panicking on the first line nobody reads.
macro_rules! say {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

mod serve_cli;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\nrun with --help for usage");
    exit(2)
}

/// The job shape, shared by the driver and `submit` (only the table's
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

impl Shape {
    fn from_args(a: &Args) -> Result<Shape, String> {
        let (p, q) = a.get("--grid", knobs::grid)?;
        Ok(Shape {
            n: a.get("--n", num)?,
            nb: a.get("--nb", num)?,
            p,
            q,
            solver: a.get("--solver", knobs::solver)?,
            mode: a.get("--variant", knobs::mode)?,
            redundancy: a.get("--redundancy", knobs::redundancy)?,
            seed: a.get("--seed", num)?,
        })
    }
}

#[derive(Clone)]
struct Opts {
    shape: Shape,
    /// The run's one fault script: the `--faults` items plus the
    /// `--fail` / `--mtti` fail-point failures.
    faults: FaultScript,
    scrub_every: Option<usize>,
    cr_interval: usize,
    verify: bool,
    // Distributed (TCP multi-process) mode.
    distributed: bool,
    rank: Option<usize>,
    port_base: Option<u16>,
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

fn opts(a: &Args) -> Result<Opts, String> {
    let shape = Shape::from_args(a)?;
    let Shape { n, nb, p, q, solver, seed, .. } = shape;
    let mut failures: Vec<PlannedFailure> = a.all("--fail").map(knobs::fail_point).collect::<Result<_, _>>()?;
    if let Some(mtti) = a.opt("--mtti", num)? {
        let poisson = poisson_failures(solver.panel_count(n, nb) as u64, mtti, p * q, seed);
        failures.extend(poisson.into_iter().map(|f| PlannedFailure {
            victim: f.victim,
            point: failpoint(f.point as usize, Phase::AfterLeftUpdate),
        }));
    }
    // The grammar belongs to the runtime; it needs the grid (rank
    // references) and the op window (seeded events), both known only now.
    // No flag = a bare seed = the empty script.
    let script = FaultScript::parse(a.all("--faults").last().unwrap_or("0"), p * q, 50..op_hi(&shape))
        .map_err(|e| format!("--faults: {e}"))?;
    Ok(Opts {
        shape,
        faults: script.with_failures(failures),
        scrub_every: a.opt("--scrub-every", num)?,
        cr_interval: a.get("--cr-interval", num)?,
        verify: a.has("--verify"),
        distributed: a.has("--distributed"),
        rank: a.opt("--rank", num)?,
        port_base: a.opt("--port-base", num)?,
        shrink: a.has("--shrink"),
        respawn: a.get("--respawn", num)?,
        chaos_fired: a.opt("--chaos-fired", knobs::list)?.unwrap_or_default(),
        print_eigs: a.has("--print-eigs"),
    })
}

fn print_scrub_summary(s: &ScrubReport) {
    say!("scrub (grid-wide, aggregated):");
    say!("  {:<22} {:>10}", "scans", s.scans);
    say!("  {:<22} {:>10}", "detections", s.detections);
    say!("  {:<22} {:>10}", "corrections", s.corrections);
    say!("  {:<22} {:>10}", "checksum repairs", s.chk_repairs);
    say!("  {:<22} {:>10}", "area-3 repairs", s.area3_repairs);
    say!("  {:<22} {:>10}", "escalations", s.escalations);
    say!("  {:<22} {:>10}", "rollbacks", s.rollbacks);
    say!("  {:<22} {:>10.4}", "scan seconds (mean)", s.scan_secs);
    say!("  {:<22} {:>10.3e}", "residual mass (frob2)", s.residual_mass);
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
        say!("  {label:>4}{cells}");
    };
    say!("transport (grid-wide, by peer):");
    line("peer", &|col| col.0.to_string());
    for (r, c) in stats.peers.iter().enumerate() {
        line(&r.to_string(), &|col| (col.2)(c).to_string());
    }
    let all = stats.total();
    line("all", &|col| (col.2)(&all).to_string());
}

/// Flag combinations that make no sense together, rejected identically in
/// both in-process and distributed modes (exit 2). A flag that needs
/// another is the table's check.
fn sanity_check(o: &Opts) -> Result<(), String> {
    let Shape { solver, mode, redundancy, q, .. } = o.shape;
    // The encoder asserts this; say it as a usage error before anything runs.
    if q < redundancy.min_q() {
        let (f, min_q) = (redundancy.max_failures_per_row(), redundancy.min_q());
        return Err(format!("--redundancy {f} needs Q >= {min_q} process columns for its checksums (got Q = {q})"));
    }
    // `cr` is the Hessenberg checkpoint/restart baseline and the spectrum
    // needs the Hessenberg form: features of that one solver, not framework
    // dispatch.
    let other = solver.name();
    if other != Hessenberg.name() && mode == Mode::Cr {
        return Err(format!(
            "--variant cr is the Hessenberg checkpoint/restart baseline; not available with --solver {other}"
        ));
    }
    if other != Hessenberg.name() && o.print_eigs {
        return Err(format!(
            "--print-eigs needs the Hessenberg form (no spectrum to extract); not available with --solver {other}"
        ));
    }
    let abft = mode.variant().is_some();
    let (kills, flips) = (!o.faults.kills().is_empty(), !o.faults.flips().is_empty());
    if kills && !abft {
        return Err("--faults kill= / at= need --variant alg2 or alg3 (the others never arm the injector)".into());
    }
    if (flips || o.scrub_every.is_some()) && !abft {
        return Err(
            "--faults flip= / --scrub-every need --variant alg2 or alg3 (the scrub engine lives in the ABFT driver)".into(),
        );
    }
    if !o.distributed && !o.faults.net_is_empty() {
        return Err("--faults wire items (drop= delay= dup= reorder= corrupt= reset= part=) need --distributed".into());
    }
    if !o.distributed {
        return Ok(());
    }
    let world = o.world();
    if flips {
        return Err("--faults flip= assumes the in-process flip injector; not available with --distributed".into());
    }
    if mode == Mode::Cr {
        return Err("--variant cr is not available with --distributed".into());
    }
    if o.shrink && !abft {
        return Err("--shrink needs --variant alg2 or alg3 (an adopted rank re-enters through ABFT recovery)".into());
    }
    match o.rank {
        Some(r) if r >= world => Err(format!("--rank {r} is outside the {world}-rank grid")),
        _ => Ok(()),
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
                let rep = cr_pdgehrd(ctx, &mut a, o.cr_interval, &mut tau);
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
    // Shrink report (collective): every rank's adopted-rank flags and
    // agreement-stall seconds, summed over the world. The adopted threads
    // participate like any rank, so the sum is world-complete even after
    // the process count shrank.
    let shrink = o.shrink.then(|| {
        let (flags, stall) = ctx.shrink_stats();
        let mut row: Vec<f64> = flags.iter().map(|&f| f64::from(u8::from(f))).chain([stall]).collect();
        ctx.allreduce_sum_world(&mut row, 628u64);
        let world = flags.len();
        ((0..world).filter(|&r| row[r] != 0.0).collect(), row[world])
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
    say!("time: {:.3} s  ({gf:.2} effective GFLOP/s)", out.secs);
    let (events, lost) = out.events;
    match mode {
        Mode::Plain => {}
        Mode::Cr => say!("rollbacks: {events}, lost panel iterations: {lost}"),
        // Arbitrary-point aborts exist only where kills are live: scripted
        // in-process, or any run over a real transport.
        _ if !o.faults.kills().is_empty() || o.distributed => say!("recoveries: {events}, chaos aborts: {lost}"),
        _ => say!("recoveries: {events}"),
    }
    if let (secs, words @ 1..) = out.commit {
        say!("commit (rank 0): {secs:.4} s in barriers and image captures, {words} words copied into images");
    }
    if let Some(s) = &out.scrub {
        print_scrub_summary(s);
    }
    say!("traffic (grid-wide, by phase):");
    for ph in TrafficPhase::ALL {
        let t = out.traffic.phase(ph);
        if t.msgs > 0 {
            say!("  {:<16} {:>12} bytes  {:>8} msgs", ph.name(), t.bytes, t.msgs);
        }
    }
    say!("  {:<16} {:>12} bytes  {:>8} msgs", "total", out.traffic.total_bytes(), out.traffic.total_msgs());
    if let Some((ranks, stall)) = &out.shrink {
        if ranks.is_empty() {
            say!("shrink: armed, no rank adopted");
        } else {
            say!("shrink (survivor-adopted ranks):");
            say!("  {:<22} {:?}", "adopted ranks", ranks);
            say!("  {:<22} {:>10} bytes", "redistributed", out.traffic.phase(TrafficPhase::Recovery).bytes);
            say!("  {:<22} {:>10.3} s", "agreement stall", stall);
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
        say!("eigenvalues ({}):", ev.len());
        for e in &ev {
            say!("eig {:+.15e} {:+.15e}", e.re, e.im);
        }
    }
    if let Some(r) = out.residual {
        say!("residual r_inf = {r:.4}  (paper threshold r_t = 3)");
        if r >= 3.0 {
            eprintln!("VERIFICATION FAILED");
            return 1;
        }
        say!("verification passed");
    }
    0
}

/// Turn one rank's result into its exit code: the typed rejection — the
/// solver's beyond-tolerance verdict, or a blocking call's deadline caught
/// as [`CommError`] — is reported (exit 3), rank 0 prints the summary,
/// everybody else is done. In-process and distributed runs end alike.
fn finish(o: &Opts, rank: usize, res: Result<Result<RankOutcome, FtError>, CommError>) -> i32 {
    let (what, err) = match res {
        Ok(Ok(out)) if rank == 0 => return print_summary(o, &out),
        Ok(Ok(_)) => return 0,
        Ok(Err(err)) => ("UNRECOVERABLE", err.to_string()),
        Err(err @ CommError::Partitioned { .. }) => ("UNRECOVERABLE", err.to_string()),
        Err(err) => ("transport", err.to_string()),
    };
    let who = if o.distributed { format!("rank {rank}: ") } else { String::new() };
    eprintln!("{who}{what}: {err}");
    3
}

/// Run `rank` of the TCP fabric inside this process and return its exit
/// code. Its liveness knobs are the `FT_HB_*` it inherited, checked at
/// startup. Partition agreement: every surviving rank lands in the same
/// typed error and the same code — no hang, no split verdicts (DESIGN.md
/// §16).
fn run_tcp_rank(o: &Opts, rank: usize, incarnation: u32, faults: FaultScript, setup: impl FnOnce(&Ctx)) -> i32 {
    let port_base = o.port_base.expect("--rank and an adopted rank have a port base");
    let mut cfg = TcpConfig {
        incarnation,
        faults: faults.clone(),
        ..TcpConfig::new(rank, o.world())
    };
    cfg.apply_env().expect("FT_HB_* is checked at startup");
    let transport = match TcpTransport::connect(cfg, port_base) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rank {rank}: transport connect failed: {e}");
            return 3;
        }
    };
    let run = run_distributed(o.shape.p, o.shape.q, faults, Box::new(transport), |ctx| {
        setup(&ctx);
        rank_body(&ctx, o)
    });
    finish(o, rank, run)
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
    say!("FT_SHRINK_CODE rank={victim} code={code}");
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
/// the knob table and nowhere else, and the environment is inherited.
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
    // A probed base is the one thing the children cannot read off the
    // launcher's own command line.
    let probed = o.port_base.is_none().then(|| probe_port_base(world));
    let port_base = o.port_base.or(probed).expect("given or probed");
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate own binary: {e}");
        exit(3)
    });
    say!(
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
                say!("FT_RANK_SPAWN rank={rank} pid={} incarnation=0", c.id());
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
                        say!("launcher: SIGKILL rank {rank} (chaos kill #{idx}, shrink — no re-spawn)");
                    } else {
                        pending_respawn[rank] = true;
                        say!("launcher: SIGKILL rank {rank} (chaos kill #{idx})");
                    }
                }
            }
            LauncherEvent::ShrinkCode { rank, code } => {
                say!("launcher: adopted rank {rank} finished with code {code}");
                if rank == 0 {
                    code0 = code;
                }
            }
            LauncherEvent::Line { rank, line } => {
                // Under --shrink, rank 0 may end up hosted by any process,
                // so every survivor's stdout is passed through.
                if rank == 0 || o.shrink {
                    say!("{line}");
                }
            }
            LauncherEvent::Eof { rank } => {
                let status = children[rank].take().and_then(|mut c| c.wait().ok());
                if pending_respawn[rank] {
                    pending_respawn[rank] = false;
                    incarnation[rank] += 1;
                    match spawn_rank(&exe, probed, rank, incarnation[rank], &fired, &tx) {
                        Ok(c) => {
                            say!("launcher: re-spawned rank {rank} (incarnation {})", incarnation[rank]);
                            say!("FT_RANK_SPAWN rank={rank} pid={} incarnation={}", c.id(), incarnation[rank]);
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
    let mut argv = std::env::args().skip(1).peekable();
    // The first word names a verb, or the driver's flags begin.
    let verb = Verb::ALL[1..]
        .iter()
        .copied()
        .find(|v| argv.next_if(|w| w == v.name()).is_some())
        .unwrap_or(Verb::Run);
    let args = knobs::parse(verb, argv).unwrap_or_else(|e| fail(&e));
    if args.help {
        let _ = std::io::stdout().write_all(knobs::help(verb).as_bytes());
        exit(0)
    }
    // Before any rank starts: in process, in the launcher and in each of
    // its children, in the daemon and in each of its workers.
    knobs::check_env(verb).unwrap_or_else(|e| fail(&e));
    let code = match verb {
        Verb::Run => run(&args),
        Verb::Serve => serve_cli::serve(&args),
        Verb::Submit => serve_cli::submit(&args),
        Verb::Worker => serve_cli::worker(&args),
    };
    exit(code.unwrap_or_else(|e| fail(&e)))
}

fn run(a: &Args) -> Result<i32, String> {
    let o = opts(a)?;
    sanity_check(&o)?;
    if let Some(rank) = o.rank {
        child_main(o, rank);
    }
    if o.distributed {
        parent_main(o);
    }
    // Ragged N is handled by the encoder (zero-padded to whole blocks, see
    // DESIGN.md §10) — no round-up needed.
    let Shape { p, q, seed, .. } = o.shape;
    say!("abft-hessenberg: {} failures={} seed={seed}", shape_line(&o.shape), o.faults.failures().len());
    let rank0 = run_spmd(p, q, o.faults.clone(), |ctx| catch_comm_error(|| rank_body(&ctx, &o)))
        .into_iter()
        .next()
        .unwrap();
    Ok(finish(&o, 0, rank0))
}
