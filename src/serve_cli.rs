//! CLI verbs for the serving plane: `serve` (run the daemon), `submit`
//! (tenant-side job submission), and `serve-worker` (internal, spawned by
//! the daemon — one per pool slot).
//!
//! ```text
//! abft-hessenberg serve [OPTIONS]
//!
//!   --pool <S>            worker slots in the pool (default 4)
//!   --port <P>            control-plane listen port (default: ephemeral,
//!                         announced via the FT_SERVE_LISTEN marker)
//!   --queue-depth <D>     max queued jobs across tenants (default 16)
//!   --tenant-quota <Q>    max queued+running jobs per tenant (default 4)
//!   --batch-max <B>       1-rank jobs dispatched per head-of-line sweep
//!                         (default 4)
//!   --job-ports <B>       base of the port window job fabrics use
//!                         (default 23000)
//!   --state-dir <DIR>     persist specs/checkpoints/orphan results here;
//!                         on startup, unfinished persisted jobs are
//!                         resumed from their newest checkpoint
//!   --hb-interval-ms, --hb-miss-limit, --conn-timeout-ms
//!                         heartbeat knobs for every job fabric, resolved
//!                         per-POOL: defaults ← FT_HB_* env ← these flags
//!                         (submit clients never read FT_HB_*, so daemon
//!                         and clients can disagree freely)
//!
//! abft-hessenberg submit [OPTIONS]
//!
//!   --port <P>            daemon control port (required)
//!   --n/--nb/--grid/--solver/--variant/--redundancy/--seed
//!                         job shape, as in the main driver (defaults
//!                         64 / 8 / 1x2 / hessenberg / alg2 / single)
//!   --tenant <T>          tenant id for quota accounting (default 0)
//!   --count <K>           submit K jobs (seeds S, S+1, …), pipelined
//!   --ckpt                ask the daemon to checkpoint this job so it
//!                         survives a whole-pool restart
//!   --shutdown            ask the daemon to drain and exit
//!
//! Exit codes follow the driver's contract: 0 ok, 1 residual above the
//! paper threshold, 2 usage/config, 3 typed rejection or I/O loss.
//! ```

use crate::{check_recv_timeout, fail, Args, HbFlags, Shape};
use abft_hessenberg::dense::gen::uniform_entry;
use abft_hessenberg::serve::{serve_main, worker_main, Client, Event, JobSpec, Limits, ServeConfig, SolverId};
use std::io::Write as _;
use std::path::PathBuf;

/// Route `serve` / `submit` / `serve-worker` verbs. Returns the process
/// exit code if the first argument was a serving verb, `None` otherwise
/// (the caller falls through to the classic flag parser).
pub fn route() -> Option<i32> {
    let mut argv = std::env::args().skip(1);
    let verb = argv.next()?;
    let args = Args(argv.collect::<Vec<_>>().into_iter());
    match verb.as_str() {
        "serve" => Some(serve_verb(args)),
        "submit" => Some(submit_verb(args)),
        "serve-worker" => Some(worker_verb(args)),
        _ => None,
    }
}

fn serve_verb(mut args: Args) -> i32 {
    let mut pool = 4usize;
    let mut port = 0u16;
    let mut limits = Limits::default();
    let mut job_ports = 23000u16;
    let mut state_dir: Option<PathBuf> = None;
    let mut hb = HbFlags::default();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        if hb.parse_flag(flag, &mut args) {
            continue;
        }
        match flag {
            "--pool" => pool = args.positive(flag),
            "--port" => port = args.num(flag),
            "--queue-depth" => limits.queue_depth = args.num(flag),
            "--tenant-quota" => limits.tenant_quota = args.num(flag),
            "--batch-max" => limits.batch_max = args.num(flag),
            "--job-ports" => job_ports = args.num(flag),
            "--state-dir" => state_dir = Some(PathBuf::from(args.val(flag))),
            a => fail(&format!("serve: unknown flag {a}")),
        }
    }
    if let Some(dir) = &state_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            fail(&format!("serve: cannot create --state-dir {}: {e}", dir.display()));
        }
    }
    // Per-POOL heartbeat resolution through the driver's own overlay
    // (defaults ← FT_HB_* env ← flags), so set-but-invalid values die as
    // usage errors (exit 2) here at the daemon — and ONLY here: submit
    // clients and workers never consult the environment.
    let cfg = hb.tcp_config(0, pool.max(2));
    check_recv_timeout();
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("serve: current_exe: {e}")));
    serve_main(ServeConfig {
        pool,
        port,
        limits,
        job_port_base: job_ports,
        state_dir,
        hb_interval_ms: cfg.hb_interval.as_millis() as u64,
        hb_miss_limit: cfg.hb_miss_limit,
        conn_timeout_ms: cfg.conn_timeout.as_millis() as u64,
        worker_argv: vec![exe.to_string_lossy().into_owned(), "serve-worker".into()],
    })
}

fn submit_verb(mut args: Args) -> i32 {
    let mut port: Option<u16> = None;
    // The driver's shape flags with submit's (smaller) defaults.
    let mut shape = Shape { n: 64, nb: 8, p: 1, q: 2, ..Shape::default() };
    let mut tenant = 0u32;
    let mut count = 1usize;
    let mut ckpt = false;
    let mut shutdown = false;
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        if shape.parse_flag(flag, &mut args) {
            continue;
        }
        match flag {
            "--port" => port = Some(args.num(flag)),
            "--tenant" => tenant = args.num(flag),
            "--count" => count = args.num(flag),
            "--ckpt" => ckpt = true,
            "--shutdown" => shutdown = true,
            a => fail(&format!("submit: unknown flag {a}")),
        }
    }
    // Per-flag strictness is the driver's; whether the grid is wide enough
    // for the redundancy is admission control, and the daemon's answer
    // (`bad-request`, exit 3) is the one every client gets.
    let Some(variant) = shape.mode.variant() else {
        fail("--variant: submit supports alg2 | alg3")
    };
    let Shape { n, nb, p, q, redundancy, seed, .. } = shape;
    let solver = SolverId::from_name(shape.solver.name()).expect("every registered solver has a wire id");
    let Some(port) = port else {
        fail("submit: --port is required")
    };
    if shutdown {
        return match Client::shutdown(port) {
            Ok(()) => {
                println!("daemon on port {port} draining");
                0
            }
            Err(e) => {
                eprintln!("submit: shutdown failed: {e}");
                3
            }
        };
    }
    let mut client = match Client::connect(port, tenant) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("submit: cannot reach daemon on port {port}: {e}");
            return 3;
        }
    };
    // Pipelined: fire all submissions, then drain events until every job
    // has a terminal reply.
    for k in 0..count {
        let s = seed + k as u64;
        let spec = JobSpec {
            solver,
            variant,
            redundancy,
            n,
            nb,
            p,
            q,
            ckpt,
            matrix: (0..n * n).map(|idx| uniform_entry(s, idx / n, idx % n)).collect(),
        };
        if let Err(e) = client.submit(&spec) {
            eprintln!("submit: send failed: {e}");
            return 3;
        }
    }
    let mut worst = 0i32;
    let mut repairs = 0u32;
    while client.outstanding() > 0 {
        match client.next_event() {
            Ok(Event::Accepted { job, seq }) => {
                println!("FT_SUBMIT_ACCEPT job={job} seq={seq}");
                let _ = std::io::stdout().flush();
            }
            Ok(Event::Rejected { job, seq, reason }) => {
                println!("FT_SUBMIT_REJECT job={job} seq={seq} reason={}", reason.name());
                let _ = std::io::stdout().flush();
                worst = worst.max(3);
            }
            Ok(Event::Completed { job, result }) => {
                println!(
                    "FT_SUBMIT_RESULT job={job} residual={:.4} recoveries={} wall_ms={:.1} bytes={}",
                    result.residual, result.recoveries, result.wall_ms, result.bytes
                );
                let _ = std::io::stdout().flush();
                if result.residual >= 3.0 {
                    eprintln!("submit: job {job} residual {:.4} above the paper threshold", result.residual);
                    worst = worst.max(1);
                }
            }
            Err(e) => {
                // The control connection broke with jobs still in flight:
                // reconnect and replay every unfinished submission under
                // its original sequence number. The daemon's client-id
                // dedup makes the replay idempotent — running jobs are
                // re-targeted, finished ones replayed from cache.
                repairs += 1;
                if repairs > 5 {
                    eprintln!("submit: daemon connection lost: {e}");
                    return 3;
                }
                eprintln!("submit: daemon connection lost ({e}); reconnect attempt {repairs}");
                std::thread::sleep(std::time::Duration::from_millis(100 * repairs as u64));
                let _ = client.recover(); // a failed reconnect retries on the next error
            }
        }
    }
    worst
}

fn worker_verb(mut args: Args) -> i32 {
    let mut port: Option<u16> = None;
    let mut slot: Option<usize> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect-port" => port = Some(args.num("--connect-port")),
            "--slot" => slot = Some(args.num("--slot")),
            a => fail(&format!("serve-worker: unknown flag {a}")),
        }
    }
    match (port, slot) {
        (Some(p), Some(s)) => worker_main(p, s),
        _ => fail("serve-worker: --connect-port and --slot are required"),
    }
}
