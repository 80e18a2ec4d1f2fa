//! The serving plane's verbs: `serve` runs the daemon, `submit` is a
//! tenant's client, and `serve-worker` is one pool slot, spawned by the
//! daemon. Their flags are rows of [`abft_hessenberg::knobs::KNOBS`].
//! Exit codes follow the driver's contract: 0 ok, 1 residual above the
//! paper threshold, 2 usage/config, 3 typed rejection or I/O loss.

use crate::Shape;
use abft_hessenberg::dense::gen::uniform_entry;
use abft_hessenberg::knobs::{num, Args};
use abft_hessenberg::serve::{serve_main, worker_main, Client, Event, JobSpec, Limits, ServeConfig, SolverId};
use std::io::Write as _;
use std::path::PathBuf;

/// The daemon. Its workers inherit its environment, which `main` checked:
/// every job fabric's liveness knobs are the pool's, and a submit client's
/// `FT_HB_*` is never read.
pub fn serve(a: &Args) -> Result<i32, String> {
    let state_dir = a.opt("--state-dir", |v| Ok(PathBuf::from(v)))?;
    if let Some(dir) = &state_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("--state-dir: cannot create {}: {e}", dir.display()))?;
    }
    let exe = std::env::current_exe().map_err(|e| format!("serve: current_exe: {e}"))?;
    Ok(serve_main(ServeConfig {
        pool: a.get("--pool", num)?,
        port: a.get("--port", num)?,
        limits: Limits {
            queue_depth: a.get("--queue-depth", num)?,
            tenant_quota: a.get("--tenant-quota", num)?,
        },
        job_port_base: a.get("--job-ports", num)?,
        state_dir,
        worker_argv: vec![exe.to_string_lossy().into_owned(), "serve-worker".into()],
    }))
}

pub fn submit(a: &Args) -> Result<i32, String> {
    let shape = Shape::from_args(a)?;
    // Per-flag strictness is the table's; whether the grid is wide enough
    // for the redundancy is admission control, and the daemon's answer
    // (`bad-request`, exit 3) is the one every client gets.
    let variant = shape.mode.variant().ok_or("--variant: submit supports alg2 | alg3")?;
    let Shape { n, nb, p, q, redundancy, seed, .. } = shape;
    let solver = SolverId::from_name(shape.solver.name()).expect("every registered solver has a wire id");
    let port: u16 = a.get("--port", num)?;
    let (tenant, count, ckpt): (u32, usize, bool) = (a.get("--tenant", num)?, a.get("--count", num)?, a.has("--ckpt"));
    if a.has("--shutdown") {
        return Ok(match Client::shutdown(port) {
            Ok(()) => {
                say!("daemon on port {port} draining");
                0
            }
            Err(e) => {
                eprintln!("submit: shutdown failed: {e}");
                3
            }
        });
    }
    let mut client = match Client::connect(port, tenant) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("submit: cannot reach daemon on port {port}: {e}");
            return Ok(3);
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
            return Ok(3);
        }
    }
    let mut worst = 0i32;
    let mut repairs = 0u32;
    while client.outstanding() > 0 {
        match client.next_event() {
            Ok(Event::Accepted { job, seq }) => {
                say!("FT_SUBMIT_ACCEPT job={job} seq={seq}");
                let _ = std::io::stdout().flush();
            }
            Ok(Event::Rejected { job, seq, reason }) => {
                say!("FT_SUBMIT_REJECT job={job} seq={seq} reason={}", reason.name());
                let _ = std::io::stdout().flush();
                worst = worst.max(3);
            }
            Ok(Event::Completed { job, result }) => {
                say!(
                    "FT_SUBMIT_RESULT job={job} residual={:.4} recoveries={} wall_ms={:.1} bytes={}",
                    result.residual,
                    result.recoveries,
                    result.wall_ms,
                    result.bytes
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
                    return Ok(3);
                }
                eprintln!("submit: daemon connection lost ({e}); reconnect attempt {repairs}");
                std::thread::sleep(std::time::Duration::from_millis(100 * repairs as u64));
                let _ = client.recover(); // a failed reconnect retries on the next error
            }
        }
    }
    Ok(worst)
}

pub fn worker(a: &Args) -> Result<i32, String> {
    Ok(worker_main(a.get("--connect-port", num)?, a.get("--slot", num)?))
}
