//! The pool worker: one OS process per pool slot, owned by the daemon.
//!
//! A worker connects back to the daemon's control port, registers its slot,
//! and then blocks on the control stream waiting for assignments. Each
//! assignment carries everything needed to run one rank of one job: the
//! spec, this rank's position, the job fabric's port range, and (after a
//! whole-pool restart) a serialized checkpoint to resume from. Heartbeat
//! knobs are the `FT_HB_*` the worker inherits from the daemon. Multi-rank
//! jobs build a private [`TcpTransport`] fabric on their own port range —
//! fully disjoint from the control plane and from every other concurrent
//! job — while 1-rank jobs run on an in-process fabric with zero
//! connection setup.
//!
//! Failure containment: a worker that dies mid-job takes down only its own
//! rank. The job's surviving ranks detect the death through their fabric's
//! heartbeats and run the ordinary detect → agree → recover path; the
//! daemon respawns the slot and hands the fresh process a `replacement`
//! assignment so it rejoins the same fabric with a bumped incarnation.

use crate::job::{Assignment, JobResult, RejectReason, ASSIGN_STOP};
use ft_hess::{ft_solve, DriverControl, Encoded, FtCheckpoint, FtError};
use ft_pblas::{pd_gather_traffic, Desc, DistMatrix};
use ft_runtime::{jobs, run_distributed, Ctx, FaultScript, JobFrame, MpscTransport, Tag, TcpConfig, TcpTransport, Transport};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Send a frame on the shared control-stream writer, ignoring failures —
/// a dead daemon is detected by the blocking read loop, not here.
fn send(writer: &Arc<Mutex<TcpStream>>, frame: &JobFrame) {
    if let Ok(mut s) = writer.lock() {
        let _ = jobs::write_job_frame(&mut s, frame);
    }
}

/// Report a typed rejection of `job` (from rank/slot `seq`) to the daemon.
fn reject(writer: &Arc<Mutex<TcpStream>>, tenant: u32, job: u64, seq: usize, reason: RejectReason) {
    let frame = JobFrame {
        kind: jobs::KIND_REJECT,
        tenant,
        job,
        seq: seq as u64,
        payload: vec![reason.code()],
    };
    send(writer, &frame);
}

/// Run one rank of one job and report the outcome to the daemon.
fn run_assignment(job: u64, tenant: u32, a: Assignment, writer: &Arc<Mutex<TcpStream>>) {
    let spec = a.spec;
    let world = spec.ranks();
    let (n, nb) = (spec.n, spec.nb);
    let transport: Box<dyn Transport> = if world == 1 {
        Box::new(MpscTransport::fabric(1).remove(0))
    } else {
        // The pool's liveness knobs: the `FT_HB_*` this worker inherited
        // from the daemon, checked when it started.
        let mut cfg = TcpConfig {
            incarnation: a.incarnation,
            ..TcpConfig::new(a.job_rank, world)
        };
        cfg.apply_env().expect("FT_HB_* is checked at startup");
        match TcpTransport::connect(cfg, a.port_base) {
            Ok(t) => Box::new(t),
            Err(e) => {
                eprintln!("worker: job {job} rank {} fabric connect failed: {e}", a.job_rank);
                reject(writer, tenant, job, a.job_rank, RejectReason::WorkerLost);
                return;
            }
        }
    };
    let job_rank = a.job_rank;
    let replacement = a.replacement;
    let resume = a.resume;
    let matrix = spec.matrix.clone();
    let run = run_distributed(spec.p, spec.q, FaultScript::none(), transport, move |ctx: Ctx| {
        let t0 = Instant::now();
        let solver = spec.solver.ft();
        let mut enc = Encoded::with_redundancy(&ctx, n, nb, spec.redundancy, |i, j| matrix[i * n + j]);
        let mut tau = vec![0.0; solver.tau_len(n).max(1)];
        let mut start_panel = 0;
        if !resume.is_empty() {
            let restored = FtCheckpoint::from_bytes(&resume).and_then(|ck| ck.restore(&mut enc, &mut tau).map(|()| ck.panel()));
            match restored {
                Ok(panel) => start_panel = panel + 1,
                Err(e) => {
                    eprintln!("worker: job {job} rank {job_rank}: resume checkpoint unusable: {e}");
                    reject(writer, tenant, job, job_rank, RejectReason::BadRequest);
                    return;
                }
            }
        }
        // Scope-boundary checkpoint sink: every rank streams its local
        // snapshot to the daemon, which assembles complete per-panel sets
        // and persists the newest one. Replacements contribute too — a
        // panel set missing one rank is useless.
        let wtr = writer.clone();
        let sink_wtr = writer.clone();
        let mut sink = move |_ctx: &Ctx, enc: &Encoded, tau: &[f64], panel: usize| {
            let bytes = FtCheckpoint::capture(enc, tau, panel).to_bytes();
            let mut payload = vec![job_rank as f64, panel as f64, bytes.len() as f64];
            payload.extend_from_slice(&crate::job::pack_bytes(&bytes));
            send(
                &sink_wtr,
                &JobFrame {
                    kind: jobs::KIND_CKPT,
                    tenant,
                    job,
                    seq: panel as u64,
                    payload,
                },
            );
        };
        let mut ctl = DriverControl { start_panel, replacement, ..DriverControl::default() };
        if spec.ckpt {
            ctl.scope_sink = Some(&mut sink);
        }
        match ft_solve(&ctx, solver, &mut enc, spec.variant, &mut tau, ctl) {
            Ok(report) => {
                let a0 = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| matrix[i * n + j]);
                // The factorization residual only — the CLI's stricter
                // `verify_residual` would add `QᵀQ − I` per QR job.
                let residual = solver.residual(&ctx, &a0, &enc.a, n, &tau);
                let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                let factor = enc.gather_logical_root(&ctx, Tag::job(job, 0));
                let bytes = pd_gather_traffic(&ctx, Tag::job(job, 1)).total_bytes();
                let mut payload = vec![0.0];
                if let Some(m) = factor {
                    // Only rank 0 holds the gathered factorization.
                    let mut flat = Vec::with_capacity(n * n);
                    for i in 0..n {
                        for j in 0..n {
                            flat.push(m[(i, j)]);
                        }
                    }
                    let res = JobResult {
                        residual,
                        recoveries: report.recoveries as u64,
                        wall_ms,
                        bytes,
                        n,
                        factor: flat,
                        tau: tau.clone(),
                    };
                    payload = vec![1.0];
                    payload.extend_from_slice(&res.to_words());
                }
                send(
                    &wtr,
                    &JobFrame {
                        kind: jobs::KIND_RESULT,
                        tenant,
                        job,
                        seq: job_rank as u64,
                        payload,
                    },
                );
            }
            Err(err) => {
                // FtError is agreed identically on every rank; each rank
                // reports it and the daemon dedupes.
                let reason = match err {
                    FtError::ExceededCodeDistance { .. } => RejectReason::CodeDistance,
                    FtError::ScrubUnrecoverable { .. } => RejectReason::Unrecoverable,
                };
                reject(&wtr, tenant, job, job_rank, reason);
            }
        }
    });
    if let Err(err) = run {
        // The job fabric wedged (e.g. an unhealed partition): report the
        // rank as lost so the daemon fails the job instead of waiting out
        // its own watchdog. Other ranks of the job agree on the same error.
        eprintln!("worker: job {job} rank {job_rank}: fabric error: {err}");
        reject(writer, tenant, job, job_rank, RejectReason::WorkerLost);
    }
}

/// Worker process entry point: register with the daemon at `port` as pool
/// slot `slot`, then serve assignments until told to stop (or the daemon
/// goes away — a vanished control stream is a clean exit, the daemon owns
/// our lifetime).
pub fn worker_main(port: u16, slot: usize) -> i32 {
    let stream = match TcpStream::connect(("127.0.0.1", port)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("worker: cannot reach daemon on port {port}: {e}");
            return 3;
        }
    };
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("worker: stream clone failed: {e}");
            return 3;
        }
    };
    let writer = Arc::new(Mutex::new(stream));
    // Registration: an ACCEPT frame whose job field is the slot index.
    send(
        &writer,
        &JobFrame {
            kind: jobs::KIND_ACCEPT,
            tenant: 0,
            job: slot as u64,
            seq: 0,
            payload: Vec::new(),
        },
    );
    loop {
        let frame = match jobs::read_job_frame(&mut reader) {
            Ok(f) => f,
            Err(_) => return 0,
        };
        if frame.kind != jobs::KIND_SUBMIT {
            continue;
        }
        if frame.payload.first().copied() == Some(ASSIGN_STOP) {
            return 0;
        }
        match Assignment::from_words(&frame.payload[1..]) {
            Ok(a) => run_assignment(frame.job, frame.tenant, a, &writer),
            Err(e) => {
                eprintln!("worker: malformed assignment for job {}: {e}", frame.job);
                reject(&writer, frame.tenant, frame.job, 0, RejectReason::BadRequest);
            }
        }
    }
}
