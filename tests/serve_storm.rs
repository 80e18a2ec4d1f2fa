//! Multi-tenant storm tests for the job daemon: concurrent tenants across
//! both solvers with a genuine SIGKILL mid-job, typed backpressure under
//! quota and queue pressure, and the per-pool heartbeat-knob contract.
//!
//! Each test shells out to the built binary's `serve` verb (which spawns
//! one worker process per pool slot) and drives it through the library
//! [`Client`]. Ports are disjoint per test so the suite can run parallel.

mod serve_util;

use abft_hessenberg::hess::{ft_pdgehrd, ft_pdgeqrf, Encoded, FtSolver, Hessenberg, HouseholderQr, Redundancy, Variant};
use abft_hessenberg::pblas::{pd_hessenberg_residual, pd_qr_residual, Desc, DistMatrix};
use abft_hessenberg::runtime::{run_spmd, FaultScript};
use abft_hessenberg::serve::{Client, Event, JobResult, JobSpec, RejectReason, SolverId};
use serve_util::{field, join_within, spec, Daemon, BIN, WALL_LIMIT};
use std::process::Command;
use std::time::{Duration, Instant};

/// Fault-free in-process reference for a 1×2 job: the factor rank 0 would
/// gather, the Householder scalars, and the verification residual — what
/// an unperturbed tenant's daemon result must match to 1e-10.
fn reference(s: &JobSpec) -> (Vec<f64>, Vec<f64>, f64) {
    let (n, nb) = (s.n, s.nb);
    let m = s.matrix.clone();
    let sol = s.solver;
    let out = run_spmd(1, 2, FaultScript::none(), move |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, n, nb, Redundancy::Single, |i, j| m[i * n + j]);
        let tau_len = match sol {
            SolverId::Hessenberg => Hessenberg.tau_len(n),
            SolverId::Qr => HouseholderQr.tau_len(n),
        };
        let mut tau = vec![0.0; tau_len.max(1)];
        match sol {
            SolverId::Hessenberg => ft_pdgehrd(&ctx, &mut enc, Variant::NonDelayed, &mut tau).expect("fault-free"),
            SolverId::Qr => ft_pdgeqrf(&ctx, &mut enc, Variant::NonDelayed, &mut tau).expect("fault-free"),
        };
        let a0 = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| m[i * n + j]);
        let r = match sol {
            SolverId::Hessenberg => pd_hessenberg_residual(&ctx, &a0, &enc.a, n, &tau),
            SolverId::Qr => pd_qr_residual(&ctx, &a0, &enc.a, n, &tau),
        };
        enc.gather_logical_root(&ctx, 700u32).map(|g| {
            let mut flat = Vec::with_capacity(n * n);
            for i in 0..n {
                for j in 0..n {
                    flat.push(g[(i, j)]);
                }
            }
            (flat, tau, r)
        })
    });
    out.into_iter().flatten().next().expect("rank 0 result")
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "result shape mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// The tentpole scenario: four tenants, both solvers, all on concurrent
/// disjoint 2-rank fabrics; one busy worker is SIGKILLed mid-factorization.
/// The victim's job must recover transparently through the ABFT path
/// (recoveries ≥ 1, residual under the paper threshold) while every other
/// tenant's job completes matching its fault-free reference.
#[test]
fn four_tenants_two_solvers_survive_one_sigkill() {
    let state = std::env::temp_dir().join(format!("ft-serve-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let d = Daemon::spawn(
        8,
        &[
            "--job-ports",
            "25000",
            "--state-dir",
            state.to_str().expect("utf-8 temp path"),
        ],
    );
    let port = d.port;
    // Tenant 0's job is the designated victim. It checkpoints, so the kill
    // can wait for its first scope to close: its first complete checkpoint
    // set on disk puts the driver past panel 1 of 40, on any host speed.
    let victim_spec = spec(SolverId::Hessenberg, 640, 16, 2, 41, true);
    let others: Vec<(u32, JobSpec)> = vec![
        (1, spec(SolverId::Qr, 160, 8, 2, 42, false)),
        (2, spec(SolverId::Hessenberg, 160, 8, 2, 43, false)),
        (3, spec(SolverId::Qr, 160, 8, 2, 44, false)),
    ];
    let refs: Vec<(Vec<f64>, Vec<f64>, f64)> = others.iter().map(|(_, s)| reference(s)).collect();

    let vs = victim_spec;
    let victim = std::thread::spawn(move || {
        let mut c = Client::connect(port, 0).expect("victim connect");
        c.run(&vs).expect("victim io")
    });
    // The victim job is submitted first and the pool has slots for all
    // four, so its ASSIGN marker identifies its two worker pids.
    let assign = d.wait_marker("tenant=0 ");
    let other_handles: Vec<_> = others
        .iter()
        .map(|(tenant, s)| {
            let (t, s) = (*tenant, s.clone());
            std::thread::spawn(move || {
                let mut c = Client::connect(port, t).expect("tenant connect");
                c.run(&s).expect("tenant io")
            })
        })
        .collect();
    let ckpt = state.join(format!("job-{}.ckpt", field(&assign, "job=")));
    let deadline = Instant::now() + WALL_LIMIT;
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "the victim never checkpointed:\n{}", d.dump());
        std::thread::sleep(Duration::from_millis(2));
    }
    let pid = field(&assign, "pids=").split(',').nth(1).expect("two pids").to_string();
    Command::new("kill").args(["-9", &pid]).status().expect("deliver SIGKILL");

    let victim_result: JobResult = join_within(victim, "victim job", &d).expect("victim must complete, not reject");
    assert!(
        victim_result.recoveries >= 1,
        "kill did not land mid-job (recoveries = 0) — victim finished too fast?\n{}",
        d.dump()
    );
    assert!(victim_result.residual < 3.0, "victim residual {}", victim_result.residual);
    d.wait_marker("FT_SERVE_REPLACE job=");

    for (h, ((tenant, _), (rf, rtau, rres))) in other_handles.into_iter().zip(others.iter().zip(&refs)) {
        let got: JobResult = join_within(h, "tenant job", &d).expect("tenant must complete, not reject");
        assert!(got.residual < 3.0, "tenant {tenant} residual {}", got.residual);
        assert!(
            (got.residual - rres).abs() <= 1e-10,
            "tenant {tenant}: residual {} vs in-process reference {rres}",
            got.residual
        );
        assert!(
            max_abs_diff(&got.factor, rf) <= 1e-10,
            "tenant {tenant}: factor deviates from the fault-free reference"
        );
        assert!(max_abs_diff(&got.tau, rtau) <= 1e-10, "tenant {tenant}: tau deviates");
    }
    d.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

/// Backpressure is typed and layered: a tenant at its quota gets
/// `QuotaExceeded` even while the global queue has room; once the bounded
/// queue fills, other tenants get `QueueFull`; every admitted job still
/// finishes.
#[test]
fn quota_and_queue_backpressure_reject_typed() {
    let d = Daemon::spawn(1, &["--tenant-quota", "2", "--queue-depth", "2", "--job-ports", "27100"]);
    let port = d.port;
    let h = std::thread::spawn(move || {
        let mut a = Client::connect(port, 7).expect("tenant A");
        // Big enough (about 0.2 s on one rank; N = 320 took 25 ms and lost
        // the race about one run in ten) that the head job is still running
        // while both tenants' submissions are admitted — otherwise an early
        // completion drains the queue mid-test.
        let s = spec(SolverId::Hessenberg, 640, 8, 1, 50, false);
        // A: first job dispatches onto the only slot, second queues, third
        // is over tenant 7's quota of 2 (queued + running).
        for _ in 0..3 {
            a.submit(&s).expect("pipelined submit");
        }
        let mut a_accepted = Vec::new();
        let mut a_rejects = Vec::new();
        for _ in 0..3 {
            match a.next_event().expect("admission reply") {
                Event::Accepted { job, .. } => a_accepted.push(job),
                Event::Rejected { reason, .. } => a_rejects.push(reason),
                Event::Completed { .. } => panic!("result before all admission replies"),
            }
        }
        // B: a different tenant is under ITS quota, but the global queue
        // (depth 2: A's queued job + B's first) is full for the second.
        let mut b = Client::connect(port, 8).expect("tenant B");
        b.submit(&s).expect("B submit 1");
        b.submit(&s).expect("B submit 2");
        let mut b_accepted = Vec::new();
        let mut b_rejects = Vec::new();
        for _ in 0..2 {
            match b.next_event().expect("B admission reply") {
                Event::Accepted { job, .. } => b_accepted.push(job),
                Event::Rejected { reason, .. } => b_rejects.push(reason),
                Event::Completed { .. } => panic!("result before admission replies"),
            }
        }
        // Every admitted job still completes under the paper threshold.
        let mut residuals = Vec::new();
        for _ in 0..2 {
            match a.next_event().expect("A result") {
                Event::Completed { result, .. } => residuals.push(result.residual),
                e => panic!("unexpected {e:?}"),
            }
        }
        match b.next_event().expect("B result") {
            Event::Completed { result, .. } => residuals.push(result.residual),
            e => panic!("unexpected {e:?}"),
        }
        (a_accepted, a_rejects, b_accepted, b_rejects, residuals)
    });
    let (a_accepted, a_rejects, b_accepted, b_rejects, residuals) = join_within(h, "backpressure clients", &d);
    assert_eq!(a_accepted.len(), 2, "{}", d.dump());
    assert_eq!(a_rejects, vec![RejectReason::QuotaExceeded]);
    assert_eq!(b_accepted.len(), 1, "{}", d.dump());
    assert_eq!(b_rejects, vec![RejectReason::QueueFull]);
    for r in residuals {
        assert!(r < 3.0, "admitted job residual {r}");
    }
    d.shutdown();
}

/// An under-width redundancy request (`Coded(f)` on fewer than `2f` process
/// columns) is refused at admission, typed — it used to be ACCEPTed and then
/// panic the encoder's `Q >= 2f` assert inside every worker of the job's
/// fabric (two respawns, `worker-lost`). Through the real `submit` verb: the
/// reply is `bad-request`, exit 3, and the pool never loses a worker.
#[test]
fn under_width_redundancy_is_rejected_at_admission_not_in_the_workers() {
    let d = Daemon::spawn(2, &["--job-ports", "27300"]);
    let workers_before = d.dump().matches("FT_SERVE_WORKER ").count();
    assert_eq!(workers_before, 2, "{}", d.dump());
    let out = Command::new(BIN)
        .args(["submit", "--port", &d.port.to_string(), "--n", "32", "--nb", "4"])
        .args(["--grid", "1x2", "--redundancy", "2"])
        .output()
        .expect("run submit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "typed rejection is exit 3: {stdout}");
    let reject = stdout
        .lines()
        .find(|l| l.starts_with("FT_SUBMIT_REJECT "))
        .unwrap_or_else(|| panic!("no reject line: {stdout}"));
    assert_eq!(field(reject, "reason="), "bad-request", "{reject}");
    assert!(!stdout.contains("FT_SUBMIT_ACCEPT"), "{stdout}");
    // The same pool still serves a well-formed job on the same grid …
    let ok = Command::new(BIN)
        .args(["submit", "--port", &d.port.to_string(), "--n", "32", "--nb", "4"])
        .args(["--grid", "1x2", "--redundancy", "1"])
        .output()
        .expect("run submit");
    assert_eq!(ok.status.code(), Some(0), "{}", String::from_utf8_lossy(&ok.stdout));
    // … with the workers it started with: nobody died, nobody was respawned.
    assert_eq!(d.dump().matches("FT_SERVE_WORKER ").count(), workers_before, "{}", d.dump());
    d.shutdown();
}

/// Heartbeat knobs are per-POOL: the daemon — sole owner of every job
/// fabric's liveness config — validates `FT_HB_*` and dies with a usage
/// error on garbage, while a submit client with the same garbage
/// environment must NOT exit 2 (it never reads those knobs), so daemon
/// and clients can never disagree into a spurious config failure.
#[test]
fn hb_env_is_resolved_per_pool_not_per_client() {
    let out = Command::new(BIN)
        .args(["serve", "--pool", "1", "--port", "0"])
        .env("FT_HB_INTERVAL_MS", "abc")
        .output()
        .expect("run daemon with bad env");
    assert_eq!(
        out.status.code(),
        Some(2),
        "daemon must reject bad FT_HB_*: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let d = Daemon::spawn(1, &["--job-ports", "27200"]);
    let out = Command::new(BIN)
        .args([
            "submit",
            "--port",
            &d.port.to_string(),
            "--n",
            "24",
            "--nb",
            "4",
            "--grid",
            "1x1",
        ])
        .env("FT_HB_INTERVAL_MS", "abc")
        .env("FT_HB_MISS_LIMIT", "-7")
        .output()
        .expect("run submit with bad env");
    assert_eq!(
        out.status.code(),
        Some(0),
        "submit must ignore FT_HB_*: stdout={} stderr={}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    d.shutdown();
}
