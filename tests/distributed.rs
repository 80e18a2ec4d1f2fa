//! Integration tests for the real multi-process TCP transport: each test
//! shells out to the built binary, which spawns one OS process per rank on
//! localhost. Kills are genuine `SIGKILL`s delivered by the launcher; the
//! victim is re-spawned and re-admitted through the epoch-fenced reconnect
//! handshake, so these tests exercise the same §5.3 recovery path as the
//! in-process suite — over real sockets, with real process death.
//!
//! Every child runs with `FT_RECV_TIMEOUT_MS` shortened (via the launcher's
//! environment) so a protocol wedge fails typed and bounded instead of
//! eating the suite's wall clock.

use abft_hessenberg::dense::gen::uniform_indexed_matrix;
use abft_hessenberg::lapack::eigenvalues;
use std::io::BufRead;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_abft-hessenberg");

/// Wall-clock ceiling per launcher invocation. Generous: a 2×2 run at
/// n = 64 finishes in well under a second; a kill + re-spawn + recovery adds
/// single-digit seconds. Hitting this means a hang — the very bug class the
/// transport's typed timeouts exist to prevent.
const WALL_LIMIT: Duration = Duration::from_secs(120);

struct RunOutput {
    status: i32,
    stdout: String,
    stderr: String,
}

/// Run the binary with `args`, enforcing [`WALL_LIMIT`]. Ports are left to
/// the launcher's own probing so parallel tests never collide.
fn run(args: &[&str], recv_timeout_ms: u64) -> RunOutput {
    reap(spawn(args, recv_timeout_ms), args)
}

/// Start the binary with `args`, stdout and stderr piped.
fn spawn(args: &[&str], recv_timeout_ms: u64) -> std::process::Child {
    Command::new(BIN)
        .args(args)
        .env("FT_RECV_TIMEOUT_MS", recv_timeout_ms.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn launcher")
}

/// Wait for `child` within [`WALL_LIMIT`] and collect what it printed.
fn reap(child: std::process::Child, args: &[&str]) -> RunOutput {
    let deadline = Instant::now() + WALL_LIMIT;
    // Reap on a helper thread so the deadline also covers a child that
    // produces no output at all.
    let handle = std::thread::spawn(move || child.wait_with_output());
    loop {
        if handle.is_finished() {
            let out = handle.join().expect("join reaper").expect("collect output");
            return RunOutput {
                status: out.status.code().unwrap_or(-1),
                stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
                stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
            };
        }
        assert!(Instant::now() < deadline, "launcher exceeded {WALL_LIMIT:?}: {args:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Send a signal to `pid` via the system `kill` — std has no raw-signal
/// API, and the target is a grandchild the launcher owns, not ours.
fn signal(pid: u32, sig: &str) {
    let _ = Command::new("kill")
        .args([sig, &pid.to_string()])
        .stderr(Stdio::null())
        .status();
}

/// Like [`run`], but streams the launcher's stdout live: when the
/// `FT_RANK_SPAWN` marker for `stall_rank` appears, a helper thread waits
/// `settle` (letting the fabric form), SIGSTOPs that rank's process for
/// `pause`, then SIGCONTs it. A watchdog SIGKILLs the whole launcher at
/// [`WALL_LIMIT`] so a wedged stall can never hang the suite.
fn run_stalled(
    args: &[&str],
    envs: &[(&str, &str)],
    recv_timeout_ms: u64,
    stall_rank: usize,
    settle: Duration,
    pause: Duration,
) -> RunOutput {
    let mut child = Command::new(BIN)
        .args(args)
        .envs(envs.iter().copied())
        .env("FT_RECV_TIMEOUT_MS", recv_timeout_ms.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn launcher");
    let launcher_pid = child.id();
    let done = Arc::new(AtomicBool::new(false));
    let watchdog = {
        let done = done.clone();
        std::thread::spawn(move || {
            let deadline = Instant::now() + WALL_LIMIT;
            while !done.load(Ordering::Relaxed) {
                if Instant::now() >= deadline {
                    signal(launcher_pid, "-KILL");
                    return;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    };
    let mut stderr_pipe = child.stderr.take().expect("stderr is piped");
    let stderr_thread = std::thread::spawn(move || {
        let mut buf = String::new();
        use std::io::Read;
        let _ = stderr_pipe.read_to_string(&mut buf);
        buf
    });
    let mut stdout = String::new();
    let mut stalled = false;
    for line in std::io::BufReader::new(child.stdout.take().expect("stdout is piped")).lines() {
        let Ok(line) = line else { break };
        if !stalled {
            if let Some(rest) = line.strip_prefix("FT_RANK_SPAWN ") {
                let field = |k: &str| {
                    rest.split_whitespace()
                        .find_map(|t| t.strip_prefix(k))
                        .and_then(|v| v.parse::<u32>().ok())
                };
                if field("rank=") == Some(stall_rank as u32) {
                    if let Some(pid) = field("pid=") {
                        stalled = true;
                        std::thread::spawn(move || {
                            std::thread::sleep(settle);
                            signal(pid, "-STOP");
                            std::thread::sleep(pause);
                            signal(pid, "-CONT");
                        });
                    }
                }
            }
        }
        stdout.push_str(&line);
        stdout.push('\n');
    }
    let status = child.wait().expect("reap launcher").code().unwrap_or(-1);
    done.store(true, Ordering::Relaxed);
    watchdog.join().expect("watchdog");
    let stderr = stderr_thread.join().expect("stderr reader");
    RunOutput { status, stdout, stderr }
}

fn parse_eigs(stdout: &str) -> Vec<(f64, f64)> {
    let mut ev: Vec<(f64, f64)> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("eig "))
        .map(|l| {
            let mut it = l.split_whitespace();
            let re: f64 = it.next().unwrap().parse().unwrap();
            let im: f64 = it.next().unwrap().parse().unwrap();
            (re, im)
        })
        .collect();
    ev.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ev
}

#[test]
fn fault_free_smoke_both_variants() {
    for variant in ["alg2", "alg3"] {
        let out = run(
            &[
                "--distributed",
                "--grid",
                "2x2",
                "--n",
                "32",
                "--nb",
                "4",
                "--variant",
                variant,
                "--verify",
            ],
            30_000,
        );
        assert_eq!(out.status, 0, "{variant}: {}\n{}", out.stdout, out.stderr);
        assert!(out.stdout.contains("verification passed"), "{variant}: {}", out.stdout);
        assert!(out.stdout.contains("recoveries: 0"), "{variant}: {}", out.stdout);
    }
}

/// A reader that stops after one line (`… | head -1`) closes stdout under a
/// run that still has lines to print: the launcher keeps reaping its ranks
/// and exits with rank 0's code, an in-process run with its own, and
/// neither panics on the write that fails.
#[test]
fn closed_stdout_is_not_a_panic() {
    for launcher in [true, false] {
        let args = ["--distributed", "--grid", "1x2", "--n", "32", "--nb", "8", "--verify"];
        let args = if launcher { &args[..] } else { &args[1..] };
        let mut child = spawn(args, 30_000);
        let mut first = String::new();
        std::io::BufReader::new(child.stdout.take().expect("piped"))
            .read_line(&mut first)
            .expect("first line");
        assert!(first.starts_with("abft-hessenberg"), "{args:?}: {first}");
        let out = reap(child, args);
        assert_ne!(out.status, 101, "{args:?}: {}", out.stderr);
        assert!(!out.stderr.contains("panicked"), "{args:?}: {}", out.stderr);
    }
}

/// In-process and `--distributed` are the same program: one rank body, two
/// transports. A `--verify` run must print the identical `residual r_inf =
/// …` line either way, for both solvers — bitwise determinism across
/// transports (DESIGN.md §14), observed through the one `print_summary`
/// every mode shares. That holds with a scripted failure too: fail points
/// read the script every rank holds, so under `--distributed` the victim
/// drops its data and recovers inside its own process, through the data
/// path of the in-process run.
#[test]
fn in_process_and_distributed_print_the_same_residual_line() {
    let residual_line = |out: &RunOutput| {
        out.stdout
            .lines()
            .find(|l| l.starts_with("residual r_inf = "))
            .unwrap_or_else(|| panic!("no residual line:\n{}\n{}", out.stdout, out.stderr))
            .to_owned()
    };
    for solver in ["hessenberg", "qr"] {
        for (variant, fail) in [("alg2", None), ("plain", None), ("alg2", Some("5:2:1"))] {
            let mut shape = vec![
                "--grid",
                "2x2",
                "--n",
                "48",
                "--nb",
                "4",
                "--solver",
                solver,
                "--variant",
                variant,
                "--verify",
            ];
            shape.extend(fail.iter().flat_map(|f| ["--fail", *f]));
            let local = run(&shape, 60_000);
            let mut args = vec!["--distributed"];
            args.extend_from_slice(&shape);
            let dist = run(&args, 60_000);
            assert_eq!(local.status, 0, "{solver} {variant} in-process: {}", local.stderr);
            assert_eq!(dist.status, 0, "{solver} {variant} distributed: {}", dist.stderr);
            assert_eq!(residual_line(&local), residual_line(&dist), "{solver} {variant}: transports disagree");
            for out in [&local, &dist] {
                assert!(out.stdout.contains("verification passed"), "{solver} {variant}: {}", out.stdout);
            }
            if fail.is_some() {
                assert!(local.stdout.contains("recoveries: 1"), "{solver}: {}", local.stdout);
                assert!(dist.stdout.contains("recoveries: 1, chaos aborts: 0"), "{solver}: {}", dist.stdout);
            }
        }
    }
}

/// A scripted failure and a real SIGKILL in one run over TCP: both go
/// through the one recovery path, and the rollback after the kill re-arms
/// exactly the fail points past the restored boundary on every rank —
/// the re-spawned process included — so the scripted failure strikes once.
#[test]
fn scripted_failure_and_sigkill_compose_over_tcp() {
    let out = run(
        &[
            "--distributed",
            "--grid",
            "2x2",
            "--n",
            "64",
            "--nb",
            "8",
            "--variant",
            "alg2",
            "--fail",
            "5:1:2",
            "--faults",
            "0:at=3@120",
            "--verify",
        ],
        30_000,
    );
    assert_eq!(out.status, 0, "{}\n{}", out.stdout, out.stderr);
    assert!(out.stdout.contains("recoveries: 2"), "{}", out.stdout);
    assert!(out.stdout.contains("verification passed"), "{}", out.stdout);
}

/// The acceptance scenario: SIGKILL one rank mid-factorization, let the
/// launcher re-spawn it, and require the recovered run's eigenvalues to
/// match the fault-free run's to 1e-10 — both through the identical
/// distributed pipeline, so the only perturbation is the checksum-solve
/// roundoff of §5.3 recovery.
#[test]
fn sigkill_recovery_matches_fault_free_eigenvalues() {
    let base = [
        "--distributed",
        "--grid",
        "2x2",
        "--n",
        "64",
        "--nb",
        "8",
        "--variant",
        "alg2",
        "--print-eigs",
    ];
    let clean = run(&base, 30_000);
    assert_eq!(clean.status, 0, "{}\n{}", clean.stdout, clean.stderr);
    let mut killed_args = base.to_vec();
    killed_args.extend_from_slice(&["--faults", "0:at=3@120", "--verify"]);
    let killed = run(&killed_args, 30_000);
    assert_eq!(killed.status, 0, "{}\n{}", killed.stdout, killed.stderr);
    assert!(killed.stdout.contains("recoveries: 1"), "{}", killed.stdout);
    assert!(killed.stdout.contains("verification passed"), "{}", killed.stdout);

    let ev_clean = parse_eigs(&clean.stdout);
    let ev_killed = parse_eigs(&killed.stdout);
    assert_eq!(ev_clean.len(), 64, "fault-free run printed eigenvalues");
    assert_eq!(ev_killed.len(), 64, "recovered run printed eigenvalues");
    for (a, b) in ev_clean.iter().zip(&ev_killed) {
        assert!(
            (a.0 - b.0).abs() < 1e-10 && (a.1 - b.1).abs() < 1e-10,
            "recovered eigenvalue drifted past 1e-10: {a:?} vs {b:?}"
        );
    }

    // Cross-check against the shared-memory gehrd + QR pipeline: different
    // reduction, same spectrum, so only QR-iteration tolerance applies.
    let a0 = uniform_indexed_matrix(64, 64, 2013);
    let mut reference: Vec<(f64, f64)> = eigenvalues(&a0, 8)
        .expect("QR converges")
        .iter()
        .map(|e| (e.re, e.im))
        .collect();
    reference.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (a, b) in reference.iter().zip(&ev_killed) {
        assert!(
            (a.0 - b.0).abs() < 1e-6 && (a.1 - b.1).abs() < 1e-6,
            "recovered eigenvalue disagrees with shared-memory reference: {a:?} vs {b:?}"
        );
    }
}

/// Satellite: a second SIGKILL landing *inside* the first recovery round.
/// The victim of round 1 is rank 1 at its 3rd recovery-phase message op —
/// recovery rounds are short (a couple dozen ops grid-wide at this size),
/// so the op index must be small for the kill to fire at all.
#[test]
fn second_failure_mid_recovery_over_tcp() {
    let out = run(
        &[
            "--distributed",
            "--grid",
            "2x2",
            "--n",
            "64",
            "--nb",
            "8",
            "--variant",
            "alg2",
            "--faults",
            "0:at=3@120,at=1@r1:3",
            "--verify",
        ],
        30_000,
    );
    assert_eq!(out.status, 0, "{}\n{}", out.stdout, out.stderr);
    assert!(out.stdout.contains("recoveries: 2"), "{}", out.stdout);
    assert!(out.stdout.contains("verification passed"), "{}", out.stdout);
}

fn assert_bitwise_eigs(clean: &str, chaotic: &str, what: &str) {
    let a = parse_eigs(clean);
    let b = parse_eigs(chaotic);
    assert!(!a.is_empty(), "{what}: clean run printed no eigenvalues");
    assert_eq!(a.len(), b.len(), "{what}: eigenvalue counts differ");
    for (x, y) in a.iter().zip(&b) {
        assert!(
            x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits(),
            "{what}: eigenvalues are not bitwise identical: {x:?} vs {y:?}"
        );
    }
}

/// Tentpole acceptance: a run under an aggressive (but recoverable) chaos
/// spec must complete with *zero* §5.3 recoveries — every fault is masked
/// inside the transport — and its eigenvalues must be **bitwise** identical
/// to the fault-free run's. Retransmission, duplicate suppression, and
/// session resume may reorder wall-clock events, never data.
#[test]
fn net_chaos_run_is_bitwise_identical_to_clean() {
    let base = [
        "--distributed",
        "--grid",
        "2x2",
        "--n",
        "64",
        "--nb",
        "8",
        "--variant",
        "alg2",
        "--print-eigs",
    ];
    let clean = run(&base, 60_000);
    assert_eq!(clean.status, 0, "{}\n{}", clean.stdout, clean.stderr);
    let mut chaos_args = base.to_vec();
    chaos_args.extend_from_slice(&["--faults", "9:drop=0.08,dup=0.1,reorder=0.1,corrupt=0.04"]);
    let chaos = run(&chaos_args, 60_000);
    assert_eq!(chaos.status, 0, "{}\n{}", chaos.stdout, chaos.stderr);
    assert!(chaos.stdout.contains("recoveries: 0"), "chaos leaked into §5.3 recovery:\n{}", chaos.stdout);
    assert_bitwise_eigs(&clean.stdout, &chaos.stdout, "net-chaos");
}

/// Slow-vs-dead discrimination, end to end: injected delays of 2× the
/// heartbeat interval on every frame may raise suspicion, but must never
/// escalate to a death verdict or a spurious recovery.
#[test]
fn sub_grace_delays_never_trigger_spurious_recovery() {
    let out = run(
        &[
            "--distributed",
            "--grid",
            "2x2",
            "--n",
            "32",
            "--nb",
            "4",
            "--variant",
            "alg2",
            "--faults",
            "13:delay=0.2@200",
            "--verify",
        ],
        60_000,
    );
    assert_eq!(out.status, 0, "{}\n{}", out.stdout, out.stderr);
    assert!(out.stdout.contains("verification passed"), "{}", out.stdout);
    assert!(out.stdout.contains("recoveries: 0"), "a sub-grace delay was misread as a death:\n{}", out.stdout);
}

/// An unhealable partition (one rank black-holed in both directions,
/// forever) must end with the *same typed error and exit code 3* on every
/// rank that can still make progress — never a hang, never a split-brain
/// where some ranks exit 0.
#[test]
fn permanent_partition_exits_typed_on_every_rank() {
    let start = Instant::now();
    let out = run(
        &[
            "--distributed",
            "--grid",
            "2x2",
            "--n",
            "32",
            "--nb",
            "4",
            "--variant",
            "alg2",
            "--faults",
            "3:part=3-0@0,part=3-1@0,part=3-2@0,part=0-3@0,part=1-3@0,part=2-3@0",
        ],
        6_000,
    );
    assert_eq!(out.status, 3, "an unhealable partition must exit 3:\n{}\n{}", out.stdout, out.stderr);
    assert!(
        out.stderr.contains("UNRECOVERABLE") && out.stderr.contains("partition"),
        "expected the typed partition diagnostic, got:\n{}",
        out.stderr
    );
    assert!(
        start.elapsed() < Duration::from_secs(90),
        "partition verdict took {:?} — effectively a hang",
        start.elapsed()
    );
}

/// Stall soak, short arm: a rank SIGSTOPped for well under the death
/// budget (default 30 misses × 100 ms) is *slow*, not dead — the run must
/// complete with zero recoveries and bitwise-identical eigenvalues.
#[test]
fn sigstop_within_grace_resumes_without_recovery() {
    let base = [
        "--distributed",
        "--grid",
        "2x2",
        "--n",
        "64",
        "--nb",
        "8",
        "--variant",
        "alg2",
        "--print-eigs",
    ];
    let clean = run(&base, 60_000);
    assert_eq!(clean.status, 0, "{}\n{}", clean.stdout, clean.stderr);
    let out = run_stalled(&base, &[], 60_000, 3, Duration::from_millis(100), Duration::from_millis(1200));
    assert_eq!(out.status, 0, "{}\n{}", out.stdout, out.stderr);
    assert!(out.stdout.contains("recoveries: 0"), "a sub-grace SIGSTOP was misread as a death:\n{}", out.stdout);
    assert_bitwise_eigs(&clean.stdout, &out.stdout, "sigstop-within-grace");
}

/// Stall soak, long arm: a rank SIGSTOPped past a deliberately small death
/// budget must be declared dead and replaced by survivor adoption
/// (`--shrink`), or — if the run outpaced the stall — resume cleanly.
/// Either way: no hang, exit 0, and eigenvalue parity (bitwise when no
/// recovery ran, 1e-10 through the §5.3 checksum solve otherwise).
#[test]
fn sigstop_past_death_budget_is_replaced_or_resumed() {
    let base = [
        "--distributed",
        "--grid",
        "2x2",
        "--n",
        "64",
        "--nb",
        "8",
        "--variant",
        "alg2",
        "--print-eigs",
    ];
    let clean = run(&base, 60_000);
    assert_eq!(clean.status, 0, "{}\n{}", clean.stdout, clean.stderr);
    let mut args = base.to_vec();
    args.push("--shrink");
    // The death budget is the run's environment, inherited by every rank.
    let hb = [("FT_HB_INTERVAL_MS", "50"), ("FT_HB_MISS_LIMIT", "20")];
    let out = run_stalled(&args, &hb, 15_000, 3, Duration::from_millis(150), Duration::from_secs(4));
    assert_eq!(out.status, 0, "{}\n{}", out.stdout, out.stderr);
    if out.stdout.contains("recoveries: 0") {
        assert_bitwise_eigs(&clean.stdout, &out.stdout, "sigstop-outpaced");
    } else {
        let a = parse_eigs(&clean.stdout);
        let b = parse_eigs(&out.stdout);
        assert_eq!(a.len(), b.len(), "adopted run lost eigenvalues");
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (x.0 - y.0).abs() < 1e-10 && (x.1 - y.1).abs() < 1e-10,
                "adopted run's eigenvalue drifted past 1e-10: {x:?} vs {y:?}"
            );
        }
    }
}

/// A wedged protocol must fail *typed*, never hang: a lone child rank whose
/// three peers never start exhausts its receive timeout and exits 3 with
/// the typed verdict naming the receive that timed out — well inside the
/// wall-clock ceiling.
#[test]
fn missing_peers_produce_typed_timeout_not_a_hang() {
    let start = Instant::now();
    let out = run(
        &[
            "--distributed",
            "--rank",
            "0",
            "--grid",
            "2x2",
            "--n",
            "32",
            "--nb",
            "4",
            "--variant",
            "alg2",
            "--port-base",
            "26733",
        ],
        2_000,
    );
    assert_eq!(out.status, 3, "a rank with no peers must exit typed:\n{}", out.stderr);
    assert!(
        out.stderr.contains("UNRECOVERABLE") && out.stderr.contains("recv(src=") && out.stderr.contains("timed out"),
        "expected the typed verdict naming the receive, got:\n{}",
        out.stderr
    );
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "typed timeout took {:?} — effectively a hang",
        start.elapsed()
    );
}

/// The same deadline in process ends the same way: each rank's blocking
/// call times out into the typed verdict, caught by the one catch every
/// rank runs under — exit 3 with `UNRECOVERABLE`, or 0 when the run beats
/// the deadline — never a panic (it was exit 101 with a panic banner per
/// rank).
#[test]
fn in_process_deadline_exits_typed_never_a_panic() {
    let out = run(&["--n", "512", "--nb", "16", "--grid", "2x2"], 1);
    assert!(out.status == 0 || out.status == 3, "exit {} — stderr:\n{}", out.status, out.stderr);
    assert!(!out.stderr.contains("panicked"), "a deadline panicked:\n{}", out.stderr);
    if out.status == 3 {
        assert!(out.stderr.contains("UNRECOVERABLE") && out.stderr.contains("timed out"), "{}", out.stderr);
    }
}
