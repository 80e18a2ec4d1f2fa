//! Daemon throughput: seeded open-loop job streams from concurrent tenants
//! against the persistent pool, measured three times over the **identical**
//! workload — once undisturbed, once with a SIGKILL of a busy rank
//! mid-factorization, and once over a lossy submit path (1% seeded frame
//! drop on every client). The kill delta is the serving-plane price of one
//! transparent ABFT recovery; the lossy delta is the price of the
//! idempotent-resubmit masking. jobs/sec and client-observed p50/p99
//! latency land in `BENCH_serve.json`.
//!
//! Open loop: every job's submit time is fixed on a schedule before the
//! run starts, independent of completions, so a slow daemon shows up as
//! latency growth instead of silently throttling the arrival rate.
//!
//! Needs `target/release/abft-hessenberg` (override with `FT_SERVE_BIN`).
//! `FT_SERVE_SMOKE=1` trims the stream for the CI smoke run. Gates (exit 1)
//! live in-binary: every admitted job completes, jobs/sec > 0, finite
//! p50/p99 in both phases, and at least one recovery in the kill phase.

use ft_bench::json;
use ft_dense::gen::uniform_entry;
use ft_hess::{Redundancy, Variant};
use ft_serve::{Client, JobSpec, SolverId};
use std::io::BufRead as _;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Resolve the daemon binary: `FT_SERVE_BIN`, else the release binary next
/// to this bench's target dir.
fn bin_path() -> String {
    if let Ok(p) = std::env::var("FT_SERVE_BIN") {
        return p;
    }
    let exe = std::env::current_exe().expect("current_exe");
    // target/<profile>/deps/serve-<hash> -> target/<profile>/abft-hessenberg
    for dir in [exe.parent().and_then(|d| d.parent()), exe.parent()].into_iter().flatten() {
        let cand = dir.join("abft-hessenberg");
        if cand.exists() {
            return cand.to_string_lossy().into_owned();
        }
    }
    eprintln!("serve bench: abft-hessenberg binary not found — run `cargo build --release` first or set FT_SERVE_BIN");
    std::process::exit(1);
}

struct Daemon {
    child: Child,
    port: u16,
    lines: Arc<Mutex<Vec<String>>>,
}

impl Daemon {
    fn spawn(bin: &str, pool: usize) -> Daemon {
        let mut child = Command::new(bin)
            .args(["serve", "--pool", &pool.to_string(), "--port", "0"])
            .args(["--job-ports", "30000", "--tenant-quota", "32", "--queue-depth", "64"])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn daemon");
        let stdout = child.stdout.take().expect("piped stdout");
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = lines.clone();
        std::thread::spawn(move || {
            for line in std::io::BufReader::new(stdout).lines().map_while(Result::ok) {
                sink.lock().expect("marker sink").push(line);
            }
        });
        let mut d = Daemon { child, port: 0, lines };
        let listen = d.wait_marker(0, "FT_SERVE_LISTEN ");
        d.port = field(&listen, "port=").parse().expect("listen port");
        for slot in 0..pool {
            d.wait_marker(0, &format!("FT_SERVE_READY slot={slot}"));
        }
        d
    }

    /// First marker line containing `pat` at index >= `from`.
    fn wait_marker(&self, from: usize, pat: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Some(l) = self.lines.lock().expect("marker sink")[from..].iter().find(|l| l.contains(pat)) {
                return l.clone();
            }
            if Instant::now() >= deadline {
                eprintln!("serve bench: daemon never printed '{pat}'");
                std::process::exit(1);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn marker_count(&self) -> usize {
        self.lines.lock().expect("marker sink").len()
    }

    fn shutdown(mut self) {
        Client::shutdown(self.port).expect("shutdown handshake");
        let st = self.child.wait().expect("reap daemon");
        if st.code() != Some(0) {
            eprintln!("serve bench: daemon exited {st:?}");
            std::process::exit(1);
        }
    }
}

fn field(line: &str, key: &str) -> String {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key))
        .unwrap_or_else(|| panic!("no '{key}' in '{line}'"))
        .to_string()
}

fn spec(solver: SolverId, n: usize, nb: usize, seed: u64) -> JobSpec {
    JobSpec {
        solver,
        variant: Variant::NonDelayed,
        redundancy: Redundancy::Single,
        n,
        nb,
        p: 1,
        q: 2,
        ckpt: false,
        matrix: (0..n * n).map(|i| uniform_entry(seed, i / n, i % n)).collect(),
    }
}

struct Phase {
    jobs: u64,
    jobs_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    recoveries: u64,
    frames_dropped: u64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Run one phase: the big victim job submitted at t0 by tenant 0 plus an
/// open-loop stream of `jobs_per_tenant` small jobs from each of `tenants`
/// tenants. With `kill`, the victim's second rank is SIGKILLed `delay`
/// after its assignment. With `lossy`, every client arms the seeded
/// SUBMIT-loss injector at that drop probability — the idempotent-resubmit
/// path must mask the loss without a single failed job.
fn run_phase(
    d: &Daemon,
    tenants: u32,
    jobs_per_tenant: usize,
    small_n: usize,
    interval: Duration,
    kill: Option<Duration>,
    lossy: Option<f64>,
) -> Phase {
    let port = d.port;
    let mark0 = d.marker_count();
    let t0 = Instant::now();
    let victim_spec = spec(SolverId::Hessenberg, 640, 16, 55);
    let victim = std::thread::spawn(move || {
        let t_submit = Instant::now();
        let mut c = Client::connect(port, 0).expect("victim connect");
        if let Some(p) = lossy {
            c.set_lossy(1, p);
        }
        let r = c.run(&victim_spec).expect("victim io").expect("victim completes");
        (t_submit.elapsed().as_secs_f64() * 1e3, r.recoveries, c.frames_dropped())
    });
    let mut handles = Vec::new();
    for t in 1..=tenants {
        for j in 0..jobs_per_tenant {
            // Fixed schedule: tenants stagger by 11 ms inside each
            // interval slot; solver alternates so both drivers serve.
            let at = interval * j as u32 + Duration::from_millis(11) * t;
            let solver = if (t as usize + j).is_multiple_of(2) {
                SolverId::Hessenberg
            } else {
                SolverId::Qr
            };
            let s = spec(solver, small_n, 8, 9000 + t as u64 * 100 + j as u64);
            handles.push(std::thread::spawn(move || {
                let due = t0 + at;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let t_submit = Instant::now();
                let mut c = Client::connect(port, t).expect("tenant connect");
                if let Some(p) = lossy {
                    c.set_lossy(t as u64 * 1000 + j as u64, p);
                }
                let r = c.run(&s).expect("tenant io").expect("tenant completes");
                (t_submit.elapsed().as_secs_f64() * 1e3, r.recoveries, c.frames_dropped())
            }));
        }
    }
    if let Some(delay) = kill {
        let assign = d.wait_marker(mark0, "tenant=0 ");
        std::thread::sleep(delay);
        let pid = field(&assign, "pids=").split(',').nth(1).expect("two pids").to_string();
        Command::new("kill").args(["-9", &pid]).status().expect("deliver SIGKILL");
    }
    let mut lat = Vec::new();
    let mut recoveries = 0u64;
    let mut frames_dropped = 0u64;
    let (l, r, fd) = victim.join().expect("victim thread");
    lat.push(l);
    recoveries += r;
    frames_dropped += fd;
    for h in handles {
        let (l, r, fd) = h.join().expect("tenant thread");
        lat.push(l);
        recoveries += r;
        frames_dropped += fd;
    }
    let wall = t0.elapsed().as_secs_f64();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    Phase {
        jobs: lat.len() as u64,
        jobs_per_sec: lat.len() as f64 / wall,
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
        recoveries,
        frames_dropped,
    }
}

fn phase_json(p: &Phase) -> String {
    json::Obj::new()
        .int("jobs", p.jobs)
        .num("jobs_per_sec", p.jobs_per_sec)
        .num("p50_ms", p.p50_ms)
        .num("p99_ms", p.p99_ms)
        .int("recoveries", p.recoveries)
        .int("frames_dropped", p.frames_dropped)
        .finish()
}

fn gate(ok: bool, what: &str) {
    if !ok {
        eprintln!("serve bench GATE FAILED: {what}");
        std::process::exit(1);
    }
}

fn main() {
    let smoke = std::env::var("FT_SERVE_SMOKE").map(|v| v == "1").unwrap_or(false);
    let (tenants, jobs_per_tenant, small_n) = if smoke { (4u32, 2usize, 96) } else { (4, 4, 192) };
    let pool = 8;
    let interval = Duration::from_millis(60);
    let bin = bin_path();
    println!(
        "# serve: open-loop throughput, pool={pool} tenants={tenants} jobs/tenant={jobs_per_tenant} n={small_n} victim n=640"
    );

    let d = Daemon::spawn(&bin, pool);
    let baseline = run_phase(&d, tenants, jobs_per_tenant, small_n, interval, None, None);
    println!(
        "# baseline: {} jobs, {:.2} jobs/s, p50 {:.1} ms, p99 {:.1} ms",
        baseline.jobs, baseline.jobs_per_sec, baseline.p50_ms, baseline.p99_ms
    );
    let one_kill = run_phase(&d, tenants, jobs_per_tenant, small_n, interval, Some(Duration::from_millis(300)), None);
    println!(
        "# one_kill: {} jobs, {:.2} jobs/s, p50 {:.1} ms, p99 {:.1} ms, {} recoveries",
        one_kill.jobs, one_kill.jobs_per_sec, one_kill.p50_ms, one_kill.p99_ms, one_kill.recoveries
    );
    let lossy = run_phase(&d, tenants, jobs_per_tenant, small_n, interval, None, Some(0.01));
    println!(
        "# lossy(1%): {} jobs, {:.2} jobs/s, p50 {:.1} ms, p99 {:.1} ms, {} frames dropped",
        lossy.jobs, lossy.jobs_per_sec, lossy.p50_ms, lossy.p99_ms, lossy.frames_dropped
    );
    d.shutdown();

    let expect = tenants as u64 * jobs_per_tenant as u64 + 1;
    gate(baseline.jobs == expect, "baseline did not complete every admitted job");
    gate(one_kill.jobs == expect, "kill phase did not complete every admitted job");
    gate(lossy.jobs == expect, "lossy phase did not complete every admitted job");
    gate(baseline.jobs_per_sec > 0.0, "baseline jobs/sec not positive");
    gate(one_kill.jobs_per_sec > 0.0, "kill-phase jobs/sec not positive");
    gate(lossy.jobs_per_sec > 0.0, "lossy-phase jobs/sec not positive");
    gate(baseline.p50_ms.is_finite() && baseline.p99_ms.is_finite(), "baseline percentiles not finite");
    gate(one_kill.p50_ms.is_finite() && one_kill.p99_ms.is_finite(), "kill-phase percentiles not finite");
    gate(lossy.p50_ms.is_finite() && lossy.p99_ms.is_finite(), "lossy-phase percentiles not finite");
    gate(baseline.recoveries == 0, "baseline phase recovered — an unintended fault fired");
    gate(one_kill.recoveries >= 1, "kill phase saw no recovery — the SIGKILL missed the driver window");
    gate(lossy.recoveries == 0, "lossy phase recovered — frame loss must never read as a solver fault");

    let report = json::Obj::new()
        .str("bench", "serve")
        .int("pool", pool as u64)
        .int("tenants", tenants as u64)
        .int("jobs_per_tenant", jobs_per_tenant as u64)
        .int("small_n", small_n as u64)
        .int("victim_n", 640)
        .int("interval_ms", interval.as_millis() as u64)
        .raw("baseline", &phase_json(&baseline))
        .raw("one_kill", &phase_json(&one_kill))
        .raw("lossy", &phase_json(&lossy))
        .finish();
    if let Ok(p) = json::write_artifact("BENCH_serve.json", &report, smoke) {
        println!("# wrote {}", p.display());
    }
}
