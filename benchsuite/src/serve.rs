//! Driving `abft-hessenberg serve` from outside: spawn the real daemon
//! binary, read its `FT_SERVE_*` stdout markers, run a closed loop of
//! clients against it, and verify every factorization it returns with the
//! sequential LAPACK-style oracle.

use crate::workloads::ServeMix;
use ft_dense::gen::uniform_entry;
use ft_dense::Matrix;
use ft_hess::{Redundancy, Variant};
use ft_lapack::qr::{extract_r, orgqr, qr_residual};
use ft_lapack::{extract_h, hessenberg_residual, orghr};
use ft_serve::{Client, Event, JobResult, JobSpec, RejectReason, SolverId};
use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The paper's acceptance threshold on `r∞` (§7.3).
pub const RESIDUAL_LIMIT: f64 = 3.0;

/// The repo root: this package sits one level below it.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchsuite/ has a parent")
}

/// Cargo's target directory: `CARGO_TARGET_DIR` when set (a relative path
/// resolves against the working directory, as cargo's does), else
/// `default`.
pub fn target_dir(default: PathBuf) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or(default, PathBuf::from)
}

/// Where a release build of the root package puts `abft-hessenberg`.
pub fn daemon_binary_path() -> PathBuf {
    target_dir(repo_root().join("target")).join("release").join("abft-hessenberg")
}

/// Build the daemon binary from the checkout's sources (a no-op when it is
/// fresh) and return its path.
pub fn build_daemon_binary() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "abft-hessenberg", "--manifest-path"])
        .arg(repo_root().join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of abft-hessenberg failed: {status}"));
    }
    let bin = daemon_binary_path();
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("cargo build succeeded but {} is missing", bin.display()))
    }
}

/// A running daemon and its marker stream.
pub struct Daemon {
    child: Child,
    pub port: u16,
    /// Every stdout line with the instant the reader thread saw it.
    lines: Arc<Mutex<Vec<(Instant, String)>>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

/// Value of `key=` in a marker line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|w| w.strip_prefix(key))
}

impl Daemon {
    /// Spawn `serve --pool <pool>` and wait until it listens and every
    /// worker slot has registered. Returns the daemon and the seconds that
    /// took — one `setup_s` sample.
    pub fn spawn(bin: &Path, pool: usize) -> Result<(Daemon, f64), String> {
        // Job fabrics bind a 2048-port window from this base. Keep it below
        // the kernel's ephemeral range (32768+), which client and worker
        // connections draw from, and spread concurrent benchmark processes
        // over six windows.
        let job_ports = 20000 + 2048 * (std::process::id() % 6);
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--port",
                "0",
                "--pool",
                &pool.to_string(),
                "--job-ports",
                &job_ports.to_string(),
            ])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        let reader = std::thread::spawn(move || {
            for line in std::io::BufReader::new(stdout).lines().map_while(Result::ok) {
                sink.lock().expect("marker sink poisoned").push((Instant::now(), line));
            }
        });
        let mut d = Daemon { child, port: 0, lines, reader: Some(reader) };
        let listen = d.wait_marker("FT_SERVE_LISTEN ")?;
        d.port = field(&listen, "port=")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("no port in '{listen}'"))?;
        for slot in 0..pool {
            d.wait_marker(&format!("FT_SERVE_READY slot={slot}"))?;
        }
        Ok((d, started.elapsed().as_secs_f64()))
    }

    fn wait_marker(&mut self, pat: &str) -> Result<String, String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some((_, l)) = self
                .lines
                .lock()
                .expect("marker sink poisoned")
                .iter()
                .find(|(_, l)| l.contains(pat))
            {
                return Ok(l.clone());
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited ({status}) before printing '{pat}'"));
            }
            if Instant::now() >= deadline {
                return Err(format!("daemon never printed '{pat}'"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// When the daemon printed `<marker> job=<job> …`, per job id.
    pub fn marker_times(&self, marker: &str) -> std::collections::HashMap<u64, Instant> {
        self.lines
            .lock()
            .expect("marker sink poisoned")
            .iter()
            .filter(|(_, l)| l.starts_with(marker))
            .filter_map(|(t, l)| Some((field(l, "job=")?.parse().ok()?, *t)))
            .collect()
    }

    /// Drain the pool, reap the daemon and its reader thread.
    pub fn shutdown(mut self) -> Result<(), String> {
        Client::shutdown(self.port).map_err(|e| format!("shutdown handshake: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("reaping the daemon: {e}"))?;
        if let Some(r) = self.reader.take() {
            r.join().map_err(|_| "marker reader panicked".to_string())?;
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited {status}"))
        }
    }
}

impl Drop for Daemon {
    /// Error paths must not leave processes behind: kill the daemon (its
    /// workers exit when their control stream closes) and reap it.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// Job `j` of client `client`: 1×2, Hessenberg and QR alternating so that
/// both drivers are always in the pool together.
pub fn job_spec(n: usize, nb: usize, seed: u64, client: usize, j: usize) -> JobSpec {
    let solver = if (client + j).is_multiple_of(2) { SolverId::Hessenberg } else { SolverId::Qr };
    let job_seed = seed.wrapping_mul(1_000_003).wrapping_add((client * 100_000 + j) as u64);
    JobSpec {
        solver,
        variant: Variant::NonDelayed,
        redundancy: Redundancy::Single,
        n,
        nb,
        p: 1,
        q: 2,
        ckpt: false,
        matrix: (0..n * n).map(|i| uniform_entry(job_seed, i / n, i % n)).collect(),
    }
}

/// `r∞` of a job's returned factorization against the matrix that was
/// submitted, by the sequential oracle in `ft-lapack`.
pub fn job_residual(spec: &JobSpec, result: &JobResult) -> f64 {
    let n = spec.n;
    if result.n != n || result.factor.len() != n * n {
        return f64::INFINITY;
    }
    let a0 = Matrix::from_fn(n, n, |i, j| spec.matrix[i * n + j]);
    let f = Matrix::from_fn(n, n, |i, j| result.factor[i * n + j]);
    match spec.solver {
        SolverId::Hessenberg => hessenberg_residual(&a0, &extract_h(&f), &orghr(&f, &result.tau)),
        SolverId::Qr => qr_residual(&a0, &orgqr(&f, &result.tau), &extract_r(&f)),
    }
}

/// One job as a client saw it. Times are client-side stamps.
pub struct JobRecord {
    /// Which client of the loop ran it.
    pub client: usize,
    pub spec: JobSpec,
    pub submitted: Instant,
    /// ACCEPT arrived (stamped loops only).
    pub accepted: Option<Instant>,
    /// Terminal reply arrived.
    pub finished: Instant,
    /// The daemon's job id (stamped loops only).
    pub job: Option<u64>,
    pub outcome: Result<JobResult, RejectReason>,
    /// Each client's first job of a daemon warms its workers up and is
    /// left out of the timings (it is still verified).
    pub warmup: bool,
}

impl JobRecord {
    /// Submit → terminal reply, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.finished - self.submitted).as_secs_f64() * 1e3
    }

    /// Did the job complete with a correct, recovery-free factorization?
    pub fn correct(&self) -> bool {
        match &self.outcome {
            Ok(r) => r.recoveries == 0 && job_residual(&self.spec, r) < RESIDUAL_LIMIT,
            Err(_) => false,
        }
    }
}

/// How long a closed loop runs.
#[derive(Debug, Clone, Copy)]
pub enum LoopLength {
    /// Keep submitting until this much time has passed.
    For(Duration),
    /// This many timed jobs per client.
    Jobs(usize),
}

/// One closed loop against `daemon`: `mix.clients` threads, each running
/// its jobs back to back. `stamped` loops drive `submit`/`next_event` by
/// hand to stamp the ACCEPT; plain loops use `Client::run`, the call a
/// tenant makes.
pub fn closed_loop(
    daemon: &Daemon,
    mix: &ServeMix,
    seed: u64,
    length: LoopLength,
    stamped: bool,
) -> Result<Vec<JobRecord>, String> {
    let port = daemon.port;
    let (n, nb) = (mix.n, mix.nb);
    let handles: Vec<_> = (0..mix.clients)
        .map(|client| {
            std::thread::spawn(move || -> Result<Vec<JobRecord>, String> {
                let mut c = Client::connect(port, client as u32).map_err(|e| format!("client {client} connect: {e}"))?;
                let mut one_job = |j: usize| -> Result<JobRecord, String> {
                    let spec = job_spec(n, nb, seed, client, j);
                    let io = |e: std::io::Error| format!("client {client} job {j}: {e}");
                    let submitted = Instant::now();
                    let (accepted, job, outcome) = if stamped {
                        run_stamped(&mut c, &spec).map_err(io)?
                    } else {
                        (None, None, c.run(&spec).map_err(io)?)
                    };
                    let finished = Instant::now();
                    Ok(JobRecord {
                        client,
                        spec,
                        submitted,
                        accepted,
                        finished,
                        job,
                        outcome,
                        warmup: j == 0,
                    })
                };
                let mut records = vec![one_job(0)?];
                let t0 = Instant::now();
                for j in 1.. {
                    records.push(one_job(j)?);
                    let enough = match length {
                        LoopLength::For(d) => t0.elapsed() >= d,
                        LoopLength::Jobs(k) => j >= k,
                    };
                    if enough {
                        break;
                    }
                }
                Ok(records)
            })
        })
        .collect();
    let mut records = Vec::new();
    for h in handles {
        records.extend(h.join().map_err(|_| "client thread panicked".to_string())??);
    }
    Ok(records)
}

/// Timed jobs of client `client` in `records` and the seconds it took them:
/// first timed submit → last reply. A client runs its jobs back to back, so
/// the quotient is its own rate, with no idle tail while the loop's other
/// clients finish; the rates of a loop's clients add up to its throughput.
pub fn client_jobs_and_secs(records: &[JobRecord], client: usize) -> (u64, f64) {
    let timed = || records.iter().filter(move |r| r.client == client && !r.warmup);
    match (timed().map(|r| r.submitted).min(), timed().map(|r| r.finished).max()) {
        (Some(first), Some(last)) => (timed().count() as u64, (last - first).as_secs_f64()),
        _ => (0, 0.0),
    }
}

/// `Client::run` spelled out, with the ACCEPT stamped.
#[allow(clippy::type_complexity)]
fn run_stamped(
    c: &mut Client,
    spec: &JobSpec,
) -> std::io::Result<(Option<Instant>, Option<u64>, Result<JobResult, RejectReason>)> {
    let seq = c.submit(spec)?;
    let (mut accepted, mut job_id) = (None, None);
    loop {
        match c.next_event()? {
            Event::Accepted { job, seq: s } if s == seq => {
                accepted = Some(Instant::now());
                job_id = Some(job);
            }
            Event::Rejected { job, seq: s, reason } if s == seq || Some(job) == job_id => {
                return Ok((accepted, job_id, Err(reason)));
            }
            Event::Completed { job, result } if Some(job) == job_id => return Ok((accepted, job_id, Ok(result))),
            _ => {}
        }
    }
}
