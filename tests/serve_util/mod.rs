//! Shared harness for the daemon integration tests: spawn the `serve`
//! verb with its stdout markers captured live, wait on markers, and tear
//! the whole pool down (gracefully or by SIGKILL massacre).
#![allow(dead_code)]

use abft_hessenberg::dense::gen::uniform_entry;
use abft_hessenberg::hess::{Redundancy, Variant};
use abft_hessenberg::serve::{Client, JobSpec, SolverId};
use std::io::BufRead as _;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const BIN: &str = env!("CARGO_BIN_EXE_abft-hessenberg");

/// Wall-clock ceiling per blocking phase. Hitting it means a wedge — the
/// bug class the transport's typed timeouts and the daemon's retry/abort
/// guards exist to prevent.
pub const WALL_LIMIT: Duration = Duration::from_secs(120);

/// A daemon subprocess with its stdout markers captured live, and the pool's
/// stderr (daemon and workers) captured and passed through.
pub struct Daemon {
    child: Child,
    pub port: u16,
    lines: Arc<Mutex<Vec<String>>>,
    errs: Arc<Mutex<Vec<String>>>,
}

impl Daemon {
    /// Spawn `serve` with `args` (port is always ephemeral) and wait for
    /// every worker in the pool to register.
    pub fn spawn(pool: usize, args: &[&str]) -> Daemon {
        let mut child = Command::new(BIN)
            .arg("serve")
            .args(["--pool", &pool.to_string(), "--port", "0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
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
        let stderr = child.stderr.take().expect("piped stderr");
        let errs = Arc::new(Mutex::new(Vec::new()));
        let sink = errs.clone();
        std::thread::spawn(move || {
            for line in std::io::BufReader::new(stderr).lines().map_while(Result::ok) {
                eprintln!("{line}");
                sink.lock().expect("stderr sink").push(line);
            }
        });
        let mut d = Daemon { child, port: 0, lines, errs };
        let listen = d.wait_marker("FT_SERVE_LISTEN ");
        d.port = field(&listen, "port=").parse().expect("listen port");
        for slot in 0..pool {
            d.wait_marker(&format!("FT_SERVE_READY slot={slot}"));
        }
        d
    }

    /// Block until a marker line containing `pat` appears.
    pub fn wait_marker(&self, pat: &str) -> String {
        let deadline = Instant::now() + WALL_LIMIT;
        loop {
            if let Some(l) = self.lines.lock().expect("marker sink").iter().find(|l| l.contains(pat)) {
                return l.clone();
            }
            assert!(Instant::now() < deadline, "daemon never printed '{pat}'; saw:\n{}", self.dump());
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    pub fn dump(&self) -> String {
        self.lines.lock().expect("marker sink").join("\n")
    }

    /// Everything the pool wrote to stderr so far.
    pub fn stderr(&self) -> String {
        self.errs.lock().expect("stderr sink").join("\n")
    }

    /// Drain the pool and require a clean exit.
    pub fn shutdown(mut self) {
        Client::shutdown(self.port).expect("shutdown handshake");
        let deadline = Instant::now() + WALL_LIMIT;
        loop {
            if let Some(st) = self.child.try_wait().expect("poll daemon") {
                assert_eq!(st.code(), Some(0), "daemon exit: {st:?}\n{}", self.dump());
                return;
            }
            assert!(Instant::now() < deadline, "daemon never drained:\n{}", self.dump());
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// SIGKILL the entire pool — every worker, then the daemon — the
    /// whole-node-crash scenario the checkpoint persistence exists for.
    pub fn massacre(&mut self) {
        // Workers first (they are the daemon's children, not ours).
        for l in self.lines.lock().expect("marker sink").iter() {
            if l.starts_with("FT_SERVE_WORKER ") {
                let _ = Command::new("kill")
                    .args(["-9", &field(l, "pid=")])
                    .stderr(Stdio::null())
                    .status();
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.massacre();
    }
}

/// Extract `key=<value>` from a marker line.
pub fn field(line: &str, key: &str) -> String {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key))
        .unwrap_or_else(|| panic!("no '{key}' in '{line}'"))
        .to_string()
}

/// Join a client thread with a deadline so a wedged daemon fails the test
/// instead of hanging the suite (dropping the [`Daemon`] then reaps the
/// pool, which unblocks the abandoned thread's socket reads).
pub fn join_within<T>(h: JoinHandle<T>, what: &str, d: &Daemon) -> T {
    let deadline = Instant::now() + WALL_LIMIT;
    while !h.is_finished() {
        assert!(Instant::now() < deadline, "{what} exceeded {WALL_LIMIT:?}:\n{}", d.dump());
        std::thread::sleep(Duration::from_millis(20));
    }
    h.join().unwrap_or_else(|_| panic!("{what} panicked"))
}

/// A seeded Algorithm-2, single-redundancy job spec on a 1×q grid.
pub fn spec(solver: SolverId, n: usize, nb: usize, q: usize, seed: u64, ckpt: bool) -> JobSpec {
    JobSpec {
        solver,
        variant: Variant::NonDelayed,
        redundancy: Redundancy::Single,
        n,
        nb,
        p: 1,
        q,
        ckpt,
        matrix: (0..n * n).map(|i| uniform_entry(seed, i / n, i % n)).collect(),
    }
}
