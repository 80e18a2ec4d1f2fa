//! The job daemon: a persistent pool of worker processes serving a stream
//! of reduction jobs from many tenants.
//!
//! One thread accepts control-plane connections (workers registering,
//! clients submitting); one reader thread per connection turns frames into
//! events on a single channel; the main loop is a single-threaded state
//! machine over those events — no locks around scheduler or job state.
//!
//! Responsibilities split cleanly:
//! * [`crate::scheduler`] decides admission and placement (pure).
//! * This module owns processes, sockets, checkpoint persistence, and the
//!   failure policy: grid jobs ride the in-fabric ABFT recovery (respawn
//!   the slot, rejoin as replacement); 1-rank jobs get one FIFO-preserving
//!   retry, then a typed `WorkerLost` rejection.
//! * Machine-readable progress markers (`FT_SERVE_*`) go to stdout and are
//!   explicitly flushed — the launcher-marker convention of the chaos CLI,
//!   extended to the serving plane.

use crate::job::{Assignment, JobResult, JobSpec, RejectReason, ASSIGN_RUN, ASSIGN_STOP, REQ_JOB, REQ_SHUTDOWN};
use crate::scheduler::{Admission, Dispatch, Limits, Scheduler};
use ft_hess::{Encoded, FtCheckpoint};
use ft_runtime::{jobs, JobFrame};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Daemon configuration, resolved from the flags. Job fabrics' liveness
/// knobs are not in it: workers inherit the daemon's `FT_HB_*`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker slots in the pool.
    pub pool: usize,
    /// Control-plane listen port (0 = ephemeral; the bound port is
    /// announced in the `FT_SERVE_LISTEN` marker).
    pub port: u16,
    /// Admission limits (queue depth, tenant quota).
    pub limits: Limits,
    /// First port of the range job fabrics are carved from.
    pub job_port_base: u16,
    /// Checkpoint/result persistence directory (None = no restart
    /// survival; jobs submitted with `ckpt` still checkpoint in memory).
    pub state_dir: Option<PathBuf>,
    /// Command prefix that launches one worker; the daemon appends
    /// `--connect-port <port> --slot <slot>`.
    pub worker_argv: Vec<String>,
}

/// Print a machine-readable marker and flush — stdout is block-buffered
/// when piped, and test harnesses poll these lines live.
macro_rules! marker {
    ($($arg:tt)*) => {{
        println!($($arg)*);
        let _ = io::stdout().flush();
    }};
}

enum Ev {
    Conn { id: u64, writer: Arc<Mutex<TcpStream>> },
    Frame { id: u64, frame: JobFrame },
    Closed { id: u64 },
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Unknown,
    Client,
    Worker(usize),
}

struct ConnState {
    writer: Arc<Mutex<TcpStream>>,
    role: Role,
}

struct Slot {
    child: Option<Child>,
    conn: Option<u64>,
    /// The job (and job rank) this slot is running, if any. Survives the
    /// worker's death so the respawn can rejoin as a replacement.
    job: Option<(u64, usize)>,
}

struct JobState {
    spec: JobSpec,
    tenant: u32,
    /// Submitting connection + its SUBMIT sequence number; None for jobs
    /// resubmitted from persisted state after a restart (their results go
    /// to `result-<id>.bin`).
    client: Option<(u64, u64)>,
    /// Idempotency key `(tenant, client_id, seq)` when the submitter
    /// stamped a nonzero client id; duplicate SUBMITs re-target this job
    /// instead of admitting a second copy.
    dedup_key: Option<(u32, u64, u64)>,
    slots: Vec<usize>,
    incarnations: Vec<u32>,
    port_base: u16,
    /// Ranks that have not yet sent a terminal frame (RESULT or REJECT).
    remaining: usize,
    result: Option<JobResult>,
    rejected: Option<RejectReason>,
    /// A 1-rank job's single worker-loss retry, already spent?
    retried: bool,
    /// Per-rank resume blobs for the NEXT dispatch (whole-pool restart).
    resume: Option<Vec<Vec<u8>>>,
    /// In-flight checkpoint assembly: panel → (rank → serialized state).
    stage: HashMap<usize, HashMap<usize, Vec<u8>>>,
    /// Newest complete panel set (the restart point).
    latest: Option<CkptSet>,
    t_submit: Instant,
}

/// A complete checkpoint set: its panel and one serialized blob per rank.
type CkptSet = (usize, Vec<Vec<u8>>);

struct Daemon {
    cfg: ServeConfig,
    port: u16,
    sched: Scheduler,
    conns: HashMap<u64, ConnState>,
    slots: Vec<Slot>,
    jobs: HashMap<u64, JobState>,
    /// Live idempotency index: `(tenant, client_id, seq)` → running job.
    dedup: HashMap<(u32, u64, u64), u64>,
    /// Terminal replies of recently finished idempotent jobs, replayed
    /// verbatim when a duplicate SUBMIT arrives after completion (e.g. the
    /// client reconnected across the finish). Bounded FIFO.
    finished: VecDeque<((u32, u64, u64), u64, JobFrame)>,
    next_ports: u16,
    draining: bool,
}

/// Terminal-reply cache depth; old entries age out FIFO. A client replays
/// at most its in-flight window, far below this.
const FINISHED_CACHE: usize = 64;

/// Run the daemon until a shutdown request drains the pool. Returns the
/// process exit code.
pub fn serve_main(cfg: ServeConfig) -> i32 {
    let listener = match TcpListener::bind(("127.0.0.1", cfg.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("serve: cannot bind port {}: {e}", cfg.port);
            return 3;
        }
    };
    let port = listener.local_addr().map(|a| a.port()).unwrap_or(cfg.port);
    marker!("FT_SERVE_LISTEN port={port} pool={}", cfg.pool);

    let (tx, rx) = mpsc::channel::<Ev>();
    spawn_acceptor(listener, tx);

    let mut d = Daemon {
        port,
        sched: Scheduler::new(cfg.pool, cfg.limits),
        conns: HashMap::new(),
        slots: Vec::new(),
        jobs: HashMap::new(),
        dedup: HashMap::new(),
        finished: VecDeque::new(),
        next_ports: cfg.job_port_base,
        draining: false,
        cfg,
    };
    for slot in 0..d.cfg.pool {
        let child = d.spawn_worker(slot);
        d.slots.push(Slot { child, conn: None, job: None });
        // Freshly spawned workers are not idle until they register.
        d.sched.remove_idle(slot);
    }
    d.resubmit_persisted();

    for ev in rx {
        match ev {
            Ev::Conn { id, writer } => {
                d.conns.insert(id, ConnState { writer, role: Role::Unknown });
            }
            Ev::Frame { id, frame } => d.on_frame(id, frame),
            Ev::Closed { id } => d.on_closed(id),
        }
        if d.draining && d.sched.quiescent() {
            d.stop_workers();
            marker!("FT_SERVE_DRAINED");
            return 0;
        }
    }
    // Listener thread died (should not happen); treat as a failed drain.
    eprintln!("serve: control plane lost");
    3
}

fn spawn_acceptor(listener: TcpListener, tx: mpsc::Sender<Ev>) {
    std::thread::spawn(move || {
        let mut next_id = 1u64;
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let id = next_id;
            next_id += 1;
            let mut reader = match stream.try_clone() {
                Ok(r) => r,
                Err(_) => continue,
            };
            if tx.send(Ev::Conn { id, writer: Arc::new(Mutex::new(stream)) }).is_err() {
                return;
            }
            let tx2 = tx.clone();
            std::thread::spawn(move || loop {
                match jobs::read_job_frame(&mut reader) {
                    Ok(frame) => {
                        if tx2.send(Ev::Frame { id, frame }).is_err() {
                            return;
                        }
                    }
                    Err(_) => {
                        let _ = tx2.send(Ev::Closed { id });
                        return;
                    }
                }
            });
        }
    });
}

impl Daemon {
    fn spawn_worker(&self, slot: usize) -> Option<Child> {
        let mut cmd = Command::new(&self.cfg.worker_argv[0]);
        cmd.args(&self.cfg.worker_argv[1..])
            .arg("--connect-port")
            .arg(self.port.to_string())
            .arg("--slot")
            .arg(slot.to_string());
        match cmd.spawn() {
            Ok(child) => {
                marker!("FT_SERVE_WORKER slot={slot} pid={}", child.id());
                Some(child)
            }
            Err(e) => {
                eprintln!("serve: cannot spawn worker for slot {slot}: {e}");
                None
            }
        }
    }

    fn send_to(&self, conn: u64, frame: &JobFrame) -> bool {
        let Some(c) = self.conns.get(&conn) else { return false };
        let Ok(mut s) = c.writer.lock() else { return false };
        jobs::write_job_frame(&mut s, frame).is_ok()
    }

    // --- admission ---------------------------------------------------

    fn on_frame(&mut self, id: u64, frame: JobFrame) {
        let role = match self.conns.get(&id) {
            Some(c) => c.role,
            None => return,
        };
        match (role, frame.kind) {
            (Role::Unknown, k) if k == jobs::KIND_ACCEPT => self.on_worker_register(id, frame.job as usize),
            (Role::Unknown | Role::Client, k) if k == jobs::KIND_SUBMIT => {
                if let Some(c) = self.conns.get_mut(&id) {
                    c.role = Role::Client;
                }
                self.on_submit(id, frame);
            }
            (Role::Worker(slot), k) if k == jobs::KIND_RESULT || k == jobs::KIND_REJECT => self.on_terminal(slot, frame),
            (Role::Worker(_), k) if k == jobs::KIND_CKPT => self.on_ckpt(frame),
            _ => {}
        }
    }

    fn on_worker_register(&mut self, id: u64, slot: usize) {
        if slot >= self.slots.len() {
            return;
        }
        if let Some(c) = self.conns.get_mut(&id) {
            c.role = Role::Worker(slot);
        }
        self.slots[slot].conn = Some(id);
        marker!("FT_SERVE_READY slot={slot}");
        // A respawn whose predecessor died mid-grid-job rejoins that job
        // as a replacement instead of going idle.
        if let Some((job, jr)) = self.slots[slot].job {
            if self.jobs.contains_key(&job) {
                self.send_assignment(job, jr, slot, true);
                return;
            }
            self.slots[slot].job = None;
        }
        self.sched.release(slot);
        self.pump();
    }

    fn on_submit(&mut self, id: u64, frame: JobFrame) {
        let reply_reject = |d: &Daemon, reason: RejectReason| {
            d.send_to(
                id,
                &JobFrame {
                    kind: jobs::KIND_REJECT,
                    tenant: frame.tenant,
                    job: 0,
                    seq: frame.seq,
                    payload: vec![reason.code()],
                },
            );
        };
        let Some(&req) = frame.payload.first() else {
            reply_reject(self, RejectReason::BadRequest);
            return;
        };
        if req == REQ_SHUTDOWN {
            self.send_to(
                id,
                &JobFrame {
                    kind: jobs::KIND_ACCEPT,
                    tenant: frame.tenant,
                    job: 0,
                    seq: frame.seq,
                    payload: vec![],
                },
            );
            self.sched.drain();
            self.draining = true;
            return;
        }
        if req != REQ_JOB {
            reply_reject(self, RejectReason::BadRequest);
            return;
        }
        let spec = match JobSpec::from_words(&frame.payload[1..]) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve: bad submit from tenant {}: {e}", frame.tenant);
                reply_reject(self, RejectReason::BadRequest);
                return;
            }
        };
        // Idempotency: a SUBMIT that rides a nonzero client id is deduped
        // on (tenant, client_id, seq). A duplicate of a RUNNING job
        // re-ACCEPTs and re-targets its replies at this connection (the
        // client reconnected); a duplicate of a FINISHED job replays the
        // cached terminal frame. Either way: no second admission.
        let dedup_key = (frame.job != 0).then_some((frame.tenant, frame.job, frame.seq));
        if let Some(key) = dedup_key {
            if let Some(&job) = self.dedup.get(&key) {
                if let Some(js) = self.jobs.get_mut(&job) {
                    js.client = Some((id, frame.seq));
                }
                marker!("FT_SERVE_DEDUP job={job} tenant={} state=running", frame.tenant);
                self.send_to(
                    id,
                    &JobFrame {
                        kind: jobs::KIND_ACCEPT,
                        tenant: frame.tenant,
                        job,
                        seq: frame.seq,
                        payload: vec![],
                    },
                );
                return;
            }
            if let Some((_, job, terminal)) = self.finished.iter().find(|(k, _, _)| *k == key) {
                let (job, terminal) = (*job, terminal.clone());
                marker!("FT_SERVE_DEDUP job={job} tenant={} state=finished", frame.tenant);
                self.send_to(
                    id,
                    &JobFrame {
                        kind: jobs::KIND_ACCEPT,
                        tenant: frame.tenant,
                        job,
                        seq: frame.seq,
                        payload: vec![],
                    },
                );
                self.send_to(id, &terminal);
                return;
            }
        }
        match self.sched.submit(frame.tenant, spec.ranks(), None) {
            Admission::Reject(r) => reply_reject(self, r),
            Admission::Accept(job) => {
                if spec.ckpt {
                    self.persist_spec(job, frame.tenant, &spec);
                }
                if let Some(key) = dedup_key {
                    self.dedup.insert(key, job);
                }
                self.jobs.insert(
                    job,
                    JobState {
                        spec,
                        tenant: frame.tenant,
                        client: Some((id, frame.seq)),
                        dedup_key,
                        slots: Vec::new(),
                        incarnations: Vec::new(),
                        port_base: 0,
                        remaining: 0,
                        result: None,
                        rejected: None,
                        retried: false,
                        resume: None,
                        stage: HashMap::new(),
                        latest: None,
                        t_submit: Instant::now(),
                    },
                );
                self.send_to(
                    id,
                    &JobFrame {
                        kind: jobs::KIND_ACCEPT,
                        tenant: frame.tenant,
                        job,
                        seq: frame.seq,
                        payload: vec![],
                    },
                );
                self.pump();
            }
        }
    }

    // --- placement ---------------------------------------------------

    fn pump(&mut self) {
        for d in self.sched.dispatch() {
            self.start_job(d);
        }
    }

    fn alloc_ports(&mut self, world: usize) -> u16 {
        // Rotate through a 2048-port window so back-to-back jobs never
        // collide; TcpTransport's bind loop absorbs TIME_WAIT stragglers
        // on wrap-around.
        let span = 2048u16;
        let off = (self.next_ports - self.cfg.job_port_base) % span;
        let off = if off + world as u16 > span { 0 } else { off };
        let base = self.cfg.job_port_base + off;
        self.next_ports = base + world as u16;
        base
    }

    fn start_job(&mut self, d: Dispatch) {
        let Some(world) = self.jobs.get(&d.job).map(|js| js.spec.ranks()) else {
            return;
        };
        debug_assert_eq!(world, d.slots.len());
        let port_base = if world > 1 { self.alloc_ports(world) } else { 0 };
        let js = self.jobs.get_mut(&d.job).expect("checked above");
        js.slots = d.slots.clone();
        js.incarnations = vec![0; world];
        js.remaining = world;
        js.port_base = port_base;
        let tenant = js.tenant;
        if js.resume.is_some() {
            if let Some((panel, _)) = &js.latest {
                marker!("FT_SERVE_RESUME job={} orig={} panel={panel}", d.job, d.job);
            }
        }
        for (jr, &slot) in d.slots.iter().enumerate() {
            self.slots[slot].job = Some((d.job, jr));
            self.send_assignment(d.job, jr, slot, false);
        }
        let pids: Vec<String> = d
            .slots
            .iter()
            .map(|&s| {
                self.slots[s]
                    .child
                    .as_ref()
                    .map(|c| c.id().to_string())
                    .unwrap_or_else(|| "?".into())
            })
            .collect();
        marker!(
            "FT_SERVE_ASSIGN job={} tenant={tenant} slots={} pids={}",
            d.job,
            d.slots.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(","),
            pids.join(",")
        );
    }

    /// Ship one rank's assignment to the worker on `slot`. `replacement`
    /// marks a rejoin after a mid-job worker death.
    fn send_assignment(&mut self, job: u64, jr: usize, slot: usize, replacement: bool) {
        let Some(js) = self.jobs.get_mut(&job) else { return };
        if replacement {
            js.incarnations[jr] += 1;
        }
        let resume = if replacement {
            // Survivors ship the rollback boundary in-fabric.
            Vec::new()
        } else {
            js.resume.as_ref().map(|blobs| blobs[jr].clone()).unwrap_or_default()
        };
        let a = Assignment {
            spec: js.spec.clone(),
            job_rank: jr,
            port_base: js.port_base,
            incarnation: js.incarnations[jr],
            replacement,
            resume,
        };
        let tenant = js.tenant;
        let mut payload = vec![ASSIGN_RUN];
        payload.extend_from_slice(&a.to_words());
        let conn = self.slots[slot].conn;
        let sent = conn.is_some_and(|c| {
            self.send_to(
                c,
                &JobFrame {
                    kind: jobs::KIND_SUBMIT,
                    tenant,
                    job,
                    seq: jr as u64,
                    payload,
                },
            )
        });
        if !sent {
            // The worker died between registration and assignment; its
            // Closed event (possibly already queued) drives the normal
            // death path. Nothing more to do here.
            eprintln!("serve: assignment for job {job} rank {jr} could not reach slot {slot}");
        }
    }

    // --- completion --------------------------------------------------

    fn on_terminal(&mut self, slot: usize, frame: JobFrame) {
        // The slot is done with its rank regardless of which job the frame
        // belongs to (stale frames from an aborted job still free it).
        if self.slots[slot].job.map(|(j, _)| j) == Some(frame.job) {
            self.slots[slot].job = None;
            self.sched.release(slot);
        }
        let Some(js) = self.jobs.get_mut(&frame.job) else {
            self.pump();
            return;
        };
        if js.remaining == 0 {
            self.pump();
            return;
        }
        if frame.kind == jobs::KIND_RESULT {
            if frame.payload.first() == Some(&1.0) {
                match JobResult::from_words(&frame.payload[1..]) {
                    Ok(r) => js.result = Some(r),
                    Err(e) => {
                        eprintln!("serve: job {} sent a malformed result: {e}", frame.job);
                        js.rejected.get_or_insert(RejectReason::BadRequest);
                    }
                }
            }
        } else if let Ok(reason) = RejectReason::from_code(frame.payload.first().copied().unwrap_or(-1.0)) {
            js.rejected.get_or_insert(reason);
        }
        js.remaining -= 1;
        if js.remaining == 0 {
            self.finish_job(frame.job);
        }
        self.pump();
    }

    fn finish_job(&mut self, job: u64) {
        let Some(js) = self.jobs.remove(&job) else { return };
        self.sched.complete(job);
        let (status, frame) = match (&js.rejected, &js.result) {
            (Some(reason), _) => (
                reason.name(),
                JobFrame {
                    kind: jobs::KIND_REJECT,
                    tenant: js.tenant,
                    job,
                    seq: js.client.map(|(_, s)| s).unwrap_or(0),
                    payload: vec![reason.code()],
                },
            ),
            (None, Some(res)) => (
                "ok",
                JobFrame {
                    kind: jobs::KIND_RESULT,
                    tenant: js.tenant,
                    job,
                    seq: js.client.map(|(_, s)| s).unwrap_or(0),
                    payload: res.to_words(),
                },
            ),
            (None, None) => {
                // Every rank reported success but none carried the gather
                // root's payload — a protocol bug, surface it typed.
                eprintln!("serve: job {job} completed without a root result");
                (
                    "lost-result",
                    JobFrame {
                        kind: jobs::KIND_REJECT,
                        tenant: js.tenant,
                        job,
                        seq: js.client.map(|(_, s)| s).unwrap_or(0),
                        payload: vec![RejectReason::WorkerLost.code()],
                    },
                )
            }
        };
        if let Some(key) = js.dedup_key {
            self.dedup.remove(&key);
            self.finished.push_back((key, job, frame.clone()));
            while self.finished.len() > FINISHED_CACHE {
                self.finished.pop_front();
            }
        }
        match js.client {
            Some((conn, _)) => {
                self.send_to(conn, &frame);
            }
            None => {
                // Restart-recovered job: the submitting client is gone,
                // park the result on disk next to the checkpoints.
                if let (Some(dir), Some(res)) = (&self.cfg.state_dir, &js.result) {
                    persist_result(dir, job, res);
                }
            }
        }
        if let Some(dir) = &self.cfg.state_dir {
            let _ = std::fs::remove_file(dir.join(format!("job-{job}.spec")));
            let _ = std::fs::remove_file(dir.join(format!("job-{job}.ckpt")));
        }
        let ms = js.t_submit.elapsed().as_secs_f64() * 1e3;
        marker!("FT_SERVE_RESULT job={job} status={status} ms={ms:.1}");
    }

    // --- failure policy ----------------------------------------------

    fn on_closed(&mut self, id: u64) {
        let Some(c) = self.conns.remove(&id) else { return };
        let Role::Worker(slot) = c.role else { return };
        if self.slots[slot].conn != Some(id) {
            // Stale close from an already-replaced incarnation.
            return;
        }
        self.slots[slot].conn = None;
        self.sched.remove_idle(slot);
        if let Some(child) = self.slots[slot].child.as_mut() {
            let _ = child.wait(); // reap; it is gone either way
        }
        if self.draining && self.sched.quiescent() {
            // Workers closing their control streams during shutdown.
            return;
        }
        let running = self.slots[slot].job;
        self.slots[slot].child = self.spawn_worker(slot);
        let Some((job, jr)) = running else { return };
        let Some(js) = self.jobs.get_mut(&job) else {
            self.slots[slot].job = None;
            return;
        };
        if js.spec.ranks() > 1 {
            // In-fabric recovery needs at least one survivor holding the
            // checksum state; if every rank of the job is dead (e.g. a
            // late kill caught the whole grid), the job is gone — abort
            // typed instead of parking replacements on an empty fabric.
            let job_slots = js.slots.clone();
            if job_slots.iter().all(|&s| self.slots[s].conn.is_none()) {
                for &s in &job_slots {
                    self.slots[s].job = None;
                }
                let js = self.jobs.get_mut(&job).expect("checked above");
                js.rejected = Some(RejectReason::WorkerLost);
                js.remaining = 0;
                self.finish_job(job);
                return;
            }
            // Grid job: survivors are already running detect → agree →
            // recover inside their fabric; keep the slot bound so the
            // respawn rejoins as rank `jr` with a bumped incarnation.
            marker!("FT_SERVE_REPLACE job={job} rank={jr} slot={slot}");
            return;
        }
        // 1-rank job: no fabric to recover it. One retry, then typed loss.
        self.slots[slot].job = None;
        if !js.retried {
            js.retried = true;
            js.remaining = 0;
            js.slots.clear();
            self.sched.requeue_front(job);
            marker!("FT_SERVE_RETRY job={job}");
        } else {
            js.rejected = Some(RejectReason::WorkerLost);
            js.remaining = 0;
            self.finish_job(job);
        }
    }

    // --- checkpoints -------------------------------------------------

    fn on_ckpt(&mut self, frame: JobFrame) {
        let Some(js) = self.jobs.get_mut(&frame.job) else { return };
        let world = js.spec.ranks();
        let Ok((rank, panel, bytes)) = crate::job::ckpt_from_words(&frame.payload, world) else {
            return;
        };
        let entry = js.stage.entry(panel).or_default();
        entry.insert(rank, bytes);
        if entry.len() == world {
            let blobs: Vec<Vec<u8>> = (0..world).map(|r| js.stage[&panel][&r].clone()).collect();
            js.latest = Some((panel, blobs));
            js.stage.retain(|&p, _| p > panel);
            if let Some(dir) = &self.cfg.state_dir {
                let (p, blobs) = js.latest.as_ref().expect("just set");
                persist_ckpt(dir, frame.job, *p, blobs);
            }
        }
    }

    // --- persistence / restart ---------------------------------------

    fn persist_spec(&self, job: u64, tenant: u32, spec: &JobSpec) {
        let Some(dir) = &self.cfg.state_dir else { return };
        let words = spec.to_words();
        let mut buf = Vec::with_capacity(16 + 8 * words.len());
        buf.extend_from_slice(&(tenant as u64).to_le_bytes());
        buf.extend_from_slice(&(words.len() as u64).to_le_bytes());
        for w in &words {
            buf.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        atomic_write(dir, &format!("job-{job}.spec"), &buf);
    }

    /// Rebuild jobs from `state_dir` after a whole-pool restart: every
    /// persisted spec is re-admitted under its original id, resuming from
    /// the newest complete checkpoint set if one was staged.
    fn resubmit_persisted(&mut self) {
        let Some(dir) = self.cfg.state_dir.clone() else { return };
        let Ok(entries) = std::fs::read_dir(&dir) else { return };
        let mut found: Vec<u64> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let id = name.strip_prefix("job-")?.strip_suffix(".spec")?;
                id.parse().ok()
            })
            .collect();
        found.sort_unstable();
        for job in found {
            let Some((tenant, spec)) = load_spec(&dir, job) else {
                eprintln!("serve: dropping unreadable persisted spec for job {job}");
                continue;
            };
            let resume = load_ckpt(&dir, job, &spec).unwrap_or_else(|e| {
                eprintln!("serve: job {job}: persisted checkpoint unusable ({e}); running it from the start");
                None
            });
            match self.sched.submit(tenant, spec.ranks(), Some(job)) {
                Admission::Accept(id) => {
                    debug_assert_eq!(id, job);
                    let latest = resume.clone();
                    self.jobs.insert(
                        job,
                        JobState {
                            spec,
                            tenant,
                            client: None,
                            dedup_key: None,
                            slots: Vec::new(),
                            incarnations: Vec::new(),
                            port_base: 0,
                            remaining: 0,
                            result: None,
                            rejected: None,
                            retried: false,
                            resume: resume.map(|(_, blobs)| blobs),
                            stage: HashMap::new(),
                            latest,
                            t_submit: Instant::now(),
                        },
                    );
                }
                Admission::Reject(r) => eprintln!("serve: persisted job {job} not re-admitted: {}", r.name()),
            }
        }
        // Dispatch happens as workers register.
    }

    // --- shutdown ----------------------------------------------------

    fn stop_workers(&mut self) {
        for slot in 0..self.slots.len() {
            if let Some(conn) = self.slots[slot].conn {
                self.send_to(
                    conn,
                    &JobFrame {
                        kind: jobs::KIND_SUBMIT,
                        tenant: 0,
                        job: 0,
                        seq: 0,
                        payload: vec![ASSIGN_STOP],
                    },
                );
            }
        }
        for s in &mut self.slots {
            if let Some(child) = s.child.as_mut() {
                let _ = child.wait();
            }
        }
    }
}

fn atomic_write(dir: &Path, name: &str, bytes: &[u8]) {
    let tmp = dir.join(format!(".{name}.tmp"));
    let fin = dir.join(name);
    let ok = std::fs::write(&tmp, bytes).is_ok() && std::fs::rename(&tmp, &fin).is_ok();
    if !ok {
        eprintln!("serve: failed to persist {}", fin.display());
    }
}

fn persist_ckpt(dir: &Path, job: u64, panel: usize, blobs: &[Vec<u8>]) {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(panel as u64).to_le_bytes());
    buf.extend_from_slice(&(blobs.len() as u64).to_le_bytes());
    for b in blobs {
        buf.extend_from_slice(&(b.len() as u64).to_le_bytes());
        buf.extend_from_slice(b);
    }
    atomic_write(dir, &format!("job-{job}.ckpt"), &buf);
}

fn persist_result(dir: &Path, job: u64, res: &JobResult) {
    let words = res.to_words();
    let mut buf = Vec::with_capacity(8 + 8 * words.len());
    buf.extend_from_slice(&(words.len() as u64).to_le_bytes());
    for w in &words {
        buf.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    atomic_write(dir, &format!("result-{job}.bin"), &buf);
}

/// Parse a `result-<id>.bin` file (the counterpart of the daemon's
/// orphan-result persistence) — used by tests and the submit CLI.
pub fn load_result(path: &Path) -> Result<JobResult, String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    if bytes.len() < 8 {
        return Err("truncated result file".into());
    }
    let nwords = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
    if bytes.len() != 8 + 8 * nwords {
        return Err(format!("result file is {} bytes, header says {} words", bytes.len(), nwords));
    }
    let words: Vec<f64> = bytes[8..]
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
        .collect();
    JobResult::from_words(&words)
}

fn load_spec(dir: &Path, job: u64) -> Option<(u32, JobSpec)> {
    let bytes = std::fs::read(dir.join(format!("job-{job}.spec"))).ok()?;
    if bytes.len() < 16 {
        return None;
    }
    let tenant = u64::from_le_bytes(bytes[..8].try_into().ok()?) as u32;
    let nwords = u64::from_le_bytes(bytes[8..16].try_into().ok()?) as usize;
    if bytes.len() != 16 + 8 * nwords {
        return None;
    }
    let words: Vec<f64> = bytes[16..]
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
        .collect();
    JobSpec::from_words(&words).ok().map(|s| (tenant, s))
}

/// The persisted checkpoint set of `job`: `Ok(None)` when there is none,
/// `Err` when the file is damaged or does not fit `spec` — every blob is
/// decoded and checked against its rank's geometry and the file's panel
/// here, so a worker is never handed one it cannot restore.
fn load_ckpt(dir: &Path, job: u64, spec: &JobSpec) -> Result<Option<CkptSet>, String> {
    let Ok(bytes) = std::fs::read(dir.join(format!("job-{job}.ckpt"))) else {
        return Ok(None);
    };
    let word = |off: usize| -> Result<usize, String> {
        let end = off
            .checked_add(8)
            .filter(|&e| e <= bytes.len())
            .ok_or(format!("truncated at byte {off}"))?;
        Ok(u64::from_le_bytes(bytes[off..end].try_into().expect("8 bytes")) as usize)
    };
    let (panel, nblobs, world) = (word(0)?, word(8)?, spec.ranks());
    if nblobs != world {
        return Err(format!("{nblobs} blobs for {world} ranks"));
    }
    let tau_len = spec.solver.ft().tau_len(spec.n).max(1);
    let mut off = 16;
    let mut blobs = Vec::with_capacity(world);
    for rank in 0..world {
        let len = word(off)?;
        let blob = off
            .checked_add(8)
            .and_then(|start| Some(start..start.checked_add(len)?))
            .and_then(|r| bytes.get(r))
            .ok_or(format!("rank {rank}'s blob of {len} bytes overruns the file"))?;
        let ck = FtCheckpoint::from_bytes(blob).map_err(|e| format!("rank {rank}: {e}"))?;
        let local = Encoded::local_len(spec.n, spec.nb, spec.redundancy, spec.p, spec.q, rank);
        ck.fits(spec.n, spec.nb, local, tau_len)
            .map_err(|e| format!("rank {rank}: {e}"))?;
        if ck.panel() != panel {
            return Err(format!("rank {rank}'s blob is at panel {}, the set at {panel}", ck.panel()));
        }
        blobs.push(blob.to_vec());
        off += 8 + len;
    }
    if off != bytes.len() {
        return Err(format!("{} bytes past the last blob", bytes.len() - off));
    }
    Ok(Some((panel, blobs)))
}
