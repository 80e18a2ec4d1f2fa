//! Per-process communication context: tagged point-to-point messages over
//! a pluggable [`Transport`], revocable barriers, fail-point checks, chaos
//! injection and the per-phase traffic ledger. The tree collectives live in
//! [`crate::collectives`]; failure detection in [`crate::detect`];
//! agreement and the message barrier in [`crate::dist`].

use crate::detect::{self, Detector, InterruptReason};
use crate::fault::{FaultScript, SdcFlip};
use crate::grid::Grid;
use crate::tag::{Leg, Tag, TrafficLedger, TrafficPhase};
use crate::transport::{CommError, Msg, Transport};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Receive timeout — a deadlock in the SPMD protocol aborts loudly instead
/// of hanging the test suite. 120 s by default: generous for a peer that is
/// compute-bound between frames, yet well inside the distributed launcher's
/// 600 s watchdog so the typed panic (with its known-dead diagnosis) is what
/// reaches the user, not a SIGKILL. `FT_RECV_TIMEOUT_MS` overrides it so
/// integration tests can assert that a wedged protocol fails *typed and
/// bounded* instead of hanging; [`recv_timeout_env`] reads it.
pub(crate) fn recv_timeout() -> Duration {
    match recv_timeout_env() {
        Ok(timeout) => timeout,
        Err(e) => panic!("{e}"),
    }
}

/// The receive timeout `FT_RECV_TIMEOUT_MS` sets (120 s when unset), read
/// once per process. A value that is not a positive integer of milliseconds
/// is an error naming the knob: `0` would time out every receive on its
/// first empty poll, and garbage used to fall back to the default silently.
/// A binary calls this at startup so a bad value is a usage error, not a
/// panic inside the first receive.
pub fn recv_timeout_env() -> Result<Duration, String> {
    use std::sync::OnceLock;
    static PARSED: OnceLock<Result<Duration, String>> = OnceLock::new();
    let parsed = PARSED.get_or_init(|| match std::env::var("FT_RECV_TIMEOUT_MS") {
        Err(_) => Ok(Duration::from_secs(120)),
        Ok(v) => match v.parse::<u64>() {
            Ok(ms) if ms > 0 => Ok(Duration::from_millis(ms)),
            _ => Err(format!("FT_RECV_TIMEOUT_MS: '{v}' is not a positive integer (milliseconds)")),
        },
    });
    parsed.clone()
}

/// The tick of [`Ctx::wait`]: a blocked call wakes at least this often, and
/// liveness is judged only once a whole tick has passed without data.
const RECV_POLL: Duration = Duration::from_millis(50);

/// Agreement frames (see [`crate::dist`]).
pub(crate) const AGREE_WIRE: u64 = u64::MAX - 1;

/// Message-barrier arrival frames (see [`crate::dist`]).
pub(crate) const BARRIER_WIRE: u64 = u64::MAX - 2;

/// Lower edge of the control wire band. Frames at or above this key carry
/// their own epoch/generation in the payload and bypass the normal epoch
/// filter (an agreement frame *is* how epochs advance, so it cannot be
/// fenced by them). Far outside the [`Tag`] encoding.
pub(crate) const DIST_CTRL_MIN: u64 = u64::MAX - 15;

/// The [`Ctx`]s of an in-process world over `transports` (rank order). The
/// ranks share their transport fabric and the barrier rendezvous — nothing
/// else: each holds its own copy of the script, detects deaths on its own
/// and agrees through the wire protocol.
pub(crate) fn world_ctxs(grid: Grid, script: FaultScript, transports: Vec<Box<dyn Transport>>) -> Vec<Ctx> {
    assert_eq!(transports.len(), grid.size(), "one transport endpoint per rank");
    let rendezvous = Arc::new(Rendezvous::default());
    transports
        .into_iter()
        .enumerate()
        .map(|(rank, transport)| Ctx::build(rank, grid, transport, Some(Arc::clone(&rendezvous)), script.clone()))
        .collect()
}

/// Build the single [`Ctx`] of one *process* in a multi-process world: the
/// transport is the process's only tie to its peers, so its barrier is the
/// message protocol of [`crate::dist`] rather than a rendezvous.
pub(crate) fn distributed_ctx(grid: Grid, script: FaultScript, transport: Box<dyn Transport>) -> Ctx {
    assert_eq!(transport.world_size(), grid.size(), "transport world != grid size");
    Ctx::build(transport.rank(), grid, transport, None, script)
}

/// The barrier of an in-process world: a counting rendezvous. A waiter that
/// sweeps a death from its own transport revokes the generation of its
/// epoch, which backs every waiter of that epoch out, and turns away every
/// later arrival from it: all-or-none. An agreement moves every rank past
/// the revoked epoch.
#[derive(Debug, Default)]
pub(crate) struct Rendezvous {
    gate: Mutex<Gate>,
    cv: Condvar,
}

#[derive(Debug, Default)]
pub(crate) struct Gate {
    /// Ranks waiting in the current generation.
    count: usize,
    /// Completed generations.
    gen: u64,
    /// The latest epoch whose barriers were revoked.
    revoked: Option<u64>,
}

impl Rendezvous {
    /// Completed barrier generations so far.
    #[cfg(test)]
    pub(crate) fn generation(&self) -> u64 {
        self.gate.lock().expect("barrier poisoned").gen
    }
}

/// What a blocked call waits for in [`Ctx::wait`]: it keys the frames the
/// wait hands over, says what the wait blocks on, and names the call in the
/// verdict of its deadline.
#[derive(Clone, Copy)]
pub(crate) enum Waiting<'a> {
    /// A data receive: the next frame from `src` on `wire`.
    Recv { src: usize, wire: u64 },
    /// The message barrier: the next arrival frame from `src`.
    Arrival { src: usize },
    /// The in-process barrier: its gate, blocked on through the condvar.
    Rendezvous(&'a Rendezvous),
    /// Failure agreement: the views gossiped to this rank.
    Agreement,
}

impl std::fmt::Display for Waiting<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Waiting::Recv { src, wire } => match Tag::decode_wire(wire) {
                Some((tag, leg)) => write!(f, "recv(src={src}, tag={tag:?}/{leg} [wire {wire:#x}])"),
                None => write!(f, "recv(src={src}, wire {wire:#x})"),
            },
            Waiting::Arrival { src } => write!(f, "message barrier (arrival from rank {src})"),
            Waiting::Rendezvous(_) => write!(f, "barrier rendezvous"),
            Waiting::Agreement => write!(f, "agreement"),
        }
    }
}

/// One wake of [`Ctx::wait`], as its waiter sees it.
pub(crate) struct Wake {
    /// The frame at the wait's key, when that is what woke it.
    pub(crate) frame: Option<Arc<[f64]>>,
    /// A whole tick passed without data while deaths can strike.
    pub(crate) judged: bool,
    /// Judged, and the sweep left a death awaiting agreement.
    pub(crate) revoked: bool,
    /// The deadline has passed: the wait ends after this wake.
    pub(crate) expired: bool,
}

/// A process's handle to the simulated machine. Not `Sync`: it lives on its
/// process's thread.
pub struct Ctx {
    rank: usize,
    grid: Grid,
    /// Ranks of this process's grid row (column order) and grid column
    /// (row order): the member lists of every row/column collective.
    row_ranks: Vec<usize>,
    col_ranks: Vec<usize>,
    pub(crate) transport: Box<dyn Transport>,
    /// Out-of-order stash for selective receive by `(src, wire)`; each
    /// entry keeps the envelope epoch so an agreement can flush exactly
    /// the aborted epoch's data frames and no newer ones.
    #[allow(clippy::type_complexity)] // (src, wire) → FIFO of payloads; a type alias would obscure it
    pub(crate) stash: RefCell<HashMap<(usize, u64), VecDeque<(u64, Arc<[f64]>)>>>,
    /// This rank's own failure detector ([`crate::detect`]).
    pub(crate) detector: RefCell<Detector>,
    /// The in-process world's barrier; `None` when this `Ctx` is alone in
    /// its process and its barrier is the message protocol of
    /// [`crate::dist`].
    pub(crate) rendezvous: Option<Arc<Rendezvous>>,
    script: FaultScript,
    /// SDC flip indices that already fired on this rank — a rollback that
    /// re-executes ops must not re-corrupt.
    sdc_fired: RefCell<HashSet<usize>>,
    /// Flips whose op has passed but which the algorithm has not yet
    /// applied; drained by [`Ctx::take_sdc_flips`] at phase boundaries.
    sdc_pending: RefCell<Vec<SdcFlip>>,
    /// The lowest fail point whose scripted failures can still strike —
    /// one past the last point this process passed. A fail point is
    /// fail-stop: re-visiting it (a checkpoint/restart or scrub rollback
    /// re-running an iteration) must not re-kill.
    next_failpoint: Cell<u64>,
    /// Communication epoch: bumped by each failure agreement; messages
    /// stamped with an older epoch are stragglers from an aborted attempt.
    pub(crate) epoch: Cell<u64>,
    /// Message-barrier generation within the current epoch.
    pub(crate) bar_gen: Cell<u64>,
    /// Chaos injection armed (the algorithm's protection domain is active).
    chaos_armed: Cell<bool>,
    /// Message operations performed since arming (chaos clock).
    ops: Cell<u64>,
    /// Chaos-kill indices that already fired on this rank.
    chaos_fired: RefCell<HashSet<usize>>,
    /// Inside a recovery round (for `ChaosPoint::RecoveryOp` targeting).
    in_recovery: Cell<bool>,
    recovery_round: Cell<u32>,
    recovery_ops: Cell<u64>,
    bytes_sent: Cell<u64>,
    msgs_sent: Cell<u64>,
    ledger: RefCell<TrafficLedger>,
    /// Elastic-shrink hook: when the launcher will not re-spawn a dead
    /// rank, the lowest-ranked survivor invokes this with `(victim,
    /// next_incarnation)` to adopt the victim's rank into its own process
    /// (see [`crate::dist`]'s agreement loop). `None` = shrink disabled.
    #[allow(clippy::type_complexity)] // a handler alias would obscure the (victim, incarnation) contract
    shrink_handler: RefCell<Option<Box<dyn Fn(usize, u32) + Send>>>,
    /// Victims this rank has adopted (world-length, idempotence guard).
    shrink_adopted: RefCell<Vec<bool>>,
    /// Seconds the agreement loop spent waiting out adoptions I triggered.
    shrink_stall: Cell<f64>,
}

impl Ctx {
    fn build(
        rank: usize,
        grid: Grid,
        transport: Box<dyn Transport>,
        rendezvous: Option<Arc<Rendezvous>>,
        script: FaultScript,
    ) -> Ctx {
        let world = grid.size();
        let (p, q) = grid.coords_of(rank);
        Ctx {
            rank,
            grid,
            row_ranks: (0..grid.npcol()).map(|c| grid.rank_of(p, c)).collect(),
            col_ranks: (0..grid.nprow()).map(|r| grid.rank_of(r, q)).collect(),
            transport,
            stash: RefCell::new(HashMap::new()),
            detector: RefCell::new(Detector::new(world)),
            rendezvous,
            script,
            sdc_fired: RefCell::new(HashSet::new()),
            sdc_pending: RefCell::new(Vec::new()),
            next_failpoint: Cell::new(0),
            epoch: Cell::new(0),
            bar_gen: Cell::new(0),
            chaos_armed: Cell::new(false),
            ops: Cell::new(0),
            chaos_fired: RefCell::new(HashSet::new()),
            in_recovery: Cell::new(false),
            recovery_round: Cell::new(0),
            recovery_ops: Cell::new(0),
            bytes_sent: Cell::new(0),
            msgs_sent: Cell::new(0),
            ledger: RefCell::new(TrafficLedger::default()),
            shrink_handler: RefCell::new(None),
            shrink_adopted: RefCell::new(vec![false; world]),
            shrink_stall: Cell::new(0.0),
        }
    }

    /// This process's rank in `0..P·Q`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Whether this `Ctx` is alone in its process (a multi-process world):
    /// its barrier is a message protocol, a chaos kill is a real process
    /// death, and failures can strike whether or not the script has kills.
    /// Detection and agreement are the same on every fabric.
    #[inline]
    pub fn distributed(&self) -> bool {
        self.rendezvous.is_none()
    }

    /// Whether deaths can strike this run: kills are scripted, or peers are
    /// real processes. Only then do waits sweep the transport for them.
    fn failures_on(&self) -> bool {
        !self.script.kills().is_empty() || self.distributed()
    }

    /// Snapshot of the transport's per-peer wire counters (all-zero for
    /// the in-process fabric).
    pub fn transport_stats(&self) -> crate::transport::TransportStats {
        self.transport.stats()
    }

    /// Arm elastic-shrink mode: when a peer is agreed dead and no
    /// replacement arrives, the adopter (lowest-ranked survivor by this
    /// rank's view) invokes `handler` with the victim's rank and the
    /// incarnation its successor must announce. The handler must start the
    /// successor *concurrently* (e.g. a thread hosting a fresh transport
    /// bound to the victim's freed port) and return promptly — the
    /// agreement loop keeps pumping while the adopted rank comes up.
    pub fn set_shrink_handler(&self, handler: impl Fn(usize, u32) + Send + 'static) {
        *self.shrink_handler.borrow_mut() = Some(Box::new(handler));
    }

    /// Shrink bookkeeping: world-length "I adopted this rank" flags plus
    /// the seconds of agreement stall attributed to adoptions this rank
    /// triggered. All zeros/false when shrink never fired.
    pub fn shrink_stats(&self) -> (Vec<bool>, f64) {
        (self.shrink_adopted.borrow().clone(), self.shrink_stall.get())
    }

    /// Invoke the shrink handler for every agreed-dead rank not yet
    /// adopted, if this rank is the adopter. Each rank applies the same
    /// rule to its own failure view — lowest-ranked survivor wins — so at
    /// most one survivor starts each adoption (transient view divergence
    /// is bounded by the agreement this is called from). Returns whether a
    /// new adoption was started.
    pub(crate) fn try_shrink_adoptions(&self, dead: &[usize]) -> bool {
        if dead.is_empty() || self.shrink_handler.borrow().is_none() {
            return false;
        }
        if (0..self.grid.size()).find(|r| !dead.contains(r)) != Some(self.rank) {
            return false;
        }
        let mut started = false;
        for &v in dead {
            if std::mem::replace(&mut self.shrink_adopted.borrow_mut()[v], true) {
                continue;
            }
            let inc = self.transport.peer_incarnation(v) + 1;
            if let Some(h) = self.shrink_handler.borrow().as_ref() {
                h(v, inc);
            }
            started = true;
        }
        started
    }

    /// Attribute `secs` of agreement stall to this rank's adoptions.
    pub(crate) fn add_shrink_stall(&self, secs: f64) {
        self.shrink_stall.set(self.shrink_stall.get() + secs);
    }

    /// Pre-seed the fired set of the kill injector — a respawned
    /// replacement process is told which kills already struck so they do
    /// not re-fire on its fresh op clock.
    pub fn mark_chaos_fired(&self, indices: &[usize]) {
        let mut fired = self.chaos_fired.borrow_mut();
        for &i in indices {
            fired.insert(i);
        }
    }

    /// The grid geometry.
    #[inline]
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// This process's grid row.
    #[inline]
    pub fn myrow(&self) -> usize {
        self.grid.coords_of(self.rank).0
    }

    /// This process's grid column.
    #[inline]
    pub fn mycol(&self) -> usize {
        self.grid.coords_of(self.rank).1
    }

    /// Process rows `P`.
    #[inline]
    pub fn nprow(&self) -> usize {
        self.grid.nprow()
    }

    /// Process columns `Q`.
    #[inline]
    pub fn npcol(&self) -> usize {
        self.grid.npcol()
    }

    /// Bytes sent by this process so far (communication-volume accounting
    /// for the Section 6 model validation).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.get()
    }

    /// Messages sent by this process so far.
    pub fn msgs_sent(&self) -> u64 {
        self.msgs_sent.get()
    }

    /// Snapshot of the per-phase traffic ledger. Its phase totals sum to
    /// exactly [`Ctx::bytes_sent`] / [`Ctx::msgs_sent`].
    pub fn traffic(&self) -> TrafficLedger {
        *self.ledger.borrow()
    }

    // --- point to point ----------------------------------------------------

    /// Send `data` to `dst` under `tag`.
    pub fn send(&self, dst: usize, tag: impl Into<Tag>, data: &[f64]) {
        self.send_arc(dst, tag, Arc::from(data));
    }

    /// Send an already-shared payload to `dst` under `tag` without copying
    /// it — re-sending a retained `Arc<[f64]>` (e.g. a snapshot backup) is
    /// free at this layer.
    pub fn send_arc(&self, dst: usize, tag: impl Into<Tag>, payload: Arc<[f64]>) {
        let tag = tag.into();
        self.send_wire(dst, tag.wire(Leg::P2p), tag.phase(), payload);
    }

    /// Blocking selective receive of the next message from `src` with `tag`.
    /// FIFO order is preserved per `(src, tag)` pair.
    pub fn recv(&self, src: usize, tag: impl Into<Tag>) -> Vec<f64> {
        self.recv_arc(src, tag).to_vec()
    }

    /// [`Ctx::recv`] without the final copy: the payload stays shared with
    /// the sender (and any broadcast siblings).
    pub fn recv_arc(&self, src: usize, tag: impl Into<Tag>) -> Arc<[f64]> {
        let tag = tag.into();
        self.recv_wire(src, tag.wire(Leg::P2p))
    }

    /// Non-panicking selective receive: like [`Ctx::recv`] but surfaces
    /// communication failures as typed [`CommError`]s — [`CommError::Timeout`]
    /// when nothing arrives within `timeout`, [`CommError::PeerDead`] when
    /// the awaited peer's endpoint is closed, [`CommError::Revoked`] when a
    /// failure notification has revoked the current epoch.
    pub fn try_recv(&self, src: usize, tag: impl Into<Tag>, timeout: Duration) -> Result<Vec<f64>, CommError> {
        let tag = tag.into();
        self.chaos_tick();
        self.recv_wire_impl(src, tag.wire(Leg::P2p), Some(timeout)).map(|p| p.to_vec())
    }

    pub(crate) fn send_wire(&self, dst: usize, wire: u64, phase: TrafficPhase, payload: Arc<[f64]>) {
        assert!(dst < self.grid.size(), "send: bad destination {dst}");
        self.chaos_tick();
        self.bytes_sent.set(self.bytes_sent.get() + 8 * payload.len() as u64);
        self.msgs_sent.set(self.msgs_sent.get() + 1);
        self.ledger.borrow_mut().record(phase, 8 * payload.len() as u64);
        self.transport
            .send(dst, Msg { src: self.rank, wire, epoch: self.epoch.get(), payload });
    }

    pub(crate) fn recv_wire(&self, src: usize, wire: u64) -> Arc<[f64]> {
        self.chaos_tick();
        match self.recv_wire_impl(src, wire, None) {
            Ok(p) => p,
            // A dead peer without agreement yet is the same condition as a
            // revocation: abort to the next agreement point.
            Err(_) => detect::raise_interrupt(InterruptReason::Revoked, self.rank),
        }
    }

    /// The receive of `(src, wire)`: blocking when `try_for` is `None`.
    fn recv_wire_impl(&self, src: usize, wire: u64, try_for: Option<Duration>) -> Result<Arc<[f64]>, CommError> {
        self.wait(Waiting::Recv { src, wire }, try_for, |w, _| match w.frame.take() {
            Some(p) => Some(Ok(p)),
            None if w.revoked => Some(Err(CommError::Revoked)),
            None if w.judged && self.transport.is_peer_dead(src) => Some(Err(CommError::PeerDead { peer: src })),
            None => None,
        })
    }

    /// The one blocking wait of a `Ctx`: every receive, both barriers and
    /// the agreement block here and nowhere else (DESIGN.md §7). `poll` is
    /// what the caller waits for; it sees every wake, the first on entry,
    /// with the rendezvous's gate locked if that is what blocks, and ends
    /// the wait by returning `Some`. The wait owns the rest:
    ///
    /// * **the stash and the inbox**: a frame at `what`'s key goes to
    ///   `poll`, any other into the stash; a data frame from an older epoch
    ///   is a straggler of an aborted attempt and dropped;
    /// * **the tick**: each wake blocks at most [`RECV_POLL`], on the inbox
    ///   or on the rendezvous's condvar, which `notify_all` wakes at once;
    /// * **the liveness rule**: only a wake after a whole tick without data
    ///   (control frames are not data) judges liveness, sweeping the
    ///   transport's death evidence when deaths can strike. A frame that
    ///   made it across the wire beats a concurrently observed death, and
    ///   a rank stops where it can make no more progress, so the op clock
    ///   it stops at does not depend on when it looked;
    /// * **the deadline**: `try_for`, else [`recv_timeout`], in wall time
    ///   from entry or from the last data frame;
    /// * **the outcome** past it: `Timeout` to a `try_for` wait, and for
    ///   every blocking call the typed [`CommError::Partitioned`] unwind
    ///   naming `what` and the known-dead ranks. A transport error is
    ///   returned or unwound the same way.
    pub(crate) fn wait<T>(
        &self,
        what: Waiting<'_>,
        try_for: Option<Duration>,
        mut poll: impl FnMut(&mut Wake, Option<&mut Gate>) -> Option<Result<T, CommError>>,
    ) -> Result<T, CommError> {
        let key = match what {
            Waiting::Recv { src, wire } => Some((src, wire)),
            Waiting::Arrival { src } => Some((src, BARRIER_WIRE)),
            Waiting::Rendezvous(_) | Waiting::Agreement => None,
        };
        let mut gate = match what {
            Waiting::Rendezvous(rv) => Some(rv.gate.lock().expect("barrier poisoned")),
            _ => None,
        };
        let (timeout, failures_on) = (try_for.unwrap_or_else(recv_timeout), self.failures_on());
        let frame = key.and_then(|k| self.stash.borrow_mut().get_mut(&k)?.pop_front());
        let mut wake = Wake {
            frame: frame.map(|(_, d)| d),
            judged: false,
            revoked: false,
            expired: false,
        };
        // Since the inbox last delivered data, or since entry.
        let mut quiet = Instant::now();
        let failed = loop {
            if let Some(done) = poll(&mut wake, gate.as_deref_mut()) {
                return done;
            }
            if wake.expired {
                break None;
            }
            let slice = RECV_POLL.min(timeout.saturating_sub(quiet.elapsed()));
            match (what, gate.take()) {
                (Waiting::Rendezvous(rv), Some(g)) => gate = Some(rv.cv.wait_timeout(g, slice).expect("barrier poisoned").0),
                _ => match self.transport.recv(slice) {
                    Ok(msg) if msg.wire < DIST_CTRL_MIN && msg.epoch < self.epoch.get() => {}
                    Ok(msg) if key == Some((msg.src, msg.wire)) => wake.frame = Some(msg.payload),
                    Ok(msg) => {
                        // Data restarts the quiet clock. Control frames
                        // fence themselves (their epoch or generation rides
                        // in the payload) and are no data.
                        if msg.wire < DIST_CTRL_MIN {
                            quiet = Instant::now();
                        }
                        let mut stash = self.stash.borrow_mut();
                        stash
                            .entry((msg.src, msg.wire))
                            .or_default()
                            .push_back((msg.epoch, msg.payload));
                    }
                    Err(CommError::Timeout) => {}
                    Err(e) => break Some(e),
                },
            }
            let idle = quiet.elapsed();
            wake.judged = failures_on && idle >= RECV_POLL.min(timeout);
            wake.revoked = wake.judged && self.sweep_revoked();
            wake.expired = idle >= timeout;
        };
        drop(gate);
        let err = failed.unwrap_or_else(|| match try_for {
            Some(_) => CommError::Timeout,
            None => CommError::Partitioned { wait: what.to_string(), unreachable: self.known_dead() },
        });
        if try_for.is_none() {
            eprintln!("rank {}: {err} (deadline {timeout:?})", self.rank);
            std::panic::panic_any(err);
        }
        Err(err)
    }

    /// Sweep the transport's death evidence into this rank's detector, and
    /// say whether a death awaits agreement.
    pub(crate) fn sweep_revoked(&self) -> bool {
        let mut detector = self.detector.borrow_mut();
        detector.sweep(self.rank, &*self.transport);
        detector.is_revoked()
    }

    /// Ranks currently known to have failed: the detector's uncommitted
    /// victim round plus any closed transport endpoints. Sorted.
    pub fn known_dead(&self) -> Vec<usize> {
        let mut d = self.detector.borrow().victims();
        for r in 0..self.grid.size() {
            if self.transport.is_peer_dead(r) && !d.contains(&r) {
                d.push(r);
            }
        }
        d.sort_unstable();
        d
    }

    // --- barriers -----------------------------------------------------------

    /// World barrier. Revocable: if a death is observed while waiting, the
    /// barrier aborts (all-or-none per generation) and the call unwinds to
    /// the enclosing failure handler. In process it is a rendezvous, across
    /// processes the message protocol of [`crate::dist`].
    pub fn barrier(&self) {
        let passed = match &self.rendezvous {
            Some(rv) => self.rendezvous_barrier(rv),
            None => self.dist_barrier(),
        };
        if passed.is_err() {
            detect::raise_interrupt(InterruptReason::Revoked, self.rank);
        }
    }

    /// The in-process barrier; see [`Rendezvous`]. A rank that already
    /// sees a death does not arrive; an arrival waits in [`Ctx::wait`] and
    /// withdraws when it backs out or its deadline passes.
    fn rendezvous_barrier(&self, rv: &Rendezvous) -> Result<(), CommError> {
        let epoch = self.epoch.get();
        let revoke = |gate: &mut Gate| {
            gate.revoked = gate.revoked.max(Some(epoch));
            rv.cv.notify_all();
            Err(CommError::Revoked)
        };
        let gen = {
            let mut gate = rv.gate.lock().expect("barrier poisoned");
            if gate.revoked >= Some(epoch) || (self.failures_on() && self.sweep_revoked()) {
                return revoke(&mut gate);
            }
            gate.count += 1;
            if gate.count == self.grid.size() {
                gate.count = 0;
                gate.gen += 1;
                rv.cv.notify_all();
                return Ok(());
            }
            gate.gen
        };
        self.wait(Waiting::Rendezvous(rv), None, |w, gate| {
            let gate = gate.expect("a rendezvous waits on its gate");
            if gate.gen != gen {
                return Some(Ok(()));
            }
            let revoked = gate.revoked >= Some(epoch) || w.revoked;
            if revoked || w.expired {
                gate.count -= 1; // withdraw the arrival
            }
            revoked.then(|| revoke(gate))
        })
    }

    /// Ranks of this process's grid row, in column order.
    pub fn row_ranks(&self) -> &[usize] {
        &self.row_ranks
    }

    /// Ranks of this process's grid column, in row order.
    pub fn col_ranks(&self) -> &[usize] {
        &self.col_ranks
    }

    // --- fault handling ----------------------------------------------------

    /// Fail-point check: the ranks that fail at `point`, sorted — empty when
    /// nothing does. Must be called **collectively** (same sequence of
    /// points on all ranks) at quiescent phase boundaries. A victim must
    /// drop its local data and act as its own replacement process.
    ///
    /// Every rank holds the same script, so every rank reads the same
    /// victims for the same point straight from it: no message, no barrier,
    /// fired or not. The victims also enter the detector's round, so a kill
    /// striking during their recovery agrees on them too; they leave it when
    /// the caller commits the repaired boundary ([`Ctx::commit_boundary`]),
    /// so a later kill agrees on its own victims only. Kills and wire
    /// deaths are not read here — they revoke the world and surface as
    /// interrupts in the next communication call.
    ///
    /// A point strikes once: a point this rank has already passed (a
    /// checkpoint/restart or scrub rollback re-running an iteration) reads
    /// empty, unless [`Ctx::rewind_failpoints`] re-armed it.
    pub fn check_failpoint(&self, point: u64) -> Vec<usize> {
        if point < self.next_failpoint.get() {
            return Vec::new();
        }
        self.next_failpoint.set(point + 1);
        let victims = self.script.victims_at(point);
        // Scripted deaths keep their rank's incarnation: nothing respawns.
        self.detector.borrow_mut().merge_round(victims.iter().map(|&v| (v, 0)));
        victims
    }

    /// Re-arm the fail points from `next` on: a rollback to a boundary
    /// restores the state from just before fail point `next`, so the points
    /// before it count as passed and every point from it on strikes again.
    /// Every rank rolls back to the same boundary, so every rank reads the
    /// same failures on the way forward — whichever points it had passed
    /// before the rollback, and whether or not it is a fresh replacement.
    /// The boundaries from `next` on end the detector round again too: the
    /// rollback's recovery commits boundary `next` once more, and that
    /// commit clears the victims it repaired ([`Ctx::commit_boundary`]).
    pub fn rewind_failpoints(&self, next: u64) {
        self.next_failpoint.set(next);
        self.detector.borrow_mut().rewind(next);
    }

    /// Arm kill and flip injection: the algorithm's protection domain starts
    /// here (after initial encoding — data lost before protection exists is
    /// outside the paper's fault model). Resets the message-op clock.
    pub fn arm_chaos(&self) {
        self.chaos_armed.set(true);
        self.ops.set(0);
    }

    /// Whether kills can strike this run (armed and at least one scripted).
    pub fn chaos_enabled(&self) -> bool {
        self.chaos_armed.get() && !self.script.kills().is_empty()
    }

    /// Message operations counted against the injection clock since
    /// [`Ctx::arm_chaos`] — for calibrating `at=` op indices and the seeded
    /// op window against a concrete problem size.
    pub fn chaos_ops(&self) -> u64 {
        self.ops.get()
    }

    /// Disarm chaos injection: the protection domain is closed. No kill can
    /// fire on this rank afterwards — the algorithm calls this behind a
    /// completed barrier so no rank leaves while a peer can still die.
    pub fn disarm_chaos(&self) {
        self.chaos_armed.set(false);
    }

    /// Enter a recovery round (collective). Chaos kills targeted at
    /// [`crate::fault::ChaosPoint::RecoveryOp`] count ops inside rounds
    /// opened by this call; rounds are numbered 1, 2, … across the run.
    pub fn begin_recovery(&self) {
        self.recovery_round.set(self.recovery_round.get() + 1);
        self.recovery_ops.set(0);
        self.in_recovery.set(true);
    }

    /// Leave the current recovery round.
    pub fn end_recovery(&self) {
        self.in_recovery.set(false);
    }

    /// Commit fail-point boundary `id`: recovery (if any) for the current
    /// failure round is complete and protection is re-armed. Clears the
    /// detector's victim round.
    pub fn commit_boundary(&self, id: u64) {
        self.detector.borrow_mut().commit(id);
    }

    /// Whether silent-corruption flips can strike this run (armed and at
    /// least one scripted). Shares the arm/disarm protection domain with
    /// kills: both model faults inside the protected computation.
    pub fn sdc_enabled(&self) -> bool {
        self.chaos_armed.get() && !self.script.flips().is_empty()
    }

    /// Drain the queue of fired-but-unapplied silent bit flips. The
    /// algorithm calls this at phase boundaries and applies the flips to
    /// its own local storage (the runtime cannot see those buffers).
    pub fn take_sdc_flips(&self) -> Vec<SdcFlip> {
        std::mem::take(&mut *self.sdc_pending.borrow_mut())
    }

    /// Count one message operation against the injection clock, queue any
    /// silent bit flip scheduled here, and die if a kill is. Returns before
    /// touching the clock when neither is scripted.
    fn chaos_tick(&self) {
        let (kills, flips) = (self.script.kills(), self.script.flips());
        if !self.chaos_armed.get() || (kills.is_empty() && flips.is_empty()) {
            return;
        }
        let op = self.ops.get();
        self.ops.set(op + 1);
        for idx in self.script.flip_indices(self.rank, op) {
            if self.sdc_fired.borrow_mut().insert(idx) {
                self.sdc_pending.borrow_mut().push(flips[idx]);
            }
        }
        if kills.is_empty() {
            return;
        }
        let rec = if self.in_recovery.get() {
            let r = self.recovery_ops.get();
            self.recovery_ops.set(r + 1);
            Some((self.recovery_round.get(), r))
        } else {
            None
        };
        if let Some(idx) = self.script.kill_index(self.rank, op, rec) {
            if self.chaos_fired.borrow_mut().insert(idx) {
                if self.distributed() {
                    self.dist_die(idx);
                } else {
                    self.die();
                }
            }
        }
    }

    /// Real process death for the distributed chaos mode: announce the
    /// strike on stdout so the parent launcher delivers an actual SIGKILL
    /// at this exact op boundary, then stall. If no parent is watching
    /// (standalone child), abort after a grace period — death must stay
    /// abrupt either way, so peers see sockets drop, not a clean shutdown.
    fn dist_die(&self, idx: usize) -> ! {
        use std::io::Write;
        println!("FT_CHAOS_KILL rank={} idx={idx}", self.rank);
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_secs(5));
        std::process::abort();
    }

    /// Fail-stop death of this in-process rank, and its replacement taking
    /// the rank over at once: the endpoint reopens under the next
    /// incarnation — the death evidence every peer's sweep reads, as a
    /// respawned process's handshake is over TCP — so nothing sent to the
    /// replacement afterwards is lost. Then unwind: the thread plays the
    /// replacement, which rejoins through agreement with nothing.
    fn die(&self) -> ! {
        self.transport.reopen();
        self.detector.borrow_mut().revoke((self.rank, self.transport.incarnation()));
        detect::raise_interrupt(InterruptReason::Died, self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_spmd;

    /// Re-run test `name` in a child process under `FT_RECV_TIMEOUT_MS=300`
    /// (the deadline is read once a process), killed if it outlives a 20 s
    /// fuse so a wait that ignores its deadline fails instead of hanging.
    /// Returns whether this is the parent; the child runs the test's body.
    fn rerun_at_300_ms(name: &str) -> bool {
        if std::env::var("FT_RECV_TIMEOUT_MS").as_deref() == Ok("300") {
            detect::install_quiet_interrupt_hook();
            return false;
        }
        let exe = std::env::current_exe().expect("test binary path");
        let mut child = std::process::Command::new(exe)
            .args(["--exact", name, "--test-threads", "1"])
            .env("FT_RECV_TIMEOUT_MS", "300")
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("re-run the test binary");
        let fuse = Instant::now() + Duration::from_secs(20);
        while child.try_wait().expect("poll the child").is_none() {
            if Instant::now() > fuse {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{name} outlived its 20 s fuse: a wait ignored its deadline");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("collect the child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        true
    }

    /// The only peer of a rank in a two-rank world: it reports no death and
    /// sends nothing but, when `gossip` is set, an agreement frame every
    /// 10 ms — never an arrival, never data.
    struct Peer {
        gossip: bool,
        last: Cell<Instant>,
    }

    impl Transport for Peer {
        fn rank(&self) -> usize {
            0
        }
        fn world_size(&self) -> usize {
            2
        }
        fn send(&self, _dst: usize, _msg: Msg) {}
        fn recv(&self, timeout: Duration) -> Result<Msg, CommError> {
            let due = self.last.get() + Duration::from_millis(10);
            let gap = due.saturating_duration_since(Instant::now());
            if !self.gossip || gap > timeout {
                std::thread::sleep(timeout);
                return Err(CommError::Timeout);
            }
            std::thread::sleep(gap);
            self.last.set(Instant::now());
            Ok(Msg {
                src: 1,
                wire: AGREE_WIRE,
                epoch: 0,
                payload: Arc::from([0.0, 0.0, 0.0].as_slice()),
            })
        }
    }

    /// Rank 0 of a two-rank world whose other rank is a [`Peer`].
    fn lone(gossip: bool) -> Ctx {
        distributed_ctx(Grid::new(1, 2), FaultScript::none(), Box::new(Peer { gossip, last: Cell::new(Instant::now()) }))
    }

    /// The `CommError` that `call` unwinds with.
    fn unwound(call: impl FnOnce()) -> Option<CommError> {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call));
        r.err().and_then(|p| p.downcast::<CommError>().ok()).map(|e| *e)
    }

    /// Every blocking call that cannot complete — its peer never sends, or
    /// a rank leaves a rendezvous without arriving, with no death on record
    /// — ends at the deadline in the typed `Partitioned`, and its message
    /// names the wait that timed out. The deadline is wall time: the
    /// receive and the message barrier wait under a peer's agreement gossip
    /// every 10 ms, which holds no clock.
    #[test]
    fn every_blocking_wait_ends_at_the_deadline_typed_and_named() {
        if rerun_at_300_ms("comm::tests::every_blocking_wait_ends_at_the_deadline_typed_and_named") {
            return;
        }
        let rendezvous = || {
            let out = run_spmd(1, 2, FaultScript::none(), |ctx| (ctx.rank() == 0).then(|| unwound(|| ctx.barrier())));
            out[0].clone().flatten()
        };
        let rows: [(&str, &dyn Fn() -> Option<CommError>); 4] = [
            ("recv(src=1, tag=User(7)/p2p", &|| unwound(|| drop(lone(true).recv(1, 7)))),
            ("barrier rendezvous", &rendezvous),
            ("message barrier (arrival from rank 1)", &|| unwound(|| lone(true).barrier())),
            ("agreement", &|| unwound(|| drop(lone(false).agree_on_failures()))),
        ];
        for (name, call) in rows {
            let t = Instant::now();
            let err = call();
            let msg = err.as_ref().map(ToString::to_string).unwrap_or_default();
            let typed = matches!(err, Some(CommError::Partitioned { .. }));
            assert!(typed && msg.contains(name) && msg.contains("timed out"), "{name}: ended in {err:?}");
            assert!(t.elapsed() < Duration::from_secs(2), "{name}: waited {:?}", t.elapsed());
        }
    }

    #[test]
    fn p2p_send_recv() {
        run_spmd(1, 2, FaultScript::none(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, &[1.0, 2.0, 3.0]);
            } else {
                let d = ctx.recv(0, 7);
                assert_eq!(d, vec![1.0, 2.0, 3.0]);
            }
        });
    }

    #[test]
    fn p2p_arc_payload_is_forwarded_without_copy() {
        run_spmd(1, 3, FaultScript::none(), |ctx| {
            // 0 sends to 1, which forwards the same Arc to 2.
            if ctx.rank() == 0 {
                ctx.send(1, 7, &[4.0; 16]);
            } else if ctx.rank() == 1 {
                let d = ctx.recv_arc(0, 7);
                ctx.send_arc(2, 8, d);
            } else {
                assert_eq!(ctx.recv(1, 8), vec![4.0; 16]);
            }
        });
    }

    #[test]
    fn selective_recv_out_of_order() {
        run_spmd(1, 2, FaultScript::none(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, &[1.0]);
                ctx.send(1, 2, &[2.0]);
                ctx.send(1, 1, &[3.0]);
            } else {
                // Receive tag 2 first even though tag 1 arrived earlier,
                // then tag 1 twice in FIFO order.
                assert_eq!(ctx.recv(0, 2), vec![2.0]);
                assert_eq!(ctx.recv(0, 1), vec![1.0]);
                assert_eq!(ctx.recv(0, 1), vec![3.0]);
            }
        });
    }

    #[test]
    fn try_recv_times_out_with_typed_error() {
        run_spmd(1, 2, FaultScript::none(), |ctx| {
            if ctx.rank() == 1 {
                let r = ctx.try_recv(0, 7, Duration::from_millis(30));
                assert_eq!(r, Err(CommError::Timeout));
            }
            ctx.barrier();
            if ctx.rank() == 0 {
                ctx.send(1, 7, &[5.0]);
            } else {
                assert_eq!(ctx.try_recv(0, 7, Duration::from_secs(5)), Ok(vec![5.0]));
            }
        });
    }

    #[test]
    fn typed_tags_do_not_collide_with_numeric_tags() {
        run_spmd(1, 2, FaultScript::none(), |ctx| {
            if ctx.rank() == 0 {
                // Same channel number, three different subsystems.
                ctx.send(1, Tag::Panel(5), &[1.0]);
                ctx.send(1, Tag::Recovery(5), &[2.0]);
                ctx.send(1, 5, &[3.0]);
            } else {
                assert_eq!(ctx.recv(0, 5), vec![3.0]);
                assert_eq!(ctx.recv(0, Tag::Panel(5)), vec![1.0]);
                assert_eq!(ctx.recv(0, Tag::Recovery(5)), vec![2.0]);
            }
        });
    }

    #[test]
    fn failpoint_no_failure() {
        run_spmd(2, 2, FaultScript::none(), |ctx| {
            assert!(ctx.check_failpoint(1).is_empty());
            assert!(ctx.check_failpoint(2).is_empty());
        });
    }

    #[test]
    fn failpoint_with_an_empty_script_takes_no_barrier() {
        run_spmd(1, 2, FaultScript::none(), |ctx| {
            // Rank 1 reaches its first fail point only after rank 0 has
            // passed all of its own: a check that synchronized would wedge.
            if ctx.rank() == 1 {
                ctx.recv(0, 7);
            }
            for point in 0..3 {
                assert!(ctx.check_failpoint(point).is_empty());
            }
            if ctx.rank() == 0 {
                ctx.send(1, 7, &[]);
            }
            assert_eq!(ctx.rendezvous.as_ref().unwrap().generation(), 0, "an empty script must not reach the barrier");
        });
    }

    #[test]
    fn failpoint_with_a_script_takes_no_barrier() {
        run_spmd(2, 2, FaultScript::one(2, 1), |ctx| {
            // Rank 3 reaches the fail points only after everybody else has
            // passed all of them: a check that synchronized would wedge.
            if ctx.rank() == 3 {
                for src in 0..3 {
                    ctx.recv(src, 7);
                }
            }
            assert!(ctx.check_failpoint(0).is_empty());
            assert_eq!(ctx.check_failpoint(1), vec![2], "rank {}", ctx.rank());
            assert!(ctx.check_failpoint(2).is_empty());
            if ctx.rank() != 3 {
                ctx.send(3, 7, &[]);
            }
            assert_eq!(ctx.rendezvous.as_ref().unwrap().generation(), 0, "a fail point must not reach the barrier");
            // The victim is in the round a kill's agreement would return.
            assert_eq!(ctx.detector.borrow().victims(), vec![2]);
        });
    }

    #[test]
    fn failpoint_strikes_once_until_rewound() {
        run_spmd(1, 2, FaultScript::one(1, 4), |ctx| {
            assert_eq!(ctx.check_failpoint(4), vec![1]);
            // A rollback that keeps the strike (back to just after point 4)
            // re-runs point 5 only; one that undoes it re-runs point 4.
            for p in 3..=5 {
                assert!(ctx.check_failpoint(p).is_empty(), "point {p} re-struck");
            }
            ctx.rewind_failpoints(5);
            assert!(ctx.check_failpoint(4).is_empty());
            ctx.rewind_failpoints(4);
            assert_eq!(ctx.check_failpoint(4), vec![1]);
        });
    }

    #[test]
    fn failpoint_single_victim_observed_by_all() {
        let out = run_spmd(2, 2, FaultScript::one(2, 50), |ctx| {
            assert!(ctx.check_failpoint(49).is_empty());
            assert_eq!(ctx.check_failpoint(50), vec![2], "rank {} missed the failure", ctx.rank());
            // Life goes on after recovery.
            assert!(ctx.check_failpoint(51).is_empty());
            1
        });
        assert_eq!(out, vec![1; 4]);
    }

    #[test]
    fn failpoint_two_simultaneous_victims() {
        use crate::PlannedFailure;
        let script = FaultScript::new(vec![PlannedFailure { victim: 3, point: 5 }, PlannedFailure { victim: 0, point: 5 }]);
        run_spmd(2, 2, script, |ctx| assert_eq!(ctx.check_failpoint(5), vec![0, 3]));
    }

    #[test]
    fn traffic_counters() {
        let sent = run_spmd(1, 2, FaultScript::none(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, &[0.0; 100]);
            } else {
                let _ = ctx.recv(0, 1);
            }
            (ctx.bytes_sent(), ctx.msgs_sent())
        });
        assert_eq!(sent[0], (800, 1));
        assert_eq!(sent[1], (0, 0));
    }

    #[test]
    fn ledger_buckets_by_phase_and_totals_match_counters() {
        use crate::tag::TrafficPhase;
        let out = run_spmd(1, 2, FaultScript::none(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, Tag::Panel(0), &[0.0; 10]);
                ctx.send(1, Tag::Trailing(0), &[0.0; 20]);
                ctx.send(1, Tag::Checksum(0), &[0.0; 30]);
                ctx.send(1, Tag::Checkpoint(0), &[0.0; 40]);
                ctx.send(1, Tag::Recovery(0), &[0.0; 50]);
                ctx.send(1, 99, &[0.0; 60]);
            } else {
                for t in [
                    Tag::Panel(0),
                    Tag::Trailing(0),
                    Tag::Checksum(0),
                    Tag::Checkpoint(0),
                    Tag::Recovery(0),
                    Tag::User(99),
                ] {
                    let _ = ctx.recv(0, t);
                }
            }
            (ctx.traffic(), ctx.bytes_sent(), ctx.msgs_sent())
        });
        let (ledger, bytes, msgs) = out[0];
        let expect = [
            (TrafficPhase::Panel, 80),
            (TrafficPhase::TrailingUpdate, 160),
            (TrafficPhase::ChecksumUpdate, 240),
            (TrafficPhase::Checkpoint, 320),
            (TrafficPhase::Recovery, 400),
            (TrafficPhase::Other, 480),
        ];
        for (phase, b) in expect {
            assert_eq!(ledger.phase(phase).bytes, b, "{phase:?}");
            assert_eq!(ledger.phase(phase).msgs, 1, "{phase:?}");
        }
        // The ledger's per-phase totals sum to exactly the global counters.
        assert_eq!(ledger.total_bytes(), bytes);
        assert_eq!(ledger.total_msgs(), msgs);
        assert_eq!((bytes, msgs), (8 * 210, 6));
    }
}
