//! Per-process communication context: tagged point-to-point messages over
//! a pluggable [`Transport`], revocable barriers, fail-point checks, chaos
//! injection and the per-phase traffic ledger. The tree collectives live in
//! [`crate::collectives`]; failure detection and agreement in
//! [`crate::detect`].

use crate::detect::{self, Detector, FailureAgreement, InterruptReason};
use crate::fault::{FaultScript, SdcFlip};
use crate::grid::Grid;
use crate::tag::{Leg, Tag, TrafficLedger, TrafficPhase};
use crate::transport::{CommError, Msg, Transport};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

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

/// Receive poll granularity: how often a blocked receive re-checks the
/// revocation flag and peer liveness while waiting. Control messages from
/// dying peers wake receivers immediately; the poll is the safety net.
const RECV_POLL: Duration = Duration::from_millis(50);

/// Wire key of the runtime's control channel (death notices). Outside the
/// [`Tag`] encoding, so it can never collide with algorithm traffic.
pub(crate) const CTRL_WIRE: u64 = u64::MAX;

/// Distributed agreement frames (see [`crate::dist`]).
pub(crate) const AGREE_WIRE: u64 = u64::MAX - 1;

/// Distributed barrier arrival frames (see [`crate::dist`]).
pub(crate) const BARRIER_WIRE: u64 = u64::MAX - 2;

/// Lower edge of the distributed-control wire band. Frames at or above
/// this key carry their own epoch/generation in the payload and bypass the
/// normal epoch filter (an agreement frame *is* how epochs advance, so it
/// cannot be fenced by them). Far outside the [`Tag`] encoding.
pub(crate) const DIST_CTRL_MIN: u64 = u64::MAX - 15;

/// The [`Ctx`]s of an in-process world over `transports` (rank order): one
/// shared detector, one shared script.
pub(crate) fn world_ctxs(grid: Grid, script: FaultScript, transports: Vec<Box<dyn Transport>>) -> Vec<Ctx> {
    assert_eq!(transports.len(), grid.size(), "one transport endpoint per rank");
    let (detector, script) = (Arc::new(Detector::default()), Arc::new(script));
    transports
        .into_iter()
        .enumerate()
        .map(|(rank, transport)| Ctx::build(rank, grid, transport, Arc::clone(&detector), Arc::clone(&script)))
        .collect()
}

/// Build the single [`Ctx`] of one *process* in a multi-process world:
/// the transport is the process's only tie to its peers, so the
/// detector is process-local and barriers/agreement run as message
/// protocols (see [`crate::dist`]) instead of shared-memory rendezvous.
pub(crate) fn distributed_ctx(grid: Grid, script: FaultScript, transport: Box<dyn Transport>) -> Ctx {
    assert_eq!(transport.world_size(), grid.size(), "transport world != grid size");
    assert!(script.failures().is_empty(), "fail-point failures need the in-process notice board");
    let rank = transport.rank();
    let mut ctx = Ctx::build(rank, grid, transport, Arc::new(Detector::default()), Arc::new(script));
    ctx.dist = true;
    ctx
}

/// Result of a fail-point check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailCheck {
    /// Nothing failed; continue.
    AllGood,
    /// One or more processes failed at this point. Every process observes
    /// the same victim list. `me` is `true` on the victims themselves, which
    /// must now drop their local data and act as replacement processes.
    Failure {
        /// Ranks that failed, in announcement order.
        victims: Vec<usize>,
        /// Whether the observing process is itself a victim.
        me: bool,
    },
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
    pub(crate) detector: Arc<Detector>,
    script: Arc<FaultScript>,
    /// SDC flip indices that already fired on this rank — a rollback that
    /// re-executes ops must not re-corrupt.
    sdc_fired: RefCell<HashSet<usize>>,
    /// Flips whose op has passed but which the algorithm has not yet
    /// applied; drained by [`Ctx::take_sdc_flips`] at phase boundaries.
    sdc_pending: RefCell<Vec<SdcFlip>>,
    board_cursor: Cell<usize>,
    /// Script entries this process has already executed — a fail point is
    /// fail-stop, so re-visiting the same point id (e.g. after a
    /// checkpoint/restart rollback re-runs an iteration) must not re-kill.
    fired_points: RefCell<HashSet<u64>>,
    /// Communication epoch: bumped by each failure agreement; messages
    /// stamped with an older epoch are stragglers from an aborted attempt.
    pub(crate) epoch: Cell<u64>,
    /// Multi-process world: this `Ctx` is alone in its process, peers are
    /// reachable only through the transport. Barriers and agreement run as
    /// message protocols ([`crate::dist`]), peer deaths are detected from
    /// the wire (heartbeat silence / EOF) and swept into the detector.
    pub(crate) dist: bool,
    /// Distributed-barrier generation within the current epoch.
    pub(crate) bar_gen: Cell<u64>,
    /// Peers already swept into the detector as dead (reset when a
    /// replacement comes back alive, so a re-death is re-reported).
    pub(crate) swept: RefCell<Vec<bool>>,
    /// Highest peer incarnation already folded into the detector. A bump
    /// above this is positive death evidence even when the replacement
    /// reconnected faster than the silence threshold: the handshake saying
    /// "incarnation k+1" proves incarnation k is gone.
    pub(crate) seen_inc: RefCell<Vec<u32>>,
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
    fn build(rank: usize, grid: Grid, transport: Box<dyn Transport>, detector: Arc<Detector>, script: Arc<FaultScript>) -> Ctx {
        let world = grid.size();
        let (p, q) = grid.coords_of(rank);
        Ctx {
            rank,
            grid,
            row_ranks: (0..grid.npcol()).map(|c| grid.rank_of(p, c)).collect(),
            col_ranks: (0..grid.nprow()).map(|r| grid.rank_of(r, q)).collect(),
            transport,
            stash: RefCell::new(HashMap::new()),
            detector,
            script,
            sdc_fired: RefCell::new(HashSet::new()),
            sdc_pending: RefCell::new(Vec::new()),
            board_cursor: Cell::new(0),
            fired_points: RefCell::new(HashSet::new()),
            epoch: Cell::new(0),
            dist: false,
            bar_gen: Cell::new(0),
            swept: RefCell::new(vec![false; world]),
            seen_inc: RefCell::new(vec![0; world]),
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

    /// Whether this `Ctx` runs in a multi-process (distributed) world.
    #[inline]
    pub fn distributed(&self) -> bool {
        self.dist
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
        self.recv_wire_impl(src, tag.wire(Leg::P2p), timeout).map(|p| p.to_vec())
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
        match self.recv_wire_impl(src, wire, recv_timeout()) {
            Ok(p) => p,
            // A dead peer without agreement yet is the same condition as a
            // revocation: abort to the next agreement point.
            Err(CommError::Revoked) | Err(CommError::PeerDead { .. }) => {
                detect::raise_interrupt(InterruptReason::Revoked, self.rank)
            }
            Err(err) => self.recv_failure(src, wire, err),
        }
    }

    fn recv_wire_impl(&self, src: usize, wire: u64, timeout: Duration) -> Result<Arc<[f64]>, CommError> {
        if let Some(q) = self.stash.borrow_mut().get_mut(&(src, wire)) {
            if let Some((_, d)) = q.pop_front() {
                return Ok(d);
            }
        }
        // In a distributed world failures come from the wire, not from a
        // script — the failure paths are always armed there.
        let failures_on = !self.script.kills().is_empty() || self.dist;
        let mut waited = Duration::ZERO;
        loop {
            // Liveness is judged only when the inbox runs dry (the Timeout
            // arm): a frame that already made it across the wire must beat
            // a concurrently-observed death, or a rank that finished and
            // closed its sockets reads as failed to a slow receiver that
            // still holds the rank's final frame unread.
            let slice = RECV_POLL.min(timeout.saturating_sub(waited));
            match self.transport.recv(slice) {
                Ok(msg) => {
                    if msg.wire == CTRL_WIRE {
                        continue; // death notice: the loop re-checks the flags
                    }
                    if msg.wire >= DIST_CTRL_MIN {
                        // Distributed control frames fence themselves (the
                        // epoch/generation rides in the payload); stash for
                        // the protocol in `crate::dist` to consume.
                        let agree_frame = msg.wire == AGREE_WIRE;
                        self.stash
                            .borrow_mut()
                            .entry((msg.src, msg.wire))
                            .or_default()
                            .push_back((msg.epoch, msg.payload));
                        // An agreement frame doubles as a revocation
                        // notice: its sender is already in the failure
                        // handler, and a steady gossip stream would starve
                        // the dry-inbox arm below, so the liveness fold
                        // and the revocation check cannot wait for a
                        // quiet inbox.
                        if agree_frame {
                            self.sweep_dead_peers();
                            if self.detector.is_revoked() {
                                return Err(CommError::Revoked);
                            }
                        }
                        continue;
                    }
                    if msg.epoch < self.epoch.get() {
                        continue; // straggler from an aborted (revoked) epoch
                    }
                    if msg.src == src && msg.wire == wire {
                        return Ok(msg.payload);
                    }
                    self.stash
                        .borrow_mut()
                        .entry((msg.src, msg.wire))
                        .or_default()
                        .push_back((msg.epoch, msg.payload));
                }
                Err(CommError::Timeout) => {
                    // Inbox drained: a closed peer endpoint is now a real
                    // failure, not just in-flight data racing the death.
                    if self.dist {
                        self.sweep_dead_peers();
                    }
                    if failures_on && self.detector.is_revoked() {
                        return Err(CommError::Revoked);
                    }
                    if failures_on && self.transport.is_peer_dead(src) {
                        return Err(CommError::PeerDead { peer: src });
                    }
                    waited += slice;
                    if waited >= timeout {
                        return Err(CommError::Timeout);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fold transport-level death evidence (heartbeat silence, connection
    /// EOF) into the local detector — the distributed replacement for a
    /// dying peer's shared-memory `revoke`. Idempotent per death; a peer
    /// that comes back (replacement reconnected) re-arms its slot so a
    /// second death is reported again.
    pub(crate) fn sweep_dead_peers(&self) {
        let mut swept = self.swept.borrow_mut();
        let mut seen_inc = self.seen_inc.borrow_mut();
        for r in 0..self.grid.size() {
            if r == self.rank {
                continue;
            }
            // A reconnect handshake reporting a higher incarnation proves
            // the previous incarnation died, even if the replacement came
            // back up inside the silence threshold (a fast launcher
            // respawns the victim in milliseconds — the slot never looks
            // dead, but a death happened all the same).
            let inc = self.transport.peer_incarnation(r);
            if inc > seen_inc[r] {
                seen_inc[r] = inc;
                self.detector.revoke(r);
                continue; // the slot is alive again: skip the silence check
            }
            if self.transport.is_peer_dead(r) {
                if !swept[r] {
                    swept[r] = true;
                    self.detector.revoke(r);
                }
            } else {
                swept[r] = false;
            }
        }
    }

    /// Terminal receive failure: decode the wire key back into its `Tag`
    /// and collective leg, and name every peer currently known dead, so a
    /// protocol deadlock is debuggable from the message alone.
    fn recv_failure(&self, src: usize, wire: u64, err: CommError) -> ! {
        let what = match Tag::decode_wire(wire) {
            Some((tag, leg)) => format!("{tag:?}/{leg} [wire {wire:#x}]"),
            None => format!("wire {wire:#x}"),
        };
        panic!(
            "rank {}: recv(src={src}, tag={what}) failed: {err} after {:?} — SPMD protocol deadlock; known dead/failed ranks: {:?}",
            self.rank,
            recv_timeout(),
            self.known_dead()
        )
    }

    /// Ranks currently known to have failed: the detector's uncommitted
    /// victim round plus any closed transport endpoints. Sorted.
    pub fn known_dead(&self) -> Vec<usize> {
        let mut d = self.detector.current_victims();
        for r in 0..self.grid.size() {
            if self.transport.is_peer_dead(r) && !d.contains(&r) {
                d.push(r);
            }
        }
        d.sort_unstable();
        d
    }

    // --- barriers -----------------------------------------------------------

    /// World barrier. Revocable: if a failure notification arrives while
    /// waiting, the barrier aborts (all-or-none per generation) and the
    /// call unwinds to the enclosing failure handler.
    pub fn barrier(&self) {
        if self.dist {
            if self.dist_barrier().is_err() {
                detect::raise_interrupt(InterruptReason::Revoked, self.rank);
            }
            return;
        }
        if self.detector.barrier(self.grid.size()).is_err() {
            detect::raise_interrupt(InterruptReason::Revoked, self.rank);
        }
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

    /// Fail-point check: must be called **collectively** (same sequence of
    /// points on all ranks) at quiescent phase boundaries.
    ///
    /// If the fault script kills this process here, it announces itself on
    /// the detector's notice board; the two enclosing barriers make the
    /// board read race-free, so every rank returns the same [`FailCheck`]
    /// for the same point.
    ///
    /// With **no fail point scripted** the check returns
    /// [`FailCheck::AllGood`] at once, without a barrier: the script's
    /// fail-point failures are the notice board's only writer, so there is
    /// nothing to read, and every rank holds the same script and takes the
    /// same branch. Kills and wire deaths do not use the board — they revoke
    /// the world and surface as interrupts in the next communication call.
    /// With fail points scripted the protocol is two barriers plus one
    /// atomic load at every point, fired or not.
    pub fn check_failpoint(&self, point: u64) -> FailCheck {
        if self.script.failures().is_empty() {
            return FailCheck::AllGood;
        }
        if self.script.is_victim_at(point, self.rank) && self.fired_points.borrow_mut().insert(point) {
            self.detector.announce(self.rank);
        }
        self.barrier();
        let cursor = self.board_cursor.get();
        let new = if self.detector.board_len() == cursor {
            Vec::new()
        } else {
            self.detector.board_from(cursor)
        };
        self.barrier();
        // Commit the cursor only after the second barrier: if that barrier
        // is revoked, the unwind leaves the cursor untouched and the
        // re-executed fail point re-reads the same entries (the read is
        // transactional, so aborted attempts can't desynchronize ranks).
        self.board_cursor.set(cursor + new.len());
        if new.is_empty() {
            FailCheck::AllGood
        } else {
            // Board order is announcement order — a thread-timing artifact.
            // Sort so every consumer (tolerance checks, error reports) sees
            // the same victim order on every run.
            let mut victims = new;
            victims.sort_unstable();
            let me = victims.contains(&self.rank);
            FailCheck::Failure { victims, me }
        }
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

    /// Full-world failure agreement — the ULFM `MPI_Comm_agree` analogue.
    ///
    /// Called by every process (survivors and replacements alike) after a
    /// failure aborted the current attempt. Blocks until the whole world
    /// arrives, then everyone returns the **identical** sorted victim set
    /// accumulated since the last committed boundary, the communication
    /// epoch is bumped (stragglers from the aborted epoch will be dropped
    /// on receive), the local out-of-order stash is purged, and victims
    /// reopen their transport endpoints as replacement processes.
    pub fn agree_on_failures(&self) -> FailureAgreement {
        if self.dist {
            return self.dist_agree();
        }
        // The victim reopens *before* the rendezvous: agreement is a full
        // barrier, so by reopening first we guarantee no survivor can send
        // to a still-closed replacement endpoint afterwards (the message
        // would be silently dropped and the replacement would deadlock).
        // Reopening early is safe — anything delivered before the epoch
        // bump is discarded by the epoch check on receive.
        if self.transport.is_peer_dead(self.rank) {
            self.transport.reopen();
        }
        let res = self.detector.agree(self.grid.size());
        self.epoch.set(res.epoch);
        self.stash.borrow_mut().clear();
        res
    }

    /// Commit fail-point boundary `id`: recovery (if any) for the current
    /// failure round is complete and protection is re-armed. Clears the
    /// detector's victim round. Cheap when nothing failed.
    pub fn commit_boundary(&self, id: u64) {
        self.detector.commit(id);
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
                if self.dist {
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

    /// Fail-stop death of this process: revoke the world, close the
    /// endpoint, wake peers blocked in receives, and unwind. The thread
    /// survives to play the replacement process after agreement.
    fn die(&self) -> ! {
        self.detector.revoke(self.rank);
        self.transport.close();
        let epoch = self.epoch.get();
        for dst in 0..self.grid.size() {
            if dst != self.rank {
                self.transport.send(
                    dst,
                    Msg {
                        src: self.rank,
                        wire: CTRL_WIRE,
                        epoch,
                        payload: Arc::from(&[] as &[f64]),
                    },
                );
            }
        }
        detect::raise_interrupt(InterruptReason::Died, self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_spmd;

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
            assert_eq!(ctx.check_failpoint(1), FailCheck::AllGood);
            assert_eq!(ctx.check_failpoint(2), FailCheck::AllGood);
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
                assert_eq!(ctx.check_failpoint(point), FailCheck::AllGood);
            }
            if ctx.rank() == 0 {
                ctx.send(1, 7, &[]);
            }
            assert_eq!(ctx.detector.barrier_generation(), 0, "an empty script must not reach the barrier");
        });
    }

    #[test]
    fn failpoint_with_a_script_keeps_the_two_barrier_protocol() {
        run_spmd(2, 2, FaultScript::one(2, 1), |ctx| {
            // Two barriers a point, fired or not; my read of the generation
            // is exact because no later barrier completes without me.
            assert_eq!(ctx.check_failpoint(0), FailCheck::AllGood);
            assert_eq!(ctx.detector.barrier_generation(), 2);
            let hit = ctx.check_failpoint(1);
            assert_eq!(hit, FailCheck::Failure { victims: vec![2], me: ctx.rank() == 2 }, "rank {}", ctx.rank());
            assert_eq!(ctx.detector.barrier_generation(), 4);
            assert_eq!(ctx.check_failpoint(2), FailCheck::AllGood);
            assert_eq!(ctx.detector.barrier_generation(), 6);
        });
    }

    #[test]
    fn failpoint_single_victim_observed_by_all() {
        let out = run_spmd(2, 2, FaultScript::one(2, 50), |ctx| {
            assert_eq!(ctx.check_failpoint(49), FailCheck::AllGood);
            let res = ctx.check_failpoint(50);
            match &res {
                FailCheck::Failure { victims, me } => {
                    assert_eq!(victims, &vec![2]);
                    assert_eq!(*me, ctx.rank() == 2);
                }
                _ => panic!("rank {} missed the failure", ctx.rank()),
            }
            // Life goes on after recovery.
            assert_eq!(ctx.check_failpoint(51), FailCheck::AllGood);
            1
        });
        assert_eq!(out, vec![1; 4]);
    }

    #[test]
    fn failpoint_two_simultaneous_victims() {
        use crate::PlannedFailure;
        let script = FaultScript::new(vec![PlannedFailure { victim: 0, point: 5 }, PlannedFailure { victim: 3, point: 5 }]);
        run_spmd(2, 2, script, |ctx| match ctx.check_failpoint(5) {
            FailCheck::Failure { mut victims, me } => {
                victims.sort_unstable();
                assert_eq!(victims, vec![0, 3]);
                assert_eq!(me, ctx.rank() == 0 || ctx.rank() == 3);
            }
            _ => panic!("missed failure"),
        });
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
