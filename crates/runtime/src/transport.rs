//! The pluggable point-to-point transport underneath [`crate::Ctx`].
//!
//! Everything above this layer — selective receive, tree collectives,
//! barriers, fault handling — is written against the [`Transport`] trait,
//! so the wire substrate can be swapped without touching the algorithms.
//! The default is [`MpscTransport`], an in-process fabric over
//! `std::sync::mpsc` (one unbounded channel per endpoint). Tests wrap it
//! to observe or perturb traffic; a real MPI-backed transport would slot
//! in the same way.
//!
//! Payloads travel as `Arc<[f64]>`: forwarding a message (as the interior
//! nodes of a broadcast tree do) clones the `Arc`, not the data, so a
//! P-wide broadcast allocates the payload exactly once.
//!
//! ## Peer-death signaling
//!
//! A transport is a rank's only source of death evidence
//! ([`crate::detect`]): a peer whose endpoint is closed
//! ([`Transport::is_peer_dead`]), or whose incarnation rose
//! ([`Transport::peer_incarnation`]) because a replacement reopened the rank
//! ([`Transport::reopen`]). Sends to a closed endpoint are dropped on the
//! floor; `recv` returns a typed [`CommError`] — never a panic — and the
//! layer above decides whether a timeout is a protocol deadlock or a failure
//! to run agreement on.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Typed communication failure, surfaced by [`Transport::recv`] and
/// [`crate::Ctx::try_recv`] instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No message arrived within the timeout.
    Timeout,
    /// The awaited peer's endpoint is closed (fail-stop death observed).
    PeerDead {
        /// Rank whose endpoint is closed.
        peer: usize,
    },
    /// The world has been revoked by a failure notification: the current
    /// communication epoch is dead and survivors must run agreement.
    Revoked,
    /// This endpoint itself is closed / the fabric was torn down.
    Closed,
    /// A blocking call outwaited its deadline: the fabric is partitioned,
    /// or the protocol wedged. Unlike a death, nobody can recover this —
    /// the run ends with this typed error on every rank that can still
    /// make progress.
    Partitioned {
        /// The call that timed out: a receive (with its tag and leg), a
        /// barrier or the agreement.
        wait: String,
        /// Sorted ranks known dead when it timed out.
        unreachable: Vec<usize>,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout => write!(f, "receive timed out"),
            CommError::PeerDead { peer } => write!(f, "peer rank {peer} is dead (endpoint closed)"),
            CommError::Revoked => write!(f, "communication epoch revoked by a failure"),
            CommError::Closed => write!(f, "local endpoint closed"),
            CommError::Partitioned { wait, unreachable } => {
                write!(f, "network partition: {wait} timed out, ranks {unreachable:?} unreachable")
            }
        }
    }
}

/// One message on the wire. `wire` is the encoded `(Tag, Leg)` mailbox key
/// (see [`crate::tag::Tag`]); the payload is shared, never deep-copied in
/// transit. `epoch` is the sender's communication epoch: receivers drop
/// messages from epochs older than their own (ULFM-style revocation — an
/// aborted collective's stragglers must not leak into the re-execution).
#[derive(Debug, Clone)]
pub struct Msg {
    /// Sender's rank.
    pub src: usize,
    /// Encoded mailbox key (tag + collective leg).
    pub wire: u64,
    /// Sender's communication epoch at send time.
    pub epoch: u64,
    /// Shared payload.
    pub payload: Arc<[f64]>,
}

/// Per-peer wire counters kept by transports that do real I/O (see
/// [`crate::tcp::TcpTransport`]). All zeros for in-process fabrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerCounters {
    /// Frames written to this peer (data + heartbeats + handshakes).
    pub frames_tx: u64,
    /// Bytes written to this peer, framing included.
    pub bytes_tx: u64,
    /// Frames read from this peer.
    pub frames_rx: u64,
    /// Bytes read from this peer, framing included.
    pub bytes_rx: u64,
    /// Connect attempts beyond the first, per connection establishment.
    pub retries: u64,
    /// Successful re-establishments after the initial connect.
    pub reconnects: u64,
    /// Heartbeat intervals that elapsed with no traffic from the peer.
    pub hb_misses: u64,
    /// Sequenced frames written more than once: what session resumes
    /// replayed (nothing else retransmits).
    pub retransmits: u64,
    /// Inbound frames discarded as already-delivered duplicates.
    pub dup_suppressed: u64,
    /// Session resumes: reconnect handshakes that replayed a non-empty
    /// in-flight window.
    pub resumes: u64,
    /// Inbound frames rejected for a CRC mismatch.
    pub crc_rejects: u64,
    /// Inbound frames rejected for a malformed header (oversize length,
    /// bad kind).
    pub frame_rejects: u64,
    /// Suspicions rescinded: the peer crossed the slow-peer grace line and
    /// then proved alive before being declared dead.
    pub rescinds: u64,
}

impl PeerCounters {
    /// Number of `f64` slots one peer row occupies in the flat encoding.
    pub const WIDTH: usize = 13;

    /// Accumulate another peer's counters into this one.
    pub fn merge(&mut self, o: &PeerCounters) {
        self.frames_tx += o.frames_tx;
        self.bytes_tx += o.bytes_tx;
        self.frames_rx += o.frames_rx;
        self.bytes_rx += o.bytes_rx;
        self.retries += o.retries;
        self.reconnects += o.reconnects;
        self.hb_misses += o.hb_misses;
        self.retransmits += o.retransmits;
        self.dup_suppressed += o.dup_suppressed;
        self.resumes += o.resumes;
        self.crc_rejects += o.crc_rejects;
        self.frame_rejects += o.frame_rejects;
        self.rescinds += o.rescinds;
    }

    fn to_row(self) -> [f64; Self::WIDTH] {
        [
            self.frames_tx as f64,
            self.bytes_tx as f64,
            self.frames_rx as f64,
            self.bytes_rx as f64,
            self.retries as f64,
            self.reconnects as f64,
            self.hb_misses as f64,
            self.retransmits as f64,
            self.dup_suppressed as f64,
            self.resumes as f64,
            self.crc_rejects as f64,
            self.frame_rejects as f64,
            self.rescinds as f64,
        ]
    }

    fn from_row(r: &[f64]) -> PeerCounters {
        PeerCounters {
            frames_tx: r[0] as u64,
            bytes_tx: r[1] as u64,
            frames_rx: r[2] as u64,
            bytes_rx: r[3] as u64,
            retries: r[4] as u64,
            reconnects: r[5] as u64,
            hb_misses: r[6] as u64,
            retransmits: r[7] as u64,
            dup_suppressed: r[8] as u64,
            resumes: r[9] as u64,
            crc_rejects: r[10] as u64,
            frame_rejects: r[11] as u64,
            rescinds: r[12] as u64,
        }
    }
}

/// Snapshot of a transport's per-peer counters, indexed by peer rank.
/// Empty for transports that keep none. Round-trips through a flat `f64`
/// row so it can ride the same sum-reduction as the traffic ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// One row per peer rank (the own-rank row stays zero).
    pub peers: Vec<PeerCounters>,
}

impl TransportStats {
    /// Sum over all peers.
    pub fn total(&self) -> PeerCounters {
        let mut t = PeerCounters::default();
        for p in &self.peers {
            t.merge(p);
        }
        t
    }

    /// Element-wise accumulate (peer-by-peer) for grid-wide aggregation.
    pub fn merge(&mut self, other: &TransportStats) {
        if self.peers.len() < other.peers.len() {
            self.peers.resize(other.peers.len(), PeerCounters::default());
        }
        for (s, o) in self.peers.iter_mut().zip(other.peers.iter()) {
            s.merge(o);
        }
    }

    /// Flatten to `world · PeerCounters::WIDTH` floats (summable).
    pub fn to_f64_rows(&self, world: usize) -> Vec<f64> {
        let mut out = vec![0.0; world * PeerCounters::WIDTH];
        for (i, p) in self.peers.iter().enumerate().take(world) {
            out[i * PeerCounters::WIDTH..(i + 1) * PeerCounters::WIDTH].copy_from_slice(&p.to_row());
        }
        out
    }

    /// Inverse of [`TransportStats::to_f64_rows`].
    pub fn from_f64_rows(rows: &[f64]) -> TransportStats {
        let peers = rows.chunks_exact(PeerCounters::WIDTH).map(PeerCounters::from_row).collect();
        TransportStats { peers }
    }
}

/// A process's endpoint in some message fabric.
///
/// Implementations must deliver messages reliably and, per `(src, dst)`
/// pair, in order — the selective-receive layer in [`crate::Ctx`] provides
/// per-`(src, tag)` FIFO on top of that. `send` must not block on the
/// receiver (the SPMD protocols assume buffered sends).
pub trait Transport: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// Number of endpoints in the fabric.
    fn world_size(&self) -> usize;

    /// Deliver `msg` to `dst`'s inbox. Must not block. Sends to a closed
    /// endpoint are silently dropped (fail-stop semantics).
    fn send(&self, dst: usize, msg: Msg);

    /// Blocking receive of the next inbound message, in arrival order.
    /// Returns [`CommError::Timeout`] when nothing arrives in time and
    /// [`CommError::Closed`] when the fabric is gone.
    fn recv(&self, timeout: Duration) -> Result<Msg, CommError>;

    /// A no-op on every fabric: no endpoint is closed any more — an
    /// in-process death reopens at once ([`Transport::reopen`]) and a
    /// process death closes its sockets by dying. Kept only because
    /// decorators outside this workspace still forward it.
    #[doc(hidden)]
    fn close(&self) {}

    /// Reopen this endpoint: a replacement process has taken over the
    /// rank, under the next [`Transport::incarnation`] — the evidence that
    /// lets a peer see the death after the endpoint is open again.
    /// Default: no-op.
    fn reopen(&self) {}

    /// Whether `peer`'s endpoint is currently closed. Default: `false`
    /// (fabrics without death signaling never report a dead peer).
    fn is_peer_dead(&self, _peer: usize) -> bool {
        false
    }

    /// This endpoint's incarnation number: 0 for an original process, 1+
    /// for a respawned replacement taking over the rank. Default: 0.
    fn incarnation(&self) -> u32 {
        0
    }

    /// Latest incarnation observed from `peer` (e.g. via a reconnect
    /// handshake). Default: 0.
    fn peer_incarnation(&self, _peer: usize) -> u32 {
        0
    }

    /// Snapshot of per-peer wire counters. Default: empty (no counters).
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

/// How long [`poll_then_park`] looks at an inbox, yielding between looks,
/// before it parks. Waking a parked receiver costs tens of microseconds,
/// picking up a message while polling well under one; the budget is a few
/// wake-ups long, enough to outlast the serial section of a panel column on
/// the owning rank (the wait it is there to absorb), and bounds what a
/// receive that really has to wait — a peer deep in a GEMM — burns before it
/// sleeps. DESIGN.md §7, "Receive: poll, then park".
pub(crate) const POLL_BUDGET: Duration = Duration::from_micros(100);

/// The one receive wait, under both transports' `recv`: look at `rx`,
/// yielding the core between looks for [`POLL_BUDGET`], then park on it for
/// the rest of `timeout`. A yield hands the core to whichever thread will
/// produce the message — a rank on an oversubscribed fabric, a socket
/// reader — and returns at once when nothing else is runnable, so the same
/// wait serves every fabric. A queued message is returned whatever the
/// timeout, `Timeout` fires no earlier than asked, and a hung-up sender
/// reads as `Closed`.
pub(crate) fn poll_then_park(rx: &Receiver<Msg>, timeout: Duration) -> Result<Msg, CommError> {
    let start = Instant::now();
    let budget = POLL_BUDGET.min(timeout);
    loop {
        match rx.try_recv() {
            Ok(m) => return Ok(m),
            Err(TryRecvError::Disconnected) => return Err(CommError::Closed),
            Err(TryRecvError::Empty) => {}
        }
        if start.elapsed() >= budget {
            break;
        }
        std::thread::yield_now();
    }
    // The poll ran for at least `budget`, so `Timeout` still fires no
    // earlier than the caller asked.
    match rx.recv_timeout(timeout - budget) {
        Ok(m) => Ok(m),
        Err(RecvTimeoutError::Timeout) => Err(CommError::Timeout),
        Err(RecvTimeoutError::Disconnected) => Err(CommError::Closed),
    }
}

/// The default in-process fabric: one unbounded `std::sync::mpsc` channel
/// per endpoint, senders shared by everyone, plus a shared dead-endpoint
/// mask and incarnation table for peer-death signaling.
pub struct MpscTransport {
    rank: usize,
    txs: Arc<Vec<Sender<Msg>>>,
    rx: Receiver<Msg>,
    incarnations: Arc<Vec<AtomicU32>>,
}

impl MpscTransport {
    /// Build a fully connected fabric of `n` endpoints.
    pub fn fabric(n: usize) -> Vec<MpscTransport> {
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            txs.push(tx);
            rxs.push(rx);
        }
        let txs = Arc::new(txs);
        let incarnations: Arc<Vec<AtomicU32>> = Arc::new((0..n).map(|_| AtomicU32::new(0)).collect());
        rxs.into_iter()
            .enumerate()
            .map(|(rank, rx)| MpscTransport {
                rank,
                txs: Arc::clone(&txs),
                rx,
                incarnations: Arc::clone(&incarnations),
            })
            .collect()
    }
}

impl Transport for MpscTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.txs.len()
    }

    fn send(&self, dst: usize, msg: Msg) {
        // A send fails only when the whole world is being torn down; that
        // is indistinguishable from a closed endpoint — drop.
        let _ = self.txs[dst].send(msg);
    }

    fn recv(&self, timeout: Duration) -> Result<Msg, CommError> {
        poll_then_park(&self.rx, timeout)
    }

    /// A replacement takes the rank over under the next incarnation, the
    /// way a respawned TCP process announces one: the bump outlives the
    /// reopen, so a peer that looks only afterwards still sees the death.
    fn reopen(&self) {
        self.incarnations[self.rank].fetch_add(1, Ordering::AcqRel);
    }

    fn incarnation(&self) -> u32 {
        self.peer_incarnation(self.rank)
    }

    fn peer_incarnation(&self, peer: usize) -> u32 {
        self.incarnations[peer].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, wire: u64, val: f64) -> Msg {
        Msg { src, wire, epoch: 0, payload: Arc::from([val].as_slice()) }
    }

    #[test]
    fn fabric_routes_and_preserves_pairwise_order() {
        let mut eps = MpscTransport::fabric(3);
        let c = eps.remove(2);
        let b = eps.remove(1);
        let a = eps.remove(0);
        assert_eq!(a.world_size(), 3);
        assert_eq!(c.rank(), 2);

        a.send(2, msg(0, 1, 1.0));
        a.send(2, msg(0, 1, 2.0));
        b.send(2, msg(1, 9, 3.0));

        let mut from_a = Vec::new();
        for _ in 0..3 {
            let m = c.recv(Duration::from_secs(5)).expect("message lost");
            if m.src == 0 {
                from_a.push(m.payload[0]);
            } else {
                assert_eq!((m.wire, m.payload[0]), (9, 3.0));
            }
        }
        assert_eq!(from_a, vec![1.0, 2.0], "pairwise order violated");
        assert_eq!(c.recv(Duration::from_millis(10)).err(), Some(CommError::Timeout), "phantom message");
    }

    #[test]
    fn payloads_are_shared_not_copied() {
        let mut eps = MpscTransport::fabric(2);
        let b = eps.remove(1);
        let a = eps.remove(0);
        let payload: Arc<[f64]> = Arc::from(vec![7.0; 32].as_slice());
        a.send(1, Msg { src: 0, wire: 0, epoch: 0, payload: Arc::clone(&payload) });
        let got = b.recv(Duration::from_secs(5)).unwrap().payload;
        assert!(Arc::ptr_eq(&payload, &got), "transport deep-copied the payload");
    }

    fn pair() -> (MpscTransport, MpscTransport) {
        let mut eps = MpscTransport::fabric(2);
        let b = eps.remove(1);
        (eps.remove(0), b)
    }

    #[test]
    fn timeout_fires_no_earlier_than_asked() {
        let (a, _b) = pair();
        // Longer than the poll budget, and shorter than it.
        for timeout in [Duration::from_millis(20), POLL_BUDGET / 4, Duration::ZERO] {
            let start = Instant::now();
            assert_eq!(a.recv(timeout).err(), Some(CommError::Timeout));
            assert!(start.elapsed() >= timeout, "timed out after {:?} < {timeout:?}", start.elapsed());
        }
    }

    #[test]
    fn message_is_returned_whether_it_is_queued_or_lands_mid_receive() {
        let (a, b) = pair();
        // Already queued: even a zero timeout returns it.
        a.send(1, msg(0, 3, 1.0));
        assert_eq!(b.recv(Duration::ZERO).unwrap().payload[0], 1.0);
        // Sent once the receiver is known to be on its way into `recv` (it
        // lands in the poll window or just after it), and long after it has
        // parked: returned either way.
        let (go_tx, go_rx) = channel::<(Duration, f64)>();
        std::thread::scope(|s| {
            s.spawn(move || {
                for (delay, val) in go_rx {
                    std::thread::sleep(delay);
                    a.send(1, msg(0, 3, val));
                }
            });
            for (delay, val) in [(Duration::ZERO, 2.0), (200 * POLL_BUDGET, 3.0)] {
                go_tx.send((delay, val)).unwrap();
                assert_eq!(b.recv(Duration::from_secs(30)).unwrap().payload[0], val);
            }
            drop(go_tx);
        });
    }

    #[test]
    fn disconnected_channel_reads_as_closed() {
        let (tx, rx) = channel();
        tx.send(msg(0, 1, 4.0)).unwrap();
        drop(tx);
        // What was sent before the hang-up is still delivered.
        assert_eq!(poll_then_park(&rx, Duration::from_secs(5)).unwrap().payload[0], 4.0);
        assert_eq!(poll_then_park(&rx, Duration::from_secs(5)).err(), Some(CommError::Closed));
    }

    #[test]
    fn token_ring_on_four_ranks_per_core_delivers_every_message_once_in_order() {
        // Every rank waits on its left neighbour while four ranks share each
        // core: the wait has to give its core to the rank that will send.
        const ROUNDS: usize = 200;
        let n = 4 * std::thread::available_parallelism().map_or(1, |c| c.get());
        let eps = MpscTransport::fabric(n);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in eps {
                s.spawn(move || {
                    // Every rank sends round k on, then waits for its left
                    // neighbour's round k: n tokens circulate at once, and a
                    // fast sender runs up to one round ahead of its reader.
                    let left = (t.rank() + n - 1) % n;
                    for round in 0..ROUNDS {
                        t.send((t.rank() + 1) % n, msg(t.rank(), 1, round as f64));
                        let m = t.recv(Duration::from_secs(30)).expect("ring stalled");
                        assert_eq!((m.src, m.payload[0]), (left, round as f64), "rank {}: lost, doubled or reordered", t.rank());
                    }
                    assert_eq!(
                        t.recv(Duration::from_millis(10)).err(),
                        Some(CommError::Timeout),
                        "rank {}: extra message",
                        t.rank()
                    );
                });
            }
        });
        assert!(t0.elapsed() < Duration::from_secs(20), "{ROUNDS} ring rounds on {n} ranks took {:?}", t0.elapsed());
    }

    #[test]
    fn reopen_bumps_the_incarnation_and_traffic_flows() {
        let mut eps = MpscTransport::fabric(2);
        let b = eps.remove(1);
        let a = eps.remove(0);
        // A replacement takes rank 1 over under the next incarnation: the
        // bump is the evidence a peer sweeps, and the endpoint stays open.
        assert_eq!((a.peer_incarnation(1), b.incarnation()), (0, 0));
        b.reopen();
        assert!(!a.is_peer_dead(1));
        assert_eq!((a.peer_incarnation(1), b.incarnation()), (1, 1), "the death left no evidence");
        a.send(1, msg(0, 4, 2.0));
        assert_eq!(b.recv(Duration::from_secs(5)).unwrap().payload[0], 2.0);
    }
}
