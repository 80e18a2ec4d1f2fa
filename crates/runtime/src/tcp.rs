//! Real multi-process transport over `std::net` TCP (localhost-oriented,
//! std-only) — the second [`Transport`] implementation next to the default
//! in-process [`crate::transport::MpscTransport`].
//!
//! ## Wire format (v2: integrity + sequencing)
//!
//! Every frame is length-prefixed, self-describing, and CRC-protected:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length in f64 words (u32 LE)
//! 4       1     kind: 0 HELLO, 1 HEARTBEAT, 2 DATA, 3 GOODBYE,
//!               9 HELLO_ACK, 10 ACK (4..=8: job frames; 11 retired)
//! 5       3     reserved (zero)
//! 8       4     source rank (u32 LE)
//! 12      4     source incarnation (u32 LE)
//! 16      8     wire key — the encoded (Tag, Leg) mailbox (u64 LE)
//! 24      8     sender communication epoch (u64 LE)
//! 32      8     per-link sequence number (u64 LE; 0 = unsequenced:
//!               control frames only, never DATA)
//! 40      4     CRC32 (IEEE) of the whole frame with this field zeroed
//! 44      4     CRC32 (IEEE) of header bytes 0..40 (checked before the
//!               length prefix is trusted)
//! 48      8·len payload (f64 LE)
//! ```
//!
//! The epoch stamped in every frame is the sender's detector epoch, so the
//! epoch fencing that drops stragglers from aborted attempts works
//! identically over TCP and over the in-process fabric. The incarnation in
//! every frame (and in the HELLO handshake that opens each connection) is
//! how a respawned replacement rank is told apart from its dead
//! predecessor.
//!
//! ## Reliability: a window, cumulative ACKs, and one repair
//!
//! DATA frames carry a per-`(src → dst)` sequence number starting at 1.
//! The sender keeps every unacknowledged frame in its window, at most
//! `NET_WINDOW` of them in flight; the receiver delivers strictly in
//! sequence, answers each delivery with a cumulative ACK and suppresses
//! duplicates. Between two live endpoints a TCP stream neither loses nor
//! reorders bytes, so anything else means the stream can no longer be
//! trusted, and every such case takes the same repair — *reconnect and
//! resume*: the sender dials a fresh connection and the HELLO / HELLO_ACK
//! handshake resumes the session — the receiver announces the highest
//! sequence it delivered, the sender prunes its window to it and replays
//! everything after it. Three things trigger it: the connection dies
//! (RST, EOF, a write past `WRITE_TIMEOUT`); the receiver closes it — on a
//! frame that fails its CRC (counted, never delivered) or on a sequence
//! gap (an injected drop or reorder; the frame beyond the gap is discarded,
//! never buffered); or the sender drops it because the window's head has
//! gone unACKed past `max(2·hb, 200 ms)` (a lost final frame with no later
//! traffic to expose the gap, or a receiver stuck mid-frame). Because
//! delivery is in-sequence-order exactly once, the repair preserves bitwise
//! determinism.
//!
//! Control frames (ACK/HELLO_ACK) travel *backwards* on the inbound
//! connection. The receiver writes them with a 1 ms write timeout and a
//! bounded pending buffer — it never blocks on the reverse path, so it
//! always keeps draining DATA and the classic full-duplex TCP deadlock
//! cannot arise.
//!
//! ## Threads: the sending rank writes its own frames
//!
//! There is no outbound queue. A link's sender state (`Link`) sits behind
//! one mutex. [`Transport::send`] locks it on the caller's thread,
//! sequences the message into the window, drains pending ACK bytes with
//! a non-blocking read, and — when the link is clean — encodes the frame
//! into the link's reused buffer (one pass: copy + CRC, see [`crate::crc`])
//! and writes it itself; neither the frame nor its ACK wakes a thread on
//! this side. A write the socket buffer cannot take whole finishes blocking
//! under `WRITE_TIMEOUT`, the bound on how long `send` can hold the caller;
//! past it the stream is dropped and the resume replays the frame.
//! Everything that needs a clock or a retry — connecting, resuming,
//! injected faults, first transmissions `send` could not make,
//! heartbeats, GOODBYE, the teardown drain — belongs to the per-peer *link
//! thread*, which wakes on the beat timer or a kick from `send`. Inbound,
//! the accept thread blocks in `accept` (teardown wakes it with a connect
//! to its own listener), one reader thread per
//! connection checks each frame's CRCs in one pass and collects the payload
//! straight into the `Arc<[f64]>` it delivers, and [`Transport::recv`] waits
//! on the inbox in the wait every transport shares: it yields for the poll
//! budget, then parks.
//!
//! ## Fault injection
//!
//! The wire faults of the run's [`FaultScript`] ([`TcpConfig::faults`], from
//! `--faults`; see [`crate::netchaos`]) are consulted once per first
//! transmission of each sequenced frame: drop, delay, duplicate, reorder
//! (hold back behind the next frame), corrupt (bit flip after the CRC is
//! stamped), and mid-stream reset, plus time-windowed asymmetric
//! partitions that black-hole connects, heartbeats, and frames per
//! direction. A resume's replay is never re-injected (the
//! `sent_up_to` watermark), so every scripted fault is exercised
//! exactly once and recovery always converges. The receiver never held an
//! out-of-order frame, so `reorder=` exercises the path `drop=` does: the
//! early frame is a gap, the late one arrives on a closed connection.
//!
//! ## Failure detection: suspicion before verdict
//!
//! [`Transport::is_peer_dead`] reports a peer whose inbound connection hit
//! EOF/error and did not come back within [`TcpConfig::hb_grace_beats`]
//! heartbeats, or whose last frame (heartbeats included) is older than
//! `hb_miss_limit × hb_interval`. Between "slow" and "dead" sits a
//! *suspicion* level: after 2 beats of silence the peer's link thread marks
//! it suspected, and any later frame rescinds the suspicion (counted
//! in the traffic ledger) — an injected sub-grace stall never escalates to
//! a spurious recovery. A peer that keeps sending unparseable frames
//! (oversize length, repeated CRC failures across [`STRIKE_LIMIT`]
//! consecutive connections) is marked *faulted* — a typed clean peer-fault
//! the detector handles like a death, instead of an abrupt recv-thread
//! teardown. Connection establishment retries — once after `RETRY_FIRST`,
//! then with exponential backoff (`BACKOFF_INIT` doubling up to
//! `BACKOFF_CAP`) and deterministic jitter — until
//! [`TcpConfig::conn_timeout`] is exhausted.

use crate::crc::crc32_update;
use crate::fault::FaultScript;
use crate::netchaos::NetFault;
use crate::transport::{poll_then_park, CommError, Msg, PeerCounters, Transport, TransportStats};
use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

const KIND_HELLO: u8 = 0;
const KIND_HEARTBEAT: u8 = 1;
const KIND_DATA: u8 = 2;
/// Clean-shutdown announcement, sent from `Drop`. A SIGKILLed or aborted
/// process never runs `Drop`, so a GOODBYE reliably separates "finished
/// and left" from "died": a departed peer is not judged dead no matter how
/// long its sockets stay silent.
const KIND_GOODBYE: u8 = 3;
// Kinds 4..=8 belong to the serving layer's job frames (see [`jobs`]).
// They share the 48-byte header but travel on dedicated client↔daemon and
// daemon↔worker connections, never on the rank fabric; `reader_loop`
// ignores them like any other unknown kind if one ever strays there.
/// Session-resume reply to HELLO: the `seq` field carries the highest
/// sequence number the receiver has delivered from this sender.
const KIND_HELLO_ACK: u8 = 9;
/// Cumulative acknowledgement: every DATA frame up to and including `seq`
/// was delivered.
const KIND_ACK: u8 = 10;
// Kind 11 is retired, not free: nothing emits it, and on a reverse path it
// is garbage like any other unknown kind.

const HEADER_LEN: usize = 48;
/// Sanity cap on a frame's payload (words): a corrupt length prefix must
/// not turn into a multi-gigabyte allocation. Exceeding it is a typed
/// frame rejection (an integrity strike), not an abrupt reader teardown.
const MAX_PAYLOAD_WORDS: u32 = 1 << 28;
/// Frames a link may hold in flight awaiting ACK (the window).
/// Frames sent beyond it wait, sequenced but unwritten, for ACKs to free
/// space.
const NET_WINDOW: usize = 1024;
/// Longest one blocked socket write may wait for the peer to drain — the
/// bound on how long `send` can hold the calling rank. A write that times
/// out drops the stream; the frame stays in the window for the resume.
const WRITE_TIMEOUT: Duration = Duration::from_millis(250);
/// Pause before the *first* retry of a connect or bind: the usual miss is a
/// peer that binds a moment after we dial, and it should not cost a whole
/// backoff step.
const RETRY_FIRST: Duration = Duration::from_millis(1);
/// Backoff pause from the second retry on (doubles per failed attempt) and
/// the ceiling the exponential backoff saturates at.
const BACKOFF_INIT: Duration = Duration::from_millis(10);
const BACKOFF_CAP: Duration = Duration::from_millis(400);
/// Ceiling of the bind retry pause in [`TcpTransport::connect`] (a respawn
/// winning its predecessor's port back from the kernel).
const BIND_RETRY_CAP: Duration = Duration::from_millis(50);
/// Seed of the backoff jitter, mixed with the link's two ranks so it stays
/// deterministic per link.
const JITTER_SEED: u64 = 0x9e3779b97f4a7c15;
/// Granularity at which blocking socket reads re-check the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);
/// Consecutive unparseable-frame connections after which a peer is marked
/// faulted (a clean typed peer-fault for the detector). Any valid DATA or
/// HEARTBEAT frame resets the count.
const STRIKE_LIMIT: u32 = 8;
/// Bound on the receiver's pending reverse-path control bytes. ACKs are
/// cumulative, so dropping one when the buffer is full is always safe.
const ACK_PUMP_CAP: usize = HEADER_LEN * 32;

/// Knobs for a [`TcpTransport`] endpoint.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// This endpoint's rank.
    pub rank: usize,
    /// Number of ranks in the fabric.
    pub world: usize,
    /// Heartbeat period.
    pub hb_interval: Duration,
    /// Beats of silence after which a peer is suspected dead.
    pub hb_miss_limit: u32,
    /// Beats of grace after an inbound EOF before the peer is declared
    /// dead: a reconnect (session resume) inside the grace window makes
    /// the EOF a non-event. Distinguishes slow/stalled from dead.
    pub hb_grace_beats: u32,
    /// Total budget for establishing one outbound connection (spent across
    /// exponentially backed-off, jittered attempts).
    pub conn_timeout: Duration,
    /// This process's incarnation (0 originally; respawns bump it).
    pub incarnation: u32,
    /// The run's fault script; the transport injects its wire faults
    /// (none scripted = faithful wire).
    pub faults: FaultScript,
}

impl TcpConfig {
    /// Defaults tuned for localhost child processes: 100 ms beats, dead
    /// after 30 missed (3 s), 4 beats of post-EOF grace, 10 s connect
    /// budget. Generous on purpose — CI boxes with a single core timeslice
    /// several ranks onto one CPU, and a starved heartbeat thread must not
    /// read as a death.
    pub fn new(rank: usize, world: usize) -> Self {
        TcpConfig {
            rank,
            world,
            hb_interval: Duration::from_millis(100),
            hb_miss_limit: 30,
            hb_grace_beats: 4,
            conn_timeout: Duration::from_secs(10),
            incarnation: 0,
            faults: FaultScript::none(),
        }
    }

    /// Overlay the `FT_HB_*` environment knobs onto this config:
    /// `FT_HB_INTERVAL_MS`, `FT_HB_MISS_LIMIT`, `FT_HB_GRACE_BEATS`. Unset
    /// variables leave the field alone; a set-but-invalid value is a
    /// configuration error the caller must surface *before* any socket
    /// work starts.
    pub fn apply_env(&mut self) -> Result<(), String> {
        fn positive(name: &str) -> Result<Option<u32>, String> {
            match std::env::var(name) {
                Ok(v) => match v.parse::<u32>() {
                    Ok(n) if n > 0 => Ok(Some(n)),
                    _ => Err(format!("{name}: '{v}' is not a positive 32-bit integer")),
                },
                Err(_) => Ok(None),
            }
        }
        if let Some(n) = positive("FT_HB_INTERVAL_MS")? {
            self.hb_interval = Duration::from_millis(n.into());
        }
        if let Some(n) = positive("FT_HB_MISS_LIMIT")? {
            self.hb_miss_limit = n;
        }
        if let Some(n) = positive("FT_HB_GRACE_BEATS")? {
            self.hb_grace_beats = n;
        }
        Ok(())
    }

    /// Reject inconsistent liveness settings up front — a zero interval
    /// spins the beat thread, a zero miss limit declares everyone dead, and
    /// a zero grace wedges the resume protocol.
    pub fn validate(&self) -> Result<(), String> {
        if self.hb_interval.is_zero() {
            return Err("heartbeat interval must be positive".into());
        }
        if self.hb_miss_limit == 0 {
            return Err("heartbeat miss limit must be at least 1".into());
        }
        if self.hb_grace_beats == 0 {
            return Err("heartbeat grace must be at least 1 beat".into());
        }
        if self.conn_timeout.is_zero() {
            return Err("connect timeout must be positive".into());
        }
        Ok(())
    }
}

// --- counters / peer state ---------------------------------------------------

#[derive(Default)]
struct Counters {
    frames_tx: AtomicU64,
    bytes_tx: AtomicU64,
    frames_rx: AtomicU64,
    bytes_rx: AtomicU64,
    retries: AtomicU64,
    reconnects: AtomicU64,
    hb_misses: AtomicU64,
    retransmits: AtomicU64,
    dup_suppressed: AtomicU64,
    resumes: AtomicU64,
    crc_rejects: AtomicU64,
    frame_rejects: AtomicU64,
    rescinds: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> PeerCounters {
        PeerCounters {
            frames_tx: self.frames_tx.load(Ordering::Relaxed),
            bytes_tx: self.bytes_tx.load(Ordering::Relaxed),
            frames_rx: self.frames_rx.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            hb_misses: self.hb_misses.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            dup_suppressed: self.dup_suppressed.load(Ordering::Relaxed),
            resumes: self.resumes.load(Ordering::Relaxed),
            crc_rejects: self.crc_rejects.load(Ordering::Relaxed),
            frame_rejects: self.frame_rejects.load(Ordering::Relaxed),
            rescinds: self.rescinds.load(Ordering::Relaxed),
        }
    }
}

struct PeerState {
    /// Milliseconds (since transport start) of the last frame from this
    /// peer; 0 = never heard from them.
    last_seen_ms: AtomicU64,
    /// The current inbound connection is live (HELLO seen, no EOF yet).
    inbound_alive: AtomicBool,
    /// Generation of the current inbound connection, so a stale reader's
    /// EOF cannot clobber the state of its replacement connection.
    conn_gen: AtomicU64,
    /// Highest incarnation seen from this rank.
    incarnation: AtomicU32,
    /// The peer announced a clean shutdown (GOODBYE frame): silence and
    /// EOF from it are departure, not death. Cleared when a later
    /// incarnation's HELLO re-opens the slot.
    departed: AtomicBool,
    /// Next DATA sequence number expected from this peer (delivery
    /// cursor); survives reconnects of the same incarnation so the
    /// HELLO_ACK resume handshake can announce `recv_next - 1`. A lock, held
    /// across compare, deliver and advance: a sender that drops a stream
    /// redials at once, so the old connection's reader can still be working
    /// through what it had buffered when the new one starts on the replay
    /// of the same sequences.
    recv_next: Mutex<u64>,
    /// Silent past 2 beats but not yet past the grace/miss thresholds:
    /// slow-or-dead is undecided. Any frame rescinds the suspicion.
    suspected: AtomicBool,
    /// The peer burned [`STRIKE_LIMIT`] consecutive connections on
    /// unparseable frames: typed peer-fault, treated like a death.
    faulted: AtomicBool,
    strikes: AtomicU32,
    counters: Counters,
}

struct Shared {
    rank: usize,
    incarnation: u32,
    start: Instant,
    hb_interval: Duration,
    hb_miss_limit: u32,
    grace_beats: u32,
    faults: FaultScript,
    shutdown: AtomicBool,
    peers: Vec<PeerState>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn touch(&self, peer: usize) {
        let st = &self.peers[peer];
        st.last_seen_ms.store(self.now_ms().max(1), Ordering::Relaxed);
        if st.suspected.swap(false, Ordering::AcqRel) {
            st.counters.rescinds.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn done(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// The beat of `peer`'s link thread: `true` once `next_beat` has passed
    /// (and re-armed) before teardown. Each beat judges the peer's silence:
    /// a missed beat is counted, and two beats of silence raise suspicion,
    /// not a verdict. The next frame rescinds it (counted); only the
    /// grace/miss thresholds in `is_peer_dead` escalate to dead.
    fn beat(&self, peer: usize, next_beat: &mut Instant) -> bool {
        if Instant::now() < *next_beat {
            return false;
        }
        *next_beat = Instant::now() + self.hb_interval;
        if self.done() {
            return false;
        }
        let st = &self.peers[peer];
        let last = st.last_seen_ms.load(Ordering::Relaxed);
        let (silent, hb_ms) = (self.now_ms().saturating_sub(last), self.hb_interval.as_millis().max(1) as u64);
        if last > 0 && silent > hb_ms {
            st.counters.hb_misses.fetch_add(1, Ordering::Relaxed);
        }
        if last > 0 && silent > 2 * hb_ms && !st.departed.load(Ordering::Acquire) {
            st.suspected.store(true, Ordering::Release);
        }
        true
    }
}

fn strike(st: &PeerState) {
    if st.strikes.fetch_add(1, Ordering::AcqRel) + 1 >= STRIKE_LIMIT {
        st.faulted.store(true, Ordering::Release);
    }
}

/// TCP endpoint: see the module docs for wire format and thread layout.
pub struct TcpTransport {
    shared: Arc<Shared>,
    addrs: Vec<SocketAddr>,
    conn_timeout: Duration,
    inbox_rx: Receiver<Msg>,
    /// Self-delivery handle on the inbox; every reader thread owns a clone.
    inbox_tx: Sender<Msg>,
    /// Per peer: the link state `send` and that peer's link thread share,
    /// and the handle that kicks the thread out of its timed park.
    links: Vec<Option<(Arc<Mutex<Link>>, Thread)>>,
    /// Liveness and link threads, joined at teardown.
    threads: Vec<JoinHandle<()>>,
    /// The accept thread and the listener's address: it blocks in `accept`,
    /// and a connect to that address is what teardown wakes it with.
    acceptor: Option<(JoinHandle<()>, SocketAddr)>,
}

impl TcpTransport {
    /// Bind `127.0.0.1:(port_base + rank)` and connect the endpoint into a
    /// fabric whose rank `i` listens on `port_base + i`. The bind retries
    /// for up to `conn_timeout` so a respawned replacement can win its
    /// predecessor's port back from the kernel.
    pub fn connect(cfg: TcpConfig, port_base: u16) -> io::Result<TcpTransport> {
        let addrs: Vec<SocketAddr> = (0..cfg.world)
            .map(|r| SocketAddr::from(([127, 0, 0, 1], port_base + r as u16)))
            .collect();
        let deadline = Instant::now() + cfg.conn_timeout;
        let mut pause = RETRY_FIRST;
        let listener = loop {
            match TcpListener::bind(addrs[cfg.rank]) {
                Ok(l) => break l,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(pause);
                    pause = (pause * 2).clamp(BACKOFF_INIT, BIND_RETRY_CAP);
                }
                Err(e) => return Err(e),
            }
        };
        Self::with_listener(cfg, addrs, listener)
    }

    /// Build a fully connected localhost fabric of `n` endpoints on
    /// ephemeral ports — the in-process test harness for the real wire.
    /// Liveness thresholds are made very generous (30 s) because the
    /// fabric's ranks are threads of one process sharing however few CPUs
    /// the test host has: nobody in these fabrics dies for real, so fast
    /// detection buys nothing and scheduler starvation must not look like
    /// a death. Death-detection tests build their own tight configs via
    /// [`TcpTransport::with_listener`] or [`TcpTransport::fabric_localhost_with`].
    pub fn fabric_localhost(n: usize) -> io::Result<Vec<TcpTransport>> {
        Self::fabric_localhost_with(n, |_| {})
    }

    /// [`TcpTransport::fabric_localhost`] with a per-rank config tweak
    /// applied after the generous test defaults — the hook the fault
    /// batteries use to install a [`FaultScript`] or tight heartbeats.
    pub fn fabric_localhost_with(n: usize, tweak: impl Fn(&mut TcpConfig)) -> io::Result<Vec<TcpTransport>> {
        let listeners: Vec<TcpListener> = (0..n).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr()).collect::<io::Result<_>>()?;
        listeners
            .into_iter()
            .enumerate()
            .map(|(rank, l)| {
                let mut cfg = TcpConfig::new(rank, n);
                cfg.hb_interval = Duration::from_millis(500);
                cfg.hb_miss_limit = 60;
                tweak(&mut cfg);
                Self::with_listener(cfg, addrs.clone(), l)
            })
            .collect()
    }

    /// Assemble an endpoint from an already-bound listener plus the full
    /// rank → address map.
    pub fn with_listener(cfg: TcpConfig, addrs: Vec<SocketAddr>, listener: TcpListener) -> io::Result<TcpTransport> {
        assert_eq!(addrs.len(), cfg.world, "one address per rank");
        assert!(cfg.rank < cfg.world, "rank outside the world");
        let (inbox_tx, inbox_rx) = channel();
        let shared = Arc::new(Shared {
            rank: cfg.rank,
            incarnation: cfg.incarnation,
            start: Instant::now(),
            hb_interval: cfg.hb_interval,
            hb_miss_limit: cfg.hb_miss_limit,
            grace_beats: cfg.hb_grace_beats,
            faults: cfg.faults.clone(),
            shutdown: AtomicBool::new(false),
            peers: (0..cfg.world)
                .map(|_| PeerState {
                    last_seen_ms: AtomicU64::new(0),
                    inbound_alive: AtomicBool::new(false),
                    conn_gen: AtomicU64::new(0),
                    incarnation: AtomicU32::new(0),
                    departed: AtomicBool::new(false),
                    recv_next: Mutex::new(1),
                    suspected: AtomicBool::new(false),
                    faulted: AtomicBool::new(false),
                    strikes: AtomicU32::new(0),
                    counters: Counters::default(),
                })
                .collect(),
        });
        let mut threads = Vec::new();

        let acceptor = {
            let listen_addr = listener.local_addr()?;
            let (shared, inbox) = (Arc::clone(&shared), inbox_tx.clone());
            (std::thread::spawn(move || accept_loop(shared, listener, inbox)), listen_addr)
        };

        let mut links = Vec::with_capacity(cfg.world);
        for (dst, &addr) in addrs.iter().enumerate() {
            if dst == cfg.rank {
                links.push(None);
                continue;
            }
            let link = Arc::new(Mutex::new(Link { dst, next_seq: 1, ..Link::default() }));
            let (shared, cell) = (Arc::clone(&shared), Arc::clone(&link));
            let dialer = Dialer {
                addr,
                conn_timeout: cfg.conn_timeout,
                jitter: JITTER_SEED ^ cfg.rank as u64 ^ (dst as u64).wrapping_mul(0xbf58476d1ce4e5b9),
                ever_connected: false,
            };
            let t = std::thread::spawn(move || link_loop(shared, cell, dialer));
            links.push(Some((link, t.thread().clone())));
            threads.push(t);
        }

        // Each thread spawned above needs a few microseconds to reach its
        // first blocking call, and the ones queued behind this thread have
        // not had them yet. Let them run now: a caller that goes straight on
        // to spawn its rank threads otherwise has the scheduler count them
        // against this CPU and stack two ranks on another (EXPERIMENTS.md,
        // "The CRC under `target-cpu=native`": 33–53 % of fresh fabrics on a
        // 2-core host, 0.7 ms each; 18–33 % with the yield).
        std::thread::yield_now();

        Ok(TcpTransport {
            shared,
            addrs,
            conn_timeout: cfg.conn_timeout,
            inbox_rx,
            inbox_tx,
            links,
            threads,
            acceptor: Some(acceptor),
        })
    }

    /// The rank → address map this endpoint was built with.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Total budget for establishing one outbound connection.
    pub fn conn_timeout(&self) -> Duration {
        self.conn_timeout
    }

    fn dead_after_ms(&self) -> u64 {
        (self.shared.hb_miss_limit as u64).max(1) * self.shared.hb_interval.as_millis().max(1) as u64
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.shared.rank
    }

    fn world_size(&self) -> usize {
        self.shared.peers.len()
    }

    /// Sequence `msg` onto the link and, if the link is clean, write it from
    /// this thread ([`Link::send`]): blocks at most one [`WRITE_TIMEOUT`].
    fn send(&self, dst: usize, msg: Msg) {
        if self.shared.done() {
            return;
        }
        if dst == self.shared.rank {
            // Self-delivery short-circuits the wire, like the mpsc fabric.
            let _ = self.inbox_tx.send(msg);
            return;
        }
        if let Some((link, thread)) = &self.links[dst] {
            // A link thread that panicked leaves a poisoned lock and a link
            // without beats or retries — its peer will read that as a death.
            // The state itself is sound (no update spans a panic site), so
            // the rank keeps sending rather than panicking a second time.
            let written = link.lock().unwrap_or_else(PoisonError::into_inner).send(&self.shared, msg);
            if !written {
                thread.unpark();
            }
        }
    }

    /// Poll, then park (DESIGN.md §7): a frame's reader thread is already a
    /// wake-up away, so a rank that parks at once pays a second one per
    /// message.
    fn recv(&self, timeout: Duration) -> Result<Msg, CommError> {
        if self.shared.done() {
            return Err(CommError::Closed);
        }
        poll_then_park(&self.inbox_rx, timeout)
    }

    fn is_peer_dead(&self, peer: usize) -> bool {
        if peer == self.shared.rank {
            return self.shared.done();
        }
        let st = &self.shared.peers[peer];
        if st.departed.load(Ordering::Acquire) {
            return false; // announced a clean shutdown: gone, not dead
        }
        if st.faulted.load(Ordering::Acquire) {
            return true; // persistent protocol violations: typed peer-fault
        }
        let last = st.last_seen_ms.load(Ordering::Relaxed);
        if last == 0 {
            return false; // never heard from them: absent, not dead
        }
        let silent = self.shared.now_ms().saturating_sub(last);
        let hb_ms = self.shared.hb_interval.as_millis().max(1) as u64;
        if !st.inbound_alive.load(Ordering::Acquire) && silent > self.shared.grace_beats as u64 * hb_ms {
            return true; // EOF observed (e.g. SIGKILL) and no resume within grace
        }
        silent > self.dead_after_ms()
    }

    fn incarnation(&self) -> u32 {
        self.shared.incarnation
    }

    fn peer_incarnation(&self, peer: usize) -> u32 {
        if peer == self.shared.rank {
            self.shared.incarnation
        } else {
            self.shared.peers[peer].incarnation.load(Ordering::Acquire)
        }
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            peers: self.shared.peers.iter().map(|p| p.counters.snapshot()).collect(),
        }
    }
}

impl TcpTransport {
    fn teardown(&mut self, goodbye: bool) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Each link thread finishes what `send` left it, says GOODBYE (so
        // peers never mistake the ensuing EOF + silence for a death) and
        // drains its window — from the unpark on, not from the next beat.
        for (link, _) in self.links.iter().flatten() {
            link.lock().unwrap_or_else(PoisonError::into_inner).leaving = Some(goodbye);
        }
        for t in &self.threads {
            t.thread().unpark();
        }
        // The accept thread wakes on a connection: make one. If even that
        // fails the thread is left behind rather than joined mid-`accept`.
        // The connection outlives the join so that the accepting side closes
        // first and the TIME_WAIT lands there, on the listener's port with
        // the listener's SO_REUSEADDR — not on an ephemeral client port that
        // a later fabric may be told to bind.
        if let Some((t, listen_addr)) = self.acceptor.take() {
            if let Ok(_kick) = TcpStream::connect_timeout(&listen_addr, WRITE_TIMEOUT) {
                let _ = t.join();
            }
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Tear down without the GOODBYE announcement — the unit-test stand-in
    /// for a process death (a real SIGKILL never runs `Drop` at all).
    #[cfg(test)]
    fn drop_abruptly(mut self) {
        self.teardown(false);
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.teardown(true);
    }
}

// --- framing ----------------------------------------------------------------

/// Encode one frame into `buf`, replacing its contents (the send paths
/// reuse one buffer per link). Both CRCs come out of one forward pass: the
/// header CRC is the running state after bytes 0..40, and the frame CRC
/// carries that same state on over the rest.
#[allow(clippy::too_many_arguments)] // the header's six fields, flat
fn encode_into(buf: &mut Vec<u8>, kind: u8, src: usize, inc: u32, wire: u64, epoch: u64, seq: u64, payload: &[f64]) {
    // Not cleared first: a reused buffer keeps the bytes it has, and every
    // one of them is overwritten below — the header's zeros here, the
    // payload by the copy.
    buf.resize(HEADER_LEN + 8 * payload.len(), 0);
    buf[..HEADER_LEN].fill(0);
    buf[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    buf[4] = kind;
    buf[8..12].copy_from_slice(&(src as u32).to_le_bytes());
    buf[12..16].copy_from_slice(&inc.to_le_bytes());
    buf[16..24].copy_from_slice(&wire.to_le_bytes());
    buf[24..32].copy_from_slice(&epoch.to_le_bytes());
    buf[32..40].copy_from_slice(&seq.to_le_bytes());
    // Header CRC (over bytes 0..40): the receiver verifies it *before*
    // trusting the length prefix, so a flipped length bit is an immediate
    // typed rejection instead of a desynchronized stream stuck mid-read on
    // a phantom payload.
    let head = crc32_update(!0, &buf[..40]);
    buf[44..48].copy_from_slice(&(!head).to_le_bytes());
    for (b, v) in buf[HEADER_LEN..].chunks_exact_mut(8).zip(payload) {
        b.copy_from_slice(&v.to_le_bytes());
    }
    // Frame CRC over everything (header-CRC bytes included, its own field
    // still zero) — payload integrity on top of the header's self-check.
    let crc = !crc32_update(head, &buf[40..]);
    buf[40..44].copy_from_slice(&crc.to_le_bytes());
}

fn encode_frame(kind: u8, src: usize, incarnation: u32, wire: u64, epoch: u64, seq: u64, payload: &[f64]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_into(&mut buf, kind, src, incarnation, wire, epoch, seq, payload);
    buf
}

/// The fixed 48-byte frame header, decoded and integrity-checked.
struct Header {
    /// Payload length in f64 words (already under [`MAX_PAYLOAD_WORDS`]).
    words: usize,
    kind: u8,
    src: u32,
    incarnation: u32,
    wire: u64,
    epoch: u64,
    seq: u64,
    /// The frame CRC as stamped (bytes 40..44).
    crc: u32,
    /// Running CRC state over the 48 header bytes (frame-CRC field taken as
    /// zero): [`Header::check_body`] carries it on over the payload.
    state: u32,
}

fn le32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

fn le64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

impl Header {
    /// Decode a raw header. The header carries its own CRC (bytes 44..48,
    /// over bytes 0..40), checked *before* the length prefix is believed —
    /// a single flipped length bit would otherwise wedge the reader
    /// mid-frame on a phantom payload — then the length cap, then the
    /// fields.
    fn decode(raw: &[u8; HEADER_LEN]) -> Result<Header, FrameErr> {
        let head = crc32_update(!0, &raw[..40]);
        if !head != le32(raw, 44) {
            return Err(FrameErr::Crc);
        }
        let words = le32(raw, 0);
        if words > MAX_PAYLOAD_WORDS {
            return Err(FrameErr::Oversize);
        }
        Ok(Header {
            words: words as usize,
            kind: raw[4],
            src: le32(raw, 8),
            incarnation: le32(raw, 12),
            wire: le64(raw, 16),
            epoch: le64(raw, 24),
            seq: le64(raw, 32),
            crc: le32(raw, 40),
            state: crc32_update(crc32_update(head, &[0; 4]), &raw[44..48]),
        })
    }

    /// The frame CRC: over the whole frame — header-CRC bytes included, its
    /// own field zeroed — so payload integrity on top of the header's
    /// self-check. One pass over `body`; the header is not walked again.
    fn check_body(&self, body: &[u8]) -> Result<(), FrameErr> {
        if !crc32_update(self.state, body) != self.crc {
            return Err(FrameErr::Crc);
        }
        Ok(())
    }
}

/// Payload bytes back to f64 words, collected straight into the container
/// that is delivered (one allocation, one pass — the iterator's length is
/// exact).
fn decode_words<C: FromIterator<f64>>(body: &[u8]) -> C {
    body.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

/// Why a frame failed to arrive: an I/O condition (EOF, reset), a CRC
/// mismatch (injected or real corruption), or an oversize length prefix.
/// The two integrity variants are *typed rejections* — the reader counts
/// them and strikes the peer instead of silently tearing down.
enum FrameErr {
    Io,
    Crc,
    Oversize,
}

impl From<io::Error> for FrameErr {
    fn from(_: io::Error) -> FrameErr {
        FrameErr::Io
    }
}

/// `read_exact` that survives the read-timeout polls used for shutdown
/// checks: a timeout mid-frame keeps filling the same buffer, so the
/// stream never desynchronizes. Returns `Ok(false)` on a clean shutdown
/// observed before any byte of the buffer arrived.
fn read_full(shared: &Shared, stream: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
                if shared.done() && filled == 0 {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// One fabric frame off the wire.
struct Frame {
    head: Header,
    payload: Arc<[f64]>,
}

/// Furthest a reader grows its payload buffer ahead of the bytes that have
/// arrived: a well-stamped header may promise 2 GiB, and memory must track
/// what the wire delivers, not what a header claims.
const BODY_STEP: usize = 1 << 20;

/// Receive a `need`-byte payload into the front of `body` through `fill`,
/// whose `Ok(false)` — shut down before a byte came — is passed on. `body`
/// only ever grows (a shorter payload uses its front), so a reused buffer
/// has no byte zero-filled twice.
fn read_body(body: &mut Vec<u8>, need: usize, mut fill: impl FnMut(&mut [u8]) -> io::Result<bool>) -> io::Result<bool> {
    let mut filled = 0;
    while filled < need {
        let upto = need.min(filled + BODY_STEP);
        if body.len() < upto {
            body.resize(upto, 0);
        }
        if !fill(&mut body[filled..upto])? {
            return Ok(false);
        }
        filled = upto;
    }
    Ok(true)
}

/// Read one frame; `body` is the connection's reused payload buffer.
fn read_frame(shared: &Shared, stream: &mut impl Read, body: &mut Vec<u8>) -> Result<Option<Frame>, FrameErr> {
    let mut raw = [0u8; HEADER_LEN];
    if !read_full(shared, stream, &mut raw)? {
        return Ok(None);
    }
    let head = Header::decode(&raw)?;
    if !read_body(body, 8 * head.words, |b| read_full(shared, stream, b))? {
        return Ok(None);
    }
    let body = &body[..8 * head.words];
    head.check_body(body)?;
    let payload = decode_words(body);
    Ok(Some(Frame { head, payload }))
}

/// Validate a 48-byte payloadless control frame (HELLO_ACK / ACK)
/// and return its `(kind, seq)`. `None` = corrupt or not a control frame.
fn parse_control(raw: &[u8; HEADER_LEN]) -> Option<(u8, u64)> {
    let head = Header::decode(raw).ok().filter(|h| h.words == 0 && h.check_body(&[]).is_ok())?;
    Some((head.kind, head.seq))
}

/// `read_exact` against a wall-clock deadline over a stream whose read
/// timeout is short: used for the HELLO_ACK leg of the resume handshake.
/// `on_wait` runs at each read timeout.
fn read_exact_deadline(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant, mut on_wait: impl FnMut()) -> bool {
    let mut filled = 0;
    while filled < buf.len() {
        if Instant::now() >= deadline {
            return false;
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => on_wait(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

// --- job frames (serving layer) ---------------------------------------------

/// Job-stream framing for the persistent solver service.
///
/// The serving layer (`crates/serve`) reuses the transport's 48-byte frame
/// header verbatim — CRC32 included — with the fields re-purposed for job
/// routing:
///
/// ```text
/// header field        job-frame meaning
/// kind                SUBMIT / ACCEPT / RESULT / REJECT / CKPT
/// source rank         tenant id
/// source incarnation  unused (0)
/// wire key            job id (SUBMIT: client-chosen idempotency id)
/// sender epoch        request sequence number (echoed in replies)
/// sequence            unused (0)
/// payload             f64 words, grammar per kind (see crates/serve)
/// ```
///
/// Job frames travel on their own client↔daemon and daemon↔worker
/// connections — never on the rank fabric — so they need a plain blocking
/// reader rather than the fabric's shutdown-polling [`read_full`].
pub mod jobs {
    use super::{decode_words, encode_frame, read_body, FrameErr, Header, HEADER_LEN};
    use std::io::{self, Read, Write};
    use std::net::TcpStream;

    /// Submit a job (client → daemon) or assign one (daemon → worker).
    pub const KIND_SUBMIT: u8 = 4;
    /// Admission acknowledgement carrying the allocated job id; also the
    /// worker → daemon registration frame (job field = pool slot).
    pub const KIND_ACCEPT: u8 = 5;
    /// Completed-job payload (worker → daemon → client).
    pub const KIND_RESULT: u8 = 6;
    /// Typed rejection: backpressure, quota, malformed spec, or a job that
    /// failed beyond the code distance. Payload starts with a reason code.
    pub const KIND_REJECT: u8 = 7;
    /// Checkpoint upload (worker → daemon): one rank's serialized
    /// `FtCheckpoint` image at a scope boundary.
    pub const KIND_CKPT: u8 = 8;

    /// One frame of the job stream.
    #[derive(Debug, Clone, PartialEq)]
    pub struct JobFrame {
        /// One of the `KIND_*` constants above.
        pub kind: u8,
        /// Tenant id (rides the header's source-rank field).
        pub tenant: u32,
        /// Job id (rides the header's wire-key field).
        pub job: u64,
        /// Request sequence number (rides the header's epoch field);
        /// replies echo the sequence of the request they answer.
        pub seq: u64,
        /// Frame body, grammar per kind.
        pub payload: Vec<f64>,
    }

    /// Serialize and send one job frame.
    pub fn write_job_frame(stream: &mut TcpStream, frame: &JobFrame) -> io::Result<()> {
        debug_assert!((KIND_SUBMIT..=KIND_CKPT).contains(&frame.kind), "frame kind {} is not a job kind", frame.kind);
        let buf = encode_frame(frame.kind, frame.tenant as usize, 0, frame.job, frame.seq, 0, &frame.payload);
        stream.write_all(&buf)?;
        stream.flush()
    }

    /// Blocking read of one job frame. Errors on EOF, a malformed header,
    /// a CRC mismatch, or a kind outside the job range (a fabric frame
    /// straying onto a job connection is a protocol violation, not data).
    pub fn read_job_frame(stream: &mut impl Read) -> io::Result<JobFrame> {
        let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let mut raw = [0u8; HEADER_LEN];
        stream.read_exact(&mut raw)?;
        let head = Header::decode(&raw).map_err(|e| match e {
            FrameErr::Oversize => invalid("job frame length out of range".into()),
            _ => invalid("job frame header failed its CRC".into()),
        })?;
        if !(KIND_SUBMIT..=KIND_CKPT).contains(&head.kind) {
            return Err(invalid(format!("frame kind {} is not a job frame", head.kind)));
        }
        let mut body = Vec::new();
        read_body(&mut body, 8 * head.words, |b| stream.read_exact(b).map(|()| true))?;
        head.check_body(&body).map_err(|_| invalid("job frame failed its CRC".into()))?;
        Ok(JobFrame {
            kind: head.kind,
            tenant: head.src,
            job: head.wire,
            seq: head.epoch,
            payload: decode_words(&body),
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::net::TcpListener;

        #[test]
        fn job_frames_round_trip_over_a_socket() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let sent = JobFrame {
                kind: KIND_SUBMIT,
                tenant: 42,
                job: 7,
                seq: 3,
                payload: vec![1.0, -2.5, std::f64::consts::PI],
            };
            let tx = sent.clone();
            let writer = std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                write_job_frame(&mut s, &tx).unwrap();
                // Empty payloads are legal (pure control frames).
                write_job_frame(
                    &mut s,
                    &JobFrame {
                        kind: KIND_ACCEPT,
                        tenant: 0,
                        job: 9,
                        seq: 4,
                        payload: vec![],
                    },
                )
                .unwrap();
            });
            let (mut s, _) = listener.accept().unwrap();
            let got = read_job_frame(&mut s).unwrap();
            assert_eq!(got, sent);
            let ctl = read_job_frame(&mut s).unwrap();
            assert_eq!((ctl.kind, ctl.job, ctl.seq, ctl.payload.len()), (KIND_ACCEPT, 9, 4, 0));
            writer.join().unwrap();
        }

        #[test]
        fn fabric_kinds_are_rejected_on_job_connections() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let writer = std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                // A DATA frame (kind 2) must not parse as a job frame.
                let buf = crate::tcp::encode_frame(super::super::KIND_DATA, 1, 0, 5, 0, 0, &[1.0]);
                use std::io::Write;
                s.write_all(&buf).unwrap();
            });
            let (mut s, _) = listener.accept().unwrap();
            let err = read_job_frame(&mut s).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            writer.join().unwrap();
        }

        #[test]
        fn corrupted_job_frames_fail_their_crc() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let writer = std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                let mut buf = encode_frame(KIND_RESULT, 1, 0, 5, 2, 0, &[1.0, 2.0]);
                let last = buf.len() - 1;
                buf[last] ^= 0x10; // flip one payload bit after the CRC stamp
                use std::io::Write;
                s.write_all(&buf).unwrap();
            });
            let (mut s, _) = listener.accept().unwrap();
            let err = read_job_frame(&mut s).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            writer.join().unwrap();
        }
    }
}

// --- threads ----------------------------------------------------------------

/// Admit inbound connections, blocked in `accept`: a peer's connect is
/// picked up when it lands, with no timer between it and its HELLO_ACK. The
/// loop ends on the first connection after shutdown — the one teardown makes
/// to this listener for that purpose.
fn accept_loop(shared: Arc<Shared>, listener: TcpListener, inbox: Sender<Msg>) {
    for stream in listener.incoming() {
        if shared.done() {
            return;
        }
        match stream {
            Ok(stream) => {
                let (shared, inbox) = (Arc::clone(&shared), inbox.clone());
                // Handshake + reads happen off the accept thread so one
                // slow peer cannot block admission of the others.
                std::thread::spawn(move || reader_loop(shared, stream, inbox));
            }
            // A failing `accept` (out of descriptors, say) must not spin.
            Err(_) => std::thread::sleep(RETRY_FIRST),
        }
    }
}

/// Queue a 48-byte control frame on the receiver's reverse path. Bounded:
/// when the pending buffer is full the frame is skipped — ACKs are
/// cumulative, so a later one covers it.
fn push_ctl(shared: &Shared, st: &PeerState, pending: &mut Vec<u8>, kind: u8, seq: u64) {
    if pending.len() + HEADER_LEN > ACK_PUMP_CAP {
        return;
    }
    pending.extend_from_slice(&encode_frame(kind, shared.rank, shared.incarnation, 0, 0, seq, &[]));
    st.counters.frames_tx.fetch_add(1, Ordering::Relaxed);
    st.counters.bytes_tx.fetch_add(HEADER_LEN as u64, Ordering::Relaxed);
}

/// Flush as much of the pending reverse-path buffer as the socket will
/// take without blocking (the stream has a 1 ms write timeout). Partial
/// writes are preserved. `false` = the connection is broken.
fn pump_acks(stream: &mut TcpStream, pending: &mut Vec<u8>) -> bool {
    while !pending.is_empty() {
        match stream.write(pending) {
            Ok(0) => return false,
            Ok(n) => {
                pending.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

fn reader_loop(shared: Arc<Shared>, stream: TcpStream, inbox: Sender<Msg>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // Buffered so a header and a small payload (or a burst of small frames)
    // cost one `read`; large payloads bypass the buffer.
    let mut stream = BufReader::with_capacity(16 << 10, stream);
    let mut body = Vec::new();
    // The connection opens with the peer's HELLO.
    let hello = match read_frame(&shared, &mut stream, &mut body) {
        Ok(Some(Frame { head, .. })) if head.kind == KIND_HELLO && (head.src as usize) < shared.peers.len() => head,
        _ => return,
    };
    let src = hello.src as usize;
    let st = &shared.peers[src];
    // A stale incarnation must not resurrect a rank its replacement owns.
    if hello.incarnation < st.incarnation.load(Ordering::Acquire) {
        return;
    }
    if hello.incarnation > st.incarnation.load(Ordering::Acquire) {
        // A fresh incarnation re-opens a slot its predecessor vacated,
        // with a clean slate: sequence space, strikes, and suspicion all
        // belonged to the dead process, not its replacement.
        st.departed.store(false, Ordering::Release);
        st.faulted.store(false, Ordering::Release);
        st.strikes.store(0, Ordering::Release);
        st.suspected.store(false, Ordering::Release);
        *st.recv_next.lock().unwrap_or_else(PoisonError::into_inner) = 1;
    }
    st.incarnation.store(hello.incarnation, Ordering::Release);
    let my_gen = st.conn_gen.fetch_add(1, Ordering::AcqRel) + 1;
    st.inbound_alive.store(true, Ordering::Release);
    shared.touch(src);
    st.counters.frames_rx.fetch_add(1, Ordering::Relaxed);
    st.counters.bytes_rx.fetch_add(HEADER_LEN as u64, Ordering::Relaxed);

    // Session resume: announce the highest sequence delivered so far so
    // the sender can prune its window and replay only what was lost. The
    // write is blocking (the socket is fresh, the frame is 48 bytes).
    let delivered = *st.recv_next.lock().unwrap_or_else(PoisonError::into_inner) - 1;
    let hello_ack = encode_frame(KIND_HELLO_ACK, shared.rank, shared.incarnation, 0, 0, delivered, &[]);
    if stream.get_mut().write_all(&hello_ack).is_err() {
        if st.conn_gen.load(Ordering::Acquire) == my_gen {
            st.inbound_alive.store(false, Ordering::Release);
        }
        return;
    }
    st.counters.frames_tx.fetch_add(1, Ordering::Relaxed);
    st.counters.bytes_tx.fetch_add(HEADER_LEN as u64, Ordering::Relaxed);
    // From here the reverse path must never block the forward one.
    let _ = stream.get_ref().set_write_timeout(Some(Duration::from_millis(1)));
    let mut pending: Vec<u8> = Vec::new();

    while !shared.done() {
        match read_frame(&shared, &mut stream, &mut body) {
            // Typed frame rejection: an oversize length prefix, or DATA
            // outside the sequence space (no sender emits it; delivered, it
            // would bypass dedup and ordering). Repeated offenses escalate
            // to a clean peer-fault.
            Ok(Some(Frame { head: Header { kind: KIND_DATA, seq: 0, .. }, .. })) | Err(FrameErr::Oversize) => {
                st.counters.frame_rejects.fetch_add(1, Ordering::Relaxed);
                strike(st);
                break;
            }
            Ok(Some(Frame { head: f, payload })) => {
                shared.touch(src);
                st.counters.frames_rx.fetch_add(1, Ordering::Relaxed);
                st.counters
                    .bytes_rx
                    .fetch_add((HEADER_LEN + 8 * payload.len()) as u64, Ordering::Relaxed);
                st.strikes.store(0, Ordering::Release);
                if f.incarnation > st.incarnation.load(Ordering::Acquire) {
                    st.incarnation.store(f.incarnation, Ordering::Release);
                }
                match f.kind {
                    KIND_DATA => {
                        let mut expected = st.recv_next.lock().unwrap_or_else(PoisonError::into_inner);
                        if f.seq < *expected {
                            // Replay overlap or injected duplicate.
                            st.counters.dup_suppressed.fetch_add(1, Ordering::Relaxed);
                            push_ctl(&shared, st, &mut pending, KIND_ACK, *expected - 1);
                        } else if f.seq > *expected {
                            // Gap: a frame was lost on the way, which is no
                            // protocol violation (no strike). Close; the
                            // sender's resume replays from `expected`.
                            break;
                        } else {
                            let msg = Msg { src, wire: f.wire, epoch: f.epoch, payload };
                            if inbox.send(msg).is_err() {
                                break;
                            }
                            *expected += 1;
                            push_ctl(&shared, st, &mut pending, KIND_ACK, f.seq);
                        }
                    }
                    KIND_GOODBYE => st.departed.store(true, Ordering::Release),
                    _ => {}
                }
                if !pump_acks(stream.get_mut(), &mut pending) {
                    break;
                }
            }
            Ok(None) => break, // shutdown
            Err(FrameErr::Crc) => {
                // Typed corruption rejection: count it, strike the peer,
                // and drop the connection — once framing is suspect the
                // only safe resync is a fresh stream, whose session
                // resume replays everything lost.
                st.counters.crc_rejects.fetch_add(1, Ordering::Relaxed);
                strike(st);
                break;
            }
            Err(FrameErr::Io) => break, // EOF or hard error: peer gone
        }
    }
    // Only the *current* connection's reader may declare the peer down.
    if st.conn_gen.load(Ordering::Acquire) == my_gen {
        st.inbound_alive.store(false, Ordering::Release);
    }
}

/// Deterministic xorshift jitter in `[0.5, 1.5)` of `base`.
fn jittered(base: Duration, state: &mut u64) -> Duration {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    let frac = (*state >> 11) as f64 / (1u64 << 53) as f64;
    base.mul_f64(0.5 + frac)
}

/// What it takes to (re)connect a link; only the link thread dials.
struct Dialer {
    addr: SocketAddr,
    conn_timeout: Duration,
    jitter: u64,
    ever_connected: bool,
}

impl Dialer {
    fn establish(&mut self, shared: &Shared, dst: usize, next_beat: &mut Instant) -> Option<TcpStream> {
        let deadline = Instant::now() + self.conn_timeout;
        let mut backoff = BACKOFF_INIT;
        let mut attempt = 0u64;
        loop {
            shared.beat(dst, next_beat);
            // During teardown the budget shrinks to two quick attempts: a
            // frame sent before close still deserves its flush even to a
            // peer this link never connected to (its ARRIVE/GOODBYE may be
            // the one frame that lets a waiter finish), but a gone peer —
            // localhost refuses instantly — must not wedge the joining
            // dropper.
            if shared.done() && attempt >= 2 {
                return None;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            attempt += 1;
            let c = &shared.peers[dst].counters;
            if attempt > 1 {
                c.retries.fetch_add(1, Ordering::Relaxed);
            }
            let per_attempt = remaining.min(Duration::from_millis(250));
            if let Ok(mut stream) = TcpStream::connect_timeout(&self.addr, per_attempt) {
                let _ = stream.set_nodelay(true);
                let hello = encode_frame(KIND_HELLO, shared.rank, shared.incarnation, 0, 0, 0, &[]);
                if stream.write_all(&hello).is_ok() {
                    c.frames_tx.fetch_add(1, Ordering::Relaxed);
                    c.bytes_tx.fetch_add(hello.len() as u64, Ordering::Relaxed);
                    if self.ever_connected {
                        c.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    self.ever_connected = true;
                    return Some(stream);
                }
            }
            // The first retry comes almost at once; from the second on, the
            // jittered doubling.
            let pause = if attempt == 1 {
                RETRY_FIRST
            } else {
                let p = jittered(backoff, &mut self.jitter);
                backoff = (backoff * 2).min(BACKOFF_CAP);
                p
            };
            std::thread::sleep(pause.min(deadline.saturating_duration_since(Instant::now())));
        }
    }

    /// Open a session: connect, HELLO, and read back the HELLO_ACK's
    /// delivered-sequence announcement. Runs with the link unlocked — it
    /// can take the whole connect budget, so it keeps the link's beat.
    fn dial(&mut self, shared: &Shared, dst: usize, next_beat: &mut Instant) -> Option<(TcpStream, u64)> {
        let mut stream = self.establish(shared, dst, next_beat)?;
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let mut hdr = [0u8; HEADER_LEN];
        let deadline = Instant::now() + Duration::from_secs(2);
        if !read_exact_deadline(&mut stream, &mut hdr, deadline, || {
            shared.beat(dst, next_beat);
        }) {
            return None;
        }
        match parse_control(&hdr) {
            Some((KIND_HELLO_ACK, delivered)) => Some((stream, delivered)),
            _ => None,
        }
    }
}

/// Write all of `buf` on a non-blocking stream. The usual case is one
/// `write` that takes everything; when the socket buffer is full the rest
/// goes out blocking, each wait bounded by the stream's [`WRITE_TIMEOUT`].
fn write_whole(stream: &mut TcpStream, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                stream.set_nonblocking(false)?;
                let rest = stream.write_all(buf);
                stream.set_nonblocking(true)?;
                return rest;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One frame of the sender's in-flight window: the decoded message parts
/// are kept (not the encoded bytes) so replays can re-stamp a renumbered
/// sequence after a session resume against a fresh receiver.
struct WinEntry {
    seq: u64,
    sent_at: Instant,
    wire: u64,
    epoch: u64,
    payload: Arc<[f64]>,
}

/// Per-`(src → dst)` sender state, shared under one mutex by the sending
/// rank ([`Link::send`]) and the peer's link thread ([`link_loop`]): the
/// stream, the window of unACKed frames, and the reverse-path parse buffer.
#[derive(Default)]
struct Link {
    dst: usize,
    /// Non-blocking once the session is up (see [`write_whole`]).
    stream: Option<TcpStream>,
    /// Next sequence number to assign (starts at 1; 0 = unsequenced).
    next_seq: u64,
    /// Highest sequence that has had its first transmission: written by the
    /// rank, or run through the injection draw by the link thread (faults
    /// fire on first transmission only, never on a resume's replay).
    /// Window entries above it are *unsent*; first transmissions
    /// go strictly in sequence order.
    sent_up_to: u64,
    /// Every frame not yet ACKed, sent or not: consecutive sequences.
    window: VecDeque<WinEntry>,
    /// Landing buffer of the reverse path (the ACK stream), sized once; its
    /// first `ack_len` bytes are received and not yet parsed.
    ackbuf: Vec<u8>,
    ack_len: usize,
    /// Sequences held back by an injected reorder, flushed after the next
    /// first transmission so they hit the wire out of order.
    held_back: Vec<u64>,
    /// Reused frame-encoding buffer.
    txbuf: Vec<u8>,
    /// Set by teardown: `Some(announce a GOODBYE?)`.
    leaving: Option<bool>,
}

impl Link {
    fn drop_stream(&mut self) {
        self.stream = None;
        self.ack_len = 0;
    }

    fn blackholed(&self, shared: &Shared) -> bool {
        shared.faults.blackholed(shared.rank, self.dst, shared.now_ms())
    }

    /// The sequence whose first transmission may go out now, if any: the
    /// stream is up, an entry is unsent, the in-flight window has room, and
    /// the link is not partitioned.
    fn next_unsent(&self, shared: &Shared) -> Option<u64> {
        let seq = self.sent_up_to + 1;
        let room = seq < self.window.front()?.seq + NET_WINDOW as u64;
        (self.stream.is_some() && seq < self.next_seq && room && !self.blackholed(shared)).then_some(seq)
    }

    /// The calling rank's half of a send: sequence `m` into the window,
    /// drain the reverse path, and — when the link is clean (this is the
    /// next unsent sequence and may go out, nothing reorder-held, no fault
    /// scripted for it) — write the frame right here.
    /// `false` = the frame waits for the link thread; kick it.
    fn send(&mut self, shared: &Shared, m: Msg) -> bool {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.window.push_back(WinEntry {
            seq,
            sent_at: Instant::now(),
            wire: m.wire,
            epoch: m.epoch,
            payload: m.payload,
        });
        self.drain_control();
        let clean = self.next_unsent(shared) == Some(seq)
            && self.held_back.is_empty()
            && shared.faults.decide(shared.rank, self.dst, seq).is_none();
        if !clean {
            return false;
        }
        self.sent_up_to = seq;
        self.write_entry(shared, seq, None, false)
    }

    /// A fresh session is up (the receiver delivered everything through
    /// `delivered`): prune the window up to it, renumber if the receiver's
    /// state is behind the window (a respawned receiver lost it), and
    /// replay what had been sent. Unsent entries keep waiting for their
    /// first transmission (and its injection draw).
    fn resume(&mut self, shared: &Shared, stream: TcpStream, delivered: u64, was_connected: bool) {
        self.ack_len = 0;
        self.held_back.clear();
        while self.window.front().is_some_and(|e| e.seq <= delivered) {
            self.window.pop_front();
        }
        let sent = self.window.iter().take_while(|e| e.seq <= self.sent_up_to).count() as u64;
        match self.window.front().map(|e| e.seq) {
            // Everything in flight is delivered (or there was nothing):
            // continue exactly after the receiver's cursor. Handles a
            // respawned receiver (delivered = 0) without wedging.
            None => self.next_seq = delivered + 1,
            // The receiver lost state beyond our window (fresh
            // incarnation): renumber the survivors consecutively so the
            // stream stays gap-free.
            Some(first) if first > delivered + 1 => {
                let mut s = delivered + 1;
                for e in self.window.iter_mut() {
                    e.seq = s;
                    s += 1;
                }
                self.next_seq = s;
            }
            Some(_) => {}
        }
        self.sent_up_to = delivered + sent;
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        self.stream = Some(stream);
        let c = &shared.peers[self.dst].counters;
        if was_connected {
            c.resumes.fetch_add(1, Ordering::Relaxed);
        }
        c.retransmits.fetch_add(sent, Ordering::Relaxed);
        for s in delivered + 1..=delivered + sent {
            if !self.write_entry(shared, s, None, false) {
                return;
            }
        }
    }

    /// Write the reused encode buffer (`times` copies) and count it;
    /// `false` = the write failed or timed out and the stream is dropped —
    /// a partial frame is never followed by another on the same stream.
    fn write_txbuf(&mut self, shared: &Shared, times: usize) -> bool {
        let c = &shared.peers[self.dst].counters;
        for _ in 0..times {
            let wrote = self.stream.as_mut().is_some_and(|s| write_whole(s, &self.txbuf).is_ok());
            if !wrote {
                self.drop_stream();
                return false;
            }
            c.frames_tx.fetch_add(1, Ordering::Relaxed);
            c.bytes_tx.fetch_add(self.txbuf.len() as u64, Ordering::Relaxed);
        }
        true
    }

    /// Encode and write the window entry holding `seq`. `corrupt` flips
    /// one bit *after* the CRC stamp (the window keeps the clean parts);
    /// `dup` writes the frame twice. `true` = the stream survived (or the
    /// entry was already pruned).
    fn write_entry(&mut self, shared: &Shared, seq: u64, corrupt: Option<u64>, dup: bool) -> bool {
        let first = self.window.front().map_or(u64::MAX, |e| e.seq);
        let Some(e) = seq.checked_sub(first).and_then(|i| self.window.get_mut(i as usize)) else {
            return true; // ACKed while held back: nothing to do
        };
        e.sent_at = Instant::now();
        encode_into(&mut self.txbuf, KIND_DATA, shared.rank, shared.incarnation, e.wire, e.epoch, seq, &e.payload);
        if let Some(bit) = corrupt {
            let i = (bit % (self.txbuf.len() as u64 * 8)) as usize;
            self.txbuf[i / 8] ^= 1 << (i % 8);
        }
        self.write_txbuf(shared, if dup { 2 } else { 1 })
    }

    /// First transmission of `seq` with its injection draw `fault` (link
    /// thread only; a `Delay` has already been slept, unlocked).
    fn transmit_first(&mut self, shared: &Shared, seq: u64, fault: Option<NetFault>) {
        self.sent_up_to = seq;
        let mut corrupt = None;
        match fault {
            None | Some(NetFault::Delay(_) | NetFault::Dup) => {}
            Some(NetFault::Drop) => return, // the window will heal it
            Some(NetFault::Corrupt) => corrupt = Some(shared.faults.corrupt_bit(shared.rank, self.dst, seq)),
            Some(NetFault::Reset) => {
                self.drop_stream(); // mid-stream RST; resume replays
                return;
            }
            Some(NetFault::Reorder) => {
                self.held_back.push(seq);
                return; // hits the wire after the next frame
            }
        }
        if self.write_entry(shared, seq, corrupt, fault == Some(NetFault::Dup)) {
            // Reorder-held frames go out now that a later one has.
            for h in std::mem::take(&mut self.held_back) {
                if !self.write_entry(shared, h, None, false) {
                    return;
                }
            }
        }
    }

    /// Drain the reverse path without blocking: prune the window on
    /// cumulative ACKs. Anything else on the control channel is garbage and
    /// drops the stream (resync by resume).
    fn drain_control(&mut self) {
        self.ackbuf.resize(HEADER_LEN * 32, 0); // sized at the first call, a no-op after
        loop {
            let Some(s) = &mut self.stream else { return };
            // Whole frames leave the buffer below, so there is always room.
            let room = self.ackbuf.len() - self.ack_len;
            let n = match s.read(&mut self.ackbuf[self.ack_len..]) {
                Ok(n) if n > 0 => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                _ => return self.drop_stream(),
            };
            self.ack_len += n;
            let whole = self.ack_len - self.ack_len % HEADER_LEN;
            for chunk in self.ackbuf[..whole].chunks_exact(HEADER_LEN) {
                let Some((KIND_ACK, seq)) = parse_control(chunk.try_into().expect("sized")) else {
                    return self.drop_stream();
                };
                // Only what was sent can have been delivered.
                while self.window.front().is_some_and(|e| e.seq <= seq.min(self.sent_up_to)) {
                    self.window.pop_front();
                }
            }
            self.ackbuf.copy_within(whole..self.ack_len, 0);
            self.ack_len -= whole;
            if n < room {
                return;
            }
        }
    }

    /// Tick maintenance: let the window go when the peer announced a clean
    /// departure, and drop the stream when its head has gone stale — a
    /// dropped frame with no later traffic to expose the gap, or a receiver
    /// stuck mid-frame; the caller redials and the resume replays the window
    /// on a stream the receiver parses from byte zero.
    fn service(&mut self, shared: &Shared) {
        if shared.peers[self.dst].departed.load(Ordering::Acquire) {
            self.window.clear();
            self.held_back.clear();
            self.sent_up_to = self.next_seq - 1;
            return;
        }
        let Some(head) = self.window.front() else { return };
        if self.stream.is_none() || head.seq > self.sent_up_to {
            return; // the reconnect / the first transmission comes first
        }
        let stale = (shared.hb_interval * 2).max(Duration::from_millis(200));
        if head.sent_at.elapsed() > stale {
            self.drop_stream();
        }
    }

    /// Heartbeats and GOODBYEs travel outside the sequence space: best
    /// effort on the stream that is up, dropped under partition.
    fn send_unsequenced(&mut self, shared: &Shared, kind: u8) {
        if self.stream.is_some() && !self.blackholed(shared) {
            encode_into(&mut self.txbuf, kind, shared.rank, shared.incarnation, 0, 0, 0, &[]);
            self.write_txbuf(shared, 1);
        }
    }
}

/// The per-peer link thread: everything about a link that needs a clock or
/// a retry. It wakes on the beat timer or a kick from [`TcpTransport::send`]
/// — never per frame or per ACK. After teardown it keeps passing until the
/// window has drained: a rank leaves a barrier as soon as it has *heard*
/// everyone, so its own final ARRIVE may still be unACKed, and abandoning
/// it turns one injected drop into a permanent protocol hole (a clean
/// GOODBYE exit is never declared dead and never retransmits). The drain
/// is bounded — a dead peer must not wedge teardown.
fn link_loop(shared: Arc<Shared>, cell: Arc<Mutex<Link>>, mut dialer: Dialer) {
    let lock = || cell.lock().unwrap_or_else(PoisonError::into_inner);
    let mut link = lock();
    let dst = link.dst;
    let mut next_beat = Instant::now() + shared.hb_interval;
    let mut drain_until: Option<Instant> = None;
    loop {
        link.drain_control();
        let beat = shared.beat(dst, &mut next_beat);
        if link.stream.is_none() && (beat || !link.window.is_empty() || link.leaving == Some(true)) && !link.blackholed(&shared) {
            let was_connected = dialer.ever_connected;
            drop(link);
            let session = dialer.dial(&shared, dst, &mut next_beat);
            link = lock();
            if let Some((stream, delivered)) = session {
                link.resume(&shared, stream, delivered, was_connected);
            }
        }
        let had_stream = link.stream.is_some();
        // The first transmissions `send` left behind, faults included.
        while let Some(seq) = link.next_unsent(&shared) {
            let fault = shared.faults.decide(shared.rank, dst, seq);
            if let Some(NetFault::Delay(ms)) = fault {
                // Head-of-line stall: the frames behind it stay unsent.
                drop(link);
                std::thread::sleep(Duration::from_millis(ms.min(10_000)));
                link = lock();
            }
            link.transmit_first(&shared, seq, fault);
        }
        link.service(&shared);
        if beat {
            link.send_unsequenced(&shared, KIND_HEARTBEAT);
        }
        if let (Some(goodbye), None) = (link.leaving, drain_until) {
            if goodbye {
                link.send_unsequenced(&shared, KIND_GOODBYE);
            }
            drain_until = Some(Instant::now() + (shared.hb_interval * 20).max(Duration::from_secs(2)));
        }
        let departed = shared.peers[dst].departed.load(Ordering::Acquire);
        if drain_until.is_some_and(|t| link.window.is_empty() || departed || Instant::now() >= t) {
            return;
        }
        if had_stream && link.stream.is_none() {
            continue; // lost the stream this pass: redial now, not a beat later
        }
        drop(link);
        match drain_until {
            Some(_) => std::thread::sleep(Duration::from_millis(1)),
            None => std::thread::park_timeout(next_beat.saturating_duration_since(Instant::now())),
        }
        link = lock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::{crc32, crc32_bitwise};
    use crate::transport::POLL_BUDGET;

    fn msg(src: usize, wire: u64, vals: &[f64]) -> Msg {
        Msg { src, wire, epoch: 0, payload: Arc::from(vals) }
    }

    /// A `Shared` without peers: all the frame readers need over a byte slice.
    fn lone_shared() -> Shared {
        Shared {
            rank: 0,
            incarnation: 0,
            start: Instant::now(),
            hb_interval: Duration::from_millis(100),
            hb_miss_limit: 30,
            grace_beats: 4,
            faults: FaultScript::none(),
            shutdown: AtomicBool::new(false),
            peers: Vec::new(),
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Bytes captured from the byte-at-a-time encoder this one replaced:
    /// the wire format is asserted unchanged, not promised.
    #[test]
    fn encoded_frames_match_the_golden_bytes() {
        let data = encode_frame(KIND_DATA, 3, 2, 0x0102_0304_0506_0708, 9, 77, &[1.5, -0.0, std::f64::consts::PI]);
        #[rustfmt::skip]
        let golden: [u8; 72] = [
            3, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1,
            9, 0, 0, 0, 0, 0, 0, 0, 77, 0, 0, 0, 0, 0, 0, 0, 39, 49, 104, 137, 176, 189, 248, 163,
            0, 0, 0, 0, 0, 0, 248, 63, 0, 0, 0, 0, 0, 0, 0, 128, 24, 45, 68, 84, 251, 33, 9, 64,
        ];
        assert_eq!(data, golden);
        let ack = encode_frame(KIND_ACK, 1, 0, 0, 0, 17, &[]);
        #[rustfmt::skip]
        let golden: [u8; 48] = [
            0, 0, 0, 0, 10, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0, 0, 0, 0, 0, 126, 84, 197, 148, 235, 23, 23, 41,
        ];
        assert_eq!(ack, golden);
        // A reused buffer holds exactly the new frame.
        let mut buf = data;
        encode_into(&mut buf, KIND_ACK, 1, 0, 0, 0, 17, &[]);
        assert_eq!(buf, golden);
    }

    #[test]
    fn frames_carry_seq_and_a_valid_crc() {
        let buf = encode_frame(KIND_DATA, 3, 1, 42, 7, 99, &[1.0, -2.0]);
        assert_eq!(buf.len(), HEADER_LEN + 16);
        assert_eq!(u64::from_le_bytes(buf[32..40].try_into().unwrap()), 99);
        let crc = u32::from_le_bytes(buf[40..44].try_into().unwrap());
        let mut zeroed = buf.clone();
        zeroed[40..44].copy_from_slice(&[0u8; 4]);
        assert_eq!(crc32(&zeroed), crc);
        // Control frames parse and round-trip; any single-bit flip is caught.
        let ack = encode_frame(KIND_ACK, 0, 0, 0, 0, 17, &[]);
        let hdr: [u8; HEADER_LEN] = ack[..].try_into().unwrap();
        assert_eq!(parse_control(&hdr), Some((KIND_ACK, 17)));
        for bit in 0..(HEADER_LEN * 8) {
            let mut bad = hdr;
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(parse_control(&bad), None, "bit {bit} flip went undetected");
        }
    }

    #[test]
    fn config_validation_rejects_inconsistent_liveness_settings() {
        let ok = TcpConfig::new(0, 2);
        assert!(ok.validate().is_ok());
        let mut c = ok.clone();
        c.hb_interval = Duration::ZERO;
        assert!(c.validate().is_err());
        let mut c = ok.clone();
        c.hb_miss_limit = 0;
        assert!(c.validate().is_err());
        let mut c = ok.clone();
        c.hb_grace_beats = 0;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.conn_timeout = Duration::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn tcp_fabric_routes_and_preserves_pairwise_order() {
        let mut eps = TcpTransport::fabric_localhost(3).unwrap();
        let c = eps.remove(2);
        let b = eps.remove(1);
        let a = eps.remove(0);
        assert_eq!(a.world_size(), 3);
        assert_eq!(c.rank(), 2);

        a.send(2, msg(0, 1, &[1.0]));
        a.send(2, msg(0, 1, &[2.0]));
        b.send(2, msg(1, 9, &[3.0]));

        let mut from_a = Vec::new();
        for _ in 0..3 {
            let m = c.recv(Duration::from_secs(10)).expect("message lost");
            if m.src == 0 {
                from_a.push(m.payload[0]);
            } else {
                assert_eq!((m.wire, m.payload[0]), (9, 3.0));
            }
        }
        assert_eq!(from_a, vec![1.0, 2.0], "pairwise order violated");
    }

    #[test]
    fn tcp_payload_roundtrips_bitwise() {
        let mut eps = TcpTransport::fabric_localhost(2).unwrap();
        let b = eps.remove(1);
        let a = eps.remove(0);
        let vals = [1.5e-308, -0.0, f64::MAX, std::f64::consts::PI, -1.0 / 3.0];
        a.send(
            1,
            Msg {
                src: 0,
                wire: 42,
                epoch: 7,
                payload: Arc::from(vals.as_slice()),
            },
        );
        let m = b.recv(Duration::from_secs(10)).unwrap();
        assert_eq!(m.src, 0);
        assert_eq!(m.wire, 42);
        assert_eq!(m.epoch, 7);
        assert_eq!(m.payload.len(), vals.len());
        for (x, y) in m.payload.iter().zip(vals.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "payload not bitwise-identical");
        }
        // Every bit pattern, at sizes on both sides of the CRC's 64-byte
        // switch from the table chain to the fold (the encoder's pass covers
        // 8 + 8·words bytes, the receiver's 8·words) and at the size of a
        // solve's largest frames.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for words in [0, 1, 2, 7, 8, 9, 6144] {
            let sent: Vec<f64> = (0..words)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    f64::from_bits(x)
                })
                .collect();
            a.send(1, msg(0, words as u64, &sent));
            let m = b.recv(Duration::from_secs(10)).unwrap();
            assert_eq!(m.wire, words as u64);
            assert!(m.payload.iter().map(|v| v.to_bits()).eq(sent.iter().map(|v| v.to_bits())), "{words} words");
        }
    }

    #[test]
    fn a_header_promising_the_cap_allocates_only_what_arrives() {
        // A header whose CRC holds and whose length sits on the 2 GiB cap,
        // a few payload bytes, then the end of the stream.
        let mut m = encode_frame(KIND_DATA, 1, 0, 7, 0, 1, &[]);
        m[0..4].copy_from_slice(&MAX_PAYLOAD_WORDS.to_le_bytes());
        let head = crc32(&m[..40]);
        m[44..48].copy_from_slice(&head.to_le_bytes());
        m.extend([0xAB; 100]);
        let mut body = Vec::new();
        assert!(matches!(read_frame(&lone_shared(), &mut &m[..], &mut body), Err(FrameErr::Io)));
        assert!(body.capacity() <= BODY_STEP, "{} bytes allocated for 100 received", body.capacity());
        // The job reader takes the same steps (its buffer is its own).
        m[4] = jobs::KIND_SUBMIT;
        let head = crc32(&m[..40]);
        m[44..48].copy_from_slice(&head.to_le_bytes());
        assert_eq!(jobs::read_job_frame(&mut &m[..]).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn tcp_recv_timeout_is_typed_and_bounded() {
        let mut eps = TcpTransport::fabric_localhost(2).unwrap();
        let _b = eps.remove(1);
        let a = eps.remove(0);
        let t0 = Instant::now();
        let r = a.recv(Duration::from_millis(100));
        assert_eq!(r.err().map(|e| matches!(e, CommError::Timeout)), Some(true));
        assert!(t0.elapsed() < Duration::from_secs(5), "timeout not bounded");
    }

    #[test]
    fn tcp_counts_traffic_per_peer() {
        let mut eps = TcpTransport::fabric_localhost(2).unwrap();
        let b = eps.remove(1);
        let a = eps.remove(0);
        a.send(1, msg(0, 1, &[1.0, 2.0, 3.0]));
        let _ = b.recv(Duration::from_secs(10)).unwrap();
        // The writer bumps its counters just after the write hits the
        // kernel, so the receiver can observe the frame first: poll.
        let t0 = Instant::now();
        loop {
            let s = a.stats();
            if s.peers[1].frames_tx >= 1 && s.peers[1].bytes_tx >= (HEADER_LEN + 24) as u64 {
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(10), "tx traffic not counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        let s = b.stats();
        assert!(s.peers[0].frames_rx >= 1, "rx frame not counted");
        assert_eq!(s.peers[1], PeerCounters::default(), "phantom traffic on silent peer");
    }

    #[test]
    fn tcp_detects_a_dropped_peer() {
        let mut cfgs: Vec<TcpConfig> = (0..2).map(|r| TcpConfig::new(r, 2)).collect();
        for c in &mut cfgs {
            c.hb_interval = Duration::from_millis(20);
            c.hb_miss_limit = 4;
        }
        let listeners: Vec<TcpListener> = (0..2).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let mut eps: Vec<TcpTransport> = cfgs
            .into_iter()
            .zip(listeners)
            .map(|(c, l)| TcpTransport::with_listener(c, addrs.clone(), l).unwrap())
            .collect();
        let b = eps.remove(1);
        let a = eps.remove(0);
        // Traffic both ways so each side has heard from the other.
        a.send(1, msg(0, 1, &[1.0]));
        b.send(0, msg(1, 1, &[2.0]));
        let _ = a.recv(Duration::from_secs(10)).unwrap();
        let _ = b.recv(Duration::from_secs(10)).unwrap();
        assert!(!a.is_peer_dead(1));
        b.drop_abruptly(); // sockets close with no GOODBYE: EOF fast path
        let t0 = Instant::now();
        while !a.is_peer_dead(1) {
            assert!(t0.elapsed() < Duration::from_secs(10), "death never detected");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn tcp_goodbye_separates_departure_from_death() {
        let mut cfgs: Vec<TcpConfig> = (0..2).map(|r| TcpConfig::new(r, 2)).collect();
        for c in &mut cfgs {
            c.hb_interval = Duration::from_millis(20);
            c.hb_miss_limit = 4;
        }
        let listeners: Vec<TcpListener> = (0..2).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let mut eps: Vec<TcpTransport> = cfgs
            .into_iter()
            .zip(listeners)
            .map(|(c, l)| TcpTransport::with_listener(c, addrs.clone(), l).unwrap())
            .collect();
        let b = eps.remove(1);
        let a = eps.remove(0);
        a.send(1, msg(0, 1, &[1.0]));
        b.send(0, msg(1, 1, &[2.0]));
        let _ = a.recv(Duration::from_secs(10)).unwrap();
        let _ = b.recv(Duration::from_secs(10)).unwrap();
        drop(b); // graceful exit: GOODBYE travels over the live stream
                 // Far past both the EOF (grace beats) and silence windows.
        std::thread::sleep(Duration::from_millis(400));
        assert!(!a.is_peer_dead(1), "clean shutdown misread as a death");
    }

    #[test]
    fn tcp_unreachable_peer_never_hangs_sender() {
        // Rank 1's address points at a port nobody listens on: sends must
        // drop after the bounded connect budget, not wedge the caller.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let my_addr = listener.local_addr().unwrap();
        let dead_port = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
            // probe drops here; the port is free and silent
        };
        let mut cfg = TcpConfig::new(0, 2);
        cfg.conn_timeout = Duration::from_millis(200);
        let addrs = vec![my_addr, SocketAddr::from(([127, 0, 0, 1], dead_port))];
        let t = TcpTransport::with_listener(cfg, addrs, listener).unwrap();
        let t0 = Instant::now();
        t.send(1, msg(0, 1, &[1.0])); // must not block
        assert!(t0.elapsed() < Duration::from_secs(1), "send blocked on a dead peer");
        assert_eq!(
            t.recv(Duration::from_millis(100))
                .err()
                .map(|e| matches!(e, CommError::Timeout)),
            Some(true)
        );
        // The sender burned its connect budget in retries.
        let t0 = Instant::now();
        while t.stats().peers[1].retries == 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "no connect retries recorded");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(!t.is_peer_dead(1), "never-seen peer misreported as dead");
        drop(t);

        // A wedged peer: it completes HELLO/HELLO_ACK, then never reads
        // again. `send` writes the frames itself now, so the write timeout
        // is what keeps it from hanging once the socket buffers are full.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let wedged = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![listener.local_addr().unwrap(), wedged.local_addr().unwrap()];
        let t = TcpTransport::with_listener(TcpConfig::new(0, 2), addrs.clone(), listener).unwrap();
        let frame = |i: usize| {
            let mut v = vec![i as f64; (1 << 20) / 8];
            v[(1 << 17) - 1] = -(i as f64);
            msg(0, 7, &v)
        };
        t.send(1, frame(0));
        let (mut held, _) = wedged.accept().unwrap();
        let mut hello = [0u8; HEADER_LEN];
        held.read_exact(&mut hello).unwrap();
        held.write_all(&encode_frame(KIND_HELLO_ACK, 1, 0, 0, 0, 0, &[])).unwrap();
        let link = &t.links[1].as_ref().unwrap().0;
        let t0 = Instant::now();
        while link.lock().unwrap().stream.is_none() {
            assert!(t0.elapsed() < Duration::from_secs(10), "session never came up");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Far more than loopback socket buffers hold; stop at the first
        // write that timed out (the stream is gone).
        let mut n = 1;
        while link.lock().unwrap().stream.is_some() {
            assert!(n < 256, "256 MiB vanished into a peer that never reads");
            let t0 = Instant::now();
            t.send(1, frame(n));
            n += 1;
            assert!(
                t0.elapsed() < WRITE_TIMEOUT + Duration::from_secs(2),
                "send hung on a wedged peer for {:?}",
                t0.elapsed()
            );
        }
        // A partial frame is never followed by another on the same stream:
        // later sends queue behind the dropped stream, and nothing was
        // ACKed, so every frame is still in the window.
        t.send(1, frame(n));
        n += 1;
        {
            let l = link.lock().unwrap();
            assert!(l.stream.is_none(), "a frame followed a partial one on the same stream");
            assert_eq!(l.window.len(), n, "a frame left the window without an ACK");
        }
        // The peer comes back as a real endpoint: the session resume
        // delivers every frame exactly once, in order.
        drop(held);
        let b = TcpTransport::with_listener(TcpConfig::new(1, 2), addrs, wedged).unwrap();
        for i in 0..n {
            let m = b.recv(Duration::from_secs(30)).expect("frame lost to the wedge");
            assert_eq!((m.payload[0], m.payload[(1 << 17) - 1]), (i as f64, -(i as f64)), "out of order after the resume");
        }
        let rx = &b.stats().peers[0];
        assert_eq!((rx.dup_suppressed, rx.crc_rejects), (0, 0), "resume was not exactly-once");
    }

    #[test]
    fn sends_before_and_after_the_connect_arrive_in_sequence() {
        // A burst goes out before the peer answers (all of it waits for the
        // link thread), a second one races the connect (link thread and
        // rank share the work), a third finds the link clean (the rank
        // writes each frame itself): one sequence, nothing sent twice.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let late = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![listener.local_addr().unwrap(), late.local_addr().unwrap()];
        let a = TcpTransport::with_listener(TcpConfig::new(0, 2), addrs.clone(), listener).unwrap();
        let burst = |from: usize| (from..from + 40).for_each(|i| a.send(1, msg(0, 5, &[i as f64])));
        let drain = |b: &TcpTransport, from: usize, to: usize| {
            for i in from..to {
                let m = b.recv(Duration::from_secs(30)).expect("frame lost");
                assert_eq!(m.payload[0], i as f64, "stream reordered");
            }
        };
        burst(0);
        let b = TcpTransport::with_listener(TcpConfig::new(1, 2), addrs, late).unwrap();
        burst(40);
        drain(&b, 0, 80);
        burst(80);
        drain(&b, 80, 120);
        let link = a.links[1].as_ref().unwrap().0.lock().unwrap();
        assert_eq!((link.next_seq, link.sent_up_to), (121, 120), "sequence space has a hole");
        assert_eq!(a.stats().peers[1].retransmits, 0, "a first transmission was counted as a retransmit");
        assert_eq!(b.stats().peers[0].dup_suppressed, 0, "a frame went out twice");
    }

    #[test]
    fn teardown_does_not_wait_out_a_heartbeat() {
        let mut eps = TcpTransport::fabric_localhost(2).unwrap(); // 500 ms beats
        let b = eps.remove(1);
        let a = eps.remove(0);
        a.send(1, msg(0, 1, &[1.0]));
        b.send(0, msg(1, 1, &[2.0]));
        let _ = a.recv(Duration::from_secs(10)).unwrap();
        let _ = b.recv(Duration::from_secs(10)).unwrap();
        let t0 = Instant::now();
        drop(a);
        drop(b);
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "teardown took {:?}: it slept through a beat",
            t0.elapsed()
        );
    }

    #[test]
    fn first_frame_on_a_fresh_link_waits_on_no_timer() {
        // Send on a link nothing has used -> `recv` returns, over 20 fresh
        // fabrics: ten send the moment the fabric exists, ten a few
        // milliseconds in (once every helper thread has reached its first
        // wait). With the listener polled every 10 ms the second kind read
        // 7 ms and the first kind 0.5 or 10 as the race fell; a blocked
        // `accept` leaves no timer between the dial and the HELLO_ACK.
        let mut addrs = Vec::new();
        for settle in [Duration::ZERO, Duration::from_millis(3)] {
            let mut took = Vec::new();
            for _ in 0..10 {
                let mut eps = TcpTransport::fabric_localhost(2).unwrap();
                let b = eps.remove(1);
                let a = eps.remove(0);
                std::thread::sleep(settle);
                let t0 = Instant::now();
                a.send(1, msg(0, 1, &[1.0]));
                assert_eq!(b.recv(Duration::from_secs(10)).unwrap().payload[0], 1.0);
                took.push(t0.elapsed());
                addrs.extend(a.addrs().iter().copied());
            }
            took.sort();
            assert!(took[5] < Duration::from_millis(2), "sent {settle:?} in, first frames took {took:?}");
        }
        // Every endpoint is dropped: its accept thread was woken, has left
        // `accept` and closed the listener — nobody answers there any more.
        for addr in addrs {
            assert!(TcpStream::connect(addr).is_err(), "{addr} still accepts after Drop");
        }
    }

    /// The `Transport::recv` contract, as `transport.rs` checks it on the
    /// mpsc fabric, through the same `poll_then_park` behind the wire's
    /// inbox and its `shutdown` check.
    #[test]
    fn recv_contract_holds_across_the_poll_window() {
        let mut eps = TcpTransport::fabric_localhost(2).unwrap();
        let b = eps.remove(1);
        let a = eps.remove(0);
        // Queued before the call (self-delivery lands in the inbox
        // synchronously): even a zero timeout returns it.
        b.send(1, msg(1, 3, &[1.0]));
        assert_eq!(b.recv(Duration::ZERO).unwrap().payload[0], 1.0);
        // Sent once the receiver is on its way into `recv` (lands in the
        // poll window or just after it), and long after it has parked.
        let (go_tx, go_rx) = channel::<(Duration, f64)>();
        let sender = std::thread::spawn(move || {
            for (delay, val) in go_rx {
                std::thread::sleep(delay);
                a.send(1, msg(0, 3, &[val]));
            }
        });
        for (delay, val) in [(Duration::ZERO, 2.0), (200 * POLL_BUDGET, 3.0)] {
            go_tx.send((delay, val)).unwrap();
            assert_eq!(b.recv(Duration::from_secs(30)).unwrap().payload[0], val);
        }
        drop(go_tx);
        sender.join().unwrap();
        // `Timeout` fires no earlier than asked: longer than the poll
        // budget, shorter than it, zero.
        for timeout in [Duration::from_millis(20), POLL_BUDGET / 4, Duration::ZERO] {
            let start = Instant::now();
            assert_eq!(b.recv(timeout).err(), Some(CommError::Timeout));
            assert!(start.elapsed() >= timeout, "timed out after {:?} < {timeout:?}", start.elapsed());
        }
        // A torn-down endpoint says so, whatever is queued.
        b.send(1, msg(1, 3, &[4.0]));
        b.shared.shutdown.store(true, Ordering::Release);
        assert_eq!(b.recv(Duration::from_secs(5)).err(), Some(CommError::Closed));
    }

    #[test]
    fn ring_on_more_ranks_than_cores_finishes_inside_a_fuse() {
        // Every rank waits on its left neighbour while the machine has fewer
        // cores than ranks (let alone their reader threads): the poll has
        // to give its core away, not hold it.
        let n = std::thread::available_parallelism().map_or(1, |c| c.get()) + 2;
        let eps = TcpTransport::fabric_localhost(n).unwrap();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in eps {
                s.spawn(move || {
                    for round in 0..200 {
                        t.send((t.rank() + 1) % n, msg(t.rank(), 1, &[round as f64]));
                        let m = t.recv(Duration::from_secs(30)).expect("ring stalled");
                        assert_eq!((m.src, m.payload[0]), ((t.rank() + n - 1) % n, round as f64));
                    }
                });
            }
        });
        assert!(t0.elapsed() < Duration::from_secs(20), "200 ring rounds on {n} ranks took {:?}", t0.elapsed());
    }

    #[test]
    fn tcp_incarnation_travels_in_the_handshake() {
        let listeners: Vec<TcpListener> = (0..2).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let mut it = listeners.into_iter();
        let mut cfg0 = TcpConfig::new(0, 2);
        cfg0.incarnation = 3;
        let a = TcpTransport::with_listener(cfg0, addrs.clone(), it.next().unwrap()).unwrap();
        let b = TcpTransport::with_listener(TcpConfig::new(1, 2), addrs, it.next().unwrap()).unwrap();
        assert_eq!(a.incarnation(), 3);
        a.send(1, msg(0, 5, &[1.0]));
        let _ = b.recv(Duration::from_secs(10)).unwrap();
        assert_eq!(b.peer_incarnation(0), 3, "handshake incarnation lost");
    }

    /// A raw fake peer: connects, HELLOs as `src`, reads the HELLO_ACK,
    /// and hands the stream back for protocol-violation tests.
    fn raw_hello(addr: SocketAddr, src: usize, incarnation: u32) -> TcpStream {
        let mut s = TcpStream::connect(addr).expect("raw connect");
        s.write_all(&encode_frame(KIND_HELLO, src, incarnation, 0, 0, 0, &[]))
            .expect("raw hello");
        let mut ack = [0u8; HEADER_LEN];
        s.read_exact(&mut ack).expect("hello ack");
        assert_eq!(parse_control(&ack).map(|(k, _)| k), Some(KIND_HELLO_ACK));
        s
    }

    #[test]
    fn oversize_frames_are_typed_rejections_that_escalate_to_a_peer_fault() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let my_addr = listener.local_addr().unwrap();
        let peer_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![my_addr, peer_listener.local_addr().unwrap()];
        let mut cfg = TcpConfig::new(0, 2);
        cfg.hb_interval = Duration::from_millis(20);
        let t = TcpTransport::with_listener(cfg, addrs, listener).unwrap();
        // A peer that opens a fresh connection and sends an oversize
        // length prefix, STRIKE_LIMIT times in a row: each one is a typed
        // frame rejection, and the streak becomes a clean peer-fault.
        for i in 0..STRIKE_LIMIT {
            let mut s = raw_hello(my_addr, 1, 0);
            let mut bad = encode_frame(KIND_DATA, 1, 0, 0, 0, u64::from(i) + 1, &[]);
            bad[0..4].copy_from_slice(&(MAX_PAYLOAD_WORDS + 1).to_le_bytes());
            // Re-stamp both CRCs so only the length is at fault.
            let hcrc = crc32(&bad[..40]);
            bad[44..48].copy_from_slice(&hcrc.to_le_bytes());
            bad[40..44].copy_from_slice(&[0u8; 4]);
            let crc = crc32(&bad);
            bad[40..44].copy_from_slice(&crc.to_le_bytes());
            s.write_all(&bad).unwrap();
            // Wait for the reader to reject and close this connection.
            let mut probe = [0u8; 1];
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            let _ = s.read(&mut probe);
        }
        let t0 = Instant::now();
        while !t.is_peer_dead(1) {
            assert!(t0.elapsed() < Duration::from_secs(10), "oversize streak never became a peer fault");
            std::thread::sleep(Duration::from_millis(10));
        }
        let st = t.stats();
        assert!(st.peers[1].frame_rejects >= STRIKE_LIMIT as u64, "frame rejections not counted");
    }

    #[test]
    fn unsequenced_data_is_a_typed_rejection_and_never_delivered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let my_addr = listener.local_addr().unwrap();
        let peer_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![my_addr, peer_listener.local_addr().unwrap()];
        let t = TcpTransport::with_listener(TcpConfig::new(0, 2), addrs, listener).unwrap();
        // A well-formed DATA frame — both CRCs hold — whose sequence is 0:
        // it sits outside dedup and ordering, and no sender emits one. Every
        // connection that opens with it is struck, like an oversize length.
        for _ in 0..STRIKE_LIMIT {
            let mut s = raw_hello(my_addr, 1, 0);
            s.write_all(&encode_frame(KIND_DATA, 1, 0, 7, 0, 0, &[42.0])).unwrap();
            // The reader rejects and closes: the stream ends, no ACK comes.
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            let closed = match s.read(&mut [0u8; 1]) {
                Ok(n) => n == 0,
                Err(e) => e.kind() == io::ErrorKind::ConnectionReset,
            };
            assert!(closed, "connection survived an unsequenced DATA frame");
        }
        assert_eq!(t.stats().peers[1].frame_rejects, u64::from(STRIKE_LIMIT), "frame rejections not counted");
        assert!(t.is_peer_dead(1), "a streak of unsequenced DATA never became a peer fault");
        assert!(matches!(t.recv(Duration::from_millis(100)), Err(CommError::Timeout)), "the payload reached recv");
    }

    #[test]
    fn a_retired_kind_on_the_reverse_path_drops_the_stream_and_loses_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![listener.local_addr().unwrap(), peer.local_addr().unwrap()];
        let a = TcpTransport::with_listener(TcpConfig::new(0, 2), addrs.clone(), listener).unwrap();
        a.send(1, msg(0, 7, &[0.0]));
        // A fake receiver opens the session, then writes what used to be a
        // gap report (kind 11) where only ACKs belong.
        let (mut held, _) = peer.accept().unwrap();
        held.read_exact(&mut [0u8; HEADER_LEN]).unwrap();
        held.write_all(&encode_frame(KIND_HELLO_ACK, 1, 0, 0, 0, 0, &[])).unwrap();
        held.write_all(&encode_frame(11, 1, 0, 0, 0, 1, &[])).unwrap();
        // `held` stays open, so the redial that lands on the listener can
        // only come from the sender calling the frame garbage.
        a.send(1, msg(0, 7, &[1.0]));
        let (redial, _) = peer.accept().unwrap();
        drop((held, redial));
        // Nothing was ACKed: a real endpoint on the same address gets both
        // frames from the resume, once, in order.
        let b = TcpTransport::with_listener(TcpConfig::new(1, 2), addrs, peer).unwrap();
        for want in [0.0, 1.0] {
            assert_eq!(b.recv(Duration::from_secs(30)).expect("frame lost").payload[0], want);
        }
        assert_eq!(b.stats().peers[0].dup_suppressed, 0, "a frame was delivered to the inbox path twice");
        assert!(a.stats().peers[1].reconnects >= 1, "the stream was never re-established");
    }

    #[test]
    fn two_live_connections_from_one_peer_deliver_each_sequence_once_in_order() {
        // A sender that drops a stream (a reset, a write timeout, a stale
        // window head) redials at once, while the old connection's reader
        // may still be working through what it had buffered: for a while two
        // readers hold the same sequence range. Here both do for the whole
        // stream.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let my_addr = listener.local_addr().unwrap();
        let peer_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![my_addr, peer_listener.local_addr().unwrap()];
        let t = TcpTransport::with_listener(TcpConfig::new(0, 2), addrs, listener).unwrap();
        let n = 20_000u64;
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let mut s = raw_hello(my_addr, 1, 0);
                std::thread::spawn(move || {
                    for seq in 1..=n {
                        s.write_all(&encode_frame(KIND_DATA, 1, 0, 7, 0, seq, &[seq as f64])).unwrap();
                    }
                    s // open until the count below is in
                })
            })
            .collect();
        for seq in 1..=n {
            let m = t.recv(Duration::from_secs(30)).expect("the stream stopped short");
            assert_eq!(m.payload[0], seq as f64, "a sequence was delivered twice or out of order");
        }
        let streams: Vec<_> = writers.into_iter().map(|w| w.join().unwrap()).collect();
        let dups = || t.stats().peers[1].dup_suppressed;
        let t0 = Instant::now();
        while dups() < n && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(dups(), n, "each sequence arrived twice, so each was suppressed once");
        assert!(matches!(t.recv(Duration::ZERO), Err(CommError::Timeout)), "a sequence was delivered twice");
        drop(streams);
    }

    #[test]
    fn corrupt_frames_are_counted_and_never_delivered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let my_addr = listener.local_addr().unwrap();
        let peer_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![my_addr, peer_listener.local_addr().unwrap()];
        let t = TcpTransport::with_listener(TcpConfig::new(0, 2), addrs, listener).unwrap();
        let mut s = raw_hello(my_addr, 1, 0);
        let mut bad = encode_frame(KIND_DATA, 1, 0, 7, 0, 1, &[42.0]);
        let last = bad.len() - 1;
        bad[last] ^= 0x01; // payload bit flip after the CRC stamp
        s.write_all(&bad).unwrap();
        let t0 = Instant::now();
        while t.stats().peers[1].crc_rejects == 0 {
            assert!(t0.elapsed() < Duration::from_secs(10), "CRC rejection not counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        // The corrupted payload must never surface as a message.
        assert!(matches!(t.recv(Duration::from_millis(100)), Err(CommError::Timeout)));
        assert!(!t.is_peer_dead(1), "one corrupt frame must not kill the peer");
    }

    #[test]
    fn sub_grace_stall_is_suspected_then_rescinded_never_dead() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let my_addr = listener.local_addr().unwrap();
        let peer_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![my_addr, peer_listener.local_addr().unwrap()];
        let mut cfg = TcpConfig::new(0, 2);
        cfg.hb_interval = Duration::from_millis(30);
        cfg.hb_miss_limit = 40; // silence threshold 1.2 s, far beyond the stall
        cfg.hb_grace_beats = 40;
        let t = TcpTransport::with_listener(cfg, addrs, listener).unwrap();
        let mut s = raw_hello(my_addr, 1, 0);
        // Beat once, stall for > 2 beats but far under every death
        // threshold, then resume: suspicion must rise and be rescinded.
        s.write_all(&encode_frame(KIND_HEARTBEAT, 1, 0, 0, 0, 0, &[])).unwrap();
        std::thread::sleep(Duration::from_millis(150)); // 5 beats of silence
        assert!(!t.is_peer_dead(1), "sub-grace stall misread as a death");
        s.write_all(&encode_frame(KIND_HEARTBEAT, 1, 0, 0, 0, 0, &[])).unwrap();
        let t0 = Instant::now();
        while t.stats().peers[1].rescinds == 0 {
            assert!(t0.elapsed() < Duration::from_secs(10), "suspicion never rescinded");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(!t.is_peer_dead(1), "rescinded peer still reads as dead");
    }

    #[test]
    fn mid_stream_reset_resumes_without_loss_or_reorder() {
        // Scripted connection resets on the 0→1 link: every frame still
        // arrives exactly once, in order, bit-identical — the session
        // resume replays what the RST swallowed.
        let mut eps = TcpTransport::fabric_localhost_with(2, |c| {
            c.hb_interval = Duration::from_millis(40);
            if c.rank == 0 {
                c.faults = FaultScript::parse("7:reset=0.4", 2, 0..1).unwrap();
            }
        })
        .unwrap();
        let b = eps.remove(1);
        let a = eps.remove(0);
        let n = 64;
        for i in 0..n {
            a.send(1, msg(0, 5, &[i as f64, (i * i) as f64]));
        }
        for i in 0..n {
            let m = b.recv(Duration::from_secs(30)).expect("frame lost to a reset");
            assert_eq!(m.payload[0].to_bits(), (i as f64).to_bits(), "stream reordered or corrupted");
        }
        let t0 = Instant::now();
        while a.stats().peers[1].resumes == 0 {
            assert!(t0.elapsed() < Duration::from_secs(10), "no session resume recorded");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Seeded decoder fuzz: golden frames of every kind, mutated, through
    /// every decoder over an in-memory reader. A decoder may reject anything;
    /// what it accepts must be a whole frame whose two CRCs hold under the
    /// bitwise reference, taken from exactly the bytes it consumed — and
    /// nothing may panic or wait for bytes that are not there. `FT_FUZZ_SEED`
    /// / `FT_FUZZ_ROUNDS` explore further, as for the kernel fuzz.
    #[test]
    fn mutated_frames_are_rejected_or_decode_to_exactly_what_the_crcs_cover() {
        let env = |name: &str, default: u64| std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default);
        let mut x = env("FT_FUZZ_SEED", 0xC0FFEE) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let shared = lone_shared();
        // Both CRCs of `m`'s leading frame, by the reference that shares
        // nothing with the tables; `None` = `m` does not hold a whole frame.
        let crcs_hold = |m: &[u8]| -> Option<usize> {
            let words = le32(m.get(..HEADER_LEN)?, 0);
            let end = HEADER_LEN + 8 * usize::try_from(words).ok().filter(|_| words <= MAX_PAYLOAD_WORDS)?;
            let mut frame = m.get(..end)?.to_vec();
            let stamped = le32(&frame, 40);
            frame[40..44].fill(0);
            (crc32_bitwise(&frame[..40]) == le32(&frame, 44) && crc32_bitwise(&frame) == stamped).then_some(end)
        };
        let restamp = |m: &mut [u8]| {
            let head = crc32_bitwise(&m[..40]);
            m[44..48].copy_from_slice(&head.to_le_bytes());
            m[40..44].fill(0);
            let crc = crc32_bitwise(m);
            m[40..44].copy_from_slice(&crc.to_le_bytes());
        };
        // 600 words: long enough for the CRC to take its folding path.
        let payloads: [Vec<f64>; 4] = [
            vec![],
            vec![1.5],
            vec![-0.0, f64::MAX, 3.25],
            (0..600).map(f64::from).collect(),
        ];
        let kinds = [KIND_HELLO, KIND_HEARTBEAT, KIND_DATA, KIND_GOODBYE, KIND_HELLO_ACK, KIND_ACK];
        let kinds = kinds.into_iter().chain(jobs::KIND_SUBMIT..=jobs::KIND_CKPT);
        let goldens: Vec<Vec<u8>> = kinds
            .flat_map(|k| payloads.iter().map(move |p| encode_frame(k, 3, 1, 0x0102_0304, 9, 77, p)))
            .collect();
        for g in &goldens {
            assert_eq!(crcs_hold(g), Some(g.len()), "the reference rejects a golden frame");
        }
        let (mut accepted, mut body) = (0, Vec::new());
        for round in 0..env("FT_FUZZ_ROUNDS", 400) * goldens.len() as u64 {
            let mut m = goldens[(round % goldens.len() as u64) as usize].clone();
            let stamp = next() % 2 == 0;
            match next() % 5 {
                0 => (0..1 + next() % 3).for_each(|_| {
                    let bit = (next() % (m.len() as u64 * 8)) as usize;
                    m[bit / 8] ^= 1 << (bit % 8);
                }),
                1 => m.truncate((next() % m.len() as u64) as usize),
                2 => {
                    // A length that lies by a word, is empty, or sits on the cap.
                    let words = le32(&m, 0);
                    let lie = [
                        0,
                        words.wrapping_sub(1),
                        words + 1,
                        MAX_PAYLOAD_WORDS - 1,
                        MAX_PAYLOAD_WORDS + 1,
                        u32::MAX,
                    ];
                    m[0..4].copy_from_slice(&lie[(next() % 6) as usize].to_le_bytes());
                    if stamp {
                        restamp(&mut m);
                    }
                }
                3 => {
                    m[4] = next() as u8; // any kind, in range or not
                    if stamp {
                        restamp(&mut m);
                    }
                }
                _ => m.extend((0..next() % 100).map(|_| next() as u8)), // trailing junk
            }
            let holds = crcs_hold(&m);
            let head = m.first_chunk::<HEADER_LEN>().and_then(|raw| Header::decode(raw).ok());
            if let Some(h) = &head {
                assert_eq!(crc32_bitwise(&m[..40]), le32(&m, 44), "round {round}: header accepted on a bad CRC");
                assert!(h.words <= MAX_PAYLOAD_WORDS as usize, "round {round}: oversize length accepted");
                if let Some(b) = m.get(HEADER_LEN..HEADER_LEN + 8 * h.words) {
                    assert_eq!(h.check_body(b).is_ok(), holds.is_some(), "round {round}: check_body against the reference");
                }
            }
            let mut rest = &m[..];
            if let Ok(got) = read_frame(&shared, &mut rest, &mut body) {
                let f = got.expect("no shutdown was signalled");
                let end = holds.unwrap_or_else(|| panic!("round {round}: read_frame accepted a frame whose CRCs do not hold"));
                assert_eq!(m.len() - rest.len(), end, "round {round}: read_frame consumed other than the frame");
                assert_eq!((f.head.kind, f.head.words), (m[4], (end - HEADER_LEN) / 8));
                let bits = |w: &f64| w.to_bits().to_le_bytes();
                assert!(f.payload.iter().flat_map(bits).eq(m[HEADER_LEN..end].iter().copied()), "round {round}: payload");
                accepted += 1;
            }
            let mut rest = &m[..];
            if let Ok(f) = jobs::read_job_frame(&mut rest) {
                assert_eq!(Some(m.len() - rest.len()), holds, "round {round}: read_job_frame accepted or consumed wrongly");
                assert!((jobs::KIND_SUBMIT..=jobs::KIND_CKPT).contains(&f.kind), "round {round}: fabric kind {}", f.kind);
            }
        }
        assert!(accepted > 0, "no mutation left a valid frame: the accept path went untested");
    }
}
