//! Typed message tags and the per-phase traffic ledger.
//!
//! Historically every protocol above the runtime picked a hex range by
//! convention (`0x100` for panels, `0x300` for snapshots, …) and did raw
//! `u64` arithmetic on it. [`Tag`] replaces that: each variant names the
//! subsystem a message belongs to, carries a small per-protocol channel
//! number, and maps onto a [`TrafficPhase`] so the runtime can attribute
//! every byte sent to the paper's overhead decomposition (Table 1) without
//! any cooperation from the algorithm layer.

/// Accounting bucket for the traffic ledger, mirroring the overhead
/// decomposition of the paper: panel factorization, trailing-matrix
/// updates, checksum maintenance, checkpointing and recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficPhase {
    /// Panel factorization (PDLAHRD) internals.
    Panel,
    /// Trailing-matrix right/left updates and SUMMA multiplies.
    TrailingUpdate,
    /// Checksum encoding, verification and scrubbing.
    ChecksumUpdate,
    /// Diskless snapshots, bookkeeping and checkpoint/restart images.
    Checkpoint,
    /// Post-failure data reconstruction.
    Recovery,
    /// Everything else: tests, verification harnesses, gathers.
    Other,
}

impl TrafficPhase {
    /// Number of phases (the ledger's array dimension).
    pub const COUNT: usize = 6;

    /// All phases, in ledger order.
    pub const ALL: [TrafficPhase; TrafficPhase::COUNT] = [
        TrafficPhase::Panel,
        TrafficPhase::TrailingUpdate,
        TrafficPhase::ChecksumUpdate,
        TrafficPhase::Checkpoint,
        TrafficPhase::Recovery,
        TrafficPhase::Other,
    ];

    /// Stable index of this phase into the ledger array.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            TrafficPhase::Panel => 0,
            TrafficPhase::TrailingUpdate => 1,
            TrafficPhase::ChecksumUpdate => 2,
            TrafficPhase::Checkpoint => 3,
            TrafficPhase::Recovery => 4,
            TrafficPhase::Other => 5,
        }
    }

    /// Human-readable phase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TrafficPhase::Panel => "panel",
            TrafficPhase::TrailingUpdate => "trailing-update",
            TrafficPhase::ChecksumUpdate => "checksum-update",
            TrafficPhase::Checkpoint => "checkpoint",
            TrafficPhase::Recovery => "recovery",
            TrafficPhase::Other => "other",
        }
    }
}

/// A typed message tag.
///
/// The variant names the owning subsystem (and thereby the
/// [`TrafficPhase`] the message is accounted under); the payload is a
/// per-subsystem channel number, so two protocols can never collide even
/// if they pick the same number. Free-form numeric tags used by tests and
/// examples convert implicitly via `From<{integer}>` into [`Tag::User`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// Free-form tag (tests, examples, gathers). Phase: `Other`.
    User(u32),
    /// Panel factorization channels. Phase: `Panel`.
    Panel(u16),
    /// Trailing-update / SUMMA channels. Phase: `TrailingUpdate`.
    Trailing(u16),
    /// Checksum encode/verify/scrub channels. Phase: `ChecksumUpdate`.
    Checksum(u16),
    /// Snapshot / bookkeeping / checkpoint-image channels. Phase: `Checkpoint`.
    Checkpoint(u16),
    /// Recovery-protocol channels. Phase: `Recovery`.
    Recovery(u16),
    /// Serving-layer per-job channels (result gathers, residual checks,
    /// ledger aggregation of one scheduled job). Construct through
    /// [`Tag::job`], which folds the job id into the channel number so two
    /// concurrent grids whose TCP connections overlap can never alias each
    /// other's collective tags. Phase: `Other`.
    Job(u16),
}

/// Number of per-job channels available to [`Tag::job`] (low bits of the
/// [`Tag::Job`] channel number).
pub const JOB_TAG_CHANNELS: u16 = 1 << 6;

/// Number of distinct job lanes [`Tag::job`] spreads job ids over (high
/// bits of the [`Tag::Job`] channel number). `JOB_TAG_LANES ·
/// JOB_TAG_CHANNELS` exactly fills the `u16` channel space.
pub const JOB_TAG_LANES: u16 = 1 << 10;

/// Collective sub-channel, encoded in the low wire bits so a collective
/// can never be confused with point-to-point traffic on the same [`Tag`]
/// (this replaces the old `tag.wrapping_add(1)` trick inside all-reduce).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Leg {
    P2p = 0,
    Reduce = 1,
    Bcast = 2,
}

impl Tag {
    /// Tag for serving-layer traffic of one scheduled job.
    ///
    /// `job` is the job id (folded modulo [`JOB_TAG_LANES`] into the lane
    /// bits) and `chan` the channel within the job (must be below
    /// [`JOB_TAG_CHANNELS`]). Jobs run on disjoint rank subsets with
    /// private fabrics, but the lane separation guarantees that even if
    /// two grids ever shared a connection their collectives could not
    /// alias. A debug assertion rejects out-of-range channels.
    #[must_use]
    pub fn job(job: u64, chan: u16) -> Tag {
        debug_assert!(chan < JOB_TAG_CHANNELS, "job tag channel {chan} out of range (must be < {JOB_TAG_CHANNELS})");
        let lane = (job % JOB_TAG_LANES as u64) as u16;
        Tag::Job(lane * JOB_TAG_CHANNELS + (chan % JOB_TAG_CHANNELS))
    }

    /// The ledger bucket this tag's traffic is accounted under.
    #[inline]
    pub fn phase(self) -> TrafficPhase {
        match self {
            Tag::User(_) => TrafficPhase::Other,
            Tag::Panel(_) => TrafficPhase::Panel,
            Tag::Trailing(_) => TrafficPhase::TrailingUpdate,
            Tag::Checksum(_) => TrafficPhase::ChecksumUpdate,
            Tag::Checkpoint(_) => TrafficPhase::Checkpoint,
            Tag::Recovery(_) => TrafficPhase::Recovery,
            Tag::Job(_) => TrafficPhase::Other,
        }
    }

    /// The same subsystem, channel number shifted by `k` — the typed
    /// replacement for the old `base_tag + i` arithmetic at call sites
    /// that need a small family of channels (one per checksum copy, one
    /// per ring distance, …).
    #[must_use]
    pub fn offset(self, k: u16) -> Tag {
        match self {
            Tag::User(t) => Tag::User(t.checked_add(k as u32).expect("tag offset overflow")),
            Tag::Panel(t) => Tag::Panel(t.checked_add(k).expect("tag offset overflow")),
            Tag::Trailing(t) => Tag::Trailing(t.checked_add(k).expect("tag offset overflow")),
            Tag::Checksum(t) => Tag::Checksum(t.checked_add(k).expect("tag offset overflow")),
            Tag::Checkpoint(t) => Tag::Checkpoint(t.checked_add(k).expect("tag offset overflow")),
            Tag::Recovery(t) => Tag::Recovery(t.checked_add(k).expect("tag offset overflow")),
            Tag::Job(t) => {
                let chan = t.checked_add(k).expect("tag offset overflow");
                // Offsetting must stay inside the owning job's lane, or two
                // jobs' channels would alias after all.
                debug_assert_eq!(chan / JOB_TAG_CHANNELS, t / JOB_TAG_CHANNELS, "job tag offset crosses into another job's lane");
                Tag::Job(chan)
            }
        }
    }

    /// Wire encoding: `discriminant · 2³⁴ | channel · 2² | leg`. Injective,
    /// so distinct `(Tag, Leg)` pairs never share a mailbox key.
    #[inline]
    pub(crate) fn wire(self, leg: Leg) -> u64 {
        let (disc, chan) = match self {
            Tag::User(t) => (0u64, t as u64),
            Tag::Panel(t) => (1, t as u64),
            Tag::Trailing(t) => (2, t as u64),
            Tag::Checksum(t) => (3, t as u64),
            Tag::Checkpoint(t) => (4, t as u64),
            Tag::Recovery(t) => (5, t as u64),
            Tag::Job(t) => (6, t as u64),
        };
        let key = (disc << 34) | (chan << 2) | leg as u64;
        debug_assert!(
            key < crate::comm::DIST_CTRL_MIN,
            "tag wire key {key:#x} reaches the runtime's reserved control channels"
        );
        key
    }

    /// Inverse of [`Tag::wire`]: recover the tag and a human-readable leg
    /// name from a wire key, for diagnostics (timeout messages must name
    /// the protocol and collective leg, not a raw hex key). Returns `None`
    /// for keys outside the encoding (e.g. the runtime's control channel).
    pub(crate) fn decode_wire(wire: u64) -> Option<(Tag, &'static str)> {
        let leg = match wire & 0b11 {
            0 => "p2p",
            1 => "reduce",
            2 => "bcast",
            _ => return None,
        };
        let chan = (wire >> 2) & 0xFFFF_FFFF;
        let tag = match wire >> 34 {
            0 => Tag::User(chan as u32),
            1 => Tag::Panel(u16::try_from(chan).ok()?),
            2 => Tag::Trailing(u16::try_from(chan).ok()?),
            3 => Tag::Checksum(u16::try_from(chan).ok()?),
            4 => Tag::Checkpoint(u16::try_from(chan).ok()?),
            5 => Tag::Recovery(u16::try_from(chan).ok()?),
            6 => Tag::Job(u16::try_from(chan).ok()?),
            _ => return None,
        };
        Some((tag, leg))
    }
}

impl From<u32> for Tag {
    fn from(t: u32) -> Tag {
        Tag::User(t)
    }
}

impl From<u64> for Tag {
    fn from(t: u64) -> Tag {
        Tag::User(u32::try_from(t).expect("numeric tag exceeds u32"))
    }
}

impl From<i32> for Tag {
    fn from(t: i32) -> Tag {
        Tag::User(u32::try_from(t).expect("numeric tag must be non-negative"))
    }
}

impl From<usize> for Tag {
    fn from(t: usize) -> Tag {
        Tag::User(u32::try_from(t).expect("numeric tag exceeds u32"))
    }
}

/// Traffic totals for one [`TrafficPhase`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTraffic {
    /// Payload bytes sent (8 bytes per `f64`).
    pub bytes: u64,
    /// Messages sent.
    pub msgs: u64,
}

/// Per-phase traffic ledger: bytes and messages sent by one process,
/// bucketed by [`TrafficPhase`]. Snapshot it with
/// [`crate::Ctx::traffic`]; aggregate across ranks with [`TrafficLedger::merge`]
/// or the distributed helper `ft_pblas::verify::pd_gather_traffic`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficLedger {
    phases: [PhaseTraffic; TrafficPhase::COUNT],
}

impl TrafficLedger {
    /// Totals for one phase.
    #[inline]
    pub fn phase(&self, p: TrafficPhase) -> PhaseTraffic {
        self.phases[p.index()]
    }

    /// Sum of bytes over all phases.
    pub fn total_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.bytes).sum()
    }

    /// Sum of messages over all phases.
    pub fn total_msgs(&self) -> u64 {
        self.phases.iter().map(|p| p.msgs).sum()
    }

    /// Record one sent message of `bytes` payload bytes under `phase`.
    pub(crate) fn record(&mut self, phase: TrafficPhase, bytes: u64) {
        let p = &mut self.phases[phase.index()];
        p.bytes += bytes;
        p.msgs += 1;
    }

    /// Element-wise accumulate another ledger (cross-rank aggregation).
    pub fn merge(&mut self, other: &TrafficLedger) {
        for (a, b) in self.phases.iter_mut().zip(&other.phases) {
            a.bytes += b.bytes;
            a.msgs += b.msgs;
        }
    }

    /// Flatten to `[bytes₀, msgs₀, bytes₁, msgs₁, …]` as `f64` (exact below
    /// 2⁵³) for transport through an all-reduce.
    pub fn to_f64_row(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(2 * TrafficPhase::COUNT);
        for p in &self.phases {
            v.push(p.bytes as f64);
            v.push(p.msgs as f64);
        }
        v
    }

    /// Inverse of [`TrafficLedger::to_f64_row`].
    pub fn from_f64_row(row: &[f64]) -> TrafficLedger {
        assert_eq!(row.len(), 2 * TrafficPhase::COUNT, "malformed ledger row");
        let mut l = TrafficLedger::default();
        for (i, p) in l.phases.iter_mut().enumerate() {
            p.bytes = row[2 * i] as u64;
            p.msgs = row[2 * i + 1] as u64;
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_keys_are_disjoint_across_variants_and_legs() {
        let tags = [
            Tag::User(7),
            Tag::Panel(7),
            Tag::Trailing(7),
            Tag::Checksum(7),
            Tag::Checkpoint(7),
            Tag::Recovery(7),
            Tag::Job(7),
        ];
        let mut seen = std::collections::HashSet::new();
        for t in tags {
            for leg in [Leg::P2p, Leg::Reduce, Leg::Bcast] {
                assert!(seen.insert(t.wire(leg)), "wire collision for {t:?}/{leg:?}");
            }
        }
    }

    #[test]
    fn wire_decode_round_trips() {
        let tags = [
            Tag::User(0xDEAD_BEEF),
            Tag::Panel(0x101),
            Tag::Trailing(3),
            Tag::Checksum(0x210),
            Tag::Checkpoint(0x300),
            Tag::Recovery(0x1000),
            Tag::Job(0x2222),
        ];
        for t in tags {
            for (leg, name) in [(Leg::P2p, "p2p"), (Leg::Reduce, "reduce"), (Leg::Bcast, "bcast")] {
                assert_eq!(Tag::decode_wire(t.wire(leg)), Some((t, name)));
            }
        }
        // Keys outside the encoding (e.g. the control channel) don't decode.
        assert_eq!(Tag::decode_wire(u64::MAX), None);
        assert_eq!(Tag::decode_wire(0b11), None);
    }

    #[test]
    fn max_tag_wire_stays_below_the_control_channels() {
        // The runtime reserves [DIST_CTRL_MIN, u64::MAX] for
        // its control wires (heartbeats ride frame kinds, but barrier/
        // agreement frames ride reserved wire keys). The largest key the
        // tag encoding can produce must stay strictly below them, so no
        // user message can ever masquerade as control traffic.
        let max_wire = [
            Tag::User(u32::MAX),
            Tag::Panel(u16::MAX),
            Tag::Trailing(u16::MAX),
            Tag::Checksum(u16::MAX),
            Tag::Checkpoint(u16::MAX),
            Tag::Recovery(u16::MAX),
            Tag::Job(u16::MAX),
        ]
        .into_iter()
        .map(|t| t.wire(Leg::Bcast))
        .max()
        .unwrap();
        assert!(max_wire < crate::comm::DIST_CTRL_MIN, "tag wire space reaches the control channels");
    }

    #[test]
    fn offset_stays_in_subsystem() {
        let t = Tag::Checkpoint(0x10).offset(3);
        assert_eq!(t, Tag::Checkpoint(0x13));
        assert_eq!(t.phase(), TrafficPhase::Checkpoint);
        assert_eq!(Tag::from(600u64), Tag::User(600));
    }

    #[test]
    fn job_tags_are_disjoint_across_jobs_and_channels() {
        // Every (job lane, channel) pair maps to its own wire key: a full
        // sweep of two adjacent lanes and the edges of the lane space.
        let mut seen = std::collections::HashSet::new();
        for job in [0u64, 1, 2, JOB_TAG_LANES as u64 - 1] {
            for chan in 0..JOB_TAG_CHANNELS {
                assert!(seen.insert(Tag::job(job, chan).wire(Leg::P2p)), "job tag collision for job {job} chan {chan}");
            }
        }
        // Lanes wrap modulo JOB_TAG_LANES: far-apart ids may share a lane
        // (documented), but equal ids always agree on the tag.
        assert_eq!(Tag::job(7, 3), Tag::job(7 + JOB_TAG_LANES as u64, 3));
        // Offsets stay inside the job's channel budget.
        assert_eq!(Tag::job(5, 1).offset(2), Tag::job(5, 3));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "job tag channel")]
    fn job_tag_rejects_out_of_range_channel() {
        let _ = Tag::job(0, JOB_TAG_CHANNELS);
    }

    #[test]
    fn ledger_round_trips_and_merges() {
        let mut a = TrafficLedger::default();
        a.record(TrafficPhase::Panel, 80);
        a.record(TrafficPhase::Recovery, 24);
        a.record(TrafficPhase::Recovery, 16);
        assert_eq!(a.phase(TrafficPhase::Panel), PhaseTraffic { bytes: 80, msgs: 1 });
        assert_eq!(a.phase(TrafficPhase::Recovery), PhaseTraffic { bytes: 40, msgs: 2 });
        assert_eq!(a.total_bytes(), 120);
        assert_eq!(a.total_msgs(), 3);

        let b = TrafficLedger::from_f64_row(&a.to_f64_row());
        assert_eq!(a, b);

        let mut c = a;
        c.merge(&b);
        assert_eq!(c.total_bytes(), 240);
        assert_eq!(c.total_msgs(), 6);
    }
}
