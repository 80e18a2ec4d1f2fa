//! The wire half of a [`FaultScript`]: deterministic, seeded network-fault
//! decisions for the TCP transport (grammar and the other fault kinds in
//! [`crate::fault`]).
//!
//! The transport's link threads consult the script once per **first
//! transmission** of each sequenced DATA frame. A session resume's replay
//! is never re-faulted, so every injected fault is recoverable by
//! construction and a faulted run that completes is bitwise identical to
//! the fault-free run (the hardening layer delivers exactly-once, in-order
//! per link).
//!
//! Decisions are pure functions of `(seed, src, dst, seq)` — two runs with
//! the same script perturb exactly the same frames, which is what makes the
//! soak's recover-or-typed-reject contract reproducible.

use crate::fault::{splitmix64, FaultScript};

/// One fault decision for a frame's first transmission. At most one fault
/// fires per frame, picked in the fixed priority order
/// corrupt > reset > drop > dup > reorder > delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Skip the write; the frame stays in the window for the resume.
    Drop,
    /// Sleep this many milliseconds before the write (head-of-line stall).
    Delay(u64),
    /// Write the frame twice (receiver must suppress the duplicate).
    Dup,
    /// Write the *next* queued frame first (sequence inversion on the wire).
    Reorder,
    /// Flip one bit of the encoded bytes after the CRC was stamped.
    Corrupt,
    /// Close the connection without writing (mid-stream RST).
    Reset,
}

/// A directed link blackhole: frames from `a` to `b` vanish during the
/// window. Asymmetric by construction — add the mirrored entry for a
/// symmetric partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetPartition {
    /// Source rank of the blackholed link.
    pub a: usize,
    /// Destination rank of the blackholed link.
    pub b: usize,
    /// Window start, in ms since the transport came up.
    pub start_ms: u64,
    /// Window length in ms; `None` = the partition never heals.
    pub dur_ms: Option<u64>,
}

/// The wire-fault fields of a [`FaultScript`], filled by its parser.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Wire {
    pub(crate) seed: u64,
    pub(crate) drop_p: f64,
    pub(crate) delay_p: f64,
    pub(crate) delay_ms: u64,
    pub(crate) dup_p: f64,
    pub(crate) reorder_p: f64,
    pub(crate) corrupt_p: f64,
    pub(crate) reset_p: f64,
    pub(crate) parts: Vec<NetPartition>,
}

/// Uniform fraction in `[0, 1)` from a hash.
fn frac(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultScript {
    /// Whether no wire fault can ever fire.
    pub fn net_is_empty(&self) -> bool {
        self.wire.parts.is_empty() && self.frame_faults().iter().all(|&(p, ..)| p == 0.0)
    }

    /// `(probability, draw salt, fault)` per frame-fault kind, in priority
    /// order.
    fn frame_faults(&self) -> [(f64, u64, NetFault); 6] {
        let w = &self.wire;
        [
            (w.corrupt_p, 0xC0, NetFault::Corrupt),
            (w.reset_p, 0x51, NetFault::Reset),
            (w.drop_p, 0xD0, NetFault::Drop),
            (w.dup_p, 0xDD, NetFault::Dup),
            (w.reorder_p, 0x0E, NetFault::Reorder),
            (w.delay_p, 0xDE, NetFault::Delay(w.delay_ms)),
        ]
    }

    /// The per-link hash stream of `src → dst`.
    fn link(&self, src: usize, dst: usize) -> u64 {
        splitmix64(self.wire.seed ^ ((src as u64) << 32 | dst as u64).wrapping_mul(0xD6E8FEB86659FD93))
    }

    /// The fault (if any) to inject on the **first transmission** of the
    /// DATA frame with sequence number `seq` on the link `src → dst`.
    /// Deterministic in `(seed, src, dst, seq)`; `None` at once on a script
    /// without wire faults.
    pub fn decide(&self, src: usize, dst: usize, seq: u64) -> Option<NetFault> {
        if self.net_is_empty() {
            return None;
        }
        let link = self.link(src, dst);
        let draw = |salt: u64| frac(splitmix64(link ^ seq.wrapping_mul(0x2545F4914F6CDD1D) ^ salt));
        self.frame_faults()
            .into_iter()
            .find(|&(p, salt, _)| p > 0.0 && draw(salt) < p)
            .map(|(.., fault)| fault)
    }

    /// Whether the directed link `src → dst` is inside a partition window
    /// at `now_ms` (ms since the transport started). While blackholed, the
    /// sender writes nothing on the link — data, heartbeats, handshakes.
    pub fn blackholed(&self, src: usize, dst: usize, now_ms: u64) -> bool {
        self.wire
            .parts
            .iter()
            .any(|p| p.a == src && p.b == dst && now_ms >= p.start_ms && p.dur_ms.is_none_or(|d| now_ms < p.start_ms + d))
    }

    /// Deterministic bit index for the [`NetFault::Corrupt`] flip of frame
    /// `seq` on `src → dst`, reduced modulo the frame's bit length by the
    /// caller.
    pub fn corrupt_bit(&self, src: usize, dst: usize, seq: u64) -> u64 {
        splitmix64(self.link(src, dst) ^ seq.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xB17)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wire-only script on a 4-rank world.
    fn net(spec: &str) -> FaultScript {
        FaultScript::parse(spec, 4, 0..1).unwrap()
    }

    #[test]
    fn bare_seed_parses_to_an_empty_script() {
        let sc = net("42");
        assert!(sc.is_empty() && sc.net_is_empty());
        assert_eq!(sc.decide(0, 1, 1), None);
        assert!(!sc.blackholed(0, 1, 0));
    }

    #[test]
    fn full_spec_round_trips_every_item() {
        let sc = net("7:drop=0.5,delay=0.25@30,dup=0.1,reorder=0.1,corrupt=0.05,reset=0.02,part=0-3@500+1500");
        assert!(!sc.net_is_empty());
        let w = &sc.wire;
        assert_eq!((w.seed, w.drop_p, w.delay_p, w.delay_ms), (7, 0.5, 0.25, 30));
        assert_eq!((w.dup_p, w.reorder_p, w.corrupt_p, w.reset_p), (0.1, 0.1, 0.05, 0.02));
        assert_eq!(w.parts, [NetPartition { a: 0, b: 3, start_ms: 500, dur_ms: Some(1500) }]);
        assert!(!sc.blackholed(0, 3, 499));
        assert!(sc.blackholed(0, 3, 500));
        assert!(sc.blackholed(0, 3, 1999));
        assert!(!sc.blackholed(0, 3, 2000));
        assert!(!sc.blackholed(3, 0, 1000), "partition must be directed");
    }

    #[test]
    fn permanent_partition_never_heals() {
        let sc = net("1:part=2-0@100");
        assert!(sc.blackholed(2, 0, u64::MAX));
        assert!(!sc.blackholed(2, 0, 99));
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for bad in [
            "x",
            "1:",
            "1:drop",
            "1:drop=2.0",
            "1:drop=-0.1",
            "1:drop=abc",
            "1:delay=0.5",
            "1:delay=0.5@0",
            "1:warp=0.5",
            "1:part=0@5",
            "1:part=0-0@5",
            "1:part=0-1@5+0",
            "1:part=0-1",
        ] {
            assert!(FaultScript::parse(bad, 4, 0..1).is_err(), "'{bad}' parsed");
        }
    }

    /// `decide(0, 1, 0..256)` as one char per frame: `.` none, `D` drop,
    /// `U` dup.
    fn drop_dup_trace(sc: &FaultScript, src: usize, dst: usize) -> String {
        (0..256)
            .map(|s| match sc.decide(src, dst, s) {
                None => '.',
                Some(NetFault::Drop) => 'D',
                Some(NetFault::Dup) => 'U',
                Some(other) => panic!("unscripted fault {other:?}"),
            })
            .collect()
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = net("5:drop=0.3,dup=0.3");
        let seq_a = drop_dup_trace(&a, 0, 1);
        assert_eq!(seq_a, drop_dup_trace(&net("5:drop=0.3,dup=0.3"), 0, 1), "same seed must give identical schedules");
        assert_ne!(seq_a, drop_dup_trace(&net("6:drop=0.3,dup=0.3"), 0, 1), "different seeds should differ");
        // Links are independent streams.
        assert_ne!(seq_a, drop_dup_trace(&a, 1, 0), "links share a fault stream");
        // Pin of the wire sub-stream: the sequence the per-link
        // (seed, src, dst, seq) hash produced before the injectors were
        // folded into one script. A change here moves every wire soak.
        assert_eq!(
            seq_a,
            "..UU.U...U...U.DDD...D......D.UD..D.D.D...UU..U...UUDDU....U..DDU.DD.....U.UD.UU........U...D.UDD.....DD.UD\
             ..UUU...D...UU.DDU.D..DD..DD.D.D...DD.D...DDDU.UU..DD.DDDU..D......DDDD..UU..DDDD.UDDDD...DU.DD.U..D.U.U..\
             UU...D.UU...DD...DU..U....D...UDDDDDU...DUD"
        );
        assert_eq!(net("5:corrupt=1.0").corrupt_bit(0, 1, 7), 4208216566446173107);
    }

    #[test]
    fn probability_one_always_fires_and_priority_holds() {
        let sc = net("9:drop=1.0,corrupt=1.0");
        for s in 0..32 {
            assert_eq!(sc.decide(0, 1, s), Some(NetFault::Corrupt), "corrupt outranks drop");
        }
        assert_eq!(net("9:delay=1.0@25").decide(0, 1, 3), Some(NetFault::Delay(25)));
    }
}
