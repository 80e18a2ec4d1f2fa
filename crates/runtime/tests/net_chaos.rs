//! Network-chaos storm battery: every injected wire fault the
//! [`FaultScript`] grammar can express, fired against real localhost TCP
//! fabrics, with one invariant throughout — **delivery is exactly-once,
//! in-order, and bitwise identical to the fault-free run, or the failure is
//! a typed error; never a hang, never silent corruption.**
//!
//! The battery is table-driven: each case is a `(name, spec-per-rank)` pair
//! run through the same all-to-all exchange, so adding a storm is one line.
//! Counter-level assertions (duplicates suppressed, CRC rejections, session
//! resumes) live in the focused tests below the table.

use ft_runtime::{CommError, FaultScript, Msg, NetFault, TcpTransport, Transport};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn msg(src: usize, wire: u64, vals: &[f64]) -> Msg {
    Msg { src, wire, epoch: 0, payload: Arc::from(vals) }
}

/// Deterministic frame body: mixes the source rank, the frame index, and an
/// irrational tail so any bit flip or cross-frame mixup breaks the bitwise
/// comparison.
fn body(src: usize, i: usize) -> Vec<f64> {
    vec![
        i as f64,
        (src * 10_000 + i) as f64,
        ((i + 1) as f64).sqrt() * (src + 2) as f64,
    ]
}

/// All-to-all exchange under chaos: every rank sends `frames` messages to
/// every other rank, then receives and checks each source's stream for
/// exact order and bitwise payload equality. Returns the endpoints so the
/// caller can inspect counters. Panics (with the case name) on any loss,
/// reorder, corruption, or hang.
fn storm(name: &str, world: usize, frames: usize, spec_of: impl Fn(usize) -> Option<String>) -> Vec<TcpTransport> {
    let eps = TcpTransport::fabric_localhost_with(world, |c| {
        c.hb_interval = Duration::from_millis(40);
        // A storm slows everyone down; nobody dies. Keep the death
        // threshold far away so slow is never misread as dead.
        c.hb_miss_limit = 500;
        if let Some(s) = spec_of(c.rank) {
            c.faults = FaultScript::parse(&s, c.world, 0..1).unwrap_or_else(|e| panic!("case {name}: bad spec: {e}"));
        }
    })
    .unwrap_or_else(|e| panic!("case {name}: fabric: {e}"));
    let name = name.to_string();
    let handles: Vec<_> = eps
        .into_iter()
        .map(|ep| {
            let name = name.clone();
            std::thread::spawn(move || {
                let me = ep.rank();
                let world = ep.world_size();
                for i in 0..frames {
                    for dst in 0..world {
                        if dst != me {
                            ep.send(dst, msg(me, 5, &body(me, i)));
                        }
                    }
                }
                let mut next = vec![0usize; world];
                for _ in 0..frames * (world - 1) {
                    let m = ep
                        .recv(Duration::from_secs(60))
                        .unwrap_or_else(|e| panic!("case {name}: rank {me} starved ({e}) — a frame was lost for good"));
                    let i = next[m.src];
                    next[m.src] += 1;
                    let want = body(m.src, i);
                    assert_eq!(m.payload.len(), want.len(), "case {name}: frame size changed on the wire");
                    for (got, exp) in m.payload.iter().zip(&want) {
                        assert_eq!(
                            got.to_bits(),
                            exp.to_bits(),
                            "case {name}: stream {}→{me} delivered wrong bits at index {i}",
                            m.src
                        );
                    }
                }
                // The storm must never escalate to a death verdict: every
                // fault here is recoverable by construction.
                for peer in 0..world {
                    if peer != me {
                        assert!(!ep.is_peer_dead(peer), "case {name}: rank {me} declared live peer {peer} dead");
                    }
                }
                ep
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().unwrap_or_else(|_| panic!("case {name}: a rank panicked")))
        .collect()
}

/// The storm table: ≥16 cases spanning every fault kind, alone and mixed,
/// one-sided and symmetric, at two and three ranks. Exact delivery under
/// each is the acceptance bar of DESIGN.md §16.
#[test]
fn storm_battery_delivers_bitwise_exact_under_every_fault_mix() {
    type Case = (&'static str, usize, usize, fn(usize) -> Option<String>);
    let cases: &[Case] = &[
        ("drop-light", 2, 48, |r| (r == 0).then(|| "1:drop=0.3".into())),
        ("drop-light-reseeded", 2, 48, |r| (r == 0).then(|| "2:drop=0.3".into())),
        ("drop-heavy", 2, 32, |r| (r == 0).then(|| "3:drop=0.6".into())),
        ("drop-symmetric", 2, 32, |_| Some("5:drop=0.4".into())),
        ("delay-half", 2, 32, |r| (r == 0).then(|| "8:delay=0.5@20".into())),
        ("delay-every-frame", 2, 24, |r| (r == 0).then(|| "13:delay=1.0@10".into())),
        ("dup-every-frame", 2, 48, |r| (r == 0).then(|| "21:dup=1.0".into())),
        ("dup-half-symmetric", 2, 48, |_| Some("34:dup=0.5".into())),
        ("reorder-half", 2, 48, |r| (r == 0).then(|| "2:reorder=0.5".into())),
        ("reorder-every-frame", 2, 32, |r| (r == 0).then(|| "3:reorder=1.0".into())),
        ("corrupt-light", 2, 48, |r| (r == 0).then(|| "5:corrupt=0.3".into())),
        ("corrupt-heavy", 2, 24, |r| (r == 0).then(|| "8:corrupt=0.6".into())),
        ("reset-storm", 2, 32, |r| (r == 0).then(|| "7:reset=0.4".into())),
        ("reset-symmetric", 2, 32, |_| Some("11:reset=0.2".into())),
        ("mixed-lossy", 2, 40, |r| (r == 0).then(|| "17:drop=0.2,dup=0.3,reorder=0.3".into())),
        ("mixed-hostile", 2, 32, |r| (r == 0).then(|| "19:corrupt=0.2,reset=0.2".into())),
        ("kitchen-sink-symmetric", 2, 32, |_| {
            Some("23:drop=0.15,delay=0.2@10,dup=0.2,reorder=0.2,corrupt=0.15,reset=0.1".into())
        }),
        ("three-rank-crossfire", 3, 24, |_| Some("37:drop=0.2,reorder=0.3,corrupt=0.1".into())),
        ("partition-heals", 2, 32, |r| (r == 0).then(|| "29:part=0-1@150+400".into())),
    ];
    assert!(cases.len() >= 16, "the battery must cover at least 16 storms");
    for (name, world, frames, spec) in cases {
        storm(name, *world, *frames, spec);
    }
}

/// Poll a counter until it reaches `want` or a 5 s deadline: the storm only
/// proves *delivery*; trailing duplicates/rejections may still be in flight
/// on the reader thread when the exchange completes.
fn wait_counter(read: impl Fn() -> u64, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let got = read();
        if got >= want || Instant::now() > deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Strict request/echo exchange with chaos on the 0→1 direction: at most
/// one data frame in flight at a time, so every sequenced frame's first
/// transmission hits a live, parser-aligned stream and its injection draw
/// is observable in the receiver's counters (a pipelined storm can discard
/// frames unparsed when an earlier rejection already condemned the
/// stream). One warmup exchange precedes the `frames` counted ones: the
/// first sequence may ride the connection-establishing replay, which is
/// injection-exempt by design.
fn lockstep(name: &'static str, frames: usize, spec: &str) -> Vec<TcpTransport> {
    let mut eps = TcpTransport::fabric_localhost_with(2, |c| {
        c.hb_interval = Duration::from_millis(40);
        c.hb_miss_limit = 500;
        if c.rank == 0 {
            c.faults = FaultScript::parse(spec, c.world, 0..1).unwrap_or_else(|e| panic!("case {name}: bad spec: {e}"));
        }
    })
    .unwrap_or_else(|e| panic!("case {name}: fabric: {e}"));
    let b = eps.remove(1);
    let a = eps.remove(0);
    let echo = std::thread::spawn(move || {
        for i in 0..=frames {
            let m = b
                .recv(Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("case {name}: echo rank starved ({e}) — a frame was lost for good"));
            let want = body(0, i);
            assert_eq!(m.payload.len(), want.len(), "case {name}: frame size changed on the wire");
            for (got, exp) in m.payload.iter().zip(&want) {
                assert_eq!(got.to_bits(), exp.to_bits(), "case {name}: corrupted payload delivered at index {i}");
            }
            b.send(0, msg(1, 6, &[i as f64]));
        }
        b
    });
    for i in 0..=frames {
        a.send(1, msg(0, 5, &body(0, i)));
        let m = a
            .recv(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("case {name}: echo for frame {i} never came back ({e})"));
        assert_eq!(m.payload[0].to_bits(), (i as f64).to_bits(), "case {name}: echoes out of order");
    }
    let b = echo.join().unwrap_or_else(|_| panic!("case {name}: echo rank panicked"));
    vec![a, b]
}

/// Every injected duplicate must be suppressed by the receiver's sequence
/// check — counted, never delivered (the battery already proved the
/// "never delivered" half bitwise). Lockstep keeps the stream alive the
/// whole way, so with `dup=1.0` each counted sequence yields exactly one
/// suppressed duplicate.
#[test]
fn injected_duplicates_are_counted_by_the_receiver() {
    let frames = 48;
    let eps = lockstep("dup-counted", frames, "21:dup=1.0");
    let dup = wait_counter(|| eps[1].stats().peers[0].dup_suppressed, frames as u64);
    assert!(dup >= frames as u64, "dup=1.0 duplicated {frames} frames but only {dup} were suppressed");
}

/// CRC detection is total: replay the deterministic schedule to count how
/// many first transmissions were corrupted, and require at least that many
/// typed CRC rejections. The header carries its own CRC over bytes 0..40
/// (checked before the length prefix is trusted) and the frame CRC covers
/// the rest, so *every* single-bit flip — length field included — lands in
/// `crc_rejects`, never in a desynchronized stream.
#[test]
fn injected_corruption_is_always_detected_by_crc() {
    let frames = 40;
    let spec = "5:corrupt=0.3";
    let eps = lockstep("corrupt-counted", frames, spec);
    let script = FaultScript::parse(spec, 2, 0..1).unwrap();
    // The warmup exchange holds sequence 1; counted draws are 2..=frames+1.
    let injected = (2..=frames as u64 + 1)
        .filter(|&s| script.decide(0, 1, s) == Some(NetFault::Corrupt))
        .count() as u64;
    assert!(injected > 0, "seed 5 at p=0.3 must corrupt something over {frames} frames");
    let rejected = wait_counter(|| eps[1].stats().peers[0].crc_rejects, injected);
    assert!(
        rejected >= injected,
        "{injected} frames were corrupted but only {rejected} CRC rejections were recorded — corruption slipped through"
    );
}

/// Scripted connection resets force the session-resume handshake; the
/// sender must record the resumes and the retransmitted window.
#[test]
fn resets_force_session_resume_with_replay() {
    let eps = storm("reset-counted", 2, 32, |r| (r == 0).then(|| "7:reset=0.4".into()));
    let c = &eps[0].stats().peers[1];
    assert!(c.resumes >= 1, "reset=0.4 over 32 frames never resumed a session");
    assert!(c.retransmits >= 1, "a resumed session must replay its unacknowledged window");
}

/// An injected drop with traffic behind it: the next frame shows the
/// receiver a sequence gap, the receiver closes the connection, and the
/// session resume replays from the gap — the same repair a reset takes,
/// every payload once, in order, bitwise (checked by `storm`).
#[test]
fn a_gap_closes_the_connection_and_the_resume_replays_it() {
    let eps = storm("drop-counted", 2, 32, |r| (r == 0).then(|| "1:drop=0.3".into()));
    let c = &eps[0].stats().peers[1];
    assert!(c.resumes >= 1, "drop=0.3 over 32 frames never resumed a session");
    assert!(c.retransmits >= 1, "a resumed session must replay the dropped frame");
}

/// A dropped *final* frame has nothing behind it to expose the gap: the
/// sender's stale bound — `max(2·hb, 200 ms)` on the unACKed window head —
/// drops the stream, and one reconnect replays that one frame. One bound
/// plus a handshake, not a ladder of rounds.
#[test]
fn a_dropped_final_frame_is_healed_by_one_stale_bound_and_one_resume() {
    let (spec, hb) = ("3:drop=0.2", Duration::from_millis(200));
    let script = FaultScript::parse(spec, 2, 0..1).unwrap();
    // Send up to and including the first sequence the script drops.
    let last = (1..).find(|&s| script.decide(0, 1, s) == Some(NetFault::Drop)).unwrap();
    assert!((2..64).contains(&last), "seed 3 at p=0.2 should first drop a frame after the first");
    let mut eps = TcpTransport::fabric_localhost_with(2, |c| {
        c.hb_interval = hb;
        if c.rank == 0 {
            c.faults = script.clone();
        }
    })
    .unwrap();
    let b = eps.remove(1);
    let a = eps.remove(0);
    let t0 = Instant::now();
    for i in 0..last as usize {
        a.send(1, msg(0, 5, &body(0, i)));
    }
    for i in 0..last as usize {
        let m = b
            .recv(Duration::from_secs(60))
            .expect("the dropped final frame was lost for good");
        let same = m
            .payload
            .iter()
            .zip(&body(0, i))
            .all(|(got, exp)| got.to_bits() == exp.to_bits());
        assert!(same, "stream delivered wrong bits at index {i}");
    }
    let healed = t0.elapsed();
    // The bound is 2·hb here and a parked link thread looks once a beat.
    assert!(healed >= 2 * hb, "healed in {healed:?}: the final frame was never dropped");
    assert!(healed < 6 * hb, "healed in {healed:?}: more than one stale bound");
    let (tx, rx) = (&a.stats().peers[1], &b.stats().peers[0]);
    assert_eq!((tx.resumes, tx.retransmits), (1, 1), "one resume replays the one unACKed frame");
    assert_eq!((rx.dup_suppressed, rx.crc_rejects), (0, 0), "the repair was not exactly-once");
}

/// A partition that heals inside the liveness budget is a slow network,
/// not a death: delivery completes (checked by the battery case) and no
/// rank is marked dead afterwards — here we additionally require the
/// healed link to have actually moved frames in both directions.
#[test]
fn healed_partition_resumes_both_directions() {
    let frames = 24;
    let eps = storm("partition-heal-counted", 2, frames, |_| Some("43:part=0-1@100+300,part=1-0@100+300".into()));
    for ep in &eps {
        let peer = 1 - ep.rank();
        let c = &ep.stats().peers[peer];
        assert!(
            c.frames_rx >= frames as u64,
            "rank {} received only {} frames from {peer} after the heal",
            ep.rank(),
            c.frames_rx
        );
    }
}

/// An unhealed partition must surface as a *typed* timeout on the starved
/// side, inside the configured budget — and the blackholed sender must keep
/// accepting sends without blocking (fail-stop semantics, not backpressure
/// into the solver).
#[test]
fn permanent_partition_is_a_typed_timeout_not_a_hang() {
    let mut eps = TcpTransport::fabric_localhost_with(2, |c| {
        c.hb_interval = Duration::from_millis(40);
        c.hb_miss_limit = 500;
        if c.rank == 0 {
            c.faults = FaultScript::parse("41:part=0-1@0", c.world, 0..1).unwrap();
        }
    })
    .unwrap();
    let b = eps.remove(1);
    let a = eps.remove(0);
    let t0 = Instant::now();
    for i in 0..16 {
        a.send(1, msg(0, 5, &body(0, i)));
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "send into a blackhole blocked the caller for {:?}",
        t0.elapsed()
    );
    let t1 = Instant::now();
    match b.recv(Duration::from_millis(1500)) {
        Err(CommError::Timeout) => {}
        other => panic!("expected a typed timeout across the partition, got {other:?}"),
    }
    assert!(t1.elapsed() < Duration::from_secs(10), "typed timeout took {:?} — effectively a hang", t1.elapsed());
    // The reverse direction is NOT partitioned: rank 1 → rank 0 still flows.
    b.send(0, msg(1, 5, &body(1, 0)));
    let m = a
        .recv(Duration::from_secs(20))
        .expect("unpartitioned direction must still deliver");
    assert_eq!(m.src, 1);
}

/// Head-of-line delays just under the suspicion threshold must never
/// escalate past "suspected": the grace protocol rescinds, nobody dies,
/// and delivery stays exact. This is the slow-vs-dead discrimination
/// contract at the transport level.
#[test]
fn sub_grace_delays_are_suspected_at_most_never_fatal() {
    let frames = 16;
    // hb 40 ms, delay 70 ms ≈ 1.75 × hb: inside the 2×hb suspicion window
    // per frame, but stacked delays starve the link well past one beat.
    let eps = storm("sub-grace-delay", 2, frames, |r| (r == 0).then(|| "47:delay=1.0@70".into()));
    for ep in &eps {
        let peer = 1 - ep.rank();
        assert!(!ep.is_peer_dead(peer), "a delayed-but-alive peer was declared dead");
    }
}
