//! The pluggable-communicator seam: run the full SPMD stack over a custom
//! [`Transport`] implementation (here, an instrumented wrapper around the
//! default mpsc fabric) and check that collectives behave identically.

use ft_pblas::{pdlahrd, Desc, DistMatrix};
use ft_runtime::{run_spmd_with, CommError, FaultScript, MpscTransport, Msg, Transport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counts every message crossing the wire, fabric-wide, and every message
/// this endpoint's rank took delivery of.
struct CountingTransport {
    inner: MpscTransport,
    sends: Arc<AtomicU64>,
    delivered: Arc<AtomicU64>,
}

fn counting_fabric(world: usize, sends: &Arc<AtomicU64>) -> (Vec<Box<dyn Transport>>, Vec<Arc<AtomicU64>>) {
    let delivered: Vec<Arc<AtomicU64>> = (0..world).map(|_| Arc::default()).collect();
    let transports = MpscTransport::fabric(world)
        .into_iter()
        .zip(&delivered)
        .map(|(inner, d)| {
            Box::new(CountingTransport { inner, sends: Arc::clone(sends), delivered: Arc::clone(d) }) as Box<dyn Transport>
        })
        .collect();
    (transports, delivered)
}

impl Transport for CountingTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn world_size(&self) -> usize {
        self.inner.world_size()
    }
    fn send(&self, dst: usize, msg: Msg) {
        self.sends.fetch_add(1, Ordering::Relaxed);
        self.inner.send(dst, msg);
    }
    fn recv(&self, timeout: Duration) -> Result<Msg, CommError> {
        let msg = self.inner.recv(timeout)?;
        self.delivered.fetch_add(1, Ordering::Relaxed);
        Ok(msg)
    }
    fn reopen(&self) {
        self.inner.reopen()
    }
    fn is_peer_dead(&self, peer: usize) -> bool {
        self.inner.is_peer_dead(peer)
    }
}

#[test]
fn spmd_runs_unchanged_over_a_custom_transport() {
    let (p, q) = (2usize, 3usize);
    let sends = Arc::new(AtomicU64::new(0));
    let (transports, _) = counting_fabric(p * q, &sends);

    let out = run_spmd_with(p, q, FaultScript::none(), transports, |ctx| {
        let mut v = vec![ctx.rank() as f64];
        ctx.allreduce_sum_world(&mut v, 1);
        if ctx.rank() == 0 {
            ctx.send(5, 2, &[7.0]);
        }
        if ctx.rank() == 5 {
            assert_eq!(ctx.recv(0, 2), vec![7.0]);
        }
        v[0]
    });
    assert_eq!(out, vec![15.0; 6]);

    // The wrapper saw every message: the 16 of a six-member all-reduce
    // (rounds of 6, 4 and 6) + 1 p2p.
    assert_eq!(sends.load(Ordering::Relaxed), allreduce_msgs(6) + 1);
    assert_eq!(allreduce_msgs(6), 16);
}

/// Messages of one all-reduce over `n` members, as the module docs of
/// `collectives.rs` state it: each round delivers one message to every
/// member whose block of `2·mask` has both its halves.
fn allreduce_msgs(n: usize) -> u64 {
    let mut total = 0;
    let mut mask = 1;
    while mask < n {
        let t = n % (2 * mask);
        total += n - if 0 < t && t <= mask { t } else { 0 };
        mask *= 2;
    }
    total as u64
}

#[test]
fn allreduce_is_one_receive_per_round_and_sends_what_the_docs_say() {
    for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16] {
        let sends = Arc::new(AtomicU64::new(0));
        let (transports, delivered) = counting_fabric(n, &sends);
        let rounds = n.next_power_of_two().trailing_zeros() as u64;
        let received = run_spmd_with(1, n, FaultScript::none(), transports, move |ctx| {
            // Barriers are not messages; between them only the all-reduce
            // touches this rank's endpoint.
            ctx.barrier();
            let before = delivered[ctx.rank()].load(Ordering::Relaxed);
            let mut v = vec![1.0; 5];
            ctx.allreduce_sum_row(&mut v, 3);
            assert_eq!(v, vec![n as f64; 5]);
            let mine = delivered[ctx.rank()].load(Ordering::Relaxed) - before;
            ctx.barrier();
            mine
        });
        assert!(
            received.iter().all(|&r| r <= rounds),
            "n = {n}: a member received {received:?} times in {rounds} rounds"
        );
        assert_eq!(received.iter().sum::<u64>(), allreduce_msgs(n), "n = {n}: deliveries");
        assert_eq!(sends.load(Ordering::Relaxed), allreduce_msgs(n), "n = {n}: sends");
    }
    // Reduce-then-broadcast sent 2(n − 1): the same at two members, fewer
    // beyond — the price of half the hops.
    assert_eq!([2, 3, 4, 8, 16].map(allreduce_msgs), [2, 5, 8, 24, 64]);
}

#[test]
fn a_pdlahrd_column_is_log2_q_row_receives_per_rank() {
    // 1×4: process columns of one member exchange nothing, so every message
    // is a row collective's. A panel is one entry broadcast (one receive on
    // each non-owner, Q − 1 messages), then one rooted all-reduce per column
    // and one for Y_top: ⌈log₂ 4⌉ = 2 receives per rank each, `msgs(4)` = 8
    // messages — where a column was a broadcast of v and a reduce of the
    // products, 2(Q − 1) = 6 messages over 2⌈log₂ 4⌉ = 4 dependent hops.
    let (q, n, nb) = (4usize, 40usize, 4usize);
    let panel = |k: usize, w: usize| {
        let sends = Arc::new(AtomicU64::new(0));
        let (transports, delivered) = counting_fabric(q, &sends);
        let received = run_spmd_with(1, q, FaultScript::none(), transports, move |ctx| {
            let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
            ctx.barrier();
            let before = delivered[ctx.rank()].load(Ordering::Relaxed);
            pdlahrd(&ctx, &mut a, n, k, w);
            let mine = delivered[ctx.rank()].load(Ordering::Relaxed) - before;
            ctx.barrier();
            mine
        });
        (received, sends.load(Ordering::Relaxed))
    };
    for owner in 0..q {
        let k = owner * nb;
        let (full, full_sends) = panel(k, nb);
        let (short, short_sends) = panel(k, nb - 1);
        for rank in 0..q {
            assert_eq!(full[rank] - short[rank], 2, "owner {owner}: row receives of one column on rank {rank}");
            assert_eq!(
                full[rank],
                2 * (nb as u64 + 1) + u64::from(rank != owner),
                "owner {owner}: a panel's receives on rank {rank}"
            );
        }
        assert_eq!(full_sends - short_sends, allreduce_msgs(q), "owner {owner}: messages of one column");
        assert_eq!(
            full_sends,
            (nb as u64 + 1) * allreduce_msgs(q) + (q as u64 - 1),
            "owner {owner}: messages of a panel"
        );
    }
}
