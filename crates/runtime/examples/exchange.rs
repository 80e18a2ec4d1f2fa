//! Exchange probe: the cost of one round of the Q = 2 row exchange — both
//! ranks send to each other, then both receive — on the in-process channel
//! fabric and on the loopback TCP transport, at the payloads the workloads
//! send (8 words: a norm or α scalar with padding; 384: one `hess_tcp`
//! column; 1024: one `hess_dense` column).
//!
//! ```text
//! cargo run --release -p ft-runtime --example exchange
//! ```
//!
//! Prints, per transport and payload, the median and quartiles of a round
//! and the median of the `send` call alone, in µs, as rank 0 sees them.

use ft_runtime::{run_spmd, run_spmd_with, FaultScript, Tag, TcpTransport, Transport};
use std::time::{Duration, Instant};

const WARM: usize = 200;
const ROUNDS: usize = 2000;

/// Rank 0's `(round, send)` times in µs, one pair per timed round.
fn exchange(ctx: ft_runtime::Ctx, words: usize) -> Vec<(f64, f64)> {
    let peer = 1 - ctx.rank();
    let buf = vec![1.0f64; words];
    let mut laps = Vec::with_capacity(ROUNDS);
    ctx.barrier();
    for round in 0..WARM + ROUNDS {
        let t0 = Instant::now();
        ctx.send(peer, Tag::User(1), &buf);
        let t1 = Instant::now();
        let got = ctx.recv(peer, Tag::User(1));
        let t2 = Instant::now();
        assert_eq!(got.len(), words);
        if round >= WARM {
            laps.push(((t2 - t0).as_secs_f64() * 1e6, (t1 - t0).as_secs_f64() * 1e6));
        }
    }
    ctx.barrier();
    laps
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    println!("# transport words round_us_p50 round_us_p25 round_us_p75 send_us_p50");
    for transport in ["mpsc", "tcp"] {
        for words in [8usize, 384, 1024] {
            let body = |ctx| exchange(ctx, words);
            let mut ranks = if transport == "mpsc" {
                run_spmd(1, 2, FaultScript::none(), body)
            } else {
                let fabric = TcpTransport::fabric_localhost_with(2, |cfg| {
                    cfg.hb_interval = Duration::from_millis(100);
                    cfg.hb_miss_limit = 600;
                })
                .expect("bind a loopback fabric");
                let endpoints = fabric.into_iter().map(|t| Box::new(t) as Box<dyn Transport>).collect();
                run_spmd_with(1, 2, FaultScript::none(), endpoints, body)
            };
            let laps = ranks.swap_remove(0);
            let mut round: Vec<f64> = laps.iter().map(|l| l.0).collect();
            let mut send: Vec<f64> = laps.iter().map(|l| l.1).collect();
            round.sort_by(f64::total_cmp);
            send.sort_by(f64::total_cmp);
            println!(
                "{transport} {words} {:.2} {:.2} {:.2} {:.2}",
                quantile(&round, 0.5),
                quantile(&round, 0.25),
                quantile(&round, 0.75),
                quantile(&send, 0.5)
            );
        }
    }
}
