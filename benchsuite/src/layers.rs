//! The traced run: per-layer metrics of one workload, all read from outside
//! the crates.
//!
//! Three parts. (1) Traced reps: each leg once per rep, with decorated
//! endpoints ([`crate::timed`]), the bench's own plain loop
//! ([`crate::loops`]) and the FT drivers' phase hook stamping spans
//! ([`crate::spans`]); an untraced ft leg beside them gives
//! `trace_overhead`. (2) Isolated replays: the dense kernels at the shapes
//! the workload's grid issues, a memory-bandwidth triad, the sequential
//! LAPACK-style solve, and wire micro-benchmarks on the workload's fabric.
//! (3) On `serve_mix`, a closed loop with client stamps and the daemon's
//! stdout markers.
//!
//! The run checks its own books: per rank, the hook spans must add up to
//! the driver's wall within 2 %, and the decorator's message and byte
//! counts must equal the runtime's ledger exactly.

use crate::cpu::cores;
use crate::e2e::RunCfg;
use crate::json::Value;
use crate::metrics::PER_LAYER;
use crate::report::{Metric, Report};
use crate::samples::Samples;
use crate::serve::{closed_loop, target_dir, Daemon, LoopLength};
use crate::spans::{self, Span};
use crate::spmd::{boxed, run_leg, tcp_fabric, Fabric, Leg, LegOpts, LegRun, Shape, Solver};
use crate::workloads::{ServeMix, Workload};
use ft_dense::gen::uniform_indexed_matrix;
use ft_dense::level2::gemv;
use ft_dense::level3::gemm;
use ft_dense::Trans;
use ft_lapack::gehrd;
use ft_lapack::qr::geqrf;
use ft_pblas::numroc;
use ft_runtime::{run_spmd, run_spmd_with, Ctx, FaultScript, TrafficPhase};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where the span file goes unless `--trace-out` says otherwise:
/// `<target dir>/benchmark/<workload>.trace.jsonl`.
pub fn default_trace_path(workload: &str) -> PathBuf {
    target_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("benchmark")
        .join(format!("{workload}.trace.jsonl"))
}

/// Bytes of the largest cache cpu0 reports, if the platform exposes it.
fn llc_bytes() -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for e in std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(e.path().join(f)).ok();
        let Some(level) = read("level").and_then(|v| v.trim().parse::<usize>().ok()) else {
            continue;
        };
        let Some(size) = read("size").and_then(|v| {
            let v = v.trim();
            let (num, mult) = match v.as_bytes().last()? {
                b'K' => (&v[..v.len() - 1], 1 << 10),
                b'M' => (&v[..v.len() - 1], 1 << 20),
                b'G' => (&v[..v.len() - 1], 1 << 30),
                _ => (v, 1),
            };
            num.parse::<usize>().ok().map(|n| n * mult)
        }) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, size)| size)
}

/// The machine and build a result was taken on — recorded in every `--out`
/// file, because none of the numbers mean anything without it.
pub fn machine_json() -> Value {
    let blocking = ft_dense::level3::blocking();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    Value::obj([
        ("nproc", Value::Num(cores() as f64)),
        ("isa", Value::str(ft_dense::simd::active_isa().name())),
        ("gemm_threads", Value::Num(ft_dense::pool::active_threads() as f64)),
        (
            "blocking_kc_mc_nc",
            Value::Arr([blocking.kc, blocking.mc, blocking.nc].map(|v| Value::Num(v as f64)).to_vec()),
        ),
        ("llc_bytes", llc_bytes().map_or(Value::Null, |b| Value::Num(b as f64))),
        ("commit", Value::str(commit)),
    ])
}

/// Per-layer values collected during a traced run: every sample of every
/// metric, by name. A metric's reported value is the median of its samples.
#[derive(Default)]
struct Collected {
    series: BTreeMap<&'static str, Vec<f64>>,
}

impl Collected {
    fn push(&mut self, name: &'static str, v: f64) {
        self.series.entry(name).or_default().push(v);
    }

    fn median(&self, name: &str) -> f64 {
        self.series.get(name).map_or(0.0, |v| Samples::new(v.clone()).median())
    }
}

/// Largest per-rank total of the spans called `name`.
fn slowest_rank_secs(run: &LegRun, name: &str) -> f64 {
    run.ranks.iter().map(|r| spans::total_secs(&r.spans, name)).fold(0.0, f64::max)
}

/// The books of one traced fault-free FT leg: hook spans against the
/// driver's own wall, decorator counts against the runtime's ledger.
fn check_accounting(run: &LegRun, problems: &mut Vec<String>) {
    for (rank, r) in run.ranks.iter().enumerate() {
        let Some(Ok(report)) = &r.report else { continue };
        let spanned: f64 = ["core.encode", "core.panel", "core.right", "core.left", "core.scope"]
            .iter()
            .map(|name| spans::total_secs(&r.spans, name))
            .sum();
        let gap = (spanned - report.total_secs).abs() / report.total_secs;
        if gap > 0.02 {
            problems.push(format!(
                "span accounting: rank {rank} spans sum to {spanned:.6} s, driver wall is {:.6} s ({:.1} % apart)",
                report.total_secs,
                gap * 100.0
            ));
        }
        let wire = &run.wire_times[rank];
        if (wire.msgs(), wire.bytes()) != (r.traffic.total_msgs(), r.traffic.total_bytes()) {
            problems.push(format!(
                "traffic accounting: rank {rank} decorator saw {} msgs / {} bytes, ctx.traffic() says {} / {}",
                wire.msgs(),
                wire.bytes(),
                r.traffic.total_msgs(),
                r.traffic.total_bytes()
            ));
        }
    }
}

/// Part 1: the traced reps.
fn traced_reps(
    shape: &Shape,
    cfg: &RunCfg,
    budget: f64,
    epoch: Instant,
    c: &mut Collected,
) -> (Vec<Span>, u64, u64, Vec<String>) {
    let mut problems = Vec::new();
    let mut first_spans = Vec::new();
    let (mut ops, mut failed) = (0u64, 0u64);
    let mut solve_id = 0u32;
    let mut reference: Option<Vec<u64>> = None;
    let started = Instant::now();
    for rep in 1.. {
        let mut leg = |leg: Leg, traced: bool| {
            let opts = LegOpts { verify: false, traced: traced.then_some((epoch, solve_id)) };
            solve_id += 1;
            let run = run_leg(shape, leg, cfg.seed, opts);
            ops += 1;
            // Fault-free legs all produce the plain factor, bit for bit.
            let fault_free = leg.expected_recoveries() == 0 && leg != Leg::Delayed;
            let same = !fault_free || *reference.get_or_insert_with(|| run.hashes()) == run.hashes();
            if !run.ok(leg) || !same {
                failed += 1;
            }
            run
        };
        let ft_ref = leg(Leg::Ft, false);
        let scrubbed = leg(Leg::Scrubbed, false);
        let plain = leg(Leg::Plain, true);
        let ft = leg(Leg::Ft, true);
        let recover = leg(Leg::Recover, true);
        let coded2 = (shape.q >= 4).then(|| leg(Leg::Coded2, false));

        c.push("pblas.panel_s", slowest_rank_secs(&plain, "pblas.panel"));
        c.push("pblas.update_s", slowest_rank_secs(&plain, "pblas.update"));
        c.push("plain_solve_s", plain.solve_s);
        c.push("dense.flops_plain", plain.flops as f64);
        c.push("dense.gemm_calls_plain", plain.gemm_calls as f64);

        for (metric, span) in [
            ("core.encode_s", "core.encode"),
            ("core.panel_s", "core.panel"),
            ("core.right_s", "core.right"),
            ("core.left_s", "core.left"),
            ("core.scope_s", "core.scope"),
        ] {
            c.push(metric, slowest_rank_secs(&ft, span));
        }
        let reports: Vec<_> = ft.ranks.iter().filter_map(|r| r.report.as_ref()?.as_ref().ok()).collect();
        let slowest = |f: fn(&ft_hess::FtReport) -> f64| reports.iter().map(|r| f(r)).fold(0.0, f64::max);
        c.push("core.snapshot_s", slowest(|r| r.snapshot_secs));
        c.push("core.bookkeeping_s", slowest(|r| r.bookkeeping_secs));
        c.push("core.scope_end_s", slowest(|r| r.scope_end_secs));
        c.push("dense.flops_ft", ft.flops as f64);
        c.push("dense.gemm_calls_ft", ft.gemm_calls as f64);
        c.push("dense.pool_jobs", ft.pool_jobs as f64);
        c.push("core.storage_overhead", ft.ranks[0].encoded_elems as f64 / (shape.n * shape.n) as f64);

        // The rank that waited longest, and that wait as a share of its
        // own driver wall.
        let waits: Vec<f64> = ft.wire_times.iter().map(|w| w.recv_secs()).collect();
        let (slow_rank, wait) = waits
            .iter()
            .copied()
            .enumerate()
            .fold((0, 0.0), |a, b| if b.1 > a.1 { b } else { a });
        c.push("runtime.recv_wait_s", wait);
        c.push("runtime.recv_wait_share", reports.get(slow_rank).map_or(0.0, |r| wait / r.total_secs));
        c.push("runtime.send_s", ft.wire_times.iter().map(|w| w.send_secs()).fold(0.0, f64::max));
        c.push("runtime.msgs", ft.wire_times.iter().map(|w| w.msgs()).sum::<u64>() as f64);
        c.push("runtime.bytes", ft.wire_times.iter().map(|w| w.bytes()).sum::<u64>() as f64);
        let ledger = ft.traffic();
        c.push("runtime.bytes.panel", ledger.phase(TrafficPhase::Panel).bytes as f64);
        c.push("runtime.bytes.trailing-update", ledger.phase(TrafficPhase::TrailingUpdate).bytes as f64);
        c.push("runtime.bytes.checksum-update", ledger.phase(TrafficPhase::ChecksumUpdate).bytes as f64);
        c.push("runtime.bytes.checkpoint", ledger.phase(TrafficPhase::Checkpoint).bytes as f64);
        c.push("runtime.bytes.recovery", recover.traffic().phase(TrafficPhase::Recovery).bytes as f64);
        c.push("runtime.teardown_s", ft.teardown_s);
        let wire = ft.ranks.iter().fold(ft_runtime::PeerCounters::default(), |mut acc, r| {
            acc.merge(&r.wire);
            acc
        });
        c.push("runtime.frames_tx", wire.frames_tx as f64);
        c.push("runtime.retransmits", wire.retransmits as f64);
        c.push("runtime.hb_misses", wire.hb_misses as f64);

        if let Some(Ok(r)) = &recover.ranks[0].report {
            c.push("core.recoveries", r.recoveries as f64);
        }
        let recovery_secs = |run: &LegRun| {
            run.ranks
                .iter()
                .filter_map(|r| r.report.as_ref()?.as_ref().ok())
                .map(|r| r.recovery_secs)
                .fold(0.0, f64::max)
        };
        c.push("core.recovery_s", recovery_secs(&recover));
        c.push("core.scrub_overhead", scrubbed.solve_s / ft_ref.solve_s);
        if let Some(coded2) = &coded2 {
            c.push("core.coded2_solve_s", coded2.solve_s);
            c.push("core.coded2_recovery_s", recovery_secs(coded2));
        }
        c.push("ft_solve_s.untraced", ft_ref.solve_s);
        c.push("ft_solve_s.traced", ft.solve_s);

        check_accounting(&ft, &mut problems);
        if rep == 1 {
            for run in [&plain, &ft, &recover] {
                first_spans.extend(run.ranks.iter().flat_map(|r| r.spans.iter().cloned()));
            }
        }
        if cfg.enough_reps(rep, started, budget) {
            break;
        }
    }
    // Exact counts must repeat exactly at a fixed seed.
    for name in [
        "dense.flops_plain",
        "dense.flops_ft",
        "runtime.msgs",
        "runtime.bytes",
        "runtime.bytes.recovery",
    ] {
        let v = &c.series[name];
        if v.iter().any(|x| *x != v[0]) {
            problems.push(format!("{name} did not repeat exactly across reps: {v:?}"));
        }
    }
    (first_spans, ops, failed, problems)
}

/// Median seconds of one call of `f`: a warm-up call, then at least three
/// calls and at least 30 ms of them.
fn median_secs(mut f: impl FnMut()) -> f64 {
    f();
    let mut times = Vec::new();
    let started = Instant::now();
    while times.len() < 3 || started.elapsed() < Duration::from_millis(30) {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    Samples::new(times).median()
}

/// One GEMM at `(m, n, k)`, alone: `(2·m·n·k flops, median seconds of a
/// call)`; `(0, 0)` for an empty shape.
fn gemm_work(ta: Trans, tb: Trans, m: usize, n: usize, k: usize) -> (f64, f64) {
    if m == 0 || n == 0 || k == 0 {
        return (0.0, 0.0);
    }
    let fill = |len: usize| (0..len).map(|i| (i % 17) as f64 * 0.0625 - 0.5).collect::<Vec<f64>>();
    let (a_rows, a_cols) = if ta == Trans::No { (m, k) } else { (k, m) };
    let (b_rows, b_cols) = if tb == Trans::No { (k, n) } else { (n, k) };
    let (a, b) = (fill(a_rows * a_cols), fill(b_rows * b_cols));
    let mut c = fill(m * n);
    let secs = median_secs(|| {
        gemm(ta, tb, m, n, k, -1.0, black_box(&a), a_rows, black_box(&b), b_rows, 1.0, &mut c, m);
        black_box(&mut c);
    });
    (2.0 * (m * n * k) as f64, secs)
}

/// Local trailing-matrix shapes process (0, 0) of the workload's grid sees
/// at panel 0 and at the middle panel: `(all_rows, left_rows, cols)`.
fn trailing_shapes(shape: &Shape) -> Vec<(usize, usize, usize)> {
    let Shape { solver, p, q, n, nb, .. } = *shape;
    let off = if solver == Solver::Hess { 1 } else { 0 };
    [0, shape.panels() / 2]
        .into_iter()
        .map(|panel| {
            let k = panel * nb;
            let all_rows = numroc(n, nb, 0, p);
            let left_rows = all_rows - numroc((k + off).min(n), nb, 0, p);
            let cols = numroc(n, nb, 0, q) - numroc((k + nb).min(n), nb, 0, q);
            (all_rows, left_rows, cols)
        })
        .collect()
}

/// Part 2a: the dense kernels, alone, at the workload's shapes.
fn dense_replays(shape: &Shape, c: &mut Collected, notes: &mut Vec<String>) {
    let nb = shape.nb;
    let shapes = trailing_shapes(shape);
    // One number per kernel: flops (or bytes) summed over the two shapes
    // over seconds summed.
    let rate = |parts: Vec<(f64, f64)>| {
        let (work, secs) = parts.into_iter().fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
        if secs > 0.0 {
            work / secs * 1e-9
        } else {
            0.0
        }
    };
    let (flops, secs) = gemm_work(Trans::No, Trans::No, 512, 512, 512);
    c.push("dense.gemm_peak_gflops", flops / secs * 1e-9);
    if shape.solver == Solver::Hess {
        // A ← A − Y·Vᵀ: (rows × nb)·(nb × cols). QR has no right update.
        c.push(
            "dense.gemm_right_gflops",
            rate(
                shapes
                    .iter()
                    .map(|&(m, _, n)| gemm_work(Trans::No, Trans::Yes, m, n, nb))
                    .collect(),
            ),
        );
    }
    // W = Vᵀ·C: (nb × rows)·(rows × cols); then C ← C − V·W.
    c.push(
        "dense.gemm_left_tn_gflops",
        rate(
            shapes
                .iter()
                .map(|&(_, m, n)| gemm_work(Trans::Yes, Trans::No, nb, n, m))
                .collect(),
        ),
    );
    c.push(
        "dense.gemm_left_nn_gflops",
        rate(
            shapes
                .iter()
                .map(|&(_, m, n)| gemm_work(Trans::No, Trans::No, m, n, nb))
                .collect(),
        ),
    );
    // The tall-skinny checksum strip: one block column updated with the
    // panel's reflectors, below the 2²¹-flop threading gate.
    c.push(
        "dense.gemm_chk_gflops",
        rate(
            shapes
                .iter()
                .map(|&(m, _, _)| gemm_work(Trans::No, Trans::Yes, m, nb, nb))
                .collect(),
        ),
    );
    for (name, trans) in [("dense.gemv_gbs", Trans::No), ("dense.gemv_t_gbs", Trans::Yes)] {
        let parts = shapes
            .iter()
            .filter(|&&(_, m, n)| m > 0 && n > 0)
            .map(|&(_, m, n)| {
                let a: Vec<f64> = (0..m * n).map(|i| (i % 13) as f64 * 0.125 - 0.75).collect();
                let (xlen, ylen) = if trans == Trans::No { (n, m) } else { (m, n) };
                let x = vec![0.5; xlen];
                let mut y = vec![0.0; ylen];
                let secs = median_secs(|| {
                    gemv(trans, m, n, 1.0, black_box(&a), m, &x, 0.0, &mut y);
                    black_box(&mut y);
                });
                (8.0 * (m * n) as f64, secs)
            })
            .collect();
        c.push(name, rate(parts));
    }
    notes.push(format!(
        "dense replays at process (0,0), panel 0 and middle panel: (rows, left rows, cols) = {shapes:?}, k = nb = {nb}"
    ));
}

/// Largest triad array the suite allocates. Four times the last-level cache
/// is the rule; a VM that reports its host's whole L3 (260 MiB on the box
/// this was written on) would need 3 GiB of fresh pages per run, and
/// faulting those in costs more than everything else in the traced run.
const STREAM_CAP_BYTES: usize = 128 << 20;

/// Part 2b: sustainable memory bandwidth, a triad over three arrays of four
/// times the last-level cache each (capped, with both sizes printed).
fn stream_triad(c: &mut Collected, notes: &mut Vec<String>, smoke: bool) {
    let llc = llc_bytes().unwrap_or(8 << 20);
    let bytes = if smoke { 4 << 20 } else { (4 * llc).min(STREAM_CAP_BYTES) };
    let len = bytes / 8;
    let b = vec![1.0f64; len];
    let cc = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&cc) {
            *a = *b + 3.0 * *c;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    c.push("dense.stream_gbs", 3.0 * bytes as f64 / best * 1e-9);
    notes.push(format!(
        "stream triad: 3 arrays of {} MiB each, last-level cache {} MiB{}",
        bytes >> 20,
        llc >> 20,
        if bytes < 4 * llc { " (arrays capped below 4x the cache)" } else { "" }
    ));
}

/// Part 2c: the sequential solve at the workload's N and nb — the
/// single-threaded baseline parallel efficiency is taken against.
fn lapack_baseline(shape: &Shape, seed: u64, c: &mut Collected) {
    let n = shape.n;
    let mut a = uniform_indexed_matrix(n, n, seed);
    let mut tau = vec![0.0; n];
    let t = Instant::now();
    match shape.solver {
        Solver::Hess => gehrd(&mut a, shape.nb, &mut tau),
        Solver::Qr => geqrf(&mut a, shape.nb, &mut tau),
    }
    black_box(&a);
    let secs = t.elapsed().as_secs_f64();
    c.push("lapack.seq_solve_s", secs);
    c.push("lapack.seq_gflops", shape.model_flops() / secs * 1e-9);
}

/// Part 2d: the wire alone, on the workload's fabric and grid: one-way
/// latency of a one-word message (half a round trip between ranks 0 and
/// 1), bandwidth of 1 MiB messages, and a row broadcast of one panel's
/// worth of reflectors.
fn wire_micro(shape: &Shape, c: &mut Collected, smoke: bool) {
    let (p, q) = (shape.p, shape.q);
    let panel_words = shape.nb * numroc(shape.n, shape.nb, 0, p);
    let (pings, blasts, bcasts) = if smoke { (20, 2, 5) } else { (200, 16, 50) };
    let body = move |ctx: Ctx| {
        let me = ctx.rank();
        ctx.barrier();
        let t = Instant::now();
        for _ in 0..pings {
            match me {
                0 => {
                    ctx.send(1, 1, &[1.0]);
                    ctx.recv(1, 2);
                }
                1 => {
                    ctx.recv(0, 1);
                    ctx.send(0, 2, &[1.0]);
                }
                _ => {}
            }
        }
        let pingpong_us = t.elapsed().as_secs_f64() / pings as f64 / 2.0 * 1e6;

        let mib = vec![0.25f64; (1 << 20) / 8];
        ctx.barrier();
        let t = Instant::now();
        match me {
            0 => {
                for _ in 0..blasts {
                    ctx.send(1, 3, &mib);
                }
                ctx.recv(1, 4);
            }
            1 => {
                for _ in 0..blasts {
                    black_box(ctx.recv(0, 3));
                }
                ctx.send(0, 4, &[1.0]);
            }
            _ => {}
        }
        let bw_gbs = (blasts << 20) as f64 / t.elapsed().as_secs_f64() * 1e-9;

        let mut panel = vec![0.5f64; panel_words];
        ctx.barrier();
        let t = Instant::now();
        for _ in 0..bcasts {
            ctx.bcast_row(0, &mut panel, 5);
        }
        ctx.barrier();
        let bcast_row_us = t.elapsed().as_secs_f64() / bcasts as f64 * 1e6;
        (pingpong_us, bw_gbs, bcast_row_us)
    };
    let out = match shape.fabric {
        Fabric::Mpsc => run_spmd(p, q, FaultScript::none(), body),
        Fabric::Tcp => run_spmd_with(p, q, FaultScript::none(), boxed(tcp_fabric(p * q)), body),
    };
    c.push("runtime.pingpong_us", out[0].0);
    c.push("runtime.bw_gbs", out[0].1);
    c.push("runtime.bcast_row_us", out[0].2);
}

/// Part 3: one daemon, one stamped closed loop. Returns `(jobs, failed)`.
fn serve_layers(mix: &ServeMix, cfg: &RunCfg, budget: f64, c: &mut Collected) -> Result<(u64, u64), String> {
    let (daemon, _) = Daemon::spawn(cfg.daemon()?, mix.pool)?;
    let length = if cfg.smoke {
        LoopLength::Jobs(8 / mix.clients)
    } else {
        LoopLength::For(Duration::from_secs_f64(budget))
    };
    let records = closed_loop(&daemon, mix, cfg.seed, length, true)?;
    let assigned = daemon.marker_times("FT_SERVE_ASSIGN");
    let resulted = daemon.marker_times("FT_SERVE_RESULT");
    daemon.shutdown()?;
    let ms = |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e3;
    let (mut jobs, mut failed, mut rejects) = (0, 0, 0);
    let mut latency_ms = Vec::new();
    for r in records.iter().filter(|r| !r.warmup) {
        jobs += 1;
        latency_ms.push(r.latency_ms());
        if !r.correct() {
            failed += 1;
        }
        let Ok(result) = &r.outcome else {
            rejects += 1;
            continue;
        };
        let (Some(accepted), Some(job)) = (r.accepted, r.job) else {
            continue;
        };
        let (Some(&assign), Some(&done)) = (assigned.get(&job), resulted.get(&job)) else {
            continue;
        };
        c.push("serve.accept_ms", ms(r.submitted, accepted));
        c.push("serve.queue_ms", ms(r.submitted, assign));
        c.push("serve.solve_ms", result.wall_ms);
        c.push("serve.fabric_ms", ms(assign, done) - result.wall_ms);
        // The daemon writes the reply before it prints the marker, so the
        // two can arrive in either order: a reply that beat its marker
        // counts as 0.
        c.push("serve.reply_ms", ms(done, r.finished));
    }
    c.push("serve.rejects", rejects as f64);
    // The tail a tenant sees: the one place a run has the samples for it
    // (a hundred and more jobs; the in-process workloads time a dozen).
    c.push("serve.job_p90_ms", Samples::new(latency_ms).quantile(0.9));
    Ok((jobs, failed))
}

/// Run `w` traced and report every per-layer metric.
pub fn run(w: &Workload, cfg: &RunCfg, trace_out: &Path) -> Result<Report, String> {
    let shape = &w.shape;
    let mut c = Collected::default();
    let mut notes = Vec::new();
    let epoch = Instant::now();
    // Traced reps get most of the run; the replays are short and fixed.
    let reps_share = if w.serve.is_some() { 0.35 } else { 0.7 };
    let (first_spans, mut ops, mut failed, problems) = traced_reps(shape, cfg, cfg.seconds * reps_share, epoch, &mut c);
    spans::write_jsonl(trace_out, &first_spans).map_err(|e| format!("{}: {e}", trace_out.display()))?;
    notes.push(format!("wrote {} spans of the first traced rep to {}", first_spans.len(), trace_out.display()));

    dense_replays(shape, &mut c, &mut notes);
    stream_triad(&mut c, &mut notes, cfg.smoke);
    lapack_baseline(shape, cfg.seed, &mut c);
    wire_micro(shape, &mut c, cfg.smoke);
    if let Some(mix) = &w.serve {
        let (jobs, bad) = serve_layers(mix, cfg, cfg.seconds * 0.35, &mut c)?;
        ops += jobs;
        failed += bad;
    }

    // Derived ratios, each over stated bases.
    let plain = c.median("plain_solve_s");
    let (panel, update) = (c.median("pblas.panel_s"), c.median("pblas.update_s"));
    c.push("pblas.panel_share", panel / (panel + update));
    if shape.ranks() <= cores() {
        c.push("pblas.par_efficiency", c.median("lapack.seq_solve_s") / (shape.ranks() as f64 * plain));
    } else {
        notes.push(format!(
            "pblas.par_efficiency reads 0: {} ranks on {} cores measure the scheduler",
            shape.ranks(),
            cores()
        ));
    }
    c.push("core.flop_overhead", c.median("dense.flops_ft") / c.median("dense.flops_plain") - 1.0);
    c.push("core.chk_maintenance_s", c.median("core.right_s") + c.median("core.left_s") - update);
    c.push("trace_overhead", c.median("ft_solve_s.traced") / c.median("ft_solve_s.untraced"));

    let metrics = PER_LAYER
        .iter()
        .map(|m| match c.series.get(m.name) {
            Some(v) if v.len() > 1 => Metric::median(m.name, m.unit, Samples::new(v.clone())),
            Some(v) => Metric::single(m.name, m.unit, v[0]),
            None => Metric::single(m.name, m.unit, 0.0),
        })
        .collect();
    notes.push(format!(
        "{:?} {}x{} N={} nb={} over {:?}; {} traced reps; times are the slowest rank's",
        shape.solver,
        shape.p,
        shape.q,
        shape.n,
        shape.nb,
        shape.fabric,
        c.series["trace_overhead"].len().max(c.series["pblas.panel_s"].len())
    ));
    Ok(Report {
        workload: w.name,
        seed: cfg.seed,
        attempted: ops,
        failed,
        problems,
        metrics,
        notes,
    })
}
