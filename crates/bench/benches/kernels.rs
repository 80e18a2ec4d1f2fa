//! Microbenchmarks of the dense substrates every experiment sits on —
//! primarily the packed register-tiled GEMM against the retained naive
//! triple loop, plus the pre-packed-A reuse path, GEMV, and the Householder
//! panel kernel.
//!
//! Writes `BENCH_kernels.json` at the repo root and **enforces** six
//! kinds of performance floor (exits non-zero on regression):
//!
//! * packed GEMM must not be slower than the naive triple loop at 256×256
//!   (the CI perf-smoke gate — a packing bug that silently falls off the
//!   fast path shows up here);
//! * packed GEMM must reach ≥ 3× the naive GFLOP/s at 512×512 (the PR-3
//!   acceptance bar; the measured ratio is recorded in the artifact);
//! * every detected vector ISA's packed GEMM must reach ≥ 42× the naive
//!   GFLOP/s at 512×512, the two timed alternately, a floor the
//!   forced-scalar tile does not reach (both readings are printed; the
//!   vector/scalar ratio is reported in the artifact, not gated);
//! * the wire's CRC32 (`ft_runtime::crc`) over 1 MiB must reach ≥ 3× the
//!   byte-at-a-time table loop of the same run on any host, and ≥ 20× where
//!   the carry-less-multiply fold is dispatched (62× here). Built with the
//!   repo's own flags, this is the gate that catches a CRC the vectoriser
//!   has turned into gathers: the four-stream table walk it replaced read
//!   1.0× under `target-cpu=native`;
//! * `gemv(Trans::No)` at `hess_grid`'s L2-resident trailing shape
//!   (640×160) must reach ≥ 1.25× the one-column-per-pass loop it replaced
//!   (`gemv_n_by_column`), timed in the same run: a sweep that falls back
//!   to loading and storing `y` per column reads 1.0×;
//! * the reflector kernels at `qr_grid`'s shapes, each against the loop it
//!   replaced (its bitwise oracle) in the same run: `trmm(Side::Left)`
//!   32×1100 against one trmv a column, `larft` 1152×32 against one
//!   `gemv(Trans::Yes)` a reflector, and `gemv(Trans::Yes)` 576×31 against
//!   one running sum at a time, each above its floor.
//!
//! `FT_BENCH_SMOKE=1` trims repetitions to two and drops the non-GEMM extras
//! for the CI smoke run; a full run takes the best of three.

mod common;

use ft_benchsuite::json::Value;
use ft_dense::gen::{uniform, uniform_entry};
use ft_dense::level2::{gemv, gemv_n_by_column, gemv_t_by_column};
use ft_dense::level3::{
    active_isa, blocking, detected_isas, gemm, gemm_naive, gemm_packed_a, set_isa_override, trmm, trmm_left_by_column, PackedA,
    MR, NR,
};
use ft_dense::simd::Isa;
use ft_dense::{Diag, Matrix, Side, Trans, UpLo};
use ft_hess::{ft_solve, DriverControl, Encoded, Hessenberg, ScrubPolicy, Variant};
use ft_lapack::householder::{larft, larft_by_column};
use ft_lapack::lahr2;
use ft_runtime::crc::{crc32, crc32_bytewise, folds};
use ft_runtime::{run_spmd, FaultScript};
use std::hint::black_box;
use std::time::Instant;

/// Samples per cell of a full run (best of).
const REPS: usize = 3;

/// Minimum seconds over `r` runs of `f`.
fn best_of(r: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..r {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Best seconds of `f` and of `g` over at least nine samples each, taken
/// alternately, so a slow phase of the host hits both.
fn paired(r: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    let (mut tf, mut tg) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..r.max(9) {
        tf = tf.min(best_of(1, &mut f));
        tg = tg.min(best_of(1, &mut g));
    }
    (tf, tg)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn gflops(flops: f64, secs: f64) -> f64 {
    flops / secs / 1e9
}

/// One artifact row: the kernel's name, then its numbers.
fn row(kernel: &str, fields: &[(&str, f64)]) -> Value {
    let nums = fields.iter().map(|&(k, v)| (k.to_string(), Value::Num(v)));
    Value::obj([("kernel".to_string(), Value::str(kernel))].into_iter().chain(nums))
}

fn main() {
    let smoke = common::smoke();
    let r = if smoke { 2 } else { REPS };
    let sizes: &[usize] = if smoke { &[256, 512] } else { &[128, 256, 512] };
    let bl = blocking();
    println!("# kernels: MR={MR} NR={NR} KC={} MC={} NC={} reps={r}", bl.kc, bl.mc, bl.nc);
    println!("{:>14} {:>6} {:>12} {:>10}", "kernel", "n", "GFLOP/s", "seconds");

    let mut rows: Vec<Value> = Vec::new();
    let mut naive_gf = std::collections::HashMap::new();
    let mut packed_gf = std::collections::HashMap::new();

    for &n in sizes {
        let a = uniform(n, n, 1);
        let b = uniform(n, n, 2);
        let mut c = Matrix::zeros(n, n);
        let fl = (2 * n * n * n) as f64;

        // Naive triple loop — the correctness oracle, timed for the ratio.
        let t_naive = best_of(r, || {
            gemm_naive(
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                1.0,
                black_box(a.as_slice()),
                n,
                black_box(b.as_slice()),
                n,
                0.0,
                c.as_mut_slice(),
                n,
            );
        });

        // Packed blocked path (packs A and B internally every call).
        let t_packed = best_of(r, || {
            gemm(
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                1.0,
                black_box(a.as_slice()),
                n,
                black_box(b.as_slice()),
                n,
                0.0,
                c.as_mut_slice(),
                n,
            );
        });

        // Pre-packed A reused across calls — the trailing-update pattern.
        let pa = PackedA::pack(Trans::No, n, n, a.as_slice(), n);
        let t_prepacked = best_of(r, || {
            gemm_packed_a(&pa, Trans::No, n, 1.0, black_box(b.as_slice()), n, 0.0, c.as_mut_slice(), n);
        });

        for (kernel, secs) in [("naive", t_naive), ("packed", t_packed), ("packed_reused", t_prepacked)] {
            println!("{:>14} {:>6} {:>12.2} {:>10.4}", kernel, n, gflops(fl, secs), secs);
            rows.push(row(kernel, &[("n", n as f64), ("gflops", gflops(fl, secs)), ("seconds", secs)]));
        }
        naive_gf.insert(n, gflops(fl, t_naive));
        packed_gf.insert(n, gflops(fl, t_packed));
    }

    // Per-ISA packed GEMM — the SIMD-dispatch measurement. Each detected
    // ISA is forced in turn (the rows above ran the auto pick); the fused
    // ISAs must clear the vector-vs-scalar floor gated below.
    let mut isa_gf_512 = std::collections::HashMap::new();
    for &isa in detected_isas() {
        set_isa_override(Some(isa));
        for &n in sizes {
            let a = uniform(n, n, 1);
            let b = uniform(n, n, 2);
            let mut c = Matrix::zeros(n, n);
            let fl = (2 * n * n * n) as f64;
            let t = best_of(r, || {
                gemm(
                    Trans::No,
                    Trans::No,
                    n,
                    n,
                    n,
                    1.0,
                    black_box(a.as_slice()),
                    n,
                    black_box(b.as_slice()),
                    n,
                    0.0,
                    c.as_mut_slice(),
                    n,
                );
            });
            let kernel = format!("packed_{}", isa.name());
            println!("{:>14} {:>6} {:>12.2} {:>10.4}", kernel, n, gflops(fl, t), t);
            rows.push(Value::obj([
                ("kernel", Value::str(kernel)),
                ("isa", Value::str(isa.name())),
                ("n", Value::Num(n as f64)),
                ("gflops", Value::Num(gflops(fl, t))),
                ("seconds", Value::Num(t)),
            ]));
            if n == 512 {
                isa_gf_512.insert(isa, gflops(fl, t));
            }
        }
    }
    set_isa_override(None);

    if !smoke {
        // GEMV and the Householder panel: context for the level-3 numbers.
        let n = 1024usize;
        let a = uniform(n, n, 3);
        let x = uniform(n, 1, 4).as_slice().to_vec();
        let mut y = vec![0.0; n];
        let t = best_of(r, || gemv(Trans::No, n, n, 1.0, black_box(a.as_slice()), n, &x, 0.0, &mut y));
        println!("{:>14} {:>6} {:>12.2} {:>10.4}", "gemv", n, gflops((2 * n * n) as f64, t), t);
        rows.push(row("gemv", &[("n", n as f64), ("gflops", gflops((2 * n * n) as f64, t)), ("seconds", t)]));

        let (n, nb) = (512usize, 16usize);
        let a0 = uniform(n, n, 5);
        let t = best_of(r, || {
            let mut a = a0.clone();
            let mut tau = vec![0.0; nb];
            let mut tm = Matrix::zeros(nb, nb);
            let mut ym = Matrix::zeros(n, nb);
            lahr2(&mut a, 0, nb, &mut tau, &mut tm, &mut ym);
            black_box(&a);
        });
        println!("{:>14} {:>6} {:>12} {:>10.4}", "lahr2_nb16", n, "-", t);
        rows.push(row("lahr2_nb16", &[("n", n as f64), ("seconds", t)]));
    }

    // Online scrub overhead: the fault-tolerant reduction with a pass at
    // every panel boundary vs the engine disabled, same shape and grid.
    let (sn, snb, sp, sq) = (160usize, 8usize, 2usize, 2usize);
    let ft_secs = |policy: ScrubPolicy| {
        best_of(r, || {
            run_spmd(sp, sq, FaultScript::none(), move |ctx| {
                let mut enc = Encoded::from_global_fn(&ctx, sn, snb, |i, j| uniform_entry(9, i, j));
                let mut tau = vec![0.0; sn - 1];
                let ctl = DriverControl { scrub: policy, ..DriverControl::default() };
                ft_solve(&ctx, &Hessenberg, &mut enc, Variant::NonDelayed, &mut tau, ctl).expect("fault-free");
            });
        })
    };
    let t_plain_ft = ft_secs(ScrubPolicy::disabled());
    let t_scrubbed = ft_secs(ScrubPolicy::every_panels(1));
    let scrub_overhead = t_scrubbed / t_plain_ft - 1.0;
    println!("{:>14} {:>6} {:>12} {:>10.4}", "ft_no_scrub", sn, "-", t_plain_ft);
    println!("{:>14} {:>6} {:>12} {:>10.4}", "ft_scrub_ev1", sn, "-", t_scrubbed);
    println!("# scrub overhead (cadence 1, {sp}x{sq}, N={sn}): {:.1}%", scrub_overhead * 100.0);
    for (kernel, secs) in [("ft_no_scrub", t_plain_ft), ("ft_scrub_ev1", t_scrubbed)] {
        rows.push(row(kernel, &[("n", sn as f64), ("seconds", secs)]));
    }

    // The wire's CRC: 16 passes over 1 MiB a sample, dispatched path against
    // the byte-at-a-time loop.
    let wire: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 + 7) as u8).collect();
    let crc_gbs = |crc: fn(&[u8]) -> u32| {
        let secs = best_of(r, || (0..16).for_each(|_| _ = black_box(crc(black_box(&wire)))));
        (16 * wire.len()) as f64 / secs / 1e9
    };
    let (crc_gbs, bytewise_gbs) = (crc_gbs(crc32), crc_gbs(crc32_bytewise));
    assert_eq!(crc32(&wire), crc32_bytewise(&wire), "the two CRC paths disagree");
    let (crc_path, crc_floor) = if folds() {
        ("pclmulqdq fold-by-4", 20.0)
    } else {
        ("slicing-by-8 table chain", 3.0)
    };
    let crc_ratio = crc_gbs / bytewise_gbs;
    println!("# wire CRC over 1 MiB: {crc_path} {crc_gbs:.2} GB/s, bytewise {bytewise_gbs:.2} GB/s: {crc_ratio:.1}x (floor {crc_floor}x)");
    for (kernel, v) in [("crc32", crc_gbs), ("crc32_bytewise", bytewise_gbs)] {
        rows.push(row(kernel, &[("n", wire.len() as f64), ("gbs", v)]));
    }

    // The panel's trailing product at `hess_grid`'s shape (640×160 a rank,
    // 0.8 MB, L2-resident): the sweep against the one-column-per-pass loop
    // it replaced. Samples of 64 products alternate between the two, so a
    // slow phase of the host hits both; best of at least five each.
    let (gm, gn) = (640usize, 160usize);
    let ga = uniform(gm, gn, 6);
    let gx = uniform(gn, 1, 7).as_slice().to_vec();
    let (mut y_sweep, mut y_column) = (vec![0.0; gm], vec![0.0; gm]);
    let (mut t_sweep, mut t_column) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..r.max(5) {
        t_sweep = t_sweep.min(best_of(1, || {
            (0..64).for_each(|_| gemv(Trans::No, gm, gn, 1.0, black_box(ga.as_slice()), gm, &gx, 0.0, &mut y_sweep))
        }));
        t_column = t_column.min(best_of(1, || {
            (0..64).for_each(|_| gemv_n_by_column(gm, gn, 1.0, black_box(ga.as_slice()), gm, &gx, 0.0, &mut y_column))
        }));
    }
    assert!(
        y_sweep.iter().zip(&y_column).all(|(s, c)| s.to_bits() == c.to_bits()),
        "the gemv sweep is not bitwise the column loop"
    );
    let gemv_gbs = |secs: f64| (64 * 8 * gm * gn) as f64 / secs / 1e9;
    let (sweep_gbs, column_gbs) = (gemv_gbs(t_sweep), gemv_gbs(t_column));
    let gemv_ratio = sweep_gbs / column_gbs;
    const GEMV_SWEEP_FLOOR: f64 = 1.25;
    println!(
        "# panel gemv {gm}x{gn}: sweep {sweep_gbs:.1} GB/s, column at a time {column_gbs:.1} GB/s: {gemv_ratio:.2}x (floor {GEMV_SWEEP_FLOOR}x)"
    );
    for (kernel, v) in [("gemv_n_sweep", sweep_gbs), ("gemv_n_by_column", column_gbs)] {
        rows.push(row(kernel, &[("m", gm as f64), ("n", gn as f64), ("gbs", v)]));
    }

    // The reflector kernels at `qr_grid`'s shapes, each against the loop
    // it replaced and is held to bit for bit, timed in the same run: the
    // left update's W ← TᵀW (`trmm` Left, 32×1100: columns 32 to a lane
    // tile against one trmv a column), the panel's `larft` (1152×32: its
    // dots in one pass over V against one gemv(Trans::Yes) a reflector) and
    // the panel's eager left application (`gemv(Trans::Yes)` 576×31: four
    // columns a sweep against one running sum at a time). Fourteen runs on
    // a 2-core AVX-512 host (twelve smoke, two full) read trmm 3.5–7.0×
    // (median 5.9), larft 2.9–4.8× (3.7) and gemv(Trans::Yes) 1.5–2.4×
    // (1.8): each floor sits at 0.4–0.7 of its median, below the lowest
    // reading. The loops they replaced read 1.0×.
    let mut reflector: Vec<(String, f64, f64)> = Vec::new();
    let mut gate = |kernel: &str, oracle: &str, (m, n): (usize, usize), flops: f64, (t, t_oracle): (f64, f64), floor: f64| {
        let (gf, gf_oracle, ratio) = (gflops(flops, t), gflops(flops, t_oracle), t_oracle / t);
        println!("# {kernel} {m}x{n}: {gf:.2} GFLOP/s, {oracle} {gf_oracle:.2} GFLOP/s: {ratio:.2}x (floor {floor}x)");
        for (name, v) in [(kernel, gf), (oracle, gf_oracle)] {
            rows.push(row(name, &[("m", m as f64), ("n", n as f64), ("gflops", v)]));
        }
        reflector.push((format!("{kernel} below {floor}x {oracle} at {m}x{n}"), ratio, floor));
        ratio
    };

    let (tm, tn) = (32usize, 1100usize);
    let t_tri = uniform(tm, tm, 8);
    let b0 = uniform(tm, tn, 9);
    let (mut b_lanes, mut b_column) = (b0.clone(), b0.clone());
    let tri = black_box(t_tri.as_slice());
    let times = paired(
        r,
        || {
            for _ in 0..16 {
                b_lanes.as_mut_slice().copy_from_slice(b0.as_slice());
                trmm(Side::Left, UpLo::Upper, Trans::Yes, Diag::NonUnit, tm, tn, 1.0, tri, tm, b_lanes.as_mut_slice(), tm);
            }
        },
        || {
            for _ in 0..16 {
                b_column.as_mut_slice().copy_from_slice(b0.as_slice());
                trmm_left_by_column(UpLo::Upper, Trans::Yes, Diag::NonUnit, tm, tn, 1.0, tri, tm, b_column.as_mut_slice(), tm);
            }
        },
    );
    assert!(same_bits(b_lanes.as_slice(), b_column.as_slice()), "trmm's lanes are not bitwise the column loop");
    let trmm_ratio = gate("trmm_left_lanes", "trmm_left_by_column", (tm, tn), (16 * tm * tm * tn) as f64, times, 2.5);

    let (vm, vk) = (1152usize, 32usize);
    let v = uniform(vm, vk, 10);
    let tau: Vec<f64> = (0..vk).map(|i| 1.0 + 0.01 * i as f64).collect();
    let (mut tf_lanes, mut tf_column) = (vec![0.0; vk * vk], vec![0.0; vk * vk]);
    let times = paired(
        r,
        || (0..8).for_each(|_| larft(vm, vk, black_box(v.as_slice()), vm, &tau, &mut tf_lanes, vk)),
        || (0..8).for_each(|_| larft_by_column(vm, vk, black_box(v.as_slice()), vm, &tau, &mut tf_column, vk)),
    );
    assert!(same_bits(&tf_lanes, &tf_column), "larft's lanes are not bitwise the column loop");
    let larft_ratio = gate("larft_lanes", "larft_by_column", (vm, vk), (8 * vm * vk * vk) as f64, times, 2.0);

    let (pm, pn) = (576usize, 31usize);
    let pa = uniform(pm, pn, 11);
    let px = uniform(pm, 1, 12).as_slice().to_vec();
    let (mut py_sweep, mut py_column) = (vec![0.0; pn], vec![0.0; pn]);
    let times = paired(
        r,
        || (0..64).for_each(|_| gemv(Trans::Yes, pm, pn, 1.0, black_box(pa.as_slice()), pm, &px, 0.0, &mut py_sweep)),
        || (0..64).for_each(|_| gemv_t_by_column(pm, pn, 1.0, black_box(pa.as_slice()), pm, &px, 0.0, &mut py_column)),
    );
    assert!(same_bits(&py_sweep, &py_column), "gemv(Trans::Yes) is not bitwise the column loop");
    let gemv_t_ratio = gate("gemv_t_sweep", "gemv_t_by_column", (pm, pn), (64 * 2 * pm * pn) as f64, times, 1.25);

    let ratio_256 = packed_gf[&256] / naive_gf[&256];
    let ratio_512 = packed_gf[&512] / naive_gf[&512];
    println!("# packed/naive speedup: {ratio_256:.2}x at 256, {ratio_512:.2}x at 512");

    // Vector-tile floor: every detected fused ISA's packed kernel at n=512
    // against the naive 512³ loop, the two timed alternately (`paired`), so
    // a slow phase of the shared host hits both sides of the ratio. A GEMM
    // sample is eight products, so it is not one product re-warming the
    // caches the naive loop just swept (on a 2-core AVX-512 host AVX-512
    // read 65–74× at one product a sample, 72–97× at eight). The naive
    // loop is a denominator kernel work cannot move (the forced-scalar
    // packed tile it replaces is auto-vectorized and got 17 % faster under
    // the gate). The floor sits between what the forced-scalar tile reads
    // (30–38× paired on that host) and the slowest vector ISA (AVX2 44–58×),
    // so a dispatch that quietly runs the scalar tile fails it. The scalar
    // tile's ratio is paired the same way and printed.
    const VECTOR_VS_NAIVE_FLOOR: f64 = 42.0;
    let mut vs_naive_512 = std::collections::HashMap::new();
    {
        let n = 512usize;
        let a = uniform(n, n, 1);
        let b = uniform(n, n, 2);
        let (mut c, mut c_naive) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
        let mul = |c: &mut Matrix, naive: bool| {
            let f = if naive { gemm_naive } else { gemm };
            let (a, b) = (black_box(a.as_slice()), black_box(b.as_slice()));
            f(Trans::No, Trans::No, n, n, n, 1.0, a, n, b, n, 0.0, c.as_mut_slice(), n)
        };
        for &isa in detected_isas() {
            set_isa_override(Some(isa));
            let (t, t_naive) = paired(r, || (0..8).for_each(|_| mul(&mut c, false)), || mul(&mut c_naive, true));
            vs_naive_512.insert(isa, 8.0 * t_naive / t);
        }
        set_isa_override(None);
    }
    let scalar_512 = isa_gf_512[&Isa::Scalar];
    for &isa in detected_isas() {
        let ratio = vs_naive_512[&isa];
        let side = if ratio < VECTOR_VS_NAIVE_FLOOR { "below" } else { "above" };
        println!(
            "# packed_{} / naive at 512: {ratio:.1}x ({side} the {VECTOR_VS_NAIVE_FLOOR}x vector floor)",
            isa.name()
        );
    }
    let best_fused = isa_gf_512
        .iter()
        .filter(|(isa, _)| isa.fused())
        .map(|(isa, &gf)| (*isa, gf))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    let vector_ratio = best_fused.map(|(_, gf)| gf / scalar_512);
    if let Some((isa, gf)) = best_fused {
        println!(
            "# vectorized/scalar packed at 512: {:.2}x ({} {gf:.2} vs scalar {scalar_512:.2} GFLOP/s)",
            vector_ratio.unwrap(),
            isa.name()
        );
    }

    let num = |v: usize| Value::Num(v as f64);
    let mut report = vec![
        ("bench".to_string(), Value::str("kernels")),
        ("mr".into(), num(MR)),
        ("nr".into(), num(NR)),
        ("kc".into(), num(bl.kc)),
        ("mc".into(), num(bl.mc)),
        ("nc".into(), num(bl.nc)),
        ("reps".into(), num(r)),
        ("isa_default".into(), Value::str(active_isa().name())),
        ("speedup_packed_vs_naive_256".into(), Value::Num(ratio_256)),
        ("speedup_packed_vs_naive_512".into(), Value::Num(ratio_512)),
        ("scrub_overhead".into(), Value::Num(scrub_overhead)),
        ("crc_path".into(), Value::str(crc_path)),
        ("speedup_crc_vs_bytewise".into(), Value::Num(crc_ratio)),
        ("speedup_gemv_sweep_vs_column".into(), Value::Num(gemv_ratio)),
        ("speedup_trmm_lanes_vs_column".into(), Value::Num(trmm_ratio)),
        ("speedup_larft_lanes_vs_column".into(), Value::Num(larft_ratio)),
        ("speedup_gemv_t_sweep_vs_column".into(), Value::Num(gemv_t_ratio)),
    ];
    for (isa, gf) in &isa_gf_512 {
        report.push((format!("gflops_packed_512_{}", isa.name()), Value::Num(*gf)));
    }
    if let Some(ratio) = vector_ratio {
        report.push(("speedup_vector_vs_scalar_512".into(), Value::Num(ratio)));
    }
    report.push(("rows".into(), Value::Arr(rows)));
    common::write_artifact("BENCH_kernels.json", &Value::Obj(report), smoke);

    // Perf gates.
    if ratio_256 < 1.0 {
        eprintln!("FAIL: packed GEMM slower than naive at 256x256 ({ratio_256:.2}x)");
        std::process::exit(1);
    }
    if ratio_512 < 3.0 {
        eprintln!("FAIL: packed GEMM below 3x naive at 512x512 ({ratio_512:.2}x)");
        std::process::exit(1);
    }
    for &isa in detected_isas().iter().filter(|isa| isa.fused()) {
        let ratio = vs_naive_512[&isa];
        if ratio < VECTOR_VS_NAIVE_FLOOR {
            eprintln!("FAIL: packed_{} below {VECTOR_VS_NAIVE_FLOOR}x naive at 512x512 ({ratio:.1}x)", isa.name());
            std::process::exit(1);
        }
    }
    if crc_ratio < crc_floor {
        eprintln!("FAIL: wire CRC ({crc_path}) below {crc_floor}x the bytewise loop over 1 MiB ({crc_ratio:.1}x)");
        std::process::exit(1);
    }
    if gemv_ratio < GEMV_SWEEP_FLOOR {
        eprintln!("FAIL: gemv sweep below {GEMV_SWEEP_FLOOR}x the column loop at {gm}x{gn} ({gemv_ratio:.2}x)");
        std::process::exit(1);
    }
    for (what, ratio, floor) in reflector {
        if ratio < floor {
            eprintln!("FAIL: {what} ({ratio:.2}x)");
            std::process::exit(1);
        }
    }
}
