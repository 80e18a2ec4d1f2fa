//! Single-core GEMM throughput probe for the packed blocked kernel, and the
//! leading-dimension sweep: the panel GEMV and the k = 32 update GEMMs of
//! the 1×2 N = 1024 workload, with the updated matrix at ld 1024 / 1032
//! (plain local block, unpadded / padded) and 2048 / 2056 (encoded).
//!
//! ```text
//! cargo run --release -p ft-dense --example gemmperf
//! ```

use ft_dense::level2::gemv;
use ft_dense::level3::gemm;
use ft_dense::{gen, Matrix, Trans};
use std::time::Instant;

/// Median over ten runs of the µs one call of `op` takes, 20 calls a run.
fn median_us(mut op: impl FnMut()) -> f64 {
    op();
    let mut runs: Vec<f64> = (0..10)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..20 {
                op();
            }
            t.elapsed().as_secs_f64() * 1e6 / 20.0
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    (runs[4] + runs[5]) / 2.0
}

fn ld_sweep() {
    let (m, k) = (1024usize, 32usize);
    println!("leading-dimension sweep, µs a call (median of 10 runs):");
    println!("  ld     gemv N 1023x480  gemm NN 1024x224 k32  gemm NT 1024x480 k32");
    for ld in [1024usize, 1032, 2048, 2056] {
        let mut c = gen::uniform(ld, 480, 3).as_slice().to_vec();
        let x = vec![0.5f64; 480];
        let mut y = vec![0.0f64; m - 1];
        let gemv_us = median_us(|| gemv(Trans::No, m - 1, 480, 1.0, &c[1..], ld, &x, 0.0, &mut y));
        // Left update A ← A − V·W: V m×k packed, W k×n packed, A at ld.
        let v = gen::uniform(m, k, 4);
        let w = gen::uniform(k, 224, 5);
        let nn_us = median_us(|| gemm(Trans::No, Trans::No, m, 224, k, -1.0, v.as_slice(), m, w.as_slice(), k, 1.0, &mut c, ld));
        // Right update A ← A − Y·Vᵀ: Y m×k packed, V n×k packed, A at ld.
        let vr = gen::uniform(480, k, 6);
        let nt_us =
            median_us(|| gemm(Trans::No, Trans::Yes, m, 480, k, -1.0, v.as_slice(), m, vr.as_slice(), 480, 1.0, &mut c, ld));
        println!("  {ld:<5}  {gemv_us:>15.1}  {nn_us:>20.1}  {nt_us:>20.1}");
    }
}

fn main() {
    println!("packed blocked GEMM, single core:");
    for n in [256usize, 512, 1024] {
        let a = gen::uniform(n, n, 1);
        let b = gen::uniform(n, n, 2);
        let mut c = Matrix::zeros(n, n);
        let t = Instant::now();
        gemm(Trans::No, Trans::No, n, n, n, 1.0, a.as_slice(), n, b.as_slice(), n, 0.0, c.as_mut_slice(), n);
        let dt = t.elapsed().as_secs_f64();
        println!("  n={n}: {:.2} GFLOP/s", 2.0 * (n as f64).powi(3) / dt / 1e9);
    }
    ld_sweep();
}
