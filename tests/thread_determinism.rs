//! Seeded thread-pool determinism: the same seed must produce **bitwise
//! identical** Hessenberg and QR outputs for `FT_GEMM_THREADS ∈ {1, 2, 4}`
//! (DESIGN.md §14 — the macro-kernel partition decides which lane computes
//! an element, never how, so lane count can never change a bit).
//!
//! The solver legs run each thread count twice (run-to-run stability) and
//! compare the hashes across thread counts (partition invariance). A direct
//! large GEMM leg additionally proves via the pool's dispatch counter that
//! the threaded configurations really did fan work out to workers — without
//! it, a regression that silently kept everything on one lane would make
//! this test vacuous.

use abft_hessenberg::dense::gen::{uniform, uniform_entry};
use abft_hessenberg::dense::level3::{gemm, set_threads_override};
use abft_hessenberg::dense::pool::jobs_dispatched;
use abft_hessenberg::dense::{Matrix, Trans};
use abft_hessenberg::hess::{ft_pdgehrd, ft_pdgeqrf, Encoded, Variant};
use abft_hessenberg::runtime::{run_spmd, FaultScript};

/// The threads override is process-global; the two tests below serialize on
/// this so one test's reset can't race the other's threaded region.
static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

const N: usize = 48;
const NB: usize = 8;
const SEED: u64 = 20130926;
const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn hash_out(a: &Matrix, tau: &[f64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in a.as_slice() {
        fnv1a(&mut h, &v.to_bits().to_le_bytes());
    }
    for v in tau {
        fnv1a(&mut h, &v.to_bits().to_le_bytes());
    }
    h
}

fn hessenberg_hash() -> u64 {
    let out = run_spmd(2, 2, FaultScript::none(), |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, N, NB, |i, j| uniform_entry(SEED, i, j));
        let mut tau = vec![0.0; N - 1];
        ft_pdgehrd(&ctx, &mut enc, Variant::NonDelayed, &mut tau).expect("fault-free run");
        (enc.gather_logical(&ctx, 722), tau)
    });
    let (ag, tau) = out.into_iter().next().unwrap();
    hash_out(&ag, &tau)
}

fn qr_hash() -> u64 {
    let out = run_spmd(2, 2, FaultScript::none(), |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, N, NB, |i, j| uniform_entry(SEED ^ 0x9E37, i, j));
        let mut tau = vec![0.0; N];
        ft_pdgeqrf(&ctx, &mut enc, Variant::NonDelayed, &mut tau).expect("fault-free run");
        (enc.gather_logical(&ctx, 724), tau)
    });
    let (ag, tau) = out.into_iter().next().unwrap();
    hash_out(&ag, &tau)
}

#[test]
fn solver_outputs_bitwise_stable_across_thread_counts() {
    let _g = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut hashes: Vec<(usize, u64, u64)> = Vec::new();
    for &t in &THREAD_SWEEP {
        set_threads_override(Some(t));
        let (h1, q1) = (hessenberg_hash(), qr_hash());
        let (h2, q2) = (hessenberg_hash(), qr_hash());
        assert_eq!(h1, h2, "Hessenberg not run-to-run stable at threads={t}");
        assert_eq!(q1, q2, "QR not run-to-run stable at threads={t}");
        hashes.push((t, h1, q1));
    }
    set_threads_override(None);
    let (_, h0, q0) = hashes[0];
    for &(t, h, q) in &hashes[1..] {
        assert_eq!(h, h0, "Hessenberg output differs between threads=1 and threads={t}");
        assert_eq!(q, q0, "QR output differs between threads=1 and threads={t}");
    }
}

#[test]
fn large_gemm_bitwise_stable_and_actually_threaded() {
    let _g = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n = 512usize;
    let a = uniform(n, n, 31);
    let b = uniform(n, n, 32);
    // 512 rows: B is packed. 64 rows (four 16-row units, `W = Vᵀ·C` at the
    // widest panel): B is read in place, behind the same lane partition.
    for m in [n, 64] {
        let run = |t: usize| {
            set_threads_override(Some(t));
            let mut c = Matrix::zeros(m, n);
            gemm(Trans::No, Trans::No, m, n, n, 1.0, a.as_slice(), n, b.as_slice(), n, 0.0, c.as_mut_slice(), m);
            set_threads_override(None);
            c
        };
        let c1 = run(1);
        let before = jobs_dispatched();
        let c4 = run(4);
        assert!(
            jobs_dispatched() > before,
            "threads=4 on a {m}x512x512 GEMM dispatched no pool jobs — threading silently disabled"
        );
        for (x, y) in c1.as_slice().iter().zip(c4.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "thread count changed GEMM bits at m={m}");
        }
    }
}
