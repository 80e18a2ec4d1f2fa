//! Cross-ISA kernel-equivalence battery: the packed register-tiled GEMM
//! (and the pre-packed-A variant) under **every detected ISA** against two
//! oracles over seeded *adversarial* shapes —
//! everything that exercises fringe/remainder tiles, the KC block boundary,
//! zero-padding, and strided sub-matrix views.
//!
//! Oracles and tolerances (the DESIGN.md §14 determinism contract):
//!
//! * the naive triple-loop [`gemm_naive`] anchors absolute correctness;
//! * the forced-scalar packed kernel is the bitwise reference for its own
//!   contraction class: scalar results must match it to **0 ulp**;
//! * fused ISAs (AVX2/AVX-512/NEON) differ from scalar only by the fused
//!   multiply-add rounding in the k-loop, so they must stay within
//!   `2·(k+2)·ε·(|α|·Σ|a||b| + |β·c|)` of the scalar reference per element
//!   (≤ 2 ulp · K) — and must be **bitwise identical to each other**;
//! * `gemm` and `gemm_packed_a` must agree to 0 ulp in every configuration;
//! * reading `B` in place and reading its packed copy must agree to 0 ulp:
//!   the rows of a product do not depend on how many rows the call has, so
//!   a short call (in place) is held against the top rows of a tall one
//!   (packed) — an oracle that needs no switch in the library.
//!
//! The battery counts every (round × ISA) configuration it actually ran;
//! a host that silently exercised only the scalar path fails the assertion,
//! and CI pins the expected ISA set via `FT_REQUIRE_ISAS` (comma-separated
//! names that must be both detected and exercised).
//!
//! The ABFT layer routes checksum-column updates through these exact
//! kernels; a silent fringe-tile bug would corrupt checksums in ways the
//! recovery math then faithfully propagates. This suite exists so that can
//! never happen silently — on any ISA.
//!
//! Deterministic: the seed is fixed (override with `FT_FUZZ_SEED` to
//! explore a different corner of the space; CI pins it).

use ft_dense::level2::{gemv, trmv, trmv_scalar};
use ft_dense::level3::{
    blocking, detected_isas, gemm, gemm_naive, gemm_packed_a, set_isa_override, trmm, trmm_left_by_column, PackedA, MR, NR,
};
use ft_dense::rng::Xoshiro256;
use ft_dense::simd::Isa;
use ft_dense::{Diag, Matrix, Side, Trans, UpLo, EPS};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

/// The ISA override is process-global; every test that flips it (or relies
/// on it being stable across two calls) holds this lock.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Lock + RAII reset: the override always returns to the env default, even
/// if the test panics mid-sweep.
struct OverrideGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl OverrideGuard {
    fn take() -> OverrideGuard {
        OverrideGuard(OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        set_isa_override(None);
    }
}

fn fuzz_seed() -> u64 {
    std::env::var("FT_FUZZ_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// The interesting extents for any of m/n/k: tiny shapes (1..=17 covers
/// every MR/NR fringe combination), the register-tile edges, and the KC
/// cache-block boundary where the fused-β handoff (β on the first k-block,
/// accumulate afterwards) happens.
fn interesting_extents() -> Vec<usize> {
    let kc = blocking().kc;
    let mut v: Vec<usize> = (1..=17).collect();
    v.extend_from_slice(&[MR - 1, MR, MR + 1, NR - 1, NR, NR + 1, 2 * MR + 3, 3 * NR + 1]);
    v.extend_from_slice(&[kc - 1, kc, kc + 1]);
    v.extend_from_slice(&RULE_EXTENTS);
    v.sort_unstable();
    v.dedup();
    v
}

/// `level3`'s private pack-or-read constant (`B_IN_PLACE_MAX_M`): a
/// column-major B is read in place when `op(A)` has at most this many rows.
/// Mirrored here because the rule is invisible in results by design and the
/// constant is not part of the crate's interface;
/// `rule_m_is_the_constant_level3_declares` fails when the two drift apart.
const RULE_M: usize = 128;

/// Row counts on both sides of the rule.
const RULE_EXTENTS: [usize; 4] = [RULE_M - 1, RULE_M, RULE_M + 1, RULE_M + 2 * MR + 3];

const COEFFS: [f64; 4] = [0.0, 1.0, -1.0, 0.5];

/// Fill an `(rows × cols)` buffer with leading dimension `ld`, garbage in
/// the stride gaps (NaN — so any kernel touching out-of-window memory is
/// caught by the comparison, and any β=0 read of C poisons the result).
fn strided_with_nan_gaps(rng: &mut Xoshiro256, rows: usize, cols: usize, ld: usize) -> Vec<f64> {
    let len = if cols == 0 { 0 } else { ld * (cols - 1) + rows };
    let mut buf = vec![f64::NAN; len];
    for j in 0..cols {
        for i in 0..rows {
            buf[i + j * ld] = rng.range_f64(-1.0, 1.0);
        }
    }
    buf
}

/// Per-element magnitude bound `|α|·Σ_l |a(i,l)·b(l,j)| + |β·c(i,j)|` — the
/// condition-style denominator of the fused-vs-scalar rounding bound.
#[allow(clippy::too_many_arguments)]
fn abs_magnitude(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c0: &[f64],
    ldc: usize,
) -> Matrix {
    let at = |i: usize, l: usize| match transa {
        Trans::No => a[i + l * lda],
        Trans::Yes => a[l + i * lda],
    };
    let bt = |l: usize, j: usize| match transb {
        Trans::No => b[l + j * ldb],
        Trans::Yes => b[j + l * ldb],
    };
    Matrix::from_fn(m, n, |i, j| {
        let mut s = 0.0;
        for l in 0..k {
            s += (at(i, l) * bt(l, j)).abs();
        }
        let ct = if beta == 0.0 { 0.0 } else { (beta * c0[i + j * ldc]).abs() };
        alpha.abs() * s + ct
    })
}

#[test]
fn cross_isa_differential_battery() {
    let _guard = OverrideGuard::take();
    let isas = detected_isas();
    let mut rng = Xoshiro256::seed_from_u64(fuzz_seed());
    let extents = interesting_extents();
    let pick = |rng: &mut Xoshiro256, v: &[usize]| v[rng.range_usize(0, v.len())];
    let rounds: usize = std::env::var("FT_FUZZ_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(400);

    let mut exercised: BTreeSet<&'static str> = BTreeSet::new();
    let mut configs_run: usize = 0;

    for round in 0..rounds {
        let m = pick(&mut rng, &extents);
        let n = pick(&mut rng, &extents);
        let k = pick(&mut rng, &extents);
        let transa = if rng.next_below(2) == 0 { Trans::No } else { Trans::Yes };
        let transb = if rng.next_below(2) == 0 { Trans::No } else { Trans::Yes };
        let alpha = COEFFS[rng.range_usize(0, COEFFS.len())];
        let beta = COEFFS[rng.range_usize(0, COEFFS.len())];

        let (ar, ac) = if transa.is_trans() { (k, m) } else { (m, k) };
        let (br, bc) = if transb.is_trans() { (n, k) } else { (k, n) };
        // Strided views: ld strictly larger than rows half the time, with
        // NaN poison in the gaps.
        let lda = ar.max(1) + (rng.next_below(2) as usize) * rng.range_usize(1, 6);
        let ldb = br.max(1) + (rng.next_below(2) as usize) * rng.range_usize(1, 6);
        let ldc = m.max(1) + (rng.next_below(2) as usize) * rng.range_usize(1, 6);
        let a = strided_with_nan_gaps(&mut rng, ar, ac, lda);
        let b = strided_with_nan_gaps(&mut rng, br, bc, ldb);
        let c0 = strided_with_nan_gaps(&mut rng, m, n, ldc);

        let label =
            format!("round {round}: m={m} n={n} k={k} {transa:?}{transb:?} α={alpha} β={beta} lda={lda} ldb={ldb} ldc={ldc}");

        let mut c_ref = c0.clone();
        gemm_naive(transa, transb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_ref, ldc);
        let want = Matrix::from_strided(m, n, &c_ref, ldc);
        // β = 0 with NaN-poisoned C must still produce finite output.
        if beta != 0.0 || c0.iter().all(|v| v.is_finite()) {
            assert!(want.as_slice().iter().all(|v| v.is_finite()), "oracle produced non-finite values: {label}");
        }
        let mag = abs_magnitude(transa, transb, m, n, k, alpha, &a, lda, &b, ldb, beta, &c0, ldc);

        // Bitwise reference per contraction class: forced-scalar.
        set_isa_override(Some(Isa::Scalar));
        let mut c_scalar = c0.clone();
        gemm(transa, transb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_scalar, ldc);

        let pa = PackedA::pack(transa, m, k, &a, lda);
        // First fused result seen this round — every other fused config
        // must match it to 0 ulp (cross-vector-ISA determinism).
        let mut fused_ref: Option<(Vec<f64>, &'static str)> = None;

        for &isa in isas {
            set_isa_override(Some(isa));
            let clabel = format!("{label} [isa={}]", isa.name());

            let mut c1 = c0.clone();
            gemm(transa, transb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c1, ldc);
            let mut c2 = c0.clone();
            gemm_packed_a(&pa, transb, n, alpha, &b, ldb, beta, &mut c2, ldc);

            // Pre-packed path is bitwise the pack-on-the-fly path.
            for (x, y) in c1.iter().zip(&c2) {
                assert_eq!(x.to_bits(), y.to_bits(), "gemm vs gemm_packed_a drift: {clabel}");
            }
            // Outside the m×n window, C must be untouched (stride gaps
            // keep their NaN poison; bytes compare equal via to_bits).
            for (idx, (&new, &old)) in c1.iter().zip(c0.iter()).enumerate() {
                let j = idx / ldc;
                let i = idx % ldc;
                if i >= m || j >= n {
                    assert_eq!(new.to_bits(), old.to_bits(), "touched C outside the window at ({i},{j}): {clabel}");
                }
            }
            // Absolute correctness vs the naive oracle.
            let got = Matrix::from_strided(m, n, &c1, ldc);
            let d = got.max_abs_diff(&want);
            assert!(d < 1e-12 * (k.max(1) as f64), "vs naive: diff {d} at {clabel}");

            if isa.fused() {
                // Fused class: per-element rounding bound vs scalar…
                for j in 0..n {
                    for i in 0..m {
                        let diff = (c1[i + j * ldc] - c_scalar[i + j * ldc]).abs();
                        let bound = 2.0 * (k as f64 + 2.0) * EPS * mag[(i, j)];
                        assert!(
                            diff <= bound,
                            "fused-vs-scalar bound broken at ({i},{j}): diff {diff:e} > {bound:e} at {clabel}"
                        );
                    }
                }
                // …and 0 ulp vs every other fused ISA.
                match &fused_ref {
                    None => fused_ref = Some((c1, isa.name())),
                    Some((f, fisa)) => {
                        for (x, y) in c1.iter().zip(f) {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "fused ISAs disagree bitwise ({} vs {fisa}): {label}",
                                isa.name()
                            );
                        }
                    }
                }
            } else {
                // Scalar class: bitwise the reference call above.
                for (x, y) in c1.iter().zip(&c_scalar) {
                    assert_eq!(x.to_bits(), y.to_bits(), "scalar class not bitwise stable: {clabel}");
                }
            }
            exercised.insert(isa.name());
            configs_run += 1;
        }
    }

    // Skip counter: every detected ISA ran every round.
    assert_eq!(configs_run, rounds * isas.len(), "battery silently skipped configurations");
    for isa in isas {
        assert!(exercised.contains(isa.name()), "detected ISA {} never exercised", isa.name());
    }
    // CI pins the hardware contract: these ISAs must exist AND have run.
    if let Ok(req) = std::env::var("FT_REQUIRE_ISAS") {
        for name in req.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let isa = Isa::from_name(name).unwrap_or_else(|| panic!("FT_REQUIRE_ISAS contains unknown ISA {name:?}"));
            assert!(
                detected_isas().contains(&isa) && exercised.contains(isa.name()),
                "FT_REQUIRE_ISAS={req}: ISA {name} was not exercised (detected: {:?})",
                detected_isas().iter().map(|i| i.name()).collect::<Vec<_>>()
            );
        }
    }
}

/// β = 0 must *never* read C — NaN in every C slot, finite everywhere
/// after — on every detected ISA.
#[test]
fn beta_zero_never_reads_c_any_shape_any_isa() {
    let _guard = OverrideGuard::take();
    let mut rng = Xoshiro256::seed_from_u64(fuzz_seed() ^ 0x5EED);
    for &isa in detected_isas() {
        set_isa_override(Some(isa));
        for &m in [1usize, MR - 1, MR, MR + 1, 13, 2 * MR + 1].iter().chain(&RULE_EXTENTS) {
            for &n in &[1usize, NR - 1, NR, NR + 1, 11, 2 * NR + 1] {
                let k = 1 + (rng.next_below(16) as usize);
                let a = Matrix::from_fn(m, k, |_, _| rng.range_f64(-1.0, 1.0));
                let b = Matrix::from_fn(k, n, |_, _| rng.range_f64(-1.0, 1.0));
                let mut c = vec![f64::NAN; m * n];
                gemm(Trans::No, Trans::No, m, n, k, 1.0, a.as_slice(), m, b.as_slice(), k, 0.0, &mut c, m);
                assert!(c.iter().all(|v| v.is_finite()), "β=0 read C at m={m} n={n} k={k} isa={}", isa.name());
                let pa = PackedA::pack(Trans::No, m, k, a.as_slice(), m);
                let mut c2 = vec![f64::NAN; m * n];
                gemm_packed_a(&pa, Trans::No, n, 1.0, b.as_slice(), k, 0.0, &mut c2, m);
                assert!(c2.iter().all(|v| v.is_finite()), "packed-A β=0 read C at m={m} n={n} k={k} isa={}", isa.name());
            }
        }
    }
}

/// With a stale mirror the oracle below would compare packed against packed
/// (or in place against in place) and still pass.
#[test]
fn rule_m_is_the_constant_level3_declares() {
    let declared = include_str!("../src/level3.rs")
        .lines()
        .find_map(|l| l.strip_prefix("const B_IN_PLACE_MAX_M: usize = ")?.strip_suffix(';'))
        .expect("level3.rs no longer declares `const B_IN_PLACE_MAX_M: usize = <literal>;`");
    assert_eq!(declared.parse(), Ok(RULE_M), "RULE_M must mirror level3's B_IN_PLACE_MAX_M");
}

/// In place ≡ packed, without a switch: row `i` of `α·op(A)·op(B) + β·C`
/// is the same recurrence whatever the call's height, so an `m`-row call
/// (`m` at most the rule's constant: a column-major B is read where it
/// lies) must be bitwise the top `m` rows of a taller call over the same
/// operands (B packed) — on every ISA, both `transb`, with
/// k across the `kc` boundary, B a strided view with NaN in its gaps and
/// sized to the last word the call may read (the in-place tile
/// `debug_assert!`s its reads against that length: a fringe column that
/// strays fails this profile instead of reading a neighbour's memory), and
/// a canary row under the short call's C window that no store may touch —
/// the register epilogue of a full tile included (`m`, `n` multiples of
/// the 16×12 super-tile).
#[test]
fn in_place_b_is_bitwise_the_packed_rows_any_isa() {
    let _guard = OverrideGuard::take();
    let mut rng = Xoshiro256::seed_from_u64(fuzz_seed() ^ 0x1A9E);
    let kc = blocking().kc;
    let canary = f64::from_bits(0x7FF8_0000_0000_CA4A);
    let shapes: [(usize, usize, usize); 8] = [
        (2 * MR, 2 * NR, 2 * MR),
        (4 * MR, 4 * NR, kc + 5),
        (RULE_M, 2 * NR, 2 * MR + 1),
        (RULE_M - 1, 2 * NR + 1, kc),
        (1, 1, 1),
        (MR + 3, NR + 1, kc + 1),
        (2 * MR + 3, 3 * NR + 5, 7),
        (5, 4 * NR - 1, 2 * kc + 3),
    ];
    for (m, n, k) in shapes {
        let tall = RULE_M + 1 + rng.range_usize(0, 2 * MR + 3);
        for transa in [Trans::No, Trans::Yes] {
            for transb in [Trans::No, Trans::Yes] {
                for beta in [0.0, 1.0, 0.5] {
                    let alpha = [1.0, -1.0, 0.5][rng.range_usize(0, 3)];
                    // op(A) tall: `tall×k`; the short call sees its top m rows.
                    let (ar, ac) = if transa.is_trans() { (k, tall) } else { (tall, k) };
                    let (br, bc) = if transb.is_trans() { (n, k) } else { (k, n) };
                    let lda = ar + rng.range_usize(0, 4);
                    let ldb = br + rng.range_usize(1, 6);
                    let (ldc_s, ldc_t) = (m + 1, tall + rng.range_usize(0, 3));
                    let a = strided_with_nan_gaps(&mut rng, ar, ac, lda);
                    let b = strided_with_nan_gaps(&mut rng, br, bc, ldb);
                    assert_eq!(b.len(), ldb * (bc - 1) + br, "B is exactly the words the call may read");
                    let c_tall0 = strided_with_nan_gaps(&mut rng, tall, n, ldc_t);
                    // The short C: the tall one's top rows (NaN under β = 0),
                    // then one canary row, then nothing.
                    let mut c_short0 = vec![canary; ldc_s * (n - 1) + m + 1];
                    for j in 0..n {
                        for i in 0..m {
                            c_short0[i + j * ldc_s] = if beta == 0.0 { f64::NAN } else { c_tall0[i + j * ldc_t] };
                        }
                    }
                    for &isa in detected_isas() {
                        set_isa_override(Some(isa));
                        let at = format!(
                            "m={m} n={n} k={k} tall={tall} {transa:?}{transb:?} α={alpha} β={beta} ldb={ldb} isa={}",
                            isa.name()
                        );
                        let mut c_tall = c_tall0.clone();
                        gemm(transa, transb, tall, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_tall, ldc_t);
                        // The short calls see their C up to its last
                        // window word: the final canary lies past it.
                        let win = ldc_s * (n - 1) + m;
                        let mut c_short = c_short0.clone();
                        gemm(transa, transb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_short[..win], ldc_s);
                        let pa = PackedA::pack(transa, m, k, &a, lda);
                        let mut c_pre = c_short0.clone();
                        gemm_packed_a(&pa, transb, n, alpha, &b, ldb, beta, &mut c_pre[..win], ldc_s);
                        for j in 0..n {
                            for i in 0..m {
                                let want = c_tall[i + j * ldc_t];
                                assert!(want.is_finite(), "tall call read a gap at ({i},{j}): {at}");
                                let (s, p) = (c_short[i + j * ldc_s], c_pre[i + j * ldc_s]);
                                assert_eq!(s.to_bits(), want.to_bits(), "short vs tall at ({i},{j}): {at}");
                                assert_eq!(p.to_bits(), want.to_bits(), "prepacked short vs tall at ({i},{j}): {at}");
                            }
                            for c in [&c_short, &c_pre] {
                                assert_eq!(c[m + j * ldc_s].to_bits(), canary.to_bits(), "canary under column {j}: {at}");
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A pre-packed A must give *bitwise* the same answer as the pack-on-the-fly
/// path on every ISA: both run the identical register tile over identical
/// packed bytes, and the recovery replay upstairs relies on kernel
/// determinism.
#[test]
fn prepacked_bitwise_equals_packed_any_isa() {
    let _guard = OverrideGuard::take();
    let mut rng = Xoshiro256::seed_from_u64(fuzz_seed() ^ 0xB17);
    let kc = blocking().kc;
    for &isa in detected_isas() {
        set_isa_override(Some(isa));
        let rule = RULE_EXTENTS.map(|m| (m, 2 * MR + 1));
        for &(m, k) in [
            (5usize, 3usize),
            (MR + 1, NR + 1),
            (40, 17),
            (9, kc + 2),
            (2 * MR + 5, 2 * MR),
        ]
        .iter()
        .chain(&rule)
        {
            let n = 1 + (rng.next_below(12) as usize);
            let a = Matrix::from_fn(m, k, |_, _| rng.range_f64(-1.0, 1.0));
            let b = Matrix::from_fn(k, n, |_, _| rng.range_f64(-1.0, 1.0));
            let c0: Vec<f64> = (0..m * n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let mut c1 = c0.clone();
            gemm(Trans::No, Trans::No, m, n, k, -0.5, a.as_slice(), m, b.as_slice(), k, 0.5, &mut c1, m);
            let pa = PackedA::pack(Trans::No, m, k, a.as_slice(), m);
            let mut c2 = c0.clone();
            gemm_packed_a(&pa, Trans::No, n, -0.5, b.as_slice(), k, 0.5, &mut c2, m);
            for (x, y) in c1.iter().zip(&c2) {
                assert_eq!(x.to_bits(), y.to_bits(), "m={m} n={n} k={k} isa={}", isa.name());
            }
        }
    }
}

/// `gemv(Trans::Yes)` carries several columns per sweep, one accumulator
/// each: over seeded shapes, strides and coefficients the result must be
/// bitwise what the same kernel gives one column per call — the width-1
/// sweep, which is the loop the kernel was before it was blocked.
#[test]
fn gemv_t_blocked_is_bitwise_column_by_column() {
    let mut rng = Xoshiro256::seed_from_u64(fuzz_seed() ^ 0x6E3F);
    let rounds: usize = std::env::var("FT_FUZZ_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(400);
    for round in 0..rounds {
        let m = rng.range_usize(0, 70);
        let n = rng.range_usize(0, 40);
        let lda = m.max(1) + (rng.next_below(2) as usize) * rng.range_usize(1, 6);
        let a = strided_with_nan_gaps(&mut rng, m, n, lda);
        let x: Vec<f64> = (0..m).map(|_| rng.range_f64(-1e3, 1e3)).collect();
        let alpha = COEFFS[rng.range_usize(0, COEFFS.len())];
        let beta = COEFFS[rng.range_usize(0, COEFFS.len())];
        let y0: Vec<f64> = (0..n)
            .map(|_| if beta == 0.0 { f64::NAN } else { rng.range_f64(-1.0, 1.0) })
            .collect();

        let mut got = y0.clone();
        gemv(Trans::Yes, m, n, alpha, &a, lda, &x, beta, &mut got);
        let mut want = y0;
        for (j, yj) in want.iter_mut().enumerate() {
            gemv(Trans::Yes, m, 1, alpha, &a[j * lda..], lda, &x, beta, std::slice::from_mut(yj));
        }
        for (j, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "round {round}: m={m} n={n} lda={lda} α={alpha} β={beta} column {j}");
        }
        assert!(got.iter().all(|v| v.is_finite()), "round {round}: read a stride gap or y under β = 0");
    }
}

/// `gemv(Trans::No)` sweeps up to eight nonzero columns per pass over `y`:
/// over seeded shapes, strides, coefficients and signed zeros in `x` the
/// result must be bitwise what the same kernel gives one column per call —
/// `β` applied by a call with no columns, then each column with `β = 1` —
/// which is the loop the kernel was before it swept.
#[test]
fn gemv_n_sweep_is_bitwise_column_by_column() {
    let mut rng = Xoshiro256::seed_from_u64(fuzz_seed() ^ 0x5EE9);
    let rounds: usize = std::env::var("FT_FUZZ_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(400);
    for round in 0..rounds {
        let m = rng.range_usize(0, 70);
        let n = rng.range_usize(0, 40);
        let lda = m.max(1) + (rng.next_below(2) as usize) * rng.range_usize(1, 6);
        let a = strided_with_nan_gaps(&mut rng, m, n, lda);
        let x: Vec<f64> = (0..n)
            .map(|_| match rng.next_below(6) {
                0 => -0.0,
                1 => 0.0,
                _ => rng.range_f64(-1e3, 1e3),
            })
            .collect();
        let alpha = COEFFS[rng.range_usize(0, COEFFS.len())];
        let beta = COEFFS[rng.range_usize(0, COEFFS.len())];
        let y0: Vec<f64> = (0..m)
            .map(|_| match (beta == 0.0, rng.next_below(4)) {
                (true, _) => f64::NAN,
                (false, 0) => -0.0,
                _ => rng.range_f64(-1.0, 1.0),
            })
            .collect();

        let mut got = y0.clone();
        gemv(Trans::No, m, n, alpha, &a, lda, &x, beta, &mut got);
        let mut want = y0;
        gemv(Trans::No, m, 0, alpha, &a, lda, &[], beta, &mut want);
        for j in 0..n {
            gemv(Trans::No, m, 1, alpha, &a[j * lda..], lda, &x[j..j + 1], 1.0, &mut want);
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "round {round}: m={m} n={n} lda={lda} α={alpha} β={beta} row {i}");
        }
        assert!(got.iter().all(|v| v.is_finite()), "round {round}: read a stride gap or y under β = 0");
    }
}

/// `trmm(Side::Left)` runs its columns 32 to a lane tile and `trmv` is the
/// tile's one-lane case: over seeded shapes (column counts on both sides of
/// every multiple of the lane width), variants, strides and coefficients,
/// with ±0, ±∞ and NaN in `B` and NaN wherever `A` must not be read, both
/// must be bitwise the scalar per-column loop they replaced — the gaps and
/// the canary words past `B`'s last column included. NaN equals NaN: IEEE
/// leaves the payload to the operand order.
#[test]
fn trmm_left_lanes_are_bitwise_column_by_column() {
    let mut rng = Xoshiro256::seed_from_u64(fuzz_seed() ^ 0x7A33);
    let rounds: usize = std::env::var("FT_FUZZ_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(400);
    let pick = |rng: &mut Xoshiro256, v: f64| match rng.next_below(30) {
        0..=3 => 0.0,
        4..=7 => -0.0,
        8 => f64::INFINITY,
        9 => f64::NAN,
        _ => v,
    };
    let same = |g: &[f64], w: &[f64]| {
        g.iter()
            .zip(w)
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
    };
    for round in 0..rounds {
        let m = rng.range_usize(0, 40);
        let n = match rng.next_below(3) {
            0 => rng.range_usize(0, 8),
            1 => 32 * rng.range_usize(1, 4) + rng.range_usize(0, 3) - 1,
            _ => rng.range_usize(0, 140),
        };
        let uplo = if rng.next_below(2) == 0 { UpLo::Upper } else { UpLo::Lower };
        let trans = if rng.next_below(2) == 0 { Trans::No } else { Trans::Yes };
        let diag = if rng.next_below(2) == 0 { Diag::Unit } else { Diag::NonUnit };
        let lda = m.max(1) + rng.range_usize(0, 3);
        let mut a = vec![f64::NAN; lda * m.max(1)];
        for j in 0..m {
            for i in 0..m {
                let inside = if uplo == UpLo::Upper { i < j } else { i > j };
                if inside || (i == j && diag == Diag::NonUnit) {
                    let v = rng.range_f64(-1.5, 1.5);
                    a[i + j * lda] = if rng.next_below(8) == 0 { 0.0 } else { v };
                }
            }
        }
        let ldb = m.max(1) + (rng.next_below(2) as usize) * rng.range_usize(1, 6);
        let mut b = strided_with_nan_gaps(&mut rng, m, n, ldb);
        b.extend_from_slice(&[7.25; 3]);
        for j in 0..n {
            for i in 0..m {
                let v = b[i + j * ldb];
                b[i + j * ldb] = pick(&mut rng, v);
            }
        }
        let alpha = COEFFS[rng.range_usize(0, COEFFS.len())];

        let (mut got, mut want) = (b.clone(), b.clone());
        trmm(Side::Left, uplo, trans, diag, m, n, alpha, &a, lda, &mut got, ldb);
        trmm_left_by_column(uplo, trans, diag, m, n, alpha, &a, lda, &mut want, ldb);
        assert!(
            same(&got, &want),
            "round {round}: trmm {uplo:?} {trans:?} {diag:?} m={m} n={n} lda={lda} ldb={ldb} α={alpha}"
        );

        if n > 0 {
            let (mut got, mut want) = (b[..m].to_vec(), b[..m].to_vec());
            trmv(uplo, trans, diag, m, &a, lda, &mut got);
            trmv_scalar(uplo, trans, diag, m, &a, lda, &mut want);
            assert!(same(&got, &want), "round {round}: trmv {uplo:?} {trans:?} {diag:?} m={m} lda={lda}");
        }
    }
}
