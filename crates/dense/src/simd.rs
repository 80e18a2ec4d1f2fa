//! Runtime ISA selection and the explicit SIMD micro-kernels behind
//! [`crate::level3::gemm`].
//!
//! ## Dispatch model
//!
//! The blocked GEMM always runs the same Goto-style `jc/pc/ic` blocking with
//! `op(A)` packed; only the innermost register tile differs per ISA, and the
//! tile takes `op(B)` through one of two addressings (`b_columns`): packed
//! `NR`-wide panels, or — when `level3`'s pack-or-read rule says the copy
//! would not be repaid — the caller's column-major `B` where it lies (scalar,
//! AVX2 and AVX-512; NEON always packs). The addressing only changes where
//! `b(l, j)` is loaded from, never which value it is or when it enters the
//! recurrence. [`active_isa`] picks the tile:
//!
//! * [`Isa::Scalar`] — the portable Rust micro-kernel (separate multiply and
//!   add per element; LLVM may still auto-vectorize it, but the *rounding* is
//!   mul-then-add). This is the reference contraction class.
//! * [`Isa::Avx2`] — 8×6 tile, 12 ymm accumulators, `_mm256_fmadd_pd`.
//! * [`Isa::Avx512`] — 16×12 super-tile pairing two packed A panels with two
//!   packed B panels (24 zmm accumulators, `_mm512_fmadd_pd`); fringe units
//!   fall back to 16×6 / 8×12 / 8×6 variants of the same loop.
//! * [`Isa::Neon`] — 8×6 tile, 24 `float64x2_t` accumulators, `vfmaq_f64`.
//!
//! The default comes from the `FT_GEMM_ISA` environment variable
//! (`scalar|avx2|avx512|neon|auto`, read once). [`isa_env`] returns an
//! unknown or unsupported value as an error for a binary to report at
//! startup; the first GEMM panics on one nobody checked rather than silently
//! falling back. Tests can switch ISAs mid-process with [`set_isa_override`].
//!
//! ## Determinism contract (see DESIGN.md §14)
//!
//! For every C element the contraction is the *same sequential recurrence*
//! on every path: one accumulator per element, `acc ← acc ⊕ a·b` over
//! `l = 0..k` in order, with β folded in by the first k-block only. The paths
//! differ in exactly one place: the scalar tile rounds the multiply and the
//! add separately, while every vector tile uses a fused multiply-add (one
//! rounding). Store arithmetic (`α·acc`, `c + α·acc`, `α·acc + β·c`) uses
//! plain mul/add on **all** paths — never FMA — so:
//!
//! * results are **bitwise identical across all vector ISAs** (AVX2, AVX-512,
//!   NEON execute the identical per-element IEEE op sequence), and across
//!   every tile pairing and MC/NC partitioning;
//! * the scalar and fused classes differ per element by at most the
//!   accumulated rounding-term difference, `≤ 2·k·ε·(|α|·Σ|a||b| + |β·c|)`;
//! * β = 0 never reads C on any path, and only the `nrows×ncols` window is
//!   ever read or written: the x86 vector tiles store a partial column
//!   through a lane mask (a masked-off lane is not accessed), the scalar
//!   tile through a slice of `nrows`, NEON through a private stack tile;
//! * the x86 vector tiles walk their accumulators with loops whose bounds
//!   are constants — `rows`/`cols` gate a store, they never index — so full
//!   and fringe tiles alike store straight from registers: `α·acc`
//!   multiplied, then added to `c`, never fused;
//! * reading `B` in place runs the identical per-element op sequence as
//!   reading its packed copy: same values, same `l` order, same `kc` blocks.

use crate::level3::{MR, NR};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Instruction-set architecture used by the GEMM register tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Portable Rust micro-kernel (mul-then-add rounding; the reference).
    Scalar,
    /// x86_64 AVX2 + FMA, 8×6 tile.
    Avx2,
    /// x86_64 AVX-512F, 16×12 paired-panel tile.
    Avx512,
    /// aarch64 NEON (always present on aarch64), 8×6 tile.
    Neon,
}

impl Isa {
    /// Stable lowercase name, matching `FT_GEMM_ISA` / `FT_REQUIRE_ISAS`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Neon => "neon",
        }
    }

    /// Parse a lowercase ISA name (not `"auto"` — callers handle that).
    pub fn from_name(s: &str) -> Option<Isa> {
        match s {
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            "avx512" => Some(Isa::Avx512),
            "neon" => Some(Isa::Neon),
            _ => None,
        }
    }

    /// `true` when the tile contracts with fused multiply-add (one rounding
    /// per `a·b + acc` step) instead of the scalar mul-then-add.
    pub fn fused(self) -> bool {
        self != Isa::Scalar
    }
}

/// Every ISA whose kernel can run on this host, in ascending preference
/// order. Always starts with [`Isa::Scalar`].
pub fn detected_isas() -> &'static [Isa] {
    static DETECTED: OnceLock<Vec<Isa>> = OnceLock::new();
    DETECTED.get_or_init(|| {
        let mut v = vec![Isa::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
                v.push(Isa::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("fma") {
                v.push(Isa::Avx512);
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                v.push(Isa::Neon);
            }
        }
        v
    })
}

/// The ISA `FT_GEMM_ISA` asks for: unset, empty or `auto` is the best
/// detected one. A name that is not an ISA, or one this host cannot run,
/// is an `Err` naming the variable — a usage error for a binary to report
/// at startup, before the first GEMM.
pub fn isa_env() -> Result<Isa, String> {
    let avail = detected_isas();
    match std::env::var("FT_GEMM_ISA").ok().as_deref() {
        None | Some("auto") | Some("") => Ok(*avail.last().unwrap()),
        Some(name) => match Isa::from_name(name) {
            None => Err(format!("FT_GEMM_ISA: '{name}' is not one of scalar|avx2|avx512|neon|auto")),
            Some(isa) if !avail.contains(&isa) => Err(format!(
                "FT_GEMM_ISA: {name} requested but this host only supports {:?}",
                avail.iter().map(|i| i.name()).collect::<Vec<_>>()
            )),
            Some(isa) => Ok(isa),
        },
    }
}

fn default_isa() -> Isa {
    static DEFAULT: OnceLock<Isa> = OnceLock::new();
    *DEFAULT.get_or_init(|| isa_env().unwrap_or_else(|e| panic!("{e}")))
}

/// Process-global test override: 0 = none, otherwise `isa as u8 + 1`.
static ISA_OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn isa_to_code(isa: Isa) -> u8 {
    match isa {
        Isa::Scalar => 1,
        Isa::Avx2 => 2,
        Isa::Avx512 => 3,
        Isa::Neon => 4,
    }
}

fn isa_from_code(code: u8) -> Option<Isa> {
    match code {
        1 => Some(Isa::Scalar),
        2 => Some(Isa::Avx2),
        3 => Some(Isa::Avx512),
        4 => Some(Isa::Neon),
        _ => None,
    }
}

/// Force the GEMM tile ISA for subsequent calls (`None` restores the
/// `FT_GEMM_ISA`/auto default). Panics if the ISA is not available on this
/// host — tests that must exercise a specific path should fail, not silently
/// run another one. Process-global: callers that flip it around a region
/// must serialize with other such callers.
pub fn set_isa_override(isa: Option<Isa>) {
    if let Some(isa) = isa {
        assert!(
            detected_isas().contains(&isa),
            "set_isa_override({:?}): not available on this host (detected: {:?})",
            isa,
            detected_isas().iter().map(|i| i.name()).collect::<Vec<_>>()
        );
        ISA_OVERRIDE.store(isa_to_code(isa), Ordering::SeqCst);
    } else {
        ISA_OVERRIDE.store(0, Ordering::SeqCst);
    }
}

/// The ISA the next GEMM call will use: the [`set_isa_override`] value if
/// set, else the `FT_GEMM_ISA` env default (auto = best detected).
pub fn active_isa() -> Isa {
    isa_from_code(ISA_OVERRIDE.load(Ordering::SeqCst)).unwrap_or_else(default_isa)
}

/// Column pointers and k-stride of the `BQ` B panels one register tile
/// contracts with: `b(l, j)` of panel `q` is `*cols[q][j].add(l·ks)`.
///
/// * packed (`IN_PLACE = false`): `b` holds zero-padded `NR×kc` panels back
///   to back, so column `j` of panel `q` starts at `q·NR·kc + j` and `ks = NR`;
/// * in place (`IN_PLACE = true`): `b` is column-major `op(B) = B` with
///   leading dimension `ldb`, starting at the tile's first column, so column
///   `q·NR + j` starts at `(q·NR + j)·ldb` and `ks = 1`. Only `ncols` columns
///   exist: the fringe ones alias the last valid column (their accumulators
///   are never stored), so nothing outside `b[..ldb·(ncols−1) + kc]` is read.
///
/// # Safety
/// `b` must hold the `kc` words of every column addressed: `BQ` whole
/// panels when packed, `ldb·(ncols−1) + kc` words with `ncols ≥ 1` in place
/// (`gemm_blocked`'s operand check and block slicing establish both). The
/// pointers are valid for `l < kc` only; the `debug_assert!` re-derives the
/// bound from the offsets actually formed, against `b`'s own length.
#[inline(always)]
pub(crate) unsafe fn b_columns<const IN_PLACE: bool, const BQ: usize>(
    b: &[f64],
    kc: usize,
    ldb: usize,
    ncols: usize,
) -> ([[*const f64; NR]; BQ], usize) {
    let ks = if IN_PLACE { 1 } else { NR };
    let mut cols = [[b.as_ptr(); NR]; BQ];
    for (q, colq) in cols.iter_mut().enumerate() {
        for (j, col) in colq.iter_mut().enumerate() {
            let off = if IN_PLACE { (q * NR + j).min(ncols - 1) * ldb } else { q * NR * kc + j };
            debug_assert!(off + (kc - 1) * ks < b.len(), "register tile would read past its B operand");
            *col = b.as_ptr().add(off);
        }
    }
    (cols, ks)
}

// ---------------------------------------------------------------------------
// x86_64 kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub mod x86 {
    use super::{b_columns, MR, NR};
    use core::arch::x86_64::*;

    /// AVX2 8×6 register tile over one packed A panel (`MR·kc`, unit-stride
    /// columns of 8) and one B panel addressed through [`b_columns`].
    ///
    /// # Safety
    /// Caller guarantees AVX2+FMA are available, `ap` points at a fully
    /// packed (zero-padded) panel of depth `kc`, `b` satisfies
    /// [`b_columns`] for `ncols` columns, and `c[0..nrows, 0..ncols]` with
    /// leading dimension `ldc` is writable.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn micro_8x6_avx2<const IN_PLACE: bool>(
        kc: usize,
        alpha: f64,
        ap: *const f64,
        b: &[f64],
        ldb: usize,
        beta: f64,
        nrows: usize,
        ncols: usize,
        c: *mut f64,
        ldc: usize,
    ) {
        let ([bcol], ks) = b_columns::<IN_PLACE, 1>(b, kc, ldb, ncols);
        let mut acc = [[_mm256_setzero_pd(); 2]; NR];
        for l in 0..kc {
            let a0 = _mm256_loadu_pd(ap.add(l * MR));
            let a1 = _mm256_loadu_pd(ap.add(l * MR + 4));
            // One accumulator per C element, updated once per k step, in k
            // order: the fused-class contraction recurrence.
            for (j, accj) in acc.iter_mut().enumerate() {
                let bj = _mm256_set1_pd(*bcol[j].add(l * ks));
                accj[0] = _mm256_fmadd_pd(a0, bj, accj[0]);
                accj[1] = _mm256_fmadd_pd(a1, bj, accj[1]);
            }
        }
        let va = _mm256_set1_pd(alpha);
        let vb = _mm256_set1_pd(beta);
        // Constant loop bound, `j < ncols` inside: indexing `acc` by the
        // runtime `ncols` would put all of it in memory.
        for (j, accj) in acc.iter().enumerate() {
            if j < ncols {
                store_col_avx2(c.add(j * ldc), accj[0], accj[1], va, vb, beta, nrows);
            }
        }
    }

    /// Store one tile column, `rows ≤ MR` of it: `c ← α·acc (+ β·c)` with
    /// plain (non-fused) mul/add so every vector ISA rounds stores
    /// identically. A partial column goes through lane masks — a masked-off
    /// lane is neither read nor written — so only `rows` elements of `c` are
    /// ever touched; β = 0 reads nothing. Full columns keep plain moves
    /// (`vmaskmovpd` stores are slow on some AVX2-only cores).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store_col_avx2(cj: *mut f64, lo: __m256d, hi: __m256d, va: __m256d, vb: __m256d, beta: f64, rows: usize) {
        let (olo, ohi) = (_mm256_mul_pd(va, lo), _mm256_mul_pd(va, hi));
        if rows == MR {
            if beta == 0.0 {
                _mm256_storeu_pd(cj, olo);
                _mm256_storeu_pd(cj.add(4), ohi);
            } else if beta == 1.0 {
                _mm256_storeu_pd(cj, _mm256_add_pd(_mm256_loadu_pd(cj), olo));
                _mm256_storeu_pd(cj.add(4), _mm256_add_pd(_mm256_loadu_pd(cj.add(4)), ohi));
            } else {
                _mm256_storeu_pd(cj, _mm256_add_pd(olo, _mm256_mul_pd(vb, _mm256_loadu_pd(cj))));
                _mm256_storeu_pd(cj.add(4), _mm256_add_pd(ohi, _mm256_mul_pd(vb, _mm256_loadu_pd(cj.add(4)))));
            }
            return;
        }
        let nr = _mm256_set1_epi64x(rows as i64);
        let mlo = _mm256_cmpgt_epi64(nr, _mm256_setr_epi64x(0, 1, 2, 3));
        let mhi = _mm256_cmpgt_epi64(nr, _mm256_setr_epi64x(4, 5, 6, 7));
        let (olo, ohi) = if beta == 0.0 {
            (olo, ohi)
        } else {
            let (tlo, thi) = (_mm256_maskload_pd(cj, mlo), _mm256_maskload_pd(cj.add(4), mhi));
            if beta == 1.0 {
                (_mm256_add_pd(tlo, olo), _mm256_add_pd(thi, ohi))
            } else {
                (_mm256_add_pd(olo, _mm256_mul_pd(vb, tlo)), _mm256_add_pd(ohi, _mm256_mul_pd(vb, thi)))
            }
        };
        _mm256_maskstore_pd(cj, mlo, olo);
        _mm256_maskstore_pd(cj.add(4), mhi, ohi);
    }

    /// AVX-512 super-tile over `AP ∈ {1,2}` packed A panels and
    /// `BQ ∈ {1,2}` B panels addressed through [`b_columns`]: up to 16×12 C
    /// elements in 24 zmm accumulators. Per k step: `AP` vector loads +
    /// `BQ·NR` broadcasts feeding `AP·BQ·NR` FMAs. `rows[v]`/`cols[q]`
    /// restrict the stores of panel `v` / B panel `q` for fringe units.
    ///
    /// # Safety
    /// Caller guarantees AVX-512F+FMA, packed zero-padded A panels of depth
    /// `kc` at `ap` (stride `MR·kc`), `b` satisfying [`b_columns`] for
    /// `cols[0] + cols[1]` columns, and a writable C window covering
    /// `rows[v]` rows at row offset `v·MR` and `cols[q]` columns at column
    /// offset `q·NR`.
    #[target_feature(enable = "avx512f,fma")]
    pub unsafe fn super_tile_avx512<const AP: usize, const BQ: usize, const IN_PLACE: bool>(
        kc: usize,
        alpha: f64,
        ap: *const f64,
        b: &[f64],
        ldb: usize,
        beta: f64,
        rows: [usize; 2],
        cols: [usize; 2],
        c: *mut f64,
        ldc: usize,
    ) {
        let (bcol, ks) = b_columns::<IN_PLACE, BQ>(b, kc, ldb, cols[0] + cols[1]);
        let mut acc = [[[_mm512_setzero_pd(); AP]; NR]; BQ];
        let a_stride = MR * kc;
        for l in 0..kc {
            let mut av = [_mm512_setzero_pd(); AP];
            for (v, avv) in av.iter_mut().enumerate() {
                *avv = _mm512_loadu_pd(ap.add(v * a_stride + l * MR));
            }
            for (accq, bq) in acc.iter_mut().zip(&bcol) {
                for (accj, bj) in accq.iter_mut().zip(bq) {
                    let bj = _mm512_set1_pd(*bj.add(l * ks));
                    for (accv, &avv) in accj.iter_mut().zip(&av) {
                        *accv = _mm512_fmadd_pd(avv, bj, *accv);
                    }
                }
            }
        }
        let va = _mm512_set1_pd(alpha);
        let vb = _mm512_set1_pd(beta);
        // Every loop bound is a const generic and the fringe is a lane mask,
        // so full and fringe tiles alike store from registers: indexing `acc`
        // by the runtime `rows`/`cols` would put all of it in memory.
        for (q, accq) in acc.iter().enumerate() {
            for (j, accj) in accq.iter().enumerate() {
                if j < cols[q] {
                    let cj = c.add((q * NR + j) * ldc);
                    for (v, &accv) in accj.iter().enumerate() {
                        store_col_avx512(cj.add(v * MR), accv, va, vb, beta, rows[v]);
                    }
                }
            }
        }
    }

    /// AVX-512 column store, `rows ≤ MR` of them: `c ← α·acc (+ β·c)` with
    /// the same (non-fused) rounding as [`store_col_avx2`]. The lane mask
    /// is the window discipline — a masked-off lane is neither read nor
    /// written — and β = 0 reads nothing.
    #[target_feature(enable = "avx512f,fma")]
    unsafe fn store_col_avx512(cj: *mut f64, acc: __m512d, va: __m512d, vb: __m512d, beta: f64, rows: usize) {
        let mask = ((1u32 << rows) - 1) as __mmask8;
        let out = if beta == 0.0 {
            _mm512_mul_pd(va, acc)
        } else if beta == 1.0 {
            _mm512_add_pd(_mm512_maskz_loadu_pd(mask, cj), _mm512_mul_pd(va, acc))
        } else {
            _mm512_add_pd(_mm512_mul_pd(va, acc), _mm512_mul_pd(vb, _mm512_maskz_loadu_pd(mask, cj)))
        };
        _mm512_mask_storeu_pd(cj, mask, out);
    }
}

// ---------------------------------------------------------------------------
// aarch64 kernel
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
pub mod arm {
    use super::{MR, NR};
    use core::arch::aarch64::*;

    /// NEON 8×6 register tile: 24 `float64x2_t` accumulators (4 pairs × 6
    /// columns), fused contraction via `vfmaq_f64` — the same per-element
    /// recurrence and store rounding as the x86 vector tiles, so results are
    /// bitwise identical to AVX2/AVX-512 on the same inputs.
    ///
    /// # Safety
    /// Caller guarantees NEON (always on aarch64), packed zero-padded panels
    /// of depth `kc`, and a writable `nrows×ncols` C window.
    #[target_feature(enable = "neon")]
    pub unsafe fn micro_8x6_neon(
        kc: usize,
        alpha: f64,
        ap: *const f64,
        bp: *const f64,
        beta: f64,
        nrows: usize,
        ncols: usize,
        c: *mut f64,
        ldc: usize,
    ) {
        let mut acc = [[vdupq_n_f64(0.0); 4]; NR];
        let mut a = ap;
        let mut b = bp;
        for _ in 0..kc {
            let a0 = vld1q_f64(a);
            let a1 = vld1q_f64(a.add(2));
            let a2 = vld1q_f64(a.add(4));
            let a3 = vld1q_f64(a.add(6));
            for (j, accj) in acc.iter_mut().enumerate() {
                let bj = vdupq_n_f64(*b.add(j));
                accj[0] = vfmaq_f64(accj[0], a0, bj);
                accj[1] = vfmaq_f64(accj[1], a1, bj);
                accj[2] = vfmaq_f64(accj[2], a2, bj);
                accj[3] = vfmaq_f64(accj[3], a3, bj);
            }
            a = a.add(MR);
            b = b.add(NR);
        }
        let va = vdupq_n_f64(alpha);
        let vb = vdupq_n_f64(beta);
        for (j, accj) in acc.iter().enumerate().take(ncols) {
            let cj = c.add(j * ldc);
            if nrows == MR {
                for (h, &accv) in accj.iter().enumerate() {
                    let p = cj.add(2 * h);
                    let out = if beta == 0.0 {
                        vmulq_f64(va, accv)
                    } else if beta == 1.0 {
                        vaddq_f64(vld1q_f64(p), vmulq_f64(va, accv))
                    } else {
                        vaddq_f64(vmulq_f64(va, accv), vmulq_f64(vb, vld1q_f64(p)))
                    };
                    vst1q_f64(p, out);
                }
                continue;
            }
            let mut tmp = [0.0f64; MR];
            if beta != 0.0 {
                for (r, t) in tmp.iter_mut().enumerate().take(nrows) {
                    *t = *cj.add(r);
                }
            }
            for (h, &accv) in accj.iter().enumerate() {
                let p = tmp.as_mut_ptr().add(2 * h);
                let tv = vld1q_f64(p);
                let out = if beta == 0.0 {
                    vmulq_f64(va, accv)
                } else if beta == 1.0 {
                    vaddq_f64(tv, vmulq_f64(va, accv))
                } else {
                    vaddq_f64(vmulq_f64(va, accv), vmulq_f64(vb, tv))
                };
                vst1q_f64(p, out);
            }
            for (r, t) in tmp.iter().enumerate().take(nrows) {
                *cj.add(r) = *t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_detected_and_first() {
        let d = detected_isas();
        assert_eq!(d[0], Isa::Scalar);
        assert!(!d.is_empty());
    }

    #[test]
    fn name_roundtrip() {
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon] {
            assert_eq!(Isa::from_name(isa.name()), Some(isa));
        }
        assert_eq!(Isa::from_name("auto"), None);
        assert_eq!(Isa::from_name("sse9"), None);
    }

    #[test]
    fn override_wins_and_clears() {
        let before = active_isa();
        set_isa_override(Some(Isa::Scalar));
        assert_eq!(active_isa(), Isa::Scalar);
        set_isa_override(None);
        assert_eq!(active_isa(), before);
    }
}
