//! Level-3 BLAS: matrix-matrix kernels on column-major storage.
//!
//! [`gemm`] is the workhorse of the whole workspace — both the shared-memory
//! blocked Hessenberg reduction and the distributed trailing-matrix updates
//! funnel into it. It uses the classic three-level blocking scheme
//! (Goto-style: NC/KC/MC cache blocks around an [`MR`]×[`NR`] register
//! micro-kernel): one `jc/pc/ic` loop serves [`gemm`] and [`gemm_packed_a`].
//! What is packed when: `op(A)` always (on the fly, or once as a
//! [`PackedA`]); `op(B)` only when the copy is repaid — when it is stored
//! transposed, or `op(A)` has more than `B_IN_PLACE_MAX_M` rows to re-read
//! it. Otherwise the register tile reads the caller's column-major `B`
//! where it lies. B's addressing never changes a per-element op sequence
//! (same values, same `l` order, same `kc` blocks), so the rule is invisible
//! in results. Three properties matter to the layers above:
//!
//! * **Runtime-probed cache blocks.** `KC`/`MC`/`NC` are not hard-coded:
//!   [`blocking`] probes the data-cache hierarchy once (sysfs on Linux,
//!   conservative fallbacks) and sizes the panels so the A micro-panel +
//!   B micro-panel live in L1, the packed A block in L2 and the B block in
//!   L3.
//! * **Fused β.** The β scaling of `C` is folded into the first `KC`-block's
//!   micro-kernel store (β = 0 never reads `C`, so NaN/garbage in the output
//!   buffer cannot leak through) instead of a separate full sweep over `C`
//!   before the multiply — one pass over `C` less per call.
//! * **Reusable packed operands.** [`PackedA`] packs `op(A)` once in the
//!   micro-kernel's panel layout; [`gemm_packed_a`] then multiplies it
//!   against any number of right-hand sides. The distributed trailing
//!   updates use this to pack `Y` (right update) and `V` (left update) a
//!   single time and sweep them over every contiguous column run — original
//!   trailing columns *and* ABFT checksum columns ride the identical packed
//!   buffer, which is what makes the checksum update cost the paper's §6
//!   model charges proportional to column count only.
//!
//! One knob was added for the fig6a overhead work (DESIGN.md §14): **runtime
//! ISA dispatch.** The register tile comes in a portable scalar flavor plus
//! explicit `std::arch` AVX2, AVX-512 and NEON flavors ([`crate::simd`]);
//! `FT_GEMM_ISA` / [`set_isa_override`] select one at runtime. All vector
//! flavors are bitwise-identical to each other; the scalar flavor is its own
//! contraction class (mul-then-add rounding). Every call runs on the calling
//! thread: one thread per rank.
//!
//! [`gemm_naive`] is the deliberately simple triple-loop oracle used by the
//! test suites (and the kernel-equivalence fuzzer) to validate every faster
//! path.

use crate::counters::{add_flops, add_gemm_call};
use crate::level2::trmv_lanes;
use crate::simd::Isa;
use crate::{simd, Diag, Side, Trans, UpLo};
use std::sync::OnceLock;

pub use crate::simd::{active_isa, detected_isas, set_isa_override};

/// Register block: rows of the micro-tile. One AVX-512 lane-group (8 f64),
/// two AVX2 lanes — a full cache line either way.
pub const MR: usize = 8;
/// Register block: columns of the micro-tile. `MR×NR` accumulators fit the
/// architectural register file (6×8 f64 = 12 ymm / 6 zmm) with room for the
/// A column and B broadcasts.
pub const NR: usize = 6;

/// Cache-block sizes used by the packed GEMM, chosen once at runtime by
/// [`blocking`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocking {
    /// Cache block over `k`: depth of the packed panels.
    pub kc: usize,
    /// Cache block over `m`: rows of the packed A block (multiple of [`MR`]).
    pub mc: usize,
    /// Cache block over `n`: columns of the packed B block (multiple of
    /// [`NR`]).
    pub nc: usize,
}

static BLOCKING: OnceLock<Blocking> = OnceLock::new();

/// The process-wide cache-blocking parameters, probed from the CPU cache
/// hierarchy on first use.
pub fn blocking() -> Blocking {
    *BLOCKING.get_or_init(probe_blocking)
}

/// Parse a sysfs cache size string like `"48K"`, `"2048K"`, `"1M"`.
fn parse_cache_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1usize << 10),
        b'M' => (&s[..s.len() - 1], 1usize << 20),
        b'G' => (&s[..s.len() - 1], 1usize << 30),
        _ => (s, 1),
    };
    num.parse::<usize>().ok().map(|v| v * mult)
}

/// Size in bytes of the level-`level` data (or unified) cache of cpu0, if
/// the platform exposes it.
fn sysfs_cache_size(level: usize) -> Option<usize> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let entries = std::fs::read_dir(base).ok()?;
    for e in entries.flatten() {
        let p = e.path();
        let read = |f: &str| std::fs::read_to_string(p.join(f)).ok();
        let Some(lv) = read("level").and_then(|v| v.trim().parse::<usize>().ok()) else {
            continue;
        };
        if lv != level {
            continue;
        }
        match read("type").as_deref().map(str::trim) {
            Some("Data") | Some("Unified") => {}
            _ => continue,
        }
        if let Some(sz) = read("size").and_then(|v| parse_cache_size(&v)) {
            return Some(sz);
        }
    }
    None
}

/// Conservative cache sizes assumed when the platform exposes nothing
/// (sandboxed containers frequently mount no `/sys/devices/system/cpu`).
const FALLBACK_L1: usize = 32 << 10;
const FALLBACK_L2: usize = 256 << 10;
const FALLBACK_L3: usize = 8 << 20;

/// Pure blocking computation from cache sizes (`None` = use the
/// conservative fallback for that level). Split out from [`blocking`] so
/// the no-sysfs path is unit testable on any host.
pub fn compute_blocking(l1: Option<usize>, l2: Option<usize>, l3: Option<usize>) -> Blocking {
    let l1 = l1.unwrap_or(FALLBACK_L1);
    let l2 = l2.unwrap_or(FALLBACK_L2);
    let l3 = l3.unwrap_or(FALLBACK_L3).max(l2);
    // KC: one MR×KC A micro-panel plus one KC×NR B micro-panel should fill
    // about half of L1, leaving the C tile and streaming lines resident.
    let kc = (l1 / (2 * 8 * (MR + NR))).clamp(64, 512) & !7;
    // MC: the packed MC×KC A block occupies about half of L2. Rounded to a
    // multiple of 2·MR so the AVX-512 paired-panel tile sees full 16-row
    // units everywhere except the final fringe (per-element bits do not
    // depend on MC — this is purely a throughput choice).
    let mc = (l2 / (2 * 8 * kc)).clamp(2 * MR, 2048) / (2 * MR) * (2 * MR);
    // NC: the packed KC×NC B block stays well inside L3.
    let nc = (l3 / (4 * 8 * kc)).clamp(2 * NR, 8160) / NR * NR;
    Blocking { kc, mc, nc }
}

fn probe_blocking() -> Blocking {
    let (l1, l2, l3) = (sysfs_cache_size(1), sysfs_cache_size(2), sysfs_cache_size(3));
    // Containers often hide the cache hierarchy; say so once instead of
    // silently running with the clamp floors.
    if l1.is_none() || l2.is_none() || l3.is_none() {
        eprintln!(
            "ft-dense: cache sizes not fully exposed via sysfs (L1={l1:?} L2={l2:?} L3={l3:?}); \
             using conservative fallback blocking"
        );
    }
    compute_blocking(l1, l2, l3)
}

#[inline]
fn at(trans: Trans, base: &[f64], ld: usize, i: usize, j: usize) -> f64 {
    match trans {
        Trans::No => base[i + j * ld],
        Trans::Yes => base[j + i * ld],
    }
}

/// `C(0..m, 0..n) ← β·C` without touching anything past `m` in each column.
/// β = 0 stores instead of multiplying, so NaN/garbage never propagates.
fn scale_c(m: usize, n: usize, beta: f64, c: &mut [f64], ldc: usize) {
    if beta == 1.0 {
        return;
    }
    for j in 0..n {
        let col = &mut c[j * ldc..j * ldc + m];
        if beta == 0.0 {
            col.fill(0.0);
        } else {
            for v in col.iter_mut() {
                *v *= beta;
            }
        }
    }
}

/// General matrix-matrix multiply:
/// `C ← α·op(A)·op(B) + β·C`, with `op(A)` `m×k`, `op(B)` `k×n`, `C` `m×n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
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
    c: &mut [f64],
    ldc: usize,
) {
    check_operand("A", transa, m, k, a, lda);
    gemm_blocked(ASource::Raw { trans: transa, a, lda }, transb, m, n, k, alpha, b, ldb, beta, c, ldc);
}

/// `op(X)` is `rows×cols`: its storage must hold it at leading dimension `ld`.
fn check_operand(name: &str, trans: Trans, rows: usize, cols: usize, x: &[f64], ld: usize) {
    let (rows, cols) = match trans {
        Trans::No => (rows, cols),
        Trans::Yes => (cols, rows),
    };
    assert!(ld >= rows.max(1), "gemm: leading dimension of {name} too small");
    if rows > 0 && cols > 0 {
        assert!(x.len() >= ld * (cols - 1) + rows, "gemm: {name} buffer too small");
    }
}

/// `op(A)` packed once into the micro-kernel's panel layout, for repeated
/// multiplication against different right-hand sides via [`gemm_packed_a`].
///
/// The distributed trailing updates build one `PackedA` per panel operand
/// (`Y` for the right update, `V`/`Vᵀ` for the left update) and reuse it
/// across every contiguous column run — including the ABFT checksum
/// columns, which therefore hit the exact same packed bytes as the data
/// columns they protect.
#[derive(Debug, Clone)]
pub struct PackedA {
    m: usize,
    k: usize,
    /// `m` rounded up to a multiple of [`MR`] (panel padding).
    m_pad: usize,
    data: Vec<f64>,
}

impl PackedA {
    /// Pack `op(A)` (`m×k` logical) from column-major storage `a` with
    /// leading dimension `lda`.
    pub fn pack(trans: Trans, m: usize, k: usize, a: &[f64], lda: usize) -> PackedA {
        check_operand("A", trans, m, k, a, lda);
        let kc = blocking().kc;
        let m_pad = m.div_ceil(MR) * MR;
        let mut data = vec![0.0f64; m_pad * k];
        let mut pc = 0;
        while pc < k {
            let kcb = kc.min(k - pc);
            // One block per `pc` step of the block loop, laid out back to
            // back; block `pc` starts at `m_pad·pc` because the blocks
            // before it hold `pc` k-columns.
            pack_a(trans, a, lda, 0, pc, m, kcb, &mut data[m_pad * pc..m_pad * (pc + kcb)]);
            pc += kc;
        }
        PackedA { m, k, m_pad, data }
    }

    /// Logical rows `m` of `op(A)`.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Logical columns `k` of `op(A)` (the contraction dimension).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }
}

/// `C ← α·op(A)·op(B) + β·C` with `op(A)` pre-packed — see [`PackedA`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_a(
    pa: &PackedA,
    transb: Trans,
    n: usize,
    alpha: f64,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    gemm_blocked(ASource::Packed(pa), transb, pa.m, n, pa.k, alpha, b, ldb, beta, c, ldc);
}

/// Where the block loop finds `op(A)`: still in the caller's storage (packed
/// block by block into the thread's scratch), or already a [`PackedA`].
enum ASource<'a> {
    Raw { trans: Trans, a: &'a [f64], lda: usize },
    Packed(&'a PackedA),
}

/// `op(B)` is read where it lies — not packed — when it is column-major as
/// given and `op(A)` has at most this many rows. Every packed element of B
/// is used once per row of `op(A)`, so below this height the copy costs more
/// than the contiguous panels save (the m-sweep is in EXPERIMENTS.md,
/// "Update-GEMM profile"). A multiple of 2·[`MR`], and no smaller than the
/// largest panel width in use (64): `W = Vᵀ·C` (m = nb) reads the trailing
/// matrix in place, the `C −= Y·Vᵀ` / `C −= V·W` updates (m = local rows)
/// pack. Never changes a bit: see [`simd::b_columns`]. The kernel fuzzer
/// mirrors the value (`RULE_M`) to test both sides of it, and reads this
/// declaration from the source to fail when the two drift apart.
const B_IN_PLACE_MAX_M: usize = 128;

/// The one `jc/pc/ic` block loop behind [`gemm`] and [`gemm_packed_a`].
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    asrc: ASource,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    check_operand("B", transb, k, n, b, ldb);
    check_operand("C", Trans::No, m, n, c, ldc);
    if m == 0 || n == 0 {
        return;
    }
    if alpha == 0.0 || k == 0 {
        scale_c(m, n, beta, c, ldc);
        return;
    }
    add_flops(2 * m as u64 * n as u64 * k as u64);
    add_gemm_call();

    // The ISA is sampled once per call so a mid-call override flip (tests)
    // can never mix tile flavors within one multiply.
    let isa = simd::active_isa();
    let in_place = transb == Trans::No && m <= B_IN_PLACE_MAX_M && isa != Isa::Neon;
    let bl = blocking();
    let kc_cap = bl.kc.min(k);
    let acap = if matches!(asrc, ASource::Raw { .. }) {
        bl.mc.min(m.div_ceil(MR) * MR) * kc_cap
    } else {
        0
    };
    let bcap = if in_place { 0 } else { kc_cap * bl.nc.min(n.div_ceil(NR) * NR) };
    PACK_SCRATCH.with_borrow_mut(|(apack, bpack)| {
        grow(apack, acap);
        grow(bpack, bcap);
        let (apack, bpack) = (&mut apack[..acap], &mut bpack[..bcap]);

        let mut jc = 0;
        while jc < n {
            let nc = bl.nc.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc = bl.kc.min(k - pc);
                // β is applied exactly once per C element: by the k-block that
                // sees it first.
                let beta_eff = if pc == 0 { beta } else { 1.0 };
                // In place, the block is the caller's B from (pc, jc) to the
                // last element the call may read — the tiles check against it.
                let (bblock, bld) = if in_place {
                    (&b[pc + jc * ldb..ldb * (n - 1) + k], Some(ldb))
                } else {
                    pack_b(transb, b, ldb, pc, jc, kc, nc, bpack);
                    (&*bpack, None)
                };
                let mut ic = 0;
                while ic < m {
                    let mc = bl.mc.min(m - ic);
                    let ablock = match asrc {
                        ASource::Raw { trans, a, lda } => {
                            pack_a(trans, a, lda, ic, pc, mc, kc, apack);
                            &*apack
                        }
                        // k-block `pc` of a `PackedA` starts at `m_pad·pc`;
                        // its panels from row `ic` on are `MR·kc` each.
                        ASource::Packed(pa) => &pa.data[pa.m_pad * pc + ic * kc..pa.m_pad * (pc + kc)],
                    };
                    macro_kernel(mc, nc, kc, alpha, ablock, bblock, bld, beta_eff, &mut c[ic + jc * ldc..], ldc, isa);
                    ic += bl.mc;
                }
                pc += bl.kc;
            }
            jc += bl.nc;
        }
    });
}

/// Pack the `mc×kc` block of `op(A)` starting at logical `(ic, pc)` into
/// row-panels of height `MR`, zero-padded, laid out so the micro-kernel reads
/// unit-stride.
#[allow(clippy::needless_range_loop)] // symmetric zero-pad loops read clearer unindexed
fn pack_a(trans: Trans, a: &[f64], lda: usize, ic: usize, pc: usize, mc: usize, kc: usize, out: &mut [f64]) {
    let panels = mc.div_ceil(MR);
    for p in 0..panels {
        let r0 = p * MR;
        let rows = MR.min(mc - r0);
        let base = p * MR * kc;
        if rows == MR && trans == Trans::No {
            // Full panel, no transpose: straight unit-stride column copies.
            for j in 0..kc {
                let src = &a[(ic + r0) + (pc + j) * lda..(ic + r0) + (pc + j) * lda + MR];
                out[base + j * MR..base + j * MR + MR].copy_from_slice(src);
            }
            continue;
        }
        for j in 0..kc {
            let dst = &mut out[base + j * MR..base + j * MR + MR];
            for r in 0..rows {
                dst[r] = at(trans, a, lda, ic + r0 + r, pc + j);
            }
            for r in rows..MR {
                dst[r] = 0.0;
            }
        }
    }
}

/// Pack the `kc×nc` block of `op(B)` starting at logical `(pc, jc)` into
/// column-panels of width `NR`, zero-padded.
#[allow(clippy::needless_range_loop)]
fn pack_b(trans: Trans, b: &[f64], ldb: usize, pc: usize, jc: usize, kc: usize, nc: usize, out: &mut [f64]) {
    let panels = nc.div_ceil(NR);
    for q in 0..panels {
        let c0 = q * NR;
        let colsn = NR.min(nc - c0);
        let base = q * NR * kc;
        if colsn == NR && trans == Trans::No {
            // Full panel, no transpose: interleave NR source columns. Fixed
            // column views + a fixed-width destination chunk elide every
            // bounds check in the hot loop (this pack runs once per k-block
            // per GEMM call and was a measurable slice of the wall clock).
            let col = |cdx: usize| &b[(pc) + (jc + c0 + cdx) * ldb..][..kc];
            let cols: [&[f64]; NR] = [col(0), col(1), col(2), col(3), col(4), col(5)];
            for (j, dst) in out[base..base + kc * NR].chunks_exact_mut(NR).enumerate() {
                for (cdx, c) in cols.iter().enumerate() {
                    dst[cdx] = c[j];
                }
            }
            continue;
        }
        for j in 0..kc {
            let dst = &mut out[base + j * NR..base + j * NR + NR];
            for cdx in 0..colsn {
                dst[cdx] = at(trans, b, ldb, pc + j, jc + c0 + cdx);
            }
            for cdx in colsn..NR {
                dst[cdx] = 0.0;
            }
        }
    }
}

thread_local! {
    /// Per-thread packing scratch (`apack`, `bpack`), grown on demand and
    /// reused across GEMM calls: skips an allocation + zero-fill of up to
    /// MC·KC + KC·NC doubles per call. Safe to reuse un-zeroed because
    /// `pack_a`/`pack_b` fully overwrite (and explicitly zero-pad) every
    /// region the macro-kernel reads.
    static PACK_SCRATCH: std::cell::RefCell<(Vec<f64>, Vec<f64>)> = const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

fn grow(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Multiply the packed `mc×kc` A block by the `kc×nc` block of `op(B)` into
/// the `mc×nc` C window at `c` (leading dimension `ldc`):
/// `C ← α·A·B + β_eff·C` tile by tile, on the active ISA. `b` holds packed
/// panels (`ldb = None`) or the caller's column-major B from the block's
/// first element on (`ldb = Some(ld)`).
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: f64,
    apack: &[f64],
    b: &[f64],
    ldb: Option<usize>,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    isa: Isa,
) {
    let c = c.as_mut_ptr();
    match ldb {
        Some(ld) => macro_kernel_tiles::<true>(mc, nc, kc, alpha, apack, b, ld, beta, c, ldc, isa),
        None => macro_kernel_tiles::<false>(mc, nc, kc, alpha, apack, b, 0, beta, c, ldc, isa),
    }
}

/// Every tile of one macro-kernel block, B addressed as
/// [`simd::b_columns`] describes.
#[allow(clippy::too_many_arguments)]
fn macro_kernel_tiles<const IN_PLACE: bool>(
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: f64,
    apack: &[f64],
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
    isa: Isa,
) {
    let mpan = mc.div_ceil(MR);
    let npan = nc.div_ceil(NR);
    // B panel `q` starts `q` panel strides into `b`.
    let qs = if IN_PLACE { NR * ldb } else { NR * kc };

    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx512 {
        // Super-tiles: pairs of A panels × pairs of B panels. Pairing only
        // groups elements into one tile invocation; each element's op
        // sequence is unchanged, so fringe variants (AP/BQ = 1) and the
        // paired fast path produce identical bits.
        for q2 in 0..npan.div_ceil(2) {
            let q = q2 * 2;
            let bq = 2.min(npan - q);
            let cols = [NR.min(nc - q * NR), if bq == 2 { NR.min(nc - (q + 1) * NR) } else { 0 }];
            let bp = &b[q * qs..];
            let mut p = 0;
            while p < mpan {
                let ap_cnt = 2.min(mpan - p);
                let rows = [MR.min(mc - p * MR), if ap_cnt == 2 { MR.min(mc - (p + 1) * MR) } else { 0 }];
                let ap = apack[p * MR * kc..].as_ptr();
                let ct = unsafe { c.add(p * MR + q * NR * ldc) };
                use simd::x86::super_tile_avx512 as tile;
                unsafe {
                    match (ap_cnt, bq) {
                        (2, 2) => tile::<2, 2, IN_PLACE>(kc, alpha, ap, bp, ldb, beta, rows, cols, ct, ldc),
                        (2, 1) => tile::<2, 1, IN_PLACE>(kc, alpha, ap, bp, ldb, beta, rows, cols, ct, ldc),
                        (1, 2) => tile::<1, 2, IN_PLACE>(kc, alpha, ap, bp, ldb, beta, rows, cols, ct, ldc),
                        _ => tile::<1, 1, IN_PLACE>(kc, alpha, ap, bp, ldb, beta, rows, cols, ct, ldc),
                    }
                }
                p += 2;
            }
        }
        return;
    }

    for q in 0..npan {
        let c0 = q * NR;
        let ncols = NR.min(nc - c0);
        let bp = &b[q * qs..];
        for p in 0..mpan {
            let r0 = p * MR;
            let nrows = MR.min(mc - r0);
            let ap = &apack[p * MR * kc..];
            let ct = unsafe { c.add(r0 + c0 * ldc) };
            match isa {
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => unsafe {
                    simd::x86::micro_8x6_avx2::<IN_PLACE>(kc, alpha, ap.as_ptr(), bp, ldb, beta, nrows, ncols, ct, ldc)
                },
                // NEON only knows packed panels; `gemm_blocked` never reads B
                // in place under it.
                #[cfg(target_arch = "aarch64")]
                Isa::Neon => unsafe {
                    simd::arm::micro_8x6_neon(kc, alpha, ap.as_ptr(), bp.as_ptr(), beta, nrows, ncols, ct, ldc)
                },
                _ => unsafe { micro_kernel::<IN_PLACE>(kc, alpha, ap, bp, ldb, beta, nrows, ncols, ct, ldc) },
            }
        }
    }
}

/// The portable MR×NR register kernel: `acc += ap(:,l) ⊗ b(l,:)` over `l`,
/// then `C[0..nrows, 0..ncols] ← α·acc + β·C` (β = 0 never reads `C`).
/// This is the scalar contraction class: multiply and add round separately.
///
/// # Safety
/// `b` must satisfy [`simd::b_columns`] for `ncols` columns, and `c` must
/// point at a writable `nrows×ncols` window with leading dimension `ldc`
/// (rows beyond `nrows` within a column are never touched).
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel<const IN_PLACE: bool>(
    kc: usize,
    alpha: f64,
    ap: &[f64],
    b: &[f64],
    ldb: usize,
    beta: f64,
    nrows: usize,
    ncols: usize,
    c: *mut f64,
    ldc: usize,
) {
    let ([bcol], ks) = unsafe { simd::b_columns::<IN_PLACE, 1>(b, kc, ldb, ncols) };
    let mut acc = [[0.0f64; MR]; NR];
    // Fixed-size chunk views let LLVM keep the whole accumulator in
    // registers and vectorize the rank-1 update without bounds checks.
    for (l, av) in ap[..kc * MR].chunks_exact(MR).enumerate() {
        let av: &[f64; MR] = av.try_into().unwrap();
        for (accj, bj) in acc.iter_mut().zip(bcol) {
            let bj = unsafe { *bj.add(l * ks) };
            for (i, a) in accj.iter_mut().enumerate() {
                *a += av[i] * bj;
            }
        }
    }
    if nrows == MR {
        // Full-height tile: unit-stride whole-column stores.
        for (j, accj) in acc.iter().enumerate().take(ncols) {
            let col: &mut [f64; MR] = unsafe { &mut *(c.add(j * ldc) as *mut [f64; MR]) };
            if beta == 0.0 {
                for (cv, &a) in col.iter_mut().zip(accj.iter()) {
                    *cv = alpha * a;
                }
            } else if beta == 1.0 {
                for (cv, &a) in col.iter_mut().zip(accj.iter()) {
                    *cv += alpha * a;
                }
            } else {
                for (cv, &a) in col.iter_mut().zip(accj.iter()) {
                    *cv = alpha * a + beta * *cv;
                }
            }
        }
    } else {
        for (j, accj) in acc.iter().enumerate().take(ncols) {
            let col = unsafe { std::slice::from_raw_parts_mut(c.add(j * ldc), nrows) };
            if beta == 0.0 {
                for (cv, &a) in col.iter_mut().zip(accj.iter()) {
                    *cv = alpha * a;
                }
            } else {
                for (cv, &a) in col.iter_mut().zip(accj.iter()) {
                    *cv = alpha * a + beta * *cv;
                }
            }
        }
    }
}

/// Reference triple-loop GEMM used as the oracle in tests. Never use in
/// performance paths.
#[allow(clippy::too_many_arguments)]
pub fn gemm_naive(
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
    c: &mut [f64],
    ldc: usize,
) {
    for j in 0..n {
        for i in 0..m {
            let mut s = 0.0;
            for l in 0..k {
                s += at(transa, a, lda, i, l) * at(transb, b, ldb, l, j);
            }
            let cv = &mut c[i + j * ldc];
            *cv = if beta == 0.0 { alpha * s } else { alpha * s + beta * *cv };
        }
    }
}

/// Triangular matrix-matrix multiply:
/// `B ← α·op(A)·B` ([`Side::Left`], `A` is `m×m`) or
/// `B ← α·B·op(A)` ([`Side::Right`], `A` is `n×n`), with `B` `m×n` and `A`
/// upper/lower triangular, optionally unit-diagonal.
#[allow(clippy::too_many_arguments)]
pub fn trmm(
    side: Side,
    uplo: UpLo,
    trans: Trans,
    diag: Diag,
    m: usize,
    n: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &mut [f64],
    ldb: usize,
) {
    let ka = match side {
        Side::Left => m,
        Side::Right => n,
    };
    assert!(lda >= ka.max(1), "trmm: lda too small");
    assert!(ldb >= m.max(1), "trmm: ldb too small");
    if ka > 0 {
        assert!(a.len() >= lda * (ka - 1) + ka, "trmm: A buffer too small");
    }
    if m > 0 && n > 0 {
        assert!(b.len() >= ldb * (n - 1) + m, "trmm: B buffer too small");
    }
    if m == 0 || n == 0 {
        return;
    }
    if alpha == 0.0 {
        for j in 0..n {
            b[j * ldb..j * ldb + m].fill(0.0);
        }
        return;
    }
    add_flops(m as u64 * n as u64 * ka as u64);

    let unit = matches!(diag, Diag::Unit);
    match side {
        Side::Left => {
            // The columns of B are independent right-hand sides: 32 at a
            // time are transposed into a row-major tile, one column a lane,
            // and run trmv's recurrence side by side; each lane is then
            // scaled by α on its way back, as a trmv-then-scale per column
            // did.
            const L: usize = 32;
            let mut tile = vec![[0.0f64; L]; m];
            for j0 in (0..n).step_by(L) {
                let w = L.min(n - j0);
                for c in 0..L {
                    if c < w {
                        let col = &b[(j0 + c) * ldb..(j0 + c) * ldb + m];
                        tile.iter_mut().zip(col).for_each(|(row, &v)| row[c] = v);
                    } else {
                        tile.iter_mut().for_each(|row| row[c] = 0.0);
                    }
                }
                trmv_lanes(uplo, trans, unit, m, a, lda, &mut tile);
                for c in 0..w {
                    let col = &mut b[(j0 + c) * ldb..(j0 + c) * ldb + m];
                    for (v, row) in col.iter_mut().zip(&tile) {
                        *v = if alpha != 1.0 { row[c] * alpha } else { row[c] };
                    }
                }
            }
        }
        Side::Right => {
            // (B·op(A))(:,j) = Σ_i B(:,i)·op(A)(i,j). Traversal order chosen
            // so every read of B(:,i) still sees the original value.
            let effective_upper = match (uplo, trans) {
                (UpLo::Upper, Trans::No) | (UpLo::Lower, Trans::Yes) => true,
                (UpLo::Lower, Trans::No) | (UpLo::Upper, Trans::Yes) => false,
            };
            let aval = |i: usize, j: usize| -> f64 {
                match trans {
                    Trans::No => a[i + j * lda],
                    Trans::Yes => a[j + i * lda],
                }
            };
            for jj in 0..n {
                // op(A) effectively upper: column j reads B's columns i ≤ j,
                // so go right→left; lower: left→right.
                let j = if effective_upper { n - 1 - jj } else { jj };
                let dj = if unit { 1.0 } else { aval(j, j) };
                // Scale the diagonal contribution first (in place).
                let f = alpha * dj;
                if f != 1.0 {
                    b[j * ldb..j * ldb + m].iter_mut().for_each(|v| *v *= f);
                }
                let range = if effective_upper { 0..j } else { j + 1..n };
                for i in range {
                    let f = alpha * aval(i, j);
                    if f == 0.0 {
                        continue;
                    }
                    // b_j += f·b_i: two disjoint columns of B.
                    let (lo, hi) = (i.min(j), i.max(j));
                    let (first, second) = b.split_at_mut(hi * ldb);
                    let (lo_col, hi_col) = (&mut first[lo * ldb..lo * ldb + m], &mut second[..m]);
                    let (dst, src) = if i < j { (hi_col, &*lo_col) } else { (lo_col, &*hi_col) };
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d += f * s;
                    }
                }
            }
        }
    }
}

/// `trmm(Side::Left)` as it was before its columns took lanes: one scalar
/// trmv per column of `B`, then the column scaled by `α`. The oracle the
/// lane kernel is held to bit for bit, and the yardstick
/// `benches/kernels.rs` times it against. Counts no flops.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn trmm_left_by_column(
    uplo: UpLo,
    trans: Trans,
    diag: Diag,
    m: usize,
    n: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &mut [f64],
    ldb: usize,
) {
    for j in 0..n {
        let col = &mut b[j * ldb..j * ldb + m];
        if alpha == 0.0 {
            col.fill(0.0);
            continue;
        }
        crate::level2::trmv_scalar(uplo, trans, diag, m, a, lda, col);
        if alpha != 1.0 {
            col.iter_mut().for_each(|v| *v *= alpha);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Matrix;

    fn rngmat(m: usize, n: usize, seed: u64) -> Matrix {
        // Small deterministic pseudo-random values without pulling rand here.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(m, n, |_, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn blocking_is_sane() {
        let bl = blocking();
        assert!(bl.kc >= 8 && bl.kc.is_multiple_of(8), "{bl:?}");
        assert!(bl.mc >= MR && bl.mc.is_multiple_of(MR), "{bl:?}");
        assert!(bl.nc >= NR && bl.nc.is_multiple_of(NR), "{bl:?}");
    }

    #[test]
    fn in_place_rule_constant_is_tile_aligned_and_covers_every_panel_width() {
        assert!(B_IN_PLACE_MAX_M.is_multiple_of(2 * MR) && B_IN_PLACE_MAX_M >= 64);
    }

    #[test]
    fn compute_blocking_no_sysfs_fallback() {
        // The containerized path: no cache sizes at all. Must yield the
        // deterministic conservative blocking, not a degenerate clamp.
        let bl = compute_blocking(None, None, None);
        assert_eq!(bl, compute_blocking(Some(FALLBACK_L1), Some(FALLBACK_L2), Some(FALLBACK_L3)));
        assert!(bl.kc >= 64 && bl.kc <= 512 && bl.kc.is_multiple_of(8), "{bl:?}");
        assert!(bl.mc >= 2 * MR && bl.mc.is_multiple_of(2 * MR), "{bl:?}");
        assert!(bl.nc >= 2 * NR && bl.nc.is_multiple_of(NR), "{bl:?}");
        // Partially-missing levels use the fallback for the missing level only.
        let big = compute_blocking(Some(1 << 20), None, None);
        assert_eq!(big.kc, 512, "1 MiB L1 saturates the KC clamp: {big:?}");
    }

    #[test]
    fn cache_size_parser() {
        assert_eq!(parse_cache_size("48K"), Some(48 << 10));
        assert_eq!(parse_cache_size("2048K\n"), Some(2048 << 10));
        assert_eq!(parse_cache_size("1M"), Some(1 << 20));
        assert_eq!(parse_cache_size("123"), Some(123));
        assert_eq!(parse_cache_size("x"), None);
    }

    #[test]
    fn gemm_matches_naive_all_transposes() {
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 4), (17, 9, 23), (40, 33, 19), (130, 70, 260)] {
            for transa in [Trans::No, Trans::Yes] {
                for transb in [Trans::No, Trans::Yes] {
                    let (ar, ac) = if transa.is_trans() { (k, m) } else { (m, k) };
                    let (br, bc) = if transb.is_trans() { (n, k) } else { (k, n) };
                    let a = rngmat(ar, ac, 1);
                    let b = rngmat(br, bc, 2);
                    let c0 = rngmat(m, n, 3);
                    let mut c1 = c0.clone();
                    let mut c2 = c0.clone();
                    gemm(transa, transb, m, n, k, 1.3, a.as_slice(), ar, b.as_slice(), br, -0.7, c1.as_mut_slice(), m);
                    gemm_naive(transa, transb, m, n, k, 1.3, a.as_slice(), ar, b.as_slice(), br, -0.7, c2.as_mut_slice(), m);
                    let d = c1.max_abs_diff(&c2);
                    assert!(d < 1e-11, "m={m} n={n} k={k} {transa:?}{transb:?}: diff {d}");
                }
            }
        }
    }

    #[test]
    fn gemm_packed_a_matches_naive() {
        for &(m, n, k) in &[(1, 1, 1), (7, 3, 5), (17, 9, 23), (40, 13, 19), (65, 6, 33)] {
            for transa in [Trans::No, Trans::Yes] {
                for transb in [Trans::No, Trans::Yes] {
                    let (ar, ac) = if transa.is_trans() { (k, m) } else { (m, k) };
                    let (br, bc) = if transb.is_trans() { (n, k) } else { (k, n) };
                    let a = rngmat(ar, ac, 4);
                    let b = rngmat(br, bc, 5);
                    let c0 = rngmat(m, n, 6);
                    let mut c1 = c0.clone();
                    let mut c2 = c0.clone();
                    let pa = PackedA::pack(transa, m, k, a.as_slice(), ar);
                    assert_eq!((pa.m(), pa.k()), (m, k));
                    gemm_packed_a(&pa, transb, n, -0.9, b.as_slice(), br, 0.4, c1.as_mut_slice(), m);
                    gemm_naive(transa, transb, m, n, k, -0.9, a.as_slice(), ar, b.as_slice(), br, 0.4, c2.as_mut_slice(), m);
                    let d = c1.max_abs_diff(&c2);
                    assert!(d < 1e-12, "m={m} n={n} k={k} {transa:?}{transb:?}: diff {d}");
                }
            }
        }
    }

    #[test]
    fn packed_a_reused_across_rhs() {
        // One pack, several right-hand sides — the trailing-update pattern.
        let (m, k) = (23, 7);
        let a = rngmat(m, k, 8);
        let pa = PackedA::pack(Trans::No, m, k, a.as_slice(), m);
        for (n, seed) in [(1usize, 10u64), (4, 11), (9, 12)] {
            let b = rngmat(k, n, seed);
            let mut c1 = Matrix::zeros(m, n);
            let mut c2 = Matrix::zeros(m, n);
            gemm_packed_a(&pa, Trans::No, n, 1.0, b.as_slice(), k, 0.0, c1.as_mut_slice(), m);
            gemm_naive(Trans::No, Trans::No, m, n, k, 1.0, a.as_slice(), m, b.as_slice(), k, 0.0, c2.as_mut_slice(), m);
            assert!(c1.max_abs_diff(&c2) < 1e-12);
        }
    }

    #[test]
    fn gemm_beta_zero_clears_nan() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(2);
        let mut c = Matrix::from_fn(2, 2, |_, _| f64::NAN);
        gemm(Trans::No, Trans::No, 2, 2, 2, 1.0, a.as_slice(), 2, b.as_slice(), 2, 0.0, c.as_mut_slice(), 2);
        assert_eq!(c, Matrix::identity(2));
    }

    #[test]
    fn gemm_packed_beta_zero_clears_nan() {
        let a = Matrix::identity(3);
        let b = Matrix::identity(3);
        let pa = PackedA::pack(Trans::No, 3, 3, a.as_slice(), 3);
        let mut c = Matrix::from_fn(3, 3, |_, _| f64::NAN);
        gemm_packed_a(&pa, Trans::No, 3, 1.0, b.as_slice(), 3, 0.0, c.as_mut_slice(), 3);
        assert_eq!(c, Matrix::identity(3));
    }

    #[test]
    fn gemm_alpha_zero_only_scales() {
        let a = rngmat(3, 3, 4);
        let b = rngmat(3, 3, 5);
        let mut c = Matrix::identity(3);
        gemm(Trans::No, Trans::No, 3, 3, 3, 0.0, a.as_slice(), 3, b.as_slice(), 3, 2.0, c.as_mut_slice(), 3);
        let mut want = Matrix::identity(3);
        for v in want.as_mut_slice().iter_mut() {
            *v *= 2.0;
        }
        assert_eq!(c, want);
    }

    #[test]
    fn gemm_submatrix_views() {
        // C(1..3,1..3) += A(0..2, 0..2)*B(2..4, 0..2) inside 5x5 buffers.
        let a = rngmat(5, 5, 6);
        let b = rngmat(5, 5, 7);
        let mut c = rngmat(5, 5, 8);
        let mut cref = c.clone();
        gemm(
            Trans::No,
            Trans::No,
            2,
            2,
            2,
            1.0,
            &a.as_slice()[0..],
            5,
            &b.as_slice()[2..],
            5,
            1.0,
            &mut c.as_mut_slice()[1 + 5..],
            5,
        );
        gemm_naive(
            Trans::No,
            Trans::No,
            2,
            2,
            2,
            1.0,
            &a.as_slice()[0..],
            5,
            &b.as_slice()[2..],
            5,
            1.0,
            &mut cref.as_mut_slice()[1 + 5..],
            5,
        );
        assert!(c.max_abs_diff(&cref) < 1e-12);
    }

    #[test]
    fn trmm_matches_dense_multiply() {
        let m = 7;
        let n = 6;
        for side in [Side::Left, Side::Right] {
            let ka = match side {
                Side::Left => m,
                Side::Right => n,
            };
            let a = rngmat(ka, ka, 11);
            for uplo in [UpLo::Upper, UpLo::Lower] {
                for trans in [Trans::No, Trans::Yes] {
                    for diag in [Diag::Unit, Diag::NonUnit] {
                        let tdense = Matrix::from_fn(ka, ka, |i, j| {
                            let inside = match uplo {
                                UpLo::Upper => i <= j,
                                UpLo::Lower => i >= j,
                            };
                            if i == j {
                                if matches!(diag, Diag::Unit) {
                                    1.0
                                } else {
                                    a[(i, j)]
                                }
                            } else if inside {
                                a[(i, j)]
                            } else {
                                0.0
                            }
                        });
                        let b0 = rngmat(m, n, 13);
                        let mut b = b0.clone();
                        trmm(side, uplo, trans, diag, m, n, 1.5, a.as_slice(), ka, b.as_mut_slice(), m);
                        // dense reference
                        let mut want = Matrix::zeros(m, n);
                        match side {
                            Side::Left => gemm_naive(
                                trans,
                                Trans::No,
                                m,
                                n,
                                m,
                                1.5,
                                tdense.as_slice(),
                                m,
                                b0.as_slice(),
                                m,
                                0.0,
                                want.as_mut_slice(),
                                m,
                            ),
                            Side::Right => gemm_naive(
                                Trans::No,
                                trans,
                                m,
                                n,
                                n,
                                1.5,
                                b0.as_slice(),
                                m,
                                tdense.as_slice(),
                                n,
                                0.0,
                                want.as_mut_slice(),
                                m,
                            ),
                        }
                        let d = b.max_abs_diff(&want);
                        assert!(d < 1e-12, "{side:?} {uplo:?} {trans:?} {diag:?}: diff {d}");
                    }
                }
            }
        }
    }

    /// An adversarial right-hand side for the triangular kernels: `ld > rows`
    /// with NaN in the gaps and canary words past the last column, ±0 in
    /// about a quarter of the entries (the column sweeps skip a zero `x[k]`
    /// per lane, next to lanes that do not), whole zero columns, and now and
    /// then ±∞ or NaN.
    pub(crate) fn adversarial_rhs(rng: &mut crate::rng::Xoshiro256, rows: usize, cols: usize, ld: usize) -> Vec<f64> {
        let mut b = vec![f64::NAN; ld * cols + 3];
        let end = if cols == 0 { 0 } else { ld * (cols - 1) + rows };
        b[end..].fill(7.25);
        for j in 0..cols {
            let zero_col = rng.next_below(9) == 0;
            for i in 0..rows {
                b[i + j * ld] = match (zero_col, rng.next_below(40)) {
                    (true, _) | (_, 0..=4) => 0.0,
                    (_, 5..=9) => -0.0,
                    (_, 10) => f64::INFINITY,
                    (_, 11) => f64::NEG_INFINITY,
                    (_, 12) => f64::NAN,
                    _ => rng.range_f64(-2.0, 2.0),
                };
            }
        }
        b
    }

    /// An `n×n` triangle with leading dimension `n + 2`: NaN outside the
    /// selected triangle, in the gaps and — for a unit diagonal — on the
    /// diagonal, so a read of any of them shows.
    pub(crate) fn triangle_with_nan_elsewhere(
        rng: &mut crate::rng::Xoshiro256,
        uplo: UpLo,
        diag: Diag,
        n: usize,
    ) -> (Vec<f64>, usize) {
        let lda = n + 2;
        let mut a = vec![f64::NAN; lda * n.max(1)];
        for j in 0..n {
            for i in 0..n {
                let inside = match uplo {
                    UpLo::Upper => i < j,
                    UpLo::Lower => i > j,
                } || (i == j && matches!(diag, Diag::NonUnit));
                if inside {
                    a[i + j * lda] = if rng.next_below(10) == 0 { 0.0 } else { rng.range_f64(-1.5, 1.5) };
                }
            }
        }
        (a, lda)
    }

    /// Equal bits, except that any NaN equals any NaN: IEEE leaves a NaN's
    /// payload to the operand order, which LLVM may commute.
    pub(crate) fn same_bits(got: &[f64], want: &[f64]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
    }

    /// `trmm(Side::Left)` runs 32 columns of `B` side by side: every column
    /// must be bitwise the scalar trmv-then-scale it replaced, for all eight
    /// variants and α ∈ {1, −0.5, 0}, at column counts on both sides of the
    /// lane width, with the gaps and canaries of `B` left as they were.
    #[test]
    fn trmm_left_lanes_are_bitwise_the_column_loop() {
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(0x7A33);
        for (m, n) in [
            (1, 1),
            (2, 3),
            (3, 31),
            (5, 32),
            (7, 33),
            (17, 1),
            (9, 65),
            (32, 70),
            (32, 96),
            (33, 40),
        ] {
            for uplo in [UpLo::Upper, UpLo::Lower] {
                for trans in [Trans::No, Trans::Yes] {
                    for diag in [Diag::Unit, Diag::NonUnit] {
                        let (a, lda) = triangle_with_nan_elsewhere(&mut rng, uplo, diag, m);
                        let ldb = m + 3;
                        let b = adversarial_rhs(&mut rng, m, n, ldb);
                        for alpha in [1.0, -0.5, 0.0] {
                            let (mut got, mut want) = (b.clone(), b.clone());
                            trmm(Side::Left, uplo, trans, diag, m, n, alpha, &a, lda, &mut got, ldb);
                            trmm_left_by_column(uplo, trans, diag, m, n, alpha, &a, lda, &mut want, ldb);
                            assert!(same_bits(&got, &want), "{uplo:?} {trans:?} {diag:?} m={m} n={n} α={alpha}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trmm_alpha_zero_zeroes() {
        let a = rngmat(3, 3, 1);
        let mut b = rngmat(4, 3, 2);
        trmm(Side::Right, UpLo::Upper, Trans::No, Diag::NonUnit, 4, 3, 0.0, a.as_slice(), 3, b.as_mut_slice(), 4);
        assert!(b.as_slice().iter().all(|&x| x == 0.0));
    }
}
