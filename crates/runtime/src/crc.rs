//! CRC32 (IEEE 802.3, the zlib/PNG polynomial, bit-reflected) — the
//! integrity check of every frame [`crate::tcp`] puts on a wire: fabric
//! frames, job frames and `CKPT` bodies alike.
//!
//! The interface is the *raw* register state, neither pre- nor
//! post-inverted, so a CRC can be carried across pieces:
//! `update(update(c, a), b) == update(c, a ‖ b)` for any split. The framing
//! relies on it (the header's state runs on over the payload); the finished
//! value of a whole message is `!update(!0, msg)`.
//!
//! Two paths, chosen per call from what the code can observe:
//!
//! * **Carry-less-multiply folding** — x86_64 with `pclmulqdq` detected at
//!   run time, inputs of [`FOLD_MIN`] bytes and up. Four 128-bit
//!   accumulators each absorb 16 bytes per step: an accumulator times
//!   `x^512 mod P` is congruent to itself moved 64 bytes down the message,
//!   so it can be XORed onto the data there; the four are then folded into
//!   one at `x^128`, which absorbs the remaining whole 16-byte blocks; its
//!   128 bits are reduced to the 32-bit state by two more multiplications
//!   and a Barrett reduction, and the table takes the sub-16-byte tail. No
//!   data-dependent loads: ~24 GB/s on the AVX-512 host the numbers in
//!   EXPERIMENTS.md come from, whatever the vectoriser does.
//! * **One serial slicing-by-8 chain** — everything else: short inputs,
//!   x86 without `pclmulqdq`, and every non-x86_64 target (no aarch64
//!   `crc32`/PMULL kernel is kept here: it could not be run where this was
//!   written). Bound by the latency of its dependent table loads, 1.5–1.7
//!   GB/s.
//!
//! There is deliberately no interleaved multi-chain table walk: its speed
//! depended on LLVM *not* vectorising it — under `target-cpu=native` on
//! AVX-512 the four chains became `vpgatherdd` and ran 4× slower than one.

/// Shortest input the folding path takes: one 64-byte block to load the four
/// accumulators from.
const FOLD_MIN: usize = 64;

/// Slicing-by-8 tables: `T[0]` is the classic byte-at-a-time table, `T[k]`
/// advances a byte that sits `k` positions before the end of an 8-byte
/// block.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// One byte through `T[0]`.
#[inline(always)]
fn crc32_byte(c: u32, b: u8) -> u32 {
    CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8)
}

/// One slicing-by-8 step: fold eight message bytes — `w`, little-endian —
/// into the state `c`.
#[inline(always)]
fn crc32_step(c: u32, w: u64) -> u32 {
    let (t, w) = (&CRC_TABLES, w ^ c as u64);
    (0..8).fold(0, |x, k| x ^ t[7 - k][(w >> (8 * k)) as u8 as usize])
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// Advance the raw state over `data` as one dependent chain, eight bytes
/// per step.
fn crc32_serial(mut c: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        c = crc32_step(c, le64(b));
    }
    blocks.remainder().iter().fold(c, |c, &b| crc32_byte(c, b))
}

/// The fold multipliers, `[low lane, high lane]`: `x^n mod P`, bit-reflected
/// and shifted left once (a reflected 64×64 `pclmulqdq` product comes out
/// one bit low). A low lane sits 64 bits further from the fold target than
/// a high lane, hence the `±32` pairs. `x^(512±32)` moves an accumulator
/// onto the data 64 bytes on, `x^(128±32)` 16 bytes on; the unit tests
/// re-derive each from the polynomial.
#[cfg(target_arch = "x86_64")]
const FOLD_64: [i64; 2] = [0x1_5444_2bd4, 0x1_c6e4_1596];
#[cfg(target_arch = "x86_64")]
const FOLD_16: [i64; 2] = [0x1_7519_97d0, 0x0_ccaa_009e];
/// `x^64`: the low 32 bits of the last 96 onto the rest.
#[cfg(target_arch = "x86_64")]
const FOLD_4: i64 = 0x1_63cd_6124;
/// `P` itself and `µ = ⌊x^64 / P⌋`, both 33 bits, bit-reflected.
#[cfg(target_arch = "x86_64")]
const POLY: i64 = 0x1_db71_0641;
#[cfg(target_arch = "x86_64")]
const BARRETT_MU: i64 = 0x1_f701_1641;

/// Advance the raw state over `data` by carry-less multiplication (the
/// module doc has the scheme). `data` holds at least [`FOLD_MIN`] bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
fn crc32_fold(c: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    let load = |b: &[u8]| _mm_set_epi64x(le64(&b[8..16]) as i64, le64(&b[..8]) as i64);
    let fold = |acc: __m128i, k: __m128i, next: __m128i| {
        let (lo, hi) = (_mm_clmulepi64_si128::<0x00>(acc, k), _mm_clmulepi64_si128::<0x11>(acc, k));
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    };

    let mut blocks = data.chunks_exact(FOLD_MIN);
    let first = blocks.next().expect("the dispatcher sends FOLD_MIN bytes or more");
    // The incoming state is a prefix of the message: XOR it onto the first
    // four bytes.
    let mut acc = [
        _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(c as i32)),
        load(&first[16..32]),
        load(&first[32..48]),
        load(&first[48..]),
    ];
    let k = _mm_set_epi64x(FOLD_64[1], FOLD_64[0]);
    for b in &mut blocks {
        acc = [
            fold(acc[0], k, load(&b[..16])),
            fold(acc[1], k, load(&b[16..32])),
            fold(acc[2], k, load(&b[32..48])),
            fold(acc[3], k, load(&b[48..])),
        ];
    }
    let k = _mm_set_epi64x(FOLD_16[1], FOLD_16[0]);
    let mut one = fold(fold(fold(acc[0], k, acc[1]), k, acc[2]), k, acc[3]);
    let mut rest = blocks.remainder().chunks_exact(16);
    for b in &mut rest {
        one = fold(one, k, load(b));
    }
    // 128 → 64 bits: the low lane (the earlier eight bytes) onto the high
    // one, then the low 32 bits of that onto the rest.
    let low32 = _mm_set_epi64x(0, 0xffff_ffff);
    let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(one, k), _mm_srli_si128::<8>(one));
    let k = _mm_set_epi64x(0, FOLD_4);
    let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k), _mm_srli_si128::<4>(x));
    // 64 → 32 bits, Barrett: the multiple of `P` that clears the low half
    // is `P · ⌊low · µ / x³²⌋`; what is left in the high half is the state.
    let pu = _mm_set_epi64x(BARRETT_MU, POLY);
    let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
    let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), pu);
    let c = (_mm_cvtsi128_si64(_mm_xor_si128(x, t)) as u64 >> 32) as u32;
    crc32_serial(c, rest.remainder())
}

/// Whether [`crc32_update`] folds long inputs on this host (else every input
/// takes the table chain).
#[doc(hidden)]
pub fn folds() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("pclmulqdq");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Advance the raw (un-inverted) CRC state over `data`.
pub(crate) fn crc32_update(c: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN && folds() {
        // SAFETY: `crc32_fold` is a safe function whose only requirement is
        // its `#[target_feature(enable = "pclmulqdq")]`, and `folds()` has
        // just seen that feature on the running CPU.
        return unsafe { crc32_fold(c, data) };
    }
    crc32_serial(c, data)
}

/// The finished CRC32 of `data`. Public for `benches/kernels.rs`' wire-CRC
/// gate and the crate's tests; the transport itself carries raw states.
#[doc(hidden)]
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// The finished CRC32 of `data`, one `T[0]` lookup per byte — the yardstick
/// the kernels gate times [`crc32`] against in the same run.
#[doc(hidden)]
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    !data.iter().fold(!0, |c, &b| crc32_byte(c, b))
}

/// The polynomial one bit at a time — shares nothing with the tables or the
/// fold constants.
#[cfg(test)]
pub(crate) fn crc32_bitwise(data: &[u8]) -> u32 {
    !bitwise_update(!0, data)
}

#[cfg(test)]
fn bitwise_update(c: u32, data: &[u8]) -> u32 {
    data.iter().fold(c, |c, &b| {
        (0..8).fold(c ^ b as u32, |c, _| if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// The dispatched path (the fold from [`FOLD_MIN`] bytes up where the
    /// host has it — the kernels gate fails a dispatcher that stopped
    /// choosing it) and the table path every other host takes.
    type Update = fn(u32, &[u8]) -> u32;
    const PATHS: [(&str, Update); 2] = [("dispatched", crc32_update), ("table", crc32_serial)];

    #[test]
    fn every_path_equals_the_bitwise_reference_at_every_length_offset_and_start_state() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let data: Vec<u8> = (0..(1 << 20) + 16).map(|_| next() as u8).collect();
        // Every length from nothing through the 8-byte step, the 16-byte
        // fold block and the 64-byte switch-over to several fold rounds
        // with every possible tail — at every alignment, from the framing's
        // two start states and an arbitrary one.
        let states = [!0, 0, next() as u32];
        for (name, update) in PATHS {
            for len in 0..=1024 {
                for off in 0..16 {
                    let s = &data[off..off + len];
                    for c in states {
                        assert_eq!(update(c, s), bitwise_update(c, s), "{name}: len {len} off {off} state {c:#x}");
                    }
                }
            }
            // Random slices up to 1 MiB: whole, and as two chained updates
            // split at a random byte (the header → body hand-over).
            for _ in 0..16 {
                let off = (next() % 16) as usize;
                let len = (next() % (1 << 20)) as usize;
                let s = &data[off..off + len];
                let want = crc32_bitwise(s);
                assert_eq!(!update(!0, s), want, "{name}: len {len} off {off}");
                let cut = (next() % (len as u64 + 1)) as usize;
                assert_eq!(!update(update(!0, &s[..cut]), &s[cut..]), want, "{name}: len {len} cut {cut}");
            }
        }
        assert_eq!(crc32_bytewise(&data[3..4099]), crc32_bitwise(&data[3..4099]));
    }

    #[test]
    fn a_state_carries_across_a_split_at_every_byte() {
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        let data: Vec<u8> = (0..300).map(|_| next() as u8).collect();
        for (name, update) in PATHS {
            let whole = update(!0, &data);
            for cut in 0..=data.len() {
                assert_eq!(update(update(!0, &data[..cut]), &data[cut..]), whole, "{name}: cut {cut}");
            }
        }
    }

    /// `x^n mod P` in the register's bit order (bit 31 is `x⁰`).
    #[cfg(target_arch = "x86_64")]
    fn x_pow_mod_p(n: u32) -> u32 {
        (0..n).fold(1 << 31, |c, _| if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 })
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_the_powers_of_x_they_claim_to_be() {
        let k = |n| ((x_pow_mod_p(n) as u64) << 1) as i64;
        assert_eq!([k(512 + 32), k(512 - 32)], FOLD_64);
        assert_eq!([k(128 + 32), k(128 - 32)], FOLD_16);
        assert_eq!(k(64), FOLD_4);
        // P and ⌊x^64 / P⌋ by long division in the polynomial's natural bit
        // order, then reflected over their 33 bits.
        let p = 0x1_04c1_1db7u128;
        let (mut rem, mut mu) = (1u128 << 64, 0u64);
        for i in (32..=64).rev() {
            if rem >> i & 1 != 0 {
                rem ^= p << (i - 32);
                mu |= 1 << (i - 32);
            }
        }
        let reflect33 = |v: u64| (0..33).fold(0, |r, i| r | (v >> i & 1) << (32 - i)) as i64;
        assert_eq!([reflect33(p as u64), reflect33(mu)], [POLY, BARRETT_MU]);
    }
}
