//! 2D block-cyclic index arithmetic (ScaLAPACK TOOLS equivalents:
//! `NUMROC`, `INDXG2P`, `INDXG2L`, `INDXL2G`).
//!
//! A global dimension of size `n` is split into blocks of `nb` consecutive
//! indices; block `b` is owned by process `b mod nprocs` (source process 0)
//! and is that process's local block `b / nprocs`. The same arithmetic
//! applies independently to rows (over the `P` process rows) and columns
//! (over the `Q` process columns) — see Figure 1 of the paper.

/// Number of indices of a global dimension `n` (block size `nb`) owned by
/// process `iproc` of `nprocs` (ScaLAPACK `NUMROC` with `ISRCPROC = 0`).
///
/// Because ownership is cyclic by block, this also equals the number of
/// indices `< n` owned by `iproc` — i.e. it doubles as a "local prefix
/// count" for any global cutoff `n`.
pub fn numroc(n: usize, nb: usize, iproc: usize, nprocs: usize) -> usize {
    assert!(nb > 0 && nprocs > 0 && iproc < nprocs);
    let nblocks = n / nb;
    let mut num = (nblocks / nprocs) * nb;
    let extra_blocks = nblocks % nprocs;
    if iproc < extra_blocks {
        num += nb;
    } else if iproc == extra_blocks {
        num += n % nb;
    }
    num
}

/// Owning process of global index `g` (`INDXG2P`).
#[inline]
pub fn g2p(g: usize, nb: usize, nprocs: usize) -> usize {
    (g / nb) % nprocs
}

/// Local index of global index `g` on its owning process (`INDXG2L`).
#[inline]
pub fn g2l(g: usize, nb: usize, nprocs: usize) -> usize {
    (g / (nb * nprocs)) * nb + g % nb
}

/// Global index of local index `l` on process `iproc` (`INDXL2G`).
#[inline]
pub fn l2g(l: usize, nb: usize, iproc: usize, nprocs: usize) -> usize {
    ((l / nb) * nprocs + iproc) * nb + l % nb
}

/// Local indices `l0..l1` of process `iproc` as runs of consecutive global
/// indices: `(i, g, len)` says local indices `l0 + i ..` are global indices
/// `g ..`, `len` of them. A run ends at a block boundary, so a walk between
/// local and global order costs one [`l2g`] and one slice copy per block,
/// not one index map per element. An empty range yields nothing.
pub(crate) fn block_runs(
    l0: usize,
    l1: usize,
    nb: usize,
    iproc: usize,
    nprocs: usize,
) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut l = l0;
    std::iter::from_fn(move || {
        (l < l1).then(|| {
            let len = (nb - l % nb).min(l1 - l);
            let run = (l - l0, l2g(l, nb, iproc, nprocs), len);
            l += len;
            run
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_dense::rng::Xoshiro256;

    #[test]
    fn numroc_examples() {
        // 10 indices, blocks of 2, 3 procs: blocks 0..5 → procs 0,1,2,0,1.
        assert_eq!(numroc(10, 2, 0, 3), 4);
        assert_eq!(numroc(10, 2, 1, 3), 4);
        assert_eq!(numroc(10, 2, 2, 3), 2);
        // ragged tail: 7 indices, blocks of 3, 2 procs: blocks [3,3,1].
        assert_eq!(numroc(7, 3, 0, 2), 4); // blocks 0 and 2 (partial)
        assert_eq!(numroc(7, 3, 1, 2), 3);
        // single proc owns everything
        assert_eq!(numroc(5, 2, 0, 1), 5);
        assert_eq!(numroc(0, 2, 0, 3), 0);
    }

    #[test]
    fn g2p_g2l_l2g_roundtrip_small() {
        for g in 0..50 {
            let (nb, np) = (3, 4);
            let p = g2p(g, nb, np);
            let l = g2l(g, nb, np);
            assert_eq!(l2g(l, nb, p, np), g);
        }
    }

    #[test]
    fn numroc_counts_match_ownership() {
        let (n, nb, np) = (23, 4, 3);
        for proc in 0..np {
            let count = (0..n).filter(|&g| g2p(g, nb, np) == proc).count();
            assert_eq!(count, numroc(n, nb, proc, np), "proc {proc}");
        }
    }

    #[test]
    fn numroc_is_prefix_count() {
        // numroc(cutoff, ..) counts owned indices below the cutoff.
        let (nb, np) = (5, 4);
        for cutoff in 0..60 {
            for proc in 0..np {
                let count = (0..cutoff).filter(|&g| g2p(g, nb, np) == proc).count();
                assert_eq!(count, numroc(cutoff, nb, proc, np));
            }
        }
    }

    // Seeded-loop property tests (formerly proptest; now driven by the
    // internal PRNG so the default build has no external dev-deps).

    #[test]
    fn roundtrip_randomized() {
        let mut rng = Xoshiro256::seed_from_u64(0x1001);
        for _ in 0..256 {
            let g = rng.range_usize(0, 10_000);
            let nb = rng.range_usize(1, 64);
            let np = rng.range_usize(1, 17);
            let p = g2p(g, nb, np);
            let l = g2l(g, nb, np);
            assert_eq!(l2g(l, nb, p, np), g);
            assert!(p < np);
        }
    }

    #[test]
    fn numroc_partitions_randomized() {
        let mut rng = Xoshiro256::seed_from_u64(0x1002);
        for _ in 0..256 {
            let n = rng.range_usize(0, 2_000);
            let nb = rng.range_usize(1, 32);
            let np = rng.range_usize(1, 9);
            let total: usize = (0..np).map(|p| numroc(n, nb, p, np)).sum();
            assert_eq!(total, n, "n={n} nb={nb} np={np}");
        }
    }

    #[test]
    fn local_indices_dense_randomized() {
        let mut rng = Xoshiro256::seed_from_u64(0x1003);
        for _ in 0..128 {
            let n = rng.range_usize(1, 500);
            let nb = rng.range_usize(1, 16);
            let np = rng.range_usize(1, 6);
            let proc = rng.range_usize(0, np);
            // The local indices of a process's owned globals are exactly 0..numroc.
            let mut locals: Vec<usize> = (0..n).filter(|&g| g2p(g, nb, np) == proc).map(|g| g2l(g, nb, np)).collect();
            locals.sort_unstable();
            let expect: Vec<usize> = (0..numroc(n, nb, proc, np)).collect();
            assert_eq!(locals, expect, "n={n} nb={nb} np={np} proc={proc}");
        }
    }

    #[test]
    fn l2g_monotone_randomized() {
        let mut rng = Xoshiro256::seed_from_u64(0x1004);
        for _ in 0..256 {
            let nb = rng.range_usize(1, 16);
            let np = rng.range_usize(1, 6);
            let proc = rng.range_usize(0, np);
            let l = rng.range_usize(0, 500);
            assert!(l2g(l, nb, proc, np) < l2g(l + 1, nb, proc, np));
        }
    }

    #[test]
    fn block_runs_are_the_per_index_map_randomized() {
        let mut rng = Xoshiro256::seed_from_u64(0x1005);
        for _ in 0..256 {
            let nb = rng.range_usize(1, 9);
            let np = rng.range_usize(1, 5);
            let proc = rng.range_usize(0, np);
            let l1 = rng.range_usize(0, 60);
            let l0 = rng.range_usize(0, l1 + 1);
            let mut got = Vec::new();
            for (i, g, len) in block_runs(l0, l1, nb, proc, np) {
                assert!(len >= 1 && len <= nb, "nb={nb}: run of {len}");
                assert_eq!(i, got.len(), "run offset");
                got.extend(g..g + len);
            }
            let want: Vec<usize> = (l0..l1).map(|l| l2g(l, nb, proc, np)).collect();
            assert_eq!(got, want, "nb={nb} np={np} proc={proc} {l0}..{l1}");
        }
    }
}
