//! Deterministic test-matrix generators.
//!
//! The paper evaluates on random dense nonsymmetric matrices; we generate
//! them reproducibly (seeded xoshiro256++, see [`crate::rng`]) so that
//! distributed runs, the fault-free baseline and the fault-injected runs
//! all factorize the *same* matrix — this is what lets the recovery tests
//! compare against a fault-free reference elementwise.

use crate::rng::Xoshiro256;
use crate::Matrix;

/// Uniform random matrix with entries in `[-0.5, 0.5)`, seeded.
pub fn uniform(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.next_f64() - 0.5)
}

/// A single reproducible matrix entry, independent of traversal order.
///
/// Used by the distributed code: each process generates exactly its local
/// blocks of the global matrix without materializing (or communicating) the
/// whole thing. The value is a hash of `(seed, i, j)` mapped to `[-0.5, 0.5)`,
/// and [`uniform_indexed_matrix`] built from it is bit-identical no matter
/// how the work is partitioned.
pub fn uniform_entry(seed: u64, i: usize, j: usize) -> f64 {
    // SplitMix64 over a mixed key — cheap, stateless, well distributed.
    let mut z = seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ (j as u64).wrapping_mul(0xBF58476D1CE4E5B9);
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// Full matrix built from [`uniform_entry`] — the global view the distributed
/// tests compare against.
pub fn uniform_indexed_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| uniform_entry(seed, i, j))
}

/// A matrix with prescribed eigenvalues: `A = S·diag(vals)·S⁻¹` is expensive
/// to build exactly; instead we return an upper Hessenberg matrix whose
/// diagonal dominates, giving well-conditioned eigenvalues close to `vals`.
/// Used by the eigensolver examples to sanity-check convergence.
pub fn diag_dominant_hessenberg(vals: &[f64], seed: u64) -> Matrix {
    let n = vals.len();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            vals[i]
        } else if i <= j + 1 {
            0.01 * (rng.next_f64() - 0.5)
        } else {
            0.0
        }
    })
}

/// Row-stochastic "web graph" matrix for the PageRank-flavoured example:
/// `G = α·P + (1−α)/n·𝟙𝟙ᵀ` with `P` the column-stochastic transition matrix
/// of a random sparse directed graph. Its dominant eigenvalue is 1.
pub fn google_matrix(n: usize, alpha: f64, avg_out_degree: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut p = Matrix::zeros(n, n);
    for j in 0..n {
        let deg = 1 + rng.range_usize(0, avg_out_degree.max(1) * 2);
        let mut targets = Vec::with_capacity(deg);
        for _ in 0..deg {
            targets.push(rng.range_usize(0, n));
        }
        targets.sort_unstable();
        targets.dedup();
        let w = 1.0 / targets.len() as f64;
        for &t in &targets {
            p[(t, j)] = w;
        }
    }
    let teleport = (1.0 - alpha) / n as f64;
    Matrix::from_fn(n, n, |i, j| alpha * p[(i, j)] + teleport)
}

/// Column-stochastic random-walk matrix of a graph with `k` planted
/// clusters: dense within a cluster (edge prob. `p_in`), sparse across
/// (`p_out`). For well-separated clusters the walk matrix has `k`
/// eigenvalues near 1 — the spectral-clustering signal the paper's
/// introduction motivates (its ref. 43, von Luxburg).
pub fn clustered_walk_matrix(n: usize, k: usize, p_in: f64, p_out: f64, seed: u64) -> Matrix {
    assert!(k >= 1 && n >= k);
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let cluster_of = |i: usize| i * k / n;
    let mut a = Matrix::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            let p = if cluster_of(i) == cluster_of(j) { p_in } else { p_out };
            if i != j && rng.next_f64() < p {
                a[(i, j)] = 1.0;
            }
        }
        a[(j, j)] = 1.0; // self loop keeps every column substochastic-safe
    }
    // Column-normalize: W = A·D⁻¹ (walk moves along columns).
    for j in 0..n {
        let s: f64 = a.col(j).iter().sum();
        for v in a.col_mut(j) {
            *v /= s;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_walk_matrix_is_column_stochastic() {
        let w = clustered_walk_matrix(30, 3, 0.8, 0.02, 4);
        for j in 0..30 {
            let s: f64 = w.col(j).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_is_reproducible_and_bounded() {
        let a = uniform(10, 10, 42);
        let b = uniform(10, 10, 42);
        assert_eq!(a, b);
        let c = uniform(10, 10, 43);
        assert!(a != c);
        assert!(a.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn indexed_entries_are_order_independent() {
        let m = uniform_indexed_matrix(8, 8, 7);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(m[(i, j)], uniform_entry(7, i, j));
            }
        }
        // Not all identical, roughly centered.
        let mean: f64 = m.as_slice().iter().sum::<f64>() / 64.0;
        assert!(mean.abs() < 0.25);
    }

    #[test]
    fn google_matrix_is_column_stochastic() {
        let g = google_matrix(20, 0.85, 3, 5);
        for j in 0..20 {
            let s: f64 = g.col(j).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "col {j} sums to {s}");
            assert!(g.col(j).iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn hessenberg_generator_structure() {
        let h = diag_dominant_hessenberg(&[1.0, 2.0, 3.0, 4.0], 1);
        for j in 0..4 {
            for i in j + 2..4 {
                assert_eq!(h[(i, j)], 0.0);
            }
        }
    }
}
