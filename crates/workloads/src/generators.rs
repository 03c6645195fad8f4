//! Deterministic input generators for examples, tests and benchmarks.

use aurora_sim_core::rng::SplitMix64;

/// A reproducible random vector of `n` doubles in `[-1, 1)`.
pub fn random_vector(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| -1.0 + 2.0 * rng.next_f64()).collect()
}

/// A reproducible random row-major `rows × cols` matrix.
pub fn random_matrix(seed: u64, rows: usize, cols: usize) -> Vec<f64> {
    random_vector(seed ^ 0x9E37_79B9_7F4A_7C15, rows * cols)
}

/// Reference dense GEMM (row-major), for verifying offloaded results.
pub fn reference_dgemm(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        for t in 0..k {
            let ait = a[i * k + t];
            for j in 0..n {
                c[i * n + j] += ait * b[t * n + j];
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectors_are_deterministic_and_in_range() {
        let a = random_vector(1, 100);
        let b = random_vector(1, 100);
        let c = random_vector(2, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn matrix_dimensions() {
        assert_eq!(random_matrix(3, 4, 5).len(), 20);
    }

    #[test]
    fn reference_kernels_agree_on_identity() {
        let eye = vec![1.0, 0.0, 0.0, 1.0];
        let m = vec![3.0, 4.0, 5.0, 6.0];
        assert_eq!(reference_dgemm(&eye, &m, 2, 2, 2), m);
    }
}
