//! Property tests for the batched Mahalanobis kernel and the Welford online
//! estimator, on seeded random inputs.
//!
//! Random SPD covariances are generated as `A = B·Bᵀ + ridge·I` from a
//! seeded [`rand::rngs::StdRng`], so every proptest case is a deterministic
//! function of the case's drawn seed: failures reproduce exactly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vprofile_sigstat::{
    sample_covariance, sample_mean, BatchedMahalanobis, Gaussian, Matrix, OnlineGaussian,
    SampleBatch,
};

/// Random SPD matrix `B·Bᵀ + ridge·I` with entries drawn from `rng`.
fn random_spd(rng: &mut StdRng, dim: usize, ridge: f64) -> Matrix {
    let b: Vec<Vec<f64>> = (0..dim)
        .map(|_| (0..dim).map(|_| rng.random_range(-2.0..2.0)).collect())
        .collect();
    let mut a = Matrix::zeros(dim, dim);
    for i in 0..dim {
        for j in 0..dim {
            let mut s = if i == j { ridge } else { 0.0 };
            for (bi, bj) in b[i].iter().zip(&b[j]) {
                s += bi * bj;
            }
            a[(i, j)] = s;
        }
    }
    a
}

fn random_gaussian(rng: &mut StdRng, dim: usize) -> Gaussian {
    let mean: Vec<f64> = (0..dim).map(|_| rng.random_range(-10.0..10.0)).collect();
    let cov = random_spd(rng, dim, 0.05);
    Gaussian::from_moments(mean, cov, 16).expect("B·Bᵀ + ridge·I is positive definite")
}

/// The reference answer `nearest_to` must reproduce: every distance from
/// `distances_into`, then the first strict minimum from cluster 0.
fn full_scan(batched: &BatchedMahalanobis, x: &[f64]) -> (usize, f64) {
    let mut distances = Vec::new();
    batched.distances_into(x, &mut distances).unwrap();
    let mut best: Option<(usize, f64)> = None;
    for (c, &d) in distances.iter().enumerate() {
        if best.map_or(true, |(_, bd)| d < bd) {
            best = Some((c, d));
        }
    }
    best.unwrap()
}

/// Samples the seeded scan's inputs also hit: NaN and infinities (which
/// make distances NaN or infinite), magnitudes whose squares overflow, and
/// magnitudes whose products with the factors overflow.
const SPECIALS: [f64; 7] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e300,
    -1e300,
    1e200,
    f64::MAX,
];

proptest! {
    /// The stacked one-product kernel must agree with the per-cluster
    /// triangular solves to within 1e-9 on random SPD covariances.
    #[test]
    fn prop_batched_matches_per_cluster(
        seed in any::<u64>(),
        dim in 2usize..6,
        clusters in 1usize..8,
        frames in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gaussians: Vec<Gaussian> =
            (0..clusters).map(|_| random_gaussian(&mut rng, dim)).collect();
        let refs: Vec<&Gaussian> = gaussians.iter().collect();
        let batched = BatchedMahalanobis::from_gaussians(&refs).unwrap();
        prop_assert_eq!(batched.dim(), dim);
        prop_assert_eq!(batched.cluster_count(), clusters);

        let mut xs = SampleBatch::with_capacity(dim, frames);
        let mut row = vec![0.0; dim];
        for _ in 0..frames {
            for v in &mut row {
                *v = rng.random_range(-12.0..12.0);
            }
            xs.push_row(&row).unwrap();
        }
        let many = batched.distances_batch(&xs).unwrap();
        prop_assert_eq!(many.rows(), frames);
        for (x, batch_row) in xs.iter_rows().zip(many.iter_rows()) {
            let single = batched.distances(x).unwrap();
            for (c, g) in gaussians.iter().enumerate() {
                let reference = g.mahalanobis(x).unwrap();
                prop_assert!(
                    (single[c] - reference).abs() < 1e-9,
                    "per-frame kernel: cluster {} got {} want {}", c, single[c], reference
                );
                prop_assert!(
                    (batch_row[c] - reference).abs() < 1e-9,
                    "batch kernel: cluster {} got {} want {}", c, batch_row[c], reference
                );
            }
        }
    }

    /// The claimed-cluster-first, early-abandoning scan returns the full
    /// scan's `(cluster, distance)` bit for bit: K = 1 to 40 random SPD
    /// Gaussians at scales 1e-4 to 1e4 (some duplicated or nudged by an
    /// ulp, for exact ties),
    /// every cluster tried as the claim, on inputs near a mean, at a mean,
    /// far from all, and with NaN, infinite and huge samples.
    #[test]
    fn prop_nearest_to_matches_full_scan_bits(
        seed in any::<u64>(),
        dim in 1usize..=12,
        clusters in 1usize..=40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gaussians: Vec<Gaussian> = Vec::with_capacity(clusters);
        for c in 0..clusters {
            if c > 0 && rng.random_bool(0.4) {
                // An exact twin ties every distance; a twin whose mean is
                // nudged by an ulp ties after the square root on some rows.
                let twin = &gaussians[rng.random_range(0..c)];
                if rng.random_bool(0.5) {
                    gaussians.push(twin.clone());
                } else {
                    let mean: Vec<f64> = twin
                        .mean()
                        .iter()
                        .map(|m| if rng.random_bool(0.5) { m.next_up() } else { m.next_down() })
                        .collect();
                    let cov = twin.covariance().clone();
                    gaussians.push(Gaussian::from_moments(mean, cov, 16).unwrap());
                }
                continue;
            }
            let scale = 10f64.powi(rng.random_range(-2..=2) * 2);
            let mean: Vec<f64> = (0..dim).map(|_| rng.random_range(-10.0..10.0) * scale).collect();
            let mut cov = random_spd(&mut rng, dim, 0.05);
            for i in 0..dim {
                for j in 0..dim {
                    cov[(i, j)] *= scale * scale;
                }
            }
            gaussians.push(Gaussian::from_moments(mean, cov, 16).unwrap());
        }
        let refs: Vec<&Gaussian> = gaussians.iter().collect();
        let batched = BatchedMahalanobis::from_gaussians(&refs).unwrap();

        let mut inputs: Vec<Vec<f64>> = Vec::new();
        for _ in 0..4 {
            let g = &gaussians[rng.random_range(0..clusters)];
            let spread = rng.random_range(0.0..3.0);
            inputs.push(g.mean().iter().map(|m| m + spread * rng.random_range(-1.0..1.0) * m.abs().max(1.0)).collect());
        }
        inputs.push(gaussians[rng.random_range(0..clusters)].mean().to_vec());
        inputs.push((0..dim).map(|_| rng.random_range(-1e6..1e6)).collect());
        for _ in 0..4 {
            let mut x = inputs[rng.random_range(0..inputs.len())].clone();
            for _ in 0..rng.random_range(1..=2usize) {
                x[rng.random_range(0..dim)] = SPECIALS[rng.random_range(0..SPECIALS.len())];
            }
            inputs.push(x);
        }

        for x in &inputs {
            let (want, want_d) = full_scan(&batched, x);
            for claimed in 0..clusters {
                let (got, got_d) = batched.nearest_to(x, claimed).unwrap();
                prop_assert!(
                    got == want && got_d.to_bits() == want_d.to_bits(),
                    "claimed {}: got ({}, {}) want ({}, {}) for {:?}",
                    claimed, got, got_d, want, want_d, x
                );
            }
        }
        prop_assert!(batched.nearest_to(&inputs[0], clusters).is_err());
        prop_assert!(batched.nearest_to(&vec![0.0; dim + 1], 0).is_err());
    }

    /// Welford online mean/covariance must match the two-pass batch
    /// computation on random observation sets.
    #[test]
    fn prop_welford_matches_two_pass(
        seed in any::<u64>(),
        dim in 1usize..6,
        count in 2usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let obs: Vec<Vec<f64>> = (0..count)
            .map(|_| (0..dim).map(|_| rng.random_range(-100.0..100.0)).collect())
            .collect();

        let mut online = OnlineGaussian::new(dim);
        for o in &obs {
            online.push(o).unwrap();
        }
        prop_assert_eq!(online.count(), count);

        let mean = sample_mean(&obs).unwrap();
        let cov = sample_covariance(&obs, &mean).unwrap();
        for (a, b) in online.mean().iter().zip(&mean) {
            prop_assert!((a - b).abs() < 1e-8, "mean: online {} vs two-pass {}", a, b);
        }
        let online_cov = online.sample_covariance().unwrap();
        for i in 0..dim {
            for j in 0..dim {
                prop_assert!(
                    (online_cov[(i, j)] - cov[(i, j)]).abs() < 1e-6,
                    "cov[{},{}]: online {} vs two-pass {}",
                    i, j, online_cov[(i, j)], cov[(i, j)]
                );
            }
        }
    }
}
