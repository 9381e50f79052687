//! Gaussian noise generation via the Box–Muller transform.
//!
//! Implemented locally (rather than pulling in `rand_distr`) to keep the
//! dependency set to the approved list.

use rand::Rng;

/// Draws one sample from `N(mean, sigma²)` using the Box–Muller transform.
///
/// `sigma = 0` returns `mean` exactly, which the deterministic tests rely
/// on.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
/// use vprofile_analog::sample_normal;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let x = sample_normal(&mut rng, 5.0, 0.0);
/// assert_eq!(x, 5.0);
/// ```
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    // Exact zero is a sentinel ("no noise"), not a tolerance check.
    if vprofile_sigstat::exactly_zero(sigma) {
        return mean;
    }
    // Box–Muller: u1 ∈ (0, 1] avoids ln(0).
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + sigma * z
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_sigma_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(
                sample_normal(&mut rng, -3.25, 0.0).to_bits(),
                (-3.25_f64).to_bits()
            );
        }
    }

    #[test]
    fn sample_moments_match_target() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let (mean, sigma) = (2.0, 0.5);
        let samples: Vec<f64> = (0..n)
            .map(|_| sample_normal(&mut rng, mean, sigma))
            .collect();
        let m = samples.iter().sum::<f64>() / n as f64;
        let v = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n as f64 - 1.0);
        assert!((m - mean).abs() < 0.01, "mean {m}");
        assert!((v.sqrt() - sigma).abs() < 0.01, "std {}", v.sqrt());
    }

    #[test]
    fn tails_are_roughly_gaussian() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let within_1sigma = (0..n)
            .map(|_| sample_normal(&mut rng, 0.0, 1.0))
            .filter(|x| x.abs() < 1.0)
            .count();
        let frac = within_1sigma as f64 / n as f64;
        assert!((frac - 0.6827).abs() < 0.01, "1-sigma mass {frac}");
    }

    #[test]
    fn seeded_generation_is_reproducible() {
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..16).map(|_| sample_normal(&mut rng, 0.0, 1.0)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..16).map(|_| sample_normal(&mut rng, 0.0, 1.0)).collect()
        };
        assert_eq!(a, b);
    }
}
