use crate::SigStatError;
use serde::{Deserialize, Serialize};

/// Arithmetic mean of a slice.
///
/// # Errors
///
/// Returns [`SigStatError::EmptyInput`] for an empty slice.
pub fn mean(xs: &[f64]) -> Result<f64, SigStatError> {
    if xs.is_empty() {
        return Err(SigStatError::EmptyInput { context: "mean" });
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased sample variance (`n − 1` denominator).
///
/// # Errors
///
/// Returns [`SigStatError::InsufficientObservations`] for fewer than two
/// values.
pub fn variance(xs: &[f64]) -> Result<f64, SigStatError> {
    if xs.len() < 2 {
        return Err(SigStatError::InsufficientObservations { actual: xs.len() });
    }
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() as f64 - 1.0))
}

/// Population variance (`n` denominator).
///
/// # Errors
///
/// Returns [`SigStatError::EmptyInput`] for an empty slice.
pub fn population_variance(xs: &[f64]) -> Result<f64, SigStatError> {
    if xs.is_empty() {
        return Err(SigStatError::EmptyInput {
            context: "population_variance",
        });
    }
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Unbiased sample standard deviation.
///
/// # Errors
///
/// Returns [`SigStatError::InsufficientObservations`] for fewer than two
/// values.
pub fn std_dev(xs: &[f64]) -> Result<f64, SigStatError> {
    variance(xs).map(f64::sqrt)
}

/// Minimum of a slice, ignoring NaNs.
///
/// # Errors
///
/// Returns [`SigStatError::EmptyInput`] for an empty slice.
pub fn min_f64(xs: &[f64]) -> Result<f64, SigStatError> {
    if xs.is_empty() {
        return Err(SigStatError::EmptyInput { context: "min_f64" });
    }
    Ok(xs.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Maximum of a slice, ignoring NaNs.
///
/// # Errors
///
/// Returns [`SigStatError::EmptyInput`] for an empty slice.
pub fn max_f64(xs: &[f64]) -> Result<f64, SigStatError> {
    if xs.is_empty() {
        return Err(SigStatError::EmptyInput { context: "max_f64" });
    }
    Ok(xs.iter().copied().fold(f64::NEG_INFINITY, f64::max))
}

/// Percent change from `baseline` to `value`, as used by Figures 4.6–4.8
/// ("percent delta of Mahalanobis distance means").
///
/// Returns `0.0` when the baseline is zero to keep plots finite.
pub fn percent_delta(baseline: f64, value: f64) -> f64 {
    if crate::exactly_zero(baseline) {
        0.0
    } else {
        (value - baseline) / baseline * 100.0
    }
}

/// A symmetric normal-approximation confidence interval around a mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the interval (`z · s/√n`).
    pub half_width: f64,
    /// Confidence level, e.g. `0.99`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Lower bound of the interval.
    pub fn lower(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the interval.
    pub fn upper(&self) -> f64 {
        self.mean + self.half_width
    }

    /// `true` if `x` lies inside the interval (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lower() && x <= self.upper()
    }
}

/// Normal-approximation confidence interval for the mean of `xs`.
///
/// Supports the two levels used in the thesis' figures: `0.95` (z = 1.960)
/// and `0.99` (z = 2.576).
///
/// # Errors
///
/// Returns [`SigStatError::InsufficientObservations`] for fewer than two
/// values and [`SigStatError::UnsupportedConfidenceLevel`] if `level` is not
/// `0.95` or `0.99`.
pub fn confidence_interval(xs: &[f64], level: f64) -> Result<ConfidenceInterval, SigStatError> {
    let z = match level {
        l if (l - 0.95).abs() < 1e-12 => 1.959_963_984_540_054,
        l if (l - 0.99).abs() < 1e-12 => 2.575_829_303_548_901,
        _ => return Err(SigStatError::UnsupportedConfidenceLevel { level }),
    };
    let m = mean(xs)?;
    let s = std_dev(xs)?;
    Ok(ConfidenceInterval {
        mean: m,
        half_width: z * s / (xs.len() as f64).sqrt(),
        level,
    })
}

/// Five-number-ish summary of a sample: count, mean, standard deviation,
/// min, and max. Convenience type for experiment reporting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of values summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample standard deviation (0 when `count < 2`).
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::EmptyInput`] for an empty slice.
    pub fn of(xs: &[f64]) -> Result<Self, SigStatError> {
        let m = mean(xs)?;
        let sd = if xs.len() >= 2 { std_dev(xs)? } else { 0.0 };
        Ok(Summary {
            count: xs.len(),
            mean: m,
            std_dev: sd,
            min: min_f64(xs)?,
            max: max_f64(xs)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_of_known_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]).unwrap().to_bits(), 2.0_f64.to_bits());
        assert!(mean(&[]).is_err());
    }

    #[test]
    fn variance_of_known_values() {
        // var([2, 4, 4, 4, 5, 5, 7, 9]) = 32/7 sample, 4.0 population
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((population_variance(&xs).unwrap() - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn variance_needs_two_values() {
        assert!(variance(&[1.0]).is_err());
        assert!(population_variance(&[1.0]).is_ok());
    }

    #[test]
    fn min_max_of_known_values() {
        let xs = [3.0, -1.0, 7.0, 0.0];
        assert_eq!(min_f64(&xs).unwrap().to_bits(), (-1.0_f64).to_bits());
        assert_eq!(max_f64(&xs).unwrap().to_bits(), 7.0_f64.to_bits());
    }

    #[test]
    fn percent_delta_examples() {
        assert_eq!(percent_delta(100.0, 150.0).to_bits(), 50.0_f64.to_bits());
        assert_eq!(percent_delta(100.0, 50.0).to_bits(), (-50.0_f64).to_bits());
        assert_eq!(percent_delta(0.0, 42.0).to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn confidence_interval_99_of_constant_plus_noise() {
        let xs = [9.9, 10.1, 10.0, 9.95, 10.05, 10.02, 9.98];
        let ci = confidence_interval(&xs, 0.99).unwrap();
        assert!(ci.contains(10.0));
        assert!(ci.half_width > 0.0);
        assert!(ci.lower() < ci.mean && ci.mean < ci.upper());
    }

    #[test]
    fn confidence_interval_95_is_narrower_than_99() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ci95 = confidence_interval(&xs, 0.95).unwrap();
        let ci99 = confidence_interval(&xs, 0.99).unwrap();
        assert!(ci95.half_width < ci99.half_width);
    }

    #[test]
    fn confidence_interval_rejects_unknown_level() {
        let err = confidence_interval(&[1.0, 2.0], 0.5).unwrap_err();
        assert!(matches!(
            err,
            SigStatError::UnsupportedConfidenceLevel { level } if (level - 0.5).abs() < 1e-12
        ));
    }

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.mean.to_bits(), 2.0_f64.to_bits());
        assert_eq!(s.min.to_bits(), 1.0_f64.to_bits());
        assert_eq!(s.max.to_bits(), 3.0_f64.to_bits());
        assert!((s.std_dev - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_of_single_value_has_zero_std() {
        let s = Summary::of(&[5.0]).unwrap();
        assert_eq!(s.std_dev.to_bits(), 0.0_f64.to_bits());
        assert_eq!(s.count, 1);
    }

    proptest! {
        /// min ≤ mean ≤ max always.
        #[test]
        fn prop_mean_between_min_and_max(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..100)
        ) {
            let m = mean(&xs).unwrap();
            prop_assert!(min_f64(&xs).unwrap() <= m + 1e-9);
            prop_assert!(m <= max_f64(&xs).unwrap() + 1e-9);
        }

        /// Variance is non-negative and scale-quadratic.
        #[test]
        fn prop_variance_scaling(
            xs in proptest::collection::vec(-100.0f64..100.0, 2..50),
            scale in 0.1f64..10.0,
        ) {
            let v = variance(&xs).unwrap();
            prop_assert!(v >= 0.0);
            let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
            let vs = variance(&scaled).unwrap();
            prop_assert!((vs - v * scale * scale).abs() < 1e-6 * (1.0 + vs.abs()));
        }

        /// CI contains its own mean and is symmetric.
        #[test]
        fn prop_ci_symmetric(
            xs in proptest::collection::vec(-10.0f64..10.0, 2..40)
        ) {
            let ci = confidence_interval(&xs, 0.99).unwrap();
            prop_assert!(ci.contains(ci.mean));
            prop_assert!(((ci.upper() - ci.mean) - (ci.mean - ci.lower())).abs() < 1e-9);
        }
    }
}
