use crate::{Matrix, SampleBatch, SigStatError};

/// Sample mean of a set of equal-length observations.
///
/// # Errors
///
/// Returns [`SigStatError::EmptyInput`] for an empty observation set,
/// [`SigStatError::DimensionMismatch`] for ragged observations, and
/// [`SigStatError::NonFiniteInput`] if any observation contains a NaN or
/// infinite value (a single non-finite sample would poison every downstream
/// moment estimate).
///
/// # Example
///
/// ```
/// use vprofile_sigstat::sample_mean;
///
/// let mean = sample_mean(&[vec![1.0, 4.0], vec![3.0, 8.0]])?;
/// assert_eq!(mean, vec![2.0, 6.0]);
/// # Ok::<(), vprofile_sigstat::SigStatError>(())
/// ```
pub fn sample_mean(observations: &[Vec<f64>]) -> Result<Vec<f64>, SigStatError> {
    if observations.is_empty() {
        return Err(SigStatError::EmptyInput {
            context: "sample_mean",
        });
    }
    let batch = SampleBatch::from_nested(observations)?;
    sample_mean_batch(&batch)
}

/// [`sample_mean`] over a flat [`SampleBatch`]: the contiguous layout makes
/// the accumulation one streaming pass with no per-observation pointer
/// chase. This is the form the training path uses; the nested-`Vec` entry
/// point is a conversion shim over it.
///
/// # Errors
///
/// Returns [`SigStatError::EmptyInput`] for an empty batch and
/// [`SigStatError::NonFiniteInput`] if any observation contains a NaN or
/// infinite value.
pub fn sample_mean_batch(batch: &SampleBatch) -> Result<Vec<f64>, SigStatError> {
    let n = batch.rows();
    if n == 0 {
        return Err(SigStatError::EmptyInput {
            context: "sample_mean",
        });
    }
    if !batch.as_slice().iter().all(|v| v.is_finite()) {
        return Err(SigStatError::NonFiniteInput {
            context: "sample_mean",
        });
    }
    let mut mean = vec![0.0; batch.dim()];
    for obs in batch.iter_rows() {
        for (m, &v) in mean.iter_mut().zip(obs) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    Ok(mean)
}

/// Unbiased (`n − 1` denominator) sample covariance matrix of a set of
/// equal-length observations.
///
/// # Errors
///
/// Returns [`SigStatError::InsufficientObservations`] for fewer than two
/// observations and [`SigStatError::DimensionMismatch`] for ragged input.
pub fn sample_covariance(observations: &[Vec<f64>], mean: &[f64]) -> Result<Matrix, SigStatError> {
    let n = observations.len();
    if n < 2 {
        return Err(SigStatError::InsufficientObservations { actual: n });
    }
    for obs in observations {
        if obs.len() != mean.len() {
            return Err(SigStatError::DimensionMismatch {
                expected: mean.len(),
                actual: obs.len(),
                context: "sample_covariance",
            });
        }
    }
    let batch = SampleBatch::from_nested(observations)?;
    sample_covariance_batch(&batch, mean)
}

/// [`sample_covariance`] over a flat [`SampleBatch`]: the upper-triangle
/// rank-1 accumulation runs over one contiguous centered row per
/// observation, with the 4-wide `mul_add` axpy kernel on each triangle row.
///
/// # Errors
///
/// Returns [`SigStatError::InsufficientObservations`] for fewer than two
/// observations and [`SigStatError::DimensionMismatch`] if
/// `batch.dim() != mean.len()`.
pub fn sample_covariance_batch(batch: &SampleBatch, mean: &[f64]) -> Result<Matrix, SigStatError> {
    let n = batch.rows();
    if n < 2 {
        return Err(SigStatError::InsufficientObservations { actual: n });
    }
    let dim = mean.len();
    if batch.dim() != dim {
        return Err(SigStatError::DimensionMismatch {
            expected: dim,
            actual: batch.dim(),
            context: "sample_covariance",
        });
    }
    let mut cov = Matrix::zeros(dim, dim);
    let mut centered = vec![0.0; dim];
    for obs in batch.iter_rows() {
        for (c, (&v, &m)) in centered.iter_mut().zip(obs.iter().zip(mean)) {
            *c = v - m;
        }
        cov.add_upper_triangle_outer(&centered);
    }
    let denom = (n - 1) as f64;
    for i in 0..dim {
        for j in i..dim {
            let v = cov[(i, j)] / denom;
            cov[(i, j)] = v;
            cov[(j, i)] = v;
        }
    }
    Ok(cov)
}

/// A fitted mean + covariance pair, with optional ridge regularization
/// tracking.
///
/// This is the "cluster statistics" building block of the vProfile model:
/// one estimate per ECU cluster. The `applied_ridge` field records whether
/// the raw sample covariance was singular (thesis §4.3 observes this for
/// ≤10-bit data) and how much diagonal loading was required to factor it.
#[derive(Debug, Clone, PartialEq)]
pub struct CovarianceEstimate {
    /// Sample mean vector.
    pub mean: Vec<f64>,
    /// (Possibly ridge-regularized) covariance matrix.
    pub covariance: Matrix,
    /// Number of observations the estimate was computed from.
    pub count: usize,
    /// Ridge added to the diagonal; `0.0` when the raw estimate was already
    /// positive definite.
    pub applied_ridge: f64,
}

impl CovarianceEstimate {
    /// Fits mean and covariance, applying at most `max_ridge` of diagonal
    /// loading (in geometric steps from `1e-9 · scale`) if the raw covariance
    /// is not positive definite.
    ///
    /// Passing `max_ridge = 0.0` reproduces the thesis' strict behaviour:
    /// singular covariance matrices are reported as errors rather than
    /// repaired, which is how the resolution floor of Tables 4.6/4.7 shows
    /// up.
    ///
    /// Condition-estimate ceiling beyond which a factored covariance is
    /// treated as numerically unusable (distances through it amplify
    /// rounding error past `f64` precision).
    pub const CONDITION_LIMIT: f64 = 1e15;

    /// # Errors
    ///
    /// Propagates estimation errors, and returns
    /// [`SigStatError::NotPositiveDefinite`] if the covariance cannot be
    /// factored within the ridge budget, or
    /// [`SigStatError::IllConditioned`] if it factors but its condition
    /// estimate stays above [`CovarianceEstimate::CONDITION_LIMIT`] even
    /// after the budgeted ridge.
    pub fn fit(observations: &[Vec<f64>], max_ridge: f64) -> Result<Self, SigStatError> {
        if observations.is_empty() {
            return Err(SigStatError::EmptyInput {
                context: "sample_mean",
            });
        }
        let batch = SampleBatch::from_nested(observations)?;
        Self::fit_batch(&batch, max_ridge)
    }

    /// [`CovarianceEstimate::fit`] over a flat [`SampleBatch`] — the form
    /// the training path uses; the nested-`Vec` entry point is a conversion
    /// shim over it.
    ///
    /// # Errors
    ///
    /// Same contract as [`CovarianceEstimate::fit`].
    pub fn fit_batch(batch: &SampleBatch, max_ridge: f64) -> Result<Self, SigStatError> {
        let mean = sample_mean_batch(batch)?;
        let mut covariance = sample_covariance_batch(batch, &mean)?;
        let scale = covariance.max_abs_diagonal().max(f64::MIN_POSITIVE);
        let mut applied_ridge = 0.0;
        let mut ridge = 1e-9 * scale;
        loop {
            let failure = match covariance.cholesky() {
                Ok(chol) => {
                    let condition_estimate = chol.condition_estimate();
                    if condition_estimate <= Self::CONDITION_LIMIT {
                        return Ok(CovarianceEstimate {
                            mean,
                            covariance,
                            count: batch.rows(),
                            applied_ridge,
                        });
                    }
                    SigStatError::IllConditioned {
                        condition_estimate,
                        limit: Self::CONDITION_LIMIT,
                    }
                }
                Err(err @ SigStatError::NotPositiveDefinite { .. }) => err,
                Err(other) => return Err(other),
            };
            if applied_ridge + ridge > max_ridge * scale.max(1.0) {
                return Err(failure);
            }
            covariance.add_ridge(ridge);
            applied_ridge += ridge;
            ridge *= 10.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_of_empty_set_errors() {
        assert!(matches!(
            sample_mean(&[]).unwrap_err(),
            SigStatError::EmptyInput { .. }
        ));
    }

    #[test]
    fn mean_of_ragged_set_errors() {
        let err = sample_mean(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, SigStatError::DimensionMismatch { .. }));
    }

    #[test]
    fn covariance_of_known_data() {
        // Two variables, perfectly anti-correlated.
        let obs = vec![
            vec![1.0, -1.0],
            vec![-1.0, 1.0],
            vec![2.0, -2.0],
            vec![-2.0, 2.0],
        ];
        let mean = sample_mean(&obs).unwrap();
        assert_eq!(mean, vec![0.0, 0.0]);
        let cov = sample_covariance(&obs, &mean).unwrap();
        // var = (1+1+4+4)/3
        let var = 10.0 / 3.0;
        assert!((cov[(0, 0)] - var).abs() < 1e-12);
        assert!((cov[(1, 1)] - var).abs() < 1e-12);
        assert!((cov[(0, 1)] + var).abs() < 1e-12);
    }

    #[test]
    fn covariance_requires_two_observations() {
        let err = sample_covariance(&[vec![1.0]], &[1.0]).unwrap_err();
        assert!(matches!(
            err,
            SigStatError::InsufficientObservations { actual: 1 }
        ));
    }

    #[test]
    fn fit_reports_singular_with_zero_budget() {
        // Identical observations → zero covariance → singular.
        let obs = vec![vec![1.0, 2.0]; 5];
        let err = CovarianceEstimate::fit(&obs, 0.0).unwrap_err();
        assert!(matches!(err, SigStatError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn fit_repairs_singular_with_ridge_budget() {
        let obs = vec![vec![1.0, 2.0]; 5];
        let est = CovarianceEstimate::fit(&obs, 1e-3).unwrap();
        assert!(est.applied_ridge > 0.0);
        assert_eq!(est.count, 5);
        assert!(est.covariance.cholesky().is_ok());
    }

    #[test]
    fn mean_rejects_non_finite_values() {
        let err = sample_mean(&[vec![1.0, f64::NAN]]).unwrap_err();
        assert!(matches!(err, SigStatError::NonFiniteInput { .. }));
        let err = sample_mean(&[vec![f64::INFINITY]]).unwrap_err();
        assert!(matches!(err, SigStatError::NonFiniteInput { .. }));
    }

    #[test]
    fn fit_reports_ill_conditioned_with_zero_budget() {
        // Two nearly collinear directions with wildly different scales give a
        // factorable but numerically useless covariance.
        let mut obs = Vec::new();
        for i in 0..40 {
            let t = f64::from(i);
            obs.push(vec![t, t * (1.0 + 1e-12)]);
        }
        let err = CovarianceEstimate::fit(&obs, 0.0).unwrap_err();
        assert!(matches!(
            err,
            SigStatError::IllConditioned { .. } | SigStatError::NotPositiveDefinite { .. }
        ));
    }

    #[test]
    fn fit_repairs_ill_conditioned_within_budget() {
        let mut obs = Vec::new();
        for i in 0..40 {
            let t = f64::from(i);
            obs.push(vec![t, t * (1.0 + 1e-12)]);
        }
        let est = CovarianceEstimate::fit(&obs, 1e-3).unwrap();
        assert!(est.applied_ridge > 0.0);
        let chol = est.covariance.cholesky().unwrap();
        assert!(chol.condition_estimate() <= CovarianceEstimate::CONDITION_LIMIT);
    }

    #[test]
    fn fit_leaves_well_conditioned_data_untouched() {
        let obs = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![-1.0, 0.5],
            vec![0.5, -1.0],
        ];
        let est = CovarianceEstimate::fit(&obs, 1e-3).unwrap();
        assert_eq!(est.applied_ridge.to_bits(), 0.0_f64.to_bits());
    }

    proptest! {
        /// Covariance matrices are symmetric with non-negative diagonals.
        #[test]
        fn prop_covariance_symmetric_psd_diag(
            obs in proptest::collection::vec(
                proptest::collection::vec(-100.0f64..100.0, 4), 2..20)
        ) {
            let mean = sample_mean(&obs).unwrap();
            let cov = sample_covariance(&obs, &mean).unwrap();
            for i in 0..4 {
                prop_assert!(cov[(i, i)] >= -1e-9);
                for j in 0..4 {
                    prop_assert!((cov[(i, j)] - cov[(j, i)]).abs() < 1e-9);
                }
            }
        }

        /// Mean is translation-equivariant.
        #[test]
        fn prop_mean_translation(
            obs in proptest::collection::vec(
                proptest::collection::vec(-50.0f64..50.0, 3), 1..10),
            shift in -10.0f64..10.0,
        ) {
            let base = sample_mean(&obs).unwrap();
            let shifted: Vec<Vec<f64>> = obs.iter()
                .map(|o| o.iter().map(|v| v + shift).collect())
                .collect();
            let m2 = sample_mean(&shifted).unwrap();
            for (a, b) in base.iter().zip(&m2) {
                prop_assert!((a + shift - b).abs() < 1e-9);
            }
        }

        /// Covariance is translation-invariant.
        #[test]
        fn prop_covariance_translation_invariant(
            obs in proptest::collection::vec(
                proptest::collection::vec(-50.0f64..50.0, 3), 2..10),
            shift in -10.0f64..10.0,
        ) {
            let mean = sample_mean(&obs).unwrap();
            let cov = sample_covariance(&obs, &mean).unwrap();
            let shifted: Vec<Vec<f64>> = obs.iter()
                .map(|o| o.iter().map(|v| v + shift).collect())
                .collect();
            let m2 = sample_mean(&shifted).unwrap();
            let cov2 = sample_covariance(&shifted, &m2).unwrap();
            for i in 0..3 {
                for j in 0..3 {
                    prop_assert!((cov[(i, j)] - cov2[(i, j)]).abs() < 1e-6);
                }
            }
        }
    }
}
