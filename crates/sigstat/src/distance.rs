use crate::{Cholesky, CovarianceEstimate, Matrix, SigStatError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The distance metric used by the detector (thesis §2.2.2).
///
/// The thesis first evaluates Euclidean distance (Tables 4.1/4.2), then
/// switches to Mahalanobis distance (Tables 4.3/4.4) after observing that the
/// per-sample variance of an edge set is wildly non-uniform (Figure 4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DistanceMetric {
    /// Plain Euclidean distance between an edge set and a cluster mean
    /// (Equation 2.1).
    Euclidean,
    /// Mahalanobis distance between an edge set and the cluster distribution
    /// (Equation 2.2). This is the metric vProfile ships with.
    #[default]
    Mahalanobis,
}

impl fmt::Display for DistanceMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistanceMetric::Euclidean => f.write_str("euclidean"),
            DistanceMetric::Mahalanobis => f.write_str("mahalanobis"),
        }
    }
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Errors
///
/// Returns [`SigStatError::DimensionMismatch`] if the lengths differ.
pub fn squared_euclidean(x: &[f64], y: &[f64]) -> Result<f64, SigStatError> {
    if x.len() != y.len() {
        return Err(SigStatError::DimensionMismatch {
            expected: x.len(),
            actual: y.len(),
            context: "squared_euclidean",
        });
    }
    Ok(x.iter()
        .zip(y)
        .map(|(a, b)| {
            let d = a - b;
            d * d
        })
        .sum())
}

/// Euclidean distance between two equal-length vectors (Equation 2.1).
///
/// # Errors
///
/// Returns [`SigStatError::DimensionMismatch`] if the lengths differ.
///
/// # Example
///
/// ```
/// use vprofile_sigstat::euclidean;
///
/// let d = euclidean(&[0.0, 0.0], &[3.0, 4.0])?;
/// assert_eq!(d, 5.0);
/// # Ok::<(), vprofile_sigstat::SigStatError>(())
/// ```
pub fn euclidean(x: &[f64], y: &[f64]) -> Result<f64, SigStatError> {
    squared_euclidean(x, y).map(f64::sqrt)
}

/// A multivariate Gaussian fitted to a cluster of edge sets: mean vector,
/// covariance matrix, and a cached Cholesky factor for fast Mahalanobis
/// queries.
///
/// One `Gaussian` corresponds to one ECU cluster in the vProfile model.
/// It does not serialize: its factor is derived state, so a stored form
/// keeps the moments and refactors them through [`Gaussian::from_moments`].
#[derive(Debug, PartialEq)]
pub struct Gaussian {
    mean: Vec<f64>,
    covariance: Matrix,
    chol: Cholesky,
    count: usize,
}

crate::clone_in_place!(Gaussian {
    mean,
    covariance,
    chol,
    count
});

impl Gaussian {
    /// Fits a Gaussian to a set of observations, applying at most
    /// `max_ridge` (relative) diagonal loading if the sample covariance is
    /// singular. See [`CovarianceEstimate::fit`].
    ///
    /// # Errors
    ///
    /// Propagates estimation/factorization failures, notably
    /// [`SigStatError::NotPositiveDefinite`] for degenerate data.
    pub fn fit(observations: &[Vec<f64>], max_ridge: f64) -> Result<Self, SigStatError> {
        let est = CovarianceEstimate::fit(observations, max_ridge)?;
        Gaussian::from_estimate(est)
    }

    /// Builds a Gaussian from an existing mean/covariance estimate.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::NotPositiveDefinite`] if the covariance does
    /// not factor.
    pub fn from_estimate(est: CovarianceEstimate) -> Result<Self, SigStatError> {
        let chol = est.covariance.cholesky()?;
        Ok(Gaussian {
            mean: est.mean,
            covariance: est.covariance,
            chol,
            count: est.count,
        })
    }

    /// Builds a Gaussian from raw moments.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if the covariance shape
    /// does not match the mean, or [`SigStatError::NotPositiveDefinite`] if
    /// it does not factor.
    pub fn from_moments(
        mean: Vec<f64>,
        covariance: Matrix,
        count: usize,
    ) -> Result<Self, SigStatError> {
        if covariance.rows() != mean.len() || covariance.cols() != mean.len() {
            return Err(SigStatError::DimensionMismatch {
                expected: mean.len(),
                actual: covariance.rows(),
                context: "Gaussian::from_moments",
            });
        }
        let chol = covariance.cholesky()?;
        Ok(Gaussian {
            mean,
            covariance,
            chol,
            count,
        })
    }

    /// The mean vector.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The covariance matrix.
    pub fn covariance(&self) -> &Matrix {
        &self.covariance
    }

    /// Number of observations behind the fit (the thesis' `N_n`).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Dimensionality of the distribution.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// The cached Cholesky factor of the covariance.
    pub fn cholesky(&self) -> &Cholesky {
        &self.chol
    }

    /// Mahalanobis distance from `x` to this distribution (Equation 2.2),
    /// computed through the cached Cholesky factor.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn mahalanobis(&self, x: &[f64]) -> Result<f64, SigStatError> {
        let mut scratch = Vec::with_capacity(x.len());
        self.mahalanobis_with(x, &mut scratch)
    }

    /// [`Gaussian::mahalanobis`] with a caller-provided buffer for the
    /// centred observation, solved in place: allocation-free once the
    /// buffer has capacity, and bit-identical to the allocating form.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn mahalanobis_with(&self, x: &[f64], scratch: &mut Vec<f64>) -> Result<f64, SigStatError> {
        if x.len() != self.mean.len() {
            return Err(SigStatError::DimensionMismatch {
                expected: self.mean.len(),
                actual: x.len(),
                context: "Gaussian::mahalanobis",
            });
        }
        scratch.clear();
        scratch.extend(x.iter().zip(&self.mean).map(|(a, m)| a - m));
        Ok(self.chol.quadratic_form_in_place(scratch).sqrt())
    }

    /// Euclidean distance from `x` to the mean.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn euclidean(&self, x: &[f64]) -> Result<f64, SigStatError> {
        euclidean(x, &self.mean)
    }

    /// Distance from `x` using the requested metric.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn distance(&self, x: &[f64], metric: DistanceMetric) -> Result<f64, SigStatError> {
        match metric {
            DistanceMetric::Euclidean => self.euclidean(x),
            DistanceMetric::Mahalanobis => self.mahalanobis(x),
        }
    }

    /// Installs refit moments and their factor (the commit of
    /// [`crate::GaussianRefit`]): the mean is copied, and the matrices are
    /// swapped, so the caller's buffers receive the previous ones for
    /// reuse.
    pub(crate) fn install(
        &mut self,
        mean: &[f64],
        count: usize,
        covariance: &mut Matrix,
        chol: &mut Cholesky,
    ) {
        self.mean.clear();
        self.mean.extend_from_slice(mean);
        std::mem::swap(&mut self.covariance, covariance);
        std::mem::swap(&mut self.chol, chol);
        self.count = count;
    }

    /// Reconstructs the explicit inverse covariance (the thesis' Algorithm 4
    /// stores `clustInvCovs`; the hot path here uses the factor instead).
    ///
    /// # Errors
    ///
    /// Propagates internal solve errors from [`Cholesky::inverse`].
    pub fn inverse_covariance(&self) -> Result<Matrix, SigStatError> {
        self.chol.inverse()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_gaussian() -> Gaussian {
        let obs = vec![
            vec![1.0, 10.0],
            vec![1.2, 10.4],
            vec![0.8, 9.6],
            vec![1.1, 10.2],
            vec![0.9, 9.8],
            vec![1.05, 10.15],
        ];
        Gaussian::fit(&obs, 1e-6).unwrap()
    }

    #[test]
    fn clone_from_matches_clone_when_shrinking_or_growing() {
        let small = sample_gaussian();
        let large = Gaussian::from_moments(
            vec![1.0, 2.0, 3.0],
            Matrix::from_rows(&[
                vec![2.0, 0.3, 0.1],
                vec![0.3, 1.5, -0.2],
                vec![0.1, -0.2, 1.0],
            ])
            .unwrap(),
            40,
        )
        .unwrap();
        for (target, source) in [(&large, &small), (&small, &large), (&large, &large)] {
            let mut copy = target.clone();
            copy.clone_from(source);
            assert_eq!(copy, source.clone());
            assert_eq!(format!("{copy:?}"), format!("{:?}", source.clone()));
        }
    }

    #[test]
    fn euclidean_of_identical_vectors_is_zero() {
        assert_eq!(
            euclidean(&[1.0, 2.0], &[1.0, 2.0]).unwrap().to_bits(),
            0.0_f64.to_bits()
        );
    }

    #[test]
    fn euclidean_rejects_mismatched_lengths() {
        assert!(euclidean(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn pythagorean_triple() {
        assert_eq!(
            euclidean(&[0.0, 0.0], &[3.0, 4.0]).unwrap().to_bits(),
            5.0_f64.to_bits()
        );
    }

    #[test]
    fn mahalanobis_at_mean_is_zero() {
        let g = sample_gaussian();
        let mean = g.mean().to_vec();
        assert!(g.mahalanobis(&mean).unwrap() < 1e-9);
    }

    #[test]
    fn mahalanobis_reduces_to_euclidean_for_identity_covariance() {
        let g = Gaussian::from_moments(vec![0.0, 0.0], Matrix::identity(2), 10).unwrap();
        let d_m = g.mahalanobis(&[3.0, 4.0]).unwrap();
        let d_e = g.euclidean(&[3.0, 4.0]).unwrap();
        assert!((d_m - d_e).abs() < 1e-12);
        assert!((d_m - 5.0).abs() < 1e-12);
    }

    #[test]
    fn mahalanobis_downweights_high_variance_directions() {
        // Variance 100 along x, 1 along y: equal raw offsets should measure
        // much closer along x.
        let cov = Matrix::from_diagonal(&[100.0, 1.0]);
        let g = Gaussian::from_moments(vec![0.0, 0.0], cov, 10).unwrap();
        let along_x = g.mahalanobis(&[5.0, 0.0]).unwrap();
        let along_y = g.mahalanobis(&[0.0, 5.0]).unwrap();
        assert!(along_x < along_y);
        assert!((along_x - 0.5).abs() < 1e-12);
        assert!((along_y - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_dispatches_on_metric() {
        let g = sample_gaussian();
        let x = [2.0, 12.0];
        assert_eq!(
            g.distance(&x, DistanceMetric::Euclidean).unwrap().to_bits(),
            g.euclidean(&x).unwrap().to_bits()
        );
        assert_eq!(
            g.distance(&x, DistanceMetric::Mahalanobis)
                .unwrap()
                .to_bits(),
            g.mahalanobis(&x).unwrap().to_bits()
        );
    }

    #[test]
    fn mahalanobis_rejects_wrong_dimension() {
        let g = sample_gaussian();
        assert!(g.mahalanobis(&[1.0]).is_err());
    }

    #[test]
    fn from_moments_rejects_shape_mismatch() {
        let err = Gaussian::from_moments(vec![0.0; 3], Matrix::identity(2), 1).unwrap_err();
        assert!(matches!(err, SigStatError::DimensionMismatch { .. }));
    }

    #[test]
    fn inverse_covariance_matches_direct_inverse() {
        let g = sample_gaussian();
        let inv = g.inverse_covariance().unwrap();
        let prod = &inv * g.covariance();
        for i in 0..2 {
            for j in 0..2 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - want).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn metric_display_names() {
        assert_eq!(DistanceMetric::Euclidean.to_string(), "euclidean");
        assert_eq!(DistanceMetric::Mahalanobis.to_string(), "mahalanobis");
        assert_eq!(DistanceMetric::default(), DistanceMetric::Mahalanobis);
    }
}
