use crate::{Cholesky, Gaussian, Matrix, SampleBatch, SigStatError};
use serde::{Deserialize, Serialize};

/// Welford-style online estimator of a multivariate mean and covariance.
///
/// This is the numerical core of the thesis' online model-update algorithm
/// (§5.3, Equation 5.1 / Algorithm 4): when a new edge set `x` arrives for a
/// cluster, the mean and the covariance co-moment matrix are updated in
/// `O(d²)` without revisiting old observations:
///
/// ```text
/// μ_n     = μ_{n−1} + (x − μ_{n−1}) / n
/// M_ij,n  = M_ij,n−1 + (x_i − μ_i,n−1)(x_j − μ_j,n)
/// Σ_ij,n  = M_ij,n / (n − 1)
/// ```
///
/// Equation 5.1 in the thesis expresses the same co-moment recursion with the
/// normalization folded in; we keep the co-moment matrix un-normalized, which
/// is the numerically standard formulation, and normalize on read-out.
///
/// # Example
///
/// ```
/// use vprofile_sigstat::OnlineGaussian;
///
/// let mut online = OnlineGaussian::new(2);
/// for obs in [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]] {
///     online.push(&obs)?;
/// }
/// assert_eq!(online.count(), 3);
/// assert_eq!(online.mean(), &[2.0, 4.0]);
/// # Ok::<(), vprofile_sigstat::SigStatError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineGaussian {
    mean: Vec<f64>,
    /// Co-moment matrix `M = Σ_k (x_k − μ)(x_k − μ)ᵀ` maintained online.
    comoment: Matrix,
    count: usize,
}

impl OnlineGaussian {
    /// Creates an empty estimator for `dim`-dimensional observations.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be non-zero");
        OnlineGaussian {
            mean: vec![0.0; dim],
            comoment: Matrix::zeros(dim, dim),
            count: 0,
        }
    }

    /// An estimator with no dimension yet, for [`OnlineGaussian::reseed`]
    /// to size.
    fn empty() -> Self {
        OnlineGaussian {
            mean: Vec::new(),
            comoment: Matrix::empty(),
            count: 0,
        }
    }

    /// Seeds the estimator from existing batch moments, so a trained model
    /// can continue updating online (`N_n` in the thesis is carried in the
    /// model for exactly this purpose).
    ///
    /// `covariance` must be the *sample* (`n − 1` denominator) covariance.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] on shape disagreement and
    /// [`SigStatError::InsufficientObservations`] if `count < 2`.
    pub fn from_moments(
        mean: Vec<f64>,
        covariance: &Matrix,
        count: usize,
    ) -> Result<Self, SigStatError> {
        check_moments(&mean, covariance, count)?;
        Ok(OnlineGaussian {
            mean,
            comoment: covariance * (count as f64 - 1.0),
            count,
        })
    }

    /// [`OnlineGaussian::from_moments`] in place: overwrites the estimator
    /// with the given moments (co-moment `covariance · (count − 1)`),
    /// reusing its buffers, so reseeding at an unchanged dimension does
    /// not allocate. The estimator is unchanged on error.
    pub(crate) fn reseed(
        &mut self,
        mean: &[f64],
        covariance: &Matrix,
        count: usize,
    ) -> Result<(), SigStatError> {
        check_moments(mean, covariance, count)?;
        self.mean.clear();
        self.mean.extend_from_slice(mean);
        self.comoment.assign_scaled(covariance, count as f64 - 1.0);
        self.count = count;
        Ok(())
    }

    /// Observation dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Number of observations absorbed so far (the thesis' `N_n`).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Current mean estimate.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Absorbs one observation.
    ///
    /// The update is allocation-free: the mean moves first, and the rank-1
    /// co-moment update uses `δ_old = δ_new · n / (n − 1)` (exact in real
    /// arithmetic, since `μ_n` splits the step `n − 1 : 1`), so neither
    /// delta vector is materialized. The online-update path of the IDS
    /// engine calls this per accepted frame and stays off the allocator.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn push(&mut self, x: &[f64]) -> Result<(), SigStatError> {
        let dim = self.dim();
        if x.len() != dim {
            return Err(SigStatError::DimensionMismatch {
                expected: dim,
                actual: x.len(),
                context: "OnlineGaussian::push",
            });
        }
        self.count += 1;
        let n = self.count as f64;
        for (m, &v) in self.mean.iter_mut().zip(x) {
            *m += (v - *m) / n;
        }
        if self.count > 1 {
            // δ_old[i] · δ_new[j] with δ_old recovered from δ_new; the first
            // observation's contribution is exactly zero (δ_new = 0) and is
            // skipped rather than scaled by the singular n/(n−1) factor.
            let scale = n / (n - 1.0);
            let rows = self.comoment.as_mut_slice().chunks_exact_mut(dim);
            for ((row, &xi), &mi) in rows.zip(x).zip(&self.mean) {
                let di = (xi - mi) * scale;
                for ((c, &xj), &mj) in row.iter_mut().zip(x).zip(&self.mean) {
                    *c = di.mul_add(xj - mj, *c);
                }
            }
        }
        Ok(())
    }

    /// Absorbs every observation of a flat [`SampleBatch`] in order.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if
    /// `batch.dim() != self.dim()`; the estimator is unchanged on error.
    pub fn push_batch(&mut self, batch: &SampleBatch) -> Result<(), SigStatError> {
        if batch.dim() != self.dim() {
            return Err(SigStatError::DimensionMismatch {
                expected: self.dim(),
                actual: batch.dim(),
                context: "OnlineGaussian::push_batch",
            });
        }
        for row in batch.iter_rows() {
            self.push(row)?;
        }
        Ok(())
    }

    /// Sample covariance (`n − 1` denominator).
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::InsufficientObservations`] with fewer than two
    /// observations.
    pub fn sample_covariance(&self) -> Result<Matrix, SigStatError> {
        let mut covariance = Matrix::empty();
        self.sample_covariance_into(&mut covariance)?;
        Ok(covariance)
    }

    /// [`OnlineGaussian::sample_covariance`] into a reused matrix, which
    /// takes the estimator's shape; allocation-free once it has.
    pub(crate) fn sample_covariance_into(&self, out: &mut Matrix) -> Result<(), SigStatError> {
        if self.count < 2 {
            return Err(SigStatError::InsufficientObservations { actual: self.count });
        }
        out.assign_scaled(&self.comoment, 1.0 / (self.count as f64 - 1.0));
        Ok(())
    }

    /// Population covariance (`n` denominator), matching the normalization
    /// written in the thesis' Equation 5.1.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::EmptyInput`] with zero observations.
    pub fn population_covariance(&self) -> Result<Matrix, SigStatError> {
        if self.count == 0 {
            return Err(SigStatError::EmptyInput {
                context: "OnlineGaussian::population_covariance",
            });
        }
        Ok(&self.comoment * (1.0 / self.count as f64))
    }

    /// Merges another estimator into this one (parallel Welford / Chan's
    /// algorithm). Useful when captures from multiple trials are folded into
    /// one model, as in the temperature experiment of §4.4.1.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] on dimension disagreement.
    pub fn merge(&mut self, other: &OnlineGaussian) -> Result<(), SigStatError> {
        if other.dim() != self.dim() {
            return Err(SigStatError::DimensionMismatch {
                expected: self.dim(),
                actual: other.dim(),
                context: "OnlineGaussian::merge",
            });
        }
        if other.count == 0 {
            return Ok(());
        }
        if self.count == 0 {
            *self = other.clone();
            return Ok(());
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let delta: Vec<f64> = other
            .mean
            .iter()
            .zip(&self.mean)
            .map(|(b, a)| b - a)
            .collect();
        for i in 0..self.dim() {
            for j in 0..self.dim() {
                self.comoment[(i, j)] += other.comoment[(i, j)] + delta[i] * delta[j] * n1 * n2 / n;
            }
        }
        for (m, d) in self.mean.iter_mut().zip(&delta) {
            *m += d * n2 / n;
        }
        self.count += other.count;
        Ok(())
    }
}

/// Moments an estimator can be seeded from: a square covariance matching
/// the mean, and at least two observations behind them.
fn check_moments(mean: &[f64], covariance: &Matrix, count: usize) -> Result<(), SigStatError> {
    if covariance.rows() != mean.len() || covariance.cols() != mean.len() {
        return Err(SigStatError::DimensionMismatch {
            expected: mean.len(),
            actual: covariance.rows(),
            context: "OnlineGaussian::from_moments",
        });
    }
    if count < 2 {
        return Err(SigStatError::InsufficientObservations { actual: count });
    }
    Ok(())
}

/// The §5.3 refit of a [`Gaussian`] from new observations, in place and
/// allocation-free once its buffers have the Gaussian's dimension.
///
/// [`GaussianRefit::seed`] it from a fit, [`GaussianRefit::push`] the new
/// observations (that is [`OnlineGaussian::push`]), then
/// [`GaussianRefit::commit`] into the Gaussian. The arithmetic is that of
/// `OnlineGaussian::from_moments`, `push` per observation,
/// `sample_covariance` and `Gaussian::from_moments`, bit for bit; only the
/// buffers differ. The refit covariance and its factor are staged here and
/// swapped into the Gaussian only when the factorization succeeds, so a
/// refit that fails leaves the Gaussian untouched, and the Gaussian's
/// previous matrices become the next refit's staging.
#[derive(Debug)]
pub struct GaussianRefit {
    online: OnlineGaussian,
    covariance: Matrix,
    chol: Cholesky,
}

impl Default for GaussianRefit {
    fn default() -> Self {
        GaussianRefit {
            online: OnlineGaussian::empty(),
            covariance: Matrix::empty(),
            chol: Cholesky::empty(),
        }
    }
}

impl GaussianRefit {
    /// Starts a refit from a fit's mean, sample covariance and count, as
    /// [`OnlineGaussian::from_moments`] would.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] on shape disagreement and
    /// [`SigStatError::InsufficientObservations`] if `count < 2`.
    pub fn seed(
        &mut self,
        mean: &[f64],
        covariance: &Matrix,
        count: usize,
    ) -> Result<(), SigStatError> {
        self.online.reseed(mean, covariance, count)
    }

    /// Absorbs one observation ([`OnlineGaussian::push`]).
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `x` does not match the
    /// seeded dimension.
    pub fn push(&mut self, x: &[f64]) -> Result<(), SigStatError> {
        self.online.push(x)
    }

    /// Replaces `target`'s mean, covariance, factor and count with the
    /// refit ones.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::InsufficientObservations`] if the refit was
    /// never seeded and [`SigStatError::NotPositiveDefinite`] if the refit
    /// covariance does not factor; `target` is unchanged either way.
    pub fn commit(&mut self, target: &mut Gaussian) -> Result<(), SigStatError> {
        self.online.sample_covariance_into(&mut self.covariance)?;
        self.covariance.cholesky_into(&mut self.chol)?;
        target.install(
            &self.online.mean,
            self.online.count,
            &mut self.covariance,
            &mut self.chol,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sample_covariance, sample_mean};
    use proptest::prelude::*;

    #[test]
    fn empty_estimator_has_zero_count() {
        let est = OnlineGaussian::new(3);
        assert_eq!(est.count(), 0);
        assert!(est.sample_covariance().is_err());
        assert!(est.population_covariance().is_err());
    }

    #[test]
    fn push_rejects_wrong_dimension() {
        let mut est = OnlineGaussian::new(2);
        assert!(est.push(&[1.0]).is_err());
    }

    #[test]
    fn online_matches_batch_on_fixed_data() {
        let obs = vec![
            vec![1.0, -2.0, 0.5],
            vec![2.0, -1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![1.5, -0.5, 0.25],
            vec![-1.0, 1.0, 2.0],
        ];
        let mut online = OnlineGaussian::new(3);
        for o in &obs {
            online.push(o).unwrap();
        }
        let batch_mean = sample_mean(&obs).unwrap();
        let batch_cov = sample_covariance(&obs, &batch_mean).unwrap();
        for (a, b) in online.mean().iter().zip(&batch_mean) {
            assert!((a - b).abs() < 1e-12);
        }
        let online_cov = online.sample_covariance().unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((online_cov[(i, j)] - batch_cov[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn from_moments_then_push_matches_full_batch() {
        let head = vec![vec![1.0, 2.0], vec![3.0, 1.0], vec![2.0, 2.0]];
        let tail = vec![vec![0.0, 4.0], vec![1.5, 2.5]];
        let head_mean = sample_mean(&head).unwrap();
        let head_cov = sample_covariance(&head, &head_mean).unwrap();
        let mut online = OnlineGaussian::from_moments(head_mean, &head_cov, head.len()).unwrap();
        for o in &tail {
            online.push(o).unwrap();
        }
        let all: Vec<Vec<f64>> = head.iter().chain(&tail).cloned().collect();
        let want_mean = sample_mean(&all).unwrap();
        let want_cov = sample_covariance(&all, &want_mean).unwrap();
        for (a, b) in online.mean().iter().zip(&want_mean) {
            assert!((a - b).abs() < 1e-10);
        }
        let got = online.sample_covariance().unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((got[(i, j)] - want_cov[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn from_moments_validates_input() {
        assert!(OnlineGaussian::from_moments(vec![0.0; 2], &Matrix::identity(3), 5).is_err());
        assert!(OnlineGaussian::from_moments(vec![0.0; 2], &Matrix::identity(2), 1).is_err());
    }

    #[test]
    fn merge_matches_sequential_pushes() {
        let obs_a = vec![vec![1.0, 2.0], vec![2.0, 3.0], vec![3.0, 4.0]];
        let obs_b = vec![vec![-1.0, 0.0], vec![0.5, -2.0]];
        let mut left = OnlineGaussian::new(2);
        for o in &obs_a {
            left.push(o).unwrap();
        }
        let mut right = OnlineGaussian::new(2);
        for o in &obs_b {
            right.push(o).unwrap();
        }
        left.merge(&right).unwrap();

        let mut seq = OnlineGaussian::new(2);
        for o in obs_a.iter().chain(&obs_b) {
            seq.push(o).unwrap();
        }
        assert_eq!(left.count(), seq.count());
        for (a, b) in left.mean().iter().zip(seq.mean()) {
            assert!((a - b).abs() < 1e-10);
        }
        let ca = left.sample_covariance().unwrap();
        let cb = seq.sample_covariance().unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((ca[(i, j)] - cb[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn push_batch_matches_sequential_pushes() {
        let obs = vec![
            vec![1.0, -2.0],
            vec![2.0, -1.0],
            vec![0.5, 0.25],
            vec![-1.0, 3.0],
        ];
        let mut seq = OnlineGaussian::new(2);
        for o in &obs {
            seq.push(o).unwrap();
        }
        let mut batched = OnlineGaussian::new(2);
        batched
            .push_batch(&crate::SampleBatch::from_nested(&obs).unwrap())
            .unwrap();
        assert_eq!(seq, batched);

        let mut wrong = OnlineGaussian::new(3);
        assert!(wrong
            .push_batch(&crate::SampleBatch::from_nested(&obs).unwrap())
            .is_err());
        assert_eq!(wrong.count(), 0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut est = OnlineGaussian::new(2);
        est.push(&[1.0, 2.0]).unwrap();
        est.push(&[2.0, 1.0]).unwrap();
        let snapshot = est.clone();
        est.merge(&OnlineGaussian::new(2)).unwrap();
        assert_eq!(est, snapshot);

        let mut empty = OnlineGaussian::new(2);
        empty.merge(&snapshot).unwrap();
        assert_eq!(empty, snapshot);
    }

    proptest! {
        /// Online estimates must agree with batch estimates on arbitrary data.
        #[test]
        fn prop_online_equals_batch(
            obs in proptest::collection::vec(
                proptest::collection::vec(-100.0f64..100.0, 3), 2..30)
        ) {
            let mut online = OnlineGaussian::new(3);
            for o in &obs {
                online.push(o).unwrap();
            }
            let mean = sample_mean(&obs).unwrap();
            let cov = sample_covariance(&obs, &mean).unwrap();
            for (a, b) in online.mean().iter().zip(&mean) {
                prop_assert!((a - b).abs() < 1e-8);
            }
            let oc = online.sample_covariance().unwrap();
            for i in 0..3 {
                for j in 0..3 {
                    prop_assert!((oc[(i, j)] - cov[(i, j)]).abs() < 1e-6);
                }
            }
        }

        /// Merging any split of the data equals processing it sequentially.
        #[test]
        fn prop_merge_associative_with_split(
            obs in proptest::collection::vec(
                proptest::collection::vec(-50.0f64..50.0, 2), 4..20),
            split_frac in 0.1f64..0.9,
        ) {
            let split = ((obs.len() as f64) * split_frac) as usize;
            let split = split.clamp(1, obs.len() - 1);
            let mut a = OnlineGaussian::new(2);
            for o in &obs[..split] { a.push(o).unwrap(); }
            let mut b = OnlineGaussian::new(2);
            for o in &obs[split..] { b.push(o).unwrap(); }
            a.merge(&b).unwrap();

            let mut seq = OnlineGaussian::new(2);
            for o in &obs { seq.push(o).unwrap(); }

            for (x, y) in a.mean().iter().zip(seq.mean()) {
                prop_assert!((x - y).abs() < 1e-8);
            }
            let ca = a.sample_covariance().unwrap();
            let cs = seq.sample_covariance().unwrap();
            for i in 0..2 {
                for j in 0..2 {
                    prop_assert!((ca[(i, j)] - cs[(i, j)]).abs() < 1e-6);
                }
            }
        }
    }
}
