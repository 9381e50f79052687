//! Batched Mahalanobis scoring across many Gaussians at once.
//!
//! The per-cluster hot path computes `d_c(x) = ‖L_c⁻¹ (x − μ_c)‖` with one
//! triangular solve per cluster. A detector that scores every incoming
//! frame against many clusters instead precomputes the explicit inverse
//! factors `W_c = L_c⁻¹` once per model version, stacks them into one
//! `(K·d) × d` matrix `M`, and precomputes the offsets `v_c = W_c μ_c`.
//! Then
//!
//! ```text
//! r_c = W_c x − v_c      (row i of W_c has i + 1 non-zeros)
//! d_c² = ‖r_c‖²          (accumulated row by row)
//! ```
//!
//! [`BatchedMahalanobis::distances_into`] evaluates every row of `M`, one
//! matrix–vector product per frame. Algorithm 3 only needs the nearest
//! cluster, so [`BatchedMahalanobis::nearest_to`] scores the claimed
//! cluster in full and stops every other cluster as soon as its partial
//! sum of squares proves it cannot come out nearer: for a legitimate frame
//! that is a few rows per rival instead of `d`. Both return the same bits.
//! The factorization cost is paid once and reused across frames; an online
//! model update rewrites the blocks of the clusters it changed, in place
//! ([`BatchedMahalanobis::refresh`]).

use crate::matrix::dot;
use crate::{Gaussian, SampleBatch, SigStatError};
use std::cmp::Ordering;

/// Largest residual bound under which [`BatchedMahalanobis::nearest_to`]
/// takes its seeded path: far enough below `f64::MAX` that no dot product
/// or residual the row loop forms can overflow, rounding included.
const OVERFLOW_FREE: f64 = 1e300;

/// Precomputed stacked-inverse-factor state for scoring one observation
/// against `K` Gaussians.
///
/// Build it from the model's cluster Gaussians with
/// [`BatchedMahalanobis::from_gaussians`]; after a cluster's covariance
/// changes, [`BatchedMahalanobis::refresh`] that cluster (the factors are
/// snapshots).
///
/// # Example
///
/// ```
/// use vprofile_sigstat::{BatchedMahalanobis, Gaussian, Matrix};
///
/// # fn main() -> Result<(), vprofile_sigstat::SigStatError> {
/// let a = Gaussian::from_moments(vec![0.0, 0.0], Matrix::identity(2), 10)?;
/// let b = Gaussian::from_moments(vec![4.0, 0.0], Matrix::identity(2), 10)?;
/// let batched = BatchedMahalanobis::from_gaussians(&[&a, &b])?;
/// let d = batched.distances(&[1.0, 0.0])?;
/// assert!((d[0] - 1.0).abs() < 1e-12);
/// assert!((d[1] - 3.0).abs() < 1e-12);
/// // Claiming cluster 1 still finds cluster 0, with the same bits.
/// let (nearest, distance) = batched.nearest_to(&[1.0, 0.0], 1)?;
/// assert_eq!((nearest, distance.to_bits()), (0, d[0].to_bits()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq)]
pub struct BatchedMahalanobis {
    /// Stacked inverse factors, a row-major `(K·d) × d` matrix: rows
    /// `c·d .. (c+1)·d` hold `W_c = L_c⁻¹`.
    stacked: Vec<f64>,
    /// Stacked offsets `v_c = W_c μ_c`, matching `stacked`'s row layout.
    offsets: Vec<f64>,
    /// Per cluster, the sum of the magnitudes of `v_c` and of the entries
    /// of `W_c` the row loop reads (NaN or `+∞` if one is not finite).
    reach: Vec<f64>,
    /// `Σ reach`: every residual of `x` is at most
    /// `reach_total · (Σ|x_j| + 1)` in magnitude.
    reach_total: f64,
    dim: usize,
    clusters: usize,
}

crate::clone_in_place!(BatchedMahalanobis {
    stacked,
    offsets,
    reach,
    reach_total,
    dim,
    clusters
});

/// One step of the row loop: adds row `i`'s squared residual
/// `(W_c x − v_c)_i²` to `q`. Row `i` is one contiguous 4-wide [`dot`]
/// with `x`; `W_c = L_c⁻¹` is lower triangular, so the row carries only
/// `i + 1` non-zeros and the dot is truncated accordingly (half the flops
/// of the dense product). Residuals are consumed as they are produced, so
/// no intermediate `y` buffer is needed.
fn step(w: &[f64], vi: f64, x: &[f64], i: usize, q: f64) -> f64 {
    let start = i * x.len();
    let r = dot(&w[start..=start + i], &x[..=i]) - vi;
    r.mul_add(r, q)
}

/// Rows 0..4 of a cluster block `(w, v)` — the first four steps of the
/// row loop, on constant lengths the compiler unrolls (most rivals of a
/// legitimate frame are abandoned right after them) — and the next row
/// to run. A block of fewer than four rows starts the loop at row 0.
fn head(w: &[f64], v: &[f64], x: &[f64]) -> (f64, usize) {
    let (Some(&[v0, v1, v2, v3]), Some(x4)) = (v.first_chunk::<4>(), x.first_chunk::<4>()) else {
        return (0.0, 0);
    };
    let d = x.len();
    let mut q = 0.0;
    for r in [
        dot(&w[..1], &x4[..1]) - v0,
        dot(&w[d..d + 2], &x4[..2]) - v1,
        dot(&w[2 * d..2 * d + 3], &x4[..3]) - v2,
        dot(&w[3 * d..3 * d + 4], x4) - v3,
    ] {
        q = r.mul_add(r, q);
    }
    (q, 4)
}

/// `Σ|x_j|` in four lanes, NaN or `+∞` if a sample is.
fn abs_sum(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut chunks = x.chunks_exact(4);
    for chunk in chunks.by_ref() {
        for (a, v) in acc.iter_mut().zip(chunk) {
            *a += v.abs();
        }
    }
    let tail: f64 = chunks.remainder().iter().map(|v| v.abs()).sum();
    let [a0, a1, a2, a3] = acc;
    (a0 + a2) + (a1 + a3) + tail
}

impl BatchedMahalanobis {
    /// Builds the stacked kernel from per-cluster Gaussians.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::EmptyInput`] for an empty cluster list and
    /// [`SigStatError::DimensionMismatch`] if the Gaussians disagree on
    /// dimensionality.
    pub fn from_gaussians(gaussians: &[&Gaussian]) -> Result<Self, SigStatError> {
        let Some(first) = gaussians.first() else {
            return Err(SigStatError::EmptyInput {
                context: "BatchedMahalanobis::from_gaussians",
            });
        };
        let dim = first.dim();
        let clusters = gaussians.len();
        let mut batched = BatchedMahalanobis {
            stacked: vec![0.0; clusters * dim * dim],
            offsets: vec![0.0; clusters * dim],
            reach: vec![0.0; clusters],
            reach_total: 0.0,
            dim,
            clusters,
        };
        for (c, g) in gaussians.iter().enumerate() {
            batched.refresh(c, g)?;
        }
        Ok(batched)
    }

    /// Rewrites cluster `cluster`'s stacked factor `W_c` and offsets
    /// `v_c = W_c μ_c` from `gaussian`, in place and without allocating.
    /// This is the per-cluster kernel [`BatchedMahalanobis::from_gaussians`]
    /// runs, so refreshing the clusters an online update changed leaves the
    /// kernel bit-identical to one rebuilt from the updated Gaussians.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `gaussian` has another
    /// dimension or `cluster >= self.cluster_count()`.
    pub fn refresh(&mut self, cluster: usize, gaussian: &Gaussian) -> Result<(), SigStatError> {
        let d = self.dim;
        if gaussian.dim() != d {
            return Err(SigStatError::DimensionMismatch {
                expected: d,
                actual: gaussian.dim(),
                context: "BatchedMahalanobis::refresh",
            });
        }
        let (Some(w), Some(offsets), Some(reach)) = (
            self.stacked.get_mut(cluster * d * d..(cluster + 1) * d * d),
            self.offsets.get_mut(cluster * d..(cluster + 1) * d),
            self.reach.get_mut(cluster),
        ) else {
            return Err(SigStatError::DimensionMismatch {
                expected: self.clusters,
                actual: cluster + 1,
                context: "BatchedMahalanobis::refresh",
            });
        };
        gaussian.cholesky().inverse_factor_into(w)?;
        *reach = 0.0;
        for (i, (v, row)) in offsets.iter_mut().zip(w.chunks_exact(d)).enumerate() {
            *v = dot(row, gaussian.mean());
            *reach += abs_sum(&row[..=i]) + v.abs();
        }
        self.reach_total = self.reach.iter().sum();
        Ok(())
    }

    /// `true` when every stacked factor entry and offset of `cluster` is
    /// finite; `false` for a cluster out of range.
    pub fn is_finite(&self, cluster: usize) -> bool {
        cluster < self.clusters && {
            let (w, v) = self.block(cluster);
            w.iter().chain(v).all(|x| x.is_finite())
        }
    }

    /// Dimensionality of the scored observations.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stacked clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters
    }

    /// Mahalanobis distances from `x` to every cluster, appended to `out`
    /// (cleared first) — one matrix–vector product total.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `x.len() != self.dim()`.
    // xtask: hot-path
    pub fn distances_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<(), SigStatError> {
        self.check_dim(x, "BatchedMahalanobis::distances_into")?;
        out.clear();
        out.reserve(self.clusters);
        self.score_row(x, out);
        Ok(())
    }

    /// The nearest cluster to `x` and its distance, with the claimed
    /// cluster `claimed` scored first — bit for bit what
    /// [`BatchedMahalanobis::distances_into`] followed by a first strict
    /// minimum (`d < best`, from cluster 0) returns, for every input.
    ///
    /// The claimed cluster's distance is computed in full. Every other
    /// cluster, in index order, accumulates its squared distance row by
    /// row and is abandoned once the partial sum proves it farther than
    /// the best so far: each row adds `r²`, so the sum never decreases.
    /// A cluster that finishes replaces the best if it is nearer, or as
    /// near with a lower index. This is exact as long as no residual can
    /// overflow or be NaN, which a bound on `Σ|x_j|` against the stacked
    /// entries guarantees; an input outside that bound (any NaN or `±∞`
    /// sample, or magnitudes near `f64::MAX`) takes the full loop instead.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `x.len() != self.dim()`
    /// or `claimed >= self.cluster_count()`.
    // xtask: hot-path
    pub fn nearest_to(&self, x: &[f64], claimed: usize) -> Result<(usize, f64), SigStatError> {
        self.check_dim(x, "BatchedMahalanobis::nearest_to")?;
        if claimed >= self.clusters {
            return Err(SigStatError::DimensionMismatch {
                expected: self.clusters,
                actual: claimed + 1,
                context: "BatchedMahalanobis::nearest_to",
            });
        }
        let in_range = self.reach_total * (abs_sum(x) + 1.0) <= OVERFLOW_FREE;
        if !in_range {
            return Ok(self.nearest_full(x));
        }
        // Every residual is finite from here on, so every partial sum is
        // a finite or infinite non-negative number, never NaN.
        let mut best_q = self.squared(claimed, x);
        let mut best = (claimed, best_q.sqrt());
        'clusters: for c in (0..self.clusters).filter(|&c| c != claimed) {
            let (w, v) = self.block(c);
            let (mut q, from) = head(w, v, x);
            // The final sum is at least q, and sqrt is monotone.
            if q > best_q && q.sqrt() > best.1 {
                continue 'clusters;
            }
            for (i, &vi) in v.iter().enumerate().skip(from) {
                q = step(w, vi, x, i, q);
                if q > best_q && q.sqrt() > best.1 {
                    continue 'clusters;
                }
            }
            let distance = q.sqrt();
            if match distance.total_cmp(&best.1) {
                Ordering::Less => true,
                Ordering::Equal => c < best.0,
                Ordering::Greater => false,
            } {
                best = (c, distance);
                best_q = q;
            }
        }
        Ok(best)
    }

    /// The reference scan [`BatchedMahalanobis::nearest_to`] falls back
    /// to: every distance in full, first strict minimum.
    // xtask: cold
    fn nearest_full(&self, x: &[f64]) -> (usize, f64) {
        let mut best = (0, self.squared(0, x).sqrt());
        for c in 1..self.clusters {
            let distance = self.squared(c, x).sqrt();
            if distance < best.1 {
                best = (c, distance);
            }
        }
        best
    }

    fn check_dim(&self, x: &[f64], context: &'static str) -> Result<(), SigStatError> {
        if x.len() == self.dim {
            Ok(())
        } else {
            Err(SigStatError::DimensionMismatch {
                expected: self.dim,
                actual: x.len(),
                context,
            })
        }
    }

    /// Cluster `c`'s stacked factor rows and offsets.
    fn block(&self, c: usize) -> (&[f64], &[f64]) {
        let d = self.dim;
        (
            &self.stacked[c * d * d..(c + 1) * d * d],
            &self.offsets[c * d..(c + 1) * d],
        )
    }

    /// The row loop: `‖W_c x − v_c‖²` for cluster `c`.
    fn squared(&self, c: usize, x: &[f64]) -> f64 {
        let (w, v) = self.block(c);
        let (mut q, from) = head(w, v, x);
        for (i, &vi) in v.iter().enumerate().skip(from) {
            q = step(w, vi, x, i, q);
        }
        debug_assert!(
            q >= 0.0 || q.is_nan(),
            "squared distance is a sum of squares and cannot be negative"
        );
        q
    }

    /// Every cluster's distance, in index order, appended to `out`.
    fn score_row(&self, x: &[f64], out: &mut Vec<f64>) {
        for c in 0..self.clusters {
            out.push(self.squared(c, x).sqrt());
        }
    }

    /// Mahalanobis distances from `x` to every cluster.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn distances(&self, x: &[f64]) -> Result<Vec<f64>, SigStatError> {
        let mut out = Vec::new();
        self.distances_into(x, &mut out)?;
        Ok(out)
    }

    /// Distances for a whole flat batch of frames: row `b` of the returned
    /// [`SampleBatch`] holds the per-cluster distances for row `b` of `xs`.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `xs.dim() != self.dim()`.
    pub fn distances_batch(&self, xs: &SampleBatch) -> Result<SampleBatch, SigStatError> {
        let mut out = SampleBatch::with_capacity(self.clusters, xs.rows());
        self.distances_batch_into(xs, &mut out)?;
        Ok(out)
    }

    /// [`BatchedMahalanobis::distances_batch`] into a reusable output batch
    /// (cleared first), so batched scoring is allocation-free once both
    /// buffers are warm. The batch kernel streams each frame row through
    /// [`BatchedMahalanobis::score_row`]: the stacked factor matrix (tens
    /// of KiB) stays cache-resident while frame rows stream past it, which
    /// is the same access pattern a blocked `M · Xᵀ` product would produce
    /// without ever materializing `Xᵀ` or the `(K·d) × B` intermediate.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `xs.dim() != self.dim()`
    /// or `out.dim() != self.cluster_count()`.
    pub fn distances_batch_into(
        &self,
        xs: &SampleBatch,
        out: &mut SampleBatch,
    ) -> Result<(), SigStatError> {
        if xs.dim() != self.dim {
            return Err(SigStatError::DimensionMismatch {
                expected: self.dim,
                actual: xs.dim(),
                context: "BatchedMahalanobis::distances_batch",
            });
        }
        if out.dim() != self.clusters {
            return Err(SigStatError::DimensionMismatch {
                expected: self.clusters,
                actual: out.dim(),
                context: "BatchedMahalanobis::distances_batch",
            });
        }
        out.clear();
        let mut row = Vec::with_capacity(self.clusters);
        for x in xs.iter_rows() {
            row.clear();
            self.score_row(x, &mut row);
            out.push_row(&row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CovarianceEstimate, Matrix};

    fn gaussian(center: f64, spread: f64) -> Gaussian {
        let obs: Vec<Vec<f64>> = (0..12)
            .map(|k| {
                let t = k as f64;
                vec![
                    center + spread * (t * 0.7).sin(),
                    center * 0.5 + spread * (t * 1.3).cos(),
                    center - spread * (t * 0.4).sin(),
                ]
            })
            .collect();
        let est = CovarianceEstimate::fit(&obs, 1e-6).unwrap();
        Gaussian::from_estimate(est).unwrap()
    }

    #[test]
    fn clone_from_matches_clone_when_shrinking_or_growing() {
        let (a, b, c) = (gaussian(10.0, 1.0), gaussian(-4.0, 2.0), gaussian(3.0, 0.5));
        let two = BatchedMahalanobis::from_gaussians(&[&a, &b]).unwrap();
        let three = BatchedMahalanobis::from_gaussians(&[&a, &b, &c]).unwrap();
        let other = BatchedMahalanobis::from_gaussians(&[&c, &a]).unwrap();
        for (target, source) in [(&three, &two), (&two, &three), (&other, &two)] {
            let mut copy = target.clone();
            copy.clone_from(source);
            assert_eq!(copy, source.clone());
            assert_eq!(format!("{copy:?}"), format!("{:?}", source.clone()));
            let x = [9.5, 4.0, 11.0];
            let (got, want) = (copy.distances(&x).unwrap(), source.distances(&x).unwrap());
            assert!(got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits()));
        }
    }

    #[test]
    fn matches_per_cluster_solves() {
        let a = gaussian(10.0, 1.0);
        let b = gaussian(-4.0, 2.0);
        let batched = BatchedMahalanobis::from_gaussians(&[&a, &b]).unwrap();
        let x = [9.5, 4.0, 11.0];
        let d = batched.distances(&x).unwrap();
        assert!((d[0] - a.mahalanobis(&x).unwrap()).abs() < 1e-9);
        assert!((d[1] - b.mahalanobis(&x).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn batch_product_matches_single_frames() {
        let a = gaussian(3.0, 0.5);
        let b = gaussian(7.0, 1.5);
        let batched = BatchedMahalanobis::from_gaussians(&[&a, &b]).unwrap();
        let xs = SampleBatch::from_nested(&[
            vec![3.0, 1.5, 3.0],
            vec![7.0, 3.5, 7.0],
            vec![0.0, 0.0, 0.0],
        ])
        .unwrap();
        let many = batched.distances_batch(&xs).unwrap();
        assert_eq!(many.rows(), 3);
        assert_eq!(many.dim(), 2);
        for (x, row) in xs.iter_rows().zip(many.iter_rows()) {
            let single = batched.distances(x).unwrap();
            for (m, s) in row.iter().zip(&single) {
                assert!((m - s).abs() < 1e-12, "batch {m} vs single {s}");
            }
        }
    }

    #[test]
    fn batch_into_reuse_is_bit_identical() {
        let a = gaussian(3.0, 0.5);
        let b = gaussian(7.0, 1.5);
        let batched = BatchedMahalanobis::from_gaussians(&[&a, &b]).unwrap();
        let xs = SampleBatch::from_nested(&[vec![3.0, 1.5, 3.0], vec![7.0, 3.5, 7.0]]).unwrap();
        let fresh = batched.distances_batch(&xs).unwrap();
        let mut reused = SampleBatch::new(2);
        batched.distances_batch_into(&xs, &mut reused).unwrap();
        // Dirty and repeat: the reused buffer must produce the same bits.
        batched
            .distances_batch_into(
                &SampleBatch::from_nested(&[vec![0.0; 3]]).unwrap(),
                &mut reused,
            )
            .unwrap();
        batched.distances_batch_into(&xs, &mut reused).unwrap();
        for (f, r) in fresh.as_slice().iter().zip(reused.as_slice()) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn nested_round_trip_matches_flat_batch() {
        let a = gaussian(3.0, 0.5);
        let b = gaussian(7.0, 1.5);
        let batched = BatchedMahalanobis::from_gaussians(&[&a, &b]).unwrap();
        let nested = vec![vec![3.0, 1.5, 3.0], vec![7.0, 3.5, 7.0]];
        let flat = batched
            .distances_batch(&SampleBatch::from_nested(&nested).unwrap())
            .unwrap();
        // from_nested/to_nested round-trips the row layout the legacy
        // nested API exposed.
        let via_nested = flat.to_nested();
        for (row, want) in via_nested.iter().zip(flat.iter_rows()) {
            assert_eq!(row.as_slice(), want);
        }
    }

    #[test]
    fn rejects_dimension_mismatches() {
        let a = gaussian(1.0, 0.5);
        let batched = BatchedMahalanobis::from_gaussians(&[&a]).unwrap();
        assert!(batched.distances(&[1.0]).is_err());
        assert!(SampleBatch::from_nested(&[vec![1.0], vec![2.0, 3.0]]).is_err());
        let bad = SampleBatch::from_nested(&[vec![1.0]]).unwrap();
        assert!(batched.distances_batch(&bad).is_err());
        let mut wrong_out = SampleBatch::new(3);
        let ok_in = SampleBatch::new(batched.dim());
        assert!(batched
            .distances_batch_into(&ok_in, &mut wrong_out)
            .is_err());
        let short = Gaussian::from_moments(vec![0.0; 2], Matrix::identity(2), 3).unwrap();
        assert!(BatchedMahalanobis::from_gaussians(&[&a, &short]).is_err());
    }

    #[test]
    fn refresh_matches_a_rebuild_bit_for_bit() {
        let a = gaussian(3.0, 0.5);
        let b = gaussian(7.0, 1.5);
        let c = gaussian(-2.0, 0.8);
        let mut refreshed = BatchedMahalanobis::from_gaussians(&[&a, &b]).unwrap();
        refreshed.refresh(1, &c).unwrap();
        let rebuilt = BatchedMahalanobis::from_gaussians(&[&a, &c]).unwrap();
        // Debug renders every entry in shortest round-trip form, so equal
        // strings are equal bits for these finite values.
        assert_eq!(format!("{refreshed:?}"), format!("{rebuilt:?}"));
        assert!(refreshed.refresh(2, &c).is_err());
        let short = Gaussian::from_moments(vec![0.0; 2], Matrix::identity(2), 3).unwrap();
        assert!(refreshed.refresh(0, &short).is_err());
    }

    #[test]
    fn rejects_empty_cluster_list() {
        assert!(matches!(
            BatchedMahalanobis::from_gaussians(&[]).unwrap_err(),
            SigStatError::EmptyInput { .. }
        ));
    }

    #[test]
    fn empty_batch_is_fine() {
        let a = gaussian(1.0, 0.5);
        let batched = BatchedMahalanobis::from_gaussians(&[&a]).unwrap();
        let empty = SampleBatch::new(batched.dim());
        assert!(batched.distances_batch(&empty).unwrap().is_empty());
    }
}
