//! Numeric substrate for the vProfile reproduction.
//!
//! The vProfile detection algorithm (see the `vprofile` crate) is built on a
//! small amount of dense linear algebra and statistics: sample means and
//! covariance matrices of edge sets, Cholesky factorization for Mahalanobis
//! distances, Welford-style online updates for the Chapter 5 model-update
//! algorithm, and the resampling helpers used by the sampling-rate /
//! resolution sweeps of Tables 4.6 and 4.7.
//!
//! Everything here is written from scratch so that the reproduction has no
//! dependency on an external linear-algebra stack; the matrices involved are
//! tiny (edge sets are a few dozen samples long), so simple `O(n^3)` dense
//! algorithms are more than fast enough and easy to audit.
//!
//! # Example
//!
//! ```
//! use vprofile_sigstat::{Gaussian, Matrix};
//!
//! # fn main() -> Result<(), vprofile_sigstat::SigStatError> {
//! // Fit a 2-D Gaussian to a handful of observations and measure how far a
//! // new point is from the distribution.
//! let observations = vec![
//!     vec![1.0, 10.0],
//!     vec![1.1, 10.3],
//!     vec![0.9, 9.9],
//!     vec![1.05, 10.1],
//!     vec![0.95, 9.7],
//! ];
//! let gaussian = Gaussian::fit(&observations, 1e-9)?;
//! let d_near = gaussian.mahalanobis(&[1.0, 10.0])?;
//! let d_far = gaussian.mahalanobis(&[3.0, 4.0])?;
//! assert!(d_far > d_near);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batched;
mod covariance;
mod distance;
mod error;
mod matrix;
mod resample;
mod samples;
mod stats;
mod welford;

pub use batched::BatchedMahalanobis;
pub use covariance::{
    sample_covariance, sample_covariance_batch, sample_mean, sample_mean_batch, CovarianceEstimate,
};
pub use distance::{euclidean, squared_euclidean, DistanceMetric, Gaussian};
pub use error::SigStatError;
pub use matrix::{Cholesky, Matrix};
pub use resample::{decimate, decimate_average, requantize, resample_to_rate};
pub use samples::SampleBatch;
pub use stats::{
    confidence_interval, max_f64, mean, min_f64, percent_delta, population_variance, std_dev,
    variance, ConfidenceInterval, Summary,
};
pub use welford::{GaussianRefit, OnlineGaussian};

/// Exact `±0.0` test via the bit pattern: NaN-safe and free of float `==`
/// (which the workspace lint gates forbid). Used for sparsity skips and
/// division guards where *exact* zero is the intended predicate — the
/// epsilon-tolerance alternative would be wrong there.
#[inline]
#[must_use]
pub fn exactly_zero(v: f64) -> bool {
    v.to_bits() << 1 == 0
}

/// Copies `source` into `target` only when the two differ: the in-place
/// copy of a value that has no buffer-reusing `clone_from` (a `BTreeMap`)
/// and rarely changes, such as an SA lookup table, which changes only when
/// a model is trained or installed.
pub fn clone_if_changed<T: Clone + PartialEq>(target: &mut T, source: &T) {
    if target != source {
        // xtask: allow(hot-path-alloc): a BTreeMap cannot be copied in place; the SA tables copied here change only when a model is trained or installed
        *target = source.clone();
    }
}

/// Implements `Clone` for a struct, field by field, with a `clone_from`
/// that copies into the destination's own buffers.
///
/// A derived `Clone` implements `clone_from` as `*self = source.clone()`,
/// which allocates every buffer anew. Here `clone` names every field in a
/// struct literal, and `clone_from` destructures `self` without `..` and
/// hands each field to that field's own `clone_from`. A copy into a value
/// of the same shape then allocates nothing, and a field added to the
/// struct but not to the list fails to compile instead of being left out
/// of every copy. Fields listed after `if_changed` are copied with
/// [`clone_if_changed`] instead. A struct with one type parameter is
/// written `Name<T> { .. }`; its `Clone` then requires `T: Clone`.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Window {
///     samples: Vec<f64>,
///     start: u64,
/// }
/// vprofile_sigstat::clone_in_place!(Window { samples, start });
///
/// let source = Window { samples: vec![1.0, 2.0], start: 7 };
/// let mut copy = Window { samples: Vec::with_capacity(4), start: 0 };
/// let buffer = copy.samples.as_ptr();
/// copy.clone_from(&source);
/// assert_eq!(copy, source);
/// assert_eq!(copy.samples.as_ptr(), buffer);
/// ```
#[macro_export]
macro_rules! clone_in_place {
    ($ty:ident $(<$param:ident>)? { $($field:ident),+ $(,)? } $(if_changed { $($table:ident),+ $(,)? })?) => {
        impl $(<$param: ::core::clone::Clone>)? ::core::clone::Clone for $ty $(<$param>)? {
            fn clone(&self) -> Self {
                $ty {
                    $($field: ::core::clone::Clone::clone(&self.$field),)+
                    $($($table: ::core::clone::Clone::clone(&self.$table),)+)?
                }
            }

            fn clone_from(&mut self, source: &Self) {
                let $ty { $($field,)+ $($($table,)+)? } = self;
                $(::core::clone::Clone::clone_from($field, &source.$field);)+
                $($($crate::clone_if_changed($table, &source.$table);)+)?
            }
        }
    };
}
