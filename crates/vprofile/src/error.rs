use crate::ClusterId;
use std::fmt;
use vprofile_analog::AnalogError;
use vprofile_can::SourceAddress;
use vprofile_sigstat::SigStatError;

/// A model invariant that a set of cluster statistics breaks: why
/// training, loading or deserializing refuses to build a [`crate::Model`]
/// from them. Each variant names the offending cluster or field.
#[derive(Debug, Clone, PartialEq)]
pub enum InvalidModel {
    /// A stored mean, covariance, threshold or extraction threshold entry
    /// is NaN or infinite.
    NonFinite {
        /// The offending cluster.
        cluster: ClusterId,
        /// Which statistic.
        field: &'static str,
    },
    /// A max-distance threshold (`clustMaxDists`) is negative.
    NegativeThreshold {
        /// The offending cluster.
        cluster: ClusterId,
        /// The stored threshold.
        threshold: f64,
    },
    /// A mean or covariance disagrees with the model's edge-set dimension
    /// (that of the first cluster's mean).
    MixedDimensions {
        /// The offending cluster.
        cluster: ClusterId,
        /// Which statistic.
        field: &'static str,
        /// The model's edge-set dimension.
        expected: usize,
        /// The statistic's dimension (for a covariance, its row count, or
        /// its entry count when that disagrees with its shape).
        actual: usize,
    },
    /// A Mahalanobis model has a cluster without a covariance.
    MissingCovariance {
        /// The offending cluster.
        cluster: ClusterId,
    },
    /// A covariance is not symmetric to within the tolerance the Cholesky
    /// factorization assumes, so its factor would describe another matrix.
    AsymmetricCovariance {
        /// The offending cluster.
        cluster: ClusterId,
    },
    /// A covariance does not factor
    /// ([`SigStatError::NotPositiveDefinite`]).
    Unfactorable {
        /// The offending cluster.
        cluster: ClusterId,
        /// The factorization failure.
        source: SigStatError,
    },
    /// The stacked scoring rows derived from a cluster's factor (its
    /// inverse, and the inverse times the mean) are not finite.
    NonFiniteRows {
        /// The offending cluster.
        cluster: ClusterId,
    },
    /// Two clusters list the same source address.
    DuplicateSa {
        /// The source address.
        sa: SourceAddress,
        /// The first cluster listing it.
        first: ClusterId,
        /// The second cluster listing it.
        second: ClusterId,
    },
    /// A configuration value is out of range: a non-finite float,
    /// `bit_width_samples <= 0`, a negative `margin` or `max_ridge`, or
    /// `edge_sets_per_message == 0`.
    Config {
        /// The offending field.
        field: &'static str,
    },
}

impl fmt::Display for InvalidModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidModel::NonFinite { cluster, field } => {
                write!(f, "{cluster}: {field} is not finite")
            }
            InvalidModel::NegativeThreshold { cluster, threshold } => {
                write!(f, "{cluster}: negative max-distance threshold {threshold}")
            }
            InvalidModel::MixedDimensions {
                cluster,
                field,
                expected,
                actual,
            } => write!(
                f,
                "{cluster}: {field} dimension {actual} conflicts with the model's {expected}"
            ),
            InvalidModel::MissingCovariance { cluster } => {
                write!(f, "{cluster}: mahalanobis model without a covariance")
            }
            InvalidModel::AsymmetricCovariance { cluster } => {
                write!(f, "{cluster}: covariance is not symmetric")
            }
            InvalidModel::Unfactorable { cluster, source } => {
                write!(f, "{cluster}: covariance does not factor: {source}")
            }
            InvalidModel::NonFiniteRows { cluster } => {
                write!(f, "{cluster}: scoring rows are not finite")
            }
            InvalidModel::DuplicateSa { sa, first, second } => {
                write!(f, "source address 0x{sa} is listed by {first} and {second}")
            }
            InvalidModel::Config { field } => write!(f, "config: {field} out of range"),
        }
    }
}

/// Errors produced by the vProfile pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum VProfileError {
    /// The trace never crossed the bit threshold, so no start-of-frame could
    /// be located.
    SofNotFound,
    /// The trace ended before the extractor reached the edge set (or the
    /// requested number of edge sets).
    TraceTooShort {
        /// Sample index at which the extractor ran out of data.
        at_sample: usize,
    },
    /// Training requires at least this many edge sets per cluster to
    /// estimate a covariance matrix.
    NotEnoughTrainingData {
        /// The offending cluster's source addresses, rendered for context.
        cluster: String,
        /// Number of edge sets available.
        have: usize,
        /// Minimum required.
        need: usize,
    },
    /// Edge sets of different dimensionality were mixed (e.g. traces captured
    /// at different sampling rates).
    MixedDimensions {
        /// Dimension of the first edge set seen.
        expected: usize,
        /// The conflicting dimension.
        actual: usize,
    },
    /// The model was asked for a Mahalanobis distance but holds no
    /// covariance (it was trained with the Euclidean metric).
    CovarianceUnavailable,
    /// A numeric failure, most importantly
    /// [`SigStatError::NotPositiveDefinite`] for singular covariance
    /// matrices (the thesis' low-resolution failure mode, §4.3).
    Numeric(SigStatError),
    /// The model contains no clusters.
    EmptyModel,
    /// The cluster statistics or configuration break a model invariant.
    InvalidModel(InvalidModel),
    /// A pipeline step needed data that the preceding steps did not produce
    /// — e.g. an experiment sweep yielded no traffic for a required
    /// condition.
    DataUnavailable {
        /// What was missing.
        context: &'static str,
    },
    /// A capture-layer failure (degenerate downsample/requantize arguments).
    Analog(AnalogError),
}

impl fmt::Display for VProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VProfileError::SofNotFound => f.write_str("no start-of-frame found in trace"),
            VProfileError::TraceTooShort { at_sample } => {
                write!(
                    f,
                    "trace ended at sample {at_sample} before extraction finished"
                )
            }
            VProfileError::NotEnoughTrainingData {
                cluster,
                have,
                need,
            } => write!(
                f,
                "cluster {cluster} has {have} edge sets; {need} required for training"
            ),
            VProfileError::MixedDimensions { expected, actual } => write!(
                f,
                "edge set dimension {actual} conflicts with expected {expected}"
            ),
            VProfileError::CovarianceUnavailable => {
                f.write_str("model holds no covariance; train with the mahalanobis metric")
            }
            VProfileError::Numeric(err) => write!(f, "numeric failure: {err}"),
            VProfileError::EmptyModel => f.write_str("model contains no clusters"),
            VProfileError::InvalidModel(err) => write!(f, "invalid model: {err}"),
            VProfileError::DataUnavailable { context } => {
                write!(f, "required data unavailable: {context}")
            }
            VProfileError::Analog(err) => write!(f, "capture-layer failure: {err}"),
        }
    }
}

impl std::error::Error for VProfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VProfileError::Numeric(err) => Some(err),
            VProfileError::Analog(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SigStatError> for VProfileError {
    fn from(err: SigStatError) -> Self {
        VProfileError::Numeric(err)
    }
}

impl From<InvalidModel> for VProfileError {
    fn from(err: InvalidModel) -> Self {
        VProfileError::InvalidModel(err)
    }
}

impl From<AnalogError> for VProfileError {
    fn from(err: AnalogError) -> Self {
        VProfileError::Analog(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<VProfileError> = vec![
            VProfileError::SofNotFound,
            VProfileError::TraceTooShort { at_sample: 10 },
            VProfileError::NotEnoughTrainingData {
                cluster: "sa 0x17".into(),
                have: 1,
                need: 2,
            },
            VProfileError::MixedDimensions {
                expected: 32,
                actual: 16,
            },
            VProfileError::CovarianceUnavailable,
            VProfileError::Numeric(SigStatError::EmptyInput { context: "mean" }),
            VProfileError::EmptyModel,
            VProfileError::InvalidModel(InvalidModel::MissingCovariance {
                cluster: ClusterId(1),
            }),
            VProfileError::DataUnavailable {
                context: "baseline capture",
            },
            VProfileError::Analog(AnalogError::ZeroDecimationFactor),
        ];
        for err in cases {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn numeric_error_exposes_source() {
        use std::error::Error;
        let err = VProfileError::from(SigStatError::InsufficientObservations { actual: 1 });
        assert!(err.source().is_some());
    }
}
