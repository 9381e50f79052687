use crate::InvalidModel;
use serde::{Deserialize, Serialize};
use vprofile_analog::AdcConfig;
use vprofile_sigstat::DistanceMetric;

/// Baseline prefix length (samples before the threshold crossing) the thesis
/// found sufficient at 10 MS/s on a 250 kb/s bus (§3.2.1).
const BASE_PREFIX: f64 = 2.0;
/// Baseline suffix length at the same reference rate.
const BASE_SUFFIX: f64 = 14.0;
/// The reference sampling rate those baselines were tuned at.
const BASE_RATE_HZ: f64 = 10e6;

/// Configuration for the vProfile pipeline: extraction geometry, detection
/// metric and margin, and training regularization.
///
/// The constants mirror thesis §3.2.1: bit width in samples, a bit threshold
/// that "approximately horizontally bisects the rising edge", and
/// prefix/suffix lengths that "minimize redundant steady-state data while
/// capturing all of the rising and falling edges".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VProfileConfig {
    /// Samples per bus bit (40 for 10 MS/s on 250 kb/s).
    pub bit_width_samples: f64,
    /// ADC-code threshold separating dominant from recessive.
    pub bit_threshold: f64,
    /// Samples extracted before each threshold crossing.
    pub prefix_len: usize,
    /// Samples extracted after each threshold crossing.
    pub suffix_len: usize,
    /// Distance metric for clustering, training thresholds, and detection.
    pub metric: DistanceMetric,
    /// Detection margin added to each cluster's max-distance threshold
    /// (§3.2.3: "some configurable margin added to account for additional
    /// deviation").
    pub margin: f64,
    /// Maximum relative ridge regularization allowed when a cluster
    /// covariance is singular. `0.0` reproduces the thesis' strict failure
    /// on ≤10-bit data; small positive values repair it (an ablation this
    /// reproduction adds).
    pub max_ridge: f64,
    /// Number of edge sets extracted per message and averaged (§5.2;
    /// 1 = the base algorithm).
    pub edge_sets_per_message: usize,
    /// Sample spacing between successive edge-set extraction start points
    /// when `edge_sets_per_message > 1` (§5.2 uses 250).
    pub edge_set_spacing: usize,
    /// Optional distance-linkage threshold for SA clustering without a
    /// database; `None` selects it automatically from the largest gap in
    /// pairwise distances.
    pub linkage_threshold: Option<f64>,
}

impl VProfileConfig {
    /// Builds a configuration for a given converter and bus bit rate,
    /// scaling the thesis' 10 MS/s extraction geometry to the actual
    /// sampling rate and placing the bit threshold at mid-scale.
    ///
    /// # Panics
    ///
    /// Panics if `bit_rate_bps` is zero.
    pub fn for_adc(adc: &AdcConfig, bit_rate_bps: u32) -> Self {
        assert!(bit_rate_bps > 0, "bit rate must be non-zero");
        let scale = adc.sample_rate_hz / BASE_RATE_HZ;
        VProfileConfig {
            bit_width_samples: adc.samples_per_bit(bit_rate_bps),
            bit_threshold: adc.full_scale_code() as f64 / 2.0,
            prefix_len: ((BASE_PREFIX * scale).round() as usize).max(1),
            suffix_len: ((BASE_SUFFIX * scale).round() as usize).max(3),
            metric: DistanceMetric::Mahalanobis,
            margin: 0.0,
            max_ridge: 0.0,
            edge_sets_per_message: 1,
            edge_set_spacing: 250,
            linkage_threshold: None,
        }
    }

    /// Sets the distance metric.
    pub fn with_metric(mut self, metric: DistanceMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the detection margin.
    pub fn with_margin(mut self, margin: f64) -> Self {
        self.margin = margin;
        self
    }

    /// Sets the number of edge sets averaged per message (§5.2).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_edge_sets_per_message(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one edge set per message");
        self.edge_sets_per_message = n;
        self
    }

    /// Sets the covariance ridge budget.
    pub fn with_max_ridge(mut self, max_ridge: f64) -> Self {
        self.max_ridge = max_ridge;
        self
    }

    /// Checks the ranges a model's configuration must hold: finite
    /// floats, `bit_width_samples > 0`, non-negative `margin` and
    /// `max_ridge`, and at least one edge set per message.
    ///
    /// # Errors
    ///
    /// [`InvalidModel::Config`] naming the first field out of range.
    pub(crate) fn check(&self) -> Result<(), InvalidModel> {
        let checks = [
            (
                "bit_width_samples",
                self.bit_width_samples.is_finite() && self.bit_width_samples > 0.0,
            ),
            ("bit_threshold", self.bit_threshold.is_finite()),
            ("margin", self.margin.is_finite() && self.margin >= 0.0),
            (
                "max_ridge",
                self.max_ridge.is_finite() && self.max_ridge >= 0.0,
            ),
            (
                "linkage_threshold",
                self.linkage_threshold.is_none_or(f64::is_finite),
            ),
            ("edge_sets_per_message", self.edge_sets_per_message > 0),
        ];
        match checks.iter().find(|(_, ok)| !ok) {
            Some(&(field, _)) => Err(InvalidModel::Config { field }),
            None => Ok(()),
        }
    }

    /// Number of samples in one edge set: prefix+suffix for the rising edge
    /// plus the same for the falling edge.
    pub fn edge_set_dim(&self) -> usize {
        2 * (self.prefix_len + self.suffix_len)
    }

    /// Minimum training edge sets per cluster: enough observations for a
    /// full-rank covariance estimate (dimension + 2) when using
    /// Mahalanobis, or 2 for Euclidean.
    pub fn min_cluster_observations(&self) -> usize {
        match self.metric {
            DistanceMetric::Mahalanobis => self.edge_set_dim() + 2,
            DistanceMetric::Euclidean => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vehicle_b_geometry_matches_thesis() {
        // 10 MS/s on 250 kb/s: 40 samples/bit, prefix 2, suffix 14.
        let config = VProfileConfig::for_adc(&AdcConfig::vehicle_b(), 250_000);
        assert_eq!(config.bit_width_samples.to_bits(), 40.0_f64.to_bits());
        assert_eq!(config.prefix_len, 2);
        assert_eq!(config.suffix_len, 14);
        assert_eq!(config.edge_set_dim(), 32);
        assert_eq!(config.metric, DistanceMetric::Mahalanobis);
    }

    #[test]
    fn vehicle_a_geometry_scales_with_rate() {
        let config = VProfileConfig::for_adc(&AdcConfig::vehicle_a(), 250_000);
        assert_eq!(config.bit_width_samples.to_bits(), 80.0_f64.to_bits());
        assert_eq!(config.prefix_len, 4);
        assert_eq!(config.suffix_len, 28);
        assert_eq!(config.edge_set_dim(), 64);
    }

    #[test]
    fn low_rate_geometry_stays_usable() {
        let adc = AdcConfig {
            sample_rate_hz: 2.5e6,
            ..AdcConfig::vehicle_b()
        };
        let config = VProfileConfig::for_adc(&adc, 250_000);
        assert_eq!(config.bit_width_samples.to_bits(), 10.0_f64.to_bits());
        assert!(config.prefix_len >= 1);
        assert!(config.suffix_len >= 3);
        assert!(config.edge_set_dim() >= 8);
    }

    #[test]
    fn threshold_bisects_full_scale() {
        let adc = AdcConfig::vehicle_b();
        let config = VProfileConfig::for_adc(&adc, 250_000);
        assert_eq!(config.bit_threshold.to_bits(), (4095.0_f64 / 2.0).to_bits());
    }

    #[test]
    fn builder_methods_chain() {
        let config = VProfileConfig::for_adc(&AdcConfig::vehicle_b(), 250_000)
            .with_metric(DistanceMetric::Euclidean)
            .with_margin(25.0)
            .with_edge_sets_per_message(3)
            .with_max_ridge(1e-6);
        assert_eq!(config.metric, DistanceMetric::Euclidean);
        assert_eq!(config.margin.to_bits(), 25.0_f64.to_bits());
        assert_eq!(config.edge_sets_per_message, 3);
        assert_eq!(config.max_ridge.to_bits(), 1e-6_f64.to_bits());
        assert_eq!(config.min_cluster_observations(), 2);
    }

    #[test]
    fn mahalanobis_needs_more_observations_than_dim() {
        let config = VProfileConfig::for_adc(&AdcConfig::vehicle_b(), 250_000);
        assert_eq!(config.min_cluster_observations(), 34);
    }
}
