//! Model training — Algorithm 2 of the thesis, with the covariance
//! extension of §4.2.2 ("Updates to vProfile").

use crate::cluster::{cluster_by_distance, cluster_by_lut, group_by_sa, ClusterData};
use crate::model::{StoredCluster, StoredGaussian, StoredModel};
use crate::{ClusterId, LabeledEdgeSet, Model, VProfileConfig, VProfileError};
use std::collections::BTreeMap;
use vprofile_can::SourceAddress;
use vprofile_sigstat::{euclidean, CovarianceEstimate, DistanceMetric, Gaussian, SigStatError};

/// Trains vProfile models from labeled edge sets.
///
/// Two entry points mirror Algorithm 2's `fortunate` branch:
/// [`Trainer::train_with_lut`] when an SA → ECU database exists, and
/// [`Trainer::train`] which clusters SAs by waveform distance.
#[derive(Debug, Clone, PartialEq)]
pub struct Trainer {
    config: VProfileConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: VProfileConfig) -> Self {
        Trainer { config }
    }

    /// The training configuration.
    pub fn config(&self) -> &VProfileConfig {
        &self.config
    }

    /// Trains a model, clustering SAs by waveform distance (the
    /// no-database branch of Algorithm 2).
    ///
    /// # Errors
    ///
    /// See [`Trainer::train_with_lut`].
    pub fn train(&self, data: &[LabeledEdgeSet]) -> Result<Model, VProfileError> {
        check_uniform_dimensions(data)?;
        let groups = group_by_sa(data);
        let clusters = cluster_by_distance(groups, self.config.linkage_threshold)?;
        self.build_model(clusters)
    }

    /// Trains a model with a known SA → cluster database (the `fortunate`
    /// branch of Algorithm 2).
    ///
    /// # Errors
    ///
    /// * [`VProfileError::EmptyModel`] when `data` is empty;
    /// * [`VProfileError::NotEnoughTrainingData`] when a cluster has fewer
    ///   edge sets than the covariance estimate needs;
    /// * [`VProfileError::MixedDimensions`] when edge-set lengths disagree;
    /// * [`VProfileError::Numeric`] with
    ///   [`vprofile_sigstat::SigStatError::NotPositiveDefinite`] when a
    ///   cluster covariance is singular and the ridge budget
    ///   ([`VProfileConfig::max_ridge`]) cannot repair it — the thesis'
    ///   low-resolution failure mode (§4.3).
    pub fn train_with_lut(
        &self,
        data: &[LabeledEdgeSet],
        lut: &BTreeMap<SourceAddress, ClusterId>,
    ) -> Result<Model, VProfileError> {
        check_uniform_dimensions(data)?;
        let groups = group_by_sa(data);
        let clusters = cluster_by_lut(groups, lut);
        self.build_model(clusters)
    }

    /// Fits per-cluster statistics and builds the model from them, as a
    /// load does: means, covariance matrices (Mahalanobis only), and the
    /// per-cluster max-distance thresholds of Algorithm 2.
    fn build_model(&self, clusters: Vec<ClusterData>) -> Result<Model, VProfileError> {
        if clusters.is_empty() {
            return Err(VProfileError::EmptyModel);
        }
        let need = self.config.min_cluster_observations();
        let mut stored = Vec::with_capacity(clusters.len());
        for cluster in clusters {
            if cluster.edge_sets.len() < need {
                return Err(VProfileError::NotEnoughTrainingData {
                    cluster: describe_sas(&cluster.sas),
                    have: cluster.edge_sets.len(),
                    need,
                });
            }
            let dim = cluster.edge_sets[0].dim();
            for set in &cluster.edge_sets {
                if set.dim() != dim {
                    return Err(VProfileError::MixedDimensions {
                        expected: dim,
                        actual: set.dim(),
                    });
                }
            }
            let observations: Vec<Vec<f64>> = cluster
                .edge_sets
                .iter()
                .map(|s| s.samples().to_vec())
                .collect();
            let estimate = CovarianceEstimate::fit(&observations, self.config.max_ridge)?;
            let count = estimate.count;
            // clustMaxDists: the largest training distance to the fit, through
            // the per-cluster kernel.
            let (mean, gaussian, max_distance) = match self.config.metric {
                DistanceMetric::Euclidean => {
                    let max_distance =
                        largest_distance(&observations, |obs| euclidean(obs, &estimate.mean))?;
                    (estimate.mean, None, max_distance)
                }
                DistanceMetric::Mahalanobis => {
                    let gaussian = Gaussian::from_estimate(estimate)?;
                    let max_distance =
                        largest_distance(&observations, |obs| gaussian.mahalanobis(obs))?;
                    let covariance = gaussian.covariance().clone();
                    let stored = Some(StoredGaussian { covariance });
                    (gaussian.mean().to_vec(), stored, max_distance)
                }
            };
            stored.push(StoredCluster {
                sas: cluster.sas,
                mean,
                gaussian,
                max_distance,
                count,
                extraction_threshold: None,
            });
        }
        Model::from_stored(StoredModel {
            clusters: stored,
            config: self.config.clone(),
        })
    }
}

/// The largest of `distance` over the observations (zero for none).
fn largest_distance(
    observations: &[Vec<f64>],
    distance: impl Fn(&[f64]) -> Result<f64, SigStatError>,
) -> Result<f64, SigStatError> {
    let mut max = 0.0f64;
    for obs in observations {
        max = max.max(distance(obs)?);
    }
    Ok(max)
}

/// All training edge sets must share one dimensionality before clustering
/// can compare them.
fn check_uniform_dimensions(data: &[LabeledEdgeSet]) -> Result<(), VProfileError> {
    let Some(first) = data.first() else {
        return Ok(());
    };
    let dim = first.edge_set.dim();
    for item in data {
        if item.edge_set.dim() != dim {
            return Err(VProfileError::MixedDimensions {
                expected: dim,
                actual: item.edge_set.dim(),
            });
        }
    }
    Ok(())
}

fn describe_sas(sas: &[SourceAddress]) -> String {
    let parts: Vec<String> = sas.iter().map(|sa| format!("0x{sa}")).collect();
    format!("[{}]", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic edge sets: cluster k lives around `center + k*spread` with
    /// per-sample noise.
    fn synthetic_data(
        rng: &mut StdRng,
        sas_per_cluster: &[Vec<u8>],
        per_sa: usize,
        spread: f64,
        dim: usize,
    ) -> Vec<LabeledEdgeSet> {
        let mut data = Vec::new();
        for (k, sas) in sas_per_cluster.iter().enumerate() {
            let center = 1000.0 + k as f64 * spread;
            for &sa in sas {
                for _ in 0..per_sa {
                    let samples: Vec<f64> = (0..dim)
                        .map(|i| center + i as f64 * 3.0 + rng.random_range(-1.0..1.0))
                        .collect();
                    data.push(LabeledEdgeSet::new(
                        SourceAddress(sa),
                        EdgeSet::new(samples),
                    ));
                }
            }
        }
        data
    }

    fn config(dim_hint: usize) -> VProfileConfig {
        let mut c = VProfileConfig::for_adc(&vprofile_analog::AdcConfig::vehicle_b(), 250_000);
        // Tests use small synthetic dimensions.
        c.prefix_len = dim_hint / 4;
        c.suffix_len = dim_hint / 4;
        c
    }

    #[test]
    fn trains_with_lut_and_reports_clusters() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = synthetic_data(&mut rng, &[vec![1, 2], vec![3]], 10, 500.0, 4);
        let mut lut = BTreeMap::new();
        lut.insert(SourceAddress(1), ClusterId(0));
        lut.insert(SourceAddress(2), ClusterId(0));
        lut.insert(SourceAddress(3), ClusterId(1));
        let model = Trainer::new(config(4)).train_with_lut(&data, &lut).unwrap();
        assert_eq!(model.cluster_count(), 2);
        assert_eq!(model.cluster(ClusterId(0)).count(), 20);
        assert_eq!(model.cluster(ClusterId(1)).count(), 10);
        assert!(model.cluster(ClusterId(0)).max_distance() > 0.0);
        assert!(model.cluster(ClusterId(0)).gaussian().is_some());
    }

    #[test]
    fn trains_by_distance_clustering() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = synthetic_data(&mut rng, &[vec![1, 2], vec![3, 4]], 12, 800.0, 4);
        let model = Trainer::new(config(4)).train(&data).unwrap();
        assert_eq!(model.cluster_count(), 2);
        // SAs 1,2 must land in the same cluster.
        assert_eq!(
            model.lookup_sa(SourceAddress(1)),
            model.lookup_sa(SourceAddress(2))
        );
        assert_ne!(
            model.lookup_sa(SourceAddress(1)),
            model.lookup_sa(SourceAddress(3))
        );
    }

    #[test]
    fn euclidean_training_skips_covariance() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = synthetic_data(&mut rng, &[vec![1]], 5, 100.0, 4);
        let cfg = config(4).with_metric(DistanceMetric::Euclidean);
        let model = Trainer::new(cfg).train(&data).unwrap();
        assert!(model.cluster(ClusterId(0)).gaussian().is_none());
        assert!(model.cluster(ClusterId(0)).max_distance() > 0.0);
    }

    #[test]
    fn insufficient_data_is_reported_with_context() {
        let mut rng = StdRng::seed_from_u64(4);
        // 3 edge sets of dimension 4: Mahalanobis needs dim + 2 = 6.
        let data = synthetic_data(&mut rng, &[vec![1]], 3, 100.0, 4);
        let err = Trainer::new(config(4)).train(&data).unwrap_err();
        match err {
            VProfileError::NotEnoughTrainingData {
                have,
                need,
                cluster,
            } => {
                assert_eq!(have, 3);
                assert_eq!(need, 6);
                assert!(cluster.contains("0x01"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_training_set_errors() {
        let err = Trainer::new(config(4)).train(&[]).unwrap_err();
        assert_eq!(err, VProfileError::EmptyModel);
    }

    #[test]
    fn constant_data_yields_singular_covariance_without_ridge() {
        // Identical edge sets → zero covariance → the thesis' singular
        // matrix failure.
        let set = EdgeSet::new(vec![1.0, 2.0, 3.0, 4.0]);
        let data: Vec<LabeledEdgeSet> = (0..10)
            .map(|_| LabeledEdgeSet::new(SourceAddress(1), set.clone()))
            .collect();
        let err = Trainer::new(config(4)).train(&data).unwrap_err();
        assert!(matches!(err, VProfileError::Numeric(_)));
        // With a ridge budget the same data trains.
        let cfg = config(4).with_max_ridge(1e-3);
        assert!(Trainer::new(cfg).train(&data).is_ok());
    }

    #[test]
    fn max_distance_covers_all_training_points() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = synthetic_data(&mut rng, &[vec![1]], 20, 100.0, 4);
        let model = Trainer::new(config(4)).train(&data).unwrap();
        let cluster = model.cluster(ClusterId(0));
        for item in &data {
            let d = cluster
                .distance(item.edge_set.samples(), model.metric())
                .unwrap();
            assert!(d <= cluster.max_distance() + 1e-9);
        }
    }

    #[test]
    fn mixed_dimension_edge_sets_are_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut data = synthetic_data(&mut rng, &[vec![1]], 10, 100.0, 4);
        data.push(LabeledEdgeSet::new(
            SourceAddress(1),
            EdgeSet::new(vec![0.0; 8]),
        ));
        let err = Trainer::new(config(4)).train(&data).unwrap_err();
        assert!(matches!(err, VProfileError::MixedDimensions { .. }));
    }
}
