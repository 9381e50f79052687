use crate::{ClusterId, InvalidModel, VProfileConfig, VProfileError};
use serde::content::Content;
use serde::de::{DeError, Error as _};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vprofile_can::SourceAddress;
use vprofile_sigstat::{euclidean, BatchedMahalanobis, DistanceMetric, Gaussian, Matrix};

/// The trained statistics of one ECU cluster: the model entry Algorithm 2
/// produces per cluster.
#[derive(Debug, PartialEq)]
pub struct ClusterStats {
    /// Source addresses this ECU transmits under.
    pub(crate) sas: Vec<SourceAddress>,
    /// Mean edge set (`clustMeans`).
    pub(crate) mean: Vec<f64>,
    /// Fitted Gaussian (mean + covariance + Cholesky factor); present only
    /// for Mahalanobis models.
    pub(crate) gaussian: Option<Gaussian>,
    /// Largest training-set distance to the mean (`clustMaxDists`), the
    /// detection threshold before the margin.
    pub(crate) max_distance: f64,
    /// Number of edge sets behind the statistics (`N_n`, carried for the
    /// §5.3 online update).
    pub(crate) count: usize,
    /// Optional per-cluster extraction threshold (§5.1).
    pub(crate) extraction_threshold: Option<f64>,
}

vprofile_sigstat::clone_in_place!(ClusterStats {
    sas,
    mean,
    gaussian,
    max_distance,
    count,
    extraction_threshold
});

impl ClusterStats {
    /// Source addresses assigned to this cluster.
    pub fn sas(&self) -> &[SourceAddress] {
        &self.sas
    }

    /// The cluster's mean edge set.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The fitted Gaussian, when the model was trained with Mahalanobis.
    pub fn gaussian(&self) -> Option<&Gaussian> {
        self.gaussian.as_ref()
    }

    /// The max-distance detection threshold (margin not included).
    pub fn max_distance(&self) -> f64 {
        self.max_distance
    }

    /// Number of training (plus online-updated) edge sets.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Per-cluster extraction threshold, if one was derived (§5.1).
    pub fn extraction_threshold(&self) -> Option<f64> {
        self.extraction_threshold
    }

    /// Edge-set dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Distance from `x` to this cluster under `metric`, through the
    /// per-cluster kernel ([`Gaussian::mahalanobis`]) that fits the
    /// max-distance thresholds. Detection scores through
    /// [`Model::nearest_to`] instead.
    ///
    /// # Errors
    ///
    /// [`VProfileError::CovarianceUnavailable`] for a Mahalanobis query on a
    /// Euclidean-trained cluster; [`VProfileError::Numeric`] on dimension
    /// mismatch.
    pub fn distance(&self, x: &[f64], metric: DistanceMetric) -> Result<f64, VProfileError> {
        match metric {
            DistanceMetric::Euclidean => Ok(euclidean(x, &self.mean)?),
            DistanceMetric::Mahalanobis => {
                let gaussian = self
                    .gaussian
                    .as_ref()
                    .ok_or(VProfileError::CovarianceUnavailable)?;
                Ok(gaussian.mahalanobis(x)?)
            }
        }
    }
}

/// One cluster's sufficient statistics, as a model file stores them and as
/// training fits them. The field names and nesting are those of the
/// original model file, whose extra fields (the Cholesky factor, a second
/// mean and count, the SA table) are ignored on load.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct StoredCluster {
    pub(crate) sas: Vec<SourceAddress>,
    pub(crate) mean: Vec<f64>,
    pub(crate) gaussian: Option<StoredGaussian>,
    pub(crate) max_distance: f64,
    pub(crate) count: usize,
    pub(crate) extraction_threshold: Option<f64>,
}

/// The covariance of a Mahalanobis cluster.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct StoredGaussian {
    pub(crate) covariance: Matrix,
}

/// A model's sufficient statistics: the form [`Model::from_stored`]
/// builds every model from.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct StoredModel {
    pub(crate) clusters: Vec<StoredCluster>,
    pub(crate) config: VProfileConfig,
}

fn all_finite(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}

impl StoredCluster {
    /// Checks this cluster's statistics against a model of dimension `dim`
    /// and derives its Cholesky factor (Mahalanobis only; a Euclidean
    /// model keeps no covariance).
    fn into_stats(
        self,
        cluster: ClusterId,
        dim: usize,
        metric: DistanceMetric,
    ) -> Result<ClusterStats, InvalidModel> {
        let non_finite = |field| InvalidModel::NonFinite { cluster, field };
        if self.mean.len() != dim {
            return Err(InvalidModel::MixedDimensions {
                cluster,
                field: "mean",
                expected: dim,
                actual: self.mean.len(),
            });
        }
        if !all_finite(&self.mean) {
            return Err(non_finite("mean"));
        }
        if !self.max_distance.is_finite() {
            return Err(non_finite("max_distance"));
        }
        if self.max_distance < 0.0 {
            return Err(InvalidModel::NegativeThreshold {
                cluster,
                threshold: self.max_distance,
            });
        }
        if self.extraction_threshold.is_some_and(|t| !t.is_finite()) {
            return Err(non_finite("extraction_threshold"));
        }
        let gaussian = match metric {
            DistanceMetric::Euclidean => None,
            DistanceMetric::Mahalanobis => {
                let covariance = self
                    .gaussian
                    .ok_or(InvalidModel::MissingCovariance { cluster })?
                    .covariance;
                let shape = [
                    ("covariance", dim, covariance.rows()),
                    ("covariance", dim, covariance.cols()),
                    ("covariance entries", dim * dim, covariance.as_slice().len()),
                ];
                if let Some(&(field, expected, actual)) = shape.iter().find(|s| s.1 != s.2) {
                    return Err(InvalidModel::MixedDimensions {
                        cluster,
                        field,
                        expected,
                        actual,
                    });
                }
                if !all_finite(covariance.as_slice()) {
                    return Err(non_finite("covariance"));
                }
                if !covariance.is_cholesky_symmetric() {
                    return Err(InvalidModel::AsymmetricCovariance { cluster });
                }
                // The factor of a covariance that factors is finite: each
                // entry feeds a later pivot, and a non-finite pivot is refused.
                let gaussian = Gaussian::from_moments(self.mean.clone(), covariance, self.count)
                    .map_err(|source| InvalidModel::Unfactorable { cluster, source })?;
                Some(gaussian)
            }
        };
        Ok(ClusterStats {
            sas: self.sas,
            mean: self.mean,
            gaussian,
            max_distance: self.max_distance,
            count: self.count,
            extraction_threshold: self.extraction_threshold,
        })
    }
}

/// A trained vProfile model: per-cluster statistics, the SA → cluster
/// lookup table, and the detection configuration (Algorithm 2's
/// `(clustSaLut, clustMeans, clustMaxDists)` plus the covariance data the
/// Mahalanobis upgrade of §4.2.2 adds).
///
/// A model holds its sufficient statistics (per cluster: SAs, mean,
/// count, threshold, optional extraction threshold, and the covariance of
/// a Mahalanobis cluster) plus what is derived from them: the SA table,
/// each covariance's Cholesky factor, and the stacked scoring rows of
/// [`Model::nearest_to`]. Training and loading build it through one
/// validating constructor, and the §5.3 online update keeps the derived
/// values in step. It serializes as the statistics alone, so a trained
/// model can be shipped to the embedded monitor, and deserializing it
/// re-derives and re-validates the rest.
#[derive(Debug, PartialEq)]
pub struct Model {
    pub(crate) clusters: Vec<ClusterStats>,
    sa_lut: BTreeMap<SourceAddress, ClusterId>,
    /// Stacked inverse factors of a Mahalanobis model; `None` for a
    /// Euclidean one, whose scan reads the cluster means.
    pub(crate) rows: Option<BatchedMahalanobis>,
    pub(crate) config: VProfileConfig,
}

vprofile_sigstat::clone_in_place!(Model { clusters, rows, config } if_changed { sa_lut });

impl Model {
    /// Builds a model from its sufficient statistics: checks every
    /// invariant a scorable model needs and derives the SA table, the
    /// Cholesky factors ([`vprofile_sigstat::Matrix::cholesky`], the call
    /// training makes) and the stacked scoring rows
    /// ([`BatchedMahalanobis::from_gaussians`]).
    ///
    /// # Errors
    ///
    /// [`VProfileError::EmptyModel`] for no clusters, and
    /// [`VProfileError::InvalidModel`] naming the first broken invariant.
    pub(crate) fn from_stored(stored: StoredModel) -> Result<Self, VProfileError> {
        let StoredModel {
            clusters: stored,
            config,
        } = stored;
        config.check()?;
        let dim = stored.first().ok_or(VProfileError::EmptyModel)?.mean.len();
        let mut clusters = Vec::with_capacity(stored.len());
        let mut sa_lut = BTreeMap::new();
        for (idx, cluster) in stored.into_iter().enumerate() {
            let id = ClusterId(idx);
            let cluster = cluster.into_stats(id, dim, config.metric)?;
            for &sa in &cluster.sas {
                if let Some(first) = sa_lut.insert(sa, id) {
                    return Err(InvalidModel::DuplicateSa {
                        sa,
                        first,
                        second: id,
                    }
                    .into());
                }
            }
            clusters.push(cluster);
        }
        let rows = match config.metric {
            DistanceMetric::Euclidean => None,
            DistanceMetric::Mahalanobis => {
                let gaussians: Vec<&Gaussian> =
                    clusters.iter().filter_map(ClusterStats::gaussian).collect();
                let rows = BatchedMahalanobis::from_gaussians(&gaussians)?;
                if let Some(c) = (0..clusters.len()).find(|&c| !rows.is_finite(c)) {
                    return Err(InvalidModel::NonFiniteRows {
                        cluster: ClusterId(c),
                    }
                    .into());
                }
                Some(rows)
            }
        };
        Ok(Model {
            clusters,
            sa_lut,
            rows,
            config,
        })
    }

    /// The model's sufficient statistics, the form it serializes as.
    fn stored(&self) -> StoredModel {
        let clusters = self
            .clusters
            .iter()
            .map(|c| StoredCluster {
                sas: c.sas.clone(),
                mean: c.mean.clone(),
                gaussian: c.gaussian.as_ref().map(|g| StoredGaussian {
                    covariance: g.covariance().clone(),
                }),
                max_distance: c.max_distance,
                count: c.count,
                extraction_threshold: c.extraction_threshold,
            })
            .collect();
        StoredModel {
            clusters,
            config: self.config.clone(),
        }
    }

    /// Number of ECU clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// All cluster statistics, indexable by [`ClusterId`].
    pub fn clusters(&self) -> &[ClusterStats] {
        &self.clusters
    }

    /// One cluster's statistics.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cluster(&self, id: ClusterId) -> &ClusterStats {
        // xtask: allow(hot-path-panic): documented `# Panics` accessor; scoring passes ClusterIds from the model's own LUT
        &self.clusters[id.0]
    }

    /// The cluster a source address belongs to, or `None` for an SA the
    /// model has never seen (trivially detectable intruders, §3.1).
    pub fn lookup_sa(&self, sa: SourceAddress) -> Option<ClusterId> {
        self.sa_lut.get(&sa).copied()
    }

    /// The SA → cluster table (`clustSaLut`), derived from the clusters'
    /// SA lists.
    pub fn sa_table(&self) -> &BTreeMap<SourceAddress, ClusterId> {
        &self.sa_lut
    }

    /// The distance metric the model was trained with.
    pub fn metric(&self) -> DistanceMetric {
        self.config.metric
    }

    /// The training configuration.
    pub fn config(&self) -> &VProfileConfig {
        &self.config
    }

    /// Edge-set dimensionality the model expects.
    pub fn dim(&self) -> usize {
        // xtask: allow(hot-path-panic): a model always holds at least one cluster
        self.clusters[0].dim()
    }

    /// The stacked Mahalanobis scoring rows, one block per cluster;
    /// `None` for a Euclidean model.
    pub fn scoring_rows(&self) -> Option<&BatchedMahalanobis> {
        self.rows.as_ref()
    }

    /// The nearest cluster to `x` with its distance — the
    /// `predClust`/`minDist` scan of Algorithm 3, seeded with the cluster
    /// the frame claims. A Mahalanobis model runs the seeded scan over its
    /// stacked rows ([`BatchedMahalanobis::nearest_to`]); a Euclidean one
    /// scans every cluster mean and ignores the claim. Either way the
    /// answer is the first strict minimum in cluster order, and nothing is
    /// allocated.
    ///
    /// # Errors
    ///
    /// [`VProfileError::Numeric`] if `x` has the wrong dimension or, for a
    /// Mahalanobis model, `claimed` is out of range.
    // xtask: hot-path
    pub fn nearest_to(
        &self,
        x: &[f64],
        claimed: ClusterId,
    ) -> Result<(ClusterId, f64), VProfileError> {
        if let Some(rows) = &self.rows {
            let (nearest, distance) = rows.nearest_to(x, claimed.0)?;
            return Ok((ClusterId(nearest), distance));
        }
        let mut best: Option<(ClusterId, f64)> = None;
        for (idx, cluster) in self.clusters.iter().enumerate() {
            let d = euclidean(x, &cluster.mean)?;
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((ClusterId(idx), d));
            }
        }
        best.ok_or(VProfileError::EmptyModel)
    }

    /// Installs a per-cluster extraction threshold (§5.1). The
    /// [`crate::EdgeSetExtractor`] for this cluster should then be built
    /// with [`crate::EdgeSetExtractor::with_threshold`].
    ///
    /// # Errors
    ///
    /// [`InvalidModel::NonFinite`] for a NaN or infinite threshold.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_extraction_threshold(
        &mut self,
        id: ClusterId,
        threshold: f64,
    ) -> Result<(), VProfileError> {
        if !threshold.is_finite() {
            return Err(InvalidModel::NonFinite {
                cluster: id,
                field: "extraction_threshold",
            }
            .into());
        }
        self.clusters[id.0].extraction_threshold = Some(threshold);
        Ok(())
    }
}

impl Serialize for Model {
    fn to_content(&self) -> Content {
        self.stored().to_content()
    }
}

impl<'de> Deserialize<'de> for Model {
    /// Deserializes the sufficient statistics and builds the model through
    /// [`Model::from_stored`], so it validates exactly as
    /// [`Model::from_json`] does.
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Model::from_stored(StoredModel::from_content(content)?)
            .map_err(|err| DeError::custom(format!("model rejected: {err}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> VProfileConfig {
        VProfileConfig::for_adc(&vprofile_analog::AdcConfig::vehicle_b(), 250_000)
    }

    fn stats(sa: u8, mean: Vec<f64>) -> StoredCluster {
        let dim = mean.len();
        StoredCluster {
            sas: vec![SourceAddress(sa)],
            mean,
            gaussian: Some(StoredGaussian {
                covariance: Matrix::identity(dim),
            }),
            max_distance: 1.0,
            count: 10,
            extraction_threshold: None,
        }
    }

    fn build(clusters: Vec<StoredCluster>) -> Result<Model, VProfileError> {
        Model::from_stored(StoredModel {
            clusters,
            config: config(),
        })
    }

    #[test]
    fn model_requires_clusters() {
        assert_eq!(build(vec![]).unwrap_err(), VProfileError::EmptyModel);
    }

    #[test]
    fn model_rejects_mixed_dimensions() {
        let err = build(vec![stats(1, vec![0.0; 4]), stats(2, vec![0.0; 8])]).unwrap_err();
        assert!(matches!(
            err,
            VProfileError::InvalidModel(InvalidModel::MixedDimensions {
                cluster: ClusterId(1),
                ..
            })
        ));
    }

    #[test]
    fn sa_lut_maps_every_cluster_sa() {
        let model = build(vec![stats(1, vec![0.0; 4]), stats(9, vec![5.0; 4])]).unwrap();
        assert_eq!(model.lookup_sa(SourceAddress(1)), Some(ClusterId(0)));
        assert_eq!(model.lookup_sa(SourceAddress(9)), Some(ClusterId(1)));
        assert_eq!(model.lookup_sa(SourceAddress(77)), None);
        assert_eq!(model.sa_table().len(), 2);
    }

    #[test]
    fn nearest_to_finds_minimum_from_either_claim() {
        let model = build(vec![stats(1, vec![0.0; 4]), stats(2, vec![10.0; 4])]).unwrap();
        for claimed in [ClusterId(0), ClusterId(1)] {
            let (id, d) = model.nearest_to(&[9.0; 4], claimed).unwrap();
            assert_eq!(id, ClusterId(1));
            assert!((d - 2.0).abs() < 1e-12); // identity covariance: sqrt(4*1)
        }
    }

    #[test]
    fn euclidean_cluster_rejects_mahalanobis_queries() {
        let model = Model::from_stored(StoredModel {
            clusters: vec![stats(1, vec![0.0; 4])],
            config: config().with_metric(DistanceMetric::Euclidean),
        })
        .unwrap();
        let c = model.cluster(ClusterId(0));
        assert!(c.gaussian().is_none());
        assert_eq!(
            c.distance(&[1.0; 4], DistanceMetric::Mahalanobis)
                .unwrap_err(),
            VProfileError::CovarianceUnavailable
        );
        assert!(c.distance(&[1.0; 4], DistanceMetric::Euclidean).is_ok());
    }

    #[test]
    fn extraction_threshold_is_settable() {
        let mut model = build(vec![stats(1, vec![0.0; 4])]).unwrap();
        assert_eq!(model.cluster(ClusterId(0)).extraction_threshold(), None);
        model
            .set_extraction_threshold(ClusterId(0), 2047.5)
            .unwrap();
        assert_eq!(
            model.cluster(ClusterId(0)).extraction_threshold(),
            Some(2047.5)
        );
        assert!(model
            .set_extraction_threshold(ClusterId(0), f64::NAN)
            .is_err());
    }
}
