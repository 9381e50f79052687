//! Intrusion detection — Algorithm 3 of the thesis.

use crate::{ClusterId, LabeledEdgeSet, Model, VProfileError};
use serde::{Deserialize, Serialize};
use std::fmt;
use vprofile_can::SourceAddress;
use vprofile_sigstat::{euclidean, BatchedMahalanobis, DistanceMetric, SigStatError};

/// Why a message was flagged as anomalous.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// The claimed SA does not exist in the model's lookup table. The
    /// thesis calls this case "trivially detected" (§3.1) and excludes it
    /// from the experiments.
    UnknownSa {
        /// The unknown source address.
        sa: SourceAddress,
    },
    /// The nearest cluster is not the cluster the claimed SA belongs to —
    /// the message's waveform identifies a *different* ECU, whose identity
    /// (`predicted`) localizes the attack origin (§3.2.3).
    ClusterMismatch {
        /// Cluster the claimed SA maps to.
        expected: ClusterId,
        /// Cluster the waveform actually matches.
        predicted: ClusterId,
        /// Distance to the predicted cluster.
        distance: f64,
    },
    /// The waveform matches the right cluster but sits farther from its
    /// mean than the training threshold plus margin allows — e.g. a foreign
    /// device imitating the ECU imperfectly.
    ThresholdExceeded {
        /// The claimed (and nearest) cluster.
        cluster: ClusterId,
        /// Measured distance.
        distance: f64,
        /// The limit that was exceeded (`max_distance + margin`).
        limit: f64,
    },
    /// The observation could not be scored against the model at all — e.g.
    /// its dimensionality disagrees with the training data. Such a message
    /// can never be legitimate traffic, so the infallible
    /// [`Detector::classify`] fails closed and reports it as anomalous;
    /// [`Detector::try_classify`] surfaces the underlying
    /// [`VProfileError`] instead.
    Unscorable,
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnomalyKind::UnknownSa { sa } => write!(f, "unknown source address 0x{sa}"),
            AnomalyKind::ClusterMismatch {
                expected,
                predicted,
                ..
            } => write!(f, "waveform of {predicted} under an SA of {expected}"),
            AnomalyKind::ThresholdExceeded {
                cluster,
                distance,
                limit,
            } => write!(
                f,
                "{cluster} distance {distance:.3} exceeds limit {limit:.3}"
            ),
            AnomalyKind::Unscorable => {
                f.write_str("observation cannot be scored against the model")
            }
        }
    }
}

/// The outcome of classifying one message (Algorithm 3's `OK` / `ANOMALY`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// The message is consistent with its claimed sender.
    Ok {
        /// The matched cluster.
        cluster: ClusterId,
        /// Distance to the cluster under the model metric.
        distance: f64,
    },
    /// The message is anomalous.
    Anomaly {
        /// The reason.
        kind: AnomalyKind,
    },
}

impl Verdict {
    /// `true` for an anomaly verdict.
    pub fn is_anomaly(&self) -> bool {
        matches!(self, Verdict::Anomaly { .. })
    }

    /// `true` when the message could not be scored at all (dimension
    /// mismatch or numeric failure) — a capture-integrity signal, distinct
    /// from a scored-and-rejected anomaly. The IDS health monitor keys its
    /// circuit breaker on this.
    pub fn is_unscorable(&self) -> bool {
        matches!(
            self,
            Verdict::Anomaly {
                kind: AnomalyKind::Unscorable
            }
        )
    }
}

/// Precomputed scoring state for a specific model version.
///
/// For a Mahalanobis model the cache stacks every cluster's inverse Cholesky
/// factor into one [`BatchedMahalanobis`] kernel, so the nearest-cluster
/// scan ([`ScoringCache::nearest_to`]) needs no triangular solve: it scores
/// the claimed cluster in full and each rival only until it is provably
/// farther. A Euclidean cache scans every cluster mean. The cache is a
/// snapshot: after an online model update,
/// [`ScoringCache::refresh`] the clusters it changed, and never reuse it
/// across models (the classify entry points cross-check dimensionality and
/// cluster count and refuse stale caches).
#[derive(Debug, Clone)]
pub struct ScoringCache {
    metric: DistanceMetric,
    dim: usize,
    clusters: usize,
    /// Stacked kernel for Mahalanobis models; `None` for Euclidean.
    batched: Option<BatchedMahalanobis>,
    /// Cluster means for the Euclidean fallback path.
    means: Vec<Vec<f64>>,
}

impl ScoringCache {
    /// Builds a cache from the model's current cluster statistics.
    ///
    /// # Errors
    ///
    /// Returns [`VProfileError::CovarianceUnavailable`] if a Mahalanobis
    /// model has a cluster without a fitted Gaussian, and propagates
    /// factorization failures as [`VProfileError::Numeric`].
    pub fn build(model: &Model) -> Result<Self, VProfileError> {
        let metric = model.metric();
        let batched = match metric {
            DistanceMetric::Mahalanobis => {
                let mut gaussians = Vec::with_capacity(model.cluster_count());
                for cluster in model.clusters() {
                    gaussians.push(
                        cluster
                            .gaussian()
                            .ok_or(VProfileError::CovarianceUnavailable)?,
                    );
                }
                Some(BatchedMahalanobis::from_gaussians(&gaussians)?)
            }
            DistanceMetric::Euclidean => None,
        };
        let means = match metric {
            DistanceMetric::Euclidean => {
                model.clusters().iter().map(|c| c.mean().to_vec()).collect()
            }
            DistanceMetric::Mahalanobis => Vec::new(),
        };
        Ok(ScoringCache {
            metric,
            dim: model.dim(),
            clusters: model.cluster_count(),
            batched,
            means,
        })
    }

    /// Brings the cache up to date after an online update changed
    /// `clusters` of `model` (e.g. [`crate::UpdateScratch::touched`]):
    /// only those clusters' stacked factors and offsets, or means, are
    /// rewritten, in place and through the kernel [`ScoringCache::build`]
    /// runs per cluster. The refreshed cache is bit-identical to a fresh
    /// build of the updated model, and nothing is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`VProfileError::DataUnavailable`] if the cache's shape does
    /// not match `model` or a cluster is out of range,
    /// [`VProfileError::CovarianceUnavailable`] for a Mahalanobis cluster
    /// without a fitted Gaussian, and propagates kernel failures as
    /// [`VProfileError::Numeric`]. Clusters before the failing one are
    /// refreshed; rebuild the cache after an error.
    pub fn refresh(&mut self, model: &Model, clusters: &[ClusterId]) -> Result<(), VProfileError> {
        if !self.matches(model) {
            return Err(VProfileError::DataUnavailable {
                context: "scoring cache does not match the model shape",
            });
        }
        for &id in clusters {
            let cluster = model
                .clusters()
                .get(id.0)
                .ok_or(VProfileError::DataUnavailable {
                    context: "refreshed cluster is not in the model",
                })?;
            match &mut self.batched {
                Some(batched) => batched.refresh(
                    id.0,
                    cluster
                        .gaussian()
                        .ok_or(VProfileError::CovarianceUnavailable)?,
                )?,
                None => {
                    if let Some(mean) = self.means.get_mut(id.0) {
                        mean.clear();
                        mean.extend_from_slice(cluster.mean());
                    }
                }
            }
        }
        Ok(())
    }

    /// The metric the cache was built for.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// Edge-set dimensionality the cache expects.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of clusters the cache covers.
    pub fn cluster_count(&self) -> usize {
        self.clusters
    }

    /// `true` if the cache's shape matches `model` (dimensionality, cluster
    /// count, and metric). A shape match does not prove the cache is fresh —
    /// callers must still refresh it after online updates — but a mismatch
    /// proves it is unusable.
    pub fn matches(&self, model: &Model) -> bool {
        self.metric == model.metric()
            && self.dim == model.dim()
            && self.clusters == model.cluster_count()
    }

    /// The nearest cluster to `x` with its distance, seeded with the
    /// cluster the frame claims — the same strict-less-than, first-index-wins
    /// answer as [`Model::nearest_cluster`], so ties break identically, and
    /// for a Mahalanobis model the same bits as a full scan of the stacked
    /// kernel ([`BatchedMahalanobis::nearest_to`]). A Euclidean cache scans
    /// every mean and ignores the claim. Nothing is allocated.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches (including a claimed cluster out of
    /// range of a Mahalanobis cache); returns [`VProfileError::EmptyModel`]
    /// if the cache covers no clusters.
    pub fn nearest_to(
        &self,
        x: &[f64],
        claimed: ClusterId,
    ) -> Result<(ClusterId, f64), VProfileError> {
        if let Some(batched) = &self.batched {
            let (nearest, distance) = batched.nearest_to(x, claimed.0)?;
            return Ok((ClusterId(nearest), distance));
        }
        let mut best: Option<(ClusterId, f64)> = None;
        for (idx, mean) in self.means.iter().enumerate() {
            let d = euclidean(x, mean)?;
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((ClusterId(idx), d));
            }
        }
        best.ok_or(VProfileError::EmptyModel)
    }
}

/// Fails an edge set with a NaN or infinite sample: its distances would
/// be NaN or infinite, and a NaN distance passes every `>` check.
fn finite(x: &[f64]) -> Result<(), VProfileError> {
    if x.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(VProfileError::Numeric(SigStatError::NonFiniteInput {
            context: "Detector: edge set",
        }))
    }
}

/// The vProfile detector: classifies labeled edge sets against a trained
/// [`Model`] (Algorithm 3).
///
/// Borrow-based: detectors are cheap views over a model, so one model can
/// serve many concurrent detectors.
#[derive(Debug, Clone, Copy)]
pub struct Detector<'a> {
    model: &'a Model,
    margin: f64,
}

impl<'a> Detector<'a> {
    /// Creates a detector using the margin stored in the model's
    /// configuration.
    pub fn new(model: &'a Model) -> Self {
        Detector {
            model,
            margin: model.config().margin,
        }
    }

    /// Creates a detector with an explicit margin — the experiment sweeps
    /// tune this per test (§4.2: "We selected the margin to maximize the
    /// accuracy for the false positive test and the F-score for the other
    /// two tests").
    pub fn with_margin(model: &'a Model, margin: f64) -> Self {
        Detector { model, margin }
    }

    /// The active margin.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// The underlying model.
    pub fn model(&self) -> &Model {
        self.model
    }

    /// Classifies one observation. Infallible: an observation the model
    /// cannot score at all (e.g. wrong dimensionality) can never be
    /// legitimate traffic, so it fails closed as
    /// [`AnomalyKind::Unscorable`]. Use [`Detector::try_classify`] to get
    /// the underlying [`VProfileError`] instead.
    pub fn classify(&self, obs: &LabeledEdgeSet) -> Verdict {
        self.try_classify(obs).unwrap_or(Verdict::Anomaly {
            kind: AnomalyKind::Unscorable,
        })
    }

    /// Classifies one observation (Algorithm 3):
    ///
    /// 1. unknown SA → anomaly;
    /// 2. nearest cluster ≠ claimed cluster → anomaly (origin identified);
    /// 3. distance beyond `max_distance + margin` → anomaly;
    /// 4. otherwise OK.
    ///
    /// # Errors
    ///
    /// Returns [`VProfileError`] on dimensional mismatch between the edge
    /// set and the model, and [`SigStatError::NonFiniteInput`] (as
    /// [`VProfileError::Numeric`]) for an edge set with a NaN or infinite
    /// sample, so [`Detector::classify`] fails it closed.
    pub fn try_classify(&self, obs: &LabeledEdgeSet) -> Result<Verdict, VProfileError> {
        let Some(expected) = self.model.lookup_sa(obs.sa) else {
            return Ok(Verdict::Anomaly {
                kind: AnomalyKind::UnknownSa { sa: obs.sa },
            });
        };
        let x = obs.edge_set.samples();
        finite(x)?;
        let (predicted, distance) = self.model.nearest_cluster(x)?;
        if predicted != expected {
            return Ok(Verdict::Anomaly {
                kind: AnomalyKind::ClusterMismatch {
                    expected,
                    predicted,
                    distance,
                },
            });
        }
        let limit = self.model.cluster(predicted).max_distance() + self.margin;
        if distance > limit {
            return Ok(Verdict::Anomaly {
                kind: AnomalyKind::ThresholdExceeded {
                    cluster: predicted,
                    distance,
                    limit,
                },
            });
        }
        Ok(Verdict::Ok {
            cluster: predicted,
            distance,
        })
    }

    /// [`Detector::classify`] through a precomputed [`ScoringCache`]: same
    /// verdicts, the seeded stacked scan instead of per-cluster solves.
    /// Fails closed as [`AnomalyKind::Unscorable`] on any error, including a
    /// cache whose shape does not match the model.
    pub fn classify_cached(&self, obs: &LabeledEdgeSet, cache: &ScoringCache) -> Verdict {
        self.try_classify_cached(obs, cache)
            .unwrap_or(Verdict::Anomaly {
                kind: AnomalyKind::Unscorable,
            })
    }

    /// [`Detector::try_classify`] through a precomputed [`ScoringCache`].
    ///
    /// # Errors
    ///
    /// Returns [`VProfileError::DataUnavailable`] if the cache's shape
    /// (metric, dimensionality, cluster count) does not match the model, and
    /// propagates scoring failures like [`Detector::try_classify`].
    pub fn try_classify_cached(
        &self,
        obs: &LabeledEdgeSet,
        cache: &ScoringCache,
    ) -> Result<Verdict, VProfileError> {
        self.try_classify_cached_with(obs.sa, obs.edge_set.samples(), cache)
    }

    /// [`Detector::classify_cached`] on a raw `(sa, edge set)` pair — the
    /// zero-allocation per-frame entry point. Taking the observation as
    /// parts (rather than a [`LabeledEdgeSet`]) lets a pipeline worker
    /// score straight out of its extraction scratch.
    pub fn classify_cached_with(
        &self,
        sa: SourceAddress,
        x: &[f64],
        cache: &ScoringCache,
    ) -> Verdict {
        self.try_classify_cached_with(sa, x, cache)
            .unwrap_or(Verdict::Anomaly {
                kind: AnomalyKind::Unscorable,
            })
    }

    /// Fallible form of [`Detector::classify_cached_with`]. The claimed
    /// SA's cluster seeds the scan ([`ScoringCache::nearest_to`]).
    ///
    /// # Errors
    ///
    /// Returns [`VProfileError::DataUnavailable`] if the cache's shape
    /// (metric, dimensionality, cluster count) does not match the model, and
    /// propagates scoring failures like [`Detector::try_classify`],
    /// including the rejection of a non-finite edge set.
    pub fn try_classify_cached_with(
        &self,
        sa: SourceAddress,
        x: &[f64],
        cache: &ScoringCache,
    ) -> Result<Verdict, VProfileError> {
        if !cache.matches(self.model) {
            return Err(VProfileError::DataUnavailable {
                context: "scoring cache does not match the model shape",
            });
        }
        let Some(expected) = self.model.lookup_sa(sa) else {
            return Ok(Verdict::Anomaly {
                kind: AnomalyKind::UnknownSa { sa },
            });
        };
        finite(x)?;
        let (predicted, distance) = cache.nearest_to(x, expected)?;
        if predicted != expected {
            return Ok(Verdict::Anomaly {
                kind: AnomalyKind::ClusterMismatch {
                    expected,
                    predicted,
                    distance,
                },
            });
        }
        let limit = self.model.cluster(predicted).max_distance() + self.margin;
        if distance > limit {
            return Ok(Verdict::Anomaly {
                kind: AnomalyKind::ThresholdExceeded {
                    cluster: predicted,
                    distance,
                    limit,
                },
            });
        }
        Ok(Verdict::Ok {
            cluster: predicted,
            distance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeSet, Trainer, VProfileConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Model with two well-separated 4-dimensional clusters around 100 and
    /// 900 for SAs 1 and 2.
    fn two_cluster_model() -> Model {
        let mut rng = StdRng::seed_from_u64(1);
        let mut data = Vec::new();
        for (sa, center) in [(1u8, 100.0), (2u8, 900.0)] {
            for _ in 0..12 {
                let samples: Vec<f64> = (0..4)
                    .map(|i| center + i as f64 * 5.0 + rng.random_range(-1.0..1.0))
                    .collect();
                data.push(LabeledEdgeSet::new(
                    SourceAddress(sa),
                    EdgeSet::new(samples),
                ));
            }
        }
        let mut config = VProfileConfig::for_adc(&vprofile_analog::AdcConfig::vehicle_b(), 250_000);
        config.prefix_len = 1;
        config.suffix_len = 1;
        Trainer::new(config).train(&data).unwrap()
    }

    fn obs(sa: u8, center: f64) -> LabeledEdgeSet {
        let samples: Vec<f64> = (0..4).map(|i| center + i as f64 * 5.0).collect();
        LabeledEdgeSet::new(SourceAddress(sa), EdgeSet::new(samples))
    }

    #[test]
    fn legitimate_message_is_ok() {
        let model = two_cluster_model();
        let detector = Detector::with_margin(&model, 1.0);
        let verdict = detector.classify(&obs(1, 100.0));
        match verdict {
            Verdict::Ok { cluster, distance } => {
                assert_eq!(cluster, model.lookup_sa(SourceAddress(1)).unwrap());
                assert!(distance >= 0.0);
            }
            other => panic!("expected OK, got {other:?}"),
        }
    }

    #[test]
    fn wrong_dimension_fails_closed_as_unscorable() {
        let model = two_cluster_model();
        let detector = Detector::new(&model);
        // 2-sample edge set against a 4-dimensional model.
        let malformed = LabeledEdgeSet::new(SourceAddress(1), EdgeSet::new(vec![100.0, 105.0]));
        assert!(detector.try_classify(&malformed).is_err());
        assert!(matches!(
            detector.classify(&malformed),
            Verdict::Anomaly {
                kind: AnomalyKind::Unscorable
            }
        ));
    }

    #[test]
    fn unknown_sa_is_trivially_detected() {
        let model = two_cluster_model();
        let detector = Detector::new(&model);
        let verdict = detector.classify(&obs(0x99, 100.0));
        assert!(matches!(
            verdict,
            Verdict::Anomaly {
                kind: AnomalyKind::UnknownSa {
                    sa: SourceAddress(0x99)
                }
            }
        ));
    }

    #[test]
    fn hijack_is_caught_as_cluster_mismatch_with_origin() {
        let model = two_cluster_model();
        let detector = Detector::new(&model);
        // Waveform of ECU at 900 (SA 2) claiming SA 1.
        let verdict = detector.classify(&obs(1, 900.0));
        match verdict {
            Verdict::Anomaly {
                kind:
                    AnomalyKind::ClusterMismatch {
                        expected,
                        predicted,
                        ..
                    },
            } => {
                assert_eq!(expected, model.lookup_sa(SourceAddress(1)).unwrap());
                // Attack origin identified as the real sender's cluster.
                assert_eq!(predicted, model.lookup_sa(SourceAddress(2)).unwrap());
            }
            other => panic!("expected cluster mismatch, got {other:?}"),
        }
    }

    #[test]
    fn outlier_within_cluster_exceeds_threshold() {
        let model = two_cluster_model();
        let detector = Detector::with_margin(&model, 0.0);
        // Close to cluster 0's mean direction but far enough to breach the
        // max-distance threshold, while staying nearest to cluster 0.
        let verdict = detector.classify(&obs(1, 160.0));
        assert!(matches!(
            verdict,
            Verdict::Anomaly {
                kind: AnomalyKind::ThresholdExceeded { .. }
            }
        ));
    }

    #[test]
    fn margin_suppresses_borderline_alarms() {
        let model = two_cluster_model();
        // Find a point slightly beyond the learned threshold.
        let strict = Detector::with_margin(&model, 0.0);
        let lax = Detector::with_margin(&model, 1e9);
        let probe = obs(1, 104.0);
        if strict.classify(&probe).is_anomaly() {
            assert!(!lax.classify(&probe).is_anomaly());
        }
        // A huge margin never converts mismatches into OK.
        assert!(lax.classify(&obs(1, 900.0)).is_anomaly());
    }

    #[test]
    fn dimension_mismatch_is_a_fallible_error() {
        let model = two_cluster_model();
        let detector = Detector::new(&model);
        let bad = LabeledEdgeSet::new(SourceAddress(1), EdgeSet::new(vec![1.0; 7]));
        assert!(detector.try_classify(&bad).is_err());
    }

    #[test]
    fn cached_classify_matches_uncached_verdicts() {
        let model = two_cluster_model();
        let cache = ScoringCache::build(&model).unwrap();
        assert!(cache.matches(&model));
        let detector = Detector::with_margin(&model, 1.0);
        for probe in [
            obs(1, 100.0),  // legitimate
            obs(1, 900.0),  // hijack: cluster mismatch
            obs(2, 900.0),  // legitimate, other cluster
            obs(0x99, 1.0), // unknown SA
            obs(1, 160.0),  // threshold exceeded
        ] {
            let plain = detector.classify(&probe);
            let cached = detector.classify_cached(&probe, &cache);
            match (plain, cached) {
                (
                    Verdict::Ok {
                        cluster: a,
                        distance: da,
                    },
                    Verdict::Ok {
                        cluster: b,
                        distance: db,
                    },
                ) => {
                    assert_eq!(a, b);
                    assert!((da - db).abs() < 1e-9);
                }
                (Verdict::Anomaly { kind: a }, Verdict::Anomaly { kind: b }) => {
                    assert_eq!(
                        std::mem::discriminant(&a),
                        std::mem::discriminant(&b),
                        "anomaly kinds diverge: {a:?} vs {b:?}"
                    );
                }
                (p, c) => panic!("cached verdict {c:?} diverges from {p:?}"),
            }
        }
    }

    #[test]
    fn cached_nearest_matches_model_scan() {
        let model = two_cluster_model();
        let cache = ScoringCache::build(&model).unwrap();
        for center in [100.0, 300.0, 500.0, 900.0] {
            let x: Vec<f64> = (0..4).map(|i| center + i as f64 * 5.0).collect();
            let (want_id, want_d) = model.nearest_cluster(&x).unwrap();
            for claimed in [ClusterId(0), ClusterId(1)] {
                let (got_id, got_d) = cache.nearest_to(&x, claimed).unwrap();
                assert_eq!(want_id, got_id);
                assert!((want_d - got_d).abs() < 1e-9);
            }
        }
        assert!(cache.nearest_to(&[1.0; 4], ClusterId(2)).is_err());
    }

    #[test]
    fn non_finite_edge_sets_fail_closed_on_both_paths() {
        let model = two_cluster_model();
        let cache = ScoringCache::build(&model).unwrap();
        let detector = Detector::with_margin(&model, 1.0);
        let unscorable = Verdict::Anomaly {
            kind: AnomalyKind::Unscorable,
        };
        // SA 1 claims cluster 0, which a NaN distance used to fall back
        // to; SA 2 claims cluster 1.
        for (sa, center) in [(1u8, 100.0), (2u8, 900.0)] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in 0..4 {
                    let mut probe = obs(sa, center);
                    let mut samples = probe.edge_set.samples().to_vec();
                    samples[at] = bad;
                    probe.edge_set = EdgeSet::new(samples);
                    assert!(matches!(
                        detector.try_classify(&probe),
                        Err(VProfileError::Numeric(SigStatError::NonFiniteInput { .. }))
                    ));
                    assert!(detector.try_classify_cached(&probe, &cache).is_err());
                    assert_eq!(
                        detector.classify(&probe),
                        unscorable,
                        "SA {sa}, {bad} at {at}"
                    );
                    assert_eq!(
                        detector.classify_cached(&probe, &cache),
                        unscorable,
                        "SA {sa}, {bad} at {at}, cached"
                    );
                }
            }
        }
    }

    #[test]
    fn mismatched_cache_is_refused() {
        let model = two_cluster_model();
        let mut rng = StdRng::seed_from_u64(9);
        // A second model with different dimensionality (6 samples).
        let mut data = Vec::new();
        for (sa, center) in [(1u8, 100.0), (2u8, 900.0)] {
            for _ in 0..14 {
                let samples: Vec<f64> = (0..6)
                    .map(|i| center + i as f64 * 5.0 + rng.random_range(-1.0..1.0))
                    .collect();
                data.push(LabeledEdgeSet::new(
                    SourceAddress(sa),
                    EdgeSet::new(samples),
                ));
            }
        }
        let mut config = VProfileConfig::for_adc(&vprofile_analog::AdcConfig::vehicle_b(), 250_000);
        config.prefix_len = 1;
        config.suffix_len = 1;
        let other = Trainer::new(config).train(&data).unwrap();
        let stale = ScoringCache::build(&other).unwrap();
        assert!(!stale.matches(&model));

        let detector = Detector::new(&model);
        let probe = obs(1, 100.0);
        assert!(matches!(
            detector.try_classify_cached(&probe, &stale),
            Err(VProfileError::DataUnavailable { .. })
        ));
        assert!(matches!(
            detector.classify_cached(&probe, &stale),
            Verdict::Anomaly {
                kind: AnomalyKind::Unscorable
            }
        ));
    }

    #[test]
    fn euclidean_cache_matches_model_scan() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut data = Vec::new();
        for (sa, center) in [(1u8, 100.0), (2u8, 900.0)] {
            for _ in 0..12 {
                let samples: Vec<f64> = (0..4)
                    .map(|i| center + i as f64 * 5.0 + rng.random_range(-1.0..1.0))
                    .collect();
                data.push(LabeledEdgeSet::new(
                    SourceAddress(sa),
                    EdgeSet::new(samples),
                ));
            }
        }
        let mut config = VProfileConfig::for_adc(&vprofile_analog::AdcConfig::vehicle_b(), 250_000);
        config.prefix_len = 1;
        config.suffix_len = 1;
        config.metric = vprofile_sigstat::DistanceMetric::Euclidean;
        let model = Trainer::new(config).train(&data).unwrap();
        let cache = ScoringCache::build(&model).unwrap();
        assert_eq!(cache.metric(), vprofile_sigstat::DistanceMetric::Euclidean);
        for center in [100.0, 450.0, 900.0] {
            let x: Vec<f64> = (0..4).map(|i| center + i as f64 * 5.0).collect();
            let (want_id, want_d) = model.nearest_cluster(&x).unwrap();
            for claimed in [ClusterId(0), ClusterId(1)] {
                let (got_id, got_d) = cache.nearest_to(&x, claimed).unwrap();
                assert_eq!(want_id, got_id);
                assert!((want_d - got_d).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn refreshed_cache_equals_a_fresh_build_bit_for_bit() {
        for metric in [DistanceMetric::Mahalanobis, DistanceMetric::Euclidean] {
            let mut model = two_cluster_model();
            model.config.metric = metric;
            let mut cache = ScoringCache::build(&model).unwrap();
            let mut scratch = crate::UpdateScratch::default();
            let mut batch = crate::UpdateBatch::default();
            let mut rng = StdRng::seed_from_u64(11);
            for round in 0..4 {
                batch.clear();
                for _ in 0..16 {
                    // Even rounds touch one cluster, odd rounds both.
                    let sa = if round % 2 == 0 || rng.random_bool(0.5) {
                        1
                    } else {
                        2
                    };
                    let center = if sa == 1 { 101.0 } else { 899.0 };
                    let x: Vec<f64> = (0..4)
                        .map(|i| center + i as f64 * 5.0 + rng.random_range(-1.0..1.0))
                        .collect();
                    batch.push(SourceAddress(sa), &x);
                }
                model.update_online_with(&batch, &mut scratch).unwrap();
                cache.refresh(&model, scratch.touched()).unwrap();
                // Debug renders every f64 in shortest round-trip form, so
                // equal strings are equal bits for these finite values.
                let fresh = ScoringCache::build(&model).unwrap();
                assert_eq!(
                    format!("{cache:?}"),
                    format!("{fresh:?}"),
                    "{metric} round {round}"
                );
            }
            assert!(cache.refresh(&model, &[ClusterId(2)]).is_err());
        }
    }

    #[test]
    fn verdict_and_anomaly_render() {
        let model = two_cluster_model();
        let detector = Detector::new(&model);
        if let Verdict::Anomaly { kind } = detector.classify(&obs(1, 900.0)) {
            assert!(!kind.to_string().is_empty());
        } else {
            panic!("expected anomaly");
        }
        assert!(!detector.classify(&obs(1, 100.0)).is_anomaly());
    }
}
