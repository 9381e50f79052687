//! Intrusion detection — Algorithm 3 of the thesis.

use crate::{ClusterId, LabeledEdgeSet, Model, VProfileError};
use serde::{Deserialize, Serialize};
use std::fmt;
use vprofile_can::SourceAddress;
use vprofile_sigstat::SigStatError;

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
        self.classify_parts(obs.sa, obs.edge_set.samples())
    }

    /// [`Detector::classify`] on a raw `(sa, edge set)` pair — the
    /// zero-allocation per-frame entry point. Taking the observation as
    /// parts (rather than a [`LabeledEdgeSet`]) lets a pipeline worker
    /// score straight out of its extraction scratch.
    pub fn classify_parts(&self, sa: SourceAddress, x: &[f64]) -> Verdict {
        self.algorithm_3(sa, x).unwrap_or(Verdict::Anomaly {
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
    /// The nearest-cluster scan is the model's own
    /// ([`Model::nearest_to`]), seeded with the claimed SA's cluster.
    ///
    /// # Errors
    ///
    /// Returns [`VProfileError`] on dimensional mismatch between the edge
    /// set and the model, and [`SigStatError::NonFiniteInput`] (as
    /// [`VProfileError::Numeric`]) for an edge set with a NaN or infinite
    /// sample or one whose distance overflows to NaN, so
    /// [`Detector::classify`] fails it closed.
    pub fn try_classify(&self, obs: &LabeledEdgeSet) -> Result<Verdict, VProfileError> {
        self.algorithm_3(obs.sa, obs.edge_set.samples())
    }

    fn algorithm_3(&self, sa: SourceAddress, x: &[f64]) -> Result<Verdict, VProfileError> {
        let Some(expected) = self.model.lookup_sa(sa) else {
            return Ok(Verdict::Anomaly {
                kind: AnomalyKind::UnknownSa { sa },
            });
        };
        finite(x)?;
        let (predicted, distance) = self.model.nearest_to(x, expected)?;
        // A NaN distance passes every `>` check; only an overflowing
        // residual of a huge finite sample produces one.
        if distance.is_nan() {
            return Err(VProfileError::Numeric(SigStatError::NonFiniteInput {
                context: "Detector: distance",
            }));
        }
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
    fn non_finite_edge_sets_fail_closed() {
        let model = two_cluster_model();
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
                    assert_eq!(
                        detector.classify(&probe),
                        unscorable,
                        "SA {sa}, {bad} at {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn euclidean_model_classifies_by_mean_distance() {
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
        let detector = Detector::with_margin(&model, 1.0);
        let probe = obs(1, 100.0);
        let want =
            vprofile_sigstat::euclidean(probe.edge_set.samples(), model.clusters()[0].mean())
                .unwrap();
        assert_eq!(
            detector.classify(&probe),
            Verdict::Ok {
                cluster: ClusterId(0),
                distance: want,
            }
        );
        assert!(matches!(
            detector.classify(&obs(1, 900.0)),
            Verdict::Anomaly {
                kind: AnomalyKind::ClusterMismatch {
                    predicted: ClusterId(1),
                    ..
                }
            }
        ));
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
