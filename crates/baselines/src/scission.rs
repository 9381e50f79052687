//! A Scission-style detector (Kneib & Huth, thesis §1.2.1): per-region
//! time-domain features fed into logistic regression. "The message is split
//! into bits and binned into one of three groups based on certain criteria
//! … Scission uses the logistic regression machine learning algorithm for
//! training and classification."

use crate::features::{scission_features, scission_features_into};
use crate::logreg::{LogisticRegression, TrainParams};
use crate::{BaselineVerdict, SenderIdentifier};
use std::collections::BTreeMap;
use vprofile::{AnomalyKind, ClusterId, LabeledEdgeSet, ScratchArena, VProfileError, Verdict};
use vprofile_can::SourceAddress;
use vprofile_detector_core::DetectionBackend;
use vprofile_sigstat::SigStatError;

/// A trained Scission-style detector.
#[derive(Debug, Clone)]
pub struct ScissionDetector {
    model: LogisticRegression,
    sa_lut: BTreeMap<u8, usize>,
    /// Minimum posterior probability for acceptance; below it the message is
    /// flagged even when the argmax class matches (Scission's confidence
    /// check against unknown devices).
    min_confidence: f64,
}

impl ScissionDetector {
    /// Trains the classifier from labeled edge sets.
    ///
    /// # Errors
    ///
    /// Propagates feature/regression failures.
    pub fn fit(
        data: &[LabeledEdgeSet],
        lut: &BTreeMap<SourceAddress, ClusterId>,
        min_confidence: f64,
    ) -> Result<Self, SigStatError> {
        let classes = lut.values().map(|c| c.0).max().map(|m| m + 1).unwrap_or(0);
        let mut training: Vec<(Vec<f64>, usize)> = Vec::with_capacity(data.len());
        for item in data {
            if let Some(cluster) = lut.get(&item.sa) {
                training.push((scission_features(item.edge_set.samples()), cluster.0));
            }
        }
        let model = LogisticRegression::fit(&training, classes, TrainParams::default())?;
        Ok(ScissionDetector {
            model,
            sa_lut: lut.iter().map(|(sa, c)| (sa.raw(), c.0)).collect(),
            min_confidence,
        })
    }

    /// The most probable sending ECU and the posterior probability —
    /// Scission's identification output.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors.
    pub fn identify(&self, observation: &LabeledEdgeSet) -> Result<(ClusterId, f64), SigStatError> {
        let features = scission_features(observation.edge_set.samples());
        let (class, p) = self.model.predict(&features)?;
        Ok((ClusterId(class), p))
    }

    /// Number of classes the classifier separates.
    pub fn classes(&self) -> usize {
        self.model.classes()
    }
}

impl DetectionBackend for ScissionDetector {
    fn name(&self) -> &'static str {
        "scission"
    }

    fn train(
        &mut self,
        data: &[LabeledEdgeSet],
        lut: &BTreeMap<SourceAddress, ClusterId>,
    ) -> Result<(), VProfileError> {
        *self = ScissionDetector::fit(data, lut, self.min_confidence)
            .map_err(VProfileError::Numeric)?;
        Ok(())
    }

    /// Streaming identification of the edge set in `scratch.edge_set`:
    /// features go through `scratch.features`, class posteriors through
    /// `scratch.distances`, so the steady-state path is allocation-free.
    /// The verdict's nonconformity score is `1 − posterior`, making the
    /// confidence floor a [`AnomalyKind::ThresholdExceeded`] limit of
    /// `1 − min_confidence`.
    // xtask: cold
    fn classify_into(&mut self, scratch: &mut ScratchArena, sa: SourceAddress) -> Verdict {
        let Some(&expected) = self.sa_lut.get(&sa.raw()) else {
            return Verdict::Anomaly {
                kind: AnomalyKind::UnknownSa { sa },
            };
        };
        if scratch.edge_set.len() < 8 {
            return Verdict::Anomaly {
                kind: AnomalyKind::Unscorable,
            };
        }
        let ScratchArena {
            edge_set,
            features,
            distances,
            ..
        } = scratch;
        scission_features_into(edge_set, features);
        match self.model.predict_with(features, distances) {
            Ok((predicted, confidence)) => {
                let distance = 1.0 - confidence;
                if predicted != expected {
                    Verdict::Anomaly {
                        kind: AnomalyKind::ClusterMismatch {
                            expected: ClusterId(expected),
                            predicted: ClusterId(predicted),
                            distance,
                        },
                    }
                } else if confidence < self.min_confidence {
                    Verdict::Anomaly {
                        kind: AnomalyKind::ThresholdExceeded {
                            cluster: ClusterId(expected),
                            distance,
                            limit: 1.0 - self.min_confidence,
                        },
                    }
                } else {
                    Verdict::Ok {
                        cluster: ClusterId(expected),
                        distance,
                    }
                }
            }
            Err(_) => Verdict::Anomaly {
                kind: AnomalyKind::Unscorable,
            },
        }
    }
}

impl SenderIdentifier for ScissionDetector {
    fn name(&self) -> &'static str {
        "Scission-style"
    }

    fn classify(&self, observation: &LabeledEdgeSet) -> BaselineVerdict {
        let Some(&expected) = self.sa_lut.get(&observation.sa.raw()) else {
            return BaselineVerdict::Anomalous;
        };
        match self.identify(observation) {
            Ok((predicted, confidence)) => {
                if predicted.0 != expected || confidence < self.min_confidence {
                    BaselineVerdict::Anomalous
                } else {
                    BaselineVerdict::Legitimate
                }
            }
            Err(_) => BaselineVerdict::Anomalous,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vprofile::EdgeSet;

    fn synthetic(rng: &mut StdRng, sa: u8, level: f64, n: usize) -> Vec<LabeledEdgeSet> {
        (0..n)
            .map(|_| {
                let mut samples = Vec::with_capacity(16);
                for i in 0..8 {
                    let v = if i < 4 { level * i as f64 / 4.0 } else { level };
                    samples.push(v + rng.random_range(-3.0..3.0));
                }
                for i in 0..8 {
                    let v = if i < 4 {
                        level * (1.0 - i as f64 / 4.0)
                    } else {
                        0.0
                    };
                    samples.push(v + rng.random_range(-3.0..3.0));
                }
                LabeledEdgeSet::new(SourceAddress(sa), EdgeSet::new(samples))
            })
            .collect()
    }

    fn lut() -> BTreeMap<SourceAddress, ClusterId> {
        let mut lut = BTreeMap::new();
        lut.insert(SourceAddress(1), ClusterId(0));
        lut.insert(SourceAddress(2), ClusterId(1));
        lut
    }

    fn train(rng: &mut StdRng) -> (ScissionDetector, Vec<LabeledEdgeSet>, Vec<LabeledEdgeSet>) {
        let a = synthetic(rng, 1, 1000.0, 50);
        let b = synthetic(rng, 2, 1300.0, 50);
        let mut data = a.clone();
        data.extend(b.clone());
        (ScissionDetector::fit(&data, &lut(), 0.6).unwrap(), a, b)
    }

    #[test]
    fn identifies_the_sender() {
        let mut rng = StdRng::seed_from_u64(1);
        let (detector, a, b) = train(&mut rng);
        let (c0, p0) = detector.identify(&a[0]).unwrap();
        assert_eq!(c0, ClusterId(0));
        assert!(p0 > 0.6);
        let (c1, _) = detector.identify(&b[0]).unwrap();
        assert_eq!(c1, ClusterId(1));
    }

    #[test]
    fn accepts_genuine_and_rejects_impersonation() {
        let mut rng = StdRng::seed_from_u64(2);
        let (detector, a, b) = train(&mut rng);
        let genuine_pass = a
            .iter()
            .filter(|m| !detector.classify(m).is_anomaly())
            .count();
        assert!(genuine_pass as f64 / a.len() as f64 > 0.9);
        let attacks: Vec<LabeledEdgeSet> = b.iter().map(|m| m.with_sa(SourceAddress(1))).collect();
        let caught = attacks
            .iter()
            .filter(|m| detector.classify(m).is_anomaly())
            .count();
        assert!(caught as f64 / attacks.len() as f64 > 0.9);
    }

    #[test]
    fn unknown_sa_is_anomalous() {
        let mut rng = StdRng::seed_from_u64(3);
        let (detector, a, _) = train(&mut rng);
        assert!(detector
            .classify(&a[0].with_sa(SourceAddress(9)))
            .is_anomaly());
    }

    #[test]
    fn streaming_verdicts_agree_with_batch_classify() {
        let mut rng = StdRng::seed_from_u64(5);
        let (mut detector, a, b) = train(&mut rng);
        let mut scratch = ScratchArena::new();
        let attacks: Vec<LabeledEdgeSet> = b.iter().map(|m| m.with_sa(SourceAddress(1))).collect();
        for obs in a.iter().chain(&attacks) {
            scratch.edge_set.clear();
            scratch.edge_set.extend_from_slice(obs.edge_set.samples());
            let streamed = detector.classify_into(&mut scratch, obs.sa);
            let batch = detector.classify(obs);
            assert_eq!(streamed.is_anomaly(), batch.is_anomaly(), "{streamed:?}");
            // The streamed distance is exactly 1 − the batch posterior.
            if let (Verdict::Ok { distance, .. }, Ok((_, p))) = (streamed, detector.identify(obs)) {
                assert_eq!(distance.to_bits(), (1.0 - p).to_bits());
            }
        }
        let unknown = detector.classify_into(&mut scratch, SourceAddress(9));
        assert!(matches!(
            unknown,
            Verdict::Anomaly {
                kind: AnomalyKind::UnknownSa { .. }
            }
        ));
        scratch.edge_set.clear();
        assert!(detector
            .classify_into(&mut scratch, SourceAddress(1))
            .is_unscorable());
    }

    #[test]
    fn classes_match_lut() {
        let mut rng = StdRng::seed_from_u64(4);
        let (detector, _, _) = train(&mut rng);
        assert_eq!(detector.classes(), 2);
        assert_eq!(SenderIdentifier::name(&detector), "Scission-style");
        assert_eq!(DetectionBackend::name(&detector), "scission");
    }
}
