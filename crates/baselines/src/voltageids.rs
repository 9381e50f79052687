//! A VoltageIDS-style detector (Choi, Joo, Jo, Park & Lee, thesis §1.2.1):
//! "They extract and compute the mean for the dominant bit steady states and
//! the rising and falling edges. Next, up to 20 features are computed for
//! each of the three sections … They tried Linear Support Vector Machines
//! and Bagged Decision Trees but found that the former performed more
//! favorably."
//!
//! This reconstruction computes the per-region time-domain features of
//! [`crate::features`] over the rising-edge, falling-edge, and steady-state
//! sections and classifies with a one-vs-rest linear SVM. A decision-margin
//! floor guards against unknown devices whose best class is still a poor
//! match.

use crate::features::{scission_features, scission_features_into};
use crate::svm::{OneVsRestSvm, SvmParams};
use crate::{BaselineVerdict, SenderIdentifier};
use std::collections::BTreeMap;
use vprofile::{AnomalyKind, ClusterId, LabeledEdgeSet, ScratchArena, Verdict};
use vprofile_can::SourceAddress;
use vprofile_detector_core::DetectionBackend;
use vprofile_sigstat::SigStatError;

/// A trained VoltageIDS-style detector.
#[derive(Debug)]
pub struct VoltageIdsDetector {
    svm: OneVsRestSvm,
    sa_lut: BTreeMap<u8, usize>,
    /// Minimum winning decision margin for acceptance.
    min_margin: f64,
}

vprofile_sigstat::clone_in_place!(VoltageIdsDetector { svm, min_margin } if_changed { sa_lut });

impl VoltageIdsDetector {
    /// Trains the classifier from labeled edge sets.
    ///
    /// `min_margin` is the smallest winning SVM decision value still
    /// accepted as a confident identification (0.0 disables the check).
    ///
    /// # Errors
    ///
    /// Propagates SVM training failures.
    pub fn fit(
        data: &[LabeledEdgeSet],
        lut: &BTreeMap<SourceAddress, ClusterId>,
        min_margin: f64,
    ) -> Result<Self, SigStatError> {
        let classes = lut.values().map(|c| c.0).max().map(|m| m + 1).unwrap_or(0);
        let training: Vec<(Vec<f64>, usize)> = data
            .iter()
            .filter_map(|item| {
                lut.get(&item.sa)
                    .map(|cluster| (scission_features(item.edge_set.samples()), cluster.0))
            })
            .collect();
        let svm = OneVsRestSvm::fit(&training, classes, SvmParams::default())?;
        Ok(VoltageIdsDetector {
            svm,
            sa_lut: lut.iter().map(|(sa, c)| (sa.raw(), c.0)).collect(),
            min_margin,
        })
    }

    /// The most plausible sending ECU and its decision margin.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors.
    pub fn identify(&self, observation: &LabeledEdgeSet) -> Result<(ClusterId, f64), SigStatError> {
        let features = scission_features(observation.edge_set.samples());
        let (class, margin) = self.svm.predict(&features)?;
        Ok((ClusterId(class), margin))
    }

    /// Number of classes the classifier separates.
    pub fn classes(&self) -> usize {
        self.svm.classes()
    }
}

impl DetectionBackend for VoltageIdsDetector {
    fn name(&self) -> &'static str {
        "voltage-ids"
    }

    /// Streaming identification of the edge set in `scratch.edge_set`.
    /// SVM decision margins grow with confidence, so the verdict reports
    /// the *negated* margin as its nonconformity distance: the margin
    /// floor becomes a [`AnomalyKind::ThresholdExceeded`] limit of
    /// `-min_margin`, keeping "larger distance = worse match" uniform
    /// across backends.
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
            edge_set, features, ..
        } = scratch;
        scission_features_into(edge_set, features);
        match self.svm.predict(features) {
            Ok((predicted, margin)) => {
                let distance = -margin;
                if predicted != expected {
                    Verdict::Anomaly {
                        kind: AnomalyKind::ClusterMismatch {
                            expected: ClusterId(expected),
                            predicted: ClusterId(predicted),
                            distance,
                        },
                    }
                } else if margin < self.min_margin {
                    Verdict::Anomaly {
                        kind: AnomalyKind::ThresholdExceeded {
                            cluster: ClusterId(expected),
                            distance,
                            limit: -self.min_margin,
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

impl SenderIdentifier for VoltageIdsDetector {
    fn name(&self) -> &'static str {
        "VoltageIDS-style"
    }

    fn classify(&self, observation: &LabeledEdgeSet) -> BaselineVerdict {
        let Some(&expected) = self.sa_lut.get(&observation.sa.raw()) else {
            return BaselineVerdict::Anomalous;
        };
        match self.identify(observation) {
            Ok((predicted, margin)) => {
                if predicted.0 != expected || margin < self.min_margin {
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

    fn train(rng: &mut StdRng) -> (VoltageIdsDetector, Vec<LabeledEdgeSet>, Vec<LabeledEdgeSet>) {
        let a = synthetic(rng, 1, 1000.0, 50);
        let b = synthetic(rng, 2, 1300.0, 50);
        let mut data = a.clone();
        data.extend(b.clone());
        (VoltageIdsDetector::fit(&data, &lut(), 0.0).unwrap(), a, b)
    }

    #[test]
    fn identifies_the_sender() {
        let mut rng = StdRng::seed_from_u64(1);
        let (detector, a, b) = train(&mut rng);
        assert_eq!(detector.identify(&a[0]).unwrap().0, ClusterId(0));
        assert_eq!(detector.identify(&b[0]).unwrap().0, ClusterId(1));
        assert_eq!(detector.classes(), 2);
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
        let caught = b
            .iter()
            .map(|m| m.with_sa(SourceAddress(1)))
            .filter(|m| detector.classify(m).is_anomaly())
            .count();
        assert!(caught as f64 / b.len() as f64 > 0.9);
    }

    #[test]
    fn unknown_sa_is_anomalous() {
        let mut rng = StdRng::seed_from_u64(3);
        let (detector, a, _) = train(&mut rng);
        assert!(detector
            .classify(&a[0].with_sa(SourceAddress(0x42)))
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
            // The streamed distance is exactly the negated decision margin.
            if let (Verdict::Ok { distance, .. }, Ok((_, margin))) =
                (streamed, detector.identify(obs))
            {
                assert_eq!(distance.to_bits(), (-margin).to_bits());
            }
        }
        let unknown = detector.classify_into(&mut scratch, SourceAddress(0x42));
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
    fn margin_floor_rejects_borderline_matches() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = synthetic(&mut rng, 1, 1000.0, 50);
        let b = synthetic(&mut rng, 2, 1300.0, 50);
        let mut data = a.clone();
        data.extend(b);
        let strict = VoltageIdsDetector::fit(&data, &lut(), 1e6).unwrap();
        // An absurd margin floor rejects everything, even genuine traffic.
        assert!(strict.classify(&a[0]).is_anomaly());
    }
}
