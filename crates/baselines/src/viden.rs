//! A Viden-style detector (Cho & Shin, thesis §1.2.1): per-ECU voltage
//! profiles built from dominant-level *tracking points* — "Viden creates
//! multiple sets of tracking points from non-ACK voltage samples … and uses
//! them to create a voltage profile where each profile is unique to an
//! ECU."
//!
//! Tracking points here are the two steady-state levels and the rising-edge
//! overshoot peak, accumulated into per-ECU running profiles; attribution is
//! nearest-profile in the tracking-point space, normalized by the profile's
//! own spread.

use crate::{BaselineVerdict, SenderIdentifier};
use std::collections::BTreeMap;
use vprofile::{AnomalyKind, ClusterId, LabeledEdgeSet, ScratchArena, VProfileError, Verdict};
use vprofile_can::SourceAddress;
use vprofile_detector_core::DetectionBackend;
use vprofile_sigstat::SigStatError;

/// Dimension of the tracking-point feature: dominant level, recessive
/// level, overshoot peak.
const TRACKING_DIM: usize = 3;

/// One ECU's voltage profile: running mean and spread of its tracking
/// points.
#[derive(Debug, Clone, PartialEq)]
struct VoltageProfile {
    mean: [f64; TRACKING_DIM],
    std: [f64; TRACKING_DIM],
    count: usize,
}

/// A trained Viden-style detector.
#[derive(Debug, Clone)]
pub struct VidenDetector {
    profiles: Vec<VoltageProfile>,
    sa_lut: BTreeMap<u8, usize>,
    /// Acceptance radius in profile-normalized units.
    radius: f64,
}

/// Extracts the tracking points of one edge set: `(dominant level,
/// recessive level, overshoot peak)`.
fn tracking_points(edge_set: &[f64]) -> [f64; TRACKING_DIM] {
    let half = edge_set.len() / 2;
    let (rise, fall) = edge_set.split_at(half);
    let quarter = (half / 4).max(1);
    // Dominant steady: tail of the rising half (settled high level).
    let dominant = mean(&rise[half - quarter..]);
    // Recessive steady: tail of the falling half (settled low level).
    let recessive = mean(&fall[half - quarter..]);
    // Overshoot: the rising half's maximum excursion above the settled
    // dominant level.
    let peak = rise.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    [dominant, recessive, peak - dominant]
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

impl VidenDetector {
    /// Builds per-ECU voltage profiles from labeled edge sets.
    ///
    /// `radius` is the acceptance distance in units of per-dimension
    /// standard deviations (4–6 is a reasonable operating range).
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::EmptyInput`] if any mapped ECU has no
    /// training data.
    pub fn fit(
        data: &[LabeledEdgeSet],
        lut: &BTreeMap<SourceAddress, ClusterId>,
        radius: f64,
    ) -> Result<Self, SigStatError> {
        let classes = lut.values().map(|c| c.0).max().map(|m| m + 1).unwrap_or(0);
        let mut per_class: Vec<Vec<[f64; TRACKING_DIM]>> = vec![Vec::new(); classes];
        for item in data {
            if let Some(cluster) = lut.get(&item.sa) {
                per_class[cluster.0].push(tracking_points(item.edge_set.samples()));
            }
        }
        let mut profiles = Vec::with_capacity(classes);
        for class in &per_class {
            if class.len() < 2 {
                return Err(SigStatError::EmptyInput {
                    context: "VidenDetector::fit (ecu without training data)",
                });
            }
            let mut profile_mean = [0.0; TRACKING_DIM];
            for tp in class {
                for (m, &v) in profile_mean.iter_mut().zip(tp) {
                    *m += v;
                }
            }
            for m in &mut profile_mean {
                *m /= class.len() as f64;
            }
            let mut profile_std = [0.0; TRACKING_DIM];
            for tp in class {
                for (s, (&v, &m)) in profile_std.iter_mut().zip(tp.iter().zip(&profile_mean)) {
                    *s += (v - m) * (v - m);
                }
            }
            for s in &mut profile_std {
                *s = (*s / (class.len() as f64 - 1.0)).sqrt().max(1e-9);
            }
            profiles.push(VoltageProfile {
                mean: profile_mean,
                std: profile_std,
                count: class.len(),
            });
        }
        Ok(VidenDetector {
            profiles,
            sa_lut: lut.iter().map(|(sa, c)| (sa.raw(), c.0)).collect(),
            radius,
        })
    }

    /// Normalized distance of tracking points to one profile.
    fn profile_distance(&self, profile: usize, tp: &[f64; TRACKING_DIM]) -> f64 {
        let p = &self.profiles[profile];
        tp.iter()
            .zip(p.mean.iter().zip(&p.std))
            .map(|(&v, (&m, &s))| {
                let z = (v - m) / s;
                z * z
            })
            .sum::<f64>()
            .sqrt()
    }

    /// The profile closest to an observation — Viden's attribution step
    /// ("a method to enhance an existing IDS by providing the ability to
    /// identify the attacking device").
    pub fn attribute(&self, observation: &LabeledEdgeSet) -> (ClusterId, f64) {
        let tp = tracking_points(observation.edge_set.samples());
        let mut best = (0usize, f64::INFINITY);
        for idx in 0..self.profiles.len() {
            let d = self.profile_distance(idx, &tp);
            if d < best.1 {
                best = (idx, d);
            }
        }
        (ClusterId(best.0), best.1)
    }

    /// Number of stored profiles.
    pub fn profile_count(&self) -> usize {
        self.profiles.len()
    }

    /// Absorbs additional tracking points into an ECU's profile — Viden
    /// continuously updates its profiles as the bus voltage drifts.
    pub fn update_profile(&mut self, cluster: ClusterId, observation: &LabeledEdgeSet) {
        let tp = tracking_points(observation.edge_set.samples());
        self.absorb_tracking_points(cluster.0, &tp);
    }

    /// Running-mean update of one profile from a single tracking-point
    /// observation; allocation-free.
    fn absorb_tracking_points(&mut self, cluster: usize, tp: &[f64; TRACKING_DIM]) {
        let Some(profile) = self.profiles.get_mut(cluster) else {
            return;
        };
        profile.count += 1;
        let n = profile.count as f64;
        for (m, &v) in profile.mean.iter_mut().zip(tp) {
            *m += (v - *m) / n;
        }
    }
}

impl DetectionBackend for VidenDetector {
    fn name(&self) -> &'static str {
        "viden"
    }

    fn train(
        &mut self,
        data: &[LabeledEdgeSet],
        lut: &BTreeMap<SourceAddress, ClusterId>,
    ) -> Result<(), VProfileError> {
        *self = VidenDetector::fit(data, lut, self.radius).map_err(VProfileError::Numeric)?;
        Ok(())
    }

    /// Streaming attribution over the tracking points of the edge set in
    /// `scratch.edge_set`. Allocation-free: the tracking-point feature is a
    /// fixed-size array and the nearest-profile scan needs no buffers.
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
        let tp = tracking_points(&scratch.edge_set);
        let mut best = (0usize, f64::INFINITY);
        for idx in 0..self.profiles.len() {
            let d = self.profile_distance(idx, &tp);
            if d < best.1 {
                best = (idx, d);
            }
        }
        let (predicted, distance) = best;
        if predicted != expected {
            return Verdict::Anomaly {
                kind: AnomalyKind::ClusterMismatch {
                    expected: ClusterId(expected),
                    predicted: ClusterId(predicted),
                    distance,
                },
            };
        }
        if distance > self.radius {
            return Verdict::Anomaly {
                kind: AnomalyKind::ThresholdExceeded {
                    cluster: ClusterId(expected),
                    distance,
                    limit: self.radius,
                },
            };
        }
        Verdict::Ok {
            cluster: ClusterId(expected),
            distance,
        }
    }

    /// Viden's continuous profile update: the accepted edge set's tracking
    /// points are folded into the claimed SA's profile mean immediately
    /// (no pending buffer, no allocation).
    // xtask: cold
    fn absorb(&mut self, sa: SourceAddress, edge_set: &[f64]) {
        let Some(&cluster) = self.sa_lut.get(&sa.raw()) else {
            return;
        };
        if edge_set.len() < 8 {
            return;
        }
        let tp = tracking_points(edge_set);
        self.absorb_tracking_points(cluster, &tp);
    }
}

impl SenderIdentifier for VidenDetector {
    fn name(&self) -> &'static str {
        "Viden-style"
    }

    fn classify(&self, observation: &LabeledEdgeSet) -> BaselineVerdict {
        let Some(&expected) = self.sa_lut.get(&observation.sa.raw()) else {
            return BaselineVerdict::Anomalous;
        };
        let (predicted, _) = self.attribute(observation);
        if predicted.0 != expected {
            return BaselineVerdict::Anomalous;
        }
        let tp = tracking_points(observation.edge_set.samples());
        if self.profile_distance(expected, &tp) > self.radius {
            return BaselineVerdict::Anomalous;
        }
        BaselineVerdict::Legitimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vprofile::EdgeSet;

    /// Edge-set-shaped synthetic data: rising half settles at `level`,
    /// falling half settles near zero.
    fn synthetic(rng: &mut StdRng, sa: u8, level: f64, n: usize) -> Vec<LabeledEdgeSet> {
        (0..n)
            .map(|_| {
                let mut samples = Vec::with_capacity(16);
                for i in 0..8 {
                    let v = if i < 4 { level * i as f64 / 4.0 } else { level };
                    samples.push(v + rng.random_range(-2.0..2.0));
                }
                for i in 0..8 {
                    let v = if i < 4 {
                        level * (1.0 - i as f64 / 4.0)
                    } else {
                        0.0
                    };
                    samples.push(v + rng.random_range(-2.0..2.0));
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

    fn train(rng: &mut StdRng) -> (VidenDetector, Vec<LabeledEdgeSet>, Vec<LabeledEdgeSet>) {
        let a = synthetic(rng, 1, 1000.0, 40);
        let b = synthetic(rng, 2, 1400.0, 40);
        let mut data = a.clone();
        data.extend(b.clone());
        (VidenDetector::fit(&data, &lut(), 6.0).unwrap(), a, b)
    }

    #[test]
    fn tracking_points_capture_levels() {
        let mut rng = StdRng::seed_from_u64(1);
        let sample = &synthetic(&mut rng, 1, 1000.0, 1)[0];
        let tp = tracking_points(sample.edge_set.samples());
        assert!((tp[0] - 1000.0).abs() < 10.0, "dominant {tp:?}");
        assert!(tp[1].abs() < 10.0, "recessive {tp:?}");
        assert!(tp[2] >= 0.0, "overshoot is non-negative");
    }

    #[test]
    fn genuine_messages_pass() {
        let mut rng = StdRng::seed_from_u64(2);
        let (detector, a, _) = train(&mut rng);
        let fresh = synthetic(&mut rng, 1, 1000.0, 20);
        let passed = a
            .iter()
            .chain(&fresh)
            .filter(|m| !detector.classify(m).is_anomaly())
            .count();
        assert!(passed as f64 / 60.0 > 0.9);
    }

    #[test]
    fn impersonation_is_attributed_to_the_real_sender() {
        let mut rng = StdRng::seed_from_u64(3);
        let (detector, _, b) = train(&mut rng);
        let attack = b[0].with_sa(SourceAddress(1));
        assert!(detector.classify(&attack).is_anomaly());
        let (origin, _) = detector.attribute(&attack);
        assert_eq!(origin, ClusterId(1), "attack origin identified");
    }

    #[test]
    fn unknown_sa_is_anomalous() {
        let mut rng = StdRng::seed_from_u64(4);
        let (detector, a, _) = train(&mut rng);
        assert!(detector
            .classify(&a[0].with_sa(SourceAddress(0x70)))
            .is_anomaly());
    }

    #[test]
    fn profile_update_tracks_drift() {
        let mut rng = StdRng::seed_from_u64(5);
        let (mut detector, _, _) = train(&mut rng);
        // Drifted traffic from ECU 0 (level 1030 instead of 1000).
        let drifted = synthetic(&mut rng, 1, 1030.0, 50);
        let before: usize = drifted
            .iter()
            .filter(|m| detector.classify(m).is_anomaly())
            .count();
        for m in &drifted {
            detector.update_profile(ClusterId(0), m);
        }
        let after: usize = drifted
            .iter()
            .filter(|m| detector.classify(m).is_anomaly())
            .count();
        assert!(after <= before, "updates must not worsen drift handling");
    }

    #[test]
    fn streaming_verdicts_agree_with_batch_classify() {
        let mut rng = StdRng::seed_from_u64(7);
        let (mut detector, a, b) = train(&mut rng);
        let mut scratch = ScratchArena::new();
        let attacks: Vec<LabeledEdgeSet> = b.iter().map(|m| m.with_sa(SourceAddress(1))).collect();
        for obs in a.iter().chain(&attacks) {
            scratch.edge_set.clear();
            scratch.edge_set.extend_from_slice(obs.edge_set.samples());
            let streamed = detector.classify_into(&mut scratch, obs.sa);
            let batch = detector.classify(obs);
            assert_eq!(streamed.is_anomaly(), batch.is_anomaly(), "{streamed:?}");
        }
        // Unknown SA and degenerate windows are anomalous, fail-closed.
        let unknown = detector.classify_into(&mut scratch, SourceAddress(0x70));
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
    fn backend_absorb_matches_update_profile() {
        let mut rng = StdRng::seed_from_u64(8);
        let (mut via_backend, _, _) = train(&mut rng);
        let mut rng = StdRng::seed_from_u64(8);
        let (mut via_update, _, _) = train(&mut rng);
        let mut rng = StdRng::seed_from_u64(9);
        let drifted = synthetic(&mut rng, 1, 1030.0, 30);
        for m in &drifted {
            DetectionBackend::absorb(&mut via_backend, m.sa, m.edge_set.samples());
            via_update.update_profile(ClusterId(0), m);
        }
        assert_eq!(via_backend.profiles, via_update.profiles);
    }

    #[test]
    fn training_requires_data_for_every_ecu() {
        let mut rng = StdRng::seed_from_u64(6);
        let only_a = synthetic(&mut rng, 1, 1000.0, 10);
        assert!(VidenDetector::fit(&only_a, &lut(), 6.0).is_err());
    }
}
