//! ROC analysis of the distance-threshold detector.
//!
//! The thesis picks one operating point per test by sweeping the margin
//! (§4.2); the full picture is the ROC curve traced as the threshold moves
//! from 0 to ∞. This module computes it from raw distance scores, giving
//! threshold-free comparisons (AUC, equal error rate) between metrics and
//! between systems — the evaluation the voltage-IDS literature (e.g.
//! SIMPLE's EER thresholds) works in.

use crate::ConfusionMatrix;
use serde::{Deserialize, Serialize};
use vprofile::{Detector, Model, Verdict};
use vprofile_vehicle::attack::TestMessage;

/// One point on a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// Detection threshold (margin) producing this point.
    pub threshold: f64,
    /// False-positive rate (legitimate flagged).
    pub fpr: f64,
    /// True-positive rate (attacks flagged).
    pub tpr: f64,
}

/// A ROC curve with its summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RocCurve {
    /// Points ordered by increasing FPR.
    pub points: Vec<RocPoint>,
    /// Area under the curve (trapezoidal).
    pub auc: f64,
    /// The equal-error-rate operating point (FPR ≈ 1 − TPR).
    pub eer: f64,
}

/// Scores every message with the margin-style statistic the detector
/// thresholds: `distance − cluster max_distance` for messages whose claimed
/// and nearest clusters agree, `+∞` for cluster mismatches and unknown SAs
/// (they are anomalous at every margin).
///
/// Returns `(score, is_attack)` pairs.
fn margin_scores(model: &Model, messages: &[TestMessage]) -> Vec<(f64, bool)> {
    // A zero-margin detector exposes the three anomaly kinds; the
    // threshold statistic is recovered from the verdict details.
    let detector = Detector::with_margin(model, 0.0);
    messages
        .iter()
        .map(|message| {
            let score = match detector.classify(&message.observation) {
                Verdict::Ok { cluster, distance } => {
                    distance - model.cluster(cluster).max_distance()
                }
                Verdict::Anomaly {
                    kind:
                        vprofile::AnomalyKind::ThresholdExceeded {
                            cluster, distance, ..
                        },
                } => distance - model.cluster(cluster).max_distance(),
                Verdict::Anomaly { .. } => f64::INFINITY,
            };
            (score, message.is_attack)
        })
        .collect()
}

/// Builds the ROC curve of the margin-threshold detector over a test set.
///
/// # Panics
///
/// Panics if the test set has no attacks or no legitimate messages (the
/// curve is undefined).
pub fn roc_curve(model: &Model, messages: &[TestMessage]) -> RocCurve {
    let mut scores = margin_scores(model, messages);
    let positives = scores.iter().filter(|(_, attack)| *attack).count();
    let negatives = scores.len() - positives;
    assert!(positives > 0, "ROC needs at least one attack");
    assert!(negatives > 0, "ROC needs at least one legitimate message");

    // Sweep the threshold from +∞ down: each score is a candidate cut.
    scores.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut points = Vec::with_capacity(scores.len() + 1);
    points.push(RocPoint {
        threshold: f64::INFINITY,
        fpr: 0.0,
        tpr: 0.0,
    });
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut i = 0usize;
    while i < scores.len() {
        // Consume ties together so the curve is well-defined. A tie is
        // exact equality: scores a rounding step apart are distinct cuts.
        let cut = scores[i].0;
        #[allow(clippy::float_cmp)]
        while i < scores.len() && scores[i].0 == cut {
            if scores[i].1 {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        points.push(RocPoint {
            threshold: cut,
            fpr: fp as f64 / negatives as f64,
            tpr: tp as f64 / positives as f64,
        });
    }

    // Trapezoidal AUC.
    let mut auc = 0.0;
    for pair in points.windows(2) {
        auc += (pair[1].fpr - pair[0].fpr) * (pair[0].tpr + pair[1].tpr) / 2.0;
    }

    // EER: where FPR crosses 1 − TPR.
    let mut eer = 1.0;
    let mut best_gap = f64::INFINITY;
    for p in &points {
        let gap = (p.fpr - (1.0 - p.tpr)).abs();
        if gap < best_gap {
            best_gap = gap;
            eer = (p.fpr + (1.0 - p.tpr)) / 2.0;
        }
    }

    RocCurve { points, auc, eer }
}

/// Confusion matrix at a fixed margin, for cross-checking a ROC point
/// against the operational detector.
pub fn confusion_at(model: &Model, margin: f64, messages: &[TestMessage]) -> ConfusionMatrix {
    crate::evaluate_messages(model, margin, messages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentFixture, VehicleKind};
    use vprofile_sigstat::DistanceMetric;
    use vprofile_vehicle::attack::{foreign_device_test, hijack_imitation_test};

    fn fixture() -> (ExperimentFixture, Model) {
        let fx = ExperimentFixture::prepare(VehicleKind::B, DistanceMetric::Mahalanobis, 800, 31)
            .expect("fixture");
        let model = fx.train_model().expect("training");
        (fx, model)
    }

    #[test]
    fn hijack_roc_is_nearly_perfect() {
        let (fx, model) = fixture();
        let messages = hijack_imitation_test(&fx.test_extracted(), &fx.lut, 0.2, 5);
        let roc = roc_curve(&model, &messages);
        assert!(roc.auc > 0.995, "AUC {}", roc.auc);
        assert!(roc.eer < 0.02, "EER {}", roc.eer);
    }

    #[test]
    fn roc_curve_is_monotone_and_anchored() {
        let (fx, model) = fixture();
        let messages = hijack_imitation_test(&fx.test_extracted(), &fx.lut, 0.2, 5);
        let roc = roc_curve(&model, &messages);
        assert_eq!(roc.points[0].fpr, 0.0);
        assert_eq!(roc.points[0].tpr, 0.0);
        let last = roc.points.last().expect("non-empty");
        assert!((last.fpr - 1.0).abs() < 1e-12);
        assert!((last.tpr - 1.0).abs() < 1e-12);
        for pair in roc.points.windows(2) {
            assert!(pair[1].fpr >= pair[0].fpr);
            assert!(pair[1].tpr >= pair[0].tpr);
        }
    }

    #[test]
    fn foreign_device_roc_dominates_chance() {
        let (fx, model) = fixture();
        let (attacker, victim, _) =
            crate::most_similar_pair(&model, DistanceMetric::Mahalanobis).unwrap();
        let reduced = fx.train_model_without_ecu(attacker).expect("training");
        let victim_sa = *fx
            .lut
            .iter()
            .find(|(_, c)| c.0 == victim)
            .map(|(sa, _)| sa)
            .expect("victim sa");
        let messages = foreign_device_test(&fx.test_extracted(), attacker, victim_sa);
        let roc = roc_curve(&reduced, &messages);
        assert!(roc.auc > 0.9, "AUC {}", roc.auc);
    }

    #[test]
    fn mahalanobis_auc_beats_euclidean_on_vehicle_b() {
        // The metric choice of §4.2, stated threshold-free.
        let fx_m = ExperimentFixture::prepare(VehicleKind::B, DistanceMetric::Mahalanobis, 800, 31)
            .expect("fixture");
        let fx_e = ExperimentFixture::prepare(VehicleKind::B, DistanceMetric::Euclidean, 800, 31)
            .expect("fixture");
        let model_m = fx_m.train_model().expect("training");
        let model_e = fx_e.train_model().expect("training");
        let msgs_m = hijack_imitation_test(&fx_m.test_extracted(), &fx_m.lut, 0.2, 9);
        let msgs_e = hijack_imitation_test(&fx_e.test_extracted(), &fx_e.lut, 0.2, 9);
        let auc_m = roc_curve(&model_m, &msgs_m).auc;
        let auc_e = roc_curve(&model_e, &msgs_e).auc;
        // At this seed Euclidean is respectable but imperfect; the gap is
        // small in AUC terms yet decisive operationally (Table 4.2 vs 4.4).
        assert!(
            auc_m > auc_e,
            "Mahalanobis AUC {auc_m} must beat Euclidean {auc_e}"
        );
        assert!((auc_m - 1.0).abs() < 1e-6, "Mahalanobis is perfect here");
    }

    #[test]
    #[should_panic(expected = "at least one attack")]
    fn roc_requires_attacks() {
        let (fx, model) = fixture();
        let messages = vprofile_vehicle::attack::false_positive_test(&fx.test_extracted());
        let _ = roc_curve(&model, &messages);
    }
}
