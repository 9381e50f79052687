//! Detection-margin selection (thesis §4.2: "We selected the margin to
//! maximize the accuracy for the false positive test and the F-score for
//! the other two tests").

use crate::{evaluate_messages, ConfusionMatrix};
use serde::{Deserialize, Serialize};
use vprofile::{ClusterId, Model};
use vprofile_vehicle::attack::TestMessage;

/// What the margin sweep optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MarginObjective {
    /// Maximize accuracy (the false-positive test).
    Accuracy,
    /// Maximize F-score (the hijack and foreign-device tests).
    FScore,
}

impl MarginObjective {
    fn score(self, m: &ConfusionMatrix) -> f64 {
        match self {
            MarginObjective::Accuracy => m.accuracy(),
            MarginObjective::FScore => m.f_score(),
        }
    }
}

/// Margin factors swept, relative to the model's mean max-distance
/// threshold. Zero margin is always included; the largest factors emulate
/// the thesis' "increase the margin to remove all false positives" probes.
const MARGIN_FACTORS: [f64; 14] = [
    0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 2.0, 5.0, 10.0,
];

/// Sweeps the detection margin and returns the `(margin, confusion)` pair
/// maximizing the objective. Ties prefer the smaller margin (tighter
/// detector).
///
/// Candidate margins are scaled to the model's own distance regime (the
/// mean per-cluster max distance), so the same sweep works for Euclidean
/// distances in the thousands of code units and Mahalanobis distances
/// around ten.
pub fn select_margin(
    model: &Model,
    messages: &[TestMessage],
    objective: MarginObjective,
) -> (f64, ConfusionMatrix) {
    let scale = mean_max_distance(model).max(f64::MIN_POSITIVE);
    let mut best: Option<(f64, ConfusionMatrix, f64)> = None;
    for &factor in &MARGIN_FACTORS {
        let margin = factor * scale;
        let confusion = evaluate_messages(model, margin, messages);
        let score = objective.score(&confusion);
        let better = match &best {
            None => true,
            Some((_, _, best_score)) => score > *best_score + 1e-12,
        };
        if better {
            best = Some((margin, confusion, score));
        }
    }
    let Some((margin, confusion, _)) = best else {
        // Unreachable: MARGIN_FACTORS is a non-empty const, so the loop
        // always seeds `best` on its first iteration.
        return (0.0, ConfusionMatrix::default());
    };
    (margin, confusion)
}

fn mean_max_distance(model: &Model) -> f64 {
    let n = model.cluster_count();
    (0..n)
        .map(|i| model.cluster(ClusterId(i)).max_distance())
        .sum::<f64>()
        / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentFixture, VehicleKind};
    use vprofile_sigstat::DistanceMetric;
    use vprofile_vehicle::attack::{false_positive_test, hijack_imitation_test};

    fn fixture() -> (ExperimentFixture, Model) {
        let fx = ExperimentFixture::prepare(VehicleKind::B, DistanceMetric::Mahalanobis, 800, 5)
            .unwrap();
        let model = fx.train_model().unwrap();
        (fx, model)
    }

    #[test]
    fn fp_margin_achieves_high_accuracy() {
        let (fx, model) = fixture();
        let messages = false_positive_test(&fx.test_extracted());
        let (margin, confusion) = select_margin(&model, &messages, MarginObjective::Accuracy);
        assert!(margin >= 0.0);
        assert!(
            confusion.accuracy() > 0.97,
            "fp accuracy {} too low",
            confusion.accuracy()
        );
    }

    #[test]
    fn hijack_margin_achieves_high_f() {
        let (fx, model) = fixture();
        let messages = hijack_imitation_test(&fx.test_extracted(), &fx.lut, 0.2, 77);
        let (_, confusion) = select_margin(&model, &messages, MarginObjective::FScore);
        assert!(
            confusion.f_score() > 0.95,
            "hijack F {} too low",
            confusion.f_score()
        );
    }

    #[test]
    fn sweep_prefers_smaller_margin_on_ties() {
        let (fx, model) = fixture();
        let messages = false_positive_test(&fx.test_extracted());
        let at_zero = evaluate_messages(&model, 0.0, &messages);
        let (margin, confusion) = select_margin(&model, &messages, MarginObjective::Accuracy);
        // The sweep can never do worse than margin 0, and when margin 0 is
        // already optimal the tie must resolve to the tighter detector.
        assert!(confusion.accuracy() >= at_zero.accuracy());
        if (confusion.accuracy() - at_zero.accuracy()).abs() < 1e-12 {
            assert_eq!(margin.to_bits(), 0.0_f64.to_bits());
        }
    }
}
