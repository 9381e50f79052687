use serde::{Deserialize, Serialize};
use std::fmt;

/// A binary confusion matrix in the thesis' orientation: "positive" means
/// *anomaly*.
///
/// ```text
///                    Predicted
///                 Anomaly   Normal
/// Actual Anomaly      TP        FN
///        Normal       FP        TN
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// Attacks flagged as anomalies.
    pub true_positives: u64,
    /// Legitimate messages flagged as anomalies.
    pub false_positives: u64,
    /// Legitimate messages passed as normal.
    pub true_negatives: u64,
    /// Attacks passed as normal.
    pub false_negatives: u64,
}

impl ConfusionMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one classification.
    pub fn record(&mut self, actual_attack: bool, predicted_attack: bool) {
        match (actual_attack, predicted_attack) {
            (true, true) => self.true_positives += 1,
            (true, false) => self.false_negatives += 1,
            (false, true) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Total classifications recorded.
    pub fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Fraction of correct classifications. Returns 1.0 for an empty
    /// matrix (vacuous truth, keeps margin sweeps well-defined).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        (self.true_positives + self.true_negatives) as f64 / total as f64
    }

    /// TP / (TP + FP); 1.0 when no positives were predicted.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            return 1.0;
        }
        self.true_positives as f64 / denom as f64
    }

    /// TP / (TP + FN); 1.0 when no attacks were present.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            return 1.0;
        }
        self.true_positives as f64 / denom as f64
    }

    /// Harmonic mean of precision and recall. Zero when both are zero.
    pub fn f_score(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        // Exact zero is the division guard here, not a tolerance check.
        if vprofile_sigstat::exactly_zero(p + r) {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }

    /// Merges another matrix's counts into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.true_negatives += other.true_negatives;
        self.false_negatives += other.false_negatives;
    }
}

impl fmt::Display for ConfusionMatrix {
    /// Renders the thesis' Actual × Predicted layout.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "                  Predicted")?;
        writeln!(f, "                  Anomaly     Normal")?;
        writeln!(
            f,
            "Actual Anomaly {:>10} {:>10}",
            self.true_positives, self.false_negatives
        )?;
        write!(
            f,
            "       Normal  {:>10} {:>10}",
            self.false_positives, self.true_negatives
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> ConfusionMatrix {
        ConfusionMatrix {
            true_positives: 80,
            false_positives: 10,
            true_negatives: 100,
            false_negatives: 20,
        }
    }

    #[test]
    fn record_routes_to_the_right_cell() {
        let mut m = ConfusionMatrix::new();
        m.record(true, true);
        m.record(true, false);
        m.record(false, true);
        m.record(false, false);
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.false_negatives, 1);
        assert_eq!(m.false_positives, 1);
        assert_eq!(m.true_negatives, 1);
        assert_eq!(m.total(), 4);
    }

    #[test]
    fn metrics_match_hand_computation() {
        let m = sample();
        assert!((m.accuracy() - 180.0 / 210.0).abs() < 1e-12);
        assert!((m.precision() - 80.0 / 90.0).abs() < 1e-12);
        assert!((m.recall() - 0.8).abs() < 1e-12);
        let p = 80.0 / 90.0;
        let r = 0.8;
        assert!((m.f_score() - 2.0 * p * r / (p + r)).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_degenerates_gracefully() {
        let m = ConfusionMatrix::new();
        assert_eq!(m.accuracy().to_bits(), 1.0_f64.to_bits());
        assert_eq!(m.precision().to_bits(), 1.0_f64.to_bits());
        assert_eq!(m.recall().to_bits(), 1.0_f64.to_bits());
        assert!(m.f_score() > 0.0);
    }

    #[test]
    fn all_wrong_has_zero_f() {
        let m = ConfusionMatrix {
            true_positives: 0,
            false_positives: 5,
            true_negatives: 0,
            false_negatives: 5,
        };
        assert_eq!(m.f_score().to_bits(), 0.0_f64.to_bits());
        assert_eq!(m.accuracy().to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn display_contains_all_counts() {
        let s = sample().to_string();
        for v in ["80", "10", "100", "20"] {
            assert!(s.contains(v), "missing {v} in {s}");
        }
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.true_positives, 160);
        assert_eq!(a.total(), 420);
    }

    proptest! {
        /// Accuracy, precision, recall, and F are always within [0, 1].
        #[test]
        fn prop_metrics_bounded(
            tp in 0u64..1000, fp in 0u64..1000, tn in 0u64..1000, fneg in 0u64..1000
        ) {
            let m = ConfusionMatrix {
                true_positives: tp,
                false_positives: fp,
                true_negatives: tn,
                false_negatives: fneg,
            };
            for v in [m.accuracy(), m.precision(), m.recall(), m.f_score()] {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }

        /// F-score is bounded by min(precision, recall) ≤ F ≤ max(...)
        /// whenever both are defined with predicted and actual positives.
        #[test]
        fn prop_f_between_p_and_r(
            tp in 1u64..1000, fp in 0u64..1000, fneg in 0u64..1000
        ) {
            let m = ConfusionMatrix {
                true_positives: tp,
                false_positives: fp,
                true_negatives: 0,
                false_negatives: fneg,
            };
            let (p, r, f) = (m.precision(), m.recall(), m.f_score());
            prop_assert!(f <= p.max(r) + 1e-12);
            prop_assert!(f >= p.min(r) - 1e-12);
        }
    }
}
