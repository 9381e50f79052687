//! From-scratch reimplementations of the voltage-based sender-identification
//! baselines the thesis compares against (§1.2.1).
//!
//! None of these systems ship usable open-source artifacts, so this crate
//! rebuilds their *detection cores* on top of the same edge-set inputs the
//! vProfile pipeline produces — which makes accuracy and latency directly
//! comparable in the benches:
//!
//! * [`SimpleDetector`] — SIMPLE (Foruhandeh et al.): steady-state features
//!   → Fisher discriminant projection → per-ECU Mahalanobis threshold at the
//!   equal error rate.
//! * [`VidenDetector`] — Viden (Cho & Shin): per-ECU voltage profiles built
//!   from dominant-level tracking points, nearest-profile attribution.
//! * [`ScissionDetector`] — Scission (Kneib & Huth): per-region time-domain
//!   features → (multinomial) logistic regression.
//! * [`VoltageIdsDetector`] — VoltageIDS (Choi et al.): the same per-region
//!   features → one-vs-rest linear SVM with a decision-margin floor.
//!
//! All four implement [`SenderIdentifier`], as does vProfile through the
//! [`VProfileIdentifier`] adapter, so harness code can drive any of them
//! interchangeably.
//!
//! [`VidenDetector`], [`ScissionDetector`], and [`VoltageIdsDetector`]
//! additionally implement the streaming
//! [`vprofile_detector_core::DetectionBackend`] contract (re-exported here
//! as [`DetectionBackend`]): per-edge-set scoring through a
//! [`vprofile::ScratchArena`] with no steady-state allocations — which
//! lets the sharded `vprofile-ids` pipeline run them online, not just in
//! batch experiments.
//!
//! These are *faithful-flavor* reconstructions, not line-by-line ports: each
//! keeps the published method's defining pipeline stages while consuming the
//! reproduction's edge sets instead of the original full-message captures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fda;
mod features;
mod logreg;
mod scission;
mod simple;
mod svm;
mod viden;
mod voltageids;

pub use fda::FisherDiscriminant;
pub use features::{
    region_features, region_features_concat, region_slices, scission_features,
    scission_features_into, split_regions, RegionFeatures,
};
pub use logreg::LogisticRegression;
pub use scission::ScissionDetector;
pub use simple::SimpleDetector;
pub use svm::{LinearSvm, OneVsRestSvm, SvmParams};
pub use viden::VidenDetector;
pub use voltageids::VoltageIdsDetector;
pub use vprofile_detector_core::DetectionBackend;

use vprofile::{Detector, LabeledEdgeSet, Model};

/// The verdict shared by all baseline detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineVerdict {
    /// The waveform is consistent with the claimed source address.
    Legitimate,
    /// The waveform contradicts the claimed source address.
    Anomalous,
}

impl BaselineVerdict {
    /// `true` for [`BaselineVerdict::Anomalous`].
    pub fn is_anomaly(self) -> bool {
        matches!(self, BaselineVerdict::Anomalous)
    }
}

/// A sender-identification system: given a claimed SA and the message's
/// waveform feature, decide whether they are consistent.
pub trait SenderIdentifier {
    /// Human-readable system name for reports.
    fn name(&self) -> &'static str;

    /// Classifies one observation.
    fn classify(&self, observation: &LabeledEdgeSet) -> BaselineVerdict;
}

/// Adapter presenting a trained vProfile [`Model`] through the common
/// baseline interface.
#[derive(Debug, Clone)]
pub struct VProfileIdentifier {
    model: Model,
    margin: f64,
}

impl VProfileIdentifier {
    /// Wraps a trained model with a fixed detection margin.
    pub fn new(model: Model, margin: f64) -> Self {
        VProfileIdentifier { model, margin }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Model {
        &self.model
    }
}

impl SenderIdentifier for VProfileIdentifier {
    fn name(&self) -> &'static str {
        "vProfile"
    }

    fn classify(&self, observation: &LabeledEdgeSet) -> BaselineVerdict {
        let detector = Detector::with_margin(&self.model, self.margin);
        if detector.classify(observation).is_anomaly() {
            BaselineVerdict::Anomalous
        } else {
            BaselineVerdict::Legitimate
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_predicate() {
        assert!(BaselineVerdict::Anomalous.is_anomaly());
        assert!(!BaselineVerdict::Legitimate.is_anomaly());
    }
}
