//! The reference [`DetectionBackend`]: vProfile's Mahalanobis
//! nearest-cluster detector with batched scoring and §5.3 online updates.

use crate::DetectionBackend;
use vprofile::{Detector, Model, ScratchArena, UpdateBatch, UpdateScratch, Verdict};
use vprofile_can::SourceAddress;

/// How many absorbed observations are buffered before an online update is
/// applied, amortizing the refactorization.
const UPDATE_BATCH: usize = 16;

/// vProfile's trained model plus the mutable state the streaming pipeline
/// needs: the pending online-update buffer and the drift baseline.
///
/// This is the logic that used to live inside `ids::IdsEngine`, extracted
/// so the engine can treat vProfile as one [`DetectionBackend`] among
/// several. Frames score through the model's own stacked rows
/// ([`Detector::classify_parts`]), which the §5.3 update keeps current.
/// Neither the steady-state [`DetectionBackend::classify_into`] path nor
/// the write path ([`DetectionBackend::absorb`] and the applied batch)
/// performs heap allocations once warm (enforced by the bench crate's
/// counting allocator).
#[derive(Debug)]
pub struct VProfileBackend {
    model: Model,
    margin: f64,
    /// Absorbed observations awaiting the next applied batch, reserved for
    /// a full batch.
    pending: UpdateBatch,
    /// Working memory of the applied batch (a clone starts empty; a copy
    /// into an existing backend keeps that backend's own).
    scratch: UpdateScratch,
    /// Cluster means as of the last train/install, the reference the
    /// poisoning drift guard measures against.
    baseline_means: Vec<Vec<f64>>,
    /// [`DetectionBackend::update_drift`], measured whenever the means
    /// change: after an applied batch, and zero at an install.
    drift: f64,
}

impl Clone for VProfileBackend {
    fn clone(&self) -> Self {
        VProfileBackend {
            model: self.model.clone(),
            margin: self.margin,
            pending: self.pending.clone(),
            scratch: self.scratch.clone(),
            baseline_means: self.baseline_means.clone(),
            drift: self.drift,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let VProfileBackend {
            model,
            margin,
            pending,
            scratch,
            baseline_means,
            drift,
        } = self;
        model.clone_from(&source.model);
        *margin = source.margin;
        pending.clone_from(&source.pending);
        scratch.clone_from(&source.scratch);
        baseline_means.clone_from(&source.baseline_means);
        *drift = source.drift;
    }
}

/// Snapshots every cluster mean of `model` for drift measurement.
fn baseline_of(model: &Model) -> Vec<Vec<f64>> {
    model.clusters().iter().map(|c| c.mean().to_vec()).collect()
}

impl VProfileBackend {
    /// Wraps a trained model with the thesis' threshold margin `k`.
    pub fn new(model: Model, margin: f64) -> Self {
        let baseline_means = baseline_of(&model);
        let pending = UpdateBatch::with_capacity(UPDATE_BATCH, model.dim());
        VProfileBackend {
            model,
            margin,
            pending,
            scratch: UpdateScratch::default(),
            baseline_means,
            drift: 0.0,
        }
    }

    /// The current model (reflects online updates).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The detection threshold margin.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Replaces the model after an external retrain, dropping buffered
    /// updates. The new model is its own drift baseline.
    pub fn install_model(&mut self, model: Model) {
        self.baseline_means = baseline_of(&model);
        self.model = model;
        self.pending.clear();
        self.drift = 0.0;
    }

    /// The largest Euclidean displacement of any cluster mean from its
    /// baseline.
    // xtask: cold
    fn measure_drift(&self) -> f64 {
        let mut worst = 0.0f64;
        for (cluster, base) in self.model.clusters().iter().zip(&self.baseline_means) {
            if cluster.mean().len() != base.len() {
                continue;
            }
            let sq: f64 = cluster
                .mean()
                .iter()
                .zip(base)
                .map(|(a, b)| {
                    let d = a - b;
                    d * d
                })
                .sum();
            let d = sq.sqrt();
            if d > worst {
                worst = d;
            }
        }
        worst
    }
}

impl DetectionBackend for VProfileBackend {
    fn name(&self) -> &'static str {
        "vprofile"
    }

    // xtask: hot-path
    fn classify_into(&mut self, scratch: &mut ScratchArena, sa: SourceAddress) -> Verdict {
        Detector::with_margin(&self.model, self.margin).classify_parts(sa, &scratch.edge_set)
    }

    // xtask: cold
    fn absorb(&mut self, sa: SourceAddress, edge_set: &[f64]) {
        self.pending.push(sa, edge_set);
        // Batch pending updates to amortize refactorization.
        if self.pending.len() >= UPDATE_BATCH {
            self.apply_pending_updates();
        }
    }

    // xtask: cold
    fn apply_pending_updates(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        // A failed update (e.g. covariance went singular) keeps the
        // clusters refit before the failure and drops the rest of the
        // batch: the previous statistics stay in force for those, which is
        // the safe behaviour for a monitor.
        let _ = self
            .model
            .update_online_with(&self.pending, &mut self.scratch);
        self.pending.clear();
        self.drift = self.measure_drift();
    }

    fn discard_pending_for(&mut self, sa: SourceAddress) {
        self.pending.discard(sa);
    }

    fn retrain_due(&self, bound: usize) -> bool {
        self.model.needs_retrain(bound)
    }

    fn update_drift(&self) -> f64 {
        self.drift
    }

    fn calibrated_score(&self, sa: SourceAddress, verdict: &Verdict) -> Option<f64> {
        let _ = sa;
        // Accepted frames: vProfile knows the exact per-cluster limit
        // (`max_distance + margin`), so scale the distance against it —
        // sharper than the default's unitless squash. Everything else
        // already carries its limit in the verdict; fall through.
        if let Verdict::Ok { cluster, distance } = verdict {
            if let Some(stats) = self.model.clusters().get(cluster.0) {
                let limit = stats.max_distance() + self.margin;
                if limit > f64::EPSILON {
                    return Some(0.5 * (distance / limit).clamp(0.0, 1.0));
                }
            }
        }
        crate::default_calibration(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vprofile::{EdgeSetExtractor, LabeledEdgeSet, Trainer, VProfileConfig};
    use vprofile_vehicle::{CaptureConfig, Vehicle};

    fn trained() -> (VProfileBackend, Vec<LabeledEdgeSet>) {
        let vehicle = Vehicle::vehicle_b(17);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(400).with_seed(17))
            .unwrap();
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
        let labeled = extracted.labeled();
        let model = Trainer::new(config)
            .train_with_lut(&labeled, &vehicle.sa_lut())
            .unwrap();
        (VProfileBackend::new(model, 2.0), labeled)
    }

    #[test]
    fn classify_into_matches_direct_detector() {
        let (mut backend, observations) = trained();
        let model = backend.model().clone();
        let mut scratch = ScratchArena::new();
        for obs in observations.iter().take(40) {
            scratch.edge_set.clear();
            scratch.edge_set.extend_from_slice(obs.edge_set.samples());
            let backend_verdict = backend.classify_into(&mut scratch, obs.sa);
            let direct = Detector::with_margin(&model, 2.0).classify(obs);
            // Debug renders every f64 in shortest round-trip form, so equal
            // strings are equal verdict bits.
            assert_eq!(format!("{backend_verdict:?}"), format!("{direct:?}"));
        }
    }

    #[test]
    fn absorb_batches_and_grows_counts() {
        let (mut backend, observations) = trained();
        let before: usize = backend.model().clusters().iter().map(|c| c.count()).sum();
        for obs in observations.iter().take(40) {
            backend.absorb(obs.sa, obs.edge_set.samples());
        }
        backend.apply_pending_updates();
        let after: usize = backend.model().clusters().iter().map(|c| c.count()).sum();
        assert!(after > before, "counts must grow: {before} → {after}");
    }

    #[test]
    fn discard_pending_suppresses_quarantined_sa() {
        let (mut backend, observations) = trained();
        let before: usize = backend.model().clusters().iter().map(|c| c.count()).sum();
        let sa = observations[0].sa;
        for obs in observations.iter().filter(|o| o.sa == sa).take(8) {
            backend.absorb(obs.sa, obs.edge_set.samples());
        }
        backend.discard_pending_for(sa);
        backend.apply_pending_updates();
        let after: usize = backend.model().clusters().iter().map(|c| c.count()).sum();
        assert_eq!(after, before, "discarded updates must not grow the model");
    }

    #[test]
    fn update_drift_tracks_mean_movement_and_resets_on_install() {
        let (mut backend, observations) = trained();
        assert!(
            backend.update_drift().abs() < 1e-12,
            "fresh model: no drift"
        );

        // Absorb shifted copies of one SA's observations: the cluster mean
        // must move and the drift measure must see it.
        let sa = observations[0].sa;
        let donors: Vec<&LabeledEdgeSet> = observations
            .iter()
            .filter(|o| o.sa == sa)
            .take(32)
            .collect();
        for obs in &donors {
            let shifted: Vec<f64> = obs.edge_set.samples().iter().map(|s| s + 50.0).collect();
            backend.absorb(sa, &shifted);
        }
        backend.apply_pending_updates();
        let drifted = backend.update_drift();
        assert!(drifted > 0.0, "absorbed shift must register as drift");

        // Re-installing a model re-baselines: drift returns to zero.
        let model = backend.model().clone();
        backend.install_model(model);
        assert!(backend.update_drift().abs() < 1e-12, "install resets drift");
    }

    #[test]
    fn calibrated_score_tracks_cluster_limits() {
        let (mut backend, observations) = trained();
        let mut scratch = ScratchArena::new();
        for obs in observations.iter().take(40) {
            scratch.edge_set.clear();
            scratch.edge_set.extend_from_slice(obs.edge_set.samples());
            let verdict = backend.classify_into(&mut scratch, obs.sa);
            let score = backend.calibrated_score(obs.sa, &verdict);
            match verdict {
                Verdict::Ok { .. } => {
                    let s = score.expect("accepted frames must score");
                    assert!(
                        (0.0..0.5).contains(&s),
                        "accepted frame must land below the boundary: {s}"
                    );
                }
                Verdict::Anomaly { .. } => {
                    if let Some(s) = score {
                        assert!(s >= 0.5, "alarms must land at or above the boundary: {s}");
                    }
                }
            }
        }
    }
}
