//! Voter roles: which voters of an engine absorb online updates.
//!
//! An `IdsEngine` writes online updates only to its primary, voter 0; its
//! shadows, voters `1..`, only score. A `FusionEngine` writes them to
//! every voter. Absorption, `apply_pending_updates`, the discard of a
//! quarantined SA's buffered updates, the poisoning drift guard (the
//! largest `update_drift` of the absorbing voters) and the retrain check
//! all run over that set.
//!
//! The shadow used here would trip each of these were it treated as an
//! absorber: it carries a buffered update batch, a drift past the guard's
//! threshold and cluster counts past the retrain bound.

use vprofile::{EdgeSetExtractor, LabeledEdgeSet, Model, Trainer, VProfileConfig};
use vprofile_can::SourceAddress;
use vprofile_detector_core::{DetectionBackend, VProfileBackend};
use vprofile_ids::{Backend, FusionConfig, FusionEngine, IdsEngine, StreamFramer, UpdatePolicy};
use vprofile_vehicle::{CaptureConfig, Vehicle};

/// `VProfileBackend` applies its buffered updates every 16 absorptions.
const UPDATE_BATCH: usize = 16;
/// Absorptions the shadow keeps buffered beyond its applied batch.
const PENDING: usize = 4;
/// ADC codes added to every sample the shadow absorbs, so that its applied
/// batch moves a cluster mean far beyond what clean traffic does.
const SHIFT: f64 = 500.0;
/// Windows replayed through the engines.
const REPLAYED: usize = 400;

/// A model trained on a clean vehicle-B capture, its training edge sets,
/// the configuration and the capture's framed windows.
struct Fixture {
    config: VProfileConfig,
    model: Model,
    labeled: Vec<LabeledEdgeSet>,
    windows: Vec<(u64, Vec<f64>)>,
}

impl Fixture {
    fn new() -> Self {
        let vehicle = Vehicle::vehicle_b(37);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(600).with_seed(37))
            .expect("capture");
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let labeled = capture
            .extract(&EdgeSetExtractor::new(config.clone()))
            .labeled();
        let model = Trainer::new(config.clone())
            .train_with_lut(&labeled, &vehicle.sa_lut())
            .expect("training");
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(REPLAYED) {
            stream.extend(frame.trace.to_f64());
        }
        let mut framer = StreamFramer::new(config.bit_width_samples, config.bit_threshold);
        let windows = framer.push(&stream);
        assert!(windows.len() + 1 >= REPLAYED, "{} windows", windows.len());
        Fixture {
            config,
            model,
            labeled,
            windows,
        }
    }

    /// An SA of the model's largest cluster.
    fn busiest_sa(&self) -> SourceAddress {
        let count = |sa: SourceAddress| {
            self.model
                .lookup_sa(sa)
                .and_then(|cluster| self.model.clusters().get(cluster.0))
                .map_or(0, |stats| stats.count())
        };
        self.labeled
            .iter()
            .map(|item| item.sa)
            .max_by_key(|&sa| count(sa))
            .expect("labeled edge sets")
    }

    /// A vProfile backend on the trained model that has absorbed
    /// `UPDATE_BATCH + PENDING` shifted edge sets of `sa`: one batch
    /// applied, `PENDING` still buffered.
    fn shadow(&self, sa: SourceAddress) -> Backend {
        let mut shadow = VProfileBackend::new(self.model.clone(), 2.0);
        let donors: Vec<&LabeledEdgeSet> = self
            .labeled
            .iter()
            .filter(|item| item.sa == sa)
            .take(UPDATE_BATCH + PENDING)
            .collect();
        assert_eq!(donors.len(), UPDATE_BATCH + PENDING);
        for donor in donors {
            let shifted: Vec<f64> = donor
                .edge_set
                .samples()
                .iter()
                .map(|sample| sample + SHIFT)
                .collect();
            shadow.absorb(sa, &shifted);
        }
        Backend::from(shadow)
    }
}

/// Observations held by a vProfile voter's clusters.
fn observations(voter: &Backend) -> usize {
    voter
        .as_vprofile()
        .map_or(0, |b| b.model().clusters().iter().map(|c| c.count()).sum())
}

/// The shadow's pending batch is real: applying it grows the counts.
fn assert_pending(shadow: &Backend, applied_observations: usize) {
    let mut applied = shadow.clone();
    applied.apply_pending_updates();
    assert_eq!(observations(&applied), applied_observations + PENDING);
}

#[test]
fn a_shadow_never_trips_the_drift_guard_or_the_retrain_bound() {
    let fx = Fixture::new();
    let sa = fx.busiest_sa();
    let shadow = fx.shadow(sa);
    let trained_max = fx
        .model
        .clusters()
        .iter()
        .map(|c| c.count())
        .max()
        .expect("clusters");
    let bound = trained_max + UPDATE_BATCH / 2;
    assert!(
        shadow.retrain_due(bound),
        "the shadow's counts already exceed the retrain bound"
    );
    let shadow_drift = shadow.update_drift();
    let threshold = shadow_drift / 2.0;

    let policy = UpdatePolicy::every(1, bound);
    let mut plain = IdsEngine::new(fx.model.clone(), 2.0, policy).with_drift_guard(threshold);
    let mut shadowed = IdsEngine::new(fx.model.clone(), 2.0, policy)
        .with_drift_guard(threshold)
        .with_shadows(vec![shadow]);
    assert!(!shadowed.backend().retrain_due(bound));

    let mut primary_drift = 0.0_f64;
    let mut first_due = None;
    for (index, (stream_pos, window)) in fx.windows.iter().enumerate() {
        let event = shadowed.process_window(*stream_pos, window);
        assert_eq!(
            event,
            plain.process_window(*stream_pos, window),
            "window {index}: a shadow changes no event"
        );
        assert!(
            shadowed.quarantined().is_empty(),
            "window {index}: the shadow's drift must not quarantine {sa:?}"
        );
        let primary = shadowed.backend();
        primary_drift = primary_drift.max(primary.update_drift());
        assert_eq!(
            event.retrain_due(),
            !event.is_anomaly() && primary.retrain_due(bound),
            "window {index}: only the primary's counts signal a retrain"
        );
        if event.retrain_due() && first_due.is_none() {
            first_due = Some(index);
        }
    }
    assert!(
        primary_drift > 0.0 && primary_drift < threshold,
        "the guard sits between the primary's clean drift {primary_drift} \
         and the shadow's drift {shadow_drift}"
    );
    let first_due = first_due.expect("the primary reaches the retrain bound");
    assert!(
        first_due > 0,
        "retrain_due stays false until the primary reaches the bound"
    );
}

#[test]
fn applying_updates_and_quarantine_leave_a_shadow_untouched() {
    let fx = Fixture::new();
    let sa = fx.busiest_sa();
    let shadow = fx.shadow(sa);
    let trained = observations(&shadow);
    assert_pending(&shadow, trained);

    let mut engine = IdsEngine::new(fx.model.clone(), 2.0, UpdatePolicy::every(1, usize::MAX))
        .with_shadows(vec![shadow.clone()]);
    engine.apply_pending_updates();
    engine.quarantine_sa(sa.raw());
    let kept = &engine.voters()[1];
    assert_eq!(
        format!("{kept:?}"),
        format!("{shadow:?}"),
        "the shadow keeps its model and its pending batch"
    );
    assert_pending(kept, trained);
}

#[test]
fn every_fused_voter_applies_and_discards_pending_updates() {
    let fx = Fixture::new();
    let sa = fx.busiest_sa();
    let secondary = fx.shadow(sa);
    let trained = observations(&secondary);
    let fused = || {
        FusionEngine::new(
            vec![Backend::vprofile(fx.model.clone(), 2.0), secondary.clone()],
            fx.config.clone(),
            FusionConfig::default(),
            UpdatePolicy::every(1, usize::MAX),
        )
    };

    let mut applying = fused();
    applying.apply_pending_updates();
    assert_eq!(
        observations(&applying.voters()[1]),
        trained + PENDING,
        "a secondary voter's pending batch is applied"
    );

    let mut quarantining = fused();
    quarantining.quarantine_sa(sa.raw());
    quarantining.apply_pending_updates();
    assert_eq!(
        observations(&quarantining.voters()[1]),
        trained,
        "quarantine discards a secondary voter's pending batch"
    );
}
