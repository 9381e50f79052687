//! In-place checkpoint refresh: for every engine kind, `clone_from` is
//! `clone`.
//!
//! A pipeline worker refreshes its restart checkpoint with
//! `checkpoint.clone_from(&engine)` and a restart restores it with
//! `engine.clone_from(&checkpoint)`; each copies into the destination's
//! own buffers. Whatever the destination held before — a model with
//! another cluster count, another quarantine set, another backend
//! variant, another voter count, empty scratch, or the same engine further
//! along — the copy must render the same `Debug` as `clone()` of the
//! source (every f64 in shortest round-trip form, so equal strings are
//! equal bits) and score the next windows to the same events.

use std::collections::BTreeMap;
use std::fmt::Debug;
use vprofile::{ClusterId, EdgeSetExtractor, LabeledEdgeSet, Model, Trainer, VProfileConfig};
use vprofile_baselines::{ScissionDetector, VidenDetector, VoltageIdsDetector};
use vprofile_can::SourceAddress;
use vprofile_ids::{
    Backend, FusionConfig, FusionEngine, IdsEngine, IdsEvent, StreamFramer, UpdatePolicy,
};
use vprofile_vehicle::{CaptureConfig, Vehicle};

/// Windows scored before a copy is taken, and compared after it.
const SCORED: usize = 150;

/// Everything trained on one clean vehicle-B capture: the full SA table
/// and a two-cluster part of it, so that destinations can hold models of
/// another shape.
struct Fixture {
    config: VProfileConfig,
    labeled: Vec<LabeledEdgeSet>,
    lut: BTreeMap<SourceAddress, ClusterId>,
    labeled_part: Vec<LabeledEdgeSet>,
    lut_part: BTreeMap<SourceAddress, ClusterId>,
    windows: Vec<(u64, Vec<f64>)>,
}

impl Fixture {
    fn new() -> Self {
        let vehicle = Vehicle::vehicle_b(41);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(400).with_seed(41))
            .expect("capture");
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let labeled = capture
            .extract(&EdgeSetExtractor::new(config.clone()))
            .labeled();
        let lut = vehicle.sa_lut();
        let lut_part: BTreeMap<_, _> = lut
            .iter()
            .filter(|(_, cluster)| cluster.0 < 2)
            .map(|(&sa, &cluster)| (sa, cluster))
            .collect();
        let labeled_part = labeled
            .iter()
            .filter(|item| lut_part.contains_key(&item.sa))
            .cloned()
            .collect();
        let mut stream = Vec::new();
        for frame in capture.frames() {
            stream.extend(frame.trace.to_f64());
        }
        let mut framer = StreamFramer::new(config.bit_width_samples, config.bit_threshold);
        let windows = framer.push(&stream);
        assert!(windows.len() >= 2 * SCORED, "{} windows", windows.len());
        Fixture {
            config,
            labeled,
            lut,
            labeled_part,
            lut_part,
            windows,
        }
    }

    fn model(&self) -> Model {
        Trainer::new(self.config.clone())
            .train_with_lut(&self.labeled, &self.lut)
            .expect("vprofile training")
    }

    /// A model of two clusters, fewer than [`Fixture::model`]'s.
    fn small_model(&self) -> Model {
        Trainer::new(self.config.clone())
            .train_with_lut(&self.labeled_part, &self.lut_part)
            .expect("vprofile training")
    }

    fn viden(&self) -> Backend {
        Backend::from(VidenDetector::fit(&self.labeled, &self.lut, 6.0).expect("viden"))
    }

    fn scission(&self) -> Backend {
        Backend::from(ScissionDetector::fit(&self.labeled, &self.lut, 0.5).expect("scission"))
    }

    fn voltageids(&self) -> Backend {
        Backend::from(VoltageIdsDetector::fit(&self.labeled, &self.lut, 0.0).expect("voltageids"))
    }

    /// Each baseline trained on the two-cluster part of the table, so its
    /// profiles, weights or machines are fewer than the full backend's.
    fn small_baselines(&self) -> [Backend; 3] {
        let (data, lut) = (&self.labeled_part, &self.lut_part);
        [
            Backend::from(VidenDetector::fit(data, lut, 4.0).expect("viden")),
            Backend::from(ScissionDetector::fit(data, lut, 0.7).expect("scission")),
            Backend::from(VoltageIdsDetector::fit(data, lut, 0.1).expect("voltageids")),
        ]
    }

    fn engine(&self, backend: Backend, policy: UpdatePolicy) -> IdsEngine {
        IdsEngine::with_backend(backend, self.config.clone(), policy)
    }

    fn fused(&self, voters: Vec<Backend>) -> FusionEngine {
        FusionEngine::new(
            voters,
            self.config.clone(),
            FusionConfig::default(),
            UpdatePolicy::disabled(),
        )
    }

    fn first(&self) -> &[(u64, Vec<f64>)] {
        &self.windows[..SCORED]
    }

    fn next(&self) -> &[(u64, Vec<f64>)] {
        &self.windows[SCORED..2 * SCORED]
    }
}

/// An engine the tests copy and score.
trait Scored: Clone + Debug {
    fn score(&mut self, stream_pos: u64, window: &[f64]) -> IdsEvent;

    fn score_all(&mut self, windows: &[(u64, Vec<f64>)]) -> Vec<IdsEvent> {
        windows
            .iter()
            .map(|(pos, window)| self.score(*pos, window))
            .collect()
    }
}

impl Scored for IdsEngine {
    fn score(&mut self, stream_pos: u64, window: &[f64]) -> IdsEvent {
        self.process_window(stream_pos, window)
    }
}

impl Scored for FusionEngine {
    fn score(&mut self, stream_pos: u64, window: &[f64]) -> IdsEvent {
        self.process_window(stream_pos, window)
    }
}

/// Copies `source` into each of `targets` in place and checks every copy
/// against a clone of `source`: the same `Debug` rendering, the same
/// events over `next`, and the same rendering again afterwards.
fn assert_copies_are_clones<E: Scored>(source: &E, targets: Vec<E>, next: &[(u64, Vec<f64>)]) {
    let mut clone = source.clone();
    let rendered = format!("{clone:?}");
    let events = clone.score_all(next);
    let after = format!("{clone:?}");
    for (i, mut target) in targets.into_iter().enumerate() {
        assert_ne!(
            format!("{target:?}"),
            rendered,
            "target {i} starts out different"
        );
        target.clone_from(source);
        assert_eq!(format!("{target:?}"), rendered, "target {i}: copy != clone");
        let copied = target.score_all(next);
        assert_eq!(
            format!("{copied:?}"),
            format!("{events:?}"),
            "target {i}: the copy scores differently"
        );
        assert_eq!(format!("{target:?}"), after, "target {i}: state diverged");
    }
}

/// The source scored further: the engine a restart copies its checkpoint
/// back into.
fn advanced<E: Scored>(source: &E, windows: &[(u64, Vec<f64>)]) -> E {
    let mut engine = source.clone();
    engine.score_all(windows);
    engine
}

#[test]
fn vprofile_with_updates_and_a_pending_batch() {
    let fx = Fixture::new();
    let mut source = fx
        .engine(
            Backend::vprofile(fx.model(), 2.0),
            UpdatePolicy::every(1, usize::MAX),
        )
        .with_drift_guard(400.0);
    source.score_all(fx.first());
    source.quarantine_sa(0x17);
    let mut flushed = source.clone();
    flushed.apply_pending_updates();
    assert_ne!(
        flushed.model(),
        source.model(),
        "the source holds a non-empty pending batch"
    );

    let mut quarantined = fx.engine(fx.viden(), UpdatePolicy::disabled());
    for sa in [0x01, 0x02, 0x03] {
        quarantined.quarantine_sa(sa);
    }
    let targets = vec![
        // Another cluster count, empty scratch, no updates.
        fx.engine(
            Backend::vprofile(fx.small_model(), 1.0),
            UpdatePolicy::disabled(),
        ),
        // Another backend variant and quarantine set.
        quarantined,
        advanced(&source, fx.next()),
    ];
    assert_copies_are_clones(&source, targets, fx.next());
}

#[test]
fn each_baseline_backend() {
    let fx = Fixture::new();
    let full = [fx.viden(), fx.scission(), fx.voltageids()];
    for (backend, small) in full.into_iter().zip(fx.small_baselines()) {
        let mut source = fx.engine(backend, UpdatePolicy::disabled());
        source.score_all(fx.first());
        source.quarantine_sa(0x2A);
        let mut smaller = fx.engine(small, UpdatePolicy::disabled());
        smaller.score_all(&fx.first()[..10]);
        let targets = vec![
            // The same backend with fewer classes.
            smaller,
            // Another backend variant, with empty scratch.
            fx.engine(
                Backend::vprofile(fx.small_model(), 2.0),
                UpdatePolicy::every(1, usize::MAX),
            ),
            advanced(&source, fx.next()),
        ];
        assert_copies_are_clones(&source, targets, fx.next());
    }
}

#[test]
fn vprofile_with_shadows() {
    let fx = Fixture::new();
    let mut source = fx
        .engine(Backend::vprofile(fx.model(), 2.0), UpdatePolicy::disabled())
        .with_shadows(vec![fx.viden(), fx.scission()]);
    source.score_all(fx.first());

    let mut one_shadow = fx
        .engine(Backend::vprofile(fx.model(), 2.0), UpdatePolicy::disabled())
        .with_shadows(vec![fx.voltageids()]);
    one_shadow.score_all(&fx.first()[..20]);
    let targets = vec![
        // No shadows at all.
        fx.engine(
            Backend::vprofile(fx.small_model(), 2.0),
            UpdatePolicy::disabled(),
        ),
        // Fewer shadows, of another variant.
        one_shadow,
        // More shadows, in another order.
        fx.engine(fx.scission(), UpdatePolicy::disabled())
            .with_shadows(vec![fx.scission(), fx.viden(), fx.voltageids()]),
        advanced(&source, fx.next()),
    ];
    assert_copies_are_clones(&source, targets, fx.next());
}

#[test]
fn fused_with_a_quarantined_sa_and_a_suspended_voter() {
    let fx = Fixture::new();
    let kill_at = fx.windows[SCORED / 2].0;
    let mut source = fx
        .fused(vec![
            Backend::vprofile(fx.model(), 2.0),
            fx.viden(),
            fx.scission(),
        ])
        .with_kill_at(2, kill_at);
    source.score_all(fx.first());
    source.quarantine_sa(0x11);
    assert!(source.suspended(2), "voter 2 is suspended");
    assert!(!source.quarantined().is_empty());

    let mut two_voters = fx.fused(vec![
        Backend::vprofile(fx.small_model(), 1.0),
        fx.voltageids(),
    ]);
    two_voters.score_all(&fx.first()[..30]);
    let targets = vec![
        // Another voter count, with its own fusion state.
        two_voters,
        // The same voters, nothing scored yet: empty scratch, no
        // quarantine, no suspension.
        fx.fused(vec![
            Backend::vprofile(fx.model(), 2.0),
            fx.viden(),
            fx.scission(),
        ]),
        // More voters, in another order.
        fx.fused(vec![
            fx.scission(),
            fx.viden(),
            Backend::vprofile(fx.small_model(), 2.0),
            fx.voltageids(),
        ]),
        advanced(&source, fx.next()),
    ];
    assert_copies_are_clones(&source, targets, fx.next());
}
