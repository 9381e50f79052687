//! The synchronous IDS core: framing → extraction → the voters' verdicts
//! → one event per frame, with the §5.3 online-update policy, the update
//! quarantine and the poisoning drift guard. One [`Engine`] runs in two
//! [`Mode`]s: [`Primary`] (an [`IdsEngine`]: voter 0 decides and absorbs,
//! voters `1..` shadow it) and [`Ensemble`](crate::Ensemble) (a
//! [`FusionEngine`](crate::FusionEngine): every voter's score is fused).

use crate::backend::Backend;
use crate::event::{IdsEvent, ScoredEvent};
use crate::StreamFramer;
use sealed::{Decide, Outcome};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use vprofile::{
    AnomalyKind, EdgeSetExtractor, Model, QuarantineSet, ScratchArena, VProfileConfig, Verdict,
};
use vprofile_can::SourceAddress;
use vprofile_detector_core::{DetectionBackend, VProfileBackend};

/// Nanoseconds since `since`, saturating instead of truncating on the
/// (never-in-practice) u128 → u64 overflow.
pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Most backends one engine scores a frame with, its primary included:
/// one bit each in the `u8` disagreement mask the pipeline counts into
/// `PipelineStats::voter_disagreements`.
pub(crate) const MAX_VOTERS: usize = u8::BITS as usize;

/// The scored event of a window whose Algorithm 1 extraction failed:
/// an anomaly, since an unparseable transmission on a healthy bus is
/// itself suspicious.
fn extraction_failure(stream_pos: u64) -> IdsEvent {
    IdsEvent::Scored(ScoredEvent {
        stream_pos,
        sa: None,
        verdict: Verdict::Anomaly {
            kind: AnomalyKind::UnknownSa {
                sa: SourceAddress(0xFF),
            },
        },
        extraction_failed: true,
        retrain_due: false,
    })
}

/// The scored event of a window whose extraction succeeded.
pub(crate) fn scored_event(
    stream_pos: u64,
    sa: SourceAddress,
    verdict: Verdict,
    retrain_due: bool,
) -> IdsEvent {
    IdsEvent::Scored(ScoredEvent {
        stream_pos,
        sa: Some(sa),
        verdict,
        extraction_failed: false,
        retrain_due,
    })
}

/// When and how the engine feeds accepted messages back into the model
/// (thesis §5.3 / Algorithm 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdatePolicy {
    /// Absorb every `interval`-th accepted message into the model
    /// (`0` disables online updates).
    pub interval: usize,
    /// Signal a retrain once any cluster's count reaches this bound — the
    /// thesis' `M` ("a model should not be updated too often … we recommend
    /// training a new model after `N_n` reaches some upper bound `M`").
    pub retrain_bound: usize,
}

impl UpdatePolicy {
    /// No online updates.
    pub fn disabled() -> Self {
        UpdatePolicy {
            interval: 0,
            retrain_bound: usize::MAX,
        }
    }

    /// Update with every `interval`-th accepted message, retraining at
    /// `retrain_bound`.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0` (use [`UpdatePolicy::disabled`]).
    pub fn every(interval: usize, retrain_bound: usize) -> Self {
        assert!(interval > 0, "interval 0 means disabled");
        UpdatePolicy {
            interval,
            retrain_bound,
        }
    }

    /// `true` if updates are active.
    pub fn is_enabled(&self) -> bool {
        self.interval > 0
    }
}

/// How an [`Engine`]'s voters' verdicts become each window's event:
/// [`Primary`] (an [`IdsEngine`]) or [`Ensemble`](crate::Ensemble) (a
/// [`FusionEngine`](crate::FusionEngine)). The trait is sealed; what a mode
/// does per frame is crate-internal.
pub trait Mode: Decide {}

/// The crate-internal side of [`Mode`].
pub(crate) mod sealed {
    use super::Engine;
    use crate::{FusionRecord, IdsEvent};
    use std::time::Instant;
    use vprofile_can::SourceAddress;

    /// What an engine hands the pipeline for one window.
    #[derive(Debug)]
    pub struct Outcome {
        /// The window's event.
        pub event: IdsEvent,
        /// Bit `i` set when voter `i` (0 = the primary) disagreed: a
        /// shadow whose anomaly call differed from the primary's, or a
        /// fusion voter whose call differed from the fused call.
        pub disagree_mask: u8,
        /// The fused frame's telemetry; `None` for an [`crate::IdsEngine`].
        pub fusion: Option<FusionRecord>,
        /// Algorithm 1 extraction time.
        pub extract_ns: u64,
        /// Scoring and online-update time of the deciding backends.
        pub score_ns: u64,
        /// Shadow scoring time.
        pub shadow_ns: u64,
    }

    /// What differs between the two engines.
    pub trait Decide: Clone + std::fmt::Debug + Send + Sized + 'static {
        /// How many of `voters` voters, counting from the primary, absorb
        /// online updates. Absorption, `apply_pending_updates`, the
        /// discard on quarantine, the drift guard and the retrain check
        /// all run over these voters.
        fn absorber_count(voters: usize) -> usize;

        /// Length of `PipelineStats::voter_disagreements` for an engine
        /// of `voters` voters.
        fn disagreement_slots(voters: usize) -> usize;

        /// `true` while `voter` is suspended: it then absorbs nothing.
        fn suspended(&self, voter: usize) -> bool {
            let _ = voter;
            false
        }

        /// Scores the edge set extracted into the engine's scratch, whose
        /// frame claims `sa`, decides the window's event and absorbs the
        /// edge set when the mode's gate allows. Scoring began at
        /// `scoring`; `shard` is stamped into any event the mode itself
        /// degrades.
        fn decide(
            engine: &mut Engine<Self>,
            stream_pos: u64,
            sa: SourceAddress,
            shard: usize,
            extract_ns: u64,
            scoring: Instant,
        ) -> Outcome;
    }
}

/// The synchronous IDS engine: a framer, one Algorithm 1 extraction per
/// window, and `voters` detection [`Backend`]s scoring the extracted edge
/// set, whose verdicts the [`Mode`] `M` turns into one [`IdsEvent`]. See
/// the [crate-level example](crate).
///
/// The engine is backend-agnostic: every voter is a [`Backend`] variant
/// (vProfile, Viden, Scission, VoltageIDS) run through the same
/// framing/extraction/quarantine/update machinery. Framing and extraction
/// parameters come from a [`VProfileConfig`], since every backend scores
/// the same extracted edge sets. The engine is `Clone`, so a pipeline
/// supervisor checkpoints it and rolls it back, copying into the
/// checkpoint's own buffers.
#[derive(Debug)]
pub struct Engine<M> {
    /// The backends that score each frame, in order; voter 0 is the
    /// primary.
    pub(crate) voters: Vec<Backend>,
    /// How the voters' verdicts become the event.
    pub(crate) mode: M,
    pub(crate) config: VProfileConfig,
    extractor: EdgeSetExtractor,
    framer: StreamFramer,
    policy: UpdatePolicy,
    quarantine: QuarantineSet,
    /// Online-update poisoning guard: when set, an applied update that
    /// moves an absorbing voter more than this far from its trained
    /// baseline (backend-defined scalar, see
    /// [`DetectionBackend::update_drift`]) quarantines the absorbing SA.
    drift_guard: Option<f64>,
    /// Per-engine reusable buffers; with these, the steady-state
    /// extract-and-score path of [`Engine::process_window`] performs no
    /// heap allocations (the bench crate's counting allocator enforces
    /// this).
    pub(crate) scratch: ScratchArena,
}

vprofile_sigstat::clone_in_place!(Engine<M> {
    voters,
    mode,
    config,
    extractor,
    framer,
    policy,
    quarantine,
    drift_guard,
    scratch
});

impl<M: Mode> Engine<M> {
    /// An engine around `voters` in `mode`.
    ///
    /// # Panics
    ///
    /// Panics when `voters` is empty.
    pub(crate) fn from_parts(
        voters: Vec<Backend>,
        mode: M,
        config: VProfileConfig,
        policy: UpdatePolicy,
    ) -> Self {
        assert!(!voters.is_empty(), "an engine needs at least one voter");
        let framer = StreamFramer::new(config.bit_width_samples, config.bit_threshold);
        let extractor = EdgeSetExtractor::new(config.clone());
        Engine {
            voters,
            mode,
            config,
            extractor,
            framer,
            policy,
            quarantine: QuarantineSet::new(),
            drift_guard: None,
            scratch: ScratchArena::new(),
        }
    }

    /// Arms the online-update poisoning guard: after every absorption the
    /// engine asks each absorbing voter how far applied updates have moved
    /// it from its trained baseline ([`DetectionBackend::update_drift`]);
    /// once the largest of these passes `threshold`, the absorbing SA is
    /// quarantined (degraded mode for that sender) and its buffered
    /// updates are discarded. This is the engine-level catch for a
    /// compromised ECU feeding slowly-drifting frames into `absorb` to
    /// walk the §5.3 update toward its own signature: each step can stay
    /// individually acceptable, but the accumulated displacement cannot.
    ///
    /// Release is the operator's call ([`Engine::release_sa`]) or a model
    /// reinstall ([`IdsEngine::install_model`]), which re-baselines the
    /// drift measure.
    #[must_use]
    pub fn with_drift_guard(mut self, threshold: f64) -> Self {
        self.drift_guard = Some(threshold);
        self
    }

    /// The armed drift-guard threshold, if any.
    pub fn drift_guard(&self) -> Option<f64> {
        self.drift_guard
    }

    /// The framing/extraction configuration the engine was built with.
    pub fn config(&self) -> &VProfileConfig {
        &self.config
    }

    /// The voters, in scoring order (0 = the primary).
    pub fn voters(&self) -> &[Backend] {
        &self.voters
    }

    /// Quarantines an SA from online-update absorption: its observations
    /// are still scored, but never fed back into a model. Any buffered
    /// updates for it are discarded.
    pub fn quarantine_sa(&mut self, sa: u8) {
        self.quarantine.insert(sa);
        for voter in self.absorbers_mut() {
            voter.discard_pending_for(SourceAddress(sa));
        }
    }

    /// Releases one SA from quarantine.
    pub fn release_sa(&mut self, sa: u8) {
        self.quarantine.remove(sa);
    }

    /// Releases every quarantined SA (fault cleared).
    pub fn release_all_quarantined(&mut self) {
        self.quarantine.clear();
    }

    /// The SAs currently quarantined from model updates.
    pub fn quarantined(&self) -> &QuarantineSet {
        &self.quarantine
    }

    /// Applies any buffered online updates immediately.
    // xtask: cold
    pub fn apply_pending_updates(&mut self) {
        for voter in self.absorbers_mut() {
            voter.apply_pending_updates();
        }
    }

    /// Feeds raw samples; returns one event per completed frame.
    pub fn process_samples(&mut self, samples: &[f64]) -> Vec<IdsEvent> {
        let windows = self.framer.push(samples);
        let mut events = Vec::with_capacity(windows.len());
        for (stream_pos, window) in windows {
            events.push(self.process_window(stream_pos, &window));
        }
        events
    }

    /// Flushes a trailing unterminated frame at end of stream.
    pub fn finish(&mut self) -> Option<IdsEvent> {
        let (stream_pos, window) = self.framer.flush()?;
        Some(self.process_window(stream_pos, &window))
    }

    /// Classifies one already-framed window.
    // xtask: hot-path
    pub fn process_window(&mut self, stream_pos: u64, window: &[f64]) -> IdsEvent {
        self.score_window(stream_pos, window, 0).event
    }

    /// Extracts once into the engine's [`ScratchArena`], then lets the
    /// mode score `scratch.edge_set` and decide the event. `shard` is
    /// stamped into any event the mode degrades (0 when running
    /// standalone). Nothing touches the allocator in steady state.
    // xtask: hot-path
    pub(crate) fn score_window(
        &mut self,
        stream_pos: u64,
        window: &[f64],
        shard: usize,
    ) -> Outcome {
        let extracting = Instant::now();
        let extracted = self.extractor.extract_into(window, &mut self.scratch);
        let extract_ns = elapsed_ns(extracting);
        let scoring = Instant::now();
        match extracted {
            Ok(sa) => M::decide(self, stream_pos, sa, shard, extract_ns, scoring),
            Err(_) => Outcome {
                event: extraction_failure(stream_pos),
                disagree_mask: 0,
                fusion: None,
                extract_ns,
                score_ns: elapsed_ns(scoring),
                shadow_ns: 0,
            },
        }
    }

    /// Length of `PipelineStats::voter_disagreements` for this engine.
    pub(crate) fn disagreement_slots(&self) -> usize {
        M::disagreement_slots(self.voters.len())
    }

    /// The voters that absorb online updates.
    fn absorbers(&self) -> &[Backend] {
        let count = M::absorber_count(self.voters.len());
        self.voters.get(..count).unwrap_or_default()
    }

    /// Mutable access to the voters that absorb online updates.
    fn absorbers_mut(&mut self) -> &mut [Backend] {
        let count = M::absorber_count(self.voters.len());
        self.voters.get_mut(..count).unwrap_or_default()
    }

    /// Whether a frame from `sa` whose deciding call was `anomalous` may
    /// feed the online update: never an anomaly, never with updates
    /// disabled, never from a quarantined SA.
    pub(crate) fn may_absorb(&self, sa: SourceAddress, anomalous: bool) -> bool {
        !anomalous && self.policy.is_enabled() && !self.quarantine.contains(sa.0)
    }

    /// Absorbs the extracted edge set into every absorbing voter that is
    /// not suspended, then runs the poisoning drift guard.
    // xtask: cold
    pub(crate) fn absorb_frame(&mut self, sa: SourceAddress) {
        let count = M::absorber_count(self.voters.len());
        for (index, voter) in self.voters.iter_mut().enumerate().take(count) {
            if !self.mode.suspended(index) {
                voter.absorb(sa, &self.scratch.edge_set);
            }
        }
        self.drift_guard_check(sa);
    }

    /// Trips the poisoning drift guard: quarantines `sa` (and drops its
    /// buffered updates) once the most-displaced absorbing voter has
    /// moved past the armed threshold. An ensemble's exposure to a
    /// poisoning walk is its *most*-displaced voter, not the average.
    // xtask: cold
    fn drift_guard_check(&mut self, sa: SourceAddress) {
        let Some(threshold) = self.drift_guard else {
            return;
        };
        let worst = self
            .absorbers()
            .iter()
            .map(DetectionBackend::update_drift)
            .fold(0.0_f64, f64::max);
        if worst > threshold {
            self.quarantine_sa(sa.0);
        }
    }

    /// `true` when any absorbing voter's cluster counts have reached the
    /// policy's retrain bound.
    pub(crate) fn retrain_due(&self) -> bool {
        let bound = self.policy.retrain_bound;
        self.absorbers()
            .iter()
            .any(|voter| voter.retrain_due(bound))
    }
}

/// The [`Mode`] of an [`IdsEngine`]: voter 0 — the primary — decides every
/// event, feeds a pipeline's circuit breaker and alone absorbs online
/// updates, every `interval`-th accepted frame. Voters `1..` are
/// observe-only shadows: each scores the primary's extracted edge set
/// after it, and only whether its anomaly call differed is counted.
#[derive(Debug, Clone, Copy)]
pub struct Primary {
    /// Frames accepted for update since the model was installed; every
    /// `interval`-th is absorbed.
    accepted_count: usize,
}

impl Mode for Primary {}

/// The engine of one deciding backend, with optional shadows.
pub type IdsEngine = Engine<Primary>;

impl IdsEngine {
    /// Creates an engine around a trained vProfile model.
    pub fn new(model: Model, margin: f64, policy: UpdatePolicy) -> Self {
        let config = model.config().clone();
        IdsEngine::with_backend(Backend::vprofile(model, margin), config, policy)
    }

    /// Creates an engine around any detection backend. `config` supplies
    /// the framing and edge-set extraction parameters (backends all score
    /// the same extracted edge sets).
    pub fn with_backend(backend: Backend, config: VProfileConfig, policy: UpdatePolicy) -> Self {
        let mode = Primary { accepted_count: 0 };
        Engine::from_parts(vec![backend], mode, config, policy)
    }

    /// Adds observe-only shadow backends, as voters `1..`. Every frame
    /// whose extraction succeeds is scored by the primary and then by
    /// each shadow, in order, on the same extracted edge set. Only the
    /// primary decides the event, absorbs online updates and feeds a
    /// pipeline's circuit breaker; a shadow only reports whether its
    /// anomaly call differed from the primary's, counted in
    /// [`PipelineStats::voter_disagreements`](crate::PipelineStats::voter_disagreements)
    /// at index `1 + i` for shadow `i`, its time in
    /// [`StageBreakdown::shadow_ns`](crate::StageBreakdown::shadow_ns).
    ///
    /// # Panics
    ///
    /// Panics when the primary and `shadows` together exceed the eight
    /// voters the pipeline's `u8` disagreement mask holds.
    #[must_use]
    pub fn with_shadows(mut self, shadows: Vec<Backend>) -> Self {
        assert!(
            shadows.len() < MAX_VOTERS,
            "an engine scores at most {MAX_VOTERS} backends, its primary included"
        );
        self.voters.truncate(1);
        self.voters.extend(shadows);
        self
    }

    /// The deciding backend, voter 0.
    pub fn backend(&self) -> &Backend {
        // `from_parts` refuses an engine without voters.
        &self.voters[0]
    }

    /// The backend's stable name (e.g. `"vprofile"`, `"viden"`).
    pub fn backend_name(&self) -> &'static str {
        self.backend().kind().label()
    }

    /// The current vProfile model (reflects online updates), or `None`
    /// when the engine runs a non-vProfile backend.
    pub fn model(&self) -> Option<&Model> {
        self.backend().as_vprofile().map(VProfileBackend::model)
    }

    /// Replaces the vProfile model after an external retrain and resets
    /// the update bookkeeping. On a non-vProfile backend the engine
    /// switches to a vProfile backend with a zero margin (install a full
    /// backend via [`IdsEngine::with_backend`] to control the margin).
    pub fn install_model(&mut self, model: Model) {
        let primary = &mut self.voters[0];
        match primary.as_vprofile_mut() {
            Some(b) => b.install_model(model),
            None => *primary = Backend::vprofile(model, 0.0),
        }
        self.mode.accepted_count = 0;
        self.quarantine.clear();
    }

    /// Scores the extracted edge set with every shadow. Returns the
    /// disagreement mask, bit `1 + i` set when shadow `i`'s anomaly call
    /// differs from the primary's, and the time taken (0 without shadows,
    /// which then cost no clock read).
    // xtask: hot-path
    fn score_shadows(&mut self, sa: SourceAddress, primary_anomaly: bool) -> (u8, u64) {
        let shadows = self.voters.get_mut(1..).unwrap_or_default();
        if shadows.is_empty() {
            return (0, 0);
        }
        let shadowing = Instant::now();
        let mut mask = 0u8;
        let mut bit = 1u8;
        for shadow in shadows {
            bit <<= 1;
            if shadow.classify_into(&mut self.scratch, sa).is_anomaly() != primary_anomaly {
                mask |= bit;
            }
        }
        (mask, elapsed_ns(shadowing))
    }
}

impl Decide for Primary {
    fn absorber_count(voters: usize) -> usize {
        voters.min(1)
    }

    fn disagreement_slots(voters: usize) -> usize {
        if voters > 1 {
            voters
        } else {
            0
        }
    }

    /// The primary scores `scratch.edge_set` and may absorb it, then every
    /// shadow scores the same edge set.
    // xtask: hot-path
    fn decide(
        engine: &mut IdsEngine,
        stream_pos: u64,
        sa: SourceAddress,
        _shard: usize,
        extract_ns: u64,
        scoring: Instant,
    ) -> Outcome {
        // `from_parts` refuses an engine without voters; were it empty,
        // the frame would fail closed.
        let verdict = match engine.voters.first_mut() {
            Some(primary) => primary.classify_into(&mut engine.scratch, sa),
            None => Verdict::Anomaly {
                kind: AnomalyKind::Unscorable,
            },
        };
        let mut retrain_due = false;
        if engine.may_absorb(sa, verdict.is_anomaly()) {
            engine.mode.accepted_count += 1;
            if engine
                .mode
                .accepted_count
                .is_multiple_of(engine.policy.interval)
            {
                engine.absorb_frame(sa);
            }
            retrain_due = engine.retrain_due();
        }
        let score_ns = elapsed_ns(scoring);
        let (disagree_mask, shadow_ns) = engine.score_shadows(sa, verdict.is_anomaly());
        Outcome {
            event: scored_event(stream_pos, sa, verdict, retrain_due),
            disagree_mask,
            fusion: None,
            extract_ns,
            score_ns,
            shadow_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IdsPipeline, PipelineConfig, PipelineStats};
    use vprofile::{Detector, Trainer, VProfileConfig};
    use vprofile_baselines::VidenDetector;
    use vprofile_vehicle::{CaptureConfig, Vehicle};

    fn trained_setup(frames: usize) -> (IdsEngine, vprofile_vehicle::Capture) {
        let vehicle = Vehicle::vehicle_b(17);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(frames).with_seed(17))
            .unwrap();
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
        let model = Trainer::new(config)
            .train_with_lut(&extracted.labeled(), &vehicle.sa_lut())
            .unwrap();
        (
            IdsEngine::new(model, 2.0, UpdatePolicy::disabled()),
            capture,
        )
    }

    #[test]
    fn replayed_capture_produces_one_event_per_frame() {
        let (mut engine, capture) = trained_setup(800);
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(60) {
            stream.extend(frame.trace.to_f64());
        }
        let mut events = engine.process_samples(&stream);
        if let Some(last) = engine.finish() {
            events.push(last);
        }
        assert_eq!(events.len(), 60);
        let anomalies = events.iter().filter(|e| e.is_anomaly()).count();
        assert_eq!(anomalies, 0, "clean replay must not alarm");
        assert!(events.iter().all(|e| !e.extraction_failed()));
    }

    #[test]
    fn events_carry_stream_positions_in_order() {
        let (mut engine, capture) = trained_setup(800);
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(10) {
            stream.extend(frame.trace.to_f64());
        }
        let events = engine.process_samples(&stream);
        assert!(events
            .windows(2)
            .all(|w| w[0].stream_pos() < w[1].stream_pos()));
    }

    #[test]
    fn garbage_window_reports_extraction_failure() {
        let (mut engine, _) = trained_setup(800);
        // A lone dominant blip too short to be a frame.
        let mut stream = vec![1000.0; 200];
        stream.extend(vec![3000.0; 20]);
        stream.extend(vec![1000.0; 600]);
        let events = engine.process_samples(&stream);
        assert_eq!(events.len(), 1);
        assert!(events[0].extraction_failed());
        assert!(events[0].is_anomaly());
    }

    #[test]
    fn cached_detection_matches_direct_classification() {
        let (mut engine, capture) = trained_setup(800);
        let model = engine.model().unwrap().clone();
        let extractor = EdgeSetExtractor::new(model.config().clone());
        for (i, frame) in capture.frames().iter().take(30).enumerate() {
            let window = frame.trace.to_f64();
            let event = engine.process_window(i as u64, &window);
            let obs = extractor.extract(&window).unwrap();
            let direct = Detector::with_margin(&model, 2.0).classify(&obs);
            // Debug renders every f64 in shortest round-trip form, so equal
            // strings are equal verdict bits.
            assert_eq!(
                format!("{:?}", event.verdict().unwrap()),
                format!("{direct:?}")
            );
        }
    }

    #[test]
    fn cache_is_refreshed_across_online_updates() {
        let (engine, capture) = trained_setup(800);
        let model = engine.model().unwrap().clone();
        let mut engine = IdsEngine::new(model, 2.0, UpdatePolicy::every(1, usize::MAX));
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(80) {
            stream.extend(frame.trace.to_f64());
        }
        // Updates apply in batches of 16 mid-stream, each refreshing the
        // scoring rows of the clusters it refit; stale rows would misscore
        // against the old factors.
        let events = engine.process_samples(&stream);
        assert_eq!(events.len(), 80);
        let anomalies = events.iter().filter(|e| e.is_anomaly()).count();
        assert_eq!(anomalies, 0, "clean replay with updates must not alarm");
    }

    #[test]
    fn online_updates_grow_cluster_counts() {
        let (engine, capture) = trained_setup(800);
        let model = engine.model().unwrap().clone();
        let before: usize = model.clusters().iter().map(|c| c.count()).sum();
        let mut engine = IdsEngine::new(model, 2.0, UpdatePolicy::every(1, usize::MAX));
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(80) {
            stream.extend(frame.trace.to_f64());
        }
        engine.process_samples(&stream);
        engine.apply_pending_updates();
        let after: usize = engine
            .model()
            .unwrap()
            .clusters()
            .iter()
            .map(|c| c.count())
            .sum();
        assert!(after > before, "counts must grow: {before} → {after}");
    }

    #[test]
    fn retrain_bound_is_signalled() {
        let (engine, capture) = trained_setup(800);
        let model = engine.model().unwrap().clone();
        let bound = model.clusters().iter().map(|c| c.count()).max().unwrap() + 4;
        let mut engine = IdsEngine::new(model, 2.0, UpdatePolicy::every(1, bound));
        let mut stream = Vec::new();
        for frame in capture.frames() {
            stream.extend(frame.trace.to_f64());
        }
        let events = engine.process_samples(&stream);
        assert!(
            events.iter().any(|e| e.retrain_due()),
            "retrain flag never raised"
        );
    }

    #[test]
    fn quarantined_sas_are_scored_but_never_absorbed() {
        let (engine, capture) = trained_setup(800);
        let model = engine.model().unwrap().clone();
        let before: usize = model.clusters().iter().map(|c| c.count()).sum();
        let mut engine = IdsEngine::new(model, 2.0, UpdatePolicy::every(1, usize::MAX));
        // Quarantine every possible SA: updates must be fully suppressed.
        for sa in 0..=0xFF {
            engine.quarantine_sa(sa);
        }
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(80) {
            stream.extend(frame.trace.to_f64());
        }
        let events = engine.process_samples(&stream);
        engine.apply_pending_updates();
        assert_eq!(events.len(), 80);
        assert!(
            events.iter().all(|e| e.verdict().is_some()),
            "quarantine must not suppress scoring"
        );
        let after: usize = engine
            .model()
            .unwrap()
            .clusters()
            .iter()
            .map(|c| c.count())
            .sum();
        assert_eq!(after, before, "quarantined SAs must not grow the model");
        assert!(!engine.quarantined().is_empty());
        engine.release_all_quarantined();
        assert!(engine.quarantined().is_empty());
    }

    #[test]
    fn install_model_resets_update_state() {
        let (engine, _) = trained_setup(800);
        let model = engine.model().unwrap().clone();
        let mut engine = IdsEngine::new(model.clone(), 2.0, UpdatePolicy::every(1, 10));
        engine.mode.accepted_count = 7;
        engine.install_model(model);
        assert_eq!(engine.mode.accepted_count, 0);
    }

    #[test]
    fn update_policy_constructors() {
        assert!(!UpdatePolicy::disabled().is_enabled());
        assert!(UpdatePolicy::every(3, 100).is_enabled());
    }

    #[test]
    #[should_panic(expected = "interval 0")]
    fn zero_interval_panics() {
        let _ = UpdatePolicy::every(0, 10);
    }

    /// A primary trained on a clean vehicle-B session, two shadows (a
    /// clone of the primary's backend, and a Viden detector whose
    /// near-zero acceptance radius flags every frame, so it disagrees
    /// wherever the primary says normal) and a 120-frame replay stream.
    fn shadow_fixture() -> (IdsEngine, Backend, Backend, Vec<f64>) {
        let vehicle = Vehicle::vehicle_b(29);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(400).with_seed(29))
            .unwrap();
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
        let labeled = extracted.labeled();
        let lut = vehicle.sa_lut();
        let model = Trainer::new(config).train_with_lut(&labeled, &lut).unwrap();
        let primary = IdsEngine::new(model, 2.0, UpdatePolicy::disabled());
        let agreeing = primary.backend().clone();
        let paranoid = Backend::from(VidenDetector::fit(&labeled, &lut, 1e-9).unwrap());
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(120) {
            stream.extend(frame.trace.to_f64());
        }
        (primary, agreeing, paranoid, stream)
    }

    /// Replays `stream` through a pipeline of `workers` workers around
    /// `engine`; returns the events, shard 0's engine and the stats.
    fn replay(
        engine: IdsEngine,
        stream: &[f64],
        workers: usize,
    ) -> (Vec<IdsEvent>, IdsEngine, PipelineStats) {
        let mut pipeline =
            IdsPipeline::spawn_sharded(engine, PipelineConfig::default().with_workers(workers));
        for chunk in stream.chunks(8192) {
            pipeline.feed(chunk.to_vec()).unwrap();
        }
        pipeline.close_input();
        let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
        let (mut engines, stats) = pipeline.close().unwrap();
        (events, engines.swap_remove(0), stats)
    }

    #[test]
    fn shadows_count_their_disagreements_per_voter() {
        let (primary, agreeing, paranoid, stream) = shadow_fixture();
        let shadowed = primary.with_shadows(vec![agreeing, paranoid]);
        let (events, _, stats) = replay(shadowed, &stream, 0);

        assert_eq!(stats.frames, 120);
        assert_eq!(events.len(), 120, "shadows never eat primary events");
        assert_eq!(stats.voter_disagreements.len(), 3, "primary + two shadows");
        assert_eq!(
            stats.voter_disagreements[0], 0,
            "the primary never disagrees with itself"
        );
        assert_eq!(
            stats.voter_disagreements[1], 0,
            "a clone of the primary never disagrees"
        );
        assert_eq!(
            stats.voter_disagreements[2], stats.normals,
            "the near-zero-radius shadow disagrees on every normal frame"
        );
        assert!(stats.normals > 0);
        assert!(
            stats.stage_ns.shadow_ns > 0,
            "shadow scoring time is attributed to its own clock"
        );
    }

    #[test]
    fn shadowless_engine_reports_zero_shadow_activity() {
        let (primary, _, _, stream) = shadow_fixture();
        let (_, _, stats) = replay(primary, &stream, 0);
        assert!(stats.voter_disagreements.is_empty());
        assert_eq!(stats.stage_ns.shadow_ns, 0);
    }

    #[test]
    fn shadows_never_absorb() {
        let (primary, agreeing, _, stream) = shadow_fixture();
        let trained = primary.model().unwrap().clone();
        let updating = IdsEngine::new(trained.clone(), 2.0, UpdatePolicy::every(1, usize::MAX))
            .with_shadows(vec![agreeing]);
        let (_, engine, stats) = replay(updating, &stream, 1);
        assert!(stats.normals > 100);
        assert_ne!(
            engine.model(),
            Some(&trained),
            "the primary absorbed the accepted frames"
        );
        let mut shadow = engine.voters[1].clone();
        shadow.apply_pending_updates();
        assert_eq!(
            shadow.as_vprofile().map(VProfileBackend::model),
            Some(&trained),
            "a shadow keeps its trained model and buffers no update"
        );
    }

    #[test]
    #[should_panic(expected = "at most 8 backends")]
    fn more_than_eight_voters_are_rejected() {
        let (primary, agreeing, _, _) = shadow_fixture();
        let _ = primary.with_shadows(vec![agreeing; MAX_VOTERS]);
    }
}
