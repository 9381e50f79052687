//! Drift-aware ensemble fusion: N detection backends voting on every
//! frame, with change-point-gated online updates and graceful per-voter
//! degradation.
//!
//! A [`FusionEngine`] is the [`Engine`] in [`Ensemble`] mode: the same
//! framer and one Algorithm 1 extraction per window as an
//! [`crate::IdsEngine`], then every voter's [`crate::Backend`] scores the
//! same extracted edge set and the calibrated scores
//! ([`vprofile_detector_core::DetectionBackend::calibrated_score`]) are
//! combined by a [`FusionCore`] — confidence-weighted mean against an
//! adaptive per-SA threshold. The §5.3 online update is *drift-gated*
//! here: absorption happens only while a `ScoreShift` change-point
//! verdict holds an absorption budget open, and an ensemble-disagreement
//! episode quarantines absorption entirely (see `vprofile-fusion`).
//!
//! A voter that keeps returning `Unscorable` is suspended (with periodic
//! readmission probes); the ensemble reweights around it and keeps
//! scoring, emitting one [`IdsEvent::Degraded`] frame with a
//! backend-attributed [`DegradeReason::VoterOutage`] at the transition.
//! [`crate::FusionPipeline`] runs the engine through the same sharded,
//! supervised pipeline as an [`crate::IdsEngine`]: because all fusion
//! state is per source address and routing is SA-affine, the fused
//! verdict stream is deterministic for any worker count.

use crate::engine::sealed::{Decide, Outcome};
use crate::engine::{elapsed_ns, scored_event, Engine, Mode, MAX_VOTERS};
use crate::event::IdsEvent;
use crate::health::{DegradeReason, OutageCause};
use crate::{Backend, BackendKind, UpdatePolicy};
use std::time::Instant;
use vprofile::{AnomalyKind, ClusterId, VProfileConfig, Verdict};
use vprofile_can::SourceAddress;
use vprofile_detector_core::DetectionBackend;
use vprofile_fusion::{FusionConfig, FusionCore, FusionDecision, FusionRecord};

/// Consecutive `Unscorable` verdicts before a voter is suspended.
const DEFAULT_SUSPEND_AFTER: u32 = 12;

/// While suspended, a voter gets a readmission probe every this many
/// frames (killed voters never probe).
const DEFAULT_PROBE_INTERVAL: u32 = 32;

/// A voter's calibrated score for `verdict`, or an abstention when the
/// score is not finite: one NaN would make the fused mean NaN, which never
/// reaches θ, and the SA's θ would then track NaN for good.
fn calibrated(voter: &Backend, sa: SourceAddress, verdict: &Verdict) -> Option<f64> {
    voter
        .calibrated_score(sa, verdict)
        .filter(|score| score.is_finite())
}

/// Per-voter liveness bookkeeping (engine-global, unlike the per-SA
/// fusion state: an outage is a property of the voter, not of a sender).
#[derive(Debug, Clone, Copy, Default)]
struct VoterRuntime {
    suspended: bool,
    killed: bool,
    unscorable_streak: u32,
    since_probe: u32,
}

/// One frame's fused outcome, as returned by
/// [`FusionEngine::classify_extracted`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedScore {
    /// The verdict the fused call maps to. When the ensemble and the
    /// primary agree, this is the primary's own (fully attributed)
    /// verdict; when the ensemble overrules the primary, a calibrated
    /// verdict is synthesized with `distance` = fused score and `limit` =
    /// the adaptive threshold.
    pub verdict: Verdict,
    /// The raw fusion decision (score, threshold, drift, episode …).
    pub decision: FusionDecision,
    /// Bit `i` set when voter `i` scored and its individual call differed
    /// from the fused call.
    pub disagree_mask: u8,
}

/// The [`Mode`] of a [`FusionEngine`]: every voter scores each frame and
/// one fused verdict decides the event.
///
/// Voter 0 is the **primary** (pinned at weight 1.0 and the verdict's
/// attribution source); the rest are secondaries whose influence is
/// learned from agreement history. Every voter that is not suspended
/// absorbs online updates, and only while the fusion core holds an
/// absorption budget open.
#[derive(Debug)]
pub struct Ensemble {
    core: FusionCore,
    runtime: Vec<VoterRuntime>,
    /// One reusable slot per voter; the steady-state frame path performs
    /// no heap allocations (enforced by the bench crate's alloc audit).
    scores: Vec<Option<f64>>,
    suspend_after: u32,
    probe_interval: u32,
    kill_at: Option<(u8, u64)>,
}

vprofile_sigstat::clone_in_place!(Ensemble {
    core,
    runtime,
    scores,
    suspend_after,
    probe_interval,
    kill_at
});

impl Mode for Ensemble {}

/// The multi-voter detection engine: one extraction, N backend votes,
/// one fused verdict per frame.
pub type FusionEngine = Engine<Ensemble>;

impl FusionEngine {
    /// Creates an engine fusing `voters` (voter 0 is the primary).
    /// `config` supplies framing/extraction parameters; `policy` gates
    /// whether online updates run at all (`is_enabled`) and the retrain
    /// bound — the *cadence* field is ignored, because absorption here is
    /// drift-gated, not interval-gated.
    ///
    /// # Panics
    ///
    /// Panics when `voters` is empty, or holds more than the eight voters
    /// the pipeline's `u8` disagreement mask holds.
    pub fn new(
        voters: Vec<Backend>,
        config: VProfileConfig,
        fusion: FusionConfig,
        policy: UpdatePolicy,
    ) -> Self {
        assert!(
            voters.len() <= MAX_VOTERS,
            "fusion scores at most {MAX_VOTERS} voters"
        );
        let mode = Ensemble {
            core: FusionCore::new(voters.len(), fusion),
            runtime: vec![VoterRuntime::default(); voters.len()],
            scores: vec![None; voters.len()],
            suspend_after: DEFAULT_SUSPEND_AFTER,
            probe_interval: DEFAULT_PROBE_INTERVAL,
            kill_at: None,
        };
        Engine::from_parts(voters, mode, config, policy)
    }

    /// Overrides the consecutive-`Unscorable` streak that suspends a
    /// voter (minimum 1).
    #[must_use]
    pub fn with_suspend_after(mut self, frames: u32) -> Self {
        self.mode.suspend_after = frames.max(1);
        self
    }

    /// Schedules a chaos fault: the first frame whose stream position is
    /// `>= stream_pos` permanently kills `voter` (suspended, never
    /// readmitted), emitting the same backend-attributed outage a real
    /// mid-stream voter loss would. Test instrumentation, not stable API.
    #[doc(hidden)]
    #[must_use]
    pub fn with_kill_at(mut self, voter: u8, stream_pos: u64) -> Self {
        self.mode.kill_at = Some((voter, stream_pos));
        self
    }

    /// The fusion state machine (weights, thresholds, drift detectors).
    pub fn core(&self) -> &FusionCore {
        &self.mode.core
    }

    /// `true` while `voter` is suspended from the ensemble.
    pub fn suspended(&self, voter: usize) -> bool {
        self.mode.suspended(voter)
    }

    /// Scores one already-extracted edge set — the fused counterpart of
    /// [`DetectionBackend::classify_into`], for evaluations that compare
    /// the ensemble against single backends on identical observations.
    /// Fusion state advances exactly as in streaming operation, without
    /// the absorption and outage event plumbing.
    pub fn classify_extracted(&mut self, sa: SourceAddress, edge_set: &[f64]) -> FusedScore {
        self.scratch.edge_set.clear();
        self.scratch.edge_set.extend_from_slice(edge_set);
        let (scored, _) = self.score_extracted(sa);
        scored
    }

    /// Scores the already-extracted observation through every live voter
    /// and fuses the calibrated scores. Returns the fused outcome plus a
    /// newly-detected unscorable-streak outage, if any.
    fn score_extracted(&mut self, sa: SourceAddress) -> (FusedScore, Option<(u8, OutageCause)>) {
        let mode = &mut self.mode;
        let suspend_after = mode.suspend_after;
        let probe_interval = mode.probe_interval;
        let mut outage: Option<(u8, OutageCause)> = None;
        let mut primary_verdict = Verdict::Anomaly {
            kind: AnomalyKind::Unscorable,
        };
        for (index, ((voter, rt), slot)) in self
            .voters
            .iter_mut()
            .zip(mode.runtime.iter_mut())
            .zip(mode.scores.iter_mut())
            .enumerate()
        {
            if rt.suspended {
                // Readmission probe: a suspended (but not killed) voter is
                // re-scored every `probe_interval`-th frame; one scorable
                // verdict brings it back into the ensemble.
                rt.since_probe += 1;
                if !rt.killed && rt.since_probe >= probe_interval {
                    rt.since_probe = 0;
                    let verdict = voter.classify_into(&mut self.scratch, sa);
                    if !verdict.is_unscorable() {
                        rt.suspended = false;
                        rt.unscorable_streak = 0;
                        *slot = calibrated(voter, sa, &verdict);
                        if index == 0 {
                            primary_verdict = verdict;
                        }
                        continue;
                    }
                }
                *slot = None;
                continue;
            }
            let verdict = voter.classify_into(&mut self.scratch, sa);
            if verdict.is_unscorable() {
                rt.unscorable_streak += 1;
                if rt.unscorable_streak >= suspend_after {
                    rt.suspended = true;
                    rt.since_probe = 0;
                    if outage.is_none() {
                        let voter = u8::try_from(index).unwrap_or(u8::MAX);
                        outage = Some((voter, OutageCause::UnscorableStreak));
                    }
                }
            } else {
                rt.unscorable_streak = 0;
            }
            *slot = calibrated(voter, sa, &verdict);
            if index == 0 {
                primary_verdict = verdict;
            }
        }

        let decision = mode.core.fuse(sa.0, &mode.scores);

        // `new` caps the voters at the mask's eight bits.
        let mut disagree_mask = 0u8;
        for (index, slot) in mode.scores.iter().enumerate() {
            if let Some(score) = slot {
                if (*score >= 0.5) != decision.anomaly {
                    disagree_mask |= 1u8 << index;
                }
            }
        }

        let verdict = fused_verdict(primary_verdict, &decision);
        (
            FusedScore {
                verdict,
                decision,
                disagree_mask,
            },
            outage,
        )
    }
}

impl Ensemble {
    /// Kills one voter immediately (chaos path). Returns the outage
    /// transition when the voter was live.
    // xtask: cold
    fn kill_voter_now(&mut self, voter: u8) -> Option<(u8, OutageCause)> {
        let rt = self.runtime.get_mut(usize::from(voter))?;
        rt.killed = true;
        if rt.suspended {
            return None;
        }
        rt.suspended = true;
        rt.since_probe = 0;
        Some((voter, OutageCause::Fault))
    }
}

impl Decide for Ensemble {
    fn absorber_count(voters: usize) -> usize {
        voters
    }

    fn disagreement_slots(voters: usize) -> usize {
        voters
    }

    fn suspended(&self, voter: usize) -> bool {
        self.runtime.get(voter).is_some_and(|rt| rt.suspended)
    }

    /// Ensemble scoring, drift-gated absorption and outage emission.
    // xtask: hot-path
    fn decide(
        engine: &mut FusionEngine,
        stream_pos: u64,
        sa: SourceAddress,
        shard: usize,
        extract_ns: u64,
        scoring: Instant,
    ) -> Outcome {
        // Chaos kill knob: keyed on stream position so the fault lands on
        // the same frame every run, keeping chaos tests deterministic.
        let mut outage: Option<(u8, OutageCause)> = None;
        if let Some((voter, at)) = engine.mode.kill_at {
            if stream_pos >= at {
                engine.mode.kill_at = None;
                outage = engine.mode.kill_voter_now(voter);
            }
        }

        let (scored, streak_outage) = engine.score_extracted(sa);
        if outage.is_none() {
            outage = streak_outage;
        }

        // Drift-gated §5.3 update: absorption needs an open ScoreShift
        // budget (decision.absorb_ok) besides the engine's own gate. There
        // is no fixed cadence to fall back to.
        let mut retrain_due = false;
        let mut absorbed = false;
        if engine.may_absorb(sa, scored.decision.anomaly) {
            if scored.decision.absorb_ok && outage.is_none() {
                engine.absorb_frame(sa);
                absorbed = true;
            }
            retrain_due = engine.retrain_due();
        }

        let record = FusionRecord {
            sa: sa.0,
            score: scored.decision.score,
            threshold: scored.decision.threshold,
            anomaly: scored.decision.anomaly,
            scored: scored.decision.scored,
            episode: scored.decision.episode,
            absorbed,
            disagree_mask: scored.disagree_mask,
            drift: scored.decision.drift,
            outage: outage.map(|(voter, _)| voter),
        };

        // A voter-loss transition consumes this one frame as an explicit
        // degradation marker (never an anomaly: the outage is a runtime
        // integrity signal, not an attack verdict), keeping the pipeline's
        // frame-partition identity intact.
        let event = match outage {
            Some((voter, cause)) => IdsEvent::Degraded {
                stream_pos,
                shard,
                reason: DegradeReason::VoterOutage {
                    voter,
                    backend: engine
                        .voters
                        .get(usize::from(voter))
                        .map(Backend::kind)
                        .unwrap_or(BackendKind::VProfile),
                    cause,
                },
            },
            None => scored_event(stream_pos, sa, scored.verdict, retrain_due),
        };
        Outcome {
            event,
            disagree_mask: record.disagree_mask,
            fusion: Some(record),
            extract_ns,
            score_ns: elapsed_ns(scoring),
            shadow_ns: 0,
        }
    }
}

/// Maps the fused call onto a [`Verdict`]. Agreement keeps the primary's
/// fully-attributed verdict; an ensemble overrule synthesizes a
/// calibrated-space verdict (`distance` = fused score, `limit` = θ).
fn fused_verdict(primary: Verdict, decision: &FusionDecision) -> Verdict {
    if !decision.scored {
        return Verdict::Anomaly {
            kind: AnomalyKind::Unscorable,
        };
    }
    match (decision.anomaly, primary.is_anomaly()) {
        (true, true) | (false, false) => primary,
        (true, false) => Verdict::Anomaly {
            kind: AnomalyKind::ThresholdExceeded {
                cluster: representative_cluster(&primary),
                distance: decision.score,
                limit: decision.threshold,
            },
        },
        (false, true) => Verdict::Ok {
            cluster: representative_cluster(&primary),
            distance: decision.score,
        },
    }
}

/// Best-effort cluster attribution for synthesized fused verdicts.
fn representative_cluster(verdict: &Verdict) -> ClusterId {
    match verdict {
        Verdict::Ok { cluster, .. } => *cluster,
        Verdict::Anomaly { kind } => match kind {
            AnomalyKind::ClusterMismatch { predicted, .. } => *predicted,
            AnomalyKind::ThresholdExceeded { cluster, .. } => *cluster,
            _ => ClusterId(0),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FusionPipeline, PipelineConfig};
    use std::sync::Arc;
    use vprofile::{EdgeSetExtractor, ScratchArena, Trainer};
    use vprofile_baselines::{ScissionDetector, VidenDetector, VoltageIdsDetector};
    use vprofile_vehicle::{CaptureConfig, Vehicle};

    /// Trains the full four-backend ensemble on a clean vehicle-B session
    /// and returns it with a 120-frame replay stream.
    fn fixture() -> (FusionEngine, Vec<f64>) {
        let vehicle = Vehicle::vehicle_b(29);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(400).with_seed(29))
            .expect("capture");
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
        let labeled = extracted.labeled();
        let lut = vehicle.sa_lut();
        let model = Trainer::new(config.clone())
            .train_with_lut(&labeled, &lut)
            .expect("training");
        let voters = vec![
            Backend::vprofile(model, 2.0),
            Backend::from(VidenDetector::fit(&labeled, &lut, 6.0).expect("viden")),
            Backend::from(ScissionDetector::fit(&labeled, &lut, 0.5).expect("scission")),
            Backend::from(VoltageIdsDetector::fit(&labeled, &lut, 0.0).expect("voltageids")),
        ];
        let engine = FusionEngine::new(
            voters,
            config,
            FusionConfig::default(),
            UpdatePolicy::disabled(),
        );
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(120) {
            stream.extend(frame.trace.to_f64());
        }
        (engine, stream)
    }

    #[test]
    fn clean_stream_scores_normal_through_the_full_ensemble() {
        let (mut engine, stream) = fixture();
        let mut events = engine.process_samples(&stream);
        if let Some(event) = engine.finish() {
            events.push(event);
        }
        assert_eq!(events.len(), 120);
        for event in &events {
            assert!(
                !event.is_anomaly(),
                "clean replay must fuse to normal: {event:?}"
            );
            assert!(!event.is_degraded());
        }
    }

    #[test]
    fn sharded_pipeline_matches_the_standalone_engine() {
        let (engine, stream) = fixture();

        let mut standalone = engine.clone();
        let mut expected = standalone.process_samples(&stream);
        if let Some(event) = standalone.finish() {
            expected.push(event);
        }

        let mut pipeline = FusionPipeline::spawn(engine, PipelineConfig::default().with_workers(4));
        for chunk in stream.chunks(8192) {
            pipeline.feed(chunk.to_vec()).expect("feed");
        }
        pipeline.close_input();
        let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
        let (engines, stats) = pipeline.close().expect("clean close");

        assert_eq!(engines.len(), 4, "one fusion engine per shard");
        assert_eq!(
            serde_json::to_string(&events).expect("serialize"),
            serde_json::to_string(&expected).expect("serialize"),
            "SA-affine routing keeps the fused stream identical to one worker"
        );
        assert_eq!(stats.frames, 120);
        assert_eq!(
            stats.frames,
            stats.anomalies
                + stats.normals
                + stats.extraction_failures
                + stats.dropped
                + stats.degraded,
            "five-way identity: {stats:?}"
        );
        assert_eq!(
            stats.fusion_frames, 120,
            "every framed window carries fusion telemetry"
        );
        assert_eq!(stats.voter_disagreements.len(), 4);
        assert_eq!(stats.voter_outages, 0);
    }

    #[test]
    fn notable_frames_agree_with_the_ledger_and_stats() {
        let (engine, stream) = fixture();
        let mut pipeline = FusionPipeline::spawn(engine, PipelineConfig::default().with_workers(2));
        for chunk in stream.chunks(8192) {
            pipeline.feed(chunk.to_vec()).expect("feed");
        }
        pipeline.close_input();
        let _: Vec<IdsEvent> = pipeline.events().into_iter().collect();
        let ledger = Arc::clone(pipeline.ledger());
        let (_, stats) = pipeline.close().expect("clean close");
        let notables = ledger.events();

        let drift_notables = notables.iter().filter(|e| e.record.drift.is_some()).count();
        let outage_notables = notables
            .iter()
            .filter(|e| e.record.outage.is_some())
            .count();
        assert_eq!(ledger.drift_count(), drift_notables);
        assert_eq!(ledger.outage_count(), outage_notables);
        assert_eq!(stats.drift_verdicts, drift_notables as u64);
        assert_eq!(stats.voter_outages, outage_notables as u64);
        for event in &notables {
            assert!(event.record.drift.is_some() || event.record.outage.is_some());
        }
    }

    #[test]
    fn paranoid_secondary_is_outvoted_but_counted() {
        let vehicle = Vehicle::vehicle_b(31);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(400).with_seed(31))
            .expect("capture");
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
        let labeled = extracted.labeled();
        let lut = vehicle.sa_lut();
        let model = Trainer::new(config.clone())
            .train_with_lut(&labeled, &lut)
            .expect("training");
        // A near-zero acceptance radius makes the Viden voter flag every
        // frame; its agreement-learned weight collapses to the floor and
        // the rest of the ensemble outvotes it.
        let voters = vec![
            Backend::vprofile(model, 2.0),
            Backend::from(VidenDetector::fit(&labeled, &lut, 1e-9).expect("viden")),
            Backend::from(ScissionDetector::fit(&labeled, &lut, 0.5).expect("scission")),
        ];
        let extractor = EdgeSetExtractor::new(config.clone());
        let mut scratch = ScratchArena::new();
        let mut engine = FusionEngine::new(
            voters,
            config,
            FusionConfig::default(),
            UpdatePolicy::disabled(),
        );
        let mut disagreements = [0u64; 3];
        let mut anomalies = 0usize;
        let mut frames = 0usize;
        for frame in capture.frames().iter().take(150) {
            let Ok(sa) = extractor.extract_into(&frame.trace.to_f64(), &mut scratch) else {
                continue;
            };
            let scored = engine.classify_extracted(sa, &scratch.edge_set);
            frames += 1;
            if scored.decision.anomaly {
                anomalies += 1;
            }
            for (index, count) in disagreements.iter_mut().enumerate() {
                if scored.disagree_mask & (1 << index) != 0 {
                    *count += 1;
                }
            }
        }
        assert!(frames > 100, "most frames extract");
        assert_eq!(
            anomalies, 0,
            "two healthy voters must outvote one paranoid voter"
        );
        assert_eq!(disagreements[0], 0, "the primary agrees with itself");
        assert_eq!(
            disagreements[1], frames as u64,
            "the paranoid voter disagrees on every frame"
        );
        let sa = capture.frames()[0].frame.j1939_id().source_address;
        assert!(
            engine.core().weight(sa.raw(), 1) < engine.core().weight(sa.raw(), 2),
            "constant disagreement must cost the paranoid voter its weight"
        );
    }

    #[test]
    #[should_panic(expected = "at most 8 voters")]
    fn more_than_eight_voters_are_rejected() {
        let (engine, _) = fixture();
        let voters = vec![engine.voters[0].clone(); MAX_VOTERS + 1];
        let _ = FusionEngine::new(
            voters,
            engine.config.clone(),
            FusionConfig::default(),
            UpdatePolicy::disabled(),
        );
    }

    #[test]
    fn unscorable_frames_fail_closed_and_suspend_voters() {
        let (engine, _) = fixture();
        let mut engine = engine.with_suspend_after(3);
        // A four-sample edge set is below every backend's scorable floor,
        // so all voters abstain: the fused frame must fail closed, and the
        // streak must suspend (at least) the first voter with an outage.
        let sa = Vehicle::vehicle_b(29).ecus()[0].schedules[0].sa;
        let mut outages = Vec::new();
        for _ in 0..4 {
            engine.scratch.edge_set.clear();
            engine
                .scratch
                .edge_set
                .extend_from_slice(&[0.5, 0.4, 0.6, 0.5]);
            let (scored, outage) = engine.score_extracted(sa);
            assert!(!scored.decision.scored, "all voters abstained");
            assert!(
                scored.verdict.is_unscorable(),
                "an all-abstain frame fails closed as Unscorable"
            );
            if let Some(outage) = outage {
                outages.push(outage);
            }
        }
        assert_eq!(
            outages,
            vec![(0, OutageCause::UnscorableStreak)],
            "one outage transition, attributed to the first streaked voter"
        );
        assert!(engine.suspended(0), "the streaked voter is suspended");
    }

    #[test]
    fn non_finite_calibrated_scores_abstain() {
        let (engine, _) = fixture();
        let sa = Vehicle::vehicle_b(29).ecus()[0].schedules[0].sa;
        let nan_ok = Verdict::Ok {
            cluster: ClusterId(0),
            distance: f64::NAN,
        };
        let nan_excess = Verdict::Anomaly {
            kind: AnomalyKind::ThresholdExceeded {
                cluster: ClusterId(0),
                distance: f64::NAN,
                limit: 1.0,
            },
        };
        let ok = Verdict::Ok {
            cluster: ClusterId(0),
            distance: 0.5,
        };
        for voter in &engine.voters {
            for verdict in [nan_ok, nan_excess, ok] {
                let raw = voter.calibrated_score(sa, &verdict);
                let want = raw.filter(|s| s.is_finite());
                assert_eq!(calibrated(voter, sa, &verdict), want, "{verdict:?}");
            }
        }
        // The primary maps an Ok NaN distance to a NaN score: the case
        // that used to turn θ NaN.
        assert!(engine.voters[0]
            .calibrated_score(sa, &nan_ok)
            .is_some_and(f64::is_nan));
        assert_eq!(calibrated(&engine.voters[0], sa, &nan_ok), None);
    }

    #[test]
    fn suspended_voter_is_readmitted_by_a_probe() {
        let (engine, stream) = fixture();
        let mut engine = engine.with_suspend_after(2);
        engine.mode.probe_interval = 4;
        let sa = Vehicle::vehicle_b(29).ecus()[0].schedules[0].sa;
        for _ in 0..2 {
            engine.scratch.edge_set.clear();
            engine
                .scratch
                .edge_set
                .extend_from_slice(&[0.5, 0.4, 0.6, 0.5]);
            let _ = engine.score_extracted(sa);
        }
        assert!(engine.suspended(0) && engine.suspended(1));
        // Healthy frames flow again: within one probe interval every
        // suspended voter scores once and rejoins the ensemble.
        let events = engine.process_samples(&stream);
        assert!(events.len() > 8);
        for voter in 0..4 {
            assert!(
                !engine.suspended(voter),
                "voter {voter} must be readmitted once frames are scorable again"
            );
        }
        assert!(
            events.iter().skip(8).all(|e| !e.is_anomaly()),
            "readmission must not manufacture anomalies"
        );
    }

    #[test]
    fn fused_verdict_keeps_primary_attribution_on_agreement() {
        let primary = Verdict::Ok {
            cluster: ClusterId(3),
            distance: 0.2,
        };
        let agree = FusionDecision {
            anomaly: false,
            score: 0.1,
            scored: true,
            threshold: 0.6,
            absorb_ok: false,
            episode: false,
            drift: None,
        };
        assert_eq!(fused_verdict(primary, &agree), primary);

        // Ensemble overrules a clean primary: synthesized calibrated-space
        // anomaly carrying the fused score and the adaptive threshold.
        let overrule = FusionDecision {
            anomaly: true,
            ..agree
        };
        match fused_verdict(primary, &overrule) {
            Verdict::Anomaly {
                kind:
                    AnomalyKind::ThresholdExceeded {
                        cluster,
                        distance,
                        limit,
                    },
            } => {
                assert_eq!(cluster, ClusterId(3));
                assert!((distance - 0.1).abs() < 1e-12);
                assert!((limit - 0.6).abs() < 1e-12);
            }
            other => panic!("expected synthesized ThresholdExceeded, got {other:?}"),
        }

        // Ensemble overrules an alarming primary: synthesized Ok.
        let alarming = Verdict::Anomaly {
            kind: AnomalyKind::ThresholdExceeded {
                cluster: ClusterId(5),
                distance: 9.0,
                limit: 2.0,
            },
        };
        match fused_verdict(alarming, &agree) {
            Verdict::Ok { cluster, distance } => {
                assert_eq!(cluster, ClusterId(5));
                assert!((distance - 0.1).abs() < 1e-12);
            }
            other => panic!("expected synthesized Ok, got {other:?}"),
        }

        // No voter scored: fail closed regardless of the stale primary.
        let unscored = FusionDecision {
            scored: false,
            ..agree
        };
        assert!(fused_verdict(primary, &unscored).is_unscorable());
    }
}
