//! Shadow mode: run candidate backends against the production stream
//! without letting them raise alarms.
//!
//! A [`ShadowPipeline`] is an [`IdsPipeline`] whose workers score every
//! framed window through the **primary** engine *and* through N shadow
//! engines cloned alongside it on each shard. Only the primary's verdicts
//! drive the event stream, the circuit breaker, and online updates; the
//! shadows ride along read-only, and every frame where a shadow's
//! anomaly/normal call differs from the primary's is surfaced as a
//! [`ShadowEvent`] and counted in
//! [`PipelineStats::shadow_disagreements`](crate::PipelineStats::shadow_disagreements).
//! That makes shadow mode the safe way to evaluate a Viden or Scission
//! backend (or a retrained vProfile model) against live traffic before
//! promoting it.
//!
//! Shadow engines are checkpointed and rolled back by the worker
//! supervisor exactly like the primary, so a panic-and-restart cycle
//! cannot make the shadows drift ahead of the primary's replay point.

use crate::pipeline::{PipelineConfig, PipelineError, PipelineStats};
use crate::{IdsEngine, IdsEvent, IdsPipeline};
use crossbeam::channel::Receiver;
use serde::Serialize;
use vprofile::Verdict;

/// One shadow backend's call on a frame, paired with whether it
/// disagreed with the primary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShadowVerdict {
    /// The shadow backend's stable name (e.g. `"viden"`).
    pub backend: &'static str,
    /// What the shadow would have said about this frame.
    pub verdict: Verdict,
    /// `true` when the shadow's anomaly/normal call differs from the
    /// primary's for this frame.
    pub disagrees: bool,
}

/// Emitted, in framing order, for every frame on which at least one
/// shadow backend disagreed with the primary; sent just before the frame's
/// own event, in the critical section that counts it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShadowEvent {
    /// Sample index of the frame's first sample in the input stream.
    pub stream_pos: u64,
    /// Whether the primary flagged the frame as anomalous.
    pub primary_anomaly: bool,
    /// Every shadow's verdict on the frame (disagreeing or not), in the
    /// order the shadow engines were passed to [`ShadowPipeline::spawn`].
    pub shadows: Vec<ShadowVerdict>,
}

/// A sharded pipeline running one primary engine plus N shadow engines
/// over the same framed windows.
///
/// Wraps [`IdsPipeline`]; the primary's event stream and statistics are
/// unchanged by the shadows (beyond the `shadow_*` counters), and
/// disagreement frames additionally arrive on
/// [`ShadowPipeline::shadow_events`].
#[derive(Debug)]
pub struct ShadowPipeline {
    inner: IdsPipeline,
    shadow_rx: Receiver<ShadowEvent>,
}

impl ShadowPipeline {
    /// Spawns the sharded pipeline with `shadows` scored alongside
    /// `primary` on every shard.
    ///
    /// Each worker owns a clone of the primary *and* of every shadow, so
    /// shadows see exactly the windows their shard's primary sees, in the
    /// same order. Shadows never feed the circuit breaker, never absorb
    /// online updates from the stream, and never affect the emitted
    /// [`IdsEvent`] stream.
    pub fn spawn(primary: IdsEngine, shadows: Vec<IdsEngine>, config: PipelineConfig) -> Self {
        let (inner, shadow_rx) = IdsPipeline::spawn_with_shadows(primary, shadows, config);
        ShadowPipeline { inner, shadow_rx }
    }

    /// Feeds one chunk of samples; see [`IdsPipeline::feed`].
    ///
    /// # Errors
    ///
    /// Propagates [`IdsPipeline::feed`] errors.
    pub fn feed(&self, samples: Vec<f64>) -> Result<(), PipelineError> {
        self.inner.feed(samples)
    }

    /// The primary's event stream, in framing order.
    pub fn events(&self) -> &Receiver<IdsEvent> {
        self.inner.events()
    }

    /// Frames where at least one shadow disagreed with the primary, in
    /// framing order.
    pub fn shadow_events(&self) -> &Receiver<ShadowEvent> {
        &self.shadow_rx
    }

    /// Number of detection workers.
    pub fn worker_count(&self) -> usize {
        self.inner.worker_count()
    }

    /// Closes the sample input without joining; see
    /// [`IdsPipeline::close_input`].
    pub fn close_input(&mut self) {
        self.inner.close_input();
    }

    /// Snapshot of the aggregate counters, including
    /// [`PipelineStats::shadow_frames`] and
    /// [`PipelineStats::shadow_disagreements`].
    pub fn stats(&self) -> PipelineStats {
        self.inner.stats()
    }

    /// Closes the input, drains every thread, and returns the primary
    /// worker engines with the final statistics; see
    /// [`IdsPipeline::close`].
    ///
    /// # Errors
    ///
    /// Propagates [`IdsPipeline::close`] errors.
    pub fn close(self) -> Result<(Vec<IdsEngine>, PipelineStats), PipelineError> {
        self.inner.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, PipelineConfig, UpdatePolicy};
    use vprofile::{EdgeSetExtractor, Trainer, VProfileConfig};
    use vprofile_baselines::VidenDetector;
    use vprofile_vehicle::{CaptureConfig, Vehicle};

    fn fixture() -> (IdsEngine, IdsEngine, IdsEngine, Vec<f64>) {
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
        let primary = IdsEngine::new(model, 2.0, UpdatePolicy::disabled());
        // An agreeing shadow (a clone of the primary's backend) and a
        // pathological one: a Viden detector with a near-zero acceptance
        // radius flags every frame, disagreeing wherever the primary says
        // normal.
        let agreeing = primary.clone();
        let paranoid = IdsEngine::with_backend(
            Backend::from(VidenDetector::fit(&labeled, &lut, 1e-9).expect("viden")),
            config,
            UpdatePolicy::disabled(),
        );
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(120) {
            stream.extend(frame.trace.to_f64());
        }
        (primary, agreeing, paranoid, stream)
    }

    #[test]
    fn shadow_disagreements_are_counted_and_surfaced() {
        let (primary, agreeing, paranoid, stream) = fixture();
        let mut pipeline =
            ShadowPipeline::spawn(primary, vec![agreeing, paranoid], PipelineConfig::default());
        for chunk in stream.chunks(8192) {
            pipeline.feed(chunk.to_vec()).expect("feed");
        }
        pipeline.close_input();
        let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
        let shadow_events: Vec<ShadowEvent> = pipeline.shadow_events().into_iter().collect();
        let (_, stats) = pipeline.close().expect("clean close");

        assert_eq!(stats.frames, 120);
        assert_eq!(events.len(), 120, "shadows never eat primary events");
        assert_eq!(
            stats.shadow_frames,
            stats.anomalies + stats.normals,
            "every scored frame is shadow-scored"
        );
        assert_eq!(
            stats.shadow_disagreements[0], 0,
            "a clone of the primary never disagrees"
        );
        assert_eq!(
            stats.shadow_disagreements[1], stats.normals,
            "the near-zero-radius shadow disagrees on every normal frame"
        );
        assert_eq!(
            shadow_events.len() as u64,
            stats.shadow_disagreements[1],
            "one ShadowEvent per disagreement frame"
        );
        for event in &shadow_events {
            assert_eq!(event.shadows.len(), 2);
            assert_eq!(event.shadows[0].backend, "vprofile");
            assert_eq!(event.shadows[1].backend, "viden");
            assert!(event.shadows.iter().any(|s| s.disagrees));
        }
        assert!(
            stats.stage_ns.shadow_ns > 0,
            "shadow scoring time is attributed to its own clock"
        );
    }

    #[test]
    fn shadowless_pipeline_reports_zero_shadow_activity() {
        let (primary, _, _, stream) = fixture();
        let mut pipeline = ShadowPipeline::spawn(primary, Vec::new(), PipelineConfig::default());
        for chunk in stream.chunks(8192) {
            pipeline.feed(chunk.to_vec()).expect("feed");
        }
        pipeline.close_input();
        let _: Vec<IdsEvent> = pipeline.events().into_iter().collect();
        let (_, stats) = pipeline.close().expect("clean close");
        assert_eq!(stats.shadow_frames, 0);
        assert!(stats.shadow_disagreements.is_empty());
        assert_eq!(stats.stage_ns.shadow_ns, 0);
    }
}
