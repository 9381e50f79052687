//! A streaming intrusion-detection system built around the vProfile
//! detector.
//!
//! The `vprofile` crate classifies one already-extracted message at a time;
//! this crate supplies the runtime around it that a deployed monitor needs
//! (thesis §1: "vProfile can integrate into an IDS to enable message sender
//! identification"):
//!
//! * [`StreamFramer`] — finds frame boundaries in a continuous raw sample
//!   stream (idle detection + SOF), so the monitor can tap the bus with
//!   nothing but an ADC. It hands out owned windows from the same
//!   splitter the pipeline runs in place, the crate's one framing state
//!   machine;
//! * [`IdsEngine`] — the synchronous core: frame window → Algorithm 1
//!   extraction → Algorithm 3 detection → [`IdsEvent`]s, with an optional
//!   online-update policy (§5.3) that absorbs accepted messages and signals
//!   when a full retrain is due;
//! * [`Pipeline`] — a threaded, sharded wrapper around either engine
//!   ([`IdsPipeline`], [`FusionPipeline`]): [`Pipeline::feed`]
//!   *splits* each chunk into frame windows on the calling thread, peeks
//!   each window's arbitration field, and routes the window to one of N
//!   detection workers by a stable, seedable hash of the claimed source
//!   address ([`stable_shard_seeded`]) over bounded per-shard SPSC rings
//!   with batched hand-off. Frames are located once: workers score each
//!   window in place, so every worker owns a disjoint set of per-SA
//!   cluster state. The worker that finishes a window merges it, under the
//!   stats lock, through a sequence-numbered [`ReorderBuffer`], making the
//!   output order deterministic and identical to a single-worker run;
//! * self-healing — each worker runs under a supervisor that absorbs
//!   panics and restarts the shard from a checkpointed clone of its engine
//!   (bounded budget, exponential backoff), a per-shard circuit breaker
//!   ([`HealthConfig`]) trips into an explicit degraded mode
//!   ([`IdsEvent::Degraded`], quarantined online updates) instead of
//!   emitting false verdicts, and what `feed` does at a full shard ring is
//!   configurable via [`BackpressurePolicy`];
//! * backend-agnostic — the engine scores through a [`Backend`]
//!   (enum-dispatched [`DetectionBackend`]), so the same framing, sharding,
//!   supervision, and health machinery runs vProfile, Viden-style,
//!   Scission-style, and VoltageIDS-style detectors interchangeably, and
//!   [`IdsEngine::with_shadows`] evaluates candidate backends against live
//!   traffic, on the primary's extracted edge sets, without letting them
//!   raise alarms.
//!
//! # Example
//!
//! ```
//! use vprofile_ids::{IdsEngine, UpdatePolicy};
//! use vprofile_vehicle::{CaptureConfig, Vehicle};
//! use vprofile::{EdgeSetExtractor, Trainer, VProfileConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let vehicle = Vehicle::vehicle_b(9);
//! let capture = vehicle.capture(&CaptureConfig::default().with_frames(900))?;
//! let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
//! let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
//! let model = Trainer::new(config).train_with_lut(&extracted.labeled(), &vehicle.sa_lut())?;
//!
//! // Feed the raw concatenated sample stream back through the engine.
//! let mut engine = IdsEngine::new(model, 2.0, UpdatePolicy::disabled());
//! let mut stream = Vec::new();
//! for frame in capture.frames().iter().take(50) {
//!     stream.extend(frame.trace.to_f64());
//! }
//! let events = engine.process_samples(&stream);
//! assert_eq!(events.len(), 50);
//! assert!(events.iter().all(|e| !e.is_anomaly()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alarm;
mod backend;
mod engine;
mod event;
mod fusion;
mod health;
mod period;
mod pipeline;
mod reorder;
mod ring;
pub mod scan;
mod shard;
mod splitter;

pub use alarm::{AlarmAggregator, AlarmClass, Incident};
pub use backend::{Backend, BackendKind};
pub use engine::{IdsEngine, UpdatePolicy};
pub use event::{IdsEvent, ScoredEvent};
pub use fusion::{FusedScore, FusionEngine};
pub use health::{
    BackpressurePolicy, BreakerState, DegradeReason, DropReason, HealthConfig, OutageCause,
};
pub use period::{PeriodMonitor, PeriodVerdict};
pub use pipeline::{
    FusionPipeline, IdsPipeline, Pipeline, PipelineConfig, PipelineEngine, PipelineError,
    PipelineStats, StageBreakdown,
};
pub use reorder::ReorderBuffer;
pub use shard::stable_shard_seeded;
pub use splitter::StreamFramer;
pub use vprofile_detector_core::{DetectionBackend, VProfileBackend};
pub use vprofile_fusion::{
    CusumConfig, DriftKind, DriftLedger, DriftVerdict, EwmaConfig, FusionConfig, FusionCore,
    FusionDecision, FusionEvent, FusionRecord,
};
