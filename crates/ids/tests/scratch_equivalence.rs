//! Property test: the zero-allocation scratch-reuse hot path is
//! byte-identical to a fresh-allocation reference.
//!
//! The engine and the sharded pipeline thread one [`vprofile::ScratchArena`]
//! per worker through extraction and scoring. This suite replays random
//! fleets and seeded chaos streams through three scratch-reusing
//! configurations — the synchronous engine, a 1-worker pipeline, and a
//! 4-worker pipeline — and demands the exact same event stream (compared as
//! serialized JSON, so every float bit and field matters) as a reference
//! that allocates fresh buffers for every single frame.
//!
//! Fleet captures are trained once per fleet and shared across cases (the
//! per-case randomness is the fault mix, fault seed, and feed chunking);
//! the pipeline health breaker is disabled (`trip_ratio > 1`) so heavily
//! corrupted streams still score every window and stay comparable to the
//! reference.

use proptest::prelude::*;
use std::sync::OnceLock;
use vprofile::{AnomalyKind, Detector, EdgeSetExtractor, Model, Trainer, VProfileConfig, Verdict};
use vprofile_analog::Fault;
use vprofile_can::SourceAddress;
use vprofile_ids::{
    HealthConfig, IdsEngine, IdsEvent, IdsPipeline, PipelineConfig, ScoredEvent, StreamFramer,
    UpdatePolicy,
};
use vprofile_vehicle::scenario::{chaos_stream, stress_fleet};
use vprofile_vehicle::{Capture, CaptureConfig};

/// The detection margin used by every path under test.
const MARGIN: f64 = 2.0;

/// One trained fleet, reused across proptest cases.
struct Setup {
    model: Model,
    capture: Capture,
}

/// (ecus, capture frames, seed) per fleet; lazily trained on first draw.
const FLEETS: [(usize, usize, u64); 3] = [(2, 130, 901), (4, 240, 902), (6, 360, 903)];

fn setup(fleet: usize) -> &'static Setup {
    static SETUPS: [OnceLock<Setup>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    SETUPS[fleet].get_or_init(|| {
        let (ecus, frames, seed) = FLEETS[fleet];
        let vehicle = stress_fleet(ecus, seed);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(frames).with_seed(seed))
            .expect("capture");
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
        assert_eq!(extracted.failures, 0, "training traffic must be clean");
        let model = Trainer::new(config)
            .train_with_lut(&extracted.labeled(), &vehicle.sa_lut())
            .expect("training");
        Setup { model, capture }
    })
}

/// Reference path: fresh allocations per frame — `extract` builds a new
/// observation that `classify` scores — mirroring the engine's framing
/// and failure semantics exactly.
fn fresh_alloc_events(model: &Model, stream: &[f64]) -> Vec<IdsEvent> {
    let config = model.config().clone();
    let extractor = EdgeSetExtractor::new(config.clone());
    let detector = Detector::with_margin(model, MARGIN);
    let mut framer = StreamFramer::new(config.bit_width_samples, config.bit_threshold);
    let mut windows = framer.push(stream);
    if let Some(last) = framer.flush() {
        windows.push(last);
    }
    windows
        .iter()
        .map(|(stream_pos, window)| {
            let scored = match extractor.extract(window) {
                Ok(obs) => ScoredEvent {
                    stream_pos: *stream_pos,
                    sa: Some(obs.sa),
                    verdict: detector.classify(&obs),
                    extraction_failed: false,
                    retrain_due: false,
                },
                Err(_) => ScoredEvent {
                    stream_pos: *stream_pos,
                    sa: None,
                    verdict: Verdict::Anomaly {
                        kind: AnomalyKind::UnknownSa {
                            sa: SourceAddress(0xFF),
                        },
                    },
                    extraction_failed: true,
                    retrain_due: false,
                },
            };
            IdsEvent::Scored(scored)
        })
        .collect()
}

/// Scratch path 1: the synchronous engine, one arena reused across frames.
fn engine_events(model: &Model, stream: &[f64]) -> Vec<IdsEvent> {
    let mut engine = IdsEngine::new(model.clone(), MARGIN, UpdatePolicy::disabled());
    let mut events = engine.process_samples(stream);
    if let Some(last) = engine.finish() {
        events.push(last);
    }
    events
}

/// Scratch path 2: the sharded pipeline, one arena per worker, with the
/// stream fed in `chunk`-sized pieces.
fn pipeline_events(model: &Model, stream: &[f64], workers: usize, chunk: usize) -> Vec<IdsEvent> {
    let engine = IdsEngine::new(model.clone(), MARGIN, UpdatePolicy::disabled());
    let config = PipelineConfig::default()
        .with_workers(workers)
        .with_health(HealthConfig {
            // A ratio above 1.0 can never trip: every window is scored, so
            // the stream stays comparable to the breaker-free reference.
            trip_ratio: 2.0,
            ..HealthConfig::default()
        });
    let mut pipeline = IdsPipeline::spawn_sharded(engine, config);
    for piece in stream.chunks(chunk) {
        pipeline.feed(piece.to_vec()).expect("feed");
    }
    pipeline.close_input();
    let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
    let (_, stats) = pipeline.close().expect("clean close");
    assert_eq!(stats.degraded, 0, "breaker must stay closed: {stats:?}");
    assert_eq!(stats.dropped, 0, "no faults injected into workers");
    events
}

fn as_json(events: &[IdsEvent]) -> String {
    serde_json::to_string(events).expect("events serialize")
}

proptest! {
    /// Over random fleets and chaos streams, scratch reuse must not change
    /// a single output bit, at 1 and 4 workers and for any feed chunking.
    #[test]
    fn prop_scratch_reuse_is_byte_identical(
        fleet in 0usize..3,
        fault_seed in any::<u64>(),
        dropout_millis in 0u32..12,
        burst_millis in 0u32..6,
        chunk_kib in 1usize..80,
    ) {
        let setup = setup(fleet);
        let mut faults = Vec::new();
        if dropout_millis > 0 {
            faults.push(Fault::Dropout {
                prob: f64::from(dropout_millis) / 1000.0,
                max_gap: 4,
            });
        }
        if burst_millis > 0 {
            faults.push(Fault::Burst {
                prob: f64::from(burst_millis) / 10_000.0,
                max_len: 48,
                sigma_codes: 250.0,
            });
        }
        // With no faults drawn this is the clean concatenated capture.
        let stream = chaos_stream(&setup.capture, fault_seed, &faults);

        let expected = fresh_alloc_events(&setup.model, &stream);
        prop_assert!(!expected.is_empty(), "stream must frame some windows");
        let expected_json = as_json(&expected);

        let engine_json = as_json(&engine_events(&setup.model, &stream));
        prop_assert_eq!(&engine_json, &expected_json,
            "engine scratch reuse diverged from fresh allocation");

        for workers in [1usize, 4] {
            let got = pipeline_events(&setup.model, &stream, workers, chunk_kib * 1024);
            prop_assert_eq!(&as_json(&got), &expected_json,
                "{}-worker pipeline diverged from fresh allocation", workers);
        }
    }
}
