//! Per-backend pipeline equivalence: every detection backend must behave
//! identically under sharding and supervisor restarts.
//!
//! Two invariants, each checked for vProfile, Viden, Scission, and
//! VoltageIDS through the *same* `IdsPipeline` code path:
//!
//! * **worker-count identity** — an N-worker run emits byte-identical
//!   events to a single-worker run (online updates disabled, since shared
//!   cluster state may span SAs living on different shards);
//! * **restart identity** — a supervisor-restarted worker produces the
//!   same event stream as an unrestarted one, except for the single
//!   in-flight window that becomes a `Dropped` placeholder. The
//!   supervisor checkpoints each worker's engine with `Clone`, so this is
//!   what pins a restart to the checkpointed state.

use std::sync::Arc;
use vprofile::{EdgeSetExtractor, Trainer, VProfileConfig};
use vprofile_baselines::{ScissionDetector, VidenDetector, VoltageIdsDetector};
use vprofile_ids::{
    Backend, IdsEngine, IdsEvent, IdsPipeline, PipelineConfig, PipelineStats, UpdatePolicy,
};
use vprofile_vehicle::{Capture, CaptureConfig, Vehicle};

/// Trains all four backends on one clean vehicle-B capture and returns an
/// engine per backend plus the raw replay stream.
fn backend_engines(seed: u64, frames: usize) -> (Vec<IdsEngine>, Vec<f64>) {
    let vehicle = Vehicle::vehicle_b(seed);
    let capture = vehicle
        .capture(&CaptureConfig::default().with_frames(frames).with_seed(seed))
        .expect("capture");
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
    let labeled = extracted.labeled();
    let lut = vehicle.sa_lut();

    let model = Trainer::new(config.clone())
        .train_with_lut(&labeled, &lut)
        .expect("vprofile training");
    let viden = VidenDetector::fit(&labeled, &lut, 6.0).expect("viden training");
    let scission = ScissionDetector::fit(&labeled, &lut, 0.5).expect("scission training");
    let voltageids = VoltageIdsDetector::fit(&labeled, &lut, 0.0).expect("voltageids training");

    let backends = vec![
        Backend::vprofile(model, 2.0),
        Backend::from(viden),
        Backend::from(scission),
        Backend::from(voltageids),
    ];
    let engines = backends
        .into_iter()
        .map(|b| IdsEngine::with_backend(b, config.clone(), UpdatePolicy::disabled()))
        .collect();
    (engines, stream_of(&capture))
}

fn stream_of(capture: &Capture) -> Vec<f64> {
    let mut stream = Vec::new();
    for frame in capture.frames() {
        stream.extend(frame.trace.to_f64());
    }
    stream
}

fn run_pipeline(
    engine: IdsEngine,
    config: PipelineConfig,
    stream: &[f64],
) -> (Vec<IdsEvent>, PipelineStats) {
    let mut pipeline = IdsPipeline::spawn_sharded(engine, config);
    for chunk in stream.chunks(8192) {
        pipeline.feed(chunk.to_vec()).expect("feed");
    }
    pipeline.close_input();
    let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
    let (_, stats) = pipeline.close().expect("clean close");
    (events, stats)
}

#[test]
fn every_backend_scores_clean_traffic_through_the_pipeline() {
    let (engines, stream) = backend_engines(31, 400);
    for engine in engines {
        let name = engine.backend_name();
        let (events, stats) =
            run_pipeline(engine, PipelineConfig::default().with_workers(2), &stream);
        assert_eq!(stats.frames, 400, "{name}: one event per frame");
        assert_eq!(
            stats.frames,
            stats.anomalies
                + stats.normals
                + stats.extraction_failures
                + stats.dropped
                + stats.degraded,
            "{name}: counter identity"
        );
        assert_eq!(stats.extraction_failures, 0, "{name}: clean capture");
        assert!(
            stats.normals as f64 / stats.frames as f64 > 0.9,
            "{name}: clean replay must mostly score normal: {stats:?}"
        );
        assert_eq!(events.len() as u64, stats.frames);
    }
}

#[test]
fn n_worker_events_are_byte_identical_to_single_worker_per_backend() {
    let (engines, stream) = backend_engines(37, 400);
    for engine in engines {
        let name = engine.backend_name();
        let (single, _) = run_pipeline(
            engine.clone(),
            PipelineConfig::default().with_workers(1),
            &stream,
        );
        let (quad, quad_stats) =
            run_pipeline(engine, PipelineConfig::default().with_workers(4), &stream);
        assert_eq!(
            serde_json::to_string(&single).expect("serialize"),
            serde_json::to_string(&quad).expect("serialize"),
            "{name}: 4-worker events must match 1-worker byte for byte"
        );
        assert!(
            quad_stats.shard_frames.iter().filter(|&&n| n > 0).count() > 1,
            "{name}: traffic must actually spread over shards: {:?}",
            quad_stats.shard_frames
        );
    }
}

#[test]
fn restarted_worker_reconverges_with_unrestarted_run_per_backend() {
    let (engines, stream) = backend_engines(41, 400);
    for engine in engines {
        let name = engine.backend_name();
        // Checkpoint every window, so the rollback replays nothing: the
        // restarted run must differ from the clean one in exactly the
        // window in flight at the panic, which becomes Dropped.
        let base = PipelineConfig::default()
            .with_workers(2)
            .with_checkpoint_interval(1)
            .with_backoff_base_ms(1);
        let (clean, _) = run_pipeline(engine.clone(), base.clone(), &stream);
        let faulted_config = base.with_fault_hook(Arc::new(|shard, seq| {
            if seq == 150 {
                panic!("forced panic in shard {shard} at seq {seq}");
            }
        }));
        let (faulted, stats) = run_pipeline(engine, faulted_config, &stream);
        assert_eq!(stats.restarts.iter().sum::<u32>(), 1, "{name}: one restart");
        assert_eq!(stats.dropped, 1, "{name}: exactly the in-flight window");
        assert_eq!(clean.len(), faulted.len(), "{name}: same frame count");
        let mut diffs = 0;
        for (c, f) in clean.iter().zip(&faulted) {
            if c == f {
                continue;
            }
            diffs += 1;
            assert!(
                matches!(f, IdsEvent::Dropped { .. }),
                "{name}: the only divergence is the dropped window: {c:?} vs {f:?}"
            );
        }
        assert_eq!(diffs, 1, "{name}: restart must not perturb any other event");
    }
}
