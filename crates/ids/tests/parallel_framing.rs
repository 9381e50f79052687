//! Property suite for the frame-once topology.
//!
//! `feed` frames the stream once, on the calling thread: its
//! `FrameSplitter` locates every frame in the fed chunks and publishes
//! each window to its shard's worker, which scores it in place (copying
//! only a frame that straddles a chunk boundary). These properties pin
//! the load-bearing invariant of that design: for every chunking of the
//! input, every worker count, every shard seed, and across seeded chaos
//! corruption and mid-stream worker restarts, the pipeline's ordered
//! event stream is byte-identical (as serialized JSON) to a single global
//! framer fed the whole stream in order.
//!
//! The reference is the synchronous engine — one framer, one extractor,
//! no pipeline — which `scratch_equivalence` separately pins to the
//! fresh-allocation framer+extractor path. Fleet captures are trained
//! once per fleet and shared across cases; the health breaker is disabled
//! (`trip_ratio > 1`) so corrupted streams still score every window and
//! stay comparable to the breaker-free reference.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use vprofile::{EdgeSetExtractor, Model, Trainer, VProfileConfig};
use vprofile_analog::Fault;
use vprofile_ids::{HealthConfig, IdsEngine, IdsEvent, IdsPipeline, PipelineConfig, UpdatePolicy};
use vprofile_vehicle::scenario::{chaos_stream, stress_fleet};
use vprofile_vehicle::{Capture, CaptureConfig};

/// The detection margin used by every path under test.
const MARGIN: f64 = 2.0;

/// Worker counts every property must hold at.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One trained fleet, reused across proptest cases.
struct Setup {
    model: Model,
    capture: Capture,
    /// The clean concatenated capture stream.
    clean: Vec<f64>,
    /// Single-framer reference events for the clean stream.
    clean_events: Vec<IdsEvent>,
}

/// (ecus, capture frames, seed) per fleet; lazily trained on first draw.
const FLEETS: [(usize, usize, u64); 2] = [(2, 130, 1001), (4, 240, 1002)];

fn setup(fleet: usize) -> &'static Setup {
    static SETUPS: [OnceLock<Setup>; 2] = [OnceLock::new(), OnceLock::new()];
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
        let clean = chaos_stream(&capture, seed, &[]);
        let clean_events = reference_events(&model, &clean);
        Setup {
            model,
            capture,
            clean,
            clean_events,
        }
    })
}

/// Single-framer reference: the synchronous engine, whose one framer sees
/// the entire stream in arrival order.
fn reference_events(model: &Model, stream: &[f64]) -> Vec<IdsEvent> {
    let mut engine = IdsEngine::new(model.clone(), MARGIN, UpdatePolicy::disabled());
    let mut events = engine.process_samples(stream);
    if let Some(last) = engine.finish() {
        events.push(last);
    }
    events
}

/// Breaker that can never trip: every window is scored, so faulted
/// streams stay comparable to the breaker-free reference.
fn lenient_health() -> HealthConfig {
    HealthConfig {
        trip_ratio: 2.0,
        ..HealthConfig::default()
    }
}

/// Splits `stream` at the given fractional positions (sorted, deduped),
/// producing the feed chunks for one pipeline run. A degenerate cut that
/// would produce an empty chunk is skipped: `feed` carries samples, not
/// framing hints, so zero-length feeds are meaningless.
fn cut(stream: &[f64], fractions: &[f64]) -> Vec<Vec<f64>> {
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    let mut cuts: Vec<usize> = fractions
        .iter()
        .map(|f| (f * stream.len() as f64) as usize)
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut chunks = Vec::new();
    let mut start = 0;
    for cut in cuts.into_iter().chain(std::iter::once(stream.len())) {
        if cut > start {
            chunks.push(stream[start..cut].to_vec());
            start = cut;
        }
    }
    chunks
}

/// Runs the sharded pipeline over pre-cut feed chunks and returns the
/// ordered event stream, asserting a clean close and the counter identity.
fn pipeline_events(
    model: &Model,
    chunks: &[Vec<f64>],
    workers: usize,
    shard_seed: u64,
) -> Vec<IdsEvent> {
    let engine = IdsEngine::new(model.clone(), MARGIN, UpdatePolicy::disabled());
    let config = PipelineConfig::default()
        .with_workers(workers)
        .with_shard_seed(shard_seed)
        .with_health(lenient_health());
    let mut pipeline = IdsPipeline::spawn_sharded(engine, config);
    for chunk in chunks {
        pipeline.feed(chunk.clone()).expect("feed");
    }
    pipeline.close_input();
    let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
    let (_, stats) = pipeline.close().expect("clean close");
    assert_eq!(
        stats.frames,
        stats.anomalies
            + stats.normals
            + stats.extraction_failures
            + stats.dropped
            + stats.degraded,
        "counter identity violated: {stats:?}"
    );
    assert_eq!(stats.dropped, 0, "no faults injected into workers");
    assert_eq!(stats.degraded, 0, "breaker must stay closed: {stats:?}");
    events
}

/// Rewrites the shard attribution on placeholder events to shard 0, so
/// event streams from different worker counts compare equal: which shard
/// owned a lost window is topology, not detection output.
fn normalize_shards(events: &mut [IdsEvent]) {
    for event in events {
        match event {
            IdsEvent::Degraded { shard, .. } | IdsEvent::Dropped { shard, .. } => *shard = 0,
            IdsEvent::Scored(_) => {}
        }
    }
}

fn as_json(events: &[IdsEvent]) -> String {
    serde_json::to_string(events).expect("events serialize")
}

proptest! {
    /// Over random fleets, chaos corruption, shard seeds and arbitrary
    /// feed chunk boundaries, per-shard framing at every worker count
    /// reproduces the single-framer reference byte for byte.
    #[test]
    fn prop_per_shard_framing_matches_the_single_framer(
        fleet in 0usize..2,
        fault_seed in any::<u64>(),
        dropout_millis in 0u32..10,
        burst_millis in 0u32..6,
        cut_points in collection::vec(0.0f64..1.0, 1..9),
        shard_seed in any::<u64>(),
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
        let expected = reference_events(&setup.model, &stream);
        prop_assert!(!expected.is_empty(), "stream must frame some windows");
        let expected_json = as_json(&expected);

        let chunks = cut(&stream, &cut_points);
        for &workers in &WORKER_COUNTS {
            let got = pipeline_events(&setup.model, &chunks, workers, shard_seed);
            prop_assert_eq!(&as_json(&got), &expected_json,
                "{}-worker per-shard framing diverged from the single framer", workers);
        }
    }

    /// A one-shot worker panic mid-stream costs exactly the in-flight
    /// window. Every other event must match the fault-free single-framer
    /// reference byte for byte at every worker count, the placeholder must
    /// land at the reference window's stream position, and — after
    /// normalizing the placeholder's shard attribution — the faulted event
    /// streams from different worker counts must be identical to each
    /// other: the restart protocol may not leak the topology into the
    /// output.
    #[test]
    fn prop_midstream_restart_keeps_byte_identity_outside_the_lost_window(
        fleet in 0usize..2,
        fault_seq in 0u64..120,
    ) {
        let setup = setup(fleet);
        let expected = &setup.clean_events;
        prop_assert!((fault_seq as usize) < expected.len());

        let mut normalized_runs = Vec::new();
        for &workers in &WORKER_COUNTS {
            let fired = Arc::new(AtomicU64::new(0));
            let hook_fired = Arc::clone(&fired);
            let config = PipelineConfig::default()
                .with_workers(workers)
                .with_backoff_base_ms(1)
                .with_health(lenient_health())
                .with_fault_hook(Arc::new(move |_, seq| {
                    if seq == fault_seq && hook_fired.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("one-shot fault at seq {seq}");
                    }
                }));
            let engine = IdsEngine::new(setup.model.clone(), MARGIN, UpdatePolicy::disabled());
            let mut pipeline = IdsPipeline::spawn_sharded(engine, config);
            for chunk in setup.clean.chunks(65_536) {
                pipeline.feed(chunk.to_vec()).expect("feed");
            }
            pipeline.close_input();
            let mut faulted: Vec<IdsEvent> = pipeline.events().into_iter().collect();
            pipeline.close().expect("supervision absorbs the panic");

            prop_assert_eq!(fired.load(Ordering::SeqCst), 1, "fault fired exactly once");
            prop_assert_eq!(faulted.len(), expected.len(),
                "the placeholder keeps the event count at {} workers", workers);
            let mut dropped_seen = 0;
            for (got, want) in faulted.iter().zip(expected) {
                if got.is_dropped() {
                    dropped_seen += 1;
                    prop_assert_eq!(got.stream_pos(), want.stream_pos(),
                        "placeholder must land at the lost window's position");
                    continue;
                }
                prop_assert_eq!(
                    serde_json::to_string(got).expect("serialize"),
                    serde_json::to_string(want).expect("serialize"),
                    "non-dropped events must match the fault-free reference"
                );
            }
            prop_assert_eq!(dropped_seen, 1, "exactly one window became a placeholder");

            normalize_shards(&mut faulted);
            normalized_runs.push((workers, as_json(&faulted)));
        }
        for pair in normalized_runs.windows(2) {
            prop_assert_eq!(&pair[0].1, &pair[1].1,
                "normalized faulted streams diverge between {} and {} workers",
                pair[0].0, pair[1].0);
        }
    }
}
