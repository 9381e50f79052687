//! Chaos suite: seeded capture faults driven through the self-healing
//! pipeline.
//!
//! Every test here follows the same discipline: corrupt the input (or the
//! workers) deterministically from a fixed seed, then assert the pipeline's
//! hard invariants — no hangs, every framed window lands in exactly one
//! counter bucket (`frames == anomalies + normals + extraction_failures +
//! dropped + degraded`), worker panics stay within the restart budget, the
//! event stream re-converges to the fault-free run once injection stops,
//! and a supply brownout produces `Degraded` events instead of false
//! verdicts, with the breaker closing on its own after the rail recovers.
//!
//! The worker count honours `CHAOS_WORKERS` (default 4) so CI can run the
//! same suite at several parallelism levels; when `CHAOS_STATS_JSON` is
//! set, the accounting test writes its final stats there as a run artifact.

use std::sync::Arc;
use std::time::Duration;
use vprofile::{EdgeSetExtractor, Trainer, VProfileConfig};
use vprofile_analog::{Environment, Fault, PowerState};
use vprofile_baselines::{ScissionDetector, VidenDetector};
use vprofile_ids::{
    Backend, BackpressurePolicy, BreakerState, IdsEngine, IdsEvent, IdsPipeline, PipelineConfig,
    PipelineError, PipelineStats, UpdatePolicy,
};
use vprofile_vehicle::scenario::{chaos_brownout_capture, chaos_stream, stress_fleet};
use vprofile_vehicle::{Capture, CaptureConfig, Vehicle};

/// Worker count under test; CI sweeps this via the environment.
fn chaos_workers() -> usize {
    std::env::var("CHAOS_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&w| w > 0)
        .unwrap_or(4)
}

/// Trains a detection engine on a clean stress-fleet capture.
fn chaos_setup(ecus: usize, frames: usize, seed: u64) -> (IdsEngine, Vehicle, Capture) {
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
    (
        IdsEngine::new(model, 2.0, UpdatePolicy::disabled()),
        vehicle,
        capture,
    )
}

/// Trains the Viden- and Scission-style backends on the same clean
/// stress-fleet capture, so the chaos invariants can be checked for every
/// baseline flowing through the identical pipeline machinery.
fn baseline_setup(ecus: usize, frames: usize, seed: u64) -> (Vec<IdsEngine>, Vehicle, Capture) {
    let vehicle = stress_fleet(ecus, seed);
    let capture = vehicle
        .capture(&CaptureConfig::default().with_frames(frames).with_seed(seed))
        .expect("capture");
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
    assert_eq!(extracted.failures, 0, "training traffic must be clean");
    let labeled = extracted.labeled();
    let lut = vehicle.sa_lut();
    let viden = VidenDetector::fit(&labeled, &lut, 6.0).expect("viden training");
    let scission = ScissionDetector::fit(&labeled, &lut, 0.5).expect("scission training");
    let engines = vec![
        IdsEngine::with_backend(
            Backend::from(viden),
            config.clone(),
            UpdatePolicy::disabled(),
        ),
        IdsEngine::with_backend(Backend::from(scission), config, UpdatePolicy::disabled()),
    ];
    (engines, vehicle, capture)
}

fn stream_of(capture: &Capture) -> Vec<f64> {
    let mut stream = Vec::new();
    for frame in capture.frames() {
        stream.extend(frame.trace.to_f64());
    }
    stream
}

/// The five-way counter identity every snapshot must satisfy.
fn assert_identity(s: &PipelineStats, context: &str) {
    assert_eq!(
        s.frames,
        s.anomalies + s.normals + s.extraction_failures + s.dropped + s.degraded,
        "{context}: every frame must land in exactly one bucket: {s:?}"
    );
}

/// Feeds the given streams back to back and returns all ordered events
/// plus final stats.
fn run_streams(
    engine: IdsEngine,
    config: PipelineConfig,
    streams: &[Vec<f64>],
) -> (Vec<IdsEvent>, PipelineStats) {
    let mut pipeline = IdsPipeline::spawn_sharded(engine, config);
    for stream in streams {
        for chunk in stream.chunks(65_536) {
            pipeline.feed(chunk.to_vec()).expect("feed");
        }
    }
    pipeline.close_input();
    let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
    let (_, stats) = pipeline.close().expect("clean close");
    (events, stats)
}

/// Clones an event with its stream position shifted left by `offset`.
fn rebased(event: &IdsEvent, offset: u64) -> IdsEvent {
    let mut event = event.clone();
    match &mut event {
        IdsEvent::Scored(scored) => scored.stream_pos -= offset,
        IdsEvent::Degraded { stream_pos, .. } | IdsEvent::Dropped { stream_pos, .. } => {
            *stream_pos -= offset
        }
    }
    event
}

#[test]
fn accounting_survives_dropout_and_worker_restarts() {
    let workers = chaos_workers();
    let (engine, _, capture) = chaos_setup(8, 512, 2001);
    let clean = stream_of(&capture);
    let faulted = chaos_stream(
        &capture,
        2001,
        &[Fault::Dropout {
            prob: 0.01,
            max_gap: 8,
        }],
    );
    assert!(faulted.len() < clean.len(), "dropout must remove samples");

    // Two one-shot worker panics land inside the faulted repetition
    // (windows 512..~1024): sample corruption and worker crashes overlap.
    let config = PipelineConfig::default()
        .with_workers(workers)
        .with_backoff_base_ms(1)
        .with_fault_hook(Arc::new(|shard, seq| {
            if seq == 530 || seq == 700 {
                panic!("chaos panic in shard {shard} at seq {seq}");
            }
        }));
    let streams = [clean.clone(), faulted, clean.clone(), clean];
    let (events, stats) = run_streams(engine, config, &streams);

    assert_eq!(events.len() as u64, stats.frames, "one event per frame");
    assert!(
        stats.frames >= 3 * 512,
        "the three clean repetitions alone hold 1536 frames: {stats:?}"
    );
    assert_identity(&stats, "chaos accounting");
    assert_eq!(
        stats.restarts.iter().sum::<u32>(),
        2,
        "both panics absorbed by supervision: {:?}",
        stats.restarts
    );
    assert_eq!(stats.dropped, 2, "exactly the two in-flight windows drop");
    assert_eq!(
        stats.shard_failed,
        vec![false; workers],
        "two panics stay within the restart budget"
    );
    assert!(stats.queue_depths.iter().all(|&d| d == 0));
    assert!(
        stats.anomalies > 0,
        "dropout-corrupted frames must not score clean"
    );

    if let Ok(path) = std::env::var("CHAOS_STATS_JSON") {
        let json = serde_json::to_string_pretty(&stats).expect("stats serialize");
        std::fs::write(&path, json).expect("write chaos stats artifact");
    }
}

#[test]
fn event_stream_reconverges_after_injection_stops() {
    let workers = chaos_workers();
    let (engine, _, capture) = chaos_setup(8, 512, 2002);
    let clean = stream_of(&capture);
    let faulted = chaos_stream(
        &capture,
        2002,
        &[
            Fault::Dropout {
                prob: 0.01,
                max_gap: 8,
            },
            Fault::Burst {
                prob: 0.0005,
                max_len: 64,
                sigma_codes: 300.0,
            },
        ],
    );

    let run = |streams: &[Vec<f64>]| {
        let offsets: Vec<u64> = streams
            .iter()
            .scan(0u64, |acc, s| {
                let here = *acc;
                *acc += s.len() as u64;
                Some(here)
            })
            .collect();
        let (events, stats) = run_streams(
            engine.clone(),
            PipelineConfig::default().with_workers(workers),
            streams,
        );
        assert_identity(&stats, "re-convergence run");
        (events, offsets)
    };

    let (faulted_events, faulted_offsets) =
        run(&[clean.clone(), faulted, clean.clone(), clean.clone()]);
    let (clean_events, clean_offsets) = run(&[clean.clone(), clean.clone(), clean.clone(), clean]);

    // Compare the final repetition: injection stopped two repetitions ago,
    // so the pipeline must emit byte-identical events once positions are
    // rebased to the repetition start (dropout shifted absolute offsets).
    let tail = |events: &[IdsEvent], offset: u64| -> Vec<IdsEvent> {
        events
            .iter()
            .filter(|e| e.stream_pos() >= offset)
            .map(|e| rebased(e, offset))
            .collect()
    };
    let faulted_tail = tail(&faulted_events, faulted_offsets[3]);
    let clean_tail = tail(&clean_events, clean_offsets[3]);
    assert_eq!(clean_tail.len(), 512, "one event per clean tail frame");
    assert_eq!(
        serde_json::to_string(&faulted_tail).expect("serialize"),
        serde_json::to_string(&clean_tail).expect("serialize"),
        "after injection stops the event stream must re-converge exactly"
    );
}

#[test]
fn brownout_degrades_instead_of_lying() {
    // Single worker so the whole capture shares one breaker: the brownout
    // blackout windows and the recovery traffic flow through the same
    // shard regardless of how SAs hash.
    let (engine, vehicle, _) = chaos_setup(4, 192, 2003);
    // Deep mid-session brownout: the rail sags to ~42% for 150 ms, which
    // pulls the dominant level below the framing threshold (full-scale/2),
    // while regulator impulse noise leaves short above-threshold blips that
    // frame as unparseable windows.
    let power = PowerState::Brownout {
        start_s: 0.25,
        ramp_s: 0.02,
        hold_s: 0.15,
        depth_v: 0.58 * Environment::ENGINE_RUNNING_V,
    };
    let browned = chaos_brownout_capture(
        &vehicle,
        192,
        2003,
        &power,
        &[Fault::Impulse {
            prob: 0.0004,
            magnitude_codes: 1400.0,
        }],
    )
    .expect("brownout capture");

    // Map stream positions back to frames so each event can be checked
    // against the sag in force when its frame was transmitted.
    let frame_starts: Vec<u64> = browned
        .frames()
        .iter()
        .scan(0u64, |acc, f| {
            let here = *acc;
            *acc += f.trace.codes().len() as u64;
            Some(here)
        })
        .collect();
    let sag_of = |stream_pos: u64| -> f64 {
        let idx = frame_starts.partition_point(|&s| s <= stream_pos) - 1;
        let t_s = browned.frames()[idx].start_bit_time as f64 / f64::from(browned.bit_rate_bps());
        power.sag_fraction_at(Environment::ENGINE_RUNNING_V, t_s)
    };

    let (events, stats) = run_streams(
        engine,
        PipelineConfig::default().with_workers(1),
        &[stream_of(&browned)],
    );

    assert_identity(&stats, "brownout");
    assert!(
        stats.degraded > 0,
        "the breaker must trip during the brownout: {stats:?}"
    );
    assert_eq!(
        stats.breaker,
        vec![BreakerState::Closed],
        "the breaker must close on its own after the rail recovers"
    );
    assert_eq!(stats.quarantined_sas, vec![0], "quarantine released");

    // Fail-safe: no window transmitted under deep sag may be passed off as
    // a clean verdict — it is degraded, or flagged anomalous, never Ok.
    let mut deep_sag_windows = 0;
    for event in &events {
        if sag_of(event.stream_pos()) < 0.5 {
            continue;
        }
        deep_sag_windows += 1;
        let lied = event
            .verdict()
            .is_some_and(|v| !v.is_anomaly() && !event.extraction_failed());
        assert!(
            !lied,
            "deep-brownout window scored Ok at pos {}: {event:?}",
            event.stream_pos()
        );
    }
    assert!(
        deep_sag_windows > 0,
        "impulse blips must surface some windows during the blackout"
    );
    // Traffic after the brownout scores normally again.
    assert!(stats.normals > 0, "post-recovery traffic must score clean");
}

#[test]
fn drop_oldest_sheds_segments_but_keeps_the_identity() {
    let (engine, _, capture) = chaos_setup(4, 256, 2004);
    let stream = stream_of(&capture);
    let config = PipelineConfig::default()
        .with_workers(2)
        .with_high_water(2)
        .with_backpressure(BackpressurePolicy::DropOldest)
        .with_fault_hook(Arc::new(|_, _| {
            std::thread::sleep(Duration::from_millis(2));
        }));
    let pipeline = IdsPipeline::spawn_sharded(engine, config);
    // One feed call can never overflow the sample backlog, which makes
    // the test deterministic: every frame reaches the splitter intact and
    // all of the backpressure lands on the capacity-2 shard rings, whose
    // consumers crawl at 2 ms per frame.
    pipeline
        .feed(stream)
        .expect("drop-oldest never fails the producer");
    let (_, stats) = pipeline.close().expect("clean close");
    // Under DropOldest `feed` never blocks, so loss happens at the full
    // per-shard rings: shed windows become Dropped placeholders, attributed
    // to exactly one shard and counted inside the identity.
    let shed: u64 = stats.shard_sheds.iter().sum();
    assert!(
        shed > 0,
        "slow consumers behind capacity-2 rings must shed segments: {stats:?}"
    );
    assert!(
        stats.dropped >= shed,
        "every shed segment is also counted as dropped: {stats:?}"
    );
    assert_eq!(stats.rejected_chunks, 0);
    // Loss is visible, never silent: every split frame still lands in
    // exactly one bucket.
    assert!(stats.frames > 0, "some traffic must get through");
    assert!(stats.normals > 0, "unshed traffic still scores");
    assert_identity(&stats, "drop-oldest");
}

#[test]
fn reject_policy_surfaces_backpressure_to_the_producer() {
    let (engine, _, capture) = chaos_setup(4, 256, 2005);
    let stream = stream_of(&capture);
    let config = PipelineConfig::default()
        .with_workers(2)
        .with_high_water(2)
        .with_backpressure(BackpressurePolicy::Reject)
        .with_fault_hook(Arc::new(|_, _| {
            std::thread::sleep(Duration::from_millis(2));
        }));
    let pipeline = IdsPipeline::spawn_sharded(engine, config);
    let mut rejected = 0u64;
    for chunk in stream.chunks(512) {
        match pipeline.feed(chunk.to_vec()) {
            Ok(()) => {}
            Err(PipelineError::Backlogged) => rejected += 1,
            Err(other) => panic!("unexpected feed error: {other}"),
        }
    }
    let (_, stats) = pipeline.close().expect("clean close");
    assert!(rejected > 0, "the producer must see Backlogged errors");
    assert_eq!(
        stats.rejected_chunks, rejected,
        "every rejection is counted exactly once"
    );
    assert!(stats.frames > 0, "accepted chunks still flow through");
    assert_identity(&stats, "reject");
}

#[test]
fn rejected_chunks_are_safe_to_retry() {
    let (engine, _, capture) = chaos_setup(4, 256, 2007);
    let chunks: Vec<Vec<f64>> = stream_of(&capture)
        .chunks(512)
        .map(<[f64]>::to_vec)
        .collect();
    let slow = |policy| {
        PipelineConfig::default()
            .with_workers(2)
            .with_high_water(2)
            .with_backpressure(policy)
            .with_fault_hook(Arc::new(|_, _| {
                std::thread::sleep(Duration::from_millis(1));
            }))
    };
    let drain = |mut pipeline: IdsPipeline| {
        pipeline.close_input();
        let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
        let (_, stats) = pipeline.close().expect("clean close");
        (events, stats)
    };

    let reference = IdsPipeline::spawn_sharded(engine.clone(), slow(BackpressurePolicy::Block));
    for chunk in &chunks {
        reference.feed(chunk.clone()).expect("block never refuses");
    }
    let (expected, _) = drain(reference);

    // A refused chunk never reached the splitter, so feeding it again
    // until it is accepted must reproduce the blocking run exactly.
    let retried = IdsPipeline::spawn_sharded(engine, slow(BackpressurePolicy::Reject));
    let mut refusals = 0u64;
    for chunk in &chunks {
        loop {
            match retried.feed(chunk.clone()) {
                Ok(()) => break,
                Err(PipelineError::Backlogged) => {
                    refusals += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(other) => panic!("unexpected feed error: {other}"),
            }
        }
    }
    let (got, stats) = drain(retried);
    assert!(refusals > 0, "slow consumers must refuse some chunks");
    assert_eq!(
        stats.rejected_chunks, refusals,
        "every refusal is counted exactly once"
    );
    assert_eq!(stats.dropped, 0, "reject never sheds an accepted frame");
    assert_identity(&stats, "reject retry");
    assert_eq!(
        serde_json::to_string(&got).expect("serialize"),
        serde_json::to_string(&expected).expect("serialize"),
        "retrying refused chunks must reproduce the blocking run byte for byte"
    );
}

#[test]
fn dropout_accounting_holds_for_baseline_backends() {
    let workers = chaos_workers();
    let (engines, _, capture) = baseline_setup(8, 512, 2006);
    let clean = stream_of(&capture);
    let faulted = chaos_stream(
        &capture,
        2006,
        &[Fault::Dropout {
            prob: 0.01,
            max_gap: 8,
        }],
    );
    assert!(faulted.len() < clean.len(), "dropout must remove samples");

    for engine in engines {
        let name = engine.backend_name();
        // One forced worker panic inside the faulted repetition, exactly
        // as the vProfile dropout test injects it.
        let config = PipelineConfig::default()
            .with_workers(workers)
            .with_backoff_base_ms(1)
            .with_fault_hook(Arc::new(|shard, seq| {
                if seq == 600 {
                    panic!("chaos panic in shard {shard} at seq {seq}");
                }
            }));
        let streams = [clean.clone(), faulted.clone(), clean.clone()];
        let (events, stats) = run_streams(engine, config, &streams);

        assert_eq!(
            events.len() as u64,
            stats.frames,
            "{name}: one event per frame"
        );
        assert_identity(&stats, name);
        assert_eq!(
            stats.restarts.iter().sum::<u32>(),
            1,
            "{name}: the panic is absorbed by supervision"
        );
        assert_eq!(
            stats.dropped, 1,
            "{name}: exactly the in-flight window drops"
        );
        assert_eq!(
            stats.shard_failed,
            vec![false; workers],
            "{name}: one panic stays within the restart budget"
        );
        assert!(
            stats.anomalies > 0,
            "{name}: dropout-corrupted frames must not score clean"
        );
        assert!(
            stats.normals > 0,
            "{name}: the clean repetitions must still score normal"
        );
    }
}

#[test]
fn brownout_degrades_instead_of_lying_for_baseline_backends() {
    let (engines, vehicle, _) = baseline_setup(4, 192, 2007);
    let power = PowerState::Brownout {
        start_s: 0.25,
        ramp_s: 0.02,
        hold_s: 0.15,
        depth_v: 0.58 * Environment::ENGINE_RUNNING_V,
    };
    let browned = chaos_brownout_capture(
        &vehicle,
        192,
        2007,
        &power,
        &[Fault::Impulse {
            prob: 0.0004,
            magnitude_codes: 1400.0,
        }],
    )
    .expect("brownout capture");

    let frame_starts: Vec<u64> = browned
        .frames()
        .iter()
        .scan(0u64, |acc, f| {
            let here = *acc;
            *acc += f.trace.codes().len() as u64;
            Some(here)
        })
        .collect();
    let sag_of = |stream_pos: u64| -> f64 {
        let idx = frame_starts.partition_point(|&s| s <= stream_pos) - 1;
        let t_s = browned.frames()[idx].start_bit_time as f64 / f64::from(browned.bit_rate_bps());
        power.sag_fraction_at(Environment::ENGINE_RUNNING_V, t_s)
    };
    let stream = stream_of(&browned);

    for engine in engines {
        let name = engine.backend_name();
        // Single worker so the whole capture shares one breaker.
        let (events, stats) = run_streams(
            engine,
            PipelineConfig::default().with_workers(1),
            &[stream.clone()],
        );

        assert_identity(&stats, name);
        assert!(
            stats.degraded > 0,
            "{name}: the breaker must trip during the brownout: {stats:?}"
        );
        assert_eq!(
            stats.breaker,
            vec![BreakerState::Closed],
            "{name}: the breaker must close after the rail recovers"
        );
        assert_eq!(
            stats.quarantined_sas,
            vec![0],
            "{name}: quarantine released"
        );

        // Fail-safe per backend: no deep-sag window may score Ok.
        let mut deep_sag_windows = 0;
        for event in &events {
            if sag_of(event.stream_pos()) < 0.5 {
                continue;
            }
            deep_sag_windows += 1;
            let lied = event
                .verdict()
                .is_some_and(|v| !v.is_anomaly() && !event.extraction_failed());
            assert!(
                !lied,
                "{name}: deep-brownout window scored Ok at pos {}: {event:?}",
                event.stream_pos()
            );
        }
        assert!(
            deep_sag_windows > 0,
            "{name}: impulse blips must surface windows during the blackout"
        );
        assert!(
            stats.normals > 0,
            "{name}: post-recovery traffic must score clean"
        );
    }
}
