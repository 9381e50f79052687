//! `alloc_audit` — proves the steady-state score path is allocation-free,
//! for the vProfile backend, the Viden baseline backend, the vProfile
//! engine with Viden and Scission as shadows (`vprofile+shadows`: both
//! score the primary's edge set on every frame), *and* the fused
//! three-voter ensemble (vProfile + Viden + Scission with drift
//! detection live), proves the same for vProfile's §5.3 model write path
//! (`vprofile+updates`: an online update on every accepted frame, a batch
//! applied every 16, the model's scoring rows refreshed in place, the
//! drift guard armed) and for refreshing each engine's restart
//! checkpoint, and bounds what the whole pipeline, single-backend and
//! fused, allocates from `feed` to the last event.
//!
//! ```text
//! alloc_audit [--frames N] [--seed S] [--out FILE]
//! ```
//!
//! The binary installs [`alloc_counter::CountingAllocator`] as the global
//! allocator, trains every backend on the same stress-fleet traffic,
//! pre-frames the raw stream into windows (framing owns its own buffers and
//! is audited separately below), then, per audited engine:
//!
//! 1. **checkpoint** — a clone of the cold engine, as a pipeline worker
//!    starts with;
//! 2. **warm-up pass** — one full pass over every window, letting the
//!    [`vprofile::ScratchArena`] buffers grow to
//!    their steady-state capacity, (for the ensemble) the per-SA fusion
//!    weights and drift-chart state tables fill in, and (for the updating
//!    engine) about 25 update batches apply, sizing the pending batch and
//!    the refit scratch; then the first checkpoint refresh
//!    (`checkpoint.clone_from(&engine)`), which sizes the checkpoint's
//!    buffers;
//! 3. **measured passes** — at least `--frames` windows through
//!    [`vprofile_ids::IdsEngine::process_window`] (or the fused
//!    [`vprofile_ids::FusionEngine::process_window`]), each pass followed
//!    by a checkpoint refresh, with the allocator counters snapshotted
//!    around the scoring and around every refresh separately.
//!
//! The process exits non-zero if any engine's measured passes or
//! refreshes touch the allocator at all (`allocations + reallocations >
//! 0`), making "zero allocations per frame" a CI-enforced invariant for
//! the primary backend, for at least one baseline, for shadow scoring, for
//! the full ensemble (every voter scored + calibrated + fused +
//! drift-charted per frame), for the model write path and for the
//! supervisor's checkpoint refresh rather than a code comment. These
//! measured sections are single-threaded, so every counted event is
//! attributable to the path measured.
//!
//! The pipeline rows then run the vProfile engine through
//! [`vprofile_ids::IdsPipeline`] and the three-voter ensemble through
//! [`vprofile_ids::FusionPipeline`], each at 1 and 2 workers, feed to last
//! event, with the chunks built before the counters start. Warm-up passes
//! run until every worker has scored past its first checkpoint refresh.
//! Two sources remain, and the gate is built from them: the `Arc` each
//! fed chunk moves into, and the event channel's blocks (std's unbounded
//! channel allocates one block per [`EVENT_BLOCK`] events; the pipeline
//! has no other channel on its per-frame path). A row passes with at most
//! `chunks + ⌈frames / 31⌉ + 2` allocations, the 2 being std's receive
//! context and waker entry when the receiving thread first parks
//! ([`FIRST_PARK`]), and at most `2 ⌈log₂ frames⌉` reallocations: the
//! merge's reorder ring and its ready scratch grow, by doubling, whenever
//! one shard falls further behind another than ever before, which thread
//! timing decides, and neither outgrows the measured window. A JSON
//! artifact with every counter delta is written for the benchmark record.

use alloc_counter::AllocCounts;
use serde::Serialize;
use std::process::ExitCode;
use std::time::Duration;
use vprofile::{EdgeSetExtractor, Trainer, VProfileConfig};
use vprofile_baselines::{ScissionDetector, VidenDetector};
use vprofile_ids::{
    Backend, Engine, FusionConfig, FusionEngine, IdsEngine, IdsEvent, Mode, Pipeline,
    PipelineConfig, StreamFramer, UpdatePolicy,
};
use vprofile_vehicle::scenario::stress_fleet;
use vprofile_vehicle::CaptureConfig;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator::new();

/// Frames captured once; the measured loop replays them as often as needed.
const CAPTURE_FRAMES: usize = 400;
/// ECUs in the stress fleet.
const ECUS: usize = 8;
/// Samples per fed chunk, as in the throughput harnesses.
const CHUNK: usize = 65_536;
/// Capture passes the pipeline rows measure, after the warm-up passes.
const PIPELINE_PASSES: usize = 3;
/// Most warm-up passes a pipeline row takes to bring every worker past its
/// first checkpoint refresh.
const MAX_WARM_PASSES: usize = 16;
/// Events per block of std's unbounded channel, which carries the
/// pipeline's events: it allocates one block per this many sends.
const EVENT_BLOCK: u64 = 31;
/// Allocations std's channel makes the first time a thread parks to
/// receive from it, which thread timing may put inside the measured
/// window: the thread's receive context and the channel's waker entry.
const FIRST_PARK: u64 = 2;
/// Online-update drift guard of the updating row, as in the tap
/// benchmark's `drift_update` workload.
const DRIFT_GUARD: f64 = 400.0;

#[derive(Serialize)]
struct BackendAudit {
    backend: &'static str,
    frames_measured: u64,
    allocations: u64,
    reallocations: u64,
    deallocations: u64,
    bytes_requested: u64,
    allocs_per_frame: f64,
    anomalies: u64,
    passed: bool,
}

#[derive(Serialize)]
struct RefreshAudit {
    backend: &'static str,
    refreshes: u64,
    allocations: u64,
    reallocations: u64,
    deallocations: u64,
    bytes_requested: u64,
    passed: bool,
}

#[derive(Serialize)]
struct PipelineAudit {
    engine: &'static str,
    workers: usize,
    chunks_measured: u64,
    frames_measured: u64,
    allocations: u64,
    reallocations: u64,
    deallocations: u64,
    bytes_requested: u64,
    allocs_per_chunk: f64,
    allocs_per_frame: f64,
    allowed_allocations: u64,
    allowed_reallocations: u64,
    passed: bool,
}

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    ecus: usize,
    seed: u64,
    passed: bool,
    backends: Vec<BackendAudit>,
    checkpoint_refresh: Vec<RefreshAudit>,
    pipeline: Vec<PipelineAudit>,
    note: &'static str,
}

struct Options {
    frames: u64,
    seed: u64,
    out: String,
}

fn main() -> ExitCode {
    let mut options = Options {
        frames: 10_000,
        seed: 11,
        out: "BENCH_alloc.json".into(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--frames" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => options.frames = v,
                _ => return usage_error("--frames needs a positive integer"),
            },
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => options.seed = v,
                None => return usage_error("--seed needs an integer"),
            },
            "--out" => match iter.next() {
                Some(v) => options.out = v.clone(),
                None => return usage_error("--out needs a file path"),
            },
            other => return usage_error(&format!("unknown flag {other}")),
        }
    }

    let report = match run(&options) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let json = match serde_json::to_string_pretty(&report) {
        Ok(json) => json,
        Err(err) => {
            eprintln!("error: serializing report: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(err) = std::fs::write(&options.out, format!("{json}\n")) {
        eprintln!("error: writing {}: {err}", options.out);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", options.out);
    for audit in &report.backends {
        if audit.passed {
            eprintln!(
                "PASS [{}]: 0 heap allocations over {} steady-state frames",
                audit.backend, audit.frames_measured
            );
        } else {
            eprintln!(
                "FAIL [{}]: {} allocations + {} reallocations over {} frames \
                 ({:.4} allocs/frame) — the steady-state score and update paths must not allocate",
                audit.backend,
                audit.allocations,
                audit.reallocations,
                audit.frames_measured,
                audit.allocs_per_frame
            );
        }
    }
    for audit in &report.checkpoint_refresh {
        if audit.passed {
            eprintln!(
                "PASS [{} checkpoint]: 0 heap allocations over {} refreshes",
                audit.backend, audit.refreshes
            );
        } else {
            eprintln!(
                "FAIL [{} checkpoint]: {} allocations + {} reallocations over {} refreshes \
                 — a refresh must copy into the checkpoint's buffers",
                audit.backend, audit.allocations, audit.reallocations, audit.refreshes
            );
        }
    }
    for a in &report.pipeline {
        eprintln!(
            "{} [{} pipeline, {} workers]: {} allocations + {} reallocations over {} chunks and \
             {} frames (gate: at most {} + {}; {:.4} allocs/frame)",
            if a.passed { "PASS" } else { "FAIL" },
            a.engine,
            a.workers,
            a.allocations,
            a.reallocations,
            a.chunks_measured,
            a.frames_measured,
            a.allowed_allocations,
            a.allowed_reallocations,
            a.allocs_per_frame
        );
    }
    if report.passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!("usage: alloc_audit [--frames N] [--seed S] [--out FILE]");
    ExitCode::FAILURE
}

fn run(options: &Options) -> Result<Report, String> {
    // Build phase: allocate freely.
    let vehicle = stress_fleet(ECUS, options.seed);
    let capture = vehicle
        .capture(
            &CaptureConfig::default()
                .with_frames(CAPTURE_FRAMES)
                .with_seed(options.seed),
        )
        .map_err(|e| format!("capture failed: {e}"))?;
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
    if extracted.failures != 0 {
        return Err(format!(
            "{} extraction failures on clean stress traffic",
            extracted.failures
        ));
    }
    let labeled = extracted.labeled();
    let lut = vehicle.sa_lut();
    let model = Trainer::new(config.clone())
        .train_with_lut(&labeled, &lut)
        .map_err(|e| format!("training failed: {e}"))?;
    let viden =
        VidenDetector::fit(&labeled, &lut, 6.0).map_err(|e| format!("viden training: {e}"))?;
    let scission = ScissionDetector::fit(&labeled, &lut, 0.5)
        .map_err(|e| format!("scission training: {e}"))?;

    // Pre-frame the raw stream so the measured loop exercises exactly the
    // extract-and-score path (the pipeline's workers see the same shape:
    // each receives an already-framed window).
    let mut stream = Vec::with_capacity(capture.frames().iter().map(|f| f.trace.len()).sum());
    for frame in capture.frames() {
        frame.trace.extend_f64_into(&mut stream);
    }
    let mut framer = StreamFramer::new(config.bit_width_samples, config.bit_threshold);
    let mut windows = framer.push(&stream);
    if let Some(last) = framer.flush() {
        windows.push(last);
    }
    if windows.len() < CAPTURE_FRAMES / 2 {
        return Err(format!(
            "framer produced only {} windows from {CAPTURE_FRAMES} frames",
            windows.len()
        ));
    }

    let primary = Backend::vprofile(model, 2.0);
    let viden = Backend::from(viden);
    let scission = Backend::from(scission);
    let piped = IdsEngine::with_backend(primary.clone(), config.clone(), UpdatePolicy::disabled());
    let fused = FusionEngine::new(
        vec![primary.clone(), viden.clone(), scission.clone()],
        config.clone(),
        FusionConfig::default(),
        UpdatePolicy::disabled(),
    );

    let mut backends = Vec::with_capacity(5);
    let mut checkpoint_refresh = Vec::with_capacity(5);
    let mut push = |(score, refresh)| {
        backends.push(score);
        checkpoint_refresh.push(refresh);
    };
    let plain = |backend: &Backend| {
        IdsEngine::with_backend(backend.clone(), config.clone(), UpdatePolicy::disabled())
    };
    push(audit(
        "vprofile",
        plain(&primary),
        IdsEngine::process_window,
        &windows,
        options.frames,
    )?);
    push(audit(
        "viden",
        plain(&viden),
        IdsEngine::process_window,
        &windows,
        options.frames,
    )?);

    // Shadow scoring: after the primary, both shadows score the same
    // extracted edge set and set their disagreement bits.
    push(audit(
        "vprofile+shadows",
        plain(&primary).with_shadows(vec![viden.clone(), scission.clone()]),
        IdsEngine::process_window,
        &windows,
        options.frames,
    )?);

    // The §5.3 write path: every accepted frame is absorbed, every 16th
    // absorption refits the touched clusters and refreshes their scoring
    // rows, and the drift guard reads the drift after each one.
    push(audit(
        "vprofile+updates",
        IdsEngine::with_backend(
            primary.clone(),
            config.clone(),
            UpdatePolicy::every(1, usize::MAX),
        )
        .with_drift_guard(DRIFT_GUARD),
        IdsEngine::process_window,
        &windows,
        options.frames,
    )?);

    // The full ensemble: every frame scores under all three voters, runs
    // calibration + weighted fusion + the CUSUM/EWMA drift charts, and
    // still must not touch the allocator once warm.
    push(audit(
        "fusion",
        fused.clone(),
        FusionEngine::process_window,
        &windows,
        options.frames,
    )?);

    let mut pipeline = Vec::with_capacity(4);
    for workers in [1, 2] {
        pipeline.push(audit_pipeline(
            "vprofile", &piped, &config, &stream, workers,
        )?);
    }
    for workers in [1, 2] {
        pipeline.push(audit_pipeline("fusion", &fused, &config, &stream, workers)?);
    }

    Ok(Report {
        benchmark: "alloc_audit",
        ecus: ECUS,
        seed: options.seed,
        passed: backends.iter().all(|a| a.passed)
            && checkpoint_refresh.iter().all(|a| a.passed)
            && pipeline.iter().all(|a| a.passed),
        backends,
        checkpoint_refresh,
        pipeline,
        note: "backends: pre-framed windows after one warm-up pass; passed == \
               (allocations + reallocations == 0); vprofile+shadows scores Viden and \
               Scission shadows on every frame; vprofile+updates absorbs every \
               accepted frame (a batch applied per 16, drift guard 400). \
               checkpoint_refresh: checkpoint.clone_from(&engine) after every measured \
               pass, into a checkpoint cloned from the cold engine and refreshed once \
               after warm-up; passed == (allocations + reallocations == 0). pipeline: \
               feed to last event over pre-built chunks, after warm-up passes that take \
               every worker past its first checkpoint refresh; passed == (allocations <= \
               chunks + ceil(frames / 31) + 2 && reallocations <= 2 ceil(log2 frames)).",
    })
}

/// Audits a pipeline of `engine` end to end at `workers` workers. Warm-up
/// passes of `stream` run until every worker has scored past its first
/// checkpoint refresh, growing every ring, scratch buffer, checkpoint and
/// reorder slot to its steady state; then the counters cover
/// [`PIPELINE_PASSES`] more passes from the first `feed` to the last
/// event. Every chunk is built before the counters start.
fn audit_pipeline<M: Mode>(
    name: &'static str,
    engine: &Engine<M>,
    config: &VProfileConfig,
    stream: &[f64],
    workers: usize,
) -> Result<PipelineAudit, String> {
    let chunks = |passes: usize| -> Vec<Vec<f64>> {
        (0..passes)
            .flat_map(|_| stream.chunks(CHUNK).map(<[f64]>::to_vec))
            .collect()
    };
    // Frames that close within the first `passes` passes, which is what
    // the pipeline has delivered once it has consumed them.
    let closed = |passes: usize| -> u64 {
        let mut framer = StreamFramer::new(config.bit_width_samples, config.bit_threshold);
        (0..passes).map(|_| framer.push(stream).len() as u64).sum()
    };
    let pipeline_config = PipelineConfig::default().with_workers(workers);
    let refreshed_at = pipeline_config.checkpoint_interval as u64;
    let mut pipeline = Pipeline::spawn_sharded(engine.clone(), pipeline_config);

    let mut warm_passes = 0;
    loop {
        if warm_passes == MAX_WARM_PASSES {
            return Err(format!(
                "{name} pipeline, {workers} workers: a worker scored fewer than \
                 {refreshed_at} windows in {MAX_WARM_PASSES} warm-up passes"
            ));
        }
        let frames = closed(warm_passes + 1) - closed(warm_passes);
        feed_until(&pipeline, chunks(1), frames)?;
        warm_passes += 1;
        if pipeline
            .stats()
            .shard_frames
            .iter()
            .all(|&frames| frames >= refreshed_at)
        {
            break;
        }
    }
    let frames_measured = closed(warm_passes + PIPELINE_PASSES) - closed(warm_passes);
    let measured = chunks(PIPELINE_PASSES);
    let chunks_measured = measured.len() as u64;

    let before = ALLOC.snapshot();
    feed_until(&pipeline, measured, frames_measured)?;
    let delta = ALLOC.snapshot().since(&before);
    pipeline.close_input();
    pipeline
        .close()
        .map_err(|e| format!("pipeline close: {e}"))?;

    let total = delta.total_allocations() as f64;
    let allowed_allocations = chunks_measured + frames_measured.div_ceil(EVENT_BLOCK) + FIRST_PARK;
    let allowed_reallocations = 2 * u64::from(frames_measured.next_power_of_two().trailing_zeros());
    Ok(PipelineAudit {
        engine: name,
        workers,
        chunks_measured,
        frames_measured,
        allocations: delta.allocations,
        reallocations: delta.reallocations,
        deallocations: delta.deallocations,
        bytes_requested: delta.bytes_requested,
        allocs_per_chunk: total / chunks_measured.max(1) as f64,
        allocs_per_frame: total / frames_measured.max(1) as f64,
        allowed_allocations,
        allowed_reallocations,
        passed: delta.allocations <= allowed_allocations
            && delta.reallocations <= allowed_reallocations,
    })
}

/// Feeds `chunks`, draining events as they arrive, and returns once
/// `frames` events have been received.
fn feed_until<M: Mode>(
    pipeline: &Pipeline<M>,
    chunks: Vec<Vec<f64>>,
    frames: u64,
) -> Result<(), String> {
    let mut events = 0u64;
    for chunk in chunks {
        pipeline.feed(chunk).map_err(|e| format!("feed: {e}"))?;
        events += pipeline.events().try_iter().count() as u64;
    }
    while events < frames {
        pipeline
            .events()
            .recv_timeout(Duration::from_secs(30))
            .map_err(|e| format!("waiting for event {events} of {frames}: {e}"))?;
        events += 1;
    }
    Ok(())
}

/// Adds one allocator delta to a running total.
fn accumulate(total: &mut AllocCounts, delta: AllocCounts) {
    total.allocations += delta.allocations;
    total.reallocations += delta.reallocations;
    total.deallocations += delta.deallocations;
    total.bytes_requested += delta.bytes_requested;
}

/// Audits one engine: warms it over every window (`score` returns its
/// event), then measures allocator deltas over the steady-state replay
/// passes and, separately, over the checkpoint refresh that follows each
/// pass. The checkpoint is cloned from the cold engine and refreshed once
/// after warm-up, as a pipeline worker's is.
fn audit<E: Clone>(
    backend: &'static str,
    mut engine: E,
    score: fn(&mut E, u64, &[f64]) -> IdsEvent,
    windows: &[(u64, Vec<f64>)],
    frames: u64,
) -> Result<(BackendAudit, RefreshAudit), String> {
    let mut checkpoint = engine.clone();
    // Warm-up: grows the scratch arena to its
    // steady-state capacity. Clean stress traffic must score overwhelmingly
    // normal under every audited backend.
    let mut warm_anomalies = 0u64;
    for (pos, window) in windows {
        if score(&mut engine, *pos, window).is_anomaly() {
            warm_anomalies += 1;
        }
    }
    if warm_anomalies * 10 > windows.len() as u64 {
        return Err(format!(
            "{backend}: {warm_anomalies}/{} anomalies during warm-up on clean traffic",
            windows.len()
        ));
    }
    checkpoint.clone_from(&engine);

    // Measured passes: nothing in these loops, nor in the refreshes after
    // them, may allocate.
    let passes = frames.div_ceil(windows.len() as u64).max(1);
    let frames_measured = passes * windows.len() as u64;
    let mut anomalies = 0u64;
    let (mut scoring, mut refreshing) = (AllocCounts::default(), AllocCounts::default());
    for _ in 0..passes {
        let before = ALLOC.snapshot();
        for (pos, window) in windows {
            if score(&mut engine, *pos, window).is_anomaly() {
                anomalies += 1;
            }
        }
        let scored = ALLOC.snapshot();
        checkpoint.clone_from(&engine);
        let refreshed = ALLOC.snapshot();
        accumulate(&mut scoring, scored.since(&before));
        accumulate(&mut refreshing, refreshed.since(&scored));
    }

    let total = scoring.total_allocations();
    Ok((
        BackendAudit {
            backend,
            frames_measured,
            allocations: scoring.allocations,
            reallocations: scoring.reallocations,
            deallocations: scoring.deallocations,
            bytes_requested: scoring.bytes_requested,
            allocs_per_frame: total as f64 / frames_measured as f64,
            anomalies,
            passed: total == 0,
        },
        RefreshAudit {
            backend,
            refreshes: passes,
            allocations: refreshing.allocations,
            reallocations: refreshing.reallocations,
            deallocations: refreshing.deallocations,
            bytes_requested: refreshing.bytes_requested,
            passed: refreshing.total_allocations() == 0,
        },
    ))
}
