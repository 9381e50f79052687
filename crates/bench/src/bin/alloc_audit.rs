//! `alloc_audit` — proves the steady-state score path is allocation-free,
//! for the vProfile backend, the Viden baseline backend, *and* the fused
//! three-voter ensemble (vProfile + Viden + Scission with drift
//! detection live), and bounds what the whole pipeline allocates from
//! `feed` to the last event.
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
//! 1. **warm-up pass** — one full pass over every window, letting the
//!    scoring cache build, the [`vprofile::ScratchArena`] buffers grow to
//!    their steady-state capacity, and (for the ensemble) the per-SA
//!    fusion weights and drift-chart state tables fill in;
//! 2. **measured pass(es)** — at least `--frames` windows through
//!    [`vprofile_ids::IdsEngine::process_window`] (or the fused
//!    [`vprofile_ids::FusionEngine::process_window`]) with the allocator
//!    counters snapshotted around the loop.
//!
//! The process exits non-zero if any engine's measured passes touch the
//! allocator at all (`allocations + reallocations > 0`), making "zero
//! allocations per frame" a CI-enforced invariant for the primary backend,
//! for at least one baseline, and for the full ensemble (every voter
//! scored + calibrated + fused + drift-charted per frame) rather than a
//! code comment. These measured sections are single-threaded, so every
//! counted event is attributable to the score path.
//!
//! The pipeline rows then run the vProfile engine through
//! [`vprofile_ids::IdsPipeline`] at 1 and 2 workers, feed to last event,
//! with the chunks built before the counters start and one warm-up pass
//! first. What remains is the `Arc` each fed chunk moves into, the std
//! channels' blocks (one per 31 messages on each of the two event
//! channels) and the supervisor's engine checkpoint every 256 windows.
//! The process exits non-zero at one or more allocations per frame, which
//! would mean a per-window allocation came back. A JSON artifact with
//! every counter delta is written for the benchmark record.

use serde::Serialize;
use std::process::ExitCode;
use std::time::Duration;
use vprofile::{EdgeSetExtractor, Trainer, VProfileConfig};
use vprofile_baselines::{ScissionDetector, VidenDetector};
use vprofile_ids::{
    Backend, FusionConfig, FusionEngine, IdsEngine, IdsPipeline, PipelineConfig, StreamFramer,
    UpdatePolicy,
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
/// Capture passes the pipeline rows measure, after one warm-up pass.
const PIPELINE_PASSES: usize = 3;

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
struct PipelineAudit {
    workers: usize,
    chunks_measured: u64,
    frames_measured: u64,
    allocations: u64,
    reallocations: u64,
    deallocations: u64,
    bytes_requested: u64,
    allocs_per_chunk: f64,
    allocs_per_frame: f64,
    passed: bool,
}

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    ecus: usize,
    seed: u64,
    passed: bool,
    backends: Vec<BackendAudit>,
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
                 ({:.4} allocs/frame) — the steady-state score path must not allocate",
                audit.backend,
                audit.allocations,
                audit.reallocations,
                audit.frames_measured,
                audit.allocs_per_frame
            );
        }
    }
    for a in &report.pipeline {
        eprintln!(
            "{} [pipeline, {} workers]: {:.3} allocs/chunk, {:.4} allocs/frame over {} frames \
             (gate: < 1 per frame)",
            if a.passed { "PASS" } else { "FAIL" },
            a.workers,
            a.allocs_per_chunk,
            a.allocs_per_frame,
            a.frames_measured
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

    let engines = [
        IdsEngine::with_backend(primary.clone(), config.clone(), UpdatePolicy::disabled()),
        IdsEngine::with_backend(viden.clone(), config.clone(), UpdatePolicy::disabled()),
    ];
    let mut backends = Vec::with_capacity(engines.len() + 1);
    for mut engine in engines {
        let name = engine.backend_name();
        backends.push(audit(name, &windows, options.frames, |pos, window| {
            engine.process_window(pos, window).is_anomaly()
        })?);
    }

    // The full ensemble: every frame scores under all three voters, runs
    // calibration + weighted fusion + the CUSUM/EWMA drift charts, and
    // still must not touch the allocator once warm.
    let mut fused = FusionEngine::new(
        vec![primary, viden, scission],
        config,
        FusionConfig::default(),
        UpdatePolicy::disabled(),
    );
    backends.push(audit("fusion", &windows, options.frames, |pos, window| {
        fused.process_window(pos, window).is_anomaly()
    })?);

    let pipeline = [1, 2]
        .into_iter()
        .map(|workers| audit_pipeline(&piped, &stream, workers))
        .collect::<Result<Vec<_>, _>>()?;

    Ok(Report {
        benchmark: "alloc_audit",
        ecus: ECUS,
        seed: options.seed,
        passed: backends.iter().all(|a| a.passed) && pipeline.iter().all(|a| a.passed),
        backends,
        pipeline,
        note: "backends: pre-framed windows after one warm-up pass; passed == \
               (allocations + reallocations == 0). pipeline: feed to last event over \
               pre-built chunks after one warm-up pass; passed == < 1 per frame.",
    })
}

/// Audits [`IdsPipeline`] end to end at `workers` workers: one warm-up
/// pass of `stream` grows every ring, scratch buffer and reorder slot to
/// its steady state, then the counters cover [`PIPELINE_PASSES`] more
/// passes from the first `feed` to the last event. Every chunk is built
/// before the counters start.
fn audit_pipeline(
    engine: &IdsEngine,
    stream: &[f64],
    workers: usize,
) -> Result<PipelineAudit, String> {
    let config = engine.config();
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
    let warm_frames = closed(1);
    let frames_measured = closed(1 + PIPELINE_PASSES) - warm_frames;
    let warm = chunks(1);
    let measured = chunks(PIPELINE_PASSES);
    let chunks_measured = measured.len() as u64;

    let mut pipeline = IdsPipeline::spawn_sharded(
        engine.clone(),
        PipelineConfig::default().with_workers(workers),
    );
    feed_until(&pipeline, warm, warm_frames)?;
    let before = ALLOC.snapshot();
    feed_until(&pipeline, measured, frames_measured)?;
    let delta = ALLOC.snapshot().since(&before);
    pipeline.close_input();
    pipeline
        .close()
        .map_err(|e| format!("pipeline close: {e}"))?;

    let total = delta.total_allocations() as f64;
    let allocs_per_frame = total / frames_measured.max(1) as f64;
    Ok(PipelineAudit {
        workers,
        chunks_measured,
        frames_measured,
        allocations: delta.allocations,
        reallocations: delta.reallocations,
        deallocations: delta.deallocations,
        bytes_requested: delta.bytes_requested,
        allocs_per_chunk: total / chunks_measured.max(1) as f64,
        allocs_per_frame,
        passed: allocs_per_frame < 1.0,
    })
}

/// Feeds `chunks`, draining events as they arrive, and returns once
/// `frames` events have been received.
fn feed_until(pipeline: &IdsPipeline, chunks: Vec<Vec<f64>>, frames: u64) -> Result<(), String> {
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

/// Warms one engine (`score` returns "was this window an anomaly") over
/// every window, then measures allocator deltas over the steady-state
/// replay loop.
fn audit(
    backend: &'static str,
    windows: &[(u64, Vec<f64>)],
    frames: u64,
    mut score: impl FnMut(u64, &[f64]) -> bool,
) -> Result<BackendAudit, String> {
    // Warm-up: builds the scoring cache and grows the scratch arena to its
    // steady-state capacity. Clean stress traffic must score overwhelmingly
    // normal under every audited backend.
    let mut warm_anomalies = 0u64;
    for (pos, window) in windows {
        if score(*pos, window) {
            warm_anomalies += 1;
        }
    }
    if warm_anomalies * 10 > windows.len() as u64 {
        return Err(format!(
            "{backend}: {warm_anomalies}/{} anomalies during warm-up on clean traffic",
            windows.len()
        ));
    }

    // Measured passes: nothing in this loop may allocate.
    let passes = frames.div_ceil(windows.len() as u64).max(1);
    let frames_measured = passes * windows.len() as u64;
    let mut anomalies = 0u64;
    let before = ALLOC.snapshot();
    for _ in 0..passes {
        for (pos, window) in windows {
            if score(*pos, window) {
                anomalies += 1;
            }
        }
    }
    let delta = ALLOC.snapshot().since(&before);

    let total = delta.total_allocations();
    Ok(BackendAudit {
        backend,
        frames_measured,
        allocations: delta.allocations,
        reallocations: delta.reallocations,
        deallocations: delta.deallocations,
        bytes_requested: delta.bytes_requested,
        allocs_per_frame: total as f64 / frames_measured as f64,
        anomalies,
        passed: total == 0,
    })
}
