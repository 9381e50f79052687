//! `backend_matrix` — sharded-pipeline throughput of every detection
//! backend (vProfile, Viden, Scission, VoltageIDS) at 1 worker and at
//! `available_parallelism` workers, written to a JSON artifact.
//!
//! ```text
//! backend_matrix [--frames N] [--seed S] [--out FILE]
//! ```
//!
//! All four backends are trained on the *same* stress-fleet capture
//! (8 ECUs on staggered schedules) and replay the *same* raw sample
//! stream through the identical `IdsPipeline` code path, so the matrix
//! isolates the cost of the scoring backend itself: framing, extraction,
//! routing, and merging are shared overhead. Frames-per-second is
//! measured over the feed-to-close wall clock, matching
//! `pipeline_throughput`.

use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;
use vprofile::{EdgeSetExtractor, Trainer, VProfileConfig};
use vprofile_baselines::{ScissionDetector, VidenDetector, VoltageIdsDetector};
use vprofile_ids::{Backend, IdsEngine, IdsPipeline, PipelineConfig, StageBreakdown, UpdatePolicy};
use vprofile_vehicle::scenario::stress_fleet;
use vprofile_vehicle::CaptureConfig;

/// Frames captured once and replayed to reach the requested total.
const CAPTURE_FRAMES: usize = 500;
/// ECUs in the stress fleet (8 distinct SAs keeps all shards busy).
const ECUS: usize = 8;

#[derive(Serialize)]
struct MatrixRun {
    backend: &'static str,
    workers: usize,
    frames: u64,
    elapsed_s: f64,
    frames_per_sec: f64,
    /// Throughput over the 1-worker run; `None` when the run has more
    /// workers than `available_parallelism`, where the ratio measures
    /// timeslicing, not scaling.
    speedup_vs_single: Option<f64>,
    anomalies: u64,
    normals: u64,
    stage_ns: StageBreakdown,
}

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    ecus: usize,
    seed: u64,
    frames_per_run: u64,
    available_parallelism: usize,
    worker_counts: Vec<usize>,
    note: &'static str,
    runs: Vec<MatrixRun>,
}

struct Options {
    frames: usize,
    seed: u64,
    out: String,
}

fn main() -> ExitCode {
    let mut options = Options {
        frames: 10_000,
        seed: 13,
        out: "BENCH_backends.json".into(),
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

    match run(&options) {
        Ok(report) => {
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
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!("usage: backend_matrix [--frames N] [--seed S] [--out FILE]");
    ExitCode::FAILURE
}

/// Captures and trains every backend once, then times one pipeline run per
/// backend × worker count.
fn run(options: &Options) -> Result<Report, String> {
    let (engines, stream, reps) = prepare(options.frames, options.seed)?;
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // Always exercise a multi-worker configuration: on a single-core host
    // `available_parallelism` is 1, but the sharded path must still be
    // timed, so the second column falls back to 2 workers there.
    let worker_counts: Vec<usize> = vec![1, cores.max(2)];
    eprintln!(
        "stress fleet: {ECUS} ECUs, {} frames/run, workers {worker_counts:?}",
        reps * CAPTURE_FRAMES
    );

    let mut runs: Vec<MatrixRun> = Vec::with_capacity(engines.len() * worker_counts.len());
    for engine in engines {
        let backend = engine.backend_name();
        let mut single_fps = None;
        for &workers in &worker_counts {
            let (frames, elapsed_s, anomalies, normals, stage_ns) =
                timed_run(engine.clone(), &stream, reps, workers)?;
            let frames_per_sec = frames as f64 / elapsed_s;
            let speedup_vs_single =
                (workers <= cores).then(|| single_fps.map_or(1.0, |s| frames_per_sec / s));
            single_fps.get_or_insert(frames_per_sec);
            let speedup = speedup_vs_single.map_or("unmeasured".into(), |x| format!("×{x:.2}"));
            eprintln!(
                "{backend} workers {workers}: {frames} frames in {elapsed_s:.3} s → \
                 {frames_per_sec:.0} frames/s ({speedup} vs single)"
            );
            runs.push(MatrixRun {
                backend,
                workers,
                frames,
                elapsed_s,
                frames_per_sec,
                speedup_vs_single,
                anomalies,
                normals,
                stage_ns,
            });
        }
    }

    Ok(Report {
        benchmark: "backend_matrix",
        ecus: ECUS,
        seed: options.seed,
        frames_per_run: (reps * CAPTURE_FRAMES) as u64,
        available_parallelism: cores,
        worker_counts,
        note: "All backends replay the same stream through the same sharded \
               pipeline; differences isolate scoring cost. Speedup is null for runs \
               with more workers than available_parallelism; regenerate on a \
               multi-core host (CI does) before reading the scaling numbers.",
        runs,
    })
}

/// Builds one trained engine per backend plus the replayable raw stream.
fn prepare(frames_target: usize, seed: u64) -> Result<(Vec<IdsEngine>, Vec<f64>, usize), String> {
    let vehicle = stress_fleet(ECUS, seed);
    let capture = vehicle
        .capture(
            &CaptureConfig::default()
                .with_frames(CAPTURE_FRAMES)
                .with_seed(seed),
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
        .map_err(|e| format!("vprofile training failed: {e}"))?;
    let viden =
        VidenDetector::fit(&labeled, &lut, 6.0).map_err(|e| format!("viden training: {e}"))?;
    let scission = ScissionDetector::fit(&labeled, &lut, 0.5)
        .map_err(|e| format!("scission training: {e}"))?;
    let voltageids = VoltageIdsDetector::fit(&labeled, &lut, 0.0)
        .map_err(|e| format!("voltageids training: {e}"))?;
    let engines = vec![
        Backend::vprofile(model, 2.0),
        Backend::from(viden),
        Backend::from(scission),
        Backend::from(voltageids),
    ]
    .into_iter()
    .map(|b| IdsEngine::with_backend(b, config.clone(), UpdatePolicy::disabled()))
    .collect();
    let mut stream = Vec::with_capacity(capture.frames().iter().map(|f| f.trace.len()).sum());
    for frame in capture.frames() {
        frame.trace.extend_f64_into(&mut stream);
    }
    let reps = frames_target.div_ceil(CAPTURE_FRAMES).max(1);
    Ok((engines, stream, reps))
}

/// Feeds `reps` repetitions of `stream` through a `workers`-wide pipeline
/// and returns (frames, wall-clock seconds, anomalies, normals, stage
/// breakdown).
#[allow(clippy::type_complexity)]
fn timed_run(
    engine: IdsEngine,
    stream: &[f64],
    reps: usize,
    workers: usize,
) -> Result<(u64, f64, u64, u64, StageBreakdown), String> {
    let mut pipeline =
        IdsPipeline::spawn_sharded(engine, PipelineConfig::default().with_workers(workers));
    let t0 = Instant::now();
    for _ in 0..reps {
        for chunk in stream.chunks(65_536) {
            pipeline
                .feed(chunk.to_vec())
                .map_err(|e| format!("feed failed: {e}"))?;
        }
    }
    pipeline.close_input();
    let mut events = 0u64;
    for _ in pipeline.events() {
        events += 1;
    }
    let (_engines, stats) = pipeline.close().map_err(|e| format!("close failed: {e}"))?;
    let elapsed_s = t0.elapsed().as_secs_f64();
    if events != stats.frames {
        return Err(format!(
            "event count {events} disagrees with stats.frames {}",
            stats.frames
        ));
    }
    Ok((
        stats.frames,
        elapsed_s,
        stats.anomalies,
        stats.normals,
        stats.stage_ns,
    ))
}
