//! `pipeline_throughput` — end-to-end throughput of the sharded IDS
//! pipeline at 1, 2, 4 and 8 detection workers, written to a JSON artifact.
//!
//! ```text
//! pipeline_throughput [--frames N] [--seed S] [--out FILE]
//! ```
//!
//! The workload is synthetic stress-fleet traffic (8 ECUs on staggered
//! 12–26 ms schedules, see `vprofile_vehicle::scenario::stress_fleet`), so
//! the source-address shard hash spreads real work across every worker.
//! Each run feeds the same raw sample stream, waits for the pipeline to
//! drain, and reports frames per second over the feed-to-close wall clock.
//!
//! Every worker count is timed twice: once on the clean stream, once on a
//! `dropout_1pct` variant (1 % seeded sample dropout, gaps ≤ 4 samples)
//! so the artifact shows what capture faults cost the hot path — corrupted
//! windows decode to garbage SAs and score as anomalies instead of taking
//! the clean fast path.
//!
//! Speedup over the single-worker run is only meaningful on a multi-core
//! host: the artifact records `available_parallelism`, writes
//! `speedup_vs_single: null` for runs with more workers than that, and CI
//! regenerates it on its own runners.

use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;
use vprofile::{EdgeSetExtractor, Trainer, VProfileConfig};
use vprofile_analog::Fault;
use vprofile_ids::{IdsEngine, IdsPipeline, PipelineConfig, StageBreakdown, UpdatePolicy};
use vprofile_vehicle::scenario::{chaos_stream, stress_fleet};
use vprofile_vehicle::CaptureConfig;

/// Worker counts the artifact reports, in run order.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Frames captured once and replayed to reach the requested total.
const CAPTURE_FRAMES: usize = 500;
/// ECUs in the stress fleet (8 distinct SAs keeps all shards busy).
const ECUS: usize = 8;

#[derive(Serialize)]
struct WorkerRun {
    variant: &'static str,
    workers: usize,
    frames: u64,
    elapsed_s: f64,
    frames_per_sec: f64,
    /// Throughput over the 1-worker run; `None` when the run has more
    /// workers than `available_parallelism`, where the ratio measures
    /// timeslicing, not scaling.
    speedup_vs_single: Option<f64>,
    anomalies: u64,
    shard_frames: Vec<u64>,
    /// Cumulative per-stage nanoseconds (splitting inside `feed`, copies
    /// of chunk-straddling windows, worker extraction, worker scoring,
    /// merger reordering). Worker stages sum across workers, so they can
    /// exceed the run's wall clock.
    stage_ns: StageBreakdown,
}

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    ecus: usize,
    seed: u64,
    frames_per_run: u64,
    available_parallelism: usize,
    note: &'static str,
    runs: Vec<WorkerRun>,
}

struct Options {
    frames: usize,
    seed: u64,
    out: String,
}

fn main() -> ExitCode {
    let mut options = Options {
        frames: 10_000,
        seed: 11,
        out: "BENCH_pipeline.json".into(),
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
    eprintln!("usage: pipeline_throughput [--frames N] [--seed S] [--out FILE]");
    ExitCode::FAILURE
}

/// Captures and trains once, then times one pipeline run per worker count
/// and stream variant (clean and 1 % sample dropout).
fn run(options: &Options) -> Result<Report, String> {
    let (engine, stream, faulted, reps) = prepare(options.frames, options.seed)?;
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    eprintln!(
        "stress fleet: {ECUS} ECUs, {} frames/run, available_parallelism {cores}",
        reps * CAPTURE_FRAMES
    );

    let mut runs: Vec<WorkerRun> = Vec::with_capacity(2 * WORKER_COUNTS.len());
    for (variant, samples) in [("clean", &stream), ("dropout_1pct", &faulted)] {
        let mut single_fps = None;
        for workers in WORKER_COUNTS {
            let (frames, elapsed_s, anomalies, shard_frames, stage_ns) =
                timed_run(engine.clone(), samples, reps, workers)?;
            let frames_per_sec = frames as f64 / elapsed_s;
            let speedup_vs_single =
                (workers <= cores).then(|| single_fps.map_or(1.0, |s| frames_per_sec / s));
            single_fps.get_or_insert(frames_per_sec);
            let speedup = speedup_vs_single.map_or("unmeasured".into(), |x| format!("×{x:.2}"));
            eprintln!(
                "{variant} workers {workers}: {frames} frames in {elapsed_s:.3} s → \
                 {frames_per_sec:.0} frames/s ({speedup} vs single)"
            );
            runs.push(WorkerRun {
                variant,
                workers,
                frames,
                elapsed_s,
                frames_per_sec,
                speedup_vs_single,
                anomalies,
                shard_frames,
                stage_ns,
            });
        }
    }

    Ok(Report {
        benchmark: "pipeline_throughput",
        ecus: ECUS,
        seed: options.seed,
        frames_per_run: (reps * CAPTURE_FRAMES) as u64,
        available_parallelism: cores,
        note: "Speedup over one worker is bounded by available_parallelism and is null \
               for runs with more workers than that; regenerate on a multi-core host (CI \
               does) before reading the scaling numbers. \
               The dropout_1pct variant replays the same traffic with 1% seeded sample \
               dropout, so its frame count and anomaly mix differ from the clean runs.",
        runs,
    })
}

/// Builds the trained engine plus the clean and dropout-faulted replayable
/// raw sample streams.
#[allow(clippy::type_complexity)]
fn prepare(
    frames_target: usize,
    seed: u64,
) -> Result<(IdsEngine, Vec<f64>, Vec<f64>, usize), String> {
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
    let model = Trainer::new(config)
        .train_with_lut(&extracted.labeled(), &vehicle.sa_lut())
        .map_err(|e| format!("training failed: {e}"))?;
    let mut stream = Vec::with_capacity(capture.frames().iter().map(|f| f.trace.len()).sum());
    for frame in capture.frames() {
        frame.trace.extend_f64_into(&mut stream);
    }
    let faulted = chaos_stream(
        &capture,
        seed,
        &[Fault::Dropout {
            prob: 0.01,
            max_gap: 4,
        }],
    );
    let reps = frames_target.div_ceil(CAPTURE_FRAMES).max(1);
    Ok((
        IdsEngine::new(model, 2.0, UpdatePolicy::disabled()),
        stream,
        faulted,
        reps,
    ))
}

/// Feeds `reps` repetitions of `stream` through a `workers`-wide pipeline
/// and returns (frames scored, wall-clock seconds, anomalies, per-shard
/// frame counts, per-stage timing breakdown).
#[allow(clippy::type_complexity)]
fn timed_run(
    engine: IdsEngine,
    stream: &[f64],
    reps: usize,
    workers: usize,
) -> Result<(u64, f64, u64, Vec<u64>, StageBreakdown), String> {
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
    // Drain the (unbounded) event channel so a slow consumer does not hold
    // the whole run's events in memory while the workers finish.
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
        stats.shard_frames,
        stats.stage_ns,
    ))
}
