//! Shadow mode: audition candidate backends against live traffic.
//!
//! A vProfile engine stays the production detector while a Viden and a
//! Scission baseline shadow it on every shard of the sharded pipeline.
//! Each frame is extracted once; the shadows score the primary's edge set
//! after it. Shadows never raise alarms, never absorb online updates and
//! never feed the circuit breaker; every frame where a shadow's
//! anomaly/normal call differs from the primary's is counted per shadow,
//! which is the evidence you would use to promote (or reject) a candidate
//! backend.
//!
//! ```sh
//! cargo run --release --example shadow_mode
//! ```

use vprofile_suite::baselines::{ScissionDetector, VidenDetector};
use vprofile_suite::core::{EdgeSetExtractor, Trainer, VProfileConfig};
use vprofile_suite::ids::{Backend, IdsEngine, IdsPipeline, PipelineConfig, UpdatePolicy};
use vprofile_suite::vehicle::{CaptureConfig, Vehicle};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One clean capture trains the production model and both candidates.
    let vehicle = Vehicle::vehicle_b(7);
    let capture = vehicle.capture(&CaptureConfig::default().with_frames(600).with_seed(7))?;
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
    let labeled = extracted.labeled();
    let lut = vehicle.sa_lut();

    // Two candidates shadow the primary: a reasonably tuned Viden and a
    // deliberately over-tight Scission (min confidence 0.999) so the demo
    // has disagreements to show.
    let model = Trainer::new(config).train_with_lut(&labeled, &lut)?;
    let engine = IdsEngine::new(model, 2.0, UpdatePolicy::disabled()).with_shadows(vec![
        Backend::from(VidenDetector::fit(&labeled, &lut, 6.0)?),
        Backend::from(ScissionDetector::fit(&labeled, &lut, 0.999)?),
    ]);
    let mut pipeline =
        IdsPipeline::spawn_sharded(engine, PipelineConfig::default().with_workers(2));

    // Replay the capture as the "live" stream.
    let mut stream = Vec::new();
    for frame in capture.frames() {
        stream.extend(frame.trace.to_f64());
    }
    for chunk in stream.chunks(8192) {
        pipeline.feed(chunk.to_vec())?;
    }
    pipeline.close_input();

    // The primary's verdict stream is untouched by the shadows.
    let anomalies = pipeline.events().iter().filter(|e| e.is_anomaly()).count();
    let (_, stats) = pipeline.close()?;
    let scored = stats.anomalies + stats.normals;
    println!(
        "{} frames scored by the primary ({anomalies} anomalies), each also by both shadows",
        stats.frames
    );
    // Voter 0 is the primary; shadow i is voter 1 + i.
    let disagreements = &stats.voter_disagreements[1..];
    for (index, (name, count)) in ["viden", "scission"].iter().zip(disagreements).enumerate() {
        println!(
            "shadow #{index} ({name}): disagreed on {count} of {scored} frames ({:.1}%)",
            *count as f64 * 100.0 / scored as f64
        );
    }
    println!(
        "shadow scoring took {:.1} ms against the primary's {:.1} ms",
        stats.stage_ns.shadow_ns as f64 / 1e6,
        stats.stage_ns.score_ns as f64 / 1e6
    );
    assert_eq!(anomalies, 0, "clean traffic raises no primary alarm");
    assert_eq!(scored, 600, "every frame is scored");
    assert_eq!(
        disagreements,
        [0, 600],
        "viden agrees everywhere, the over-tight scission nowhere"
    );
    println!();
    println!(
        "verdict: viden tracks the primary closely; the over-tight scission \
         candidate would have flooded the bus with false alarms — shadow mode \
         caught that without a single bad verdict reaching production."
    );
    Ok(())
}
