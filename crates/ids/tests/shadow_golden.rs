//! Golden counts and digest of shadow scoring.
//!
//! A clean vehicle-B capture (seed 13, 4 000 frames) trains a vProfile
//! primary and three baseline shadows — Viden, Scission and VoltageIDS at
//! the thresholds `vprofile_experiments::backend_comparison` uses — and is
//! replayed through an [`IdsPipeline`] at 1 and 2 workers. Every event
//! field is folded into an FNV-1a digest, floats by their bit patterns,
//! and the per-voter disagreement counts are pinned beside it.
//!
//! The constants below were recorded from the earlier shadow path, which
//! ran every shadow as a whole second engine that re-extracted each frame
//! and shipped its verdicts over a channel of its own. Scoring the shadows
//! on the primary's extracted edge set must reproduce them exactly. Print
//! the current values with
//!
//! ```text
//! cargo test -p vprofile-ids --test shadow_golden -- --nocapture
//! ```

use vprofile::{AnomalyKind, EdgeSetExtractor, Trainer, VProfileConfig, Verdict};
use vprofile_baselines::{ScissionDetector, VidenDetector, VoltageIdsDetector};
use vprofile_ids::{Backend, IdsEngine, IdsEvent, IdsPipeline, PipelineConfig, UpdatePolicy};
use vprofile_vehicle::{CaptureConfig, Vehicle};

const SEED: u64 = 13;
const FRAMES: usize = 4000;
const MARGIN: f64 = 2.0;

/// What one shadowed replay is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    events: usize,
    anomalies: u64,
    normals: u64,
    voter_disagreements: Vec<u64>,
    digest: u64,
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn digest_verdict(h: &mut Fnv, verdict: &Verdict) {
    match *verdict {
        Verdict::Ok { cluster, distance } => {
            h.u64(0);
            h.u64(cluster.0 as u64);
            h.f64(distance);
        }
        Verdict::Anomaly { kind } => match kind {
            AnomalyKind::UnknownSa { sa } => {
                h.u64(1);
                h.u64(u64::from(sa.raw()));
            }
            AnomalyKind::ClusterMismatch {
                expected,
                predicted,
                distance,
            } => {
                h.u64(2);
                h.u64(expected.0 as u64);
                h.u64(predicted.0 as u64);
                h.f64(distance);
            }
            AnomalyKind::ThresholdExceeded {
                cluster,
                distance,
                limit,
            } => {
                h.u64(3);
                h.u64(cluster.0 as u64);
                h.f64(distance);
                h.f64(limit);
            }
            AnomalyKind::Unscorable => h.u64(4),
        },
    }
}

fn digest_event(h: &mut Fnv, event: &IdsEvent) {
    let IdsEvent::Scored(scored) = event else {
        panic!("a clean replay emits only scored events: {event:?}");
    };
    h.u64(scored.stream_pos);
    h.u64(scored.sa.map_or(0x100, |sa| u64::from(sa.raw())));
    h.u64(u64::from(scored.extraction_failed));
    h.u64(u64::from(scored.retrain_due));
    digest_verdict(h, &scored.verdict);
}

/// Trains the primary and the three shadows on one clean capture and
/// returns the shadowed engine with that capture's raw stream.
fn setup() -> (IdsEngine, Vec<f64>) {
    let vehicle = Vehicle::vehicle_b(SEED);
    let capture = vehicle
        .capture(&CaptureConfig::default().with_frames(FRAMES).with_seed(SEED))
        .expect("capture");
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
    let labeled = extracted.labeled();
    let lut = vehicle.sa_lut();
    let model = Trainer::new(config)
        .train_with_lut(&labeled, &lut)
        .expect("training");
    let shadows = vec![
        Backend::from(VidenDetector::fit(&labeled, &lut, 6.0).expect("viden training")),
        Backend::from(ScissionDetector::fit(&labeled, &lut, 0.5).expect("scission training")),
        Backend::from(VoltageIdsDetector::fit(&labeled, &lut, 0.0).expect("voltageids training")),
    ];
    let engine = IdsEngine::new(model, MARGIN, UpdatePolicy::disabled()).with_shadows(shadows);
    let mut stream = Vec::new();
    for frame in capture.frames() {
        stream.extend(frame.trace.to_f64());
    }
    (engine, stream)
}

#[test]
fn shadow_counts_and_primary_events_are_pinned() {
    let (engine, stream) = setup();
    for workers in [1, 2] {
        let mut pipeline = IdsPipeline::spawn_sharded(
            engine.clone(),
            PipelineConfig::default().with_workers(workers),
        );
        for chunk in stream.chunks(65_536) {
            pipeline.feed(chunk.to_vec()).expect("feed");
        }
        pipeline.close_input();
        let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
        let (_, stats) = pipeline.close().expect("clean close");
        let mut h = Fnv::new();
        for event in &events {
            digest_event(&mut h, event);
        }
        let golden = Golden {
            events: events.len(),
            anomalies: stats.anomalies,
            normals: stats.normals,
            voter_disagreements: stats.voter_disagreements.clone(),
            digest: h.0,
        };
        println!("{workers} worker(s): {golden:?}");
        assert_eq!(
            golden,
            Golden {
                events: 4000,
                anomalies: 0,
                normals: 4000,
                // Voter 0 is the primary; then Viden, Scission, VoltageIDS.
                voter_disagreements: vec![0, 24, 0, 37],
                digest: 6_650_712_868_708_539_203,
            },
            "{workers} worker(s)"
        );
    }
}
