//! Golden digest of the fused scoring path.
//!
//! A seeded replay of the 32-ECU stress fleet, with every 50th frame
//! re-sent by a mimicry attacker (a foreign device and one tuned half way
//! toward the victim, alternately), runs frame by frame through a
//! three-voter [`FusionEngine`] (vProfile primary, Viden, Scission) via
//! [`FusionEngine::process_window`]. Every event field is folded into an
//! FNV-1a digest, floats by their bit patterns, together with the
//! adaptive threshold and episode flag of the frame's SA after the frame.
//!
//! The same stream then runs through a one-worker [`FusionPipeline`]: its
//! event stream must equal the engine's, every notable [`FusionRecord`]
//! its drift ledger keeps is digested field by field, and the fusion
//! counters are pinned beside the digests.
//!
//! The constants below were generated by the full-scan nearest-cluster
//! path. Any change to scoring, calibration or fusion arithmetic that
//! moves a single bit fails this test. Print the current values with
//!
//! ```text
//! cargo test -p vprofile-ids --test fusion_golden -- --nocapture
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use vprofile::{AnomalyKind, EdgeSetExtractor, Trainer, VProfileConfig, Verdict};
use vprofile_analog::FrameSynthesizer;
use vprofile_baselines::{ScissionDetector, VidenDetector};
use vprofile_can::WireFrame;
use vprofile_ids::{
    Backend, FusionConfig, FusionEngine, FusionPipeline, FusionRecord, IdsEvent, PipelineConfig,
    StreamFramer, UpdatePolicy,
};
use vprofile_vehicle::adversary::{external_attacker_id, mimicry_attacker, AdversaryPlan};
use vprofile_vehicle::scenario::stress_fleet;
use vprofile_vehicle::CaptureConfig;

const SEED: u64 = 11;
const ECUS: usize = 32;
const TRAIN_FRAMES_PER_ECU: usize = 200;
const REPLAY_FRAMES: usize = 4000;
const ATTACK_EVERY: usize = 50;
const MARGIN: f64 = 2.0;

/// What the replay is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    events: usize,
    anomalies: usize,
    verdicts: u64,
    fusion_frames: u64,
    voter_disagreements: Vec<u64>,
    drift_verdicts: u64,
    records: usize,
    record_digest: u64,
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

fn digest_record(h: &mut Fnv, record: &FusionRecord) {
    h.u64(u64::from(record.sa));
    h.f64(record.score);
    h.f64(record.threshold);
    h.u64(u64::from(record.anomaly));
    h.u64(u64::from(record.scored));
    h.u64(u64::from(record.episode));
    h.u64(u64::from(record.absorbed));
    h.u64(u64::from(record.disagree_mask));
    match record.drift {
        Some(drift) => {
            h.u64(1);
            h.u64(u64::from(drift.sa));
            h.bytes(format!("{:?}", drift.kind).as_bytes());
            h.f64(drift.magnitude);
        }
        None => h.u64(0),
    }
    h.u64(record.outage.map_or(0x100, u64::from));
}

/// Trains the ensemble on a clean capture and returns it with the replay
/// stream, every `ATTACK_EVERY`-th frame re-sent by a mimicry attacker.
fn setup() -> (FusionEngine, Vec<f64>) {
    let vehicle = stress_fleet(ECUS, SEED);
    let training = vehicle
        .capture(
            &CaptureConfig::default()
                .with_frames(TRAIN_FRAMES_PER_ECU * ECUS)
                .with_seed(SEED),
        )
        .expect("training capture");
    let config = VProfileConfig::for_adc(training.adc(), training.bit_rate_bps());
    let extracted = training.extract(&EdgeSetExtractor::new(config.clone()));
    assert_eq!(extracted.failures, 0, "training traffic must be clean");
    let labeled = extracted.labeled();
    let lut = vehicle.sa_lut();
    let model = Trainer::new(config.clone())
        .train_with_lut(&labeled, &lut)
        .expect("training");
    let voters = vec![
        Backend::vprofile(model, MARGIN),
        Backend::from(VidenDetector::fit(&labeled, &lut, 6.0).expect("viden training")),
        Backend::from(ScissionDetector::fit(&labeled, &lut, 0.5).expect("scission training")),
    ];
    let engine = FusionEngine::new(
        voters,
        config,
        FusionConfig::default(),
        UpdatePolicy::disabled(),
    );

    let replay = vehicle
        .capture(
            &CaptureConfig::default()
                .with_frames(REPLAY_FRAMES)
                .with_seed(SEED + 1),
        )
        .expect("replay capture");
    let synth = FrameSynthesizer::new(replay.bit_rate_bps(), *replay.adc());
    let mut stream = Vec::new();
    for (k, cf) in replay.frames().iter().enumerate() {
        if k % ATTACK_EVERY == ATTACK_EVERY / 2 {
            let effort = if (k / ATTACK_EVERY).is_multiple_of(2) {
                0.0
            } else {
                0.5
            };
            let plan = AdversaryPlan::new(cf.true_ecu, effort, SEED);
            let attacker = mimicry_attacker(&vehicle, &plan).expect("attacker");
            let mut rng = StdRng::seed_from_u64(SEED ^ ((k as u64) << 20));
            let wire = WireFrame::encode(&cf.frame);
            let trace = synth.synthesize(wire.bits(), &attacker, replay.env(), &mut rng);
            assert_ne!(cf.true_ecu, external_attacker_id(&vehicle));
            stream.extend(trace.to_f64());
        } else {
            stream.extend(cf.trace.to_f64());
        }
    }
    (engine, stream)
}

#[test]
fn fused_scoring_is_pinned_bit_for_bit() {
    let (template, stream) = setup();

    let mut engine = template.clone();
    let geometry = engine.config();
    let mut framer = StreamFramer::new(geometry.bit_width_samples, geometry.bit_threshold);
    let mut windows = framer.push(&stream);
    windows.extend(framer.flush());
    let mut h = Fnv::new();
    let mut events = Vec::with_capacity(windows.len());
    for (stream_pos, window) in &windows {
        let event = engine.process_window(*stream_pos, window);
        digest_event(&mut h, &event);
        if let IdsEvent::Scored(scored) = &event {
            let sa = scored.sa.map_or(0xFF, |sa| sa.raw());
            h.f64(engine.core().threshold(sa));
            h.u64(u64::from(engine.core().episode(sa)));
        }
        events.push(event);
    }

    let mut pipeline = FusionPipeline::spawn(template, PipelineConfig::default().with_workers(1));
    for chunk in stream.chunks(65_536) {
        pipeline.feed(chunk.to_vec()).expect("feed");
    }
    pipeline.close_input();
    let piped: Vec<IdsEvent> = pipeline.events().into_iter().collect();
    // A window's notable record enters the ledger in the critical section
    // that sends its event, so all are recorded once the stream has ended.
    let records: Vec<FusionRecord> = pipeline
        .ledger()
        .events()
        .iter()
        .map(|e| e.record)
        .collect();
    let (_, stats) = pipeline.close().expect("clean close");
    assert_eq!(piped, events, "the pipeline replays the engine's events");
    let mut record_digest = Fnv::new();
    for record in &records {
        digest_record(&mut record_digest, record);
    }

    let golden = Golden {
        events: events.len(),
        anomalies: events.iter().filter(|e| e.is_anomaly()).count(),
        verdicts: h.0,
        fusion_frames: stats.fusion_frames,
        voter_disagreements: stats.voter_disagreements.clone(),
        drift_verdicts: stats.drift_verdicts,
        records: records.len(),
        record_digest: record_digest.0,
    };
    println!("{golden:?}");
    assert_eq!(
        golden,
        Golden {
            events: 4000,
            anomalies: 94,
            verdicts: 13242634800871428391,
            fusion_frames: 4000,
            voter_disagreements: vec![15, 45, 800],
            drift_verdicts: 34,
            records: 34,
            record_digest: 15284052716487806172,
        }
    );
}
