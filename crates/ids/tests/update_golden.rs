//! Golden digest of the §5.3 online-update path.
//!
//! A seeded warm-up drive (the 8-ECU stress fleet trained at 20 °C,
//! replayed while it warms to 45 °C) runs through [`IdsEngine`] with an
//! update on every accepted frame and the poisoning drift guard armed.
//! Every verdict field is folded into an FNV-1a digest — distances and
//! limits by their bit patterns — together with the final model's moments,
//! factors and thresholds, also by bits. The absorbed and quarantined
//! counts are pinned beside it.
//!
//! Two guard settings run: the benchmark's 400, which clean warm-up
//! traffic never trips, and a tight 24, which trips after 26 applied
//! batches and then quarantines every sender in turn, discarding its
//! buffered observations mid-batch, so the discard path is pinned too.
//!
//! The constants below are the values of the original, allocating update
//! path. Any change to the update arithmetic, the batching, the scoring
//! cache or the drift measure that moves a single bit fails this test.
//! Print the current values with
//!
//! ```text
//! cargo test -p vprofile-ids --test update_golden -- --nocapture
//! ```

use vprofile::{AnomalyKind, EdgeSetExtractor, Trainer, VProfileConfig, Verdict};
use vprofile_analog::Environment;
use vprofile_ids::{IdsEngine, IdsEvent, UpdatePolicy};
use vprofile_vehicle::scenario::{stress_fleet, warmup_drive};
use vprofile_vehicle::CaptureConfig;

const SEED: u64 = 11;
const ECUS: usize = 8;
const TRAIN_FRAMES_PER_ECU: usize = 120;
const REPLAY_FRAMES: usize = 900;
const MARGIN: f64 = 2.0;
const TRAIN_C: f64 = 20.0;
const WARM_C: f64 = 45.0;

/// What one guarded replay is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    events: usize,
    anomalies: usize,
    absorbed: usize,
    quarantined: usize,
    verdicts: u64,
    model: u64,
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

    fn f64s(&mut self, vs: &[f64]) {
        for &v in vs {
            self.f64(v);
        }
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
        panic!("the synchronous engine only emits scored events: {event:?}");
    };
    h.u64(scored.stream_pos);
    h.u64(scored.sa.map_or(0x100, |sa| u64::from(sa.raw())));
    h.u64(u64::from(scored.extraction_failed));
    h.u64(u64::from(scored.retrain_due));
    digest_verdict(h, &scored.verdict);
}

fn digest_model(engine: &IdsEngine) -> u64 {
    let model = engine.model().expect("vprofile backend");
    let mut h = Fnv::new();
    for cluster in model.clusters() {
        h.u64(cluster.count() as u64);
        h.f64(cluster.max_distance());
        h.f64s(cluster.mean());
        let g = cluster.gaussian().expect("Mahalanobis model");
        h.u64(g.count() as u64);
        h.f64s(g.mean());
        h.f64s(g.covariance().as_slice());
        h.f64s(g.cholesky().factor().as_slice());
    }
    h.0
}

fn total_count(engine: &IdsEngine) -> usize {
    engine
        .model()
        .expect("vprofile backend")
        .clusters()
        .iter()
        .map(|c| c.count())
        .sum()
}

/// Trains on a 20 °C capture and returns the engine template plus the
/// warm-up replay stream.
fn setup() -> (IdsEngine, Vec<f64>) {
    let vehicle = stress_fleet(ECUS, SEED);
    let training = vehicle
        .capture(
            &CaptureConfig::default()
                .with_frames(TRAIN_FRAMES_PER_ECU * ECUS)
                .with_seed(SEED)
                .with_env(Environment::idling_at(TRAIN_C)),
        )
        .expect("training capture");
    let config = VProfileConfig::for_adc(training.adc(), training.bit_rate_bps());
    let extracted = training.extract(&EdgeSetExtractor::new(config.clone()));
    let model = Trainer::new(config)
        .train_with_lut(&extracted.labeled(), &vehicle.sa_lut())
        .expect("training");
    let replay =
        warmup_drive(&vehicle, REPLAY_FRAMES, TRAIN_C, WARM_C, SEED + 1).expect("replay capture");
    let mut stream = Vec::new();
    for frame in replay.frames() {
        stream.extend(frame.trace.to_f64());
    }
    (
        IdsEngine::new(model, MARGIN, UpdatePolicy::every(1, usize::MAX)),
        stream,
    )
}

fn run(template: &IdsEngine, stream: &[f64], guard: f64) -> Golden {
    let mut engine = template.clone().with_drift_guard(guard);
    let before = total_count(&engine);
    let mut events = engine.process_samples(stream);
    events.extend(engine.finish());
    let mut h = Fnv::new();
    for event in &events {
        digest_event(&mut h, event);
    }
    let golden = Golden {
        events: events.len(),
        anomalies: events.iter().filter(|e| e.is_anomaly()).count(),
        absorbed: total_count(&engine) - before,
        quarantined: engine.quarantined().len(),
        verdicts: h.0,
        model: digest_model(&engine),
    };
    println!("guard {guard}: {golden:?}");
    golden
}

#[test]
fn update_path_is_pinned_bit_for_bit() {
    let (template, stream) = setup();
    let benchmark_guard = run(&template, &stream, 400.0);
    let tight_guard = run(&template, &stream, 24.0);
    assert_eq!(
        benchmark_guard,
        Golden {
            events: 900,
            anomalies: 6,
            absorbed: 880,
            quarantined: 0,
            verdicts: 7964247492721886433,
            model: 1670220283713630378,
        }
    );
    assert_eq!(
        tight_guard,
        Golden {
            events: 900,
            anomalies: 8,
            absorbed: 416,
            quarantined: 8,
            verdicts: 13281411593950956993,
            model: 15797300802715760120,
        }
    );
}
