//! Non-finite edge sets fail closed (ROADMAP invariant 4).
//!
//! A NaN sample inside a frame's edge-set span makes every Mahalanobis
//! distance NaN. A first-strict-minimum scan then keeps cluster 0, and
//! `NaN > limit` is false, so scored, a frame claiming a cluster-0 SA
//! would pass as `Ok { distance: NaN }`. Under fusion, that NaN calibrated
//! score would turn the fused mean and the SA's adaptive threshold NaN for
//! good, and later mimicry frames on the SA would pass too.
//!
//! The first test places one NaN or infinity at every position of every
//! replayed frame's edge-set span and runs the window through
//! [`IdsEngine::process_window`]; the second poisons one fused frame and
//! checks that the SA's threshold stays finite and a mimicry frame on it
//! is still flagged.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vprofile::{ClusterId, EdgeSetExtractor, Trainer, VProfileConfig};
use vprofile_analog::FrameSynthesizer;
use vprofile_baselines::{ScissionDetector, VidenDetector};
use vprofile_can::{SourceAddress, WireFrame};
use vprofile_ids::{
    Backend, FusionConfig, FusionEngine, IdsEngine, IdsEvent, StreamFramer, UpdatePolicy,
};
use vprofile_vehicle::adversary::{mimicry_attacker, AdversaryPlan};
use vprofile_vehicle::scenario::stress_fleet;
use vprofile_vehicle::{Capture, CaptureConfig, Vehicle};

const SEED: u64 = 11;
const ECUS: usize = 8;
const MARGIN: f64 = 2.0;

struct Fleet {
    vehicle: Vehicle,
    config: VProfileConfig,
    training: Capture,
    replay: Capture,
}

fn fleet() -> Fleet {
    let vehicle = stress_fleet(ECUS, SEED);
    let training = vehicle
        .capture(
            &CaptureConfig::default()
                .with_frames(200 * ECUS)
                .with_seed(SEED),
        )
        .expect("training capture");
    let replay = vehicle
        .capture(
            &CaptureConfig::default()
                .with_frames(240)
                .with_seed(SEED + 1),
        )
        .expect("replay capture");
    let config = VProfileConfig::for_adc(training.adc(), training.bit_rate_bps());
    Fleet {
        vehicle,
        config,
        training,
        replay,
    }
}

/// Every index of `window` whose sample is part of the extracted edge set
/// and can be overwritten with `bad` without moving the extraction: the
/// frame still decodes to the same SA, and its edge set now holds `bad`.
fn edge_set_positions(extractor: &EdgeSetExtractor, window: &[f64], bad: f64) -> Vec<usize> {
    let Ok(clean) = extractor.extract(window) else {
        return Vec::new();
    };
    let mut probe = window.to_vec();
    let mut positions = Vec::new();
    for i in 0..window.len() {
        probe[i] = bad;
        if let Ok(obs) = extractor.extract(&probe) {
            if obs.sa == clean.sa
                && obs
                    .edge_set
                    .samples()
                    .iter()
                    .any(|v| v.to_bits() == bad.to_bits())
            {
                positions.push(i);
            }
        }
        probe[i] = window[i];
    }
    positions
}

#[test]
fn a_non_finite_sample_in_the_edge_set_span_is_flagged() {
    let fleet = fleet();
    let extractor = EdgeSetExtractor::new(fleet.config.clone());
    let model = Trainer::new(fleet.config.clone())
        .train_with_lut(
            &fleet.training.extract(&extractor).labeled(),
            &fleet.vehicle.sa_lut(),
        )
        .expect("training");
    let mut engine = IdsEngine::new(model.clone(), MARGIN, UpdatePolicy::disabled());

    let mut placements = 0usize;
    let mut claimed_cluster_0 = 0usize;
    for (k, cf) in fleet.replay.frames().iter().enumerate().take(24) {
        let window = cf.trace.to_f64();
        let sa = extractor.extract(&window).expect("clean replay frame").sa;
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][k % 3];
        for at in edge_set_positions(&extractor, &window, bad) {
            let mut poisoned = window.clone();
            poisoned[at] = bad;
            let IdsEvent::Scored(scored) = engine.process_window(0, &poisoned) else {
                panic!("the synchronous engine only emits scored events");
            };
            assert_eq!(scored.sa, Some(sa));
            assert!(
                scored.verdict.is_unscorable(),
                "frame {k} (SA {sa:?}) with {bad} at sample {at}: {:?}",
                scored.verdict
            );
            placements += 1;
            if model.lookup_sa(sa) == Some(ClusterId(0)) {
                claimed_cluster_0 += 1;
            }
        }
    }
    assert!(placements > 100, "only {placements} placements exercised");
    assert!(
        claimed_cluster_0 > 0,
        "no placement claimed a cluster-0 SA, the case that used to pass"
    );
}

#[test]
fn a_nan_frame_does_not_blind_fusion_for_its_sa() {
    let fleet = fleet();
    let extractor = EdgeSetExtractor::new(fleet.config.clone());
    let labeled = fleet.training.extract(&extractor).labeled();
    let lut = fleet.vehicle.sa_lut();
    let model = Trainer::new(fleet.config.clone())
        .train_with_lut(&labeled, &lut)
        .expect("training");
    let cluster_0_sa = |sa: SourceAddress| model.lookup_sa(sa) == Some(ClusterId(0));
    let voters = vec![
        Backend::vprofile(model.clone(), MARGIN),
        Backend::from(VidenDetector::fit(&labeled, &lut, 6.0).expect("viden training")),
        Backend::from(ScissionDetector::fit(&labeled, &lut, 0.5).expect("scission training")),
    ];
    let mut engine = FusionEngine::new(
        voters,
        fleet.config.clone(),
        FusionConfig::default(),
        UpdatePolicy::disabled(),
    );

    // Warm the adaptive thresholds on the first half of the replay.
    let frames = fleet.replay.frames();
    let (warm, rest) = frames.split_at(frames.len() / 2);
    let mut framer = StreamFramer::new(fleet.config.bit_width_samples, fleet.config.bit_threshold);
    for cf in warm {
        for (pos, window) in framer.push(&cf.trace.to_f64()) {
            engine.process_window(pos, &window);
        }
    }

    // A NaN frame, then a mimicry frame, both claiming the same
    // cluster-0 SA.
    let victim = rest
        .iter()
        .position(|cf| cluster_0_sa(cf.frame.j1939_id().sa()))
        .expect("a replayed cluster-0 frame");
    let cf = &rest[victim];
    let sa = cf.frame.j1939_id().sa();
    let window = cf.trace.to_f64();
    let at = edge_set_positions(&extractor, &window, f64::NAN)[0];
    let mut poisoned = window;
    poisoned[at] = f64::NAN;
    engine.process_window(0, &poisoned);
    let theta = engine.core().threshold(sa.raw());
    assert!(
        theta.is_finite(),
        "SA {sa:?} threshold after a NaN frame: {theta}"
    );

    let synth = FrameSynthesizer::new(fleet.replay.bit_rate_bps(), *fleet.replay.adc());
    let plan = AdversaryPlan::new(cf.true_ecu, 0.0, SEED);
    let attacker = mimicry_attacker(&fleet.vehicle, &plan).expect("attacker");
    let mut rng = StdRng::seed_from_u64(SEED);
    let forged = synth
        .synthesize(
            WireFrame::encode(&cf.frame).bits(),
            &attacker,
            fleet.replay.env(),
            &mut rng,
        )
        .to_f64();
    let event = engine.process_window(0, &forged);
    assert!(
        event.is_anomaly(),
        "a mimicry frame on SA {sa:?} after a NaN frame must be flagged: {event:?}"
    );
    assert!(engine.core().threshold(sa.raw()).is_finite());
}
