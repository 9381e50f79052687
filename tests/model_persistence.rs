//! Model persistence: a trained model must survive serialization and keep
//! producing identical verdicts — the deployment path where training runs
//! off-line and the monitor loads the model file.

use vprofile_suite::core::{Detector, EdgeSetExtractor, Model, Trainer, VProfileConfig};
use vprofile_suite::vehicle::{CaptureConfig, Vehicle};

fn trained_model() -> (Model, Vec<vprofile_suite::core::LabeledEdgeSet>) {
    let vehicle = Vehicle::vehicle_b(55);
    let capture = vehicle
        .capture(&CaptureConfig::default().with_frames(900).with_seed(55))
        .expect("capture");
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
    let observations = extracted.labeled();
    let model = Trainer::new(config)
        .train_with_lut(&observations, &vehicle.sa_lut())
        .expect("training");
    (model, observations)
}

#[test]
fn model_round_trips_through_json() {
    let (model, observations) = trained_model();
    let json = serde_json::to_string(&model).expect("serializes");
    let restored: Model = serde_json::from_str(&json).expect("deserializes");

    // The file holds the statistics, and loading re-derives the factors
    // and scoring rows from them: the same model, and — the property a
    // deployed monitor needs — the same verdicts.
    assert_eq!(restored, model);
    let before = Detector::with_margin(&model, 1.5);
    let after = Detector::with_margin(&restored, 1.5);
    for obs in observations.iter().take(200) {
        assert_eq!(before.classify(obs), after.classify(obs));
    }
}

#[test]
fn restored_model_supports_online_updates() {
    let (model, observations) = trained_model();
    let json = serde_json::to_string(&model).expect("serializes");
    let mut restored: Model = serde_json::from_str(&json).expect("deserializes");
    let outcome = restored
        .update_online(&observations[..20])
        .expect("updates apply");
    assert_eq!(outcome.absorbed, 20);
}

#[test]
fn config_and_edge_sets_serialize() {
    let (model, observations) = trained_model();
    let config_json = serde_json::to_string(model.config()).expect("config serializes");
    let config: VProfileConfig = serde_json::from_str(&config_json).expect("config restores");
    assert_eq!(&config, model.config());

    let obs_json = serde_json::to_string(&observations[0]).expect("observation serializes");
    let obs: vprofile_suite::core::LabeledEdgeSet =
        serde_json::from_str(&obs_json).expect("observation restores");
    assert_eq!(obs, observations[0]);
}
