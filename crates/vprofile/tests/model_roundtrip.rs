//! One model: what training builds, what a model file holds and what
//! loading re-derives are the same model, bit for bit.
//!
//! `fixtures/parent_model.json` was written by the model format that still
//! stored the Cholesky factor, a second copy of each mean and count, and
//! the SA table: the two-cluster model of `io.rs` after one online batch.
//! [`PARENT_DIGEST`] is what that code's batched scoring gave on
//! [`probes`]. Loading the file now ignores the stored factor and derives
//! it from the covariance, so the digest, the stored factor and a fresh
//! train-and-update all have to agree.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vprofile::{
    AnomalyKind, Detector, EdgeSet, LabeledEdgeSet, Model, Trainer, UpdateBatch, UpdateScratch,
    VProfileConfig, VProfileError, Verdict,
};
use vprofile_can::SourceAddress;
use vprofile_sigstat::DistanceMetric;

const PARENT_MODEL: &str = include_str!("fixtures/parent_model.json");

/// FNV-1a over `(kind, cluster, distance bits)` of the verdicts the
/// fixture's writer scored [`probes`] with.
const PARENT_DIGEST: u64 = 0x3e27_794b_662b_807b;

fn edge_set(rng: &mut StdRng, sa: u8, center: f64, noise: f64) -> LabeledEdgeSet {
    let samples: Vec<f64> = (0..4)
        .map(|i| center + f64::from(i) * 3.0 + rng.random_range(-noise..noise))
        .collect();
    LabeledEdgeSet::new(SourceAddress(sa), EdgeSet::new(samples))
}

fn config(metric: DistanceMetric) -> VProfileConfig {
    let mut config = VProfileConfig::for_adc(&vprofile_analog::AdcConfig::vehicle_b(), 250_000)
        .with_metric(metric);
    config.prefix_len = 1;
    config.suffix_len = 1;
    config
}

/// The `io.rs` test model: SAs 1 and 2, twelve edge sets each.
fn io_model() -> Model {
    let mut rng = StdRng::seed_from_u64(1);
    let mut data = Vec::new();
    for (sa, center) in [(1u8, 100.0), (2u8, 500.0)] {
        for _ in 0..12 {
            data.push(edge_set(&mut rng, sa, center, 1.0));
        }
    }
    Trainer::new(config(DistanceMetric::Mahalanobis))
        .train(&data)
        .unwrap()
}

/// The fixture's online batch: sixteen edge sets alternating SAs.
fn io_batch() -> Vec<LabeledEdgeSet> {
    let mut rng = StdRng::seed_from_u64(2);
    (0..16)
        .map(|k| {
            let (sa, center) = if k % 2 == 0 { (1, 100.5) } else { (2, 499.5) };
            edge_set(&mut rng, sa, center, 1.0)
        })
        .collect()
}

/// 64 probes around both clusters and between them.
fn probes() -> Vec<LabeledEdgeSet> {
    let mut rng = StdRng::seed_from_u64(3);
    (0..64)
        .map(|_| {
            let sa = [1u8, 2][rng.random_range(0..2usize)];
            let center = [100.0, 101.5, 300.0, 498.0, 500.0][rng.random_range(0..5usize)];
            edge_set(&mut rng, sa, center, 4.0)
        })
        .collect()
}

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn digest(model: &Model) -> u64 {
    let detector = Detector::new(model);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for probe in probes() {
        let (kind, cluster, distance) = match detector.classify(&probe) {
            Verdict::Ok { cluster, distance } => (0, cluster, distance),
            Verdict::Anomaly {
                kind:
                    AnomalyKind::ClusterMismatch {
                        predicted,
                        distance,
                        ..
                    },
            } => (1, predicted, distance),
            Verdict::Anomaly {
                kind:
                    AnomalyKind::ThresholdExceeded {
                        cluster, distance, ..
                    },
            } => (2, cluster, distance),
            other => panic!("probe {probe:?} unexpectedly {other:?}"),
        };
        h.u64(kind);
        h.u64(cluster.0 as u64);
        h.u64(distance.to_bits());
    }
    h.0
}

/// Debug renders every f64 in shortest round-trip form, so equal
/// renderings are equal bits (`-0.0` included), derived state included.
fn assert_bits_eq(a: &Model, b: &Model, context: &str) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{context}");
}

fn assert_round_trips(model: &Model, context: &str) {
    let back = Model::from_json(&model.to_json().unwrap()).unwrap();
    assert_bits_eq(&back, model, context);
    let via_serde: Model = serde_json::from_str(&serde_json::to_string(model).unwrap()).unwrap();
    assert_bits_eq(&via_serde, model, context);
}

#[test]
fn parent_written_model_reproduces_its_digest() {
    let loaded = Model::from_json(PARENT_MODEL).unwrap();
    assert_eq!(digest(&loaded), PARENT_DIGEST);

    // Training and the update still build this very model.
    let mut trained = io_model();
    trained.update_online(&io_batch()).unwrap();
    assert_bits_eq(&loaded, &trained, "train + update vs the parent's file");

    // The factor derived at load is the one the file stored.
    let file: serde_json::Value = serde_json::from_str(PARENT_MODEL).unwrap();
    for (c, cluster) in loaded.clusters().iter().enumerate() {
        let stored = &file["clusters"][c]["gaussian"]["chol"]["l"]["data"];
        let derived = cluster.gaussian().unwrap().cholesky().factor().as_slice();
        for (i, d) in derived.iter().enumerate() {
            let s = stored[i].as_f64().unwrap();
            assert_eq!(s.to_bits(), d.to_bits(), "cluster {c}, factor entry {i}");
        }
    }
}

#[test]
fn round_trip_is_exact_before_and_after_updates() {
    for metric in [DistanceMetric::Mahalanobis, DistanceMetric::Euclidean] {
        let mut rng = StdRng::seed_from_u64(40);
        let mut data = Vec::new();
        for _ in 0..12 {
            for (sa, center) in [(1, 100.0), (2, 500.0), (3, 900.0)] {
                data.push(edge_set(&mut rng, sa, center, 1.0));
            }
        }
        let mut model = Trainer::new(config(metric)).train(&data).unwrap();
        assert_round_trips(&model, &format!("{metric} trained"));
        let mut scratch = UpdateScratch::default();
        let mut batch = UpdateBatch::default();
        for round in 0..6 {
            batch.clear();
            for _ in 0..16 {
                let (sa, center) =
                    [(1, 101.0), (2, 499.0), (3, 902.0)][rng.random_range(0..3usize)];
                batch.push(
                    SourceAddress(sa),
                    edge_set(&mut rng, sa, center, 1.0).edge_set.samples(),
                );
            }
            model.update_online_with(&batch, &mut scratch).unwrap();
            assert_round_trips(&model, &format!("{metric} after update {round}"));
        }
    }
}

#[test]
fn round_trip_is_exact_with_ridge_loading() {
    // The last sample never varies, so the covariance is singular and
    // trains only through the ridge budget.
    let mut rng = StdRng::seed_from_u64(41);
    let mut data = Vec::new();
    for _ in 0..12 {
        for (sa, center) in [(1, 100.0), (2, 500.0)] {
            let mut set = edge_set(&mut rng, sa, center, 1.0)
                .edge_set
                .samples()
                .to_vec();
            set[3] = center;
            data.push(LabeledEdgeSet::new(SourceAddress(sa), EdgeSet::new(set)));
        }
    }
    let strict = Trainer::new(config(DistanceMetric::Mahalanobis)).train(&data);
    assert!(matches!(strict, Err(VProfileError::Numeric(_))));
    let model = Trainer::new(config(DistanceMetric::Mahalanobis).with_max_ridge(1e-3))
        .train(&data)
        .unwrap();
    assert_round_trips(&model, "ridge-loaded");
}

#[test]
fn a_batch_that_fails_partway_leaves_a_model_that_round_trips() {
    let mut model = io_model();
    let fresh = Model::from_json(&model.to_json().unwrap()).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let mut batch = UpdateBatch::default();
    batch.push(
        SourceAddress(1),
        edge_set(&mut rng, 1, 100.0, 1.0).edge_set.samples(),
    );
    batch.push(SourceAddress(2), &[f64::NAN; 4]);
    let mut scratch = UpdateScratch::default();
    assert!(model.update_online_with(&batch, &mut scratch).is_err());
    // Cluster 0 was refit (scoring rows included), cluster 1 was not.
    assert_ne!(model.clusters()[0], fresh.clusters()[0]);
    assert_eq!(model.clusters()[1], fresh.clusters()[1]);
    assert_round_trips(&model, "after a failed batch");
}

#[test]
fn negative_zero_survives_the_round_trip() {
    let mut file: serde_json::Value = serde_json::from_str(&io_model().to_json().unwrap()).unwrap();
    file["clusters"][0]["gaussian"]["covariance"]["data"][1] = serde_json::json!(-0.0);
    file["clusters"][0]["gaussian"]["covariance"]["data"][4] = serde_json::json!(-0.0);
    let model = Model::from_json(&file.to_string()).unwrap();
    let covariance = model.clusters()[0].gaussian().unwrap().covariance();
    assert_eq!(covariance.as_slice()[1].to_bits(), (-0.0f64).to_bits());
    assert_round_trips(&model, "-0.0 covariance entries");
}

#[test]
fn classify_and_the_model_scan_agree_bit_for_bit() {
    let model = Model::from_json(PARENT_MODEL).unwrap();
    let detector = Detector::new(&model);
    for probe in probes() {
        let claimed = model.lookup_sa(probe.sa).unwrap();
        let (nearest, distance) = model.nearest_to(probe.edge_set.samples(), claimed).unwrap();
        let verdict = detector.classify(&probe);
        let (cluster, scored) = match verdict {
            Verdict::Ok { cluster, distance } => (cluster, distance),
            Verdict::Anomaly {
                kind:
                    AnomalyKind::ClusterMismatch {
                        predicted,
                        distance,
                        ..
                    },
            } => (predicted, distance),
            Verdict::Anomaly {
                kind:
                    AnomalyKind::ThresholdExceeded {
                        cluster, distance, ..
                    },
            } => (cluster, distance),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!((cluster, scored.to_bits()), (nearest, distance.to_bits()));
        assert_eq!(
            format!(
                "{:?}",
                detector.classify_parts(probe.sa, probe.edge_set.samples())
            ),
            format!("{verdict:?}")
        );
    }
}
