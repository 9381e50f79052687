//! Hot-path microbenchmarks: the per-frame costs behind the pipeline's
//! frames/sec number, measured in isolation so a regression is
//! attributable to a single kernel.
//!
//! * `extract` — Algorithm 1 (SOF walk, resync, stuff-skip, edge capture)
//!   into a reused [`vprofile::ScratchArena`];
//! * `score/single_frame` — the model's seeded nearest-cluster scan plus
//!   verdict for one already-extracted edge set;
//! * `score/fleet32_accepted` and `score/fleet32_mismatch` — the same on
//!   the 32-ECU stress fleet (`K = 32`, `d = 32`): a legitimate frame the
//!   seeded scan accepts after a few rows per rival cluster, and a mimicry
//!   frame that ends in `ClusterMismatch`;
//! * `score/process_window` — the full engine hot path (extract + score)
//!   for one framed window;
//! * `score/batched_64` — the flat [`SampleBatch`] Mahalanobis kernel of
//!   the model's stacked rows over 64 frames at once;
//! * `matmul` — the cache-blocked `mul_add` matrix kernel the scoring
//!   factors are built with;
//! * `gap_skip` — the block (8-lane) dominant-sample scans behind the
//!   splitter's idle-gap skip, benchmarked against their scalar twins on
//!   the same inputs so the speedup (and any regression to parity) is
//!   measured, not assumed;
//! * `update` — the §5.3 model write path on the 8-ECU stress fleet
//!   (`d = 32`): `cholesky` (one cluster covariance, fresh output) and
//!   `inverse_factor` (its inverse factor into a reused block), the two
//!   triangular kernels of a refit, and `absorb_16_apply_refresh`, sixteen
//!   backend absorptions touching all eight clusters, which apply one
//!   batch and refresh the model's scoring rows in place.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use vprofile::{
    AnomalyKind, Detector, EdgeSetExtractor, LabeledEdgeSet, Model, ScratchArena, Trainer,
    VProfileConfig, Verdict,
};
use vprofile_analog::FrameSynthesizer;
use vprofile_can::{SourceAddress, WireFrame};
use vprofile_ids::{DetectionBackend, IdsEngine, UpdatePolicy, VProfileBackend};
use vprofile_sigstat::{Matrix, SampleBatch};
use vprofile_vehicle::adversary::{mimicry_attacker, AdversaryPlan};
use vprofile_vehicle::scenario::stress_fleet;
use vprofile_vehicle::{CaptureConfig, Vehicle};

/// Trained setup shared by the extraction and scoring benches.
#[allow(clippy::type_complexity)]
fn trained() -> (
    vprofile::Model,
    EdgeSetExtractor,
    Vec<f64>, // one framed window (with lead-in idle)
) {
    let vehicle = Vehicle::vehicle_b(23);
    let capture = vehicle
        .capture(&CaptureConfig::default().with_frames(400).with_seed(23))
        .expect("capture");
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extractor = EdgeSetExtractor::new(config.clone());
    let extracted = capture.extract(&extractor);
    let model = Trainer::new(config)
        .train_with_lut(&extracted.labeled(), &vehicle.sa_lut())
        .expect("training");
    let window = capture.frames()[0].trace.to_f64();
    (model, extractor, window)
}

/// The 32-ECU stress fleet (seed 11) with one legitimate edge set the
/// model accepts and one mimicry edge set (a foreign device re-sending a
/// replayed frame) it flags as `ClusterMismatch`.
#[allow(clippy::type_complexity)]
fn fleet32() -> (Model, (SourceAddress, Vec<f64>), (SourceAddress, Vec<f64>)) {
    let vehicle = stress_fleet(32, 11);
    let training = vehicle
        .capture(&CaptureConfig::default().with_frames(32 * 200).with_seed(11))
        .expect("capture");
    let config = VProfileConfig::for_adc(training.adc(), training.bit_rate_bps());
    let extractor = EdgeSetExtractor::new(config.clone());
    let model = Trainer::new(config)
        .train_with_lut(&training.extract(&extractor).labeled(), &vehicle.sa_lut())
        .expect("training");
    let detector = Detector::with_margin(&model, 2.0);
    let replay = vehicle
        .capture(&CaptureConfig::default().with_frames(64).with_seed(12))
        .expect("replay");
    let synth = FrameSynthesizer::new(replay.bit_rate_bps(), *replay.adc());
    let mut accepted = None;
    let mut mimicry = None;
    for (k, cf) in replay.frames().iter().enumerate() {
        let Ok(obs) = extractor.extract(&cf.trace.to_f64()) else {
            continue;
        };
        if accepted.is_none() && !detector.classify(&obs).is_anomaly() {
            accepted = Some((obs.sa, obs.edge_set.samples().to_vec()));
        }
        let plan = AdversaryPlan::new(cf.true_ecu, 0.0, 11);
        let attacker = mimicry_attacker(&vehicle, &plan).expect("attacker");
        let mut rng = StdRng::seed_from_u64(11 ^ ((k as u64) << 20));
        let wire = WireFrame::encode(&cf.frame);
        let trace = synth.synthesize(wire.bits(), &attacker, replay.env(), &mut rng);
        if let Ok(forged) = extractor.extract(&trace.to_f64()) {
            if mimicry.is_none()
                && matches!(
                    detector.classify(&forged),
                    Verdict::Anomaly {
                        kind: AnomalyKind::ClusterMismatch { .. }
                    }
                )
            {
                mimicry = Some((forged.sa, forged.edge_set.samples().to_vec()));
            }
        }
        if accepted.is_some() && mimicry.is_some() {
            break;
        }
    }
    (
        model,
        accepted.expect("a replayed frame is accepted"),
        mimicry.expect("a mimicry frame is a cluster mismatch"),
    )
}

fn bench_extract(c: &mut Criterion) {
    let (_, extractor, window) = trained();
    let mut scratch = ScratchArena::new();
    // Warm the arena so the measured iterations are allocation-free.
    extractor
        .extract_into(&window, &mut scratch)
        .expect("extract");
    c.bench_function("extract", |b| {
        b.iter(|| {
            extractor
                .extract_into(black_box(&window), &mut scratch)
                .expect("extract")
        })
    });
}

fn bench_score(c: &mut Criterion) {
    let (model, extractor, window) = trained();
    let mut scratch = ScratchArena::new();
    let sa = extractor
        .extract_into(&window, &mut scratch)
        .expect("extract");
    let edge_set = scratch.edge_set.clone();
    let detector = Detector::with_margin(&model, 2.0);

    let mut group = c.benchmark_group("score");
    group.bench_function("single_frame", |b| {
        b.iter(|| detector.classify_parts(sa, black_box(&edge_set)))
    });

    let (fleet, accepted, mimicry) = fleet32();
    let fleet_detector = Detector::with_margin(&fleet, 2.0);
    for (name, (sa, x)) in [
        ("fleet32_accepted", &accepted),
        ("fleet32_mismatch", &mimicry),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| fleet_detector.classify_parts(*sa, black_box(x)))
        });
    }

    let mut engine = IdsEngine::new(model.clone(), 2.0, UpdatePolicy::disabled());
    engine.process_window(0, &window); // warm scratch
    group.bench_function("process_window", |b| {
        b.iter(|| engine.process_window(0, black_box(&window)))
    });

    // Batched kernel: 64 jittered copies of the real edge set.
    let mut rng = StdRng::seed_from_u64(29);
    let mut batch = SampleBatch::new(edge_set.len());
    let mut probe = vec![0.0; edge_set.len()];
    for _ in 0..64 {
        for (p, &e) in probe.iter_mut().zip(&edge_set) {
            *p = e + rng.random_range(-0.5..0.5);
        }
        batch.push_row(&probe).expect("dims match");
    }
    if let Some(batched) = model.scoring_rows() {
        let mut out = SampleBatch::with_capacity(batched.cluster_count(), batch.rows());
        group.bench_function("batched_64", |b| {
            b.iter(|| {
                batched
                    .distances_batch_into(black_box(&batch), &mut out)
                    .expect("dims match")
            })
        });
    }
    group.finish();
}

fn bench_router(c: &mut Criterion) {
    let (model, extractor, window) = trained();
    let config = model.config();
    let mut group = c.benchmark_group("router");
    group.bench_function("peek_sa", |b| {
        b.iter(|| extractor.peek_sa(black_box(&window)).expect("peek"))
    });
    // Per-frame framing cost: push a 64-frame stream through per iteration.
    let mut stream = Vec::new();
    for _ in 0..64 {
        stream.extend_from_slice(&window);
    }
    let mut framer =
        vprofile_ids::StreamFramer::new(config.bit_width_samples, config.bit_threshold);
    group.bench_function("framer_push_64_frames", |b| {
        b.iter(|| black_box(framer.push(black_box(&stream))).len())
    });
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(31);
    let mut group = c.benchmark_group("matmul");
    for n in [16usize, 64] {
        let a = Matrix::from_row_major(
            n,
            n,
            (0..n * n).map(|_| rng.random_range(-1.0..1.0)).collect(),
        )
        .expect("square");
        let b_m = Matrix::from_row_major(
            n,
            n,
            (0..n * n).map(|_| rng.random_range(-1.0..1.0)).collect(),
        )
        .expect("square");
        let mut out = Matrix::zeros(n, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| a.mul_into(black_box(&b_m), &mut out).expect("dims match"))
        });
    }
    group.finish();
}

fn bench_gap_skip(c: &mut Criterion) {
    use vprofile_ids::scan;
    let mut rng = StdRng::seed_from_u64(37);
    let mut group = c.benchmark_group("gap_skip");
    for gap in [256usize, 4096] {
        // An idle gap of recessive noise with a single dominant edge at
        // the far end: the exact shape the splitter's SOF search (find)
        // and close probe (rfind) burn their cycles on.
        let mut fwd: Vec<f64> = (0..gap).map(|_| rng.random_range(80.0..120.0)).collect();
        fwd.push(3000.0);
        let mut rev = vec![3000.0];
        rev.extend((0..gap).map(|_| rng.random_range(80.0..120.0)));
        group.bench_with_input(BenchmarkId::new("find_block", gap), &gap, |b, _| {
            b.iter(|| scan::find_dominant(black_box(&fwd), 1500.0))
        });
        group.bench_with_input(BenchmarkId::new("find_scalar", gap), &gap, |b, _| {
            b.iter(|| scan::find_dominant_scalar(black_box(&fwd), 1500.0))
        });
        group.bench_with_input(BenchmarkId::new("rfind_block", gap), &gap, |b, _| {
            b.iter(|| scan::rfind_dominant(black_box(&rev), 1500.0))
        });
        group.bench_with_input(BenchmarkId::new("rfind_scalar", gap), &gap, |b, _| {
            b.iter(|| scan::rfind_dominant_scalar(black_box(&rev), 1500.0))
        });
    }
    group.finish();
}

fn bench_update(c: &mut Criterion) {
    let vehicle = stress_fleet(8, 11);
    let capture = vehicle
        .capture(&CaptureConfig::default().with_frames(800).with_seed(11))
        .expect("capture");
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
    let labeled = extracted.labeled();
    let model = Trainer::new(config)
        .train_with_lut(&labeled, &vehicle.sa_lut())
        .expect("training");
    let gaussian = model.clusters()[0].gaussian().expect("Mahalanobis model");
    let chol = gaussian.cholesky();
    let d = chol.dim();

    let mut group = c.benchmark_group("update");
    group.bench_with_input(BenchmarkId::new("cholesky", d), &d, |b, _| {
        b.iter(|| black_box(gaussian.covariance()).cholesky().expect("SPD"))
    });
    let mut w = vec![0.0; d * d];
    group.bench_with_input(BenchmarkId::new("inverse_factor", d), &d, |b, _| {
        b.iter(|| black_box(chol).inverse_factor_into(&mut w).expect("n x n"))
    });

    // Two observations of every cluster, so the batch touches all eight.
    let mut batch: Vec<&LabeledEdgeSet> = Vec::new();
    for cluster in model.clusters() {
        let sa = cluster.sas()[0];
        batch.extend(labeled.iter().filter(|o| o.sa == sa).take(2));
    }
    assert_eq!(
        batch.len(),
        16,
        "every stress-fleet ECU has training frames"
    );
    let mut backend = VProfileBackend::new(model, 2.0);
    group.bench_function("absorb_16_apply_refresh", |b| {
        b.iter(|| {
            for obs in &batch {
                backend.absorb(obs.sa, black_box(obs.edge_set.samples()));
            }
        })
    });
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(50)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_extract, bench_score, bench_router, bench_matmul, bench_gap_skip, bench_update
}
criterion_main!(benches);
