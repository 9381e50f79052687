//! Reproduction of the thesis' figures as data series (CSV-ready).

use crate::{ExperimentFixture, Series, VehicleKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vprofile::{ClusterId, EdgeSetExtractor, LabeledEdgeSet, Trainer, VProfileError};
use vprofile_analog::{AdcConfig, Environment, FrameSynthesizer, PowerEvent, TransceiverModel};
use vprofile_can::arbitration::{arbitrate, arbitration_bits};
use vprofile_can::ExtendedId;
use vprofile_sigstat::{confidence_interval, percent_delta, DistanceMetric};
use vprofile_vehicle::scenario::{five_degree_bins, power_event_trials, temperature_sweep};
use vprofile_vehicle::Vehicle;

/// Figure 2.1: CAN differential signalling — CAN_H, CAN_L, and the
/// differential voltage for a short bit pattern, in volts over µs.
pub fn fig_2_1(seed: u64) -> Vec<Series> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tx = TransceiverModel::sample_new(&mut rng);
    tx.noise_sigma_v = 0.0; // textbook figure: noiseless
    tx.edge_jitter_s = 0.0;
    let synth = FrameSynthesizer::new(250_000, AdcConfig::vehicle_a()).with_idle_bits(1, 1);
    // Pattern from the figure: recessive, dominant, recessive, ...
    let bits = [true, false, false, true, false, true, true, false];
    let trace = synth.synthesize(&bits, &tx, &Environment::default(), &mut rng);
    let dt_us = 1e6 / trace.adc().sample_rate_hz;
    let volts = trace.to_volts();
    let mut canh = Vec::with_capacity(volts.len());
    let mut canl = Vec::with_capacity(volts.len());
    let mut diff = Vec::with_capacity(volts.len());
    for (k, &v) in volts.iter().enumerate() {
        let t = k as f64 * dt_us;
        // Split the differential voltage symmetrically around the 2.5 V
        // common mode (thesis Figure 2.1).
        canh.push((t, 2.5 + v / 2.0));
        canl.push((t, 2.5 - v / 2.0));
        diff.push((t, v));
    }
    vec![
        Series::new("CAN_H", canh),
        Series::new("CAN_L", canl),
        Series::new("differential", diff),
    ]
}

/// Figure 2.3: bitwise arbitration where ECU 1 loses to ECU 0 during bit 7.
/// Each series holds the logical level (1 = recessive) each party drives
/// per bit index; ECU 1's series stops at its drop-out point.
pub fn fig_2_3() -> Vec<Series> {
    // Base identifiers agreeing until base bit 6 (wire bit 7).
    let ecu0 = ExtendedId::new_truncated((0b10101_000101 << 18) | 0x2AAAA);
    let ecu1 = ExtendedId::new_truncated((0b10101_010101 << 18) | 0x2AAAA);
    let outcome = arbitrate(&[ecu0, ecu1]);
    debug_assert_eq!(outcome.winner, 0);
    let Some(lost_at) = outcome.lost_at_bit[1] else {
        // Unreachable: ECU 1 deterministically loses at bit 7 (the test
        // `fig_2_3_ecu1_drops_at_bit_7` pins this down).
        return Vec::new();
    };
    let to_points = |bits: &[bool], until: usize| -> Vec<(f64, f64)> {
        bits.iter()
            .take(until)
            .enumerate()
            .map(|(i, &b)| (i as f64, if b { 1.0 } else { 0.0 }))
            .collect()
    };
    let bits0 = arbitration_bits(ecu0);
    let bits1 = arbitration_bits(ecu1);
    vec![
        Series::new("ECU 0", to_points(&bits0, 12)),
        Series::new("ECU 1 (loses)", to_points(&bits1, lost_at + 1)),
        Series::new("bus", to_points(&outcome.bus_bits, 12)),
    ]
}

/// Figure 2.5: overlay of edge sets from two ECUs (200 traces each),
/// showing per-device clustering. Emits one series per trace plus the two
/// cluster means.
///
/// # Errors
///
/// Propagates capture failures.
pub fn fig_2_5(traces_per_ecu: usize, seed: u64) -> Result<Vec<Series>, VProfileError> {
    let fixture = ExperimentFixture::prepare(
        VehicleKind::A,
        DistanceMetric::Mahalanobis,
        traces_per_ecu * 12,
        seed,
    )?;
    let mut series = Vec::new();
    for ecu in [0usize, 1] {
        let mut count = 0;
        let mut sum: Vec<f64> = Vec::new();
        for obs in fixture.train.iter().chain(&fixture.test) {
            if obs.true_ecu != ecu || count >= traces_per_ecu {
                continue;
            }
            let samples = obs.observation.edge_set.samples();
            if sum.is_empty() {
                sum = vec![0.0; samples.len()];
            }
            for (a, &s) in sum.iter_mut().zip(samples) {
                *a += s;
            }
            series.push(Series::new(
                format!("ecu{ecu}_trace{count}"),
                samples
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i as f64, v))
                    .collect(),
            ));
            count += 1;
        }
        if count > 0 {
            series.push(Series::new(
                format!("ecu{ecu}_mean"),
                sum.iter()
                    .enumerate()
                    .map(|(i, &v)| (i as f64, v / count as f64))
                    .collect(),
            ));
        }
    }
    Ok(series)
}

/// Figure 3.1: the effect of reducing sampling rate (a) and resolution (b)
/// on one edge set. Rate series are laterally scaled to microseconds so
/// shapes overlay; resolution series stay on the original code scale.
///
/// # Errors
///
/// Propagates capture failures.
pub fn fig_3_1(seed: u64) -> Result<Vec<Series>, VProfileError> {
    let vehicle = Vehicle::vehicle_a(seed);
    let capture = vehicle.capture(
        &vprofile_vehicle::CaptureConfig::default()
            .with_frames(1)
            .with_seed(seed),
    )?;
    let frame = &capture.frames()[0];
    let mut series = Vec::new();

    // (a) Rate reduction, laterally scaled to µs.
    for factor in [1usize, 2, 4, 8] {
        let reduced = frame
            .trace
            .downsample(factor)
            .map_err(VProfileError::from)?;
        let config = vprofile::VProfileConfig::for_adc(reduced.adc(), capture.bit_rate_bps());
        let extractor = EdgeSetExtractor::new(config);
        if let Ok(obs) = extractor.extract(&reduced.to_f64()) {
            let dt_us = 1e6 / reduced.adc().sample_rate_hz;
            series.push(Series::new(
                format!("{}MSps", 20 / factor),
                obs.observation()
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i as f64 * dt_us, v))
                    .collect(),
            ));
        }
    }

    // (b) Resolution reduction at the native rate.
    let config = vprofile::VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
    for bits in [16u32, 12, 8, 6, 4] {
        let reduced = frame.trace.requantize(bits).map_err(VProfileError::from)?;
        let extractor = EdgeSetExtractor::new(config.clone());
        if let Ok(obs) = extractor.extract(&reduced.to_f64()) {
            series.push(Series::new(
                format!("{bits}bit"),
                obs.observation()
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i as f64, v))
                    .collect(),
            ));
        }
    }
    Ok(series)
}

/// Convenience: samples of a labeled edge set.
trait ObservationSamples {
    fn observation(&self) -> &[f64];
}

impl ObservationSamples for LabeledEdgeSet {
    fn observation(&self) -> &[f64] {
        self.edge_set.samples()
    }
}

/// Figure 4.2: each Vehicle A ECU's voltage profile (mean edge set).
///
/// # Errors
///
/// Propagates capture/training failures.
pub fn fig_4_2(frames: usize, seed: u64) -> Result<Vec<Series>, VProfileError> {
    let fixture =
        ExperimentFixture::prepare(VehicleKind::A, DistanceMetric::Mahalanobis, frames, seed)?;
    let model = fixture.train_model()?;
    Ok((0..model.cluster_count())
        .map(|ecu| {
            Series::new(
                format!("ECU {ecu}"),
                model
                    .cluster(ClusterId(ecu))
                    .mean()
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i as f64, v))
                    .collect(),
            )
        })
        .collect())
}

/// Figure 4.4: standard deviation per sample index for ECU 0's edge sets —
/// large at the two edges, small in the steady states.
///
/// # Errors
///
/// Propagates capture failures.
pub fn fig_4_4(frames: usize, seed: u64) -> Result<Series, VProfileError> {
    let fixture =
        ExperimentFixture::prepare(VehicleKind::A, DistanceMetric::Mahalanobis, frames, seed)?;
    let sets: Vec<&[f64]> = fixture
        .train
        .iter()
        .chain(&fixture.test)
        .filter(|o| o.true_ecu == 0)
        .map(|o| o.observation.edge_set.samples())
        .collect();
    let dim = sets[0].len();
    let n = sets.len() as f64;
    let points = (0..dim)
        .map(|i| {
            let mean: f64 = sets.iter().map(|s| s[i]).sum::<f64>() / n;
            let var: f64 = sets
                .iter()
                .map(|s| {
                    let d = s[i] - mean;
                    d * d
                })
                .sum::<f64>()
                / (n - 1.0);
            (i as f64, var.sqrt())
        })
        .collect();
    Ok(Series::new("ECU 0 per-index std", points))
}

/// Figure 4.5: cluster means of ECUs 0 and 1 plus one test edge set from
/// ECU 0 (the probe whose distances Table 4.5 reports).
///
/// # Errors
///
/// Propagates capture/training failures.
pub fn fig_4_5(frames: usize, seed: u64) -> Result<Vec<Series>, VProfileError> {
    let fixture =
        ExperimentFixture::prepare(VehicleKind::A, DistanceMetric::Mahalanobis, frames, seed)?;
    let model = fixture.train_model()?;
    let probe =
        fixture
            .test
            .iter()
            .find(|o| o.true_ecu == 0)
            .ok_or(VProfileError::DataUnavailable {
                context: "ECU 0 traffic in the test split",
            })?;
    let to_series = |name: &str, samples: &[f64]| {
        Series::new(
            name,
            samples
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as f64, v))
                .collect(),
        )
    };
    Ok(vec![
        to_series("ECU 0 mean", model.cluster(ClusterId(0)).mean()),
        to_series("ECU 1 mean", model.cluster(ClusterId(1)).mean()),
        to_series(
            "test edge set (ECU 0)",
            probe.observation.edge_set.samples(),
        ),
    ])
}

/// Figure 4.6: per-ECU percent delta of mean Mahalanobis distance (with
/// 99 % confidence intervals) between a model trained on the −5…0 °C bin
/// and each warmer 5 °C bin.
///
/// # Errors
///
/// Propagates capture/training failures.
pub fn fig_4_6(frames_per_bin: usize, seed: u64) -> Result<Vec<Series>, VProfileError> {
    let vehicle = Vehicle::vehicle_a(seed);
    let bins = five_degree_bins();
    let sweep = temperature_sweep(&vehicle, &bins, frames_per_bin, seed)?;
    let adc = *sweep[0].capture.adc();
    let config = vprofile::VProfileConfig::for_adc(&adc, vehicle.bit_rate_bps());
    let extractor = EdgeSetExtractor::new(config.clone());
    let lut = vehicle.sa_lut();

    // Train on half the cold bin; the held-out half provides the baseline
    // distances (out-of-sample, avoiding the covariance-overfit bias that
    // would otherwise inflate every warmer bin's delta uniformly).
    let (cold_train, cold_holdout) = sweep[0].capture.extract(&extractor).split_train_test()?;
    let cold: Vec<LabeledEdgeSet> = cold_train.iter().map(|o| o.observation.clone()).collect();
    let model = Trainer::new(config).train_with_lut(&cold, &lut)?;

    let distances_of = |observations: &[vprofile_vehicle::TruthObservation]| -> Vec<Vec<f64>> {
        let mut dists = vec![Vec::new(); vehicle.ecu_count()];
        for obs in observations {
            let cluster = model.cluster(ClusterId(obs.true_ecu));
            if let Ok(d) = cluster.distance(
                obs.observation.edge_set.samples(),
                DistanceMetric::Mahalanobis,
            ) {
                dists[obs.true_ecu].push(d);
            }
        }
        dists
    };
    let per_ecu_distances = |capture: &vprofile_vehicle::Capture| -> Vec<Vec<f64>> {
        distances_of(&capture.extract(&extractor).observations)
    };
    let baseline = distances_of(&cold_holdout);
    let baseline_means: Vec<f64> = baseline
        .iter()
        .map(|d| d.iter().sum::<f64>() / d.len() as f64)
        .collect();

    let mut series: Vec<Series> = Vec::new();
    for ecu in 0..vehicle.ecu_count() {
        let mut points = Vec::new();
        let mut bars = Vec::new();
        for tc in sweep.iter().skip(1) {
            let dists = per_ecu_distances(&tc.capture);
            let ci = confidence_interval(&dists[ecu], 0.99)?;
            let mid = (tc.bin_lo_c + tc.bin_hi_c) / 2.0;
            points.push((mid, percent_delta(baseline_means[ecu], ci.mean)));
            bars.push(ci.half_width / baseline_means[ecu] * 100.0);
        }
        series.push(Series::with_error_bars(format!("ECU {ecu}"), points, bars));
    }
    Ok(series)
}

/// Figures 4.7 and 4.8: the battery-voltage experiment.
///
/// Returns `(fig_4_7, fig_4_8)`:
///
/// * Figure 4.7 — percent delta of mean Mahalanobis distance per power
///   event (x = event index in [`PowerEvent::ALL`]) relative to each
///   trial's own accessory baseline, averaged over trials, with 99 % CIs.
/// * Figure 4.8 — percent delta of the accessory-mode distance of trials
///   2…5 relative to trial 1 (x = trial number), showing the slow drift.
///
/// # Errors
///
/// Propagates capture/training failures.
pub fn fig_4_7_and_4_8(
    trials: usize,
    frames_per_event: usize,
    seed: u64,
) -> Result<(Vec<Series>, Vec<Series>), VProfileError> {
    let vehicle = Vehicle::vehicle_a(seed);
    let all = power_event_trials(&vehicle, trials, frames_per_event, seed)?;
    let adc = *all[0].capture.adc();
    let config = vprofile::VProfileConfig::for_adc(&adc, vehicle.bit_rate_bps());
    let extractor = EdgeSetExtractor::new(config.clone());
    let lut = vehicle.sa_lut();

    // Mean distance (over all ECUs' own clusters) of a capture to a model.
    let mean_distance =
        |model: &vprofile::Model, capture: &vprofile_vehicle::Capture| -> Vec<f64> {
            capture
                .extract(&extractor)
                .observations
                .iter()
                .filter_map(|obs| {
                    model
                        .cluster(ClusterId(obs.true_ecu))
                        .distance(
                            obs.observation.edge_set.samples(),
                            DistanceMetric::Mahalanobis,
                        )
                        .ok()
                })
                .collect()
        };

    // Distances of held-out observations against a model.
    let holdout_mean =
        |model: &vprofile::Model, observations: &[vprofile_vehicle::TruthObservation]| -> f64 {
            let dists: Vec<f64> = observations
                .iter()
                .filter_map(|obs| {
                    model
                        .cluster(ClusterId(obs.true_ecu))
                        .distance(
                            obs.observation.edge_set.samples(),
                            DistanceMetric::Mahalanobis,
                        )
                        .ok()
                })
                .collect();
            dists.iter().sum::<f64>() / dists.len() as f64
        };

    // Figure 4.7: per-trial models trained on half of that trial's
    // baseline; the held-out half anchors the percent deltas (out of
    // sample, see `fig_4_6`).
    let mut per_event_deltas: Vec<Vec<f64>> = vec![Vec::new(); PowerEvent::ALL.len()];
    for trial in 0..trials {
        let baseline = all
            .iter()
            .find(|t| t.trial == trial && t.event == PowerEvent::Baseline)
            .ok_or(VProfileError::DataUnavailable {
                context: "baseline capture for a trial",
            })?;
        let (base_train, base_holdout) = baseline.capture.extract(&extractor).split_train_test()?;
        let training: Vec<LabeledEdgeSet> =
            base_train.iter().map(|o| o.observation.clone()).collect();
        let model = Trainer::new(config.clone()).train_with_lut(&training, &lut)?;
        let base_mean = holdout_mean(&model, &base_holdout);
        for (e, &event) in PowerEvent::ALL.iter().enumerate() {
            let tc = all
                .iter()
                .find(|t| t.trial == trial && t.event == event)
                .ok_or(VProfileError::DataUnavailable {
                    context: "power-event capture for a trial",
                })?;
            let mean = if event == PowerEvent::Baseline {
                base_mean
            } else {
                let dists = mean_distance(&model, &tc.capture);
                dists.iter().sum::<f64>() / dists.len() as f64
            };
            per_event_deltas[e].push(percent_delta(base_mean, mean));
        }
    }
    let mut fig47_points = Vec::new();
    let mut fig47_bars = Vec::new();
    for (e, deltas) in per_event_deltas.iter().enumerate() {
        if deltas.len() >= 2 {
            let ci = confidence_interval(deltas, 0.99)?;
            fig47_points.push((e as f64, ci.mean));
            fig47_bars.push(ci.half_width);
        } else {
            fig47_points.push((e as f64, deltas[0]));
            fig47_bars.push(0.0);
        }
    }
    let fig47 = vec![Series::with_error_bars(
        "mean Δ distance vs event",
        fig47_points,
        fig47_bars,
    )];

    // Figure 4.8: model from half of trial 0's baseline; its held-out half
    // anchors the drift of later trials' accessory data.
    let first_baseline = all
        .iter()
        .find(|t| t.trial == 0 && t.event == PowerEvent::Baseline)
        .ok_or(VProfileError::DataUnavailable {
            context: "trial 0 baseline capture",
        })?;
    let (base_train, base_holdout) = first_baseline
        .capture
        .extract(&extractor)
        .split_train_test()?;
    let training: Vec<LabeledEdgeSet> = base_train.iter().map(|o| o.observation.clone()).collect();
    let model = Trainer::new(config.clone()).train_with_lut(&training, &lut)?;
    let base_mean = holdout_mean(&model, &base_holdout);
    let mut fig48_points = Vec::new();
    let mut fig48_bars = Vec::new();
    for trial in 1..trials {
        let tc = all
            .iter()
            .find(|t| t.trial == trial && t.event == PowerEvent::Baseline)
            .ok_or(VProfileError::DataUnavailable {
                context: "baseline capture for a later trial",
            })?;
        let dists = mean_distance(&model, &tc.capture);
        let ci = confidence_interval(&dists, 0.99)?;
        fig48_points.push((trial as f64 + 1.0, percent_delta(base_mean, ci.mean)));
        fig48_bars.push(ci.half_width / base_mean * 100.0);
    }
    let fig48 = vec![Series::with_error_bars(
        "accessory-mode drift vs trial 1",
        fig48_points,
        fig48_bars,
    )];

    Ok((fig47, fig48))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_2_1_produces_three_aligned_series() {
        let series = fig_2_1(3);
        assert_eq!(series.len(), 3);
        let n = series[0].points.len();
        assert!(n > 100);
        for s in &series {
            assert_eq!(s.points.len(), n);
        }
        // CANH ≥ CANL up to the recessive-state undershoot (the
        // differential can ring slightly below zero after a falling edge).
        for (h, l) in series[0].points.iter().zip(&series[1].points) {
            assert!(h.1 >= l.1 - 0.25, "CANH {} vs CANL {}", h.1, l.1);
        }
    }

    #[test]
    fn fig_2_3_ecu1_drops_at_bit_7() {
        let series = fig_2_3();
        assert_eq!(series.len(), 3);
        let loser = &series[1];
        // Thesis Figure 2.3: "ECU 1 loses to ECU 0 during bit 7".
        assert_eq!(loser.points.last().unwrap().0.to_bits(), 7.0_f64.to_bits());
        // Bus equals winner on every shared bit.
        for (w, b) in series[0].points.iter().zip(&series[2].points) {
            assert_eq!(w.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn fig_4_4_shows_edge_variance_dominating() {
        // The defining shape: edge-region σ ≫ steady-state σ.
        let series = fig_4_4(240, 4).unwrap();
        let stds: Vec<f64> = series.points.iter().map(|p| p.1).collect();
        let max = stds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = stds.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            max > 4.0 * min,
            "edge σ {max} should dwarf steady-state σ {min}"
        );
    }

    #[test]
    fn fig_4_2_yields_five_distinct_profiles() {
        let series = fig_4_2(1200, 8).unwrap();
        assert_eq!(series.len(), 5);
        // Profiles differ pairwise (at least in mean level).
        for i in 0..5 {
            for j in (i + 1)..5 {
                let mi: f64 = series[i].points.iter().map(|p| p.1).sum::<f64>();
                let mj: f64 = series[j].points.iter().map(|p| p.1).sum::<f64>();
                assert!((mi - mj).abs() > 1.0, "profiles {i} and {j} identical");
            }
        }
    }
}
