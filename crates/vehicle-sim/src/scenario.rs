//! Environmental experiment scenarios (thesis §4.4).
//!
//! * [`temperature_sweep`] — the §4.4.1 procedure: let the vehicle idle
//!   (battery held at 13.60 V by the alternator) while the ECM warms from
//!   −5 °C to 25 °C, capturing traffic in 5 °C bins.
//! * [`power_event_trials`] — the §4.4.2 procedure: in accessory mode
//!   (12.61 V battery, stable ~28.4 °C), cycle the interior/exterior
//!   lights, the A/C, and both together, capturing each event.
//! * [`chaos_faulted_capture`] / [`chaos_brownout_capture`] /
//!   [`chaos_stream`] — seeded capture-fault scenarios (dropouts, stuck
//!   ADC codes, noise bursts, supply brownouts) for exercising the IDS
//!   pipeline's degraded-mode and self-healing paths. Everything is
//!   reproducible from one `u64` seed.

use crate::{Capture, CaptureConfig, EcuSpec, MessageSchedule, Vehicle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vprofile_analog::{
    AdcConfig, Environment, Fault, FaultInjector, PowerEvent, PowerState, TransceiverModel,
};

/// A temperature bin with its capture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemperatureCapture {
    /// Lower edge of the 5 °C bin.
    pub bin_lo_c: f64,
    /// Upper edge of the bin.
    pub bin_hi_c: f64,
    /// Traffic captured while ECU temperatures sat inside the bin.
    pub capture: Capture,
}

/// The thesis' 5 °C temperature bins from −5 °C to 25 °C.
pub fn five_degree_bins() -> Vec<(f64, f64)> {
    (0..6)
        .map(|k| (-5.0 + 5.0 * k as f64, 5.0 * k as f64))
        .collect()
}

/// Runs the §4.4.1 temperature experiment: one capture per bin, at the bin
/// midpoint, with the engine idling.
///
/// # Errors
///
/// Propagates capture failures.
pub fn temperature_sweep(
    vehicle: &Vehicle,
    bins: &[(f64, f64)],
    frames_per_bin: usize,
    seed: u64,
) -> Result<Vec<TemperatureCapture>, vprofile::VProfileError> {
    let mut out = Vec::with_capacity(bins.len());
    for (k, &(lo, hi)) in bins.iter().enumerate() {
        let env = Environment::idling_at((lo + hi) / 2.0);
        let config = CaptureConfig::default()
            .with_frames(frames_per_bin)
            .with_seed(seed.wrapping_add(k as u64 * 0x9E37_79B9))
            .with_env(env);
        out.push(TemperatureCapture {
            bin_lo_c: lo,
            bin_hi_c: hi,
            capture: vehicle.capture(&config)?,
        });
    }
    Ok(out)
}

/// Records one continuous capture while the vehicle warms from `t0_c` to
/// `t1_c` — a cold start followed by a drive, with the temperature ramping
/// *within* the session rather than between binned sessions. This is the
/// workload the §5.3 online update is designed for: the model must track a
/// moving bus.
///
/// # Errors
///
/// Propagates capture failures.
pub fn warmup_drive(
    vehicle: &Vehicle,
    frames: usize,
    t0_c: f64,
    t1_c: f64,
    seed: u64,
) -> Result<Capture, vprofile::VProfileError> {
    let config = CaptureConfig::default().with_frames(frames).with_seed(seed);
    // Estimate the session length from the vehicle's aggregate message
    // rate so the ramp spans the whole capture.
    let rate_per_s: f64 = vehicle
        .ecus()
        .iter()
        .flat_map(|e| &e.schedules)
        .map(|s| 1000.0 / s.period_ms)
        .sum();
    let duration_s = frames as f64 / rate_per_s * 1.2 + 0.02;
    Ok(Capture::record_with_env(vehicle, &config, |t_s| {
        let progress = (t_s / duration_s).clamp(0.0, 1.0);
        Environment::idling_at(t0_c + (t1_c - t0_c) * progress)
    }))
}

/// Builds a synthetic high-rate fleet for pipeline throughput and
/// concurrency stress runs: `ecus` single-schedule ECUs (one SA each,
/// starting at 0x10) transmitting proprietary-B messages on staggered
/// 12–26 ms periods. At eight ECUs that is roughly 1 000 frames/s on the
/// 250 kb/s bus — about 60 % load, dense enough to stress a multi-worker
/// pipeline without arbitration backlog distorting the schedule.
///
/// Transceiver spreads sit between the two thesis vehicles so clusters stay
/// separable at vehicle-B capture resolution.
///
/// # Panics
///
/// Panics if `ecus` is 0 or exceeds 32 (the SA block reserved here).
pub fn stress_fleet(ecus: usize, seed: u64) -> Vehicle {
    assert!(ecus > 0, "fleet needs at least one ECU");
    assert!(ecus <= 32, "SA block 0x10..0x30 allows at most 32 ECUs");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57E55);
    let specs = (0..ecus)
        .map(|i| {
            let sa = 0x10 + i as u8;
            let pgn = 0xFF00 + i as u32; // proprietary-B range
            let period_ms = 12.0 + (i % 8) as f64 * 2.0;
            let tx =
                TransceiverModel::sample_with_spreads(&mut rng, 0.85, 0.75).with_thermal_gain(1.0);
            EcuSpec::new(
                format!("Stress node {i:02}"),
                tx,
                vec![MessageSchedule::new(sa, 3, pgn, period_ms, 8)],
            )
        })
        .collect();
    Vehicle::new(
        format!("Stress fleet ({ecus} ECUs)"),
        250_000,
        AdcConfig::vehicle_b(),
        specs,
    )
}

/// One power-event capture within one trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerEventCapture {
    /// Trial number (the thesis runs five trials).
    pub trial: usize,
    /// The active high-power function.
    pub event: PowerEvent,
    /// Traffic captured during the event.
    pub capture: Capture,
}

/// Runs the §4.4.2 battery-voltage experiment: `trials` passes over every
/// [`PowerEvent`] in accessory mode.
///
/// Later trials run at a slightly higher bus temperature — the drift the
/// thesis observes across its five trials and attributes to wiring warming
/// up (Figure 4.8).
///
/// # Errors
///
/// Propagates capture failures.
pub fn power_event_trials(
    vehicle: &Vehicle,
    trials: usize,
    frames_per_event: usize,
    seed: u64,
) -> Result<Vec<PowerEventCapture>, vprofile::VProfileError> {
    let mut out = Vec::with_capacity(trials * PowerEvent::ALL.len());
    for trial in 0..trials {
        for (e, &event) in PowerEvent::ALL.iter().enumerate() {
            let mut env = Environment::accessory(event);
            // Slow bus warm-up across trials (≈ +2 °C per trial), the drift
            // the thesis attributes to wiring heating up (Figure 4.8).
            env.temperature_c += trial as f64 * 2.0;
            // Battery sag within a trial (§4.4.2: 12.61 V before, 12.54 V
            // after): events later in the trial see a slightly lower rail.
            env.battery_v -= 0.07 * e as f64 / (PowerEvent::ALL.len() - 1) as f64;
            let config = CaptureConfig::default()
                .with_frames(frames_per_event)
                .with_seed(seed.wrapping_add((trial * 31 + e) as u64 * 0x6C8E_9CF5))
                .with_env(env);
            out.push(PowerEventCapture {
                trial,
                event,
                capture: vehicle.capture(&config)?,
            });
        }
    }
    Ok(out)
}

/// Re-captures every frame of `capture` through a seeded [`FaultInjector`]
/// carrying `faults`. The injection is deterministic: the same capture,
/// seed and fault list always produce the same corrupted capture.
pub fn chaos_inject(capture: &Capture, seed: u64, faults: &[Fault]) -> Capture {
    let mut injector = faults.iter().fold(
        FaultInjector::new(seed, *capture.adc()),
        |injector, &fault| injector.with(fault),
    );
    let frames = capture
        .frames()
        .iter()
        .map(|cf| {
            let mut cf = cf.clone();
            cf.trace = injector.apply_trace(&cf.trace);
            cf
        })
        .collect();
    Capture::from_frames(
        format!("{} (chaos)", capture.vehicle_name()),
        capture.bit_rate_bps(),
        *capture.adc(),
        *capture.env(),
        frames,
    )
}

/// Records a clean capture of `vehicle` and runs it through
/// [`chaos_inject`]: the fault-free traffic schedule stays identical to a
/// plain `vehicle.capture(..)` with the same seed, so a test can diff the
/// corrupted run against its clean twin frame for frame.
///
/// # Errors
///
/// Propagates capture failures.
pub fn chaos_faulted_capture(
    vehicle: &Vehicle,
    frames: usize,
    seed: u64,
    faults: &[Fault],
) -> Result<Capture, vprofile::VProfileError> {
    let capture = vehicle.capture(&CaptureConfig::default().with_frames(frames).with_seed(seed))?;
    Ok(chaos_inject(&capture, seed, faults))
}

/// Records a capture through a supply-brownout event: the physical rail
/// follows `power` (the transceiver sees the sagging battery), and frames
/// transmitted while the rail is down are additionally collapsed in the
/// code domain ([`Fault::Brownout`], modelling the rail falling below the
/// transceiver's regulated operating range, which the small linear
/// `supply_level_coeff` transfer cannot represent) plus any `extra` faults
/// (e.g. impulse noise from a failing regulator). Frames outside the
/// brownout window are untouched, so the capture re-converges to clean
/// traffic after the event.
///
/// # Errors
///
/// Propagates capture failures.
pub fn chaos_brownout_capture(
    vehicle: &Vehicle,
    frames: usize,
    seed: u64,
    power: &PowerState,
    extra: &[Fault],
) -> Result<Capture, vprofile::VProfileError> {
    let nominal = Environment::ENGINE_RUNNING_V;
    let config = CaptureConfig::default().with_frames(frames).with_seed(seed);
    let capture = Capture::record_with_env(vehicle, &config, |t_s| {
        let mut env = Environment::idling_at(21.0);
        env.battery_v = power.battery_v_at(nominal, t_s);
        env
    });
    let bit_rate = capture.bit_rate_bps();
    let mut injector = FaultInjector::new(seed, *capture.adc());
    let frames = capture
        .frames()
        .iter()
        .map(|cf| {
            let t_s = cf.start_bit_time as f64 / f64::from(bit_rate);
            let sag = power.sag_fraction_at(nominal, t_s);
            let mut cf = cf.clone();
            if sag > 0.0 {
                cf.trace = injector.apply_fault_trace(&cf.trace, Fault::Brownout { sag });
                for &fault in extra {
                    cf.trace = injector.apply_fault_trace(&cf.trace, fault);
                }
            }
            cf
        })
        .collect();
    Ok(Capture::from_frames(
        format!("{} (chaos brownout)", capture.vehicle_name()),
        bit_rate,
        *capture.adc(),
        *capture.env(),
        frames,
    ))
}

/// Concatenates a capture's traces into one raw sample stream and corrupts
/// it with stream-level faults (including [`Fault::NonFinite`], which only
/// exists in the sample domain) — the shape the IDS pipeline's `feed`
/// consumes.
pub fn chaos_stream(capture: &Capture, seed: u64, faults: &[Fault]) -> Vec<f64> {
    let mut samples = Vec::with_capacity(capture.frames().iter().map(|f| f.trace.len()).sum());
    for frame in capture.frames() {
        frame.trace.extend_f64_into(&mut samples);
    }
    let mut injector = faults.iter().fold(
        FaultInjector::new(seed, *capture.adc()),
        |injector, &fault| injector.with(fault),
    );
    injector.apply_stream(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_cover_minus5_to_25() {
        let bins = five_degree_bins();
        assert_eq!(bins.len(), 6);
        assert_eq!(bins[0], (-5.0, 0.0));
        assert_eq!(bins[5], (20.0, 25.0));
    }

    #[test]
    fn temperature_sweep_produces_one_capture_per_bin() {
        let vehicle = Vehicle::vehicle_b(1);
        let bins = [(-5.0, 0.0), (20.0, 25.0)];
        let sweep = temperature_sweep(&vehicle, &bins, 12, 5).unwrap();
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep[0].capture.len(), 12);
        assert_eq!(
            sweep[0].capture.env().temperature_c.to_bits(),
            (-2.5_f64).to_bits()
        );
        assert_eq!(
            sweep[1].capture.env().temperature_c.to_bits(),
            22.5_f64.to_bits()
        );
        assert_eq!(
            sweep[1].capture.env().battery_v.to_bits(),
            Environment::ENGINE_RUNNING_V.to_bits()
        );
    }

    #[test]
    fn power_trials_cover_every_event() {
        let vehicle = Vehicle::vehicle_b(2);
        let trials = power_event_trials(&vehicle, 2, 8, 3).unwrap();
        assert_eq!(trials.len(), 2 * PowerEvent::ALL.len());
        for t in &trials {
            assert_eq!(t.capture.len(), 8);
            assert!(t.capture.env().battery_v < Environment::ENGINE_RUNNING_V);
        }
        // Later trials are warmer.
        let first = trials.first().unwrap();
        let last = trials.last().unwrap();
        assert!(last.capture.env().temperature_c > first.capture.env().temperature_c);
    }

    #[test]
    fn warmup_drive_ramps_within_the_session() {
        // Vehicle A's ECM carries a strong thermal gain, so a −5 °C → 25 °C
        // ramp sags its dominant level by ≈ 100 16-bit codes — well above
        // the per-frame noise when averaged over a few frames.
        let vehicle = Vehicle::vehicle_a(9);
        let capture = warmup_drive(&vehicle, 120, -5.0, 25.0, 9).unwrap();
        assert_eq!(capture.len(), 120);
        // The recorded session env is the starting point of the ramp.
        assert_eq!(capture.env().temperature_c.to_bits(), (-5.0_f64).to_bits());
        let ecm_frames: Vec<_> = capture
            .frames()
            .iter()
            .filter(|f| f.true_ecu == 0)
            .collect();
        assert!(ecm_frames.len() >= 10);
        let dominant_mean = |f: &crate::CapturedFrame| {
            let codes = f.trace.codes();
            let max = *codes.iter().max().unwrap() as f64;
            let high: Vec<f64> = codes
                .iter()
                .map(|&c| c as f64)
                .filter(|&c| c > max * 0.95)
                .collect();
            high.iter().sum::<f64>() / high.len() as f64
        };
        let head = &ecm_frames[..4];
        let tail = &ecm_frames[ecm_frames.len() - 4..];
        let early: f64 = head.iter().map(|f| dominant_mean(f)).sum::<f64>() / 4.0;
        let late: f64 = tail.iter().map(|f| dominant_mean(f)).sum::<f64>() / 4.0;
        assert!(
            late < early - 20.0,
            "dominant level should sag measurably: {early} -> {late}"
        );
    }

    #[test]
    fn stress_fleet_builds_and_captures() {
        let vehicle = stress_fleet(8, 42);
        assert_eq!(vehicle.ecu_count(), 8);
        assert_eq!(vehicle.sa_lut().len(), 8);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(64).with_seed(42))
            .unwrap();
        assert_eq!(capture.len(), 64);
        // Deterministic per seed.
        let again = stress_fleet(8, 42)
            .capture(&CaptureConfig::default().with_frames(64).with_seed(42))
            .unwrap();
        assert_eq!(capture, again);
    }

    #[test]
    #[should_panic(expected = "at least one ECU")]
    fn stress_fleet_rejects_zero_ecus() {
        let _ = stress_fleet(0, 1);
    }

    #[test]
    fn scenarios_are_deterministic() {
        let vehicle = Vehicle::vehicle_b(4);
        let a = temperature_sweep(&vehicle, &[(-5.0, 0.0)], 6, 11).unwrap();
        let b = temperature_sweep(&vehicle, &[(-5.0, 0.0)], 6, 11).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn chaos_capture_is_seed_deterministic_and_corrupting() {
        let vehicle = stress_fleet(4, 7);
        let faults = [Fault::Dropout {
            prob: 0.01,
            max_gap: 4,
        }];
        let a = chaos_faulted_capture(&vehicle, 16, 7, &faults).unwrap();
        let b = chaos_faulted_capture(&vehicle, 16, 7, &faults).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same corruption");
        let clean = vehicle
            .capture(&CaptureConfig::default().with_frames(16).with_seed(7))
            .unwrap();
        assert_eq!(a.len(), clean.len(), "corruption never loses frames");
        assert_ne!(
            a.frames()[0].trace,
            clean.frames()[0].trace,
            "1% dropout must actually corrupt traces"
        );
        let other = chaos_faulted_capture(&vehicle, 16, 8, &faults).unwrap();
        assert_ne!(a.frames()[0].trace, other.frames()[0].trace);
    }

    #[test]
    fn chaos_brownout_corrupts_only_the_event_window() {
        let vehicle = stress_fleet(4, 9);
        // Sag deep enough to pull the dominant level under the framing
        // threshold (full-scale/2) for the middle of the session.
        let power = PowerState::Brownout {
            start_s: 0.02,
            ramp_s: 0.01,
            hold_s: 0.05,
            depth_v: 0.6 * Environment::ENGINE_RUNNING_V,
        };
        let capture = chaos_brownout_capture(&vehicle, 48, 9, &power, &[]).unwrap();
        let clean = vehicle
            .capture(&CaptureConfig::default().with_frames(48).with_seed(9))
            .unwrap();
        assert_eq!(capture.len(), clean.len());
        let bit_rate = f64::from(capture.bit_rate_bps());
        let mut touched = 0usize;
        for (chaotic, reference) in capture.frames().iter().zip(clean.frames()) {
            let t_s = chaotic.start_bit_time as f64 / bit_rate;
            let nominal = Environment::ENGINE_RUNNING_V;
            if power.sag_fraction_at(nominal, t_s) > 0.0 {
                touched += 1;
                let chaotic_max = chaotic.trace.codes().iter().max().copied().unwrap();
                let clean_max = reference.trace.codes().iter().max().copied().unwrap();
                assert!(
                    chaotic_max < clean_max,
                    "brownout must collapse the dominant level: {chaotic_max} vs {clean_max}"
                );
            }
        }
        assert!(touched > 0, "brownout window must cover some frames");
        assert!(
            touched < capture.len(),
            "brownout must not cover the whole session"
        );
    }

    #[test]
    fn chaos_stream_matches_clean_concatenation_without_faults() {
        let vehicle = stress_fleet(2, 11);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(8).with_seed(11))
            .unwrap();
        let stream = chaos_stream(&capture, 11, &[]);
        let mut clean = Vec::new();
        for frame in capture.frames() {
            clean.extend(frame.trace.to_f64());
        }
        assert_eq!(stream, clean, "no faults → identity transform");
        let corrupted = chaos_stream(&capture, 11, &[Fault::NonFinite { prob: 0.01 }]);
        assert_eq!(corrupted.len(), clean.len());
        assert!(
            corrupted.iter().any(|s| !s.is_finite()),
            "NonFinite fault must inject non-finite samples"
        );
    }
}
