use crate::Environment;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The electrical personality of one physical CAN transceiver.
///
/// "Minute inconsistencies in manufacturing introduce random physical
/// differences in each ECU that are unpredictable and uncontrollable"
/// (thesis §2.2.1). This model captures the differences that shape the
/// differential-voltage waveform vProfile fingerprints:
///
/// * steady-state dominant/recessive levels,
/// * rising/falling edge natural frequency and damping (damping < 1 gives
///   the overshoot and ringing visible in Figure 2.5),
/// * per-sample thermal noise and per-transition timing jitter,
/// * sensitivities to ECU temperature and supply voltage (§4.4).
///
/// Parameters are drawn once per device ([`TransceiverModel::sample_new`])
/// and stay fixed for its lifetime, which is exactly the "immutable ECU
/// property" the detector relies on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransceiverModel {
    /// Differential voltage in the dominant steady state, at reference
    /// temperature and supply (nominally ≈ 2.0 V: CANH 3.5 V − CANL 1.5 V).
    pub dominant_v: f64,
    /// Differential voltage in the recessive steady state (nominally 0 V).
    pub recessive_v: f64,
    /// Natural frequency of the rising (recessive→dominant) edge, rad/s.
    pub rise_omega: f64,
    /// Damping ratio of the rising edge (< 1 ⇒ overshoot and ringing).
    pub rise_zeta: f64,
    /// Natural frequency of the falling (dominant→recessive) edge, rad/s.
    pub fall_omega: f64,
    /// Damping ratio of the falling edge.
    pub fall_zeta: f64,
    /// Standard deviation of additive per-sample voltage noise, volts.
    pub noise_sigma_v: f64,
    /// Standard deviation of per-transition timing jitter, seconds.
    pub edge_jitter_s: f64,
    /// Dominant-level temperature coefficient, volts per °C.
    pub temp_level_coeff: f64,
    /// Relative edge-speed temperature coefficient, per °C (negative values
    /// slow the edges as the device heats up).
    pub temp_omega_coeff: f64,
    /// Fraction of supply-voltage deviation (from 12.6 V) transferred to the
    /// dominant level.
    pub supply_level_coeff: f64,
}

/// Manufacturing spread used by [`TransceiverModel::sample_new`]: each field
/// is drawn uniformly from `nominal ± spread`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Range {
    lo: f64,
    hi: f64,
}

impl Range {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        rng.random_range(self.lo..self.hi)
    }
}

impl TransceiverModel {
    /// Draws a fresh device from the manufacturing distribution.
    ///
    /// Devices drawn this way differ enough for their edge sets to separate
    /// cleanly — the "Vehicle A" regime of visually distinct voltage
    /// profiles (Figure 4.2).
    pub fn sample_new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::sample_with_spread(rng, 1.0)
    }

    /// Draws a device from a narrowed manufacturing distribution.
    ///
    /// `spread` scales the parameter ranges around their nominal centers:
    /// `1.0` is the full distribution; smaller values produce devices with
    /// *less distinct* profiles, which is how the reproduction realizes
    /// Vehicle B ("more ECUs with less distinct voltage profiles", §4.2.1).
    ///
    /// # Panics
    ///
    /// Panics if `spread` is not in `(0, 1]`.
    pub fn sample_with_spread<R: Rng + ?Sized>(rng: &mut R, spread: f64) -> Self {
        Self::sample_with_spreads(rng, spread, spread)
    }

    /// Draws a device with independently narrowed *level* spread
    /// (dominant/recessive steady-state voltages) and *shape* spread (edge
    /// dynamics).
    ///
    /// This split matters for reproducing the two vehicles' regimes: levels
    /// are what plain Euclidean distance separates well, while edge shapes
    /// are buried under sampling-phase variance unless the covariance
    /// structure (Mahalanobis) is used. Vehicle B narrows levels much more
    /// than shapes, which is why Euclidean collapses on it while
    /// Mahalanobis keeps working (thesis Tables 4.2 vs. 4.4).
    ///
    /// # Panics
    ///
    /// Panics if either spread is not in `(0, 1]`.
    pub fn sample_with_spreads<R: Rng + ?Sized>(
        rng: &mut R,
        level_spread: f64,
        shape_spread: f64,
    ) -> Self {
        assert!(
            level_spread > 0.0 && level_spread <= 1.0,
            "level spread must be in (0, 1]"
        );
        assert!(
            shape_spread > 0.0 && shape_spread <= 1.0,
            "shape spread must be in (0, 1]"
        );
        let level = |center: f64, half: f64| Range {
            lo: center - half * level_spread,
            hi: center + half * level_spread,
        };
        let shape = |center: f64, half: f64| Range {
            lo: center - half * shape_spread,
            hi: center + half * shape_spread,
        };
        TransceiverModel {
            dominant_v: level(2.00, 0.16).sample(rng),
            recessive_v: level(0.00, 0.040).sample(rng),
            rise_omega: shape(4.5e6, 1.5e6).sample(rng),
            rise_zeta: shape(0.72, 0.15).sample(rng),
            fall_omega: shape(4.0e6, 1.2e6).sample(rng),
            fall_zeta: shape(0.80, 0.12).sample(rng),
            noise_sigma_v: shape(0.005, 0.002).sample(rng),
            edge_jitter_s: shape(1.2e-8, 0.5e-8).sample(rng),
            temp_level_coeff: shape(-0.000020, 0.000012).sample(rng),
            temp_omega_coeff: shape(-0.00010, 0.00006).sample(rng),
            supply_level_coeff: shape(0.030, 0.015).sample(rng),
        }
    }

    /// Creates a device resembling this one, with every shape parameter
    /// perturbed by a relative Gaussian factor of `closeness` standard
    /// deviation.
    ///
    /// Used to build the "two ECUs with the most similar voltage profiles"
    /// pairing for the foreign-device imitation test (§4.1), and to model a
    /// counterfeit transceiver an attacker might select to approximate a
    /// target ECU.
    pub fn perturbed<R: Rng + ?Sized>(&self, rng: &mut R, closeness: f64) -> Self {
        let jitter = |rng: &mut R, v: f64| {
            let factor = 1.0 + crate::sample_normal(rng, 0.0, closeness);
            v * factor
        };
        TransceiverModel {
            dominant_v: jitter(rng, self.dominant_v),
            recessive_v: self.recessive_v + crate::sample_normal(rng, 0.0, closeness * 0.01),
            rise_omega: jitter(rng, self.rise_omega),
            rise_zeta: jitter(rng, self.rise_zeta).clamp(0.3, 0.98),
            fall_omega: jitter(rng, self.fall_omega),
            fall_zeta: jitter(rng, self.fall_zeta).clamp(0.3, 0.98),
            noise_sigma_v: jitter(rng, self.noise_sigma_v).max(1e-4),
            edge_jitter_s: jitter(rng, self.edge_jitter_s).max(1e-9),
            temp_level_coeff: jitter(rng, self.temp_level_coeff),
            temp_omega_coeff: jitter(rng, self.temp_omega_coeff),
            supply_level_coeff: jitter(rng, self.supply_level_coeff),
        }
    }

    /// Interpolates this device's analog signature toward a victim's by an
    /// adversarial `effort` knob in `[0, 1]`.
    ///
    /// This is the *voltage-mimicry masquerade* threat model: an attacker
    /// who knows the defense fingerprints transceiver electricals tunes
    /// their hardware toward the victim's profile. Every parameter the
    /// fingerprint observes is blended linearly — steady-state dominant and
    /// recessive levels, the rise/fall natural frequencies and damping
    /// ratios (transient shape and ringing), the noise floor, edge jitter,
    /// and the environmental coefficients. At `effort = 0` the attacker
    /// transmits with their own electricals; at `effort = 1` the device is
    /// electrically indistinguishable from the victim's.
    ///
    /// # Panics
    ///
    /// Panics if `effort` is outside `[0, 1]`.
    pub fn mimic_toward(&self, victim: &TransceiverModel, effort: f64) -> TransceiverModel {
        assert!(
            (0.0..=1.0).contains(&effort),
            "mimicry effort must be in [0, 1]"
        );
        let lerp = |own: f64, target: f64| own + (target - own) * effort;
        TransceiverModel {
            dominant_v: lerp(self.dominant_v, victim.dominant_v),
            recessive_v: lerp(self.recessive_v, victim.recessive_v),
            rise_omega: lerp(self.rise_omega, victim.rise_omega),
            rise_zeta: lerp(self.rise_zeta, victim.rise_zeta),
            fall_omega: lerp(self.fall_omega, victim.fall_omega),
            fall_zeta: lerp(self.fall_zeta, victim.fall_zeta),
            noise_sigma_v: lerp(self.noise_sigma_v, victim.noise_sigma_v),
            edge_jitter_s: lerp(self.edge_jitter_s, victim.edge_jitter_s),
            temp_level_coeff: lerp(self.temp_level_coeff, victim.temp_level_coeff),
            temp_omega_coeff: lerp(self.temp_omega_coeff, victim.temp_omega_coeff),
            supply_level_coeff: lerp(self.supply_level_coeff, victim.supply_level_coeff),
        }
    }

    /// Returns this device with its environmental sensitivities scaled.
    ///
    /// The thesis observes that temperature affects ECUs very unevenly:
    /// "a drastic increase for ECUs 0 and 2 and more subtle increases for
    /// the others" (Figure 4.6). Vehicle presets use this to make the
    /// engine-mounted ECM (ECU 0) and ECU 2 run hot.
    pub fn with_thermal_gain(mut self, gain: f64) -> Self {
        self.temp_level_coeff *= gain;
        self.temp_omega_coeff *= gain;
        self
    }

    /// The device's electrical parameters under a given environment.
    pub fn effective(&self, env: &Environment) -> EffectiveElectricals {
        let dt = env.temp_delta_c();
        let supply_dev = env.effective_supply_v() - 12.6;
        let omega_scale = (1.0 + self.temp_omega_coeff * dt).max(0.2);
        EffectiveElectricals {
            dominant_v: self.dominant_v
                + self.temp_level_coeff * dt
                + self.supply_level_coeff * supply_dev,
            recessive_v: self.recessive_v + 0.1 * self.temp_level_coeff * dt,
            rise_omega: self.rise_omega * omega_scale,
            rise_zeta: self.rise_zeta,
            fall_omega: self.fall_omega * omega_scale,
            fall_zeta: self.fall_zeta,
        }
    }
}

/// A transceiver's parameters as they stand under a specific environment,
/// ready for waveform evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EffectiveElectricals {
    /// Dominant steady-state differential voltage.
    pub dominant_v: f64,
    /// Recessive steady-state differential voltage.
    pub recessive_v: f64,
    /// Rising-edge natural frequency, rad/s.
    pub rise_omega: f64,
    /// Rising-edge damping ratio.
    pub rise_zeta: f64,
    /// Falling-edge natural frequency, rad/s.
    pub fall_omega: f64,
    /// Falling-edge damping ratio.
    pub fall_zeta: f64,
}

impl EffectiveElectricals {
    /// Differential voltage `t` seconds after a transition that started at
    /// `from` volts heading to `target` volts, following a second-order
    /// (under-damped for ζ < 1) step response with zero initial slope:
    ///
    /// `v(t) = target + (from − target) · e^(−ζω₀t) (cos ω_d t + (ζ/√(1−ζ²)) sin ω_d t)`
    ///
    /// Rising edges (toward a higher voltage) use the rise parameters,
    /// falling edges the fall parameters. `t < 0` returns `from`.
    pub fn step_response(&self, from: f64, target: f64, t: f64) -> f64 {
        if t < 0.0 {
            return from;
        }
        // Exact equality on purpose: only a zero step is settled; any other
        // step, however small, follows the response below.
        #[allow(clippy::float_cmp)]
        if from == target {
            // Settled segment (e.g. the pre-SOF idle, whose start time is
            // −∞); evaluating the oscillatory term at t → ∞ would be 0·NaN.
            return target;
        }
        let (omega, zeta) = if target >= from {
            (self.rise_omega, self.rise_zeta)
        } else {
            (self.fall_omega, self.fall_zeta)
        };
        let decay = if zeta < 1.0 {
            let wd = omega * (1.0 - zeta * zeta).sqrt();
            let k = zeta / (1.0 - zeta * zeta).sqrt();
            (-zeta * omega * t).exp() * ((wd * t).cos() + k * (wd * t).sin())
        } else {
            // Critically/over-damped fallback (ζ ≥ 1): exponential approach.
            (-omega * t).exp() * (1.0 + omega * t)
        };
        target + (from - target) * decay
    }

    /// The level a bit value is driven toward: dominant for `false`
    /// (logical 0), recessive for `true` (logical 1).
    pub fn level_for_bit(&self, bit: bool) -> f64 {
        if bit {
            self.recessive_v
        } else {
            self.dominant_v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PowerEvent;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn device(seed: u64) -> TransceiverModel {
        let mut rng = StdRng::seed_from_u64(seed);
        TransceiverModel::sample_new(&mut rng)
    }

    #[test]
    fn sampled_devices_are_distinct_but_plausible() {
        let a = device(1);
        let b = device(2);
        assert_ne!(a, b);
        for d in [&a, &b] {
            assert!(d.dominant_v > 1.8 && d.dominant_v < 2.2);
            assert!(d.rise_zeta > 0.4 && d.rise_zeta < 1.0);
            assert!(d.noise_sigma_v > 0.0);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        assert_eq!(device(7), device(7));
    }

    #[test]
    fn narrow_spread_produces_closer_devices() {
        // Average pairwise |Δ dominant_v| must shrink with the spread.
        let spread_gap = |spread: f64| {
            let mut rng = StdRng::seed_from_u64(33);
            let devices: Vec<TransceiverModel> = (0..12)
                .map(|_| TransceiverModel::sample_with_spread(&mut rng, spread))
                .collect();
            let mut total = 0.0;
            let mut pairs = 0;
            for i in 0..devices.len() {
                for j in (i + 1)..devices.len() {
                    total += (devices[i].dominant_v - devices[j].dominant_v).abs();
                    pairs += 1;
                }
            }
            total / pairs as f64
        };
        assert!(spread_gap(0.25) < spread_gap(1.0));
    }

    #[test]
    fn perturbed_device_is_close_to_parent() {
        let base = device(5);
        let mut rng = StdRng::seed_from_u64(6);
        let close = base.perturbed(&mut rng, 0.01);
        assert!((close.dominant_v - base.dominant_v).abs() / base.dominant_v < 0.05);
        assert_ne!(close, base);
    }

    #[test]
    fn step_response_boundary_conditions() {
        let eff = device(1).effective(&Environment::default());
        // At t=0 the response equals the starting level.
        assert!((eff.step_response(0.0, 2.0, 0.0) - 0.0).abs() < 1e-12);
        // Long after the edge it settles at the target.
        assert!((eff.step_response(0.0, 2.0, 1e-3) - 2.0).abs() < 1e-9);
        // Negative time returns the starting level.
        assert_eq!(eff.step_response(0.3, 2.0, -1.0), 0.3);
    }

    #[test]
    fn underdamped_rise_overshoots() {
        let mut d = device(2);
        d.rise_zeta = 0.5;
        let eff = d.effective(&Environment::default());
        let peak = (0..2000)
            .map(|k| eff.step_response(0.0, 2.0, k as f64 * 1e-9))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(peak > 2.0 * 1.05, "peak {peak} shows no overshoot");
    }

    #[test]
    fn temperature_lowers_level_and_slows_edges() {
        let d = TransceiverModel {
            temp_level_coeff: -0.001,
            temp_omega_coeff: -0.002,
            ..device(3)
        };
        let cold = d.effective(&Environment::idling_at(-5.0));
        let hot = d.effective(&Environment::idling_at(45.0));
        assert!(hot.dominant_v < cold.dominant_v);
        assert!(hot.rise_omega < cold.rise_omega);
    }

    #[test]
    fn supply_droop_shifts_dominant_level() {
        let d = device(4);
        let unloaded = d.effective(&Environment::accessory(PowerEvent::Baseline));
        let loaded = d.effective(&Environment::accessory(PowerEvent::LightsAndAc));
        let shift = (unloaded.dominant_v - loaded.dominant_v).abs();
        assert!(shift > 0.0);
        assert!(shift < 0.01, "load shift {shift} should be millivolts");
    }

    #[test]
    fn thermal_gain_scales_sensitivities() {
        let d = device(8).with_thermal_gain(4.0);
        let base = device(8);
        assert!((d.temp_level_coeff - 4.0 * base.temp_level_coeff).abs() < 1e-12);
        assert!((d.temp_omega_coeff - 4.0 * base.temp_omega_coeff).abs() < 1e-12);
    }

    #[test]
    fn mimicry_endpoints_and_monotone_blend() {
        let attacker = device(11);
        let victim = device(12);
        assert_eq!(attacker.mimic_toward(&victim, 0.0), attacker);
        assert_eq!(attacker.mimic_toward(&victim, 1.0), victim);
        // The dominant-level gap to the victim shrinks monotonically.
        let gap = |e: f64| (attacker.mimic_toward(&victim, e).dominant_v - victim.dominant_v).abs();
        assert!(gap(0.25) > gap(0.5));
        assert!(gap(0.5) > gap(0.75));
        // Edge-shape (ringing) parameters blend too.
        let half = attacker.mimic_toward(&victim, 0.5);
        let expected = (attacker.rise_zeta + victim.rise_zeta) / 2.0;
        assert!((half.rise_zeta - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "effort must be in [0, 1]")]
    fn mimicry_rejects_out_of_range_effort() {
        let _ = device(1).mimic_toward(&device(2), 1.5);
    }

    #[test]
    fn level_for_bit_maps_logic_to_voltage() {
        let eff = device(1).effective(&Environment::default());
        assert_eq!(eff.level_for_bit(false), eff.dominant_v);
        assert_eq!(eff.level_for_bit(true), eff.recessive_v);
        assert!(eff.dominant_v > eff.recessive_v);
    }

    #[test]
    fn overdamped_fallback_is_monotone() {
        let mut d = device(9);
        d.rise_zeta = 1.0;
        let eff = d.effective(&Environment::default());
        let mut prev = eff.step_response(0.0, 2.0, 0.0);
        for k in 1..500 {
            let v = eff.step_response(0.0, 2.0, k as f64 * 2e-9);
            assert!(v >= prev - 1e-12, "overdamped response not monotone");
            prev = v;
        }
    }
}
