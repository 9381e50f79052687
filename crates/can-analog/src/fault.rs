//! Seeded capture-fault injection.
//!
//! A deployed voltage IDS taps the bus through real capture hardware, and
//! real capture hardware glitches: DMA rings drop samples, ADC front-ends
//! stick or rail, ignition systems couple impulse and burst noise onto the
//! differential pair, sampling clocks jitter, and the supply rail sags
//! below the transceiver's regulated operating range during cranking or
//! harness faults. [`FaultInjector`] reproduces those failure modes on top
//! of synthesized [`VoltageTrace`]s and raw sample streams, deterministically
//! from a `u64` seed, so robustness tests can drive the exact same corrupted
//! capture at every run.
//!
//! Faults compose: the injector applies its fault list in insertion order,
//! so `Brownout` followed by `Impulse` models impulse noise riding on a
//! collapsed rail (the combination that produces short above-threshold
//! blips on an otherwise silent bus).

use crate::noise::sample_normal;
use crate::{AdcConfig, VoltageTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One capture-layer fault mode, parameterized.
///
/// Probabilities are per sample; hold/gap lengths are drawn uniformly from
/// `1..=max` each time the fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// Sample loss: with probability `prob` per sample, a gap of up to
    /// `max_gap` consecutive samples disappears from the record (a DMA
    /// overrun). Shortens the output.
    Dropout {
        /// Per-sample probability of starting a gap.
        prob: f64,
        /// Largest gap length in samples.
        max_gap: usize,
    },
    /// A stuck ADC code: the converter repeats the previous code for up to
    /// `max_hold` samples (a latched pipeline stage).
    StuckCode {
        /// Per-sample probability of sticking.
        prob: f64,
        /// Largest hold length in samples.
        max_hold: usize,
    },
    /// Rail saturation: the code pins to 0 or full scale for up to
    /// `max_hold` samples (front-end overdrive).
    Saturation {
        /// Per-sample probability of railing.
        prob: f64,
        /// Largest hold length in samples.
        max_hold: usize,
    },
    /// Impulse noise: single-sample spikes of ±`magnitude_codes` (ignition
    /// or solenoid coupling).
    Impulse {
        /// Per-sample probability of a spike.
        prob: f64,
        /// Spike amplitude in ADC codes.
        magnitude_codes: f64,
    },
    /// Burst noise: a run of up to `max_len` samples with additive Gaussian
    /// noise of `sigma_codes` (an EMI burst).
    Burst {
        /// Per-sample probability of starting a burst.
        prob: f64,
        /// Largest burst length in samples.
        max_len: usize,
        /// Noise sigma inside the burst, in ADC codes.
        sigma_codes: f64,
    },
    /// Sampling-clock jitter: the signal is resampled at indices perturbed
    /// by Gaussian offsets of `sigma_samples`, with linear interpolation.
    /// Length-preserving.
    ClockJitter {
        /// Index perturbation sigma, in samples.
        sigma_samples: f64,
    },
    /// Supply brownout: every code's excursion from the zero-volt code is
    /// scaled by `1 − sag`, modelling a rail collapsed below the
    /// transceiver's regulated range so the differential drive shrinks
    /// proportionally.
    Brownout {
        /// Fractional level collapse in `0..=1` (0 = nominal, 1 = flatline).
        sag: f64,
    },
    /// Non-finite corruption: with probability `prob` a sample becomes NaN
    /// or ±∞ (a corrupted DMA word). Only applicable to `f64` sample
    /// streams; integer traces cannot hold non-finite codes, so
    /// [`FaultInjector::apply_trace`] skips it.
    NonFinite {
        /// Per-sample probability of corruption.
        prob: f64,
    },
}

/// A seeded, composable capture-fault injector.
///
/// Two injectors built with the same seed, ADC, and fault list produce
/// byte-identical corruption — the property the chaos suite relies on.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: StdRng,
    adc: AdcConfig,
    faults: Vec<Fault>,
}

impl FaultInjector {
    /// Creates an injector with no faults installed.
    pub fn new(seed: u64, adc: AdcConfig) -> Self {
        FaultInjector {
            rng: StdRng::seed_from_u64(seed ^ 0xFA_017),
            adc,
            faults: Vec::new(),
        }
    }

    /// Adds a fault to the composition (applied in insertion order).
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The installed fault list, in application order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Applies the fault composition to a raw `f64` sample stream (the
    /// domain the IDS pipeline consumes). All fault modes apply, including
    /// [`Fault::NonFinite`].
    pub fn apply_stream(&mut self, samples: &[f64]) -> Vec<f64> {
        let mut out = samples.to_vec();
        for k in 0..self.faults.len() {
            let fault = self.faults[k];
            out = self.apply_one(out, fault, true);
        }
        out
    }

    /// Applies the fault composition to a digitized trace, keeping codes on
    /// the ADC scale. [`Fault::NonFinite`] is skipped (integer codes cannot
    /// be non-finite).
    pub fn apply_trace(&mut self, trace: &VoltageTrace) -> VoltageTrace {
        let mut samples = trace.to_f64();
        for k in 0..self.faults.len() {
            let fault = self.faults[k];
            samples = self.apply_one(samples, fault, false);
        }
        self.codes_to_trace(samples, trace.adc())
    }

    /// Applies one explicit fault to a trace, ignoring the installed list.
    /// Used by scenario generators that scale a fault per frame (e.g. a
    /// brownout ramp whose sag depends on the frame's bus time).
    pub fn apply_fault_trace(&mut self, trace: &VoltageTrace, fault: Fault) -> VoltageTrace {
        let samples = self.apply_one(trace.to_f64(), fault, false);
        self.codes_to_trace(samples, trace.adc())
    }

    fn codes_to_trace(&self, samples: Vec<f64>, adc: &AdcConfig) -> VoltageTrace {
        let full = self.adc.full_scale_code();
        let codes = samples
            .into_iter()
            .map(|c| {
                if c.is_nan() {
                    0
                } else {
                    (c.round() as i64).clamp(0, full)
                }
            })
            .collect();
        VoltageTrace::new(codes, *adc)
    }

    fn apply_one(&mut self, samples: Vec<f64>, fault: Fault, allow_non_finite: bool) -> Vec<f64> {
        let full = self.adc.full_scale_code() as f64;
        match fault {
            Fault::Dropout { prob, max_gap } => {
                let max_gap = max_gap.max(1);
                let mut out = Vec::with_capacity(samples.len());
                let mut i = 0usize;
                while i < samples.len() {
                    if self.rng.random_bool(prob.clamp(0.0, 1.0)) {
                        i += self.rng.random_range(1..=max_gap);
                    } else {
                        out.push(samples[i]);
                        i += 1;
                    }
                }
                out
            }
            Fault::StuckCode { prob, max_hold } => {
                let max_hold = max_hold.max(1);
                let mut out = samples;
                let mut i = 1usize;
                while i < out.len() {
                    if self.rng.random_bool(prob.clamp(0.0, 1.0)) {
                        let hold = self.rng.random_range(1..=max_hold);
                        let stuck = out[i - 1];
                        let end = (i + hold).min(out.len());
                        for sample in &mut out[i..end] {
                            *sample = stuck;
                        }
                        i = end;
                    } else {
                        i += 1;
                    }
                }
                out
            }
            Fault::Saturation { prob, max_hold } => {
                let max_hold = max_hold.max(1);
                let mut out = samples;
                let mut i = 0usize;
                while i < out.len() {
                    if self.rng.random_bool(prob.clamp(0.0, 1.0)) {
                        let hold = self.rng.random_range(1..=max_hold);
                        let rail = if self.rng.random_bool(0.5) { full } else { 0.0 };
                        let end = (i + hold).min(out.len());
                        for sample in &mut out[i..end] {
                            *sample = rail;
                        }
                        i = end;
                    } else {
                        i += 1;
                    }
                }
                out
            }
            Fault::Impulse {
                prob,
                magnitude_codes,
            } => {
                let mut out = samples;
                for sample in &mut out {
                    if self.rng.random_bool(prob.clamp(0.0, 1.0)) {
                        let sign = if self.rng.random_bool(0.5) { 1.0 } else { -1.0 };
                        *sample = (*sample + sign * magnitude_codes).clamp(0.0, full);
                    }
                }
                out
            }
            Fault::Burst {
                prob,
                max_len,
                sigma_codes,
            } => {
                let max_len = max_len.max(1);
                let mut out = samples;
                let mut i = 0usize;
                while i < out.len() {
                    if self.rng.random_bool(prob.clamp(0.0, 1.0)) {
                        let len = self.rng.random_range(1..=max_len);
                        let end = (i + len).min(out.len());
                        for sample in &mut out[i..end] {
                            *sample = (*sample + sample_normal(&mut self.rng, 0.0, sigma_codes))
                                .clamp(0.0, full);
                        }
                        i = end;
                    } else {
                        i += 1;
                    }
                }
                out
            }
            Fault::ClockJitter { sigma_samples } => {
                if samples.len() < 2 {
                    return samples;
                }
                let n = samples.len();
                (0..n)
                    .map(|i| {
                        let idx = (i as f64 + sample_normal(&mut self.rng, 0.0, sigma_samples))
                            .clamp(0.0, (n - 1) as f64);
                        let lo = idx.floor() as usize;
                        let hi = (lo + 1).min(n - 1);
                        let frac = idx - lo as f64;
                        samples[lo] * (1.0 - frac) + samples[hi] * frac
                    })
                    .collect()
            }
            Fault::Brownout { sag } => {
                let zero = self.adc.digitize(0.0) as f64;
                let keep = (1.0 - sag.clamp(0.0, 1.0)).max(0.0);
                samples
                    .into_iter()
                    .map(|c| zero + (c - zero) * keep)
                    .collect()
            }
            Fault::NonFinite { prob } => {
                if !allow_non_finite {
                    return samples;
                }
                let mut out = samples;
                for sample in &mut out {
                    if self.rng.random_bool(prob.clamp(0.0, 1.0)) {
                        *sample = match self.rng.random_range(0..3u8) {
                            0 => f64::NAN,
                            1 => f64::INFINITY,
                            _ => f64::NEG_INFINITY,
                        };
                    }
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1000.0 + (i % 64) as f64 * 30.0).collect()
    }

    fn injector(faults: &[Fault]) -> FaultInjector {
        let mut inj = FaultInjector::new(42, AdcConfig::vehicle_b());
        for &f in faults {
            inj = inj.with(f);
        }
        inj
    }

    #[test]
    fn same_seed_reproduces_identical_corruption() {
        let faults = [
            Fault::Dropout {
                prob: 0.01,
                max_gap: 4,
            },
            Fault::Impulse {
                prob: 0.02,
                magnitude_codes: 500.0,
            },
            Fault::Burst {
                prob: 0.005,
                max_len: 8,
                sigma_codes: 60.0,
            },
        ];
        let a = injector(&faults).apply_stream(&ramp(4096));
        let b = injector(&faults).apply_stream(&ramp(4096));
        assert_eq!(a, b);
        let c = FaultInjector::new(43, AdcConfig::vehicle_b())
            .with(faults[0])
            .with(faults[1])
            .with(faults[2])
            .apply_stream(&ramp(4096));
        assert_ne!(a, c, "different seeds must corrupt differently");
    }

    #[test]
    fn dropout_shortens_the_stream() {
        let out = injector(&[Fault::Dropout {
            prob: 0.05,
            max_gap: 6,
        }])
        .apply_stream(&ramp(8192));
        assert!(out.len() < 8192, "5% dropout must lose samples");
        assert!(!out.is_empty());
    }

    #[test]
    fn stuck_code_repeats_previous_sample() {
        let out = injector(&[Fault::StuckCode {
            prob: 0.05,
            max_hold: 5,
        }])
        .apply_stream(&ramp(4096));
        assert_eq!(out.len(), 4096);
        let repeats = out
            .windows(2)
            .filter(|w| w[0].to_bits() == w[1].to_bits())
            .count();
        assert!(repeats > 0, "stuck codes must produce repeated samples");
    }

    #[test]
    fn saturation_pins_to_the_rails() {
        let full = AdcConfig::vehicle_b().full_scale_code() as f64;
        let out = injector(&[Fault::Saturation {
            prob: 0.02,
            max_hold: 4,
        }])
        .apply_stream(&ramp(4096));
        assert!(out
            .iter()
            .any(|&s| s.to_bits() == 0.0_f64.to_bits() || s.to_bits() == full.to_bits()));
    }

    #[test]
    fn brownout_scales_codes_around_the_zero_code() {
        let adc = AdcConfig::vehicle_b();
        let zero = adc.digitize(0.0) as f64;
        let out = injector(&[Fault::Brownout { sag: 0.5 }]).apply_stream(&[3072.0, zero]);
        assert!((out[0] - (zero + (3072.0 - zero) * 0.5)).abs() < 1e-9);
        assert!((out[1] - zero).abs() < 1e-9, "zero-volt code is invariant");
    }

    #[test]
    fn clock_jitter_preserves_length_and_range() {
        let input = ramp(2048);
        let out = injector(&[Fault::ClockJitter { sigma_samples: 1.5 }]).apply_stream(&input);
        assert_eq!(out.len(), input.len());
        let (lo, hi) = input
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        assert!(out.iter().all(|&s| s >= lo && s <= hi));
    }

    #[test]
    fn non_finite_applies_to_streams_but_not_traces() {
        let faults = [Fault::NonFinite { prob: 0.05 }];
        let stream = injector(&faults).apply_stream(&ramp(2048));
        assert!(stream.iter().any(|s| !s.is_finite()));
        let trace = VoltageTrace::new(
            (0..2048).map(|i| i % 4096).collect(),
            AdcConfig::vehicle_b(),
        );
        let out = injector(&faults).apply_trace(&trace);
        assert_eq!(out.codes(), trace.codes(), "traces cannot hold non-finite");
    }

    #[test]
    fn trace_application_stays_on_the_code_scale() {
        let adc = AdcConfig::vehicle_b();
        let trace = VoltageTrace::new(vec![4095; 512], adc);
        let out = injector(&[Fault::Impulse {
            prob: 1.0,
            magnitude_codes: 10_000.0,
        }])
        .apply_trace(&trace);
        assert!(out
            .codes()
            .iter()
            .all(|&c| (0..=adc.full_scale_code()).contains(&c)));
    }

    #[test]
    fn apply_fault_trace_ignores_installed_list() {
        let adc = AdcConfig::vehicle_b();
        let trace = VoltageTrace::new(vec![3072; 64], adc);
        let mut inj = injector(&[Fault::Saturation {
            prob: 1.0,
            max_hold: 8,
        }]);
        let zero = adc.digitize(0.0) as f64;
        let out = inj.apply_fault_trace(&trace, Fault::Brownout { sag: 1.0 });
        assert!(out.codes().iter().all(|&c| (c as f64 - zero).abs() <= 1.0));
    }
}
