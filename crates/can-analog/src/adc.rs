use crate::AnalogError;
use serde::{Deserialize, Serialize};
use vprofile_sigstat::{decimate, requantize};

/// An analog-to-digital converter model: sampling rate, resolution, and the
/// differential-voltage full-scale range it maps onto offset-binary codes.
///
/// The two presets match the thesis' capture hardware: the AlazarTech PCI
/// digitizer used on Vehicle A ([`AdcConfig::vehicle_a`]: 20 MS/s, 16 bit)
/// and the custom board used on Vehicle B ([`AdcConfig::vehicle_b`]:
/// 10 MS/s, 12 bit).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdcConfig {
    /// Samples per second.
    pub sample_rate_hz: f64,
    /// *Effective* resolution in bits. After software requantization this
    /// drops below [`AdcConfig::scale_bits`] while codes stay on the
    /// original scale (thesis §4.3 drops LSBs in place).
    pub resolution_bits: u32,
    /// Bit width of the code *scale*: codes span `0..2^scale_bits`. Equal to
    /// `resolution_bits` for native captures.
    pub scale_bits: u32,
    /// Differential voltage mapped to code 0.
    pub v_min: f64,
    /// Differential voltage mapped to the full-scale code.
    pub v_max: f64,
}

impl AdcConfig {
    /// The Vehicle A digitizer: 20 MS/s at 16 bits (thesis §4.2).
    pub fn vehicle_a() -> Self {
        AdcConfig {
            sample_rate_hz: 20e6,
            resolution_bits: 16,
            scale_bits: 16,
            v_min: -1.0,
            v_max: 3.0,
        }
    }

    /// The Vehicle B custom capture board: 10 MS/s at 12 bits (thesis §4.2).
    pub fn vehicle_b() -> Self {
        AdcConfig {
            sample_rate_hz: 10e6,
            resolution_bits: 12,
            scale_bits: 12,
            v_min: -1.0,
            v_max: 3.0,
        }
    }

    /// The operating point the thesis settles on for deployment: 10 MS/s at
    /// 12 bits (§4.3: "We decided to use 10 MS/s at 12 bits because it
    /// provides ample flexibility and does not impact vProfile's detection
    /// rate").
    pub fn deployment() -> Self {
        Self::vehicle_b()
    }

    /// Seconds between consecutive samples.
    pub fn sample_period_s(&self) -> f64 {
        1.0 / self.sample_rate_hz
    }

    /// Highest code on the scale, `2^scale_bits − 1`.
    pub fn full_scale_code(&self) -> i64 {
        (1i64 << self.scale_bits) - 1
    }

    /// Converts a differential voltage to an offset-binary code on the
    /// `scale_bits` scale, truncated to the effective resolution and clamped
    /// to the representable range. Non-finite input saturates like an
    /// overdriven front-end: `+∞` to full scale, `−∞` and NaN to code 0 —
    /// never a garbage code.
    pub fn digitize(&self, volts: f64) -> i64 {
        let volts = if volts.is_nan() {
            self.v_min
        } else {
            volts.clamp(self.v_min, self.v_max)
        };
        let span = self.v_max - self.v_min;
        let code = ((volts - self.v_min) / span * self.full_scale_code() as f64).round() as i64;
        let code = code.clamp(0, self.full_scale_code());
        let shift = self.scale_bits - self.resolution_bits;
        (code >> shift) << shift
    }

    /// Converts a code back to the (quantized) differential voltage. This is
    /// the conversion behind the thesis' Figure 3.1b note that "the negative
    /// voltages are an artifact of the conversion from offset binary to
    /// volts".
    pub fn code_to_volts(&self, code: i64) -> f64 {
        let span = self.v_max - self.v_min;
        self.v_min + code as f64 / self.full_scale_code() as f64 * span
    }

    /// Number of samples per bit at the given bus bit rate.
    pub fn samples_per_bit(&self, bit_rate_bps: u32) -> f64 {
        self.sample_rate_hz / f64::from(bit_rate_bps)
    }
}

/// A digitized differential-voltage capture of one frame (or a longer bus
/// segment): raw offset-binary ADC codes plus the converter configuration
/// needed to interpret them.
///
/// Detection operates on codes, exactly as the thesis does (its bit
/// threshold of "38,000" for Figure 2.5 is a raw 16-bit code).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VoltageTrace {
    codes: Vec<i64>,
    adc: AdcConfig,
}

impl VoltageTrace {
    /// Wraps raw codes captured with the given converter.
    pub fn new(codes: Vec<i64>, adc: AdcConfig) -> Self {
        VoltageTrace { codes, adc }
    }

    /// The raw ADC codes.
    pub fn codes(&self) -> &[i64] {
        &self.codes
    }

    /// The converter configuration.
    pub fn adc(&self) -> &AdcConfig {
        &self.adc
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` if the capture holds no samples.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Codes as `f64`, the numeric domain of the detector.
    pub fn to_f64(&self) -> Vec<f64> {
        self.codes.iter().map(|&c| c as f64).collect()
    }

    /// Appends the codes as `f64` to `out`, reusing its capacity. Stream
    /// builders concatenate thousands of frame traces; this skips the
    /// per-frame temporary that `out.extend(trace.to_f64())` would
    /// allocate.
    pub fn extend_f64_into(&self, out: &mut Vec<f64>) {
        out.extend(self.codes.iter().map(|&c| c as f64));
    }

    /// Codes converted to volts.
    pub fn to_volts(&self) -> Vec<f64> {
        self.codes
            .iter()
            .map(|&c| self.adc.code_to_volts(c))
            .collect()
    }

    /// Software downsampling by an integer factor (thesis §4.3), yielding a
    /// trace whose nominal ADC rate is divided accordingly.
    ///
    /// # Errors
    ///
    /// [`AnalogError::ZeroDecimationFactor`] if `factor == 0`.
    pub fn downsample(&self, factor: usize) -> Result<VoltageTrace, AnalogError> {
        if factor == 0 {
            return Err(AnalogError::ZeroDecimationFactor);
        }
        let f64codes: Vec<f64> = self.codes.iter().map(|&c| c as f64).collect();
        let kept = decimate(&f64codes, factor);
        Ok(VoltageTrace {
            codes: kept.into_iter().map(|c| c as i64).collect(),
            adc: AdcConfig {
                sample_rate_hz: self.adc.sample_rate_hz / factor as f64,
                ..self.adc
            },
        })
    }

    /// Software resolution reduction by dropping least-significant bits
    /// (thesis §4.3), keeping codes on the original scale so traces remain
    /// comparable across resolutions (Figure 3.1b).
    ///
    /// # Errors
    ///
    /// [`AnalogError::ZeroResolution`] if `to_bits == 0`,
    /// [`AnalogError::ResolutionExceedsNative`] if `to_bits` exceeds the
    /// current effective resolution.
    pub fn requantize(&self, to_bits: u32) -> Result<VoltageTrace, AnalogError> {
        if to_bits == 0 {
            return Err(AnalogError::ZeroResolution);
        }
        if to_bits > self.adc.resolution_bits {
            return Err(AnalogError::ResolutionExceedsNative {
                native: self.adc.resolution_bits,
                requested: to_bits,
            });
        }
        let codes = requantize(&self.codes, self.adc.scale_bits, to_bits);
        Ok(VoltageTrace {
            codes,
            adc: AdcConfig {
                resolution_bits: to_bits,
                // scale_bits, v_min, v_max are retained: LSBs are dropped in
                // place, matching the thesis' method.
                ..self.adc
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn presets_match_thesis_hardware() {
        let a = AdcConfig::vehicle_a();
        assert_eq!(a.sample_rate_hz.to_bits(), 20e6_f64.to_bits());
        assert_eq!(a.resolution_bits, 16);
        let b = AdcConfig::vehicle_b();
        assert_eq!(b.sample_rate_hz.to_bits(), 10e6_f64.to_bits());
        assert_eq!(b.resolution_bits, 12);
        assert_eq!(AdcConfig::deployment(), b);
    }

    #[test]
    fn samples_per_bit_at_250kbps() {
        // Thesis §3.2.1: "For a sampling rate of 10 MS/s on a 250 kb/s bus,
        // we found the bit width to be roughly 40 samples/bit."
        assert_eq!(
            AdcConfig::vehicle_b().samples_per_bit(250_000).to_bits(),
            40.0_f64.to_bits()
        );
        assert_eq!(
            AdcConfig::vehicle_a().samples_per_bit(250_000).to_bits(),
            80.0_f64.to_bits()
        );
    }

    #[test]
    fn digitize_clamps_and_round_trips() {
        let adc = AdcConfig::vehicle_b();
        assert_eq!(adc.digitize(adc.v_min - 5.0), 0);
        assert_eq!(adc.digitize(adc.v_max + 5.0), adc.full_scale_code());
        let mid = (adc.v_min + adc.v_max) / 2.0;
        let code = adc.digitize(mid);
        assert!((adc.code_to_volts(code) - mid).abs() < 2.0 * (adc.v_max - adc.v_min) / 4096.0);
    }

    #[test]
    fn full_scale_code_matches_resolution() {
        assert_eq!(AdcConfig::vehicle_a().full_scale_code(), 65535);
        assert_eq!(AdcConfig::vehicle_b().full_scale_code(), 4095);
    }

    #[test]
    fn downsample_halves_rate_and_length() {
        let adc = AdcConfig::vehicle_a();
        let trace = VoltageTrace::new((0..100).collect(), adc);
        let down = trace.downsample(2).unwrap();
        assert_eq!(down.len(), 50);
        assert_eq!(down.adc().sample_rate_hz.to_bits(), 10e6_f64.to_bits());
        assert_eq!(down.codes()[1], 2);
    }

    #[test]
    fn requantize_drops_lsbs_in_place() {
        let adc = AdcConfig::vehicle_a();
        let trace = VoltageTrace::new(vec![0xFFFF, 0x1234], adc);
        let q = trace.requantize(8).unwrap();
        assert_eq!(q.codes(), &[0xFF00, 0x1200]);
        assert_eq!(q.adc().resolution_bits, 8);
        // Scale retained.
        assert_eq!(q.adc().v_max.to_bits(), adc.v_max.to_bits());
    }

    #[test]
    fn degenerate_reduction_arguments_are_typed_errors() {
        let trace = VoltageTrace::new(vec![1, 2, 3], AdcConfig::vehicle_b());
        assert_eq!(
            trace.downsample(0).unwrap_err(),
            AnalogError::ZeroDecimationFactor
        );
        assert_eq!(
            trace.requantize(0).unwrap_err(),
            AnalogError::ZeroResolution
        );
        assert_eq!(
            trace.requantize(16).unwrap_err(),
            AnalogError::ResolutionExceedsNative {
                native: 12,
                requested: 16,
            }
        );
    }

    #[test]
    fn digitize_clamps_non_finite_input() {
        // Regression: NaN used to saturate-cast to code 0 by accident and
        // ±∞ produced whatever the float cast said; now the mapping is
        // deliberate and rail-bound.
        let adc = AdcConfig::vehicle_b();
        assert_eq!(adc.digitize(f64::NAN), 0);
        assert_eq!(adc.digitize(f64::NEG_INFINITY), 0);
        assert_eq!(adc.digitize(f64::INFINITY), adc.full_scale_code());
        let a = AdcConfig::vehicle_a();
        assert_eq!(a.digitize(f64::INFINITY), a.full_scale_code());
    }

    #[test]
    fn to_volts_respects_range() {
        let adc = AdcConfig::vehicle_b();
        let trace = VoltageTrace::new(vec![0, adc.full_scale_code()], adc);
        let volts = trace.to_volts();
        assert!((volts[0] - adc.v_min).abs() < 1e-9);
        assert!((volts[1] - adc.v_max).abs() < 1e-9);
    }

    proptest! {
        /// digitize → code_to_volts error is bounded by one LSB.
        #[test]
        fn prop_quantization_error_bounded(v in -1.0f64..3.0) {
            let adc = AdcConfig::vehicle_b();
            let lsb = (adc.v_max - adc.v_min) / adc.full_scale_code() as f64;
            let back = adc.code_to_volts(adc.digitize(v));
            prop_assert!((back - v).abs() <= lsb);
        }

        /// Downsampling then indexing matches strided indexing.
        #[test]
        fn prop_downsample_strided(
            codes in proptest::collection::vec(0i64..4096, 1..200),
            factor in 1usize..8,
        ) {
            let trace = VoltageTrace::new(codes.clone(), AdcConfig::vehicle_b());
            let down = trace.downsample(factor).unwrap();
            for (i, &c) in down.codes().iter().enumerate() {
                prop_assert_eq!(c, codes[i * factor]);
            }
        }
    }
}
