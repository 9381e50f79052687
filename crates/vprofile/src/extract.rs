//! Edge-set extraction — Algorithm 1 of the thesis.
//!
//! The extractor walks a raw sampled voltage trace the way a CAN controller
//! would: it locates SOF, samples each bit at its center, re-synchronizes on
//! every edge it encounters, skips stuff bits, decodes the source address
//! from unstuffed bits 24–31, and — upon reaching bit 33, the first bit
//! after the arbitration field — extracts the first rising and falling edge
//! as the message's edge set.
//!
//! Two notes versus the printed pseudocode:
//!
//! * The thesis' Algorithm 1 resets `sameBitCount` and `continue`s when the
//!   count *reaches* five, which as printed would drop the fifth data bit
//!   rather than the stuff bit. CAN inserts the stuff bit *after* five equal
//!   bits, as the thesis' own §2.1.1 states, so this implementation skips
//!   the first differing bit following a five-run (and still resynchronizes
//!   on its edge).
//! * Algorithm 1's `ExtractEdgeSet` scans for the edge crossings in an order
//!   that (starting from the dominant r1 bit) would capture the falling edge
//!   first; the prose ("iterate until the first rising edge … then find the
//!   falling edge") and Figures 2.5/4.5 show rising-then-falling, which is
//!   what this implementation does.

use crate::{EdgeSet, LabeledEdgeSet, ScratchArena, VProfileConfig, VProfileError};
use vprofile_can::SourceAddress;

/// Lanes folded per block in the resynchronization scan; eight `f64`s fill
/// one 512-bit vector or two 256-bit ones.
const LANES: usize = 8;

/// Index of the last sample whose dominance equals `dominant`, searching
/// `samples` backward, or `None`. Exactly
/// `samples.iter().rposition(|&v| (v >= threshold) == dominant)`, but
/// folded eight lanes per step with the blocks aligned to the *end* of the
/// slice — a resynchronization walk's crossing is at most one bit behind
/// the probe, so the first block fold almost always contains the hit.
///
/// NaN reads as recessive on both paths: `NaN >= threshold` is `false`, a
/// block maximum folded from `NEG_INFINITY` ignores NaN lanes, and the
/// all-dominant test `v >= threshold` fails on NaN, so a NaN lane makes a
/// block a candidate for `dominant == false` and never for `true` — the
/// per-sample `rposition` inside the candidate block settles the index.
// xtask: hot-path
#[inline]
fn rfind_dominance(samples: &[f64], threshold: f64, dominant: bool) -> Option<usize> {
    let head_len = samples.len() % LANES;
    let (head, body) = samples.split_at(head_len);
    for (bi, block) in body.chunks_exact(LANES).enumerate().rev() {
        let mut max = f64::NEG_INFINITY;
        let mut all_dominant = true;
        for &v in block {
            max = max.max(v);
            all_dominant &= v >= threshold;
        }
        let candidate = if dominant {
            max >= threshold
        } else {
            !all_dominant
        };
        if candidate {
            return block
                .iter()
                .rposition(|&v| (v >= threshold) == dominant)
                .map(|p| head_len + bi * LANES + p);
        }
    }
    head.iter().rposition(|&v| (v >= threshold) == dominant)
}

/// Extracts source addresses and edge sets from raw voltage traces
/// (Algorithm 1).
///
/// See the [crate-level example](crate) for end-to-end usage.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeSetExtractor {
    config: VProfileConfig,
}

impl EdgeSetExtractor {
    /// Creates an extractor with the given configuration.
    pub fn new(config: VProfileConfig) -> Self {
        EdgeSetExtractor { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &VProfileConfig {
        &self.config
    }

    /// Returns an extractor with the bit threshold overridden — the §5.1
    /// per-cluster extraction-threshold enhancement.
    pub fn with_threshold(&self, threshold: f64) -> Self {
        let mut config = self.config.clone();
        config.bit_threshold = threshold;
        EdgeSetExtractor { config }
    }

    /// Runs Algorithm 1 on a trace: decodes the SA and extracts the edge
    /// set(s). When the configuration asks for more than one edge set per
    /// message (§5.2), the extracted sets are averaged sample-wise.
    ///
    /// # Errors
    ///
    /// * [`VProfileError::SofNotFound`] if the trace never goes dominant;
    /// * [`VProfileError::TraceTooShort`] if it ends mid-extraction.
    pub fn extract(&self, samples: &[f64]) -> Result<LabeledEdgeSet, VProfileError> {
        let mut scratch = ScratchArena::new();
        let sa = self.extract_into(samples, &mut scratch)?;
        Ok(LabeledEdgeSet::new(sa, EdgeSet::new(scratch.edge_set)))
    }

    /// [`Self::extract`] into caller-owned scratch buffers: the extracted
    /// (and, for multi-set configs, averaged) edge set is left in
    /// `scratch.edge_set` and the decoded SA is returned. After the first
    /// call sizes the buffers, subsequent calls allocate nothing — this is
    /// the per-frame entry point of the IDS workers.
    ///
    /// On error, the scratch buffer contents are unspecified.
    ///
    /// # Errors
    ///
    /// * [`VProfileError::SofNotFound`] if the trace never goes dominant;
    /// * [`VProfileError::TraceTooShort`] if it ends mid-extraction.
    // xtask: hot-path
    pub fn extract_into(
        &self,
        samples: &[f64],
        scratch: &mut ScratchArena,
    ) -> Result<SourceAddress, VProfileError> {
        let (sa, pos) = self.walk_arbitration(samples, false)?;
        scratch.edge_set.clear();
        self.extract_one_edge_set_into(samples, pos, &mut scratch.edge_set)?;
        let n = self.config.edge_sets_per_message;
        for k in 1..n {
            let start = pos + k * self.config.edge_set_spacing;
            scratch.edge_tmp.clear();
            self.extract_one_edge_set_into(samples, start, &mut scratch.edge_tmp)?;
            for (acc, &s) in scratch.edge_set.iter_mut().zip(&scratch.edge_tmp) {
                *acc += s;
            }
        }
        if n > 1 {
            // Same sum-then-divide averaging as [`EdgeSet::mean_of`].
            for acc in &mut scratch.edge_set {
                *acc /= n as f64;
            }
        }
        Ok(sa)
    }

    /// Decodes only the claimed source address from a framed message window,
    /// without extracting an edge set. This is the cheap routing probe the
    /// sharded pipeline uses to assign a window to a worker shard: it walks
    /// the arbitration field (with resynchronization and stuff-bit handling)
    /// and returns as soon as the last SA bit — unstuffed bit 31 — has been
    /// decoded, two bit times before [`Self::extract`] stops walking.
    ///
    /// # Errors
    ///
    /// Returns [`VProfileError::SofNotFound`] /
    /// [`VProfileError::TraceTooShort`] as [`Self::extract`] would for the
    /// same window, except that a window truncated *between* bits 31 and 33
    /// still peeks successfully (extraction would fail later regardless, at
    /// the edge-set scan).
    // xtask: hot-path
    pub fn peek_sa(&self, samples: &[f64]) -> Result<SourceAddress, VProfileError> {
        self.walk_arbitration(samples, true).map(|(sa, _)| sa)
    }

    /// `true` if the sample reads as dominant (logical 0).
    fn is_dominant(&self, v: f64) -> bool {
        v >= self.config.bit_threshold
    }

    /// Walks the message from SOF through the arbitration field, decoding
    /// the SA along the way, with zero heap allocations: unstuffed bits
    /// accumulate in a `u64` shift register instead of a `Vec<bool>`, and
    /// the SA is simply the register's low byte once bit 31 lands.
    ///
    /// With `stop_after_sa` the walk returns right at bit 31 (the cheap
    /// routing probe); otherwise it continues to bit 33 — the first bit
    /// after the arbitration field — and returns the sample index at that
    /// bit's center, where edge-set extraction starts.
    fn walk_arbitration(
        &self,
        samples: &[f64],
        stop_after_sa: bool,
    ) -> Result<(SourceAddress, usize), VProfileError> {
        let bw = self.config.bit_width_samples;
        let half = bw / 2.0;

        let sof = samples
            .iter()
            .position(|&v| self.is_dominant(v))
            .ok_or(VProfileError::SofNotFound)?;

        // Cursor kept in f64 so fractional bit widths accumulate correctly.
        let mut pos_f = sof as f64 + half;
        let at = |p: f64| -> Result<f64, VProfileError> {
            let idx = p.round() as usize;
            samples
                .get(idx)
                .copied()
                .ok_or(VProfileError::TraceTooShort { at_sample: idx })
        };
        // SOF is bit 0 (dominant). The walk reads it for symmetry with the
        // pseudocode's `bitValues`. Logical value: true = 1 (recessive).
        let first = !self.is_dominant(at(pos_f)?);
        let mut acc = u64::from(first);
        let mut prev = first;
        let mut same_count = 1usize;
        let mut bit_count = 0usize;
        let mut sa: Option<SourceAddress> = None;

        loop {
            pos_f += bw;
            let v = at(pos_f)?;
            let bit = !self.is_dominant(v);
            if bit != prev {
                // Re-synchronize: find the threshold crossing and center on
                // the new bit (thesis: "we align ourselves to the center of
                // every edge we encounter"). The crossing is the sample
                // after the last one still reading as the *previous* bit —
                // whose dominance, with logical values, equals `bit` — so a
                // backward block scan replaces the per-sample walk.
                let probe = pos_f.round() as usize;
                let edge = rfind_dominance(&samples[..probe], self.config.bit_threshold, bit)
                    .map_or(0, |j| j + 1);
                pos_f = edge as f64 + half;
                let was_stuff = same_count == 5;
                prev = bit;
                same_count = 1;
                if was_stuff {
                    // Stuff bit: consumes a wire slot but carries no data.
                    continue;
                }
            } else {
                same_count += 1;
            }
            acc = (acc << 1) | u64::from(bit);
            bit_count += 1;
            if bit_count == 31 {
                // Bits 24–31 of the unstuffed stream carry the J1939 SA —
                // exactly the last eight bits shifted in, i.e. the low byte
                // of the register at this point of the walk.
                let decoded = SourceAddress((acc & 0xFF) as u8);
                if stop_after_sa {
                    return Ok((decoded, pos_f.round() as usize));
                }
                sa = Some(decoded);
            }
            if bit_count == 33 {
                let pos = pos_f.round() as usize;
                // Bit 33 is only reached after bit 31 populated `sa`; the
                // error arm is unreachable but keeps this panic-free.
                return match sa {
                    Some(sa) => Ok((sa, pos)),
                    None => Err(VProfileError::TraceTooShort { at_sample: pos }),
                };
            }
        }
    }

    /// Extracts one edge set starting the scan at `pos`, appending the
    /// `2 * (prefix + suffix)` samples to `out`: the next rising edge
    /// (prefix before / suffix after its threshold crossing) followed by
    /// the next falling edge.
    fn extract_one_edge_set_into(
        &self,
        samples: &[f64],
        pos: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), VProfileError> {
        let half = (self.config.bit_width_samples / 2.0).round() as usize;
        let prefix = self.config.prefix_len;
        let suffix = self.config.suffix_len;
        let need = |idx: usize| -> Result<f64, VProfileError> {
            samples
                .get(idx)
                .copied()
                .ok_or(VProfileError::TraceTooShort { at_sample: idx })
        };

        // Find the first rising (recessive→dominant) crossing at or after
        // `pos`. If we start inside a dominant region, skip it first.
        let mut i = pos;
        while self.is_dominant(need(i)?) {
            i += 1;
        }
        while !self.is_dominant(need(i)?) {
            i += 1;
        }
        let rising = i;
        if rising < prefix {
            return Err(VProfileError::TraceTooShort { at_sample: rising });
        }
        need(rising + suffix.saturating_sub(1))?;

        // The matching falling crossing: move half a bit into the dominant
        // phase, then scan for the drop below threshold.
        let mut j = rising + half;
        while self.is_dominant(need(j)?) {
            j += 1;
        }
        let falling = j;
        need(falling + suffix.saturating_sub(1))?;

        out.reserve(2 * (prefix + suffix));
        out.extend_from_slice(&samples[rising - prefix..rising + suffix]);
        out.extend_from_slice(&samples[falling - prefix..falling + suffix]);
        Ok(())
    }
}

/// Computes a cluster-specific extraction threshold (§5.1): the midpoint of
/// the extreme values over the first half of a message's samples. The thesis
/// restricts itself to the first half "because the voltage level of the ACK
/// bit can deviate significantly from the rest of the message".
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn cluster_extraction_threshold(samples: &[f64]) -> f64 {
    assert!(
        !samples.is_empty(),
        "cannot derive a threshold from no samples"
    );
    let half = &samples[..samples.len().div_ceil(2)];
    let min = half.iter().copied().fold(f64::INFINITY, f64::min);
    let max = half.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min + max) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vprofile_analog::{AdcConfig, Environment, FrameSynthesizer, TransceiverModel};
    use vprofile_can::{DataFrame, J1939Id, Pgn, Priority, WireFrame};
    use vprofile_sigstat::euclidean;

    fn frame_with_sa(sa: u8) -> DataFrame {
        let id = J1939Id::new(
            Priority::new(3).unwrap(),
            Pgn::new(0xF004).unwrap(),
            SourceAddress(sa),
        );
        // Payload chosen so the arbitration field exercises stuffing.
        DataFrame::new(id.into(), &[0x00, 0xFF, 0x0F, 0xF0]).unwrap()
    }

    fn setup() -> (FrameSynthesizer, EdgeSetExtractor, TransceiverModel) {
        let mut rng = StdRng::seed_from_u64(5);
        let tx = TransceiverModel::sample_new(&mut rng);
        let synth = FrameSynthesizer::new(250_000, AdcConfig::vehicle_b());
        let config = VProfileConfig::for_adc(synth.adc(), 250_000);
        (synth, EdgeSetExtractor::new(config), tx)
    }

    #[test]
    fn decodes_sa_from_waveform() {
        let (synth, extractor, tx) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        for sa in [0x00u8, 0x17, 0xAA, 0xFF, 0x55, 0x80, 0x01] {
            let wire = WireFrame::encode(&frame_with_sa(sa));
            let trace = synth.synthesize(wire.bits(), &tx, &Environment::default(), &mut rng);
            let extraction = extractor.extract(&trace.to_f64()).unwrap();
            assert_eq!(extraction.sa, SourceAddress(sa), "sa {sa:#x} misdecoded");
        }
    }

    #[test]
    fn peek_sa_agrees_with_full_extraction() {
        let (synth, extractor, tx) = setup();
        let mut rng = StdRng::seed_from_u64(8);
        for sa in [0x00u8, 0x17, 0xAA, 0xFF] {
            let wire = WireFrame::encode(&frame_with_sa(sa));
            let trace = synth.synthesize(wire.bits(), &tx, &Environment::default(), &mut rng);
            let samples = trace.to_f64();
            let peeked = extractor.peek_sa(&samples).unwrap();
            let extracted = extractor.extract(&samples).unwrap();
            assert_eq!(peeked, extracted.sa);
        }
        let flat = vec![100.0; 2000];
        assert_eq!(
            extractor.peek_sa(&flat).unwrap_err(),
            VProfileError::SofNotFound
        );
    }

    #[test]
    fn sa_decoding_survives_arbitration_field_stuffing() {
        // An all-zero identifier maximizes stuffing in the arbitration field.
        let (synth, extractor, tx) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let id = J1939Id::new(
            Priority::new(0).unwrap(),
            Pgn::new(0).unwrap(),
            SourceAddress(0),
        );
        let frame = DataFrame::new(id.into(), &[0x12, 0x34]).unwrap();
        let wire = WireFrame::encode(&frame);
        assert!(wire.stuff_bit_count() >= 5, "test premise: heavy stuffing");
        let trace = synth.synthesize(wire.bits(), &tx, &Environment::default(), &mut rng);
        let extraction = extractor.extract(&trace.to_f64()).unwrap();
        assert_eq!(extraction.sa, SourceAddress(0));
    }

    #[test]
    fn edge_set_has_configured_dimension() {
        let (synth, extractor, tx) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let wire = WireFrame::encode(&frame_with_sa(0x42));
        let trace = synth.synthesize(wire.bits(), &tx, &Environment::default(), &mut rng);
        let extraction = extractor.extract(&trace.to_f64()).unwrap();
        assert_eq!(extraction.edge_set.dim(), 32);
    }

    #[test]
    fn edge_set_contains_a_rise_and_a_fall() {
        let (synth, extractor, tx) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let wire = WireFrame::encode(&frame_with_sa(0x42));
        let trace = synth.synthesize(wire.bits(), &tx, &Environment::default(), &mut rng);
        let extraction = extractor.extract(&trace.to_f64()).unwrap();
        let s = extraction.edge_set.samples();
        let th = extractor.config().bit_threshold;
        let (rise, fall) = s.split_at(s.len() / 2);
        // Rising half: starts recessive, ends dominant.
        assert!(rise[0] < th, "rising half should start below threshold");
        assert!(rise[rise.len() - 1] >= th, "rising half should end above");
        // Falling half: starts dominant, ends recessive.
        assert!(fall[0] >= th, "falling half should start above threshold");
        assert!(fall[fall.len() - 1] < th, "falling half should end below");
    }

    #[test]
    fn flat_trace_has_no_sof() {
        let (_, extractor, _) = setup();
        let flat = vec![100.0; 2000];
        assert_eq!(
            extractor.extract(&flat).unwrap_err(),
            VProfileError::SofNotFound
        );
    }

    #[test]
    fn truncated_trace_errors_cleanly() {
        let (synth, extractor, tx) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let wire = WireFrame::encode(&frame_with_sa(0x42));
        let trace = synth.synthesize(wire.bits(), &tx, &Environment::default(), &mut rng);
        let samples = trace.to_f64();
        let cut = &samples[..samples.len() / 6];
        assert!(matches!(
            extractor.extract(cut).unwrap_err(),
            VProfileError::TraceTooShort { .. }
        ));
    }

    #[test]
    fn same_ecu_edge_sets_are_closer_than_cross_ecu() {
        let (synth, extractor, tx_a) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let tx_b = TransceiverModel::sample_new(&mut rng);
        let wire = WireFrame::encode(&frame_with_sa(0x42));
        let env = Environment::default();
        let grab = |tx: &TransceiverModel, rng: &mut StdRng| {
            let trace = synth.synthesize(wire.bits(), tx, &env, rng);
            extractor.extract(&trace.to_f64()).unwrap().edge_set
        };
        let a1 = grab(&tx_a, &mut rng);
        let a2 = grab(&tx_a, &mut rng);
        let b1 = grab(&tx_b, &mut rng);
        let intra = euclidean(a1.samples(), a2.samples()).unwrap();
        let inter = euclidean(a1.samples(), b1.samples()).unwrap();
        assert!(
            intra < inter,
            "intra-ECU distance {intra} should be below inter-ECU {inter}"
        );
    }

    #[test]
    fn multi_edge_set_extraction_reduces_to_mean() {
        let (synth, extractor, tx) = setup();
        let config3 = extractor.config().clone().with_edge_sets_per_message(3);
        let extractor3 = EdgeSetExtractor::new(config3);
        let mut rng = StdRng::seed_from_u64(8);
        let wire = WireFrame::encode(&frame_with_sa(0x42));
        let trace = synth.synthesize(wire.bits(), &tx, &Environment::default(), &mut rng);
        let samples = trace.to_f64();
        let one = extractor.extract(&samples).unwrap();
        let three = extractor3.extract(&samples).unwrap();
        assert_eq!(one.sa, three.sa);
        assert_eq!(one.edge_set.dim(), three.edge_set.dim());
        // The averaged set differs from the single set but stays close.
        let d = euclidean(one.edge_set.samples(), three.edge_set.samples()).unwrap();
        assert!(d > 0.0);
    }

    #[test]
    fn extract_into_reuse_is_byte_identical_to_extract() {
        let (synth, extractor, tx) = setup();
        let extractor3 =
            EdgeSetExtractor::new(extractor.config().clone().with_edge_sets_per_message(3));
        let mut rng = StdRng::seed_from_u64(12);
        let env = Environment::default();
        let mut scratch = ScratchArena::new();
        for sa in [0x05u8, 0x42, 0xEE] {
            let wire = WireFrame::encode(&frame_with_sa(sa));
            let trace = synth.synthesize(wire.bits(), &tx, &env, &mut rng);
            let samples = trace.to_f64();
            for ex in [&extractor, &extractor3] {
                let fresh = ex.extract(&samples).unwrap();
                let got_sa = ex.extract_into(&samples, &mut scratch).unwrap();
                assert_eq!(got_sa, fresh.sa);
                let fresh_bits: Vec<u64> = fresh
                    .edge_set
                    .samples()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let reused_bits: Vec<u64> = scratch.edge_set.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    reused_bits, fresh_bits,
                    "scratch path diverged for sa {sa:#x}"
                );
            }
        }
    }

    #[test]
    fn extraction_is_deterministic_per_trace() {
        let (synth, extractor, tx) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let wire = WireFrame::encode(&frame_with_sa(0x42));
        let trace = synth.synthesize(wire.bits(), &tx, &Environment::default(), &mut rng);
        let samples = trace.to_f64();
        assert_eq!(
            extractor.extract(&samples).unwrap(),
            extractor.extract(&samples).unwrap()
        );
    }

    #[test]
    fn cluster_threshold_bisects_extremes_of_first_half() {
        let samples = vec![0.0, 100.0, 50.0, 50.0, 999.0, 999.0];
        // First half (ceil(6/2) = 3 samples): min 0, max 100 → 50.
        assert_eq!(
            cluster_extraction_threshold(&samples).to_bits(),
            50.0_f64.to_bits()
        );
    }

    #[test]
    fn with_threshold_overrides_only_threshold() {
        let (_, extractor, _) = setup();
        let custom = extractor.with_threshold(1234.5);
        assert_eq!(
            custom.config().bit_threshold.to_bits(),
            1234.5_f64.to_bits()
        );
        assert_eq!(custom.config().prefix_len, extractor.config().prefix_len);
    }

    #[test]
    fn works_at_vehicle_a_rate_and_resolution() {
        let mut rng = StdRng::seed_from_u64(10);
        let tx = TransceiverModel::sample_new(&mut rng);
        let synth = FrameSynthesizer::new(250_000, AdcConfig::vehicle_a());
        let config = VProfileConfig::for_adc(synth.adc(), 250_000);
        let extractor = EdgeSetExtractor::new(config);
        let wire = WireFrame::encode(&frame_with_sa(0x99));
        let trace = synth.synthesize(wire.bits(), &tx, &Environment::default(), &mut rng);
        let extraction = extractor.extract(&trace.to_f64()).unwrap();
        assert_eq!(extraction.sa, SourceAddress(0x99));
        assert_eq!(extraction.edge_set.dim(), 64);
    }

    #[test]
    fn works_on_downsampled_low_resolution_traces() {
        // The Tables 4.6/4.7 path: capture high, reduce in software.
        let mut rng = StdRng::seed_from_u64(11);
        let tx = TransceiverModel::sample_new(&mut rng);
        let synth = FrameSynthesizer::new(250_000, AdcConfig::vehicle_a());
        let wire = WireFrame::encode(&frame_with_sa(0x31));
        let trace = synth.synthesize(wire.bits(), &tx, &Environment::default(), &mut rng);
        let reduced = trace.downsample(8).unwrap().requantize(10).unwrap(); // 2.5 MS/s @ 10 bit
        let config = VProfileConfig::for_adc(reduced.adc(), 250_000);
        let extractor = EdgeSetExtractor::new(config);
        let extraction = extractor.extract(&reduced.to_f64()).unwrap();
        assert_eq!(extraction.sa, SourceAddress(0x31));
    }

    /// The block-folded resynchronization scan must agree with the
    /// per-sample `rposition` it replaced on every input, NaN lanes and
    /// both polarities included.
    #[test]
    fn rfind_dominance_matches_scalar_rposition() {
        // splitmix64, so the streams are deterministic without a dev-dep.
        let mut state = 0x7e5b_c0de_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let threshold = 1500.0;
        for len in 0..64 {
            for _ in 0..8 {
                let s: Vec<f64> = (0..len)
                    .map(|_| match next() % 16 {
                        0 => 3000.0,
                        1 => f64::NAN,
                        2 => threshold, // exactly at the decision boundary
                        _ => 100.0,
                    })
                    .collect();
                for dominant in [true, false] {
                    assert_eq!(
                        rfind_dominance(&s, threshold, dominant),
                        s.iter().rposition(|&v| (v >= threshold) == dominant),
                        "len={len} dominant={dominant} s={s:?}"
                    );
                }
            }
        }
    }
}
