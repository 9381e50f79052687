//! The continuous-tap stream fixture: captured frame traces laid out on
//! one sample timeline at their bus times, with recessive idle between
//! them, plus per-frame ground truth.
//!
//! The existing throughput harnesses concatenate traces back to back,
//! which drops the idle bus between frames. A deployed monitor samples
//! the bus continuously (10 MS/s, thesis §4.3), so it also scans every
//! idle sample; this fixture restores them.

use vprofile_vehicle::CapturedFrame;

/// Samples per `feed` call, as in the existing harnesses (6.6 ms of bus
/// time at 10 MS/s).
pub const CHUNK: usize = 65_536;

/// Idle bits the synthesizer renders before SOF.
const LEAD_BITS: usize = 4;
/// Bits from the start of the last EOF bit to the end of a trace: the
/// last EOF bit plus the synthesizer's two trailing idle bits.
const TAIL_BITS: usize = 3;

/// Ground truth for one frame on the tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTruth {
    /// Stream sample of the frame's SOF.
    pub sof: u64,
    /// Stream sample at which the last EOF bit starts. Transition jitter
    /// of up to a quarter bit lets the monitor see the closing idle gap
    /// a few samples before EOF nominally ends, so latency is measured
    /// from this earlier, safe sample.
    pub eof: u64,
    /// Claimed source address.
    pub sa: u8,
    /// Transmitted by an attacker device.
    pub attack: bool,
    /// The trace was corrupted by an injected capture fault.
    pub faulted: bool,
}

/// Marks attached to each captured frame when building a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Marks {
    /// The frame is an injected attack frame.
    pub attack: bool,
    /// The frame's trace was corrupted by an injected fault.
    pub faulted: bool,
}

/// One pass of a continuous tap: 12-bit ADC codes whose length is a whole
/// number of [`CHUNK`]s, so passes can be replayed back to back.
#[derive(Debug, Clone)]
pub struct TapStream {
    codes: Vec<i16>,
    frames: Vec<FrameTruth>,
    bus_samples: u64,
    samples_per_bit: u64,
}

impl TapStream {
    /// Places each frame's trace at its SOF bus time (`samples_per_bit`
    /// samples per bit) and fills every gap by repeating the previous
    /// trace's recessive tail. On a saturated bus the next trace's idle
    /// lead-in can overlap the previous trace's idle tail; the overlap is
    /// taken from the previous trace. Samples at or above `threshold` are
    /// dominant.
    ///
    /// # Errors
    ///
    /// When `marks` and `frames` differ in length, a code does not fit 12
    /// bits, or filling or overlapping would touch a dominant sample (the
    /// frames would then not be separable on a real bus).
    pub fn build(
        frames: &[CapturedFrame],
        marks: &[Marks],
        samples_per_bit: usize,
        threshold: f64,
    ) -> Result<TapStream, String> {
        if frames.len() != marks.len() {
            return Err(format!("{} frames but {} marks", frames.len(), marks.len()));
        }
        let Some(first) = frames.first() else {
            return Err("no frames to place".into());
        };
        let tail_len = 2 * samples_per_bit;
        let dominant = |c: i64| c as f64 >= threshold;
        let mut codes: Vec<i16> = Vec::new();
        let mut truths = Vec::with_capacity(frames.len());
        let mut fill: Vec<i16> = Vec::new();
        for (cf, mark) in frames.iter().zip(marks) {
            let trace = cf.trace.codes();
            let bits = cf
                .start_bit_time
                .checked_sub(first.start_bit_time)
                .ok_or("frames are not in bus order".to_string())?;
            let start = usize::try_from(bits).map_err(|e| e.to_string())? * samples_per_bit;
            let skip = codes.len().saturating_sub(start);
            if skip > LEAD_BITS * samples_per_bit
                || trace[..skip.min(trace.len())].iter().any(|&c| dominant(c))
            {
                return Err(format!("frame at bit {bits} overlaps its predecessor"));
            }
            while codes.len() < start {
                let take = (start - codes.len()).min(fill.len());
                if take == 0 {
                    return Err("no idle tail to fill a gap with".into());
                }
                codes.extend_from_slice(&fill[..take]);
            }
            for &c in trace.iter().skip(skip) {
                codes.push(i16::try_from(c).map_err(|_| format!("ADC code {c} exceeds 12 bits"))?);
            }
            fill.clear();
            fill.extend_from_slice(&codes[codes.len().saturating_sub(tail_len)..]);
            if fill.iter().any(|&c| dominant(i64::from(c))) {
                return Err(format!("frame at bit {bits} does not end recessive"));
            }
            let end = codes.len() as u64;
            truths.push(FrameTruth {
                sof: (start + LEAD_BITS * samples_per_bit) as u64,
                eof: end.saturating_sub((TAIL_BITS * samples_per_bit) as u64),
                sa: cf.frame.j1939_id().source_address.raw(),
                attack: mark.attack,
                faulted: mark.faulted,
            });
        }
        let bus_samples = codes.len() as u64;
        let padded = codes.len().div_ceil(CHUNK) * CHUNK;
        while codes.len() < padded {
            let take = (padded - codes.len()).min(fill.len());
            codes.extend_from_slice(&fill[..take]);
        }
        Ok(TapStream {
            codes,
            frames: truths,
            bus_samples,
            samples_per_bit: samples_per_bit as u64,
        })
    }

    /// Ground truth, one entry per frame in bus order.
    pub fn frames(&self) -> &[FrameTruth] {
        &self.frames
    }

    /// Samples that carry bus traffic, before the padding to whole chunks.
    pub fn bus_samples(&self) -> u64 {
        self.bus_samples
    }

    /// Samples per bus bit.
    pub fn samples_per_bit(&self) -> u64 {
        self.samples_per_bit
    }

    /// Samples in one pass (a multiple of [`CHUNK`]).
    pub fn pass_samples(&self) -> u64 {
        self.codes.len() as u64
    }

    /// Chunks in one pass.
    pub fn chunks_per_pass(&self) -> usize {
        self.codes.len() / CHUNK
    }

    /// Chunk `index` of the endless replay (pass after pass), as the
    /// `f64` samples `feed` takes.
    pub fn chunk(&self, index: u64) -> Vec<f64> {
        let at = (index % self.chunks_per_pass() as u64) as usize * CHUNK;
        self.codes[at..at + CHUNK]
            .iter()
            .map(|&c| f64::from(c))
            .collect()
    }

    /// Ground truth of frame `index` of the endless replay, with its
    /// samples shifted to that pass.
    pub fn frame(&self, index: u64) -> FrameTruth {
        let per_pass = self.frames.len() as u64;
        let shift = (index / per_pass) * self.pass_samples();
        let truth = self.frames[(index % per_pass) as usize];
        FrameTruth {
            sof: truth.sof + shift,
            eof: truth.eof + shift,
            ..truth
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vprofile::VProfileConfig;
    use vprofile_ids::StreamFramer;
    use vprofile_vehicle::scenario::stress_fleet;
    use vprofile_vehicle::{Capture, CaptureConfig};

    fn capture(ecus: usize, frames: usize) -> Capture {
        stress_fleet(ecus, 5)
            .capture(&CaptureConfig::default().with_frames(frames).with_seed(6))
            .expect("capture")
    }

    fn build(capture: &Capture) -> TapStream {
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let marks = vec![Marks::default(); capture.len()];
        TapStream::build(
            capture.frames(),
            &marks,
            config.bit_width_samples as usize,
            config.bit_threshold,
        )
        .expect("stream")
    }

    #[test]
    fn stream_spans_the_bus_time_at_ten_megasamples() {
        for ecus in [8, 32] {
            let capture = capture(ecus, 120);
            let stream = build(&capture);
            let frames = capture.frames();
            let (first, last) = (&frames[0], &frames[frames.len() - 1]);
            let span_s = (last.start_bit_time - first.start_bit_time) as f64
                / f64::from(capture.bit_rate_bps());
            let expected = span_s * capture.adc().sample_rate_hz;
            let one_frame = last.trace.len() as f64;
            assert!(
                (stream.bus_samples() as f64 - expected).abs() <= one_frame,
                "{ecus} ECUs: {} samples for {expected} expected",
                stream.bus_samples()
            );
            assert_eq!(stream.pass_samples() % CHUNK as u64, 0);
            assert!(stream.pass_samples() - stream.bus_samples() < CHUNK as u64);
        }
    }

    #[test]
    fn reference_framer_finds_one_window_per_frame() {
        for ecus in [8, 32] {
            let capture = capture(ecus, 150);
            let stream = build(&capture);
            let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
            let mut framer = StreamFramer::new(config.bit_width_samples, config.bit_threshold);
            let mut windows = Vec::new();
            for chunk in 0..stream.chunks_per_pass() as u64 {
                framer.push_into(&stream.chunk(chunk), &mut windows);
            }
            assert_eq!(windows.len(), stream.frames().len(), "{ecus} ECUs");
            let bit = config.bit_width_samples as u64;
            for ((pos, window), truth) in windows.iter().zip(stream.frames()) {
                let close = pos + window.len() as u64;
                assert!(pos + 2 * bit <= truth.sof + bit && truth.sof <= pos + 3 * bit);
                assert!(truth.eof < close, "window closes before its EOF sample");
            }
        }
    }

    #[test]
    fn replay_shifts_truth_by_whole_passes() {
        let capture = capture(8, 40);
        let stream = build(&capture);
        let n = stream.frames().len() as u64;
        let again = stream.frame(n + 3);
        assert_eq!(again.sof, stream.frame(3).sof + stream.pass_samples());
        assert_eq!(
            stream.chunk(stream.chunks_per_pass() as u64),
            stream.chunk(0)
        );
    }
}
