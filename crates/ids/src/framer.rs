//! Frame-boundary detection in a continuous raw sample stream.
//!
//! The bus idles recessive; a frame starts at the first dominant sample
//! (SOF) and, thanks to bit stuffing, never contains more than five
//! consecutive recessive *data* bits until the CRC delimiter. A recessive
//! run much longer than that therefore marks end-of-frame (the monitor sees
//! EOF + intermission ≥ 10 recessive bits).

use serde::{Deserialize, Serialize};

use crate::scan;

/// Splits a continuous sample stream into per-frame windows.
///
/// Feed samples incrementally with [`StreamFramer::push`]; completed frame
/// windows (including a few bits of leading idle, which Algorithm 1's SOF
/// search expects) are returned as they close.
///
/// This is the reference framer, behind [`crate::IdsEngine::process_samples`].
/// [`crate::IdsPipeline`] runs the same state machine as a splitter on the
/// feeding thread and scores its windows in place, without owned copies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamFramer {
    /// Samples per bit.
    bit_width: f64,
    /// Dominant/recessive decision threshold (ADC code units).
    threshold: f64,
    /// Idle gap, in bits, that closes a frame.
    end_gap_bits: f64,
    /// Leading idle samples retained before SOF.
    lead_in: usize,
    /// Internal buffer of samples not yet emitted.
    buffer: Vec<f64>,
    /// Index into `buffer` where the current frame's SOF sits, if a frame
    /// is open.
    sof_at: Option<usize>,
    /// Length of the current trailing recessive run, in samples.
    recessive_run: usize,
    /// Total samples consumed (for event timestamps).
    consumed: u64,
}

impl StreamFramer {
    /// Creates a framer.
    ///
    /// # Panics
    ///
    /// Panics if `bit_width < 2.0` samples.
    pub fn new(bit_width: f64, threshold: f64) -> Self {
        assert!(bit_width >= 2.0, "need at least 2 samples per bit");
        StreamFramer {
            bit_width,
            threshold,
            end_gap_bits: 8.0,
            lead_in: (2.0 * bit_width) as usize,
            buffer: Vec::new(),
            sof_at: None,
            recessive_run: 0,
            consumed: 0,
        }
    }

    /// Total samples consumed so far.
    pub fn samples_consumed(&self) -> u64 {
        self.consumed
    }

    /// Pushes a chunk of samples; returns every frame window completed by
    /// this chunk, each paired with the stream position of its first
    /// sample.
    ///
    /// The chunk is consumed in *runs*, not sample by sample: idle spans
    /// are skipped with one vectorizable threshold scan and copied into the
    /// buffer with one `extend_from_slice` (trimmed to the lead-in tail
    /// once per span rather than once per sample), and in-frame spans use
    /// the fused block-max gap search ([`scan::gap_close`]) — a close
    /// needs `end_gap` consecutive recessive samples, and the search folds
    /// eight lanes per step to find where that run completes. A closed frame's
    /// window is assembled directly from the buffered head plus the in-chunk
    /// tail (one copy of the body, not two). Output is identical to the
    /// historical per-sample loop for every chunking of the stream.
    // xtask: hot-path
    pub fn push(&mut self, samples: &[f64]) -> Vec<(u64, Vec<f64>)> {
        // xtask: allow(hot-path-alloc): an empty Vec does not touch the heap; it only grows when a frame closes and is moved out to the caller
        let mut out = Vec::new();
        self.push_into(samples, &mut out);
        out
    }

    /// [`StreamFramer::push`] into a caller-owned output vector, so a
    /// steady-state caller can reuse one scratch allocation across chunks.
    // xtask: hot-path
    pub fn push_into(&mut self, samples: &[f64], out: &mut Vec<(u64, Vec<f64>)>) {
        let end_gap = (self.end_gap_bits * self.bit_width) as usize;
        let mut i = 0usize;
        while i < samples.len() {
            if self.sof_at.is_none() {
                // Idle: find the next dominant sample (SOF), keeping only a
                // lead-in tail of the idle span before it.
                let sof_off = scan::find_dominant(&samples[i..], self.threshold);
                let idle_len = sof_off.unwrap_or(samples.len() - i);
                self.consumed += idle_len as u64;
                if idle_len >= self.lead_in {
                    // The span alone covers the lead-in: whatever idle tail
                    // the buffer held is superseded, skip copying the rest.
                    self.buffer.clear();
                    self.buffer
                        .extend_from_slice(&samples[i + idle_len - self.lead_in..i + idle_len]);
                } else {
                    self.buffer.extend_from_slice(&samples[i..i + idle_len]);
                    if self.buffer.len() > self.lead_in {
                        let excess = self.buffer.len() - self.lead_in;
                        self.buffer.drain(..excess);
                    }
                }
                i += idle_len;
                let Some(_) = sof_off else {
                    break; // chunk was pure idle
                };
                self.sof_at = Some(self.buffer.len());
                self.recessive_run = 0;
                // Fall through: `i` points at the SOF sample, handled by the
                // in-frame branch below.
            }
            // In frame: find the first offset (into `rel`) where the
            // trailing recessive run reaches `end_gap` — one fused forward
            // block pass ([`scan::gap_close`]) that grows the run a whole
            // 8-lane block at a time through recessive spans and restarts
            // it at each block's trailing recessive tail otherwise.
            let rel = &samples[i..];
            match scan::gap_close(rel, self.threshold, end_gap, self.recessive_run) {
                Ok(k) => {
                    // Frame closed: emit from lead-in before SOF through the
                    // closing sample, copying the in-chunk body straight
                    // into the window.
                    self.consumed += (k + 1) as u64;
                    let sof = self.sof_at.take().unwrap_or(0);
                    let start = sof.saturating_sub(self.lead_in);
                    // xtask: allow(hot-path-alloc): one buffer per closed frame whose ownership moves into the emitted window, the contract of this owned-window API; the pipeline never frames through it (workers score splitter segments in place), which alloc_audit's pipeline row gates at < 1 allocation per frame
                    let mut window = Vec::with_capacity(self.buffer.len() - start + k + 1);
                    window.extend_from_slice(&self.buffer[start..]);
                    window.extend_from_slice(&samples[i..=i + k]);
                    let stream_pos = self.consumed - window.len() as u64;
                    out.push((stream_pos, window));
                    self.buffer.clear();
                    self.recessive_run = 0;
                    i += k + 1;
                }
                Err(run_out) => {
                    // Chunk ends mid-frame: buffer the rest and carry the
                    // trailing recessive run.
                    self.recessive_run = run_out;
                    self.buffer.extend_from_slice(rel);
                    self.consumed += rel.len() as u64;
                    break;
                }
            }
        }
    }

    /// Flushes a trailing frame that never saw its closing idle gap (e.g.
    /// at end of capture). Returns `None` when no frame is open.
    // xtask: cold
    pub fn flush(&mut self) -> Option<(u64, Vec<f64>)> {
        let sof = self.sof_at.take()?;
        let start = sof.saturating_sub(self.lead_in);
        let window = self.buffer[start..].to_vec();
        let stream_pos = self.consumed - window.len() as u64;
        self.buffer.clear();
        self.recessive_run = 0;
        Some((stream_pos, window))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds an idealized frame window: `idle` recessive samples, then the
    /// bit pattern at 4 samples/bit (0 = dominant/high code).
    fn stream(idle: usize, bits: &[bool]) -> Vec<f64> {
        let mut out = vec![100.0; idle];
        for &b in bits {
            let level = if b { 100.0 } else { 3000.0 };
            out.extend(std::iter::repeat_n(level, 4));
        }
        out
    }

    fn framer() -> StreamFramer {
        StreamFramer::new(4.0, 1500.0)
    }

    #[test]
    fn single_frame_is_emitted_after_idle_gap() {
        let mut f = framer();
        // SOF + alternating bits, then a long idle.
        let bits = [false, true, false, true, false];
        let mut s = stream(40, &bits);
        s.extend(vec![100.0; 40]);
        let frames = f.push(&s);
        assert_eq!(frames.len(), 1);
        let (_, window) = &frames[0];
        // Window contains the dominant samples.
        assert!(window.iter().any(|&v| v > 1500.0));
    }

    #[test]
    fn stuffing_length_runs_do_not_split_frames() {
        let mut f = framer();
        // A frame with a 5-bit recessive run inside (legal under stuffing).
        let mut bits = vec![false];
        bits.extend([true; 5]);
        bits.extend([false, false]);
        let mut s = stream(40, &bits);
        s.extend(vec![100.0; 40]);
        let frames = f.push(&s);
        assert_eq!(frames.len(), 1, "5-bit recessive run must not split");
    }

    #[test]
    fn multiple_frames_are_separated() {
        let mut f = framer();
        let bits = [false, true, false];
        let mut s = Vec::new();
        for _ in 0..3 {
            s.extend(stream(40, &bits));
        }
        s.extend(vec![100.0; 40]);
        let frames = f.push(&s);
        assert_eq!(frames.len(), 3);
        // Positions are strictly increasing.
        assert!(frames.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn chunked_input_matches_single_push() {
        let bits = [false, true, true, false, true];
        let mut s = Vec::new();
        for _ in 0..2 {
            s.extend(stream(40, &bits));
        }
        s.extend(vec![100.0; 40]);

        let mut whole = framer();
        let expected = whole.push(&s);

        let mut chunked = framer();
        let mut got = Vec::new();
        for chunk in s.chunks(7) {
            got.extend(chunked.push(chunk));
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn flush_recovers_unterminated_frame() {
        let mut f = framer();
        let s = stream(40, &[false, true, false]);
        assert!(f.push(&s).is_empty());
        let flushed = f.flush().expect("open frame");
        assert!(flushed.1.iter().any(|&v| v > 1500.0));
        assert!(f.flush().is_none());
    }

    #[test]
    fn pure_idle_emits_nothing_and_bounds_memory() {
        let mut f = framer();
        for _ in 0..100 {
            assert!(f.push(&vec![100.0; 1000]).is_empty());
        }
        // Internal buffer must not grow with idle time.
        assert!(f.buffer.len() <= f.lead_in + 1);
    }

    #[test]
    fn lead_in_is_preserved_before_sof() {
        let mut f = framer();
        let mut s = stream(40, &[false, false, true]);
        s.extend(vec![100.0; 40]);
        let frames = f.push(&s);
        let (_, window) = &frames[0];
        // The first lead-in samples are recessive idle.
        assert!(window[..8].iter().all(|&v| v < 1500.0));
    }
}
