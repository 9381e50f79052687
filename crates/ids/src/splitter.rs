//! Frame location in a continuous raw sample stream: the one framing
//! state machine.
//!
//! The bus idles recessive; a frame starts at the first dominant sample
//! (SOF) and, thanks to bit stuffing, never contains more than five
//! consecutive recessive *data* bits until the CRC delimiter. A recessive
//! run much longer than that therefore marks end-of-frame (the monitor sees
//! EOF + intermission ≥ 10 recessive bits). Each window keeps a short idle
//! lead-in before its SOF, which Algorithm 1's SOF search expects.
//!
//! [`FrameSplitter`] runs that idle → SOF → gap-close machine over shared
//! chunks and emits [`RawSegment`]s: zero-copy `Arc` spans of the chunks a
//! frame touches, `head ++ mid ++ tail` being the frame's window and
//! `base` its stream position. [`crate::IdsPipeline::feed`] runs one
//! splitter on the calling thread and peeks each segment's claimed source
//! address for shard routing; workers score the segments in place and
//! assemble ([`RawSegment::assemble_into`]) only those that straddle a
//! chunk boundary. [`StreamFramer`] is the owned-window front end the
//! engines, tests and fuzz targets frame with.
//!
//! The machine consumes runs, not samples: an idle span is one block
//! threshold scan ([`scan::find_dominant`]) with one lead-in trim, and a
//! frame body is one gap-skip close search ([`scan::gap_close`]). Its
//! windows, positions and sample accounting equal those of the per-sample
//! [`scan::ReferenceFramer`] for every chunking of every stream.

use std::sync::Arc;

use crate::scan;

/// A borrowed range of a shared sample chunk.
#[derive(Debug, Clone)]
pub(crate) struct ChunkSpan {
    /// The chunk the span borrows; shared by every segment touching it.
    pub chunk: Arc<Vec<f64>>,
    /// Start of the range (inclusive).
    pub start: usize,
    /// End of the range (exclusive).
    pub end: usize,
}

impl ChunkSpan {
    /// The spanned samples.
    pub fn as_slice(&self) -> &[f64] {
        self.chunk.get(self.start..self.end).unwrap_or(&[])
    }

    /// Samples in the span.
    fn len(&self) -> usize {
        self.end - self.start
    }
}

/// One frame window, as split: an owned `head` only for frames spanning
/// three or more chunks (or the flushed final frame), a zero-copy `mid`
/// span of the previous chunk when the frame straddles one boundary, and
/// the in-chunk `tail` span. `head ++ mid ++ tail` is the window and
/// `base` its absolute stream position.
#[derive(Debug, Clone)]
pub(crate) struct RawSegment {
    /// Samples owned from chunks older than `mid` (only frames spanning
    /// three or more chunks pay this copy). Almost always empty.
    pub head: Vec<f64>,
    /// Retained span of the previous chunk (trimmed idle lead-in and any
    /// frame body), shared zero-copy; `None` when the frame closed in the
    /// chunk it started in.
    pub mid: Option<ChunkSpan>,
    /// The in-chunk range; its last sample is the one that completed the
    /// closing idle gap.
    pub tail: ChunkSpan,
    /// Absolute stream position of the segment's first sample.
    pub base: u64,
    /// Offset of the frame's SOF sample from the segment's first sample.
    pub sof: usize,
    /// Claimed source address for shard routing. The splitter leaves
    /// `0xFF` (the J1939 global address); the feed router overwrites it
    /// with its peek, which also reads `0xFF` when the arbitration field
    /// cannot be decoded.
    pub sa: u8,
}

impl RawSegment {
    /// The previous-chunk sample range (empty when the segment has none).
    pub fn mid_slice(&self) -> &[f64] {
        self.mid.as_ref().map_or(&[], ChunkSpan::as_slice)
    }

    /// The in-chunk sample range (empty for a flushed segment). For a
    /// segment that does not [`straddle`](RawSegment::straddles) a chunk
    /// boundary this is the whole window, borrowed in place.
    pub fn tail_slice(&self) -> &[f64] {
        self.tail.as_slice()
    }

    /// Samples in the window.
    fn len(&self) -> usize {
        self.head.len() + self.mid.as_ref().map_or(0, ChunkSpan::len) + self.tail.len()
    }

    /// Whether the window spans more than the in-chunk `tail`, and must be
    /// assembled with [`RawSegment::assemble_into`] to be read as one slice.
    pub fn straddles(&self) -> bool {
        !self.head.is_empty() || self.mid.is_some()
    }

    /// Copies the whole window (`head ++ mid ++ tail`) into `window`,
    /// replacing its contents; a reused buffer stops allocating once it
    /// has grown to the longest straddling frame.
    // xtask: hot-path
    pub fn assemble_into(&self, window: &mut Vec<f64>) {
        window.clear();
        window.extend_from_slice(&self.head);
        window.extend_from_slice(self.mid_slice());
        window.extend_from_slice(self.tail_slice());
    }
}

/// Splits raw sample chunks into per-frame [`RawSegment`]s.
#[derive(Debug, Clone)]
pub(crate) struct FrameSplitter {
    /// Samples per bit.
    bit_width: f64,
    /// Dominant/recessive decision threshold (ADC code units).
    threshold: f64,
    /// Idle gap, in bits, that closes a frame.
    end_gap_bits: f64,
    /// Leading idle samples retained before SOF.
    lead_in: usize,
    /// Owned samples from chunks before `prev` (a frame spanning three
    /// or more chunks).
    carry: Vec<f64>,
    /// Retained span of the previous chunk, held zero-copy via its `Arc`.
    /// `carry ++ prev` plus the current chunk from the retained start is
    /// the idle lead-in or open frame seen so far.
    prev: Option<ChunkSpan>,
    /// Offset of the open frame's SOF from the segment start, if a frame
    /// is open. Fixed once in-frame: nothing is trimmed after SOF.
    sof_seg: Option<usize>,
    /// Length of the current trailing recessive run, in samples.
    recessive_run: usize,
    /// Total samples consumed (absolute stream position).
    consumed: u64,
}

impl FrameSplitter {
    /// Creates a splitter for `bit_width` samples per bit, reading
    /// samples `>= threshold` as dominant.
    ///
    /// # Panics
    ///
    /// Panics if `bit_width < 2.0` samples.
    pub fn new(bit_width: f64, threshold: f64) -> Self {
        assert!(bit_width >= 2.0, "need at least 2 samples per bit");
        FrameSplitter {
            bit_width,
            threshold,
            end_gap_bits: 8.0,
            lead_in: (2.0 * bit_width) as usize,
            carry: Vec::new(),
            prev: None,
            sof_seg: None,
            recessive_run: 0,
            consumed: 0,
        }
    }

    /// Splits one chunk, appending a [`RawSegment`] to `out` for every
    /// frame that closes inside it. Segments borrow `chunk` via `Arc`;
    /// cross-chunk state is carried internally.
    // xtask: hot-path
    pub fn split_chunk(&mut self, chunk: &Arc<Vec<f64>>, out: &mut Vec<RawSegment>) {
        let samples: &[f64] = chunk.as_slice();
        let end_gap = (self.end_gap_bits * self.bit_width) as usize;
        let mut i = 0usize;
        // Chunk index where the retained (not-yet-carried) span begins.
        let mut span_start = 0usize;
        while i < samples.len() {
            if self.sof_seg.is_none() {
                // Idle: find the SOF, keeping only a lead-in tail of the
                // idle span over carry + previous span + in-chunk span.
                let sof_off = scan::find_dominant(&samples[i..], self.threshold);
                let idle_len = sof_off.unwrap_or(samples.len() - i);
                self.consumed += idle_len as u64;
                let in_chunk = i + idle_len - span_start;
                let total = self.retained_len() + in_chunk;
                if total > self.lead_in {
                    // Trim front-first: the owned carry, then the
                    // previous-chunk span, then the in-chunk span.
                    let mut excess = total - self.lead_in;
                    let from_carry = excess.min(self.carry.len());
                    if from_carry == self.carry.len() {
                        self.carry.clear();
                    } else {
                        self.carry.drain(..from_carry);
                    }
                    excess -= from_carry;
                    if excess > 0 {
                        if let Some(prev) = &mut self.prev {
                            let from_prev = excess.min(prev.len());
                            prev.start += from_prev;
                            excess -= from_prev;
                            if prev.len() == 0 {
                                self.prev = None;
                            }
                        }
                    }
                    span_start += excess;
                }
                i += idle_len;
                if sof_off.is_none() {
                    break; // chunk was pure idle; retain below
                }
                self.sof_seg = Some(self.retained_len() + (i - span_start));
                self.recessive_run = 0;
            }
            // In frame: one fused forward block pass finds where the
            // closing idle gap completes, or reports the trailing
            // recessive run.
            let rel = &samples[i..];
            match scan::gap_close(rel, self.threshold, end_gap, self.recessive_run) {
                Ok(k) => {
                    // Frame closed: hand the carry off as the segment head
                    // and share the chunk as its tail.
                    self.consumed += (k + 1) as u64;
                    let tail_end = i + k + 1;
                    let mut segment = RawSegment {
                        head: std::mem::take(&mut self.carry),
                        mid: self.prev.take(),
                        tail: ChunkSpan {
                            // xtask: allow(hot-path-alloc): Arc refcount bump shares the chunk, no heap allocation
                            chunk: Arc::clone(chunk),
                            start: span_start,
                            end: tail_end,
                        },
                        base: 0,
                        sof: self.sof_seg.take().unwrap_or(0),
                        sa: 0xFF,
                    };
                    segment.base = self.consumed - segment.len() as u64;
                    out.push(segment);
                    self.recessive_run = 0;
                    i = tail_end;
                    span_start = tail_end;
                }
                Err(run_out) => {
                    // Chunk ends mid-frame: carry the trailing recessive
                    // run and retain below.
                    self.recessive_run = run_out;
                    self.consumed += rel.len() as u64;
                    i = samples.len();
                }
            }
        }
        // Retain this chunk's suffix zero-copy; a still-retained previous
        // chunk (the open frame now spans a third chunk) folds into the
        // owned carry first, preserving sample order.
        if span_start < samples.len() {
            if let Some(prev) = self.prev.take() {
                self.carry.extend_from_slice(prev.as_slice());
            }
            self.prev = Some(ChunkSpan {
                // xtask: allow(hot-path-alloc): Arc::clone bumps a refcount, it does not allocate
                chunk: Arc::clone(chunk),
                start: span_start,
                end: samples.len(),
            });
        }
    }

    /// Samples retained from earlier chunks (owned carry plus the
    /// previous-chunk span).
    fn retained_len(&self) -> usize {
        self.carry.len() + self.prev.as_ref().map_or(0, ChunkSpan::len)
    }

    /// Flushes a trailing frame that never saw its closing idle gap (e.g.
    /// at end of capture) as a head-only segment. `None` when idle.
    // xtask: cold
    pub fn flush(&mut self) -> Option<RawSegment> {
        let sof = self.sof_seg.take()?;
        // Fold the retained previous-chunk span into the owned carry so
        // the flushed segment is self-contained in `head`.
        if let Some(prev) = self.prev.take() {
            self.carry.extend_from_slice(prev.as_slice());
        }
        let head = std::mem::take(&mut self.carry);
        self.recessive_run = 0;
        Some(RawSegment {
            base: self.consumed - head.len() as u64,
            head,
            mid: None,
            tail: ChunkSpan {
                chunk: Arc::new(Vec::new()),
                start: 0,
                end: 0,
            },
            sof,
            sa: 0xFF,
        })
    }

    /// Total samples consumed so far.
    pub fn samples_consumed(&self) -> u64 {
        self.consumed
    }
}

/// Splits a continuous sample stream into owned per-frame windows.
///
/// Feed samples incrementally with [`StreamFramer::push`]; completed frame
/// windows (including a few bits of leading idle, which Algorithm 1's SOF
/// search expects) are returned as they close, each with the stream
/// position of its first sample. This is the pipeline's frame splitter
/// behind an owned-window API: each push copies the chunk once into a
/// shared buffer and assembles every closed frame into its own `Vec`.
/// [`crate::IdsPipeline`] runs the splitter itself and scores frames in
/// place, without these copies.
#[derive(Debug, Clone)]
pub struct StreamFramer {
    splitter: FrameSplitter,
    /// Segments of the chunk being pushed; empty between pushes.
    segments: Vec<RawSegment>,
}

impl StreamFramer {
    /// Creates a framer for `bit_width` samples per bit, reading samples
    /// `>= threshold` as dominant.
    ///
    /// # Panics
    ///
    /// Panics if `bit_width < 2.0` samples.
    pub fn new(bit_width: f64, threshold: f64) -> Self {
        StreamFramer {
            splitter: FrameSplitter::new(bit_width, threshold),
            segments: Vec::new(),
        }
    }

    /// Total samples consumed so far.
    pub fn samples_consumed(&self) -> u64 {
        self.splitter.samples_consumed()
    }

    /// Pushes a chunk of samples; returns every frame window completed by
    /// this chunk, each paired with the stream position of its first
    /// sample.
    // xtask: cold
    pub fn push(&mut self, samples: &[f64]) -> Vec<(u64, Vec<f64>)> {
        let mut out = Vec::new();
        self.push_into(samples, &mut out);
        out
    }

    /// [`StreamFramer::push`] into a caller-owned output vector.
    // xtask: cold
    pub fn push_into(&mut self, samples: &[f64], out: &mut Vec<(u64, Vec<f64>)>) {
        self.splitter
            .split_chunk(&Arc::new(samples.to_vec()), &mut self.segments);
        out.extend(
            self.segments
                .drain(..)
                .map(|segment| owned_window(&segment)),
        );
    }

    /// Flushes a trailing frame that never saw its closing idle gap (e.g.
    /// at end of capture). Returns `None` when no frame is open.
    // xtask: cold
    pub fn flush(&mut self) -> Option<(u64, Vec<f64>)> {
        self.splitter.flush().map(|segment| owned_window(&segment))
    }
}

/// A segment's window as an owned `Vec`, with its stream position.
fn owned_window(segment: &RawSegment) -> (u64, Vec<f64>) {
    let mut window = Vec::with_capacity(segment.len());
    segment.assemble_into(&mut window);
    (segment.base, window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ReferenceFramer;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        // Retained samples must not grow with idle time.
        assert!(f.splitter.retained_len() <= f.splitter.lead_in + 1);
        assert!(f.flush().is_none());
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

    const THRESHOLD: f64 = 1500.0;

    /// A random stream around a `gap`-sample closing gap: idle runs,
    /// dominant bursts, recessive runs within two samples of the gap, and
    /// NaN, ±∞ and threshold-equal samples. It ends wherever the last
    /// piece does, often mid-frame.
    fn random_stream(seed: u64, gap: usize, len: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = Vec::with_capacity(len + 3 * gap);
        while s.len() < len {
            let (level, run) = match rng.random_range(0..9u32) {
                0 | 1 => (100.0, rng.random_range(0..3 * gap)),
                2 | 3 => (100.0, rng.random_range(gap.saturating_sub(2)..=gap + 1)),
                4 | 5 => (3000.0, rng.random_range(1..12)),
                6 => (f64::NAN, rng.random_range(1..4)),
                7 => (THRESHOLD, 1),
                _ => match rng.random_range(0..3u32) {
                    0 => (f64::INFINITY, 1),
                    1 => (f64::NEG_INFINITY, rng.random_range(1..4)),
                    _ => (THRESHOLD - 1e-9, 1),
                },
            };
            s.extend(std::iter::repeat_n(level, run));
        }
        s
    }

    /// Splits `s` at `cuts` (chunk lengths, cycled), flushes, and returns
    /// the assembled windows with the samples the splitter consumed.
    fn split_at(s: &[f64], bit_width: f64, cuts: &[usize]) -> (Vec<(u64, Vec<f64>, usize)>, u64) {
        let mut splitter = FrameSplitter::new(bit_width, THRESHOLD);
        let mut segments = Vec::new();
        let mut at = 0;
        for &cut in cuts.iter().cycle() {
            if at >= s.len() {
                break;
            }
            let end = (at + cut).min(s.len());
            splitter.split_chunk(&Arc::new(s[at..end].to_vec()), &mut segments);
            at = end;
        }
        segments.extend(splitter.flush());
        let mut window = Vec::new();
        let windows = segments
            .iter()
            .map(|segment| {
                segment.assemble_into(&mut window);
                if !segment.straddles() {
                    assert!(bits(segment.tail_slice()) == bits(&window));
                }
                (segment.base, window.clone(), segment.sof)
            })
            .collect();
        (windows, splitter.samples_consumed())
    }

    fn bits(window: &[f64]) -> Vec<u64> {
        window.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        /// Over random streams and chunkings — every uniform chunk length
        /// and random cut sequences — the splitter's windows equal the
        /// per-sample reference framer's bit for bit and at the same
        /// positions, each segment's SOF offset points at its first
        /// dominant sample, and every sample is consumed exactly once.
        #[test]
        fn splitting_matches_the_per_sample_reference_for_every_chunking(
            seed in any::<u64>(),
            quarter_bits in 8u32..33,
            len in 0usize..700,
            cuts in collection::vec(1usize..90, 1..12),
        ) {
            let bit_width = f64::from(quarter_bits) / 4.0;
            let gap = (8.0 * bit_width) as usize;
            let s = random_stream(seed, gap, len);
            let mut reference = ReferenceFramer::new(bit_width, THRESHOLD);
            let mut expected = reference.push(&s);
            expected.extend(reference.flush());
            prop_assert_eq!(reference.samples_consumed(), s.len() as u64);
            let expected: Vec<(u64, Vec<u64>)> =
                expected.iter().map(|(pos, w)| (*pos, bits(w))).collect();

            let chunkings = (1..=s.len().max(1)).map(|n| vec![n]).chain([cuts]);
            for chunking in chunkings {
                let (windows, consumed) = split_at(&s, bit_width, &chunking);
                prop_assert_eq!(consumed, s.len() as u64, "chunks {:?}", chunking);
                let got: Vec<(u64, Vec<u64>)> =
                    windows.iter().map(|(pos, w, _)| (*pos, bits(w))).collect();
                prop_assert_eq!(&got, &expected, "chunks {:?}", chunking);
                for (_, window, sof) in &windows {
                    prop_assert_eq!(scan::find_dominant_scalar(window, THRESHOLD), Some(*sof));
                }
            }

            let mut framer = StreamFramer::new(bit_width, THRESHOLD);
            let mut owned = Vec::new();
            for chunk in s.chunks(7) {
                framer.push_into(chunk, &mut owned);
            }
            owned.extend(framer.flush());
            prop_assert_eq!(framer.samples_consumed(), s.len() as u64);
            let owned: Vec<(u64, Vec<u64>)> =
                owned.iter().map(|(pos, w)| (*pos, bits(w))).collect();
            prop_assert_eq!(owned, expected);
        }
    }
}
