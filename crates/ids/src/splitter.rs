//! Raw-chunk frame splitting: the pipeline's only framing state machine.
//!
//! [`crate::IdsPipeline::feed`] runs one [`FrameSplitter`] on the calling
//! thread. It runs the *same* idle/SOF/gap-skip state machine as
//! [`crate::StreamFramer`] (same scans, same lead-in trim, same close
//! condition), but instead of assembling windows it emits [`RawSegment`]s —
//! zero-copy `Arc` spans of the chunks a frame touches — and peeks the
//! claimed source address for shard routing. A segment *is* the framer's
//! window: `head ++ mid ++ tail` equals it sample for sample and `base` is
//! its stream position, so workers score it in place and assemble it
//! ([`RawSegment::assemble_into`]) only when it straddles a chunk boundary.
//!
//! Routing determinism: the SA peek always decodes exactly the slice
//! `stream[sof..=close]` — never a prefix of an unclosed frame — so the
//! routed shard for every frame is a pure function of the stream,
//! independent of how the stream was chunked. When a frame closes inside
//! the chunk it arrived in, the peek borrows the chunk directly; only
//! frames that straddle a chunk boundary are assembled (once, into a
//! reusable scratch) before decoding.

use std::sync::Arc;

use vprofile::EdgeSetExtractor;

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

/// One frame window, as routed by the splitter: an owned `head` only for
/// frames spanning three or more chunks (or the flushed final frame), a
/// zero-copy `mid` span of the previous chunk when the frame straddles one
/// boundary, and the in-chunk `tail` span. `head ++ mid ++ tail` is the
/// framer's window and `base` its absolute stream position.
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
    /// Claimed source address peeked from the arbitration field, `0xFF`
    /// (the J1939 global address) when it cannot be decoded.
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

/// Splits raw sample chunks into per-frame [`RawSegment`]s, mirroring
/// [`crate::StreamFramer`]'s state machine without assembling windows.
#[derive(Debug)]
pub(crate) struct FrameSplitter {
    /// Samples per bit.
    bit_width: f64,
    /// Dominant/recessive decision threshold (ADC code units).
    threshold: f64,
    /// Idle gap, in bits, that closes a frame (same as the framer's).
    end_gap_bits: f64,
    /// Leading idle samples retained before SOF.
    lead_in: usize,
    /// Owned samples from chunks before `prev` (a frame spanning three
    /// or more chunks); mirrors the front of the framer's internal buffer.
    carry: Vec<f64>,
    /// Retained span of the previous chunk, held zero-copy via its `Arc`.
    /// Together `carry + prev + [span_start..]` mirror the framer's
    /// internal buffer exactly (same lead-in trim algebra).
    prev: Option<ChunkSpan>,
    /// Offset of the open frame's SOF from the segment start, if a frame
    /// is open. Fixed once in-frame: nothing is trimmed after SOF.
    sof_seg: Option<usize>,
    /// Length of the current trailing recessive run, in samples.
    recessive_run: usize,
    /// Total samples consumed (absolute stream position).
    consumed: u64,
    /// Reusable assembly buffer for SA peeks on boundary-straddling
    /// frames; grows to the largest straddling frame and stays.
    peek_scratch: Vec<f64>,
}

impl FrameSplitter {
    /// Creates a splitter with the same geometry as
    /// `StreamFramer::new(bit_width, threshold)`.
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
            peek_scratch: Vec::new(),
        }
    }

    /// Splits one chunk, appending a [`RawSegment`] to `out` for every
    /// frame that closes inside it. Segments borrow `chunk` via `Arc`;
    /// cross-chunk state is carried internally.
    // xtask: hot-path
    pub fn split_chunk(
        &mut self,
        chunk: &Arc<Vec<f64>>,
        peeker: &EdgeSetExtractor,
        out: &mut Vec<RawSegment>,
    ) {
        let samples: &[f64] = chunk.as_slice();
        let end_gap = (self.end_gap_bits * self.bit_width) as usize;
        let mut i = 0usize;
        // Chunk index where the retained (not-yet-carried) span begins.
        let mut span_start = 0usize;
        while i < samples.len() {
            if self.sof_seg.is_none() {
                // Idle: find the SOF, keeping only a lead-in tail of the
                // idle span — the same trim the framer applies to its
                // buffer, expressed over carry + in-chunk span.
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
            // In frame: the framer's gap-skip edge search, verbatim — one
            // fused forward block pass that finds where the closing idle
            // gap completes, or reports the trailing recessive run.
            let rel = &samples[i..];
            match scan::gap_close(rel, self.threshold, end_gap, self.recessive_run) {
                Ok(k) => {
                    // Frame closed: peek the SA on exactly
                    // `stream[sof..=close]`, then hand the carry off as the
                    // segment head and share the chunk as its tail.
                    self.consumed += (k + 1) as u64;
                    let tail_end = i + k + 1;
                    let sof = self.sof_seg.take().unwrap_or(0);
                    let sa = self.peek_frame_sa(peeker, samples, span_start, tail_end, sof);
                    let head = std::mem::take(&mut self.carry);
                    let mid = self.prev.take();
                    let seg_len = head.len()
                        + mid.as_ref().map_or(0, ChunkSpan::len)
                        + (tail_end - span_start);
                    out.push(RawSegment {
                        head,
                        mid,
                        tail: ChunkSpan {
                            // xtask: allow(hot-path-alloc): Arc refcount bump shares the chunk, no heap allocation
                            chunk: Arc::clone(chunk),
                            start: span_start,
                            end: tail_end,
                        },
                        base: self.consumed - seg_len as u64,
                        sa,
                    });
                    self.recessive_run = 0;
                    i = tail_end;
                    span_start = tail_end;
                }
                Err(run_out) => {
                    // Chunk ends mid-frame: carry the trailing recessive
                    // run and materialize below.
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

    /// Flushes a trailing open frame as a head-only segment — the window
    /// `StreamFramer::flush` would return. `None` when idle.
    // xtask: cold
    pub fn flush(&mut self, peeker: &EdgeSetExtractor) -> Option<RawSegment> {
        let sof = self.sof_seg.take()?;
        // Fold the retained previous-chunk span into the owned carry so
        // the flushed segment is self-contained in `head`.
        if let Some(prev) = self.prev.take() {
            self.carry.extend_from_slice(prev.as_slice());
        }
        let sa = self
            .carry
            .get(sof..)
            .and_then(|frame| peeker.peek_sa(frame).ok())
            .map(|sa| sa.raw())
            .unwrap_or(0xFF);
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
            sa,
        })
    }

    /// Total samples consumed so far.
    #[cfg(test)]
    pub fn samples_consumed(&self) -> u64 {
        self.consumed
    }

    /// Decodes the claimed SA from exactly `segment[sof..close]` — the
    /// frame slice — borrowing the chunk when the SOF sits inside it and
    /// assembling into the reusable scratch only for straddling frames.
    // xtask: hot-path
    fn peek_frame_sa(
        &mut self,
        peeker: &EdgeSetExtractor,
        samples: &[f64],
        span_start: usize,
        tail_end: usize,
        sof: usize,
    ) -> u8 {
        let carry_len = self.carry.len();
        let retained = self.retained_len();
        // The peek walk reads at most the frame's arbitration prefix: 31
        // unstuffed bits plus worst-case stuffing stay under 41 sampled
        // bits, and resync only ever moves the cursor backward, so a
        // 64-bit cap can never change the walk's outcome. This bounds the
        // scratch assembly for boundary-straddling frames to the prefix
        // instead of the whole window.
        let cap = (64.0 * self.bit_width) as usize;
        let frame: &[f64] = if sof >= retained {
            samples
                .get(span_start + (sof - retained)..tail_end)
                .unwrap_or(&[])
        } else if let Some(prefix) = self
            .prev
            .as_ref()
            .filter(|_| sof >= carry_len)
            .and_then(|prev| prev.as_slice().get(sof - carry_len..sof - carry_len + cap))
        {
            // The whole prefix sits inside the previous chunk's span:
            // peek it in place, no assembly.
            prefix
        } else {
            // SOF sits in retained samples: assemble carry-suffix +
            // previous-chunk span + in-chunk span (at most once per
            // boundary-straddling frame, into the reusable scratch),
            // capped to the prefix the walk can actually read.
            self.peek_scratch.clear();
            if sof < carry_len {
                let piece = self.carry.get(sof..).unwrap_or(&[]);
                self.peek_scratch
                    .extend_from_slice(&piece[..piece.len().min(cap)]);
                if let Some(prev) = &self.prev {
                    let rem = cap - self.peek_scratch.len();
                    let piece = prev.as_slice();
                    self.peek_scratch
                        .extend_from_slice(&piece[..piece.len().min(rem)]);
                }
            } else if let Some(prev) = &self.prev {
                let piece = prev.as_slice().get(sof - carry_len..).unwrap_or(&[]);
                self.peek_scratch
                    .extend_from_slice(&piece[..piece.len().min(cap)]);
            }
            let rem = cap.saturating_sub(self.peek_scratch.len());
            let piece = samples.get(span_start..tail_end).unwrap_or(&[]);
            self.peek_scratch
                .extend_from_slice(&piece[..piece.len().min(rem)]);
            &self.peek_scratch
        };
        peeker.peek_sa(frame).map(|sa| sa.raw()).unwrap_or(0xFF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamFramer;

    fn stream(idle: usize, bits: &[bool]) -> Vec<f64> {
        let mut out = vec![100.0; idle];
        for &b in bits {
            let level = if b { 100.0 } else { 3000.0 };
            out.extend(std::iter::repeat_n(level, 4));
        }
        out
    }

    fn peeker() -> EdgeSetExtractor {
        // 2 MS/s at 500 kbit/s → 4 samples/bit, matching the test streams.
        let adc = vprofile_analog::AdcConfig {
            sample_rate_hz: 2e6,
            ..vprofile_analog::AdcConfig::vehicle_b()
        };
        EdgeSetExtractor::new(vprofile::VProfileConfig::for_adc(&adc, 500_000))
    }

    /// Splits `s` in `chunk_len` pieces (plus the final flush).
    fn split(s: &[f64], chunk_len: usize, peeker: &EdgeSetExtractor) -> Vec<RawSegment> {
        let mut splitter = FrameSplitter::new(4.0, 1500.0);
        let mut segments = Vec::new();
        for chunk in s.chunks(chunk_len) {
            splitter.split_chunk(&Arc::new(chunk.to_vec()), peeker, &mut segments);
        }
        segments.extend(splitter.flush(peeker));
        assert_eq!(splitter.samples_consumed(), s.len() as u64);
        segments
    }

    #[test]
    fn segments_are_the_reference_windows_for_every_chunking() {
        let bits = [false, true, false, false, true, true, false];
        let mut s = Vec::new();
        for _ in 0..4 {
            s.extend(stream(40, &bits));
        }
        s.extend(stream(7, &[false, true, false]));
        // Note: the stream deliberately ends mid-frame to exercise flush.

        let mut reference = StreamFramer::new(4.0, 1500.0);
        let mut expected = reference.push(&s);
        expected.extend(reference.flush());

        let peeker = peeker();
        for chunk_len in [1, 3, 7, 16, 64, 1000, s.len()] {
            let mut window = Vec::new();
            let got: Vec<(u64, Vec<f64>)> = split(&s, chunk_len, &peeker)
                .iter()
                .map(|seg| {
                    seg.assemble_into(&mut window);
                    if !seg.straddles() {
                        assert_eq!(seg.tail_slice(), window.as_slice());
                    }
                    (seg.base, window.clone())
                })
                .collect();
            assert_eq!(got, expected, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn peeked_sa_is_chunking_invariant() {
        let bits = [false, true, false, true, true, false, false, true];
        let mut s = Vec::new();
        for _ in 0..3 {
            s.extend(stream(40, &bits));
        }
        s.extend(vec![100.0; 64]);
        let peeker = peeker();
        let mut reference: Option<Vec<u8>> = None;
        for chunk_len in [2, 5, 33, s.len()] {
            let sas: Vec<u8> = split(&s, chunk_len, &peeker)
                .iter()
                .map(|seg| seg.sa)
                .collect();
            match &reference {
                None => reference = Some(sas),
                Some(expected) => assert_eq!(&sas, expected, "chunk_len {chunk_len}"),
            }
        }
    }

    #[test]
    fn pure_idle_streams_emit_nothing_and_bound_the_carry() {
        let peeker = peeker();
        let mut splitter = FrameSplitter::new(4.0, 1500.0);
        let mut segments = Vec::new();
        for _ in 0..50 {
            splitter.split_chunk(&Arc::new(vec![100.0; 1000]), &peeker, &mut segments);
        }
        assert!(segments.is_empty());
        assert!(splitter.flush(&peeker).is_none());
        assert!(splitter.retained_len() <= splitter.lead_in + 1);
    }
}
