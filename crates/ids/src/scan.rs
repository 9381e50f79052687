//! Block-accelerated dominant-sample scans for the framing hot loop.
//!
//! Every sample the frame splitter looks at goes through one of two
//! primitives: "first sample at or above the dominant threshold"
//! (SOF search) and "last sample at or above it" (gap-skip close probe).
//! Both are memory-bound linear scans, so the win is not clever math but
//! wide loads: the block variants fold eight lanes at a time through
//! `f64::max` — a reduction LLVM auto-vectorizes to `maxpd`/`fmax` on
//! every target this workspace builds for (`std::simd` is still
//! nightly-only, so the lanes are explicit) — and only drop to a scalar
//! in-block search once a block's maximum crosses the threshold.
//!
//! NaN discipline: a comparison `v >= threshold` is `false` for NaN, and
//! `f64::max` *ignores* a NaN operand (returns the other), so a block
//! whose maximum is computed from `NEG_INFINITY` treats NaN lanes exactly
//! like the scalar predicate does — an all-NaN block folds to
//! `NEG_INFINITY` and is skipped. The scalar twins exist so the
//! equivalence is machine-checked, not argued: `scan` tests and the
//! `gap_skip` criterion group compare both implementations on the same
//! inputs, NaN lanes included.

/// Lanes folded per block; eight `f64`s fill one 512-bit vector or two
/// 256-bit ones, and keep the scalar tail at most seven samples.
pub const LANES: usize = 8;

/// Samples folded per super-block: four 8-lane blocks accumulate
/// element-wise maxes (pure vertical `vmaxpd`, no horizontal step), and
/// one tree reduction settles the whole 32 samples.
const SUPER: usize = 4 * LANES;

/// Index of the first sample `>= threshold`, or `None`.
///
/// Equivalent to `samples.iter().position(|&v| v >= threshold)` for every
/// input, including NaN lanes (see the module docs for why).
// xtask: hot-path
#[inline]
pub fn find_dominant(samples: &[f64], threshold: f64) -> Option<usize> {
    let mut base = 0usize;
    let mut supers = samples.chunks_exact(SUPER);
    for sblock in supers.by_ref() {
        if super_max(sblock) >= threshold {
            return sblock
                .iter()
                .position(|&v| v >= threshold)
                .map(|p| base + p);
        }
        base += SUPER;
    }
    let mut blocks = supers.remainder().chunks_exact(LANES);
    for block in blocks.by_ref() {
        if block_max(block) >= threshold {
            return block.iter().position(|&v| v >= threshold).map(|p| base + p);
        }
        base += LANES;
    }
    blocks
        .remainder()
        .iter()
        .position(|&v| v >= threshold)
        .map(|p| base + p)
}

/// Index of the last sample `>= threshold`, or `None`.
///
/// Equivalent to `samples.iter().rposition(|&v| v >= threshold)` for
/// every input, including NaN lanes.
/// Blocks are aligned to the *end* of the slice (the scalar remainder sits
/// at the front): a backward search's hit is overwhelmingly near its
/// starting point, so the very first block fold should cover the last
/// eight samples rather than leave them to a scalar tail.
// xtask: hot-path
#[inline]
pub fn rfind_dominant(samples: &[f64], threshold: f64) -> Option<usize> {
    let super_head = samples.len() % SUPER;
    let (head, body) = samples.split_at(super_head);
    for (bi, sblock) in body.chunks_exact(SUPER).enumerate().rev() {
        if super_max(sblock) >= threshold {
            return sblock
                .iter()
                .rposition(|&v| v >= threshold)
                .map(|p| super_head + bi * SUPER + p);
        }
    }
    let head_len = head.len() % LANES;
    let (front, hbody) = head.split_at(head_len);
    for (bi, block) in hbody.chunks_exact(LANES).enumerate().rev() {
        if block_max(block) >= threshold {
            return block
                .iter()
                .rposition(|&v| v >= threshold)
                .map(|p| head_len + bi * LANES + p);
        }
    }
    front.iter().rposition(|&v| v >= threshold)
}

/// Index of the sample completing a closing idle gap: the first `i` where
/// the trailing recessive run — seeded with `run_in` samples carried from
/// earlier input — reaches `gap` samples. Returns `Err(run_out)` when the
/// slice ends with the gap still open, carrying the new trailing run.
///
/// This is the frame splitter's in-frame edge search. A close at
/// index `k` needs `gap` consecutive recessive samples ending at `k`, so
/// the earliest candidate close sits exactly `gap` after the last known
/// dominant sample — and the search leapfrogs between candidates instead
/// of walking the frame body:
///
/// * **Fast path** — probe the single candidate sample. If it is
///   dominant, no gap can end at or before it: one comparison skips
///   `gap` samples outright. In a dense frame body this is the common
///   case, so most of the body is never read at all.
/// * **Coarse re-anchor** — a recessive candidate triggers a short run of
///   strided single-sample probes walking backwards. ANY dominant probe
///   is a sound anchor (the next candidate just lands early, never late),
///   and a stride of at most one bit width cannot step over a whole
///   dominant bit, so the first hit trails the true last dominant by less
///   than a stride.
/// * **Exact proof** — only when every coarse probe misses does the
///   block-accelerated [`rfind_dominant`] scan the candidate window:
///   finding nothing proves the gap complete, finding a dominant hiding
///   between the probes re-anchors the next candidate after it.
// xtask: hot-path
#[inline]
pub fn gap_close(
    samples: &[f64],
    threshold: f64,
    gap: usize,
    run_in: usize,
) -> Result<usize, usize> {
    debug_assert!(
        gap >= 1 && run_in < gap,
        "an already-complete gap cannot carry"
    );
    let mut lo = 0usize; // samples[..lo] are accounted for by `last_dom`
    let mut last_dom: Option<usize> = None;
    let mut cand = gap - 1 - run_in.min(gap - 1);
    while let Some(&probe) = samples.get(cand) {
        if probe >= threshold {
            last_dom = Some(cand);
            lo = cand + 1;
            cand += gap;
            continue;
        }
        const STRIDE: usize = 40;
        // Cap the strided probes: near a true close every probe reads
        // recessive, so walking the whole gap serially before the exact
        // proof scan (which re-reads it anyway) just adds latency. Four
        // misses strongly suggest a close; let the exact scan decide.
        let floor = lo.max(cand.saturating_sub(4 * STRIDE));
        let mut coarse = None;
        let mut q = cand;
        while q > floor {
            q = if q - floor > STRIDE {
                q - STRIDE
            } else {
                floor
            };
            match samples.get(q) {
                Some(&v) if v >= threshold => {
                    coarse = Some(q);
                    break;
                }
                _ => {}
            }
        }
        let anchor = match coarse {
            Some(d) => d,
            None => match rfind_dominant(samples.get(lo..cand + 1).unwrap_or(&[]), threshold) {
                None => return Ok(cand),
                Some(p) => lo + p,
            },
        };
        last_dom = Some(anchor);
        lo = anchor + 1;
        cand = anchor + gap;
    }
    // Slice ends mid-gap: report the trailing recessive run (only the
    // unverified tail needs scanning; everything after the last dominant
    // is already known recessive).
    Err(
        match rfind_dominant(samples.get(lo..).unwrap_or(&[]), threshold) {
            Some(p) => samples.len() - 1 - (lo + p),
            None => match last_dom {
                Some(d) => samples.len() - 1 - d,
                None => run_in + samples.len(),
            },
        },
    )
}

/// Reference implementation of [`gap_close`]: the per-sample state
/// machine the block walk must agree with on every input.
pub fn gap_close_scalar(
    samples: &[f64],
    threshold: f64,
    gap: usize,
    run_in: usize,
) -> Result<usize, usize> {
    let mut run = run_in;
    for (i, &v) in samples.iter().enumerate() {
        if v >= threshold {
            run = 0;
        } else {
            run += 1;
            if run >= gap {
                return Ok(i);
            }
        }
    }
    Err(run)
}

/// Reference for the framing state machine ([`crate::StreamFramer`] and
/// the pipeline's splitter): a plain per-sample loop they must agree with,
/// window for window and position for position, for every chunking of
/// every stream. While idle it keeps the last `2 × bit_width` samples as
/// lead-in; the first sample `>= threshold` opens a frame; the sample that
/// completes `8 × bit_width` consecutive recessive samples closes it.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct ReferenceFramer {
    threshold: f64,
    lead_in: usize,
    end_gap: usize,
    /// The idle lead-in, or the open frame with its lead-in.
    window: Vec<f64>,
    open: bool,
    recessive_run: usize,
    consumed: u64,
}

impl ReferenceFramer {
    /// A framer with [`crate::StreamFramer::new`]'s geometry.
    pub fn new(bit_width: f64, threshold: f64) -> Self {
        ReferenceFramer {
            threshold,
            lead_in: (2.0 * bit_width) as usize,
            end_gap: (8.0 * bit_width) as usize,
            window: Vec::new(),
            open: false,
            recessive_run: 0,
            consumed: 0,
        }
    }

    /// Total samples consumed so far.
    pub fn samples_consumed(&self) -> u64 {
        self.consumed
    }

    /// Pushes samples one at a time; returns every window closed on the
    /// way, each with the stream position of its first sample.
    pub fn push(&mut self, samples: &[f64]) -> Vec<(u64, Vec<f64>)> {
        let mut out = Vec::new();
        for &v in samples {
            self.consumed += 1;
            self.window.push(v);
            if !self.open {
                if v >= self.threshold {
                    self.open = true;
                    self.recessive_run = 0;
                } else if self.window.len() > self.lead_in {
                    self.window.remove(0);
                }
            } else if v >= self.threshold {
                self.recessive_run = 0;
            } else {
                self.recessive_run += 1;
                if self.recessive_run >= self.end_gap {
                    out.push(self.take());
                }
            }
        }
        out
    }

    /// Returns the open frame, if any, as it stands.
    pub fn flush(&mut self) -> Option<(u64, Vec<f64>)> {
        self.open.then(|| self.take())
    }

    fn take(&mut self) -> (u64, Vec<f64>) {
        self.open = false;
        self.recessive_run = 0;
        let window = std::mem::take(&mut self.window);
        (self.consumed - window.len() as u64, window)
    }
}

/// Reference implementation of [`find_dominant`]; the equivalence tests
/// and the criterion comparison pin the block variant against it.
pub fn find_dominant_scalar(samples: &[f64], threshold: f64) -> Option<usize> {
    samples.iter().position(|&v| v >= threshold)
}

/// Reference implementation of [`rfind_dominant`].
pub fn rfind_dominant_scalar(samples: &[f64], threshold: f64) -> Option<usize> {
    samples.iter().rposition(|&v| v >= threshold)
}

/// Maximum of one block, folded from `NEG_INFINITY` so NaN lanes are
/// ignored rather than poisoning the reduction.
///
/// The fold is a three-level tree, not a left-to-right chain: `f64::max`
/// ignores NaN operands and is associative/commutative on everything
/// else, so the tree computes the same value while letting the compiler
/// issue the lane maxes in parallel (`maxpd` pairs) instead of one
/// eight-deep dependent chain.
/// Maximum of one 32-sample super-block: element-wise lane maxes across
/// the four 8-blocks (vertical only, so the compiler keeps it in two
/// 256-bit accumulators), then one horizontal tree over the eight lanes.
/// NaN lanes are ignored exactly as in [`block_max`].
#[inline]
fn super_max(sblock: &[f64]) -> f64 {
    let mut lanes = [f64::NEG_INFINITY; LANES];
    for block in sblock.chunks_exact(LANES) {
        for (lane, &v) in lanes.iter_mut().zip(block) {
            *lane = lane.max(v);
        }
    }
    block_max(&lanes)
}

#[inline]
fn block_max(block: &[f64]) -> f64 {
    if let [a, b, c, d, e, f, g, h] = *block {
        let ab = a.max(b);
        let cd = c.max(d);
        let ef = e.max(f);
        let gh = g.max(h);
        ab.max(cd).max(ef.max(gh))
    } else {
        let mut m = f64::NEG_INFINITY;
        for &v in block {
            m = m.max(v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64 — deterministic sample streams without a dev-dep.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A sample stream that is mostly recessive (~100.0) with sparse
        /// dominant spikes (~3000.0) and occasional NaN lanes.
        fn stream(&mut self, len: usize) -> Vec<f64> {
            (0..len)
                .map(|_| match self.next() % 16 {
                    0 => 3000.0,
                    1 => f64::NAN,
                    2 => 1500.0, // exactly at the canonical threshold
                    _ => 100.0,
                })
                .collect()
        }
    }

    #[test]
    fn block_scans_match_scalar_on_seeded_streams() {
        let mut rng = Rng(0x5ca9);
        for len in 0..64 {
            for _ in 0..8 {
                let s = rng.stream(len);
                for t in [1500.0, 100.0, 5000.0] {
                    assert_eq!(
                        find_dominant(&s, t),
                        find_dominant_scalar(&s, t),
                        "find len={len} t={t} s={s:?}"
                    );
                    assert_eq!(
                        rfind_dominant(&s, t),
                        rfind_dominant_scalar(&s, t),
                        "rfind len={len} t={t} s={s:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn long_streams_and_boundary_hits_agree() {
        let mut rng = Rng(77);
        for _ in 0..32 {
            let len = 1000 + (rng.next() % 3000) as usize;
            let s = rng.stream(len);
            assert_eq!(find_dominant(&s, 1500.0), find_dominant_scalar(&s, 1500.0));
            assert_eq!(
                rfind_dominant(&s, 1500.0),
                rfind_dominant_scalar(&s, 1500.0)
            );
        }
        // Single hit placed at every lane of a block-aligned stream.
        for hit in 0..(3 * LANES) {
            let mut s = vec![100.0; 3 * LANES];
            if let Some(v) = s.get_mut(hit) {
                *v = 3000.0;
            }
            assert_eq!(find_dominant(&s, 1500.0), Some(hit));
            assert_eq!(rfind_dominant(&s, 1500.0), Some(hit));
        }
    }

    #[test]
    fn gap_close_matches_scalar_on_seeded_streams() {
        let mut rng = Rng(0x6a9_c105e);
        for len in 0..80 {
            for _ in 0..8 {
                let s = rng.stream(len);
                for gap in [1usize, 3, 8, 17, 32] {
                    for run_in in [0usize, 1, 7, 16, 31] {
                        if run_in >= gap {
                            continue; // callers never carry a completed gap
                        }
                        assert_eq!(
                            gap_close(&s, 1500.0, gap, run_in),
                            gap_close_scalar(&s, 1500.0, gap, run_in),
                            "len={len} gap={gap} run_in={run_in} s={s:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gap_close_pins_exact_close_positions() {
        // A dominant sample at index 4, then pure recessive: with gap 8 the
        // close lands exactly 8 samples after the dominant.
        let mut s = vec![100.0; 40];
        s[4] = 3000.0;
        assert_eq!(gap_close(&s, 1500.0, 8, 0), Ok(12));
        // A carried run shortens the in-slice distance to the close.
        let idle = [100.0; 40];
        assert_eq!(gap_close(&idle, 1500.0, 8, 5), Ok(2));
        // The slice ending mid-gap reports the trailing run.
        assert_eq!(gap_close(&s[..8], 1500.0, 32, 0), Err(3));
        assert_eq!(gap_close(&[], 1500.0, 8, 3), Err(3));
    }

    #[test]
    fn all_nan_and_empty_inputs_find_nothing() {
        assert_eq!(find_dominant(&[], 1500.0), None);
        assert_eq!(rfind_dominant(&[], 1500.0), None);
        let nans = vec![f64::NAN; 2 * LANES + 3];
        assert_eq!(find_dominant(&nans, 1500.0), None);
        assert_eq!(rfind_dominant(&nans, 1500.0), None);
    }
}
