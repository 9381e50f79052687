//! Shared time-domain feature extraction.
//!
//! Scission splits each message into bit regions ("binned into one of three
//! groups") and VoltageIDS computes per-region statistics; this module
//! provides the same decomposition for edge sets: the rising-edge region,
//! the falling-edge region, and the steady-state samples their suffixes
//! capture.

use serde::{Deserialize, Serialize};

/// Time-domain statistics of one signal region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionFeatures {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Root mean square.
    pub rms: f64,
    /// Peak-to-peak span.
    pub peak_to_peak: f64,
    /// Mean absolute successive difference (a roughness measure).
    pub roughness: f64,
}

impl RegionFeatures {
    /// The features as a flat vector, for model consumption.
    pub fn to_vec(self) -> Vec<f64> {
        vec![
            self.mean,
            self.std_dev,
            self.min,
            self.max,
            self.rms,
            self.peak_to_peak,
            self.roughness,
        ]
    }

    /// Number of features per region.
    pub const COUNT: usize = 7;
}

/// Computes [`RegionFeatures`] over a sample region.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn region_features(samples: &[f64]) -> RegionFeatures {
    region_features_concat(samples, &[])
}

/// Computes [`RegionFeatures`] over the logical concatenation `a ++ b`
/// without materializing it — the streaming backends feature the
/// steady-state region (which straddles the two edge-set halves) straight
/// from borrowed slices. Bit-identical to
/// `region_features(&[a, b].concat())`: every accumulation visits the
/// samples in the same order with the same operations.
///
/// # Panics
///
/// Panics if both slices are empty.
pub fn region_features_concat(a: &[f64], b: &[f64]) -> RegionFeatures {
    let len = a.len() + b.len();
    assert!(len > 0, "cannot featurize an empty region");
    let n = len as f64;
    let samples = || a.iter().chain(b);
    let mean = samples().sum::<f64>() / n;
    let var = samples().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let min = samples().copied().fold(f64::INFINITY, f64::min);
    let max = samples().copied().fold(f64::NEG_INFINITY, f64::max);
    let rms = (samples().map(|x| x * x).sum::<f64>() / n).sqrt();
    let roughness = if len > 1 {
        let mut sum = 0.0;
        let mut prev = f64::NAN;
        for (i, &x) in samples().enumerate() {
            if i > 0 {
                sum += (x - prev).abs();
            }
            prev = x;
        }
        sum / (n - 1.0)
    } else {
        0.0
    };
    RegionFeatures {
        mean,
        std_dev: var.sqrt(),
        min,
        max,
        rms,
        peak_to_peak: max - min,
        roughness,
    }
}

/// Splits an edge set into its three natural regions: the rising-edge half's
/// transition window, the falling-edge half's transition window, and the
/// steady samples (the outer quarter of each half, which the prefix/suffix
/// geometry leaves at the settled levels).
///
/// Returns `(rising, falling, steady)` as owned sample vectors.
///
/// # Panics
///
/// Panics if the edge set has fewer than 8 samples.
pub fn split_regions(edge_set: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (rising, falling, steady_rise, steady_fall) = region_slices(edge_set);
    let mut steady = steady_rise.to_vec();
    steady.extend_from_slice(steady_fall);
    (rising.to_vec(), falling.to_vec(), steady)
}

/// The borrowed-slice view of [`split_regions`], for allocation-free
/// streaming extraction: `(rising, falling, steady_rise, steady_fall)`,
/// where the steady region is the concatenation of the last two slices.
///
/// # Panics
///
/// Panics if the edge set has fewer than 8 samples.
pub fn region_slices(edge_set: &[f64]) -> (&[f64], &[f64], &[f64], &[f64]) {
    assert!(edge_set.len() >= 8, "edge set too short to split");
    let half = edge_set.len() / 2;
    let (rise, fall) = edge_set.split_at(half);
    let quarter = (half / 4).max(1);
    // Transition windows are the central part of each half; steady states
    // are the tails of both halves, where the level has settled.
    (
        &rise[..half - quarter],
        &fall[..half - quarter],
        &rise[half - quarter..],
        &fall[half - quarter..],
    )
}

/// The full Scission-style feature vector of an edge set: region features
/// of the rising, falling, and steady regions concatenated
/// (3 × [`RegionFeatures::COUNT`] values).
pub fn scission_features(edge_set: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(3 * RegionFeatures::COUNT);
    scission_features_into(edge_set, &mut out);
    out
}

/// [`scission_features`] into a caller-provided buffer: clears `out` and
/// appends the 21 feature values without allocating once the buffer has
/// steady-state capacity. The streaming baseline backends call this with
/// `ScratchArena::features` on every frame.
///
/// # Panics
///
/// Panics if the edge set has fewer than 8 samples.
pub fn scission_features_into(edge_set: &[f64], out: &mut Vec<f64>) {
    let (rising, falling, steady_rise, steady_fall) = region_slices(edge_set);
    out.clear();
    push_region(out, region_features_concat(rising, &[]));
    push_region(out, region_features_concat(falling, &[]));
    push_region(out, region_features_concat(steady_rise, steady_fall));
}

fn push_region(out: &mut Vec<f64>, f: RegionFeatures) {
    out.push(f.mean);
    out.push(f.std_dev);
    out.push(f.min);
    out.push(f.max);
    out.push(f.rms);
    out.push(f.peak_to_peak);
    out.push(f.roughness);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_region_has_zero_spread() {
        let f = region_features(&[5.0; 10]);
        assert_eq!(f.mean.to_bits(), 5.0_f64.to_bits());
        assert_eq!(f.std_dev.to_bits(), 0.0_f64.to_bits());
        assert_eq!(f.peak_to_peak.to_bits(), 0.0_f64.to_bits());
        assert_eq!(f.roughness.to_bits(), 0.0_f64.to_bits());
        assert_eq!(f.rms.to_bits(), 5.0_f64.to_bits());
    }

    #[test]
    fn features_of_known_ramp() {
        let f = region_features(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(f.mean.to_bits(), 1.5_f64.to_bits());
        assert_eq!(f.min.to_bits(), 0.0_f64.to_bits());
        assert_eq!(f.max.to_bits(), 3.0_f64.to_bits());
        assert_eq!(f.peak_to_peak.to_bits(), 3.0_f64.to_bits());
        assert_eq!(f.roughness.to_bits(), 1.0_f64.to_bits());
    }

    #[test]
    fn to_vec_has_stable_arity() {
        let f = region_features(&[1.0, 2.0]);
        assert_eq!(f.to_vec().len(), RegionFeatures::COUNT);
    }

    #[test]
    fn split_covers_every_sample_exactly_once() {
        let edge_set: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let (r, f, s) = split_regions(&edge_set);
        assert_eq!(r.len() + f.len() + s.len(), 32);
        // Steady region takes the tail of each half.
        assert!(s.contains(&15.0));
        assert!(s.contains(&31.0));
        // Transition windows start at the half boundaries.
        assert_eq!(r[0].to_bits(), 0.0_f64.to_bits());
        assert_eq!(f[0].to_bits(), 16.0_f64.to_bits());
    }

    #[test]
    fn scission_features_have_three_regions() {
        let edge_set: Vec<f64> = (0..32).map(|i| (i as f64).sin()).collect();
        let features = scission_features(&edge_set);
        assert_eq!(features.len(), 21);
        assert!(features.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn tiny_edge_set_panics() {
        let _ = split_regions(&[1.0; 4]);
    }

    #[test]
    fn region_slices_mirror_split_regions() {
        let edge_set: Vec<f64> = (0..33).map(|i| (i as f64 * 0.7).sin()).collect();
        let (r, f, s) = split_regions(&edge_set);
        let (rs, fs, sa, sb) = region_slices(&edge_set);
        assert_eq!(r, rs);
        assert_eq!(f, fs);
        assert_eq!(s, [sa, sb].concat());
    }

    #[test]
    fn concat_features_are_bit_identical_to_materialized() {
        // The streaming backends score the steady region from two borrowed
        // slices; any rounding difference versus the materialized batch
        // path would break batch/stream verdict equivalence.
        let a: Vec<f64> = (0..13)
            .map(|i| 1000.0 + (i as f64 * 1.3).cos() * 40.0)
            .collect();
        let b: Vec<f64> = (0..9)
            .map(|i| 15.0 + (i as f64 * 0.9).sin() * 30.0)
            .collect();
        let joined = [a.clone(), b.clone()].concat();
        let direct = region_features(&joined);
        let streamed = region_features_concat(&a, &b);
        assert!(direct
            .to_vec()
            .iter()
            .zip(streamed.to_vec())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn features_into_matches_allocating_path() {
        let edge_set: Vec<f64> = (0..32).map(|i| (i as f64).sin() * 500.0).collect();
        let direct = scission_features(&edge_set);
        let mut buffered = Vec::new();
        scission_features_into(&edge_set, &mut buffered);
        scission_features_into(&edge_set, &mut buffered); // idempotent reuse
        assert_eq!(buffered.len(), 21);
        assert!(direct
            .iter()
            .zip(&buffered)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
