//! Multinomial logistic regression trained by batch gradient descent — the
//! classification stage of Scission ("Scission uses the logistic regression
//! machine learning algorithm for training and classification", §1.2.1).
//!
//! The weights are stored feature-major, so one posterior kernel
//! ([`posteriors`]) computes a vector of classes per weight load; training
//! and every prediction call it. The trained weights, and through them
//! every Scission verdict and golden digest, depend on the operand order,
//! so the kernel keeps the scalar one: each logit adds its features in
//! order and then its bias, the softmax sums the classes in order, and
//! each gradient element adds the samples in order. It uses no fused
//! multiply-add, no reciprocal and no `exp` but `f64::exp`; the tests pin
//! weights and posteriors bit for bit against a scalar reference.

use vprofile_sigstat::SigStatError;

/// Classes per vector register: each weight row is padded to a multiple.
const LANES: usize = 4;
/// Classes one register tile carries: across the feature loop for the
/// logits, across a block of samples for the gradient. Eight AVX2
/// registers; a 32-ECU fleet is one tile, and narrower remainders go a
/// vector at a time.
const TILE: usize = 32;
/// Samples whose gradient terms are added per load and store of a
/// gradient tile.
const BLOCK: usize = 8;

/// A trained multinomial logistic-regression classifier with per-feature
/// standardization.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    /// Feature-major weights, `dim + 1` rows of `classes` rounded up to a
    /// multiple of [`LANES`]: row `j < dim` holds feature `j`'s weight for
    /// every class, the last row the biases. The padding stays zero and
    /// never enters the softmax.
    weights: Vec<f64>,
    /// Number of classes.
    classes: usize,
    /// Per-feature means for standardization.
    feature_means: Vec<f64>,
    /// Per-feature standard deviations (floored away from zero).
    feature_stds: Vec<f64>,
}

/// Gradient-descent hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainParams {
    /// Learning rate.
    pub learning_rate: f64,
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for TrainParams {
    fn default() -> Self {
        TrainParams {
            learning_rate: 0.5,
            epochs: 300,
            l2: 1e-4,
        }
    }
}

impl LogisticRegression {
    /// Trains a classifier on `(x, label)` pairs with `classes` classes.
    ///
    /// # Errors
    ///
    /// * [`SigStatError::EmptyInput`] for an empty training set;
    /// * [`SigStatError::DimensionMismatch`] for ragged observations or a
    ///   label `≥ classes`.
    pub fn fit(
        data: &[(Vec<f64>, usize)],
        classes: usize,
        params: TrainParams,
    ) -> Result<Self, SigStatError> {
        if data.is_empty() || classes == 0 {
            return Err(SigStatError::EmptyInput {
                context: "LogisticRegression::fit",
            });
        }
        let dim = data[0].0.len();
        for (x, label) in data {
            if x.len() != dim {
                return Err(SigStatError::DimensionMismatch {
                    expected: dim,
                    actual: x.len(),
                    context: "LogisticRegression::fit",
                });
            }
            if *label >= classes {
                return Err(SigStatError::DimensionMismatch {
                    expected: classes,
                    actual: *label,
                    context: "LogisticRegression::fit (label)",
                });
            }
        }

        // Standardize features: raw ADC-code statistics span orders of
        // magnitude, which would stall plain gradient descent.
        let n = data.len() as f64;
        let mut feature_means = vec![0.0; dim];
        for (x, _) in data {
            for (m, &v) in feature_means.iter_mut().zip(x) {
                *m += v;
            }
        }
        for m in &mut feature_means {
            *m /= n;
        }
        let mut feature_stds = vec![0.0; dim];
        for (x, _) in data {
            for (s, (&v, &m)) in feature_stds.iter_mut().zip(x.iter().zip(&feature_means)) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut feature_stds {
            *s = (*s / n).sqrt().max(1e-9);
        }
        // Sample `i`'s standardized features are `standardized[i * dim..][..dim]`.
        let standardized: Vec<f64> = data
            .iter()
            .flat_map(|(x, _)| standardize(x, &feature_means, &feature_stds))
            .collect();

        let stride = classes.next_multiple_of(LANES);
        let mut weights = vec![0.0; (dim + 1) * stride];
        let mut grads = vec![0.0; (dim + 1) * stride];
        // One row of output errors per sample of a block.
        let mut errs = vec![0.0; BLOCK * stride];
        for _ in 0..params.epochs {
            grads.fill(0.0);
            for (b, block) in data.chunks(BLOCK).enumerate() {
                let zs = &standardized[b * BLOCK * dim..][..block.len() * dim];
                for (s, (_, label)) in block.iter().enumerate() {
                    let err = &mut errs[s * stride..][..stride];
                    posteriors(&weights, classes, &zs[s * dim..][..dim], err);
                    // `p - 0.0` is `p` for every other class.
                    err[*label] -= 1.0;
                }
                accumulate(&mut grads, &errs[..block.len() * stride], zs, stride);
            }
            for (w, g) in weights
                .chunks_exact_mut(stride)
                .zip(grads.chunks_exact(stride))
            {
                for (wi, &gi) in w[..classes].iter_mut().zip(&g[..classes]) {
                    *wi -= params.learning_rate * (gi / n + params.l2 * *wi);
                }
            }
        }
        Ok(LogisticRegression {
            weights,
            classes,
            feature_means,
            feature_stds,
        })
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.feature_means.len()
    }

    /// Class probabilities for an observation.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] on wrong input length.
    pub fn predict_proba(&self, x: &[f64]) -> Result<Vec<f64>, SigStatError> {
        let mut probs = Vec::new();
        self.posteriors_into(x, &mut probs, "LogisticRegression::predict_proba")?;
        Ok(probs)
    }

    /// The most probable class and its probability. `total_cmp` orders NaN
    /// probabilities too (a positive NaN above every real value, a negative
    /// one below), so a poisoned logit cannot panic the argmax.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] on wrong input length and
    /// [`SigStatError::EmptyInput`] for a model with zero classes.
    pub fn predict(&self, x: &[f64]) -> Result<(usize, f64), SigStatError> {
        let probs = self.predict_proba(x)?;
        argmax(&probs, "LogisticRegression::predict")
    }

    /// [`LogisticRegression::predict`] with a caller-provided probability
    /// buffer: no heap allocation once `probs` has steady-state capacity
    /// (the standardized features and the padded logit row live in it
    /// until the posteriors replace them), and bit-identical results. The
    /// streaming Scission backend calls this with `ScratchArena::distances`
    /// on every frame.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] on wrong input length and
    /// [`SigStatError::EmptyInput`] for a model with zero classes.
    pub fn predict_with(
        &self,
        x: &[f64],
        probs: &mut Vec<f64>,
    ) -> Result<(usize, f64), SigStatError> {
        self.posteriors_into(x, probs, "LogisticRegression::predict_with")?;
        argmax(probs, "LogisticRegression::predict_with")
    }

    /// Leaves the class posteriors of `x` in `probs`, standardizing each
    /// feature once into the buffer's tail.
    fn posteriors_into(
        &self,
        x: &[f64],
        probs: &mut Vec<f64>,
        context: &'static str,
    ) -> Result<(), SigStatError> {
        let dim = self.dim();
        if x.len() != dim {
            return Err(SigStatError::DimensionMismatch {
                expected: dim,
                actual: x.len(),
                context,
            });
        }
        let stride = self.weights.len() / (dim + 1);
        probs.clear();
        probs.reserve(stride + dim);
        probs.resize(stride, 0.0);
        probs.extend(standardize(x, &self.feature_means, &self.feature_stds));
        let (out, z) = probs.split_at_mut(stride);
        posteriors(&self.weights, self.classes, z, out);
        probs.truncate(self.classes);
        Ok(())
    }
}

/// `(v − m) / s` per feature.
fn standardize<'a>(
    x: &'a [f64],
    means: &'a [f64],
    stds: &'a [f64],
) -> impl Iterator<Item = f64> + 'a {
    x.iter()
        .zip(means.iter().zip(stds))
        .map(|(&v, (&m, &s))| (v - m) / s)
}

/// The largest probability and its class, the last one on ties.
fn argmax(probs: &[f64], context: &'static str) -> Result<(usize, f64), SigStatError> {
    let (idx, &p) = probs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .ok_or(SigStatError::EmptyInput { context })?;
    Ok((idx, p))
}

/// The posterior kernel: the softmax over the logits `w · z + b` of the
/// standardized observation `z`, written to `out[..classes]`. `out` is one
/// padded weight row wide; its padding receives the padding's logits.
///
/// Each logit adds `w · z` over the features in order and then its bias,
/// as a vector lane of a register tile. The NaN-ignoring maximum is folded
/// per lane and then across lanes; its value does not depend on the fold
/// order, except that a `±0` tie may pick either sign, which only flips
/// the sign of a zero difference, and `exp(±0) = 1`. The exponentials are
/// summed in class order and each divided by that sum.
fn posteriors(weights: &[f64], classes: usize, z: &[f64], out: &mut [f64]) {
    let stride = out.len();
    let mut c0 = 0;
    while c0 + TILE <= stride {
        logit_tile::<TILE>(weights, c0, z, out);
        c0 += TILE;
    }
    while c0 < stride {
        logit_tile::<LANES>(weights, c0, z, out);
        c0 += LANES;
    }
    let logits = &mut out[..classes];
    let mut lane_max = [f64::NEG_INFINITY; LANES];
    for chunk in logits.chunks(LANES) {
        for (m, &v) in lane_max.iter_mut().zip(chunk) {
            *m = m.max(v);
        }
    }
    let max_logit = lane_max.into_iter().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in logits.iter_mut() {
        *v = (*v - max_logit).exp();
        sum += *v;
    }
    for v in logits.iter_mut() {
        *v /= sum;
    }
}

/// The logits of classes `c0..c0 + W` into `out[c0..c0 + W]`, carried in
/// registers across the feature loop.
fn logit_tile<const W: usize>(weights: &[f64], c0: usize, z: &[f64], out: &mut [f64]) {
    let stride = out.len();
    let mut acc = [0.0; W];
    for (row, &zj) in weights.chunks_exact(stride).zip(z) {
        for (a, &w) in acc.iter_mut().zip(&row[c0..c0 + W]) {
            *a += w * zj;
        }
    }
    let bias = &weights[z.len() * stride + c0..][..W];
    for ((o, a), &b) in out[c0..c0 + W].iter_mut().zip(acc).zip(bias) {
        *o = a + b;
    }
}

/// Adds a block of samples' gradient terms to the feature-major `grads`:
/// `err · z` to each feature row and `err` to the bias row. `errs` holds
/// one padded row of output errors per sample, `zs` the samples'
/// standardized features.
fn accumulate(grads: &mut [f64], errs: &[f64], zs: &[f64], stride: usize) {
    let (features, bias) = grads.split_at_mut(grads.len() - stride);
    let dim = features.len() / stride;
    for (j, row) in features.chunks_exact_mut(stride).enumerate() {
        add_terms(row, errs, |s, err| err * zs[s * dim + j]);
    }
    add_terms(bias, errs, |_, err| err);
}

/// Adds `term(s, errs[s][c])` to `row[c]` for every sample `s` of the
/// block, in sample order, one register tile of classes at a time.
fn add_terms(row: &mut [f64], errs: &[f64], term: impl Fn(usize, f64) -> f64) {
    let stride = row.len();
    let mut c0 = 0;
    while c0 + TILE <= stride {
        add_tile::<TILE>(row, c0, errs, &term);
        c0 += TILE;
    }
    while c0 < stride {
        add_tile::<LANES>(row, c0, errs, &term);
        c0 += LANES;
    }
}

/// [`add_terms`] for classes `c0..c0 + W`, loaded and stored once.
fn add_tile<const W: usize>(
    row: &mut [f64],
    c0: usize,
    errs: &[f64],
    term: &impl Fn(usize, f64) -> f64,
) {
    let stride = row.len();
    let mut acc = [0.0; W];
    acc.copy_from_slice(&row[c0..c0 + W]);
    for (s, err) in errs.chunks_exact(stride).enumerate() {
        for (a, &e) in acc.iter_mut().zip(&err[c0..c0 + W]) {
            *a += term(s, e);
        }
    }
    row[c0..c0 + W].copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(rng: &mut StdRng, centers: &[(f64, f64)], per: usize) -> Vec<(Vec<f64>, usize)> {
        let mut data = Vec::new();
        for (label, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..per {
                data.push((
                    vec![
                        cx + rng.random_range(-0.5..0.5),
                        cy + rng.random_range(-0.5..0.5),
                    ],
                    label,
                ));
            }
        }
        data
    }

    #[test]
    fn separates_two_blobs() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = blobs(&mut rng, &[(0.0, 0.0), (4.0, 4.0)], 50);
        let model = LogisticRegression::fit(&data, 2, TrainParams::default()).unwrap();
        let mut correct = 0;
        for (x, label) in &data {
            if model.predict(x).unwrap().0 == *label {
                correct += 1;
            }
        }
        assert!(correct as f64 / data.len() as f64 > 0.98);
    }

    #[test]
    fn separates_three_blobs() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = blobs(&mut rng, &[(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)], 40);
        let model = LogisticRegression::fit(&data, 3, TrainParams::default()).unwrap();
        let acc = data
            .iter()
            .filter(|(x, label)| model.predict(x).unwrap().0 == *label)
            .count() as f64
            / data.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = blobs(&mut rng, &[(0.0, 0.0), (3.0, 3.0)], 30);
        let model = LogisticRegression::fit(&data, 2, TrainParams::default()).unwrap();
        let probs = model.predict_proba(&[1.0, 1.0]).unwrap();
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn handles_unscaled_feature_magnitudes() {
        // Raw ADC-code scale features (thousands) must still train.
        let mut rng = StdRng::seed_from_u64(4);
        let data: Vec<(Vec<f64>, usize)> = (0..100)
            .map(|i| {
                let label = i % 2;
                (
                    vec![
                        30_000.0 + label as f64 * 2_000.0 + rng.random_range(-300.0..300.0),
                        500.0 + rng.random_range(-50.0..50.0),
                    ],
                    label,
                )
            })
            .collect();
        let model = LogisticRegression::fit(&data, 2, TrainParams::default()).unwrap();
        let acc = data
            .iter()
            .filter(|(x, label)| model.predict(x).unwrap().0 == *label)
            .count() as f64
            / data.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn predict_with_matches_predict_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = blobs(&mut rng, &[(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)], 40);
        let model = LogisticRegression::fit(&data, 3, TrainParams::default()).unwrap();
        let mut probs = Vec::new();
        for (x, _) in &data {
            let (ci, pi) = model.predict(x).unwrap();
            let (cb, pb) = model.predict_with(x, &mut probs).unwrap();
            assert_eq!(ci, cb);
            assert_eq!(pi.to_bits(), pb.to_bits());
            let direct = model.predict_proba(x).unwrap();
            assert!(direct
                .iter()
                .zip(&probs)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        assert!(model.predict_with(&[1.0], &mut probs).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(LogisticRegression::fit(&[], 2, TrainParams::default()).is_err());
        let data = vec![(vec![1.0], 5usize)];
        assert!(LogisticRegression::fit(&data, 2, TrainParams::default()).is_err());
        let data = vec![(vec![1.0], 0usize), (vec![1.0, 2.0], 1)];
        assert!(LogisticRegression::fit(&data, 2, TrainParams::default()).is_err());
    }

    /// The row-major scalar implementation the feature-major kernel
    /// replaced: its `fit` and `softmax_into` verbatim, the bit-for-bit
    /// reference for the weights and every posterior.
    struct Reference {
        weights: Vec<Vec<f64>>,
        feature_means: Vec<f64>,
        feature_stds: Vec<f64>,
    }

    impl Reference {
        fn fit(
            data: &[(Vec<f64>, usize)],
            classes: usize,
            params: TrainParams,
        ) -> Result<Self, SigStatError> {
            if data.is_empty() || classes == 0 {
                return Err(SigStatError::EmptyInput {
                    context: "LogisticRegression::fit",
                });
            }
            let dim = data[0].0.len();
            for (x, label) in data {
                if x.len() != dim {
                    return Err(SigStatError::DimensionMismatch {
                        expected: dim,
                        actual: x.len(),
                        context: "LogisticRegression::fit",
                    });
                }
                if *label >= classes {
                    return Err(SigStatError::DimensionMismatch {
                        expected: classes,
                        actual: *label,
                        context: "LogisticRegression::fit (label)",
                    });
                }
            }

            // Standardize features: raw ADC-code statistics span orders of
            // magnitude, which would stall plain gradient descent.
            let n = data.len() as f64;
            let mut feature_means = vec![0.0; dim];
            for (x, _) in data {
                for (m, &v) in feature_means.iter_mut().zip(x) {
                    *m += v;
                }
            }
            for m in &mut feature_means {
                *m /= n;
            }
            let mut feature_stds = vec![0.0; dim];
            for (x, _) in data {
                for (s, (&v, &m)) in feature_stds.iter_mut().zip(x.iter().zip(&feature_means)) {
                    *s += (v - m) * (v - m);
                }
            }
            for s in &mut feature_stds {
                *s = (*s / n).sqrt().max(1e-9);
            }
            let standardized: Vec<(Vec<f64>, usize)> = data
                .iter()
                .map(|(x, label)| {
                    let z: Vec<f64> = x
                        .iter()
                        .zip(feature_means.iter().zip(&feature_stds))
                        .map(|(&v, (&m, &s))| (v - m) / s)
                        .collect();
                    (z, *label)
                })
                .collect();

            let mut weights = vec![vec![0.0; dim + 1]; classes];
            let mut probs = vec![0.0; classes];
            let mut grads = vec![vec![0.0; dim + 1]; classes];
            for _ in 0..params.epochs {
                for g in grads.iter_mut() {
                    g.iter_mut().for_each(|v| *v = 0.0);
                }
                for (z, label) in &standardized {
                    softmax_into(&weights, z, &mut probs);
                    for (c, grad) in grads.iter_mut().enumerate() {
                        let err = probs[c] - if c == *label { 1.0 } else { 0.0 };
                        for (gi, &zi) in grad.iter_mut().zip(z) {
                            *gi += err * zi;
                        }
                        grad[dim] += err;
                    }
                }
                for (w, g) in weights.iter_mut().zip(&grads) {
                    for (wi, &gi) in w.iter_mut().zip(g) {
                        *wi -= params.learning_rate * (gi / n + params.l2 * *wi);
                    }
                }
            }
            Ok(Reference {
                weights,
                feature_means,
                feature_stds,
            })
        }

        /// The posteriors and `total_cmp` argmax of the reference's
        /// `predict_proba` and `predict`.
        fn predict(&self, x: &[f64]) -> (Vec<f64>, usize, f64) {
            let z: Vec<f64> = x
                .iter()
                .zip(self.feature_means.iter().zip(&self.feature_stds))
                .map(|(&v, (&m, &s))| (v - m) / s)
                .collect();
            let mut probs = vec![0.0; self.weights.len()];
            softmax_into(&self.weights, &z, &mut probs);
            let (idx, p) = probs
                .iter()
                .copied()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            (probs, idx, p)
        }
    }

    fn softmax_into(weights: &[Vec<f64>], z: &[f64], out: &mut [f64]) {
        let dim = z.len();
        let mut max_logit = f64::NEG_INFINITY;
        for (c, w) in weights.iter().enumerate() {
            let logit: f64 = w[..dim].iter().zip(z).map(|(a, b)| a * b).sum::<f64>() + w[dim];
            out[c] = logit;
            max_logit = max_logit.max(logit);
        }
        let mut sum = 0.0;
        for v in out.iter_mut() {
            *v = (*v - max_logit).exp();
            sum += *v;
        }
        for v in out.iter_mut() {
            *v /= sum;
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        /// Training and every prediction call match the scalar reference
        /// bit for bit: bias-only models, class counts below, at and past
        /// the tile width, sample counts off the block size, classes
        /// without samples, raw ADC-scale features and NaN features.
        #[test]
        fn kernel_matches_the_scalar_reference_bit_for_bit(
            seed in any::<u64>(),
            n in 1usize..64,
            dim in 0usize..24,
            classes in 1usize..40,
            epochs in 1usize..15,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Labels come from a random subset of the classes, so some
            // classes have no samples.
            let mut labels: Vec<usize> = (0..classes).filter(|_| rng.random_bool(0.7)).collect();
            if labels.is_empty() {
                labels.push(classes - 1);
            }
            let offsets: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..40_000.0)).collect();
            let spreads: Vec<f64> = (0..dim).map(|_| rng.random_range(1.0..2_000.0)).collect();
            let mut data: Vec<(Vec<f64>, usize)> = (0..n)
                .map(|_| {
                    let label = labels[rng.random_range(0..labels.len())];
                    let x = offsets
                        .iter()
                        .zip(&spreads)
                        .map(|(o, s)| o + s * (label as f64 * 0.25 + rng.random_range(-1.0..1.0)))
                        .collect();
                    (x, label)
                })
                .collect();
            if dim > 0 && rng.random_bool(0.2) {
                let i = rng.random_range(0..n);
                data[i].0[rng.random_range(0..dim)] = f64::NAN;
            }
            let params = TrainParams { epochs, ..TrainParams::default() };
            let model = LogisticRegression::fit(&data, classes, params).unwrap();
            let reference = Reference::fit(&data, classes, params).unwrap();

            prop_assert_eq!(bits(&model.feature_means), bits(&reference.feature_means));
            prop_assert_eq!(bits(&model.feature_stds), bits(&reference.feature_stds));
            let stride = model.weights.len() / (dim + 1);
            for (j, row) in model.weights.chunks_exact(stride).enumerate() {
                let expected: Vec<f64> = (0..stride)
                    .map(|c| reference.weights.get(c).map_or(0.0, |w| w[j]))
                    .collect();
                prop_assert_eq!(bits(row), bits(&expected), "row {}", j);
            }

            let mut probes: Vec<Vec<f64>> = data.iter().map(|(x, _)| x.clone()).collect();
            if dim > 0 {
                let mut poisoned = probes[0].clone();
                poisoned[dim - 1] = f64::NAN;
                probes.push(poisoned);
            }
            let mut buf = Vec::new();
            for x in &probes {
                let (probs, class, p) = reference.predict(x);
                prop_assert_eq!(bits(&model.predict_proba(x).unwrap()), bits(&probs));
                let (c, q) = model.predict(x).unwrap();
                prop_assert_eq!((c, q.to_bits()), (class, p.to_bits()));
                let (c, q) = model.predict_with(x, &mut buf).unwrap();
                prop_assert_eq!((c, q.to_bits()), (class, p.to_bits()));
                prop_assert_eq!(bits(&buf), bits(&probs));
            }
        }
    }
}
