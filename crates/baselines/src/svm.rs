//! Linear support-vector machines trained by subgradient descent (Pegasos
//! style) — VoltageIDS's classifier of choice: "They tried Linear Support
//! Vector Machines and Bagged Decision Trees but found that the former
//! performed more favorably for this application" (thesis §1.2.1).

use vprofile_sigstat::SigStatError;

/// A binary linear SVM with per-feature standardization.
#[derive(Debug, PartialEq)]
pub struct LinearSvm {
    /// Weights (length `dim`) plus bias as the last element.
    weights: Vec<f64>,
    feature_means: Vec<f64>,
    feature_stds: Vec<f64>,
}

vprofile_sigstat::clone_in_place!(LinearSvm {
    weights,
    feature_means,
    feature_stds
});

/// Subgradient-descent hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmParams {
    /// Regularization strength λ.
    pub lambda: f64,
    /// Number of full passes over the data.
    pub epochs: usize,
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams {
            lambda: 1e-4,
            epochs: 200,
        }
    }
}

impl LinearSvm {
    /// Trains a binary classifier on `(x, label)` pairs, `label ∈ {false,
    /// true}` mapping to margins {−1, +1}.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::EmptyInput`] for an empty training set and
    /// [`SigStatError::DimensionMismatch`] for ragged observations.
    pub fn fit(data: &[(Vec<f64>, bool)], params: SvmParams) -> Result<Self, SigStatError> {
        if data.is_empty() {
            return Err(SigStatError::EmptyInput {
                context: "LinearSvm::fit",
            });
        }
        let dim = data[0].0.len();
        for (x, _) in data {
            if x.len() != dim {
                return Err(SigStatError::DimensionMismatch {
                    expected: dim,
                    actual: x.len(),
                    context: "LinearSvm::fit",
                });
            }
        }
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
        let standardized: Vec<(Vec<f64>, f64)> = data
            .iter()
            .map(|(x, label)| {
                let z: Vec<f64> = x
                    .iter()
                    .zip(feature_means.iter().zip(&feature_stds))
                    .map(|(&v, (&m, &s))| (v - m) / s)
                    .collect();
                (z, if *label { 1.0 } else { -1.0 })
            })
            .collect();

        // Pegasos: deterministic cyclic passes with step 1/(λ·t). `t`
        // starts at 1/λ so the first steps are O(1) instead of exploding
        // (the usual warm-start against early-iterate blow-up).
        let mut weights = vec![0.0; dim + 1];
        let mut t = 1.0 / params.lambda;
        for _ in 0..params.epochs {
            for (z, y) in &standardized {
                t += 1.0;
                let eta = 1.0 / (params.lambda * t);
                let score: f64 = weights[..dim]
                    .iter()
                    .zip(z)
                    .map(|(w, x)| w * x)
                    .sum::<f64>()
                    + weights[dim];
                // L2 shrinkage on the weight part (not the bias).
                for w in &mut weights[..dim] {
                    *w *= 1.0 - eta * params.lambda;
                }
                if y * score < 1.0 {
                    for (w, &x) in weights[..dim].iter_mut().zip(z) {
                        *w += eta * y * x;
                    }
                    weights[dim] += eta * y;
                }
            }
        }
        Ok(LinearSvm {
            weights,
            feature_means,
            feature_stds,
        })
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.feature_means.len()
    }

    /// The signed decision value; positive means the `true` class.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] on wrong input length.
    pub fn decision(&self, x: &[f64]) -> Result<f64, SigStatError> {
        let dim = self.dim();
        if x.len() != dim {
            return Err(SigStatError::DimensionMismatch {
                expected: dim,
                actual: x.len(),
                context: "LinearSvm::decision",
            });
        }
        let mut score = self.weights[dim];
        for ((&v, (&m, &s)), w) in x
            .iter()
            .zip(self.feature_means.iter().zip(&self.feature_stds))
            .zip(&self.weights[..dim])
        {
            score += w * (v - m) / s;
        }
        Ok(score)
    }

    /// Predicted class.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] on wrong input length.
    pub fn predict(&self, x: &[f64]) -> Result<bool, SigStatError> {
        Ok(self.decision(x)? >= 0.0)
    }
}

/// A one-vs-rest multiclass wrapper over [`LinearSvm`].
#[derive(Debug, PartialEq)]
pub struct OneVsRestSvm {
    machines: Vec<LinearSvm>,
}

vprofile_sigstat::clone_in_place!(OneVsRestSvm { machines });

impl OneVsRestSvm {
    /// Trains one binary machine per class.
    ///
    /// # Errors
    ///
    /// Propagates binary training failures; requires at least two classes.
    pub fn fit(
        data: &[(Vec<f64>, usize)],
        classes: usize,
        params: SvmParams,
    ) -> Result<Self, SigStatError> {
        if classes < 2 {
            return Err(SigStatError::EmptyInput {
                context: "OneVsRestSvm::fit (needs two classes)",
            });
        }
        let mut machines = Vec::with_capacity(classes);
        for class in 0..classes {
            let binary: Vec<(Vec<f64>, bool)> = data
                .iter()
                .map(|(x, label)| (x.clone(), *label == class))
                .collect();
            machines.push(LinearSvm::fit(&binary, params)?);
        }
        Ok(OneVsRestSvm { machines })
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.machines.len()
    }

    /// The class with the largest decision value, and that value.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] on wrong input length.
    pub fn predict(&self, x: &[f64]) -> Result<(usize, f64), SigStatError> {
        let mut best = (0usize, f64::NEG_INFINITY);
        for (class, machine) in self.machines.iter().enumerate() {
            let score = machine.decision(x)?;
            if score > best.1 {
                best = (class, score);
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blob(rng: &mut StdRng, cx: f64, cy: f64, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                vec![
                    cx + rng.random_range(-0.5..0.5),
                    cy + rng.random_range(-0.5..0.5),
                ]
            })
            .collect()
    }

    #[test]
    fn binary_svm_separates_blobs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut data: Vec<(Vec<f64>, bool)> = Vec::new();
        for x in blob(&mut rng, 0.0, 0.0, 60) {
            data.push((x, false));
        }
        for x in blob(&mut rng, 4.0, 4.0, 60) {
            data.push((x, true));
        }
        let svm = LinearSvm::fit(&data, SvmParams::default()).unwrap();
        let correct = data
            .iter()
            .filter(|(x, y)| svm.predict(x).unwrap() == *y)
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.98);
    }

    #[test]
    fn decision_margins_reflect_distance_from_boundary() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut data: Vec<(Vec<f64>, bool)> = Vec::new();
        for x in blob(&mut rng, 0.0, 0.0, 50) {
            data.push((x, false));
        }
        for x in blob(&mut rng, 4.0, 0.0, 50) {
            data.push((x, true));
        }
        let svm = LinearSvm::fit(&data, SvmParams::default()).unwrap();
        let near = svm.decision(&[2.2, 0.0]).unwrap();
        let far = svm.decision(&[6.0, 0.0]).unwrap();
        assert!(far > near, "farther points get larger margins");
    }

    #[test]
    fn one_vs_rest_separates_three_classes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut data: Vec<(Vec<f64>, usize)> = Vec::new();
        for (label, (cx, cy)) in [(0usize, (0.0, 0.0)), (1, (5.0, 0.0)), (2, (0.0, 5.0))] {
            for x in blob(&mut rng, cx, cy, 50) {
                data.push((x, label));
            }
        }
        let svm = OneVsRestSvm::fit(&data, 3, SvmParams::default()).unwrap();
        assert_eq!(svm.classes(), 3);
        let acc = data
            .iter()
            .filter(|(x, label)| svm.predict(x).unwrap().0 == *label)
            .count() as f64
            / data.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn svm_handles_raw_code_scales() {
        let mut rng = StdRng::seed_from_u64(4);
        let data: Vec<(Vec<f64>, bool)> = (0..120)
            .map(|i| {
                let label = i % 2 == 0;
                (
                    vec![
                        30_000.0
                            + if label { 1_500.0 } else { 0.0 }
                            + rng.random_range(-200.0..200.0),
                        400.0 + rng.random_range(-40.0..40.0),
                    ],
                    label,
                )
            })
            .collect();
        let svm = LinearSvm::fit(&data, SvmParams::default()).unwrap();
        let acc = data
            .iter()
            .filter(|(x, y)| svm.predict(x).unwrap() == *y)
            .count() as f64
            / data.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(LinearSvm::fit(&[], SvmParams::default()).is_err());
        let ragged = vec![(vec![1.0], true), (vec![1.0, 2.0], false)];
        assert!(LinearSvm::fit(&ragged, SvmParams::default()).is_err());
        assert!(OneVsRestSvm::fit(&[(vec![1.0], 0)], 1, SvmParams::default()).is_err());
    }
}
