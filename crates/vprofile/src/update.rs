//! Online model updates — §5.3 / Algorithm 4 of the thesis.
//!
//! Environmental drift (temperature, battery voltage — §4.4) moves the bus
//! voltage without warranting a full retrain. Algorithm 4 folds new edge
//! sets into the existing per-cluster mean, covariance, and max-distance
//! threshold using the incremental recursion of Equation 5.1, carried here
//! by [`vprofile_sigstat::OnlineGaussian`].
//!
//! One deliberate efficiency deviation: Algorithm 4 recomputes the inverse
//! covariance after *every* edge set; this implementation absorbs a batch of
//! edge sets per cluster first and re-factors the covariance once per
//! cluster per call (`O(d³)` once instead of per message). Threshold updates
//! use the final post-batch moments, which is the same fixed point the
//! per-message variant converges to for the batch. The batch is refit in
//! place: it arrives as a flat [`UpdateBatch`] (one row buffer plus the
//! SAs), is grouped by sorting `(cluster, row)` pairs, and every touched
//! cluster is refit in ascending order through the one
//! [`vprofile_sigstat::GaussianRefit`] of an [`UpdateScratch`]. The
//! co-moment is reseeded from the cluster's covariance, the rows are
//! pushed, and the new covariance is factored into staged buffers that are
//! swapped into the cluster only if the factorization succeeds; the
//! cluster's block of the model's stacked scoring rows is then rewritten
//! in place. Once the scratch has the model's dimension an update
//! allocates nothing, and at `d = 32` a touched cluster costs a few
//! microseconds: an `O(d²)` reseed, an `O(d²)` push and threshold solve
//! per row, and one `O(d³)` factorization and inverse factor.

use crate::{LabeledEdgeSet, Model, VProfileError};
use serde::{Deserialize, Serialize};
use vprofile_can::SourceAddress;
use vprofile_sigstat::{euclidean, DistanceMetric, GaussianRefit};

/// Summary of one [`Model::update_online`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct UpdateOutcome {
    /// Edge sets absorbed into the model.
    pub absorbed: usize,
    /// Edge sets skipped because their SA is not in the model (Algorithm 4
    /// assumes "no new SAs exist"; skipped ones should go to the detector
    /// instead).
    pub skipped_unknown_sa: usize,
    /// Number of clusters whose statistics changed.
    pub clusters_touched: usize,
}

/// Labeled edge sets for [`Model::update_online_with`], stored flat: one
/// row buffer with each row's end offset and SA. Reserve it once and reuse
/// it ([`UpdateBatch::clear`], [`UpdateBatch::discard`]), and collecting a
/// batch allocates nothing.
#[derive(Debug, Default, PartialEq)]
pub struct UpdateBatch {
    sas: Vec<SourceAddress>,
    ends: Vec<usize>,
    rows: Vec<f64>,
}

impl Clone for UpdateBatch {
    /// A copy with the source's reserved room, so that it too collects as
    /// many edge sets as the source without allocating.
    fn clone(&self) -> Self {
        let mut batch = UpdateBatch {
            sas: Vec::with_capacity(self.sas.capacity()),
            ends: Vec::with_capacity(self.ends.capacity()),
            rows: Vec::with_capacity(self.rows.capacity()),
        };
        batch.clone_from(self);
        batch
    }

    fn clone_from(&mut self, source: &Self) {
        let UpdateBatch { sas, ends, rows } = self;
        sas.clone_from(&source.sas);
        ends.clone_from(&source.ends);
        rows.clone_from(&source.rows);
    }
}

impl UpdateBatch {
    /// An empty batch with room for `items` edge sets of `dim` samples.
    pub fn with_capacity(items: usize, dim: usize) -> Self {
        UpdateBatch {
            sas: Vec::with_capacity(items),
            ends: Vec::with_capacity(items),
            rows: Vec::with_capacity(items * dim),
        }
    }

    /// Number of edge sets in the batch.
    pub fn len(&self) -> usize {
        self.sas.len()
    }

    /// `true` when the batch holds no edge sets.
    pub fn is_empty(&self) -> bool {
        self.sas.is_empty()
    }

    /// The labeled edge sets `items`, collected.
    pub(crate) fn from_items(items: &[LabeledEdgeSet]) -> Self {
        let dim = items.first().map_or(0, |o| o.edge_set.dim());
        let mut batch = UpdateBatch::with_capacity(items.len(), dim);
        for item in items {
            batch.push(item.sa, item.edge_set.samples());
        }
        batch
    }

    /// Appends one edge set claimed by `sa`.
    pub fn push(&mut self, sa: SourceAddress, edge_set: &[f64]) {
        self.rows.extend_from_slice(edge_set);
        self.ends.push(self.rows.len());
        self.sas.push(sa);
    }

    /// Empties the batch, keeping its capacity.
    pub fn clear(&mut self) {
        self.sas.clear();
        self.ends.clear();
        self.rows.clear();
    }

    /// Drops every edge set claimed by `sa`, compacting the rest in place
    /// in their original order.
    pub fn discard(&mut self, sa: SourceAddress) {
        let (mut kept, mut write, mut start) = (0, 0, 0);
        for i in 0..self.sas.len() {
            let end = self.ends[i];
            if self.sas[i] != sa {
                self.rows.copy_within(start..end, write);
                write += end - start;
                self.sas[kept] = self.sas[i];
                self.ends[kept] = write;
                kept += 1;
            }
            start = end;
        }
        self.sas.truncate(kept);
        self.ends.truncate(kept);
        self.rows.truncate(write);
    }

    /// The `i`-th edge set and its SA; `i` must be below `self.len()`.
    pub(crate) fn get(&self, i: usize) -> (SourceAddress, &[f64]) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        (self.sas[i], &self.rows[start..self.ends[i]])
    }
}

/// Reusable working memory for [`Model::update_online_with`]: the
/// per-cluster grouping, the staged refit and the threshold solve.
///
/// The buffers carry no state from one update to the next, so a clone is
/// a fresh, empty scratch, a copy into an existing scratch keeps that
/// scratch's own buffers, and neither is part of its `Debug` rendering:
/// checkpointing a holder does not copy them.
#[derive(Default)]
pub struct UpdateScratch {
    /// `(cluster, row)` for every row of a known SA, sorted.
    order: Vec<(usize, usize)>,
    refit: GaussianRefit,
    solve: Vec<f64>,
}

impl Clone for UpdateScratch {
    fn clone(&self) -> Self {
        UpdateScratch::default()
    }

    fn clone_from(&mut self, _source: &Self) {}
}

impl std::fmt::Debug for UpdateScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateScratch").finish_non_exhaustive()
    }
}

impl Model {
    /// Folds new edge sets into the model (Algorithm 4). Per touched
    /// cluster this updates the edge-set count `N_n`, the mean, the
    /// covariance with its factor and scoring rows (Mahalanobis models),
    /// and the max-distance threshold.
    ///
    /// This is [`Model::update_online_with`] on a collected batch with a
    /// fresh scratch.
    ///
    /// # Errors
    ///
    /// As [`Model::update_online_with`].
    pub fn update_online(
        &mut self,
        new_data: &[LabeledEdgeSet],
    ) -> Result<UpdateOutcome, VProfileError> {
        self.update_online_with(
            &UpdateBatch::from_items(new_data),
            &mut UpdateScratch::default(),
        )
    }

    /// [`Model::update_online`] over a flat batch, in place: clusters are
    /// refit in ascending order through `scratch`, and nothing is
    /// allocated once `scratch` has seen a batch of this model.
    ///
    /// An update that fails stops at the failing cluster: the clusters
    /// before it keep their refit, scoring rows included, and the failing
    /// one and the rest are unchanged.
    ///
    /// # Errors
    ///
    /// * [`VProfileError::MixedDimensions`] if an edge set of a known SA has
    ///   the wrong dimensionality (checked before any cluster changes);
    /// * [`VProfileError::CovarianceUnavailable`] for a Mahalanobis cluster
    ///   without a fitted Gaussian;
    /// * [`VProfileError::Numeric`] if a cluster's count is below two or its
    ///   updated covariance no longer factors.
    pub fn update_online_with(
        &mut self,
        batch: &UpdateBatch,
        scratch: &mut UpdateScratch,
    ) -> Result<UpdateOutcome, VProfileError> {
        let mut outcome = UpdateOutcome::default();
        let dim = self.dim();

        // GroupByCluster(model.clustSaLut, edgeSets): rows in input order
        // within each cluster, clusters ascending.
        scratch.order.clear();
        for i in 0..batch.len() {
            let (sa, row) = batch.get(i);
            match self.lookup_sa(sa) {
                Some(cluster) => {
                    if row.len() != dim {
                        return Err(VProfileError::MixedDimensions {
                            expected: dim,
                            actual: row.len(),
                        });
                    }
                    scratch.order.push((cluster.0, i));
                }
                None => outcome.skipped_unknown_sa += 1,
            }
        }
        scratch.order.sort_unstable();

        let UpdateScratch {
            order,
            refit,
            solve,
        } = scratch;
        for group in order.chunk_by(|a, b| a.0 == b.0) {
            let cluster_idx = group[0].0;
            let rows = || group.iter().map(|&(_, i)| batch.get(i).1);
            let stats = &mut self.clusters[cluster_idx];
            match self.config.metric {
                DistanceMetric::Mahalanobis => {
                    let gaussian = stats
                        .gaussian
                        .as_mut()
                        .ok_or(VProfileError::CovarianceUnavailable)?;
                    refit.seed(gaussian.mean(), gaussian.covariance(), stats.count)?;
                    for row in rows() {
                        refit.push(row)?;
                    }
                    refit.commit(gaussian)?;
                    if let Some(rows) = &mut self.rows {
                        rows.refresh(cluster_idx, gaussian)?;
                    }
                    stats.mean.clear();
                    stats.mean.extend_from_slice(gaussian.mean());
                    stats.count = gaussian.count();
                    // UpdateModel: clustMaxDists = max(old, distance of each
                    // new edge set under the updated statistics).
                    for row in rows() {
                        let d = gaussian.mahalanobis_with(row, solve)?;
                        stats.max_distance = stats.max_distance.max(d);
                    }
                }
                DistanceMetric::Euclidean => {
                    // Mean-only running update.
                    for row in rows() {
                        stats.count += 1;
                        let n = stats.count as f64;
                        for (m, &x) in stats.mean.iter_mut().zip(row) {
                            *m += (x - *m) / n;
                        }
                    }
                    for row in rows() {
                        let d = euclidean(row, &stats.mean)?;
                        stats.max_distance = stats.max_distance.max(d);
                    }
                }
            }
            outcome.clusters_touched += 1;
            outcome.absorbed += group.len();
        }
        Ok(outcome)
    }

    /// `true` once any cluster has absorbed at least `bound` edge sets.
    ///
    /// §5.3: "we recommend training a new model after `N_n` reaches some
    /// upper bound `M`. The threshold can be applied to individual clusters
    /// since our findings show that some ECUs transmit more often than
    /// others."
    pub fn needs_retrain(&self, bound: usize) -> bool {
        self.clusters.iter().any(|c| c.count >= bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterId, EdgeSet, Trainer, VProfileConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    use vprofile_sigstat::{Gaussian, OnlineGaussian};

    fn sample(rng: &mut StdRng, sa: u8, center: f64) -> LabeledEdgeSet {
        let samples: Vec<f64> = (0..4)
            .map(|i| center + i as f64 * 5.0 + rng.random_range(-1.0..1.0))
            .collect();
        LabeledEdgeSet::new(SourceAddress(sa), EdgeSet::new(samples))
    }

    fn base_model(rng: &mut StdRng) -> Model {
        let mut data = Vec::new();
        for _ in 0..15 {
            data.push(sample(rng, 1, 100.0));
            data.push(sample(rng, 2, 900.0));
        }
        let mut config = VProfileConfig::for_adc(&vprofile_analog::AdcConfig::vehicle_b(), 250_000);
        config.prefix_len = 1;
        config.suffix_len = 1;
        Trainer::new(config).train(&data).unwrap()
    }

    #[test]
    fn update_absorbs_and_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = base_model(&mut rng);
        let before = model.cluster(ClusterId(0)).count();
        let new: Vec<LabeledEdgeSet> = (0..8).map(|_| sample(&mut rng, 1, 100.0)).collect();
        let outcome = model.update_online(&new).unwrap();
        assert_eq!(outcome.absorbed, 8);
        assert_eq!(outcome.clusters_touched, 1);
        assert_eq!(outcome.skipped_unknown_sa, 0);
        assert_eq!(model.cluster(ClusterId(0)).count(), before + 8);
    }

    #[test]
    fn unknown_sa_edge_sets_are_skipped() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = base_model(&mut rng);
        let new = vec![sample(&mut rng, 0x77, 100.0)];
        let outcome = model.update_online(&new).unwrap();
        assert_eq!(outcome.absorbed, 0);
        assert_eq!(outcome.skipped_unknown_sa, 1);
    }

    #[test]
    fn drifted_data_moves_the_mean_toward_it() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = base_model(&mut rng);
        let before = model.cluster(ClusterId(0)).mean().to_vec();
        // Drifted upward by 5 code units (temperature-style shift).
        let new: Vec<LabeledEdgeSet> = (0..10).map(|_| sample(&mut rng, 1, 105.0)).collect();
        model.update_online(&new).unwrap();
        let after = model.cluster(ClusterId(0)).mean();
        assert!(after[0] > before[0], "mean must move toward the drift");
    }

    #[test]
    fn update_reduces_distance_of_drifted_probes() {
        // The §5.3 motivation: after absorbing drifted data, drifted probes
        // score closer.
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = base_model(&mut rng);
        let probe = sample(&mut rng, 1, 106.0);
        let d_before = model
            .cluster(ClusterId(0))
            .distance(probe.edge_set.samples(), model.metric())
            .unwrap();
        let new: Vec<LabeledEdgeSet> = (0..30).map(|_| sample(&mut rng, 1, 106.0)).collect();
        model.update_online(&new).unwrap();
        let d_after = model
            .cluster(ClusterId(0))
            .distance(probe.edge_set.samples(), model.metric())
            .unwrap();
        assert!(
            d_after < d_before,
            "distance should shrink: {d_before} → {d_after}"
        );
    }

    #[test]
    fn max_distance_never_decreases() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = base_model(&mut rng);
        let before = model.cluster(ClusterId(0)).max_distance();
        let new: Vec<LabeledEdgeSet> = (0..5).map(|_| sample(&mut rng, 1, 100.0)).collect();
        model.update_online(&new).unwrap();
        assert!(model.cluster(ClusterId(0)).max_distance() >= before * 0.999);
    }

    #[test]
    fn euclidean_model_updates_mean_only() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut data = Vec::new();
        for _ in 0..10 {
            data.push(sample(&mut rng, 1, 100.0));
        }
        let mut config = VProfileConfig::for_adc(&vprofile_analog::AdcConfig::vehicle_b(), 250_000)
            .with_metric(DistanceMetric::Euclidean);
        config.prefix_len = 1;
        config.suffix_len = 1;
        let mut model = Trainer::new(config).train(&data).unwrap();
        let new: Vec<LabeledEdgeSet> = (0..5).map(|_| sample(&mut rng, 1, 110.0)).collect();
        let outcome = model.update_online(&new).unwrap();
        assert_eq!(outcome.absorbed, 5);
        assert!(model.cluster(ClusterId(0)).gaussian().is_none());
        assert_eq!(model.cluster(ClusterId(0)).count(), 15);
    }

    #[test]
    fn wrong_dimension_update_is_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut model = base_model(&mut rng);
        let bad = LabeledEdgeSet::new(SourceAddress(1), EdgeSet::new(vec![0.0; 9]));
        assert!(matches!(
            model.update_online(&[bad]).unwrap_err(),
            VProfileError::MixedDimensions { .. }
        ));
    }

    /// The allocating update this module shipped before the in-place
    /// refit: `BTreeMap` grouping, a fresh `OnlineGaussian::from_moments`,
    /// `sample_covariance` and `Gaussian::from_moments` per cluster.
    fn reference_update_online(
        model: &mut Model,
        new_data: &[LabeledEdgeSet],
    ) -> Result<UpdateOutcome, VProfileError> {
        let mut outcome = UpdateOutcome::default();
        let dim = model.dim();
        let mut per_cluster: BTreeMap<usize, Vec<&LabeledEdgeSet>> = BTreeMap::new();
        for item in new_data {
            match model.lookup_sa(item.sa) {
                Some(cluster) => {
                    if item.edge_set.dim() != dim {
                        return Err(VProfileError::MixedDimensions {
                            expected: dim,
                            actual: item.edge_set.dim(),
                        });
                    }
                    per_cluster.entry(cluster.0).or_default().push(item);
                }
                None => outcome.skipped_unknown_sa += 1,
            }
        }
        for (cluster_idx, items) in per_cluster {
            let stats = &mut model.clusters[cluster_idx];
            match model.config.metric {
                DistanceMetric::Mahalanobis => {
                    let gaussian = stats
                        .gaussian
                        .as_ref()
                        .ok_or(VProfileError::CovarianceUnavailable)?;
                    let mut online = OnlineGaussian::from_moments(
                        gaussian.mean().to_vec(),
                        gaussian.covariance(),
                        stats.count,
                    )?;
                    for item in &items {
                        online.push(item.edge_set.samples())?;
                    }
                    let covariance = online.sample_covariance()?;
                    let refit =
                        Gaussian::from_moments(online.mean().to_vec(), covariance, online.count())?;
                    stats.mean = refit.mean().to_vec();
                    stats.count = refit.count();
                    for item in &items {
                        let d = refit.mahalanobis(item.edge_set.samples())?;
                        stats.max_distance = stats.max_distance.max(d);
                    }
                    stats.gaussian = Some(refit);
                }
                DistanceMetric::Euclidean => {
                    let mut mean = stats.mean.clone();
                    let mut count = stats.count;
                    for item in &items {
                        count += 1;
                        for (m, &x) in mean.iter_mut().zip(item.edge_set.samples()) {
                            *m += (x - *m) / count as f64;
                        }
                    }
                    stats.mean = mean;
                    stats.count = count;
                    for item in &items {
                        let d =
                            stats.distance(item.edge_set.samples(), DistanceMetric::Euclidean)?;
                        stats.max_distance = stats.max_distance.max(d);
                    }
                }
            }
            outcome.clusters_touched += 1;
            outcome.absorbed += items.len();
        }
        Ok(outcome)
    }

    /// Three 4-sample clusters (SAs 1, 2, 3) under `metric`.
    fn three_cluster_model(rng: &mut StdRng, metric: DistanceMetric) -> Model {
        let mut data = Vec::new();
        for _ in 0..12 {
            for (sa, center) in [(1, 100.0), (2, 500.0), (3, 900.0)] {
                data.push(sample(rng, sa, center));
            }
        }
        let mut config = VProfileConfig::for_adc(&vprofile_analog::AdcConfig::vehicle_b(), 250_000)
            .with_metric(metric);
        config.prefix_len = 1;
        config.suffix_len = 1;
        Trainer::new(config).train(&data).unwrap()
    }

    fn json(model: &Model) -> String {
        serde_json::to_string(model).unwrap()
    }

    proptest! {
        /// The in-place update lands on the same model, byte for byte in
        /// JSON, as the allocating reference, batch after batch with one
        /// reused scratch, under both metrics. Some batches carry a
        /// non-finite row in the second cluster they touch: the first
        /// cluster keeps its refit, the failing one and the rest stay as
        /// they were, exactly as in the reference.
        #[test]
        fn prop_in_place_update_matches_reference(
            seed in any::<u64>(),
            batches in 1usize..6,
            euclidean in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let metric = if euclidean {
                DistanceMetric::Euclidean
            } else {
                DistanceMetric::Mahalanobis
            };
            let mut model = three_cluster_model(&mut rng, metric);
            let mut reference = model.clone();
            let mut scratch = UpdateScratch::default();
            for _ in 0..batches {
                let len = rng.random_range(1..40);
                let mut items: Vec<LabeledEdgeSet> = (0..len)
                    .map(|_| {
                        let (sa, center) = match rng.random_range(0..7) {
                            0 => (0x77, 300.0),
                            k => [(1, 102.0), (2, 503.0), (3, 897.0)][k % 3],
                        };
                        sample(&mut rng, sa, center)
                    })
                    .collect();
                if !euclidean && rng.random_bool(0.3) {
                    let mut touched: Vec<usize> = items
                        .iter()
                        .filter_map(|o| model.lookup_sa(o.sa).map(|c| c.0))
                        .collect();
                    touched.sort_unstable();
                    touched.dedup();
                    if let Some(&second) = touched.get(1) {
                        let sa = model.clusters[second].sas()[0];
                        let at = rng.random_range(0..=items.len());
                        items.insert(
                            at,
                            LabeledEdgeSet::new(sa, EdgeSet::new(vec![f64::NAN; 4])),
                        );
                    }
                }
                let got = model.update_online_with(&UpdateBatch::from_items(&items), &mut scratch);
                let want = reference_update_online(&mut reference, &items);
                // Debug, not `==`: the failing pivot's diagonal is NaN.
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                // The reference's statistics, with the factors and scoring
                // rows a load derives from them: the in-place rows refresh
                // is exact.
                let rebuilt = Model::from_json(&json(&reference)).unwrap();
                prop_assert_eq!(format!("{model:?}"), format!("{rebuilt:?}"));
            }
        }
    }

    #[test]
    fn failing_cluster_keeps_earlier_refits_and_drops_the_rest() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut model = three_cluster_model(&mut rng, DistanceMetric::Mahalanobis);
        let before = model.clone();
        let mut batch = UpdateBatch::default();
        for (sa, center) in [(3, 900.0), (1, 100.0), (2, 500.0)] {
            batch.push(
                SourceAddress(sa),
                sample(&mut rng, sa, center).edge_set.samples(),
            );
        }
        batch.push(SourceAddress(2), &[f64::INFINITY; 4]);
        let mut scratch = UpdateScratch::default();
        assert!(matches!(
            model.update_online_with(&batch, &mut scratch),
            Err(VProfileError::Numeric(_))
        ));
        assert_ne!(model.clusters[0], before.clusters[0]);
        assert_eq!(model.clusters[1], before.clusters[1]);
        assert_eq!(model.clusters[2], before.clusters[2]);
    }

    #[test]
    fn batch_discard_compacts_in_order() {
        let mut batch = UpdateBatch::with_capacity(4, 2);
        batch.push(SourceAddress(1), &[1.0, 1.5]);
        batch.push(SourceAddress(2), &[2.0, 2.5]);
        batch.push(SourceAddress(1), &[3.0, 3.5]);
        batch.push(SourceAddress(3), &[4.0]);
        batch.discard(SourceAddress(1));
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.get(0), (SourceAddress(2), &[2.0, 2.5][..]));
        assert_eq!(batch.get(1), (SourceAddress(3), &[4.0][..]));
        batch.discard(SourceAddress(9));
        assert_eq!(batch.len(), 2);
        batch.clear();
        assert!(batch.is_empty());
    }

    #[test]
    fn retrain_bound_triggers_per_cluster() {
        let mut rng = StdRng::seed_from_u64(8);
        let model = base_model(&mut rng);
        // Training used 15 per cluster.
        assert!(!model.needs_retrain(100));
        assert!(model.needs_retrain(15));
        assert!(model.needs_retrain(10));
    }

    #[test]
    fn online_update_matches_full_retrain_statistics() {
        // Absorbing data online must land on the same moments as training
        // on the union from scratch (same-metric check via cluster means).
        let mut rng = StdRng::seed_from_u64(9);
        let head: Vec<LabeledEdgeSet> = (0..20).map(|_| sample(&mut rng, 1, 100.0)).collect();
        let tail: Vec<LabeledEdgeSet> = (0..20).map(|_| sample(&mut rng, 1, 103.0)).collect();
        let mut config = VProfileConfig::for_adc(&vprofile_analog::AdcConfig::vehicle_b(), 250_000);
        config.prefix_len = 1;
        config.suffix_len = 1;
        let trainer = Trainer::new(config);
        let mut online_model = trainer.train(&head).unwrap();
        online_model.update_online(&tail).unwrap();

        let all: Vec<LabeledEdgeSet> = head.into_iter().chain(tail).collect();
        let batch_model = trainer.train(&all).unwrap();

        let online_mean = online_model.cluster(ClusterId(0)).mean();
        let batch_mean = batch_model.cluster(ClusterId(0)).mean();
        for (a, b) in online_mean.iter().zip(batch_mean) {
            assert!((a - b).abs() < 1e-9, "means diverge: {a} vs {b}");
        }
        let g1 = online_model.cluster(ClusterId(0)).gaussian().unwrap();
        let g2 = batch_model.cluster(ClusterId(0)).gaussian().unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let a = g1.covariance()[(i, j)];
                let b = g2.covariance()[(i, j)];
                assert!((a - b).abs() < 1e-8, "covariance diverges at ({i},{j})");
            }
        }
    }
}
