//! The per-SA fusion state machine: weighted score combination, adaptive
//! thresholds, drift-gated absorption, and episode quarantine.
//!
//! All mutable fusion state is **per source address**: weights, adaptive
//! thresholds, drift-detector banks, episodes, and absorption budgets all
//! live in one [`SaState`] slot per SA. Because the sharded pipeline
//! routes each SA to exactly one worker, per-SA state makes the fused
//! verdict stream deterministic regardless of worker count — two workers
//! never race on the same slot.
//!
//! The combination rule: the fused score is the confidence-weighted mean
//! of the available voters' calibrated scores (the primary voter is
//! pinned at weight 1.0; secondaries carry agreement-learned
//! [`AgreementWeight`]s). The fused call compares that score against a
//! per-SA adaptive threshold θ — an EWMA of recent *accepted* fused
//! scores plus a margin, clamped to `[θ_min, θ_max]` with
//! `θ_min ≥ 0.5` so the calibrated decision boundary is always honored.
//! A frame where every voter abstains fails closed to an anomaly, same
//! as a single backend's `Unscorable`.

use crate::drift::{Cusum, CusumConfig, DriftKind, DriftSignal, DriftVerdict, Ewma, EwmaConfig};
use crate::weights::{AgreementWeight, WeightConfig};
use serde::{Deserialize, Serialize};

/// Number of addressable SA slots (8-bit J1939 source addresses).
const SA_SLOTS: usize = 256;

/// Tuning of the fusion layer. Everything is public so experiments and
/// tests can shrink warmups or budgets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FusionConfig {
    /// Agreement-weight update rule for secondary voters.
    pub weights: WeightConfig,
    /// EWMA factor of the clean-score estimate behind the threshold θ.
    pub threshold_lambda: f64,
    /// Margin added to the clean-score estimate to form θ.
    pub threshold_margin: f64,
    /// Lower clamp on θ; at least 0.5 so calibrated alarms stay alarms.
    pub threshold_min: f64,
    /// Upper clamp on θ.
    pub threshold_max: f64,
    /// Absorption frames granted per `ScoreShift` drift verdict — the
    /// retrain-on-drift budget that replaces fixed-cadence absorption.
    pub absorb_budget: u32,
    /// Per-voter CUSUM parameters (the slow, sensitive detector).
    pub cusum: CusumConfig,
    /// Per-voter EWMA chart parameters (the fast detector).
    pub score_chart: EwmaConfig,
    /// Ensemble-disagreement chart parameters; its alarm *is* the drift
    /// episode that quarantines absorption.
    pub disagreement_chart: EwmaConfig,
}

impl Default for FusionConfig {
    fn default() -> Self {
        FusionConfig {
            weights: WeightConfig::default(),
            threshold_lambda: 0.05,
            threshold_margin: 0.2,
            threshold_min: 0.5,
            threshold_max: 0.8,
            absorb_budget: 64,
            cusum: CusumConfig::default(),
            score_chart: EwmaConfig::default(),
            disagreement_chart: EwmaConfig {
                limit: 3.0,
                min_sigma: 0.08,
                rebaseline_on_fire: false,
                ..EwmaConfig::default()
            },
        }
    }
}

/// One voter's per-SA lane: its confidence weight and detector bank.
#[derive(Debug, Clone)]
struct VoterLane {
    weight: AgreementWeight,
    cusum: Cusum,
    chart: Ewma,
}

/// All fusion state attached to one source address.
#[derive(Debug)]
struct SaState {
    lanes: Box<[VoterLane]>,
    disagreement: Ewma,
    clean_score: f64,
    clean_seen: bool,
    theta: f64,
    budget: u32,
}

impl Clone for SaState {
    fn clone(&self) -> Self {
        SaState {
            lanes: self.lanes.clone(),
            disagreement: self.disagreement,
            clean_score: self.clean_score,
            clean_seen: self.clean_seen,
            theta: self.theta,
            budget: self.budget,
        }
    }

    /// Copies lane by lane into `self`'s lanes when the voter counts match.
    fn clone_from(&mut self, source: &Self) {
        let SaState {
            lanes,
            disagreement,
            clean_score,
            clean_seen,
            theta,
            budget,
        } = self;
        lanes.clone_from(&source.lanes);
        *disagreement = source.disagreement;
        *clean_score = source.clean_score;
        *clean_seen = source.clean_seen;
        *theta = source.theta;
        *budget = source.budget;
    }
}

/// What the fusion layer concluded about one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionDecision {
    /// The fused call. `true` also when every voter abstained
    /// (fail-closed).
    pub anomaly: bool,
    /// The confidence-weighted fused score (1.0 when unscored).
    pub score: f64,
    /// `false` when every voter abstained.
    pub scored: bool,
    /// The adaptive per-SA threshold θ the call compared against.
    pub threshold: f64,
    /// `true` when this frame may be absorbed into the voters' models:
    /// the frame was accepted unanimously, a `ScoreShift` budget is
    /// open, and no disagreement episode is active. The budget frame is
    /// consumed.
    pub absorb_ok: bool,
    /// `true` while this SA is inside a disagreement drift episode.
    pub episode: bool,
    /// At most one typed change-point verdict per frame
    /// (`EnsembleDisagreement` takes priority over `ScoreShift`).
    pub drift: Option<DriftVerdict>,
}

impl FusionDecision {
    /// Fail-closed decision for a frame no voter could score.
    fn unscored(theta: f64, episode: bool) -> Self {
        FusionDecision {
            anomaly: true,
            score: 1.0,
            scored: false,
            threshold: theta,
            absorb_ok: false,
            episode,
            drift: None,
        }
    }
}

/// The deterministic, allocation-free fusion state machine.
///
/// Construction preallocates every SA slot and voter lane; the per-frame
/// [`FusionCore::fuse`] touches only preallocated state, and
/// `clone_from` between cores of one voter count copies every slot in
/// place.
#[derive(Debug)]
pub struct FusionCore {
    config: FusionConfig,
    voters: usize,
    states: Box<[SaState]>,
}

impl Clone for FusionCore {
    fn clone(&self) -> Self {
        FusionCore {
            config: self.config,
            voters: self.voters,
            states: self.states.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let FusionCore {
            config,
            voters,
            states,
        } = self;
        *config = source.config;
        *voters = source.voters;
        states.clone_from(&source.states);
    }
}

impl FusionCore {
    /// Preallocates fusion state for `voters` voters across all 256 SA
    /// slots. Voter 0 is the primary.
    pub fn new(voters: usize, config: FusionConfig) -> Self {
        let lane = VoterLane {
            weight: AgreementWeight::default(),
            cusum: Cusum::new(config.cusum),
            chart: Ewma::new(config.score_chart),
        };
        let state = SaState {
            lanes: vec![lane; voters].into_boxed_slice(),
            disagreement: Ewma::new(config.disagreement_chart),
            clean_score: 0.0,
            clean_seen: false,
            theta: config.threshold_min,
            budget: 0,
        };
        FusionCore {
            config,
            voters,
            states: vec![state; SA_SLOTS].into_boxed_slice(),
        }
    }

    /// Number of voters this core was built for.
    pub fn voters(&self) -> usize {
        self.voters
    }

    /// The tuning this core runs with.
    pub fn config(&self) -> &FusionConfig {
        &self.config
    }

    /// Fuses one frame's per-voter calibrated scores (`None` = abstain /
    /// suspended) into a decision, updating weights, thresholds, drift
    /// detectors, and the absorption budget for `sa`.
    pub fn fuse(&mut self, sa: u8, scores: &[Option<f64>]) -> FusionDecision {
        debug_assert_eq!(scores.len(), self.voters, "one score slot per voter");
        let Some(state) = self.states.get_mut(usize::from(sa)) else {
            // Unreachable (256 slots cover u8), but fail closed, not loud.
            return FusionDecision::unscored(self.config.threshold_min, false);
        };

        // Confidence-weighted mean over the voters that scored.
        let mut weight_sum = 0.0;
        let mut score_sum = 0.0;
        let mut scoring = 0u32;
        for (i, (lane, score)) in state.lanes.iter().zip(scores.iter()).enumerate() {
            if let Some(s) = score {
                let w = if i == 0 {
                    1.0
                } else {
                    lane.weight.weight(&self.config.weights)
                };
                weight_sum += w;
                score_sum += w * s;
                scoring += 1;
            }
        }
        let theta = state.theta;
        if scoring == 0 {
            return FusionDecision::unscored(theta, state.disagreement.in_alarm());
        }
        let fused = score_sum / weight_sum;
        let anomaly = fused >= theta;

        // Agreement learning: secondaries are judged against the
        // primary's own calibrated call on the same frame.
        if let Some(s0) = scores.first().copied().flatten() {
            let primary_call = s0 >= 0.5;
            for (lane, score) in state.lanes.iter_mut().zip(scores.iter()).skip(1) {
                if let Some(s) = score {
                    lane.weight
                        .observe((*s >= 0.5) == primary_call, &self.config.weights);
                }
            }
        }

        // Adaptive threshold: track accepted fused scores only, so
        // alarmed frames can never drag θ toward themselves.
        if !anomaly {
            let lambda = self.config.threshold_lambda;
            state.clean_score = if state.clean_seen {
                (1.0 - lambda) * state.clean_score + lambda * fused
            } else {
                fused
            };
            state.clean_seen = true;
            state.theta = (state.clean_score + self.config.threshold_margin)
                .clamp(self.config.threshold_min, self.config.threshold_max);
        }

        // Ensemble-disagreement stream: the fraction of scoring voters
        // whose individual call contradicts the fused call. Checked
        // before the per-voter charts so its verdict takes priority.
        let mut disagreeing = 0u32;
        for score in scores {
            if let Some(s) = score {
                if (*s >= 0.5) != anomaly {
                    disagreeing += 1;
                }
            }
        }
        let fraction = f64::from(disagreeing) / f64::from(scoring);
        let mut drift = None;
        if let DriftSignal::Drift { magnitude } = state.disagreement.observe(fraction) {
            drift = Some(DriftVerdict {
                sa,
                kind: DriftKind::EnsembleDisagreement,
                magnitude,
            });
        }

        // Per-voter change-point banks. Every detector observes every
        // scored frame; only the first firing contributes the (at most
        // one) verdict.
        for (i, (lane, score)) in state.lanes.iter_mut().zip(scores.iter()).enumerate() {
            let Some(s) = score else { continue };
            let slow = lane.cusum.observe(*s);
            let fast = lane.chart.observe(*s);
            if drift.is_none() {
                let magnitude = match (slow, fast) {
                    (DriftSignal::Drift { magnitude: a }, DriftSignal::Drift { magnitude: b }) => {
                        Some(a.max(b))
                    }
                    (DriftSignal::Drift { magnitude }, _)
                    | (_, DriftSignal::Drift { magnitude }) => Some(magnitude),
                    _ => None,
                };
                if let Some(magnitude) = magnitude {
                    drift = Some(DriftVerdict {
                        sa,
                        kind: DriftKind::ScoreShift { voter: i as u8 },
                        magnitude,
                    });
                }
            }
        }

        // Retrain-on-drift gate: a ScoreShift opens an absorption budget,
        // but only on a unanimous frame outside an episode — benign
        // environment drift moves every voter together (zero
        // disagreement), while an attack gaming one model's blind spot
        // shows up as disagreement one frame before the episode chart can
        // trip, and must not buy even that one absorbed frame.
        let episode = state.disagreement.in_alarm();
        let unanimous = disagreeing == 0;
        if let Some(verdict) = drift {
            if matches!(verdict.kind, DriftKind::ScoreShift { .. }) && !episode && unanimous {
                state.budget = self.config.absorb_budget;
            }
        }
        let absorb_ok = !anomaly && !episode && unanimous && state.budget > 0;
        if absorb_ok {
            state.budget -= 1;
        } else if episode {
            // An episode voids any previously granted budget: absorption
            // stays quarantined until the voters agree again AND a fresh
            // ScoreShift re-opens the gate.
            state.budget = 0;
        }

        FusionDecision {
            anomaly,
            score: fused,
            scored: true,
            threshold: theta,
            absorb_ok,
            episode,
            drift,
        }
    }

    /// The adaptive threshold θ currently in force for `sa`.
    pub fn threshold(&self, sa: u8) -> f64 {
        self.states
            .get(usize::from(sa))
            .map_or(self.config.threshold_min, |s| s.theta)
    }

    /// `true` while `sa` is inside a disagreement drift episode.
    pub fn episode(&self, sa: u8) -> bool {
        self.states
            .get(usize::from(sa))
            .is_some_and(|s| s.disagreement.in_alarm())
    }

    /// Remaining absorption-budget frames for `sa`.
    pub fn budget(&self, sa: u8) -> u32 {
        self.states.get(usize::from(sa)).map_or(0, |s| s.budget)
    }

    /// The current confidence weight of `voter` on `sa` (primary: 1.0).
    pub fn weight(&self, sa: u8, voter: usize) -> f64 {
        if voter == 0 {
            return 1.0;
        }
        self.states
            .get(usize::from(sa))
            .and_then(|s| s.lanes.get(voter))
            .map_or(0.0, |lane| lane.weight.weight(&self.config.weights))
    }

    /// Rebaselines every detector for `sa` (e.g. after a full retrain
    /// replaced the voters' models) and voids its absorption budget.
    pub fn rebaseline(&mut self, sa: u8) {
        if let Some(state) = self.states.get_mut(usize::from(sa)) {
            for lane in &mut state.lanes {
                lane.cusum.rebaseline();
                lane.chart.rebaseline();
            }
            state.disagreement.rebaseline();
            state.budget = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A config with tiny warmups so tests exercise post-warmup behavior
    /// in few frames.
    fn fast_config() -> FusionConfig {
        FusionConfig {
            cusum: CusumConfig {
                warmup: 8,
                ..CusumConfig::default()
            },
            score_chart: EwmaConfig {
                warmup: 8,
                ..EwmaConfig::default()
            },
            disagreement_chart: EwmaConfig {
                warmup: 8,
                limit: 3.0,
                min_sigma: 0.08,
                rebaseline_on_fire: false,
                ..EwmaConfig::default()
            },
            ..FusionConfig::default()
        }
    }

    #[test]
    fn unanimous_votes_pass_through() {
        let mut core = FusionCore::new(4, fast_config());
        let clean = core.fuse(7, &[Some(0.2), Some(0.25), Some(0.1), Some(0.15)]);
        assert!(!clean.anomaly);
        assert!(clean.scored);
        assert!(clean.score < 0.5);
        let attack = core.fuse(7, &[Some(0.9), Some(0.9), Some(0.9), Some(0.9)]);
        assert!(attack.anomaly);
        assert!(attack.score > core.threshold(7));
    }

    #[test]
    fn abstaining_voters_reweight_instead_of_vetoing() {
        let mut core = FusionCore::new(3, fast_config());
        // Voter 2 abstains; the other two still decide.
        let d = core.fuse(1, &[Some(0.9), Some(0.9), None]);
        assert!(d.anomaly);
        let d = core.fuse(1, &[Some(0.1), Some(0.2), None]);
        assert!(!d.anomaly);
    }

    #[test]
    fn all_abstain_fails_closed() {
        let mut core = FusionCore::new(2, fast_config());
        let d = core.fuse(3, &[None, None]);
        assert!(d.anomaly, "unscored frames must fail closed");
        assert!(!d.scored);
        assert!(!d.absorb_ok);
    }

    #[test]
    fn absorption_requires_a_score_shift_verdict() {
        let mut core = FusionCore::new(2, fast_config());
        // Steady clean traffic: no drift verdict, so absorption stays
        // gated shut — this is retrain-on-drift, not fixed cadence.
        for i in 0..64 {
            let d = core.fuse(5, &[Some(0.2), Some(0.22)]);
            assert!(!d.absorb_ok, "frame {i}: no drift → no absorption");
        }
        // The environment shifts: both voters' scores step up but stay
        // below the call boundary. The change-point detectors fire and
        // open the absorption budget.
        let mut granted = false;
        for _ in 0..64 {
            let d = core.fuse(5, &[Some(0.42), Some(0.44)]);
            assert!(!d.anomaly, "sub-threshold shift stays accepted");
            if d.drift.is_some() {
                assert!(matches!(
                    d.drift.map(|v| v.kind),
                    Some(DriftKind::ScoreShift { .. })
                ));
            }
            granted |= d.absorb_ok;
        }
        assert!(granted, "a ScoreShift verdict must open the budget");
    }

    #[test]
    fn disagreement_episode_quarantines_absorption_and_erodes_weight() {
        let mut core = FusionCore::new(4, fast_config());
        // Warm agreement period.
        for _ in 0..16 {
            core.fuse(9, &[Some(0.2), Some(0.2), Some(0.2), Some(0.2)]);
        }
        let trusted = core.weight(9, 1);
        // Voter 1 starts calling anomalies the others don't see — the
        // disagreement signature of a model being gamed.
        let mut saw_episode = false;
        let mut saw_verdict = false;
        for _ in 0..64 {
            let d = core.fuse(9, &[Some(0.2), Some(0.9), Some(0.2), Some(0.2)]);
            saw_episode |= d.episode;
            if let Some(v) = d.drift {
                saw_verdict |= matches!(v.kind, DriftKind::EnsembleDisagreement);
            }
            assert!(!d.absorb_ok, "episode must quarantine absorption");
        }
        assert!(saw_episode, "persistent disagreement must open an episode");
        assert!(saw_verdict, "episode start must emit a typed verdict");
        assert!(
            core.weight(9, 1) < trusted,
            "the disagreeing voter must lose influence: {} -> {}",
            trusted,
            core.weight(9, 1)
        );
        // And the fused call still follows the consensus.
        let d = core.fuse(9, &[Some(0.2), Some(0.9), Some(0.2), Some(0.2)]);
        assert!(!d.anomaly, "one outvoted voter cannot flip the verdict");
    }

    #[test]
    fn threshold_adapts_within_clamps() {
        let config = fast_config();
        let mut core = FusionCore::new(2, config);
        for _ in 0..128 {
            core.fuse(2, &[Some(0.2), Some(0.2)]);
        }
        let theta = core.threshold(2);
        assert!(
            (config.threshold_min..=config.threshold_max).contains(&theta),
            "theta {theta} inside clamps"
        );
        // theta tracks clean scores + margin: 0.2 + 0.2 clamps to 0.5.
        assert!((theta - config.threshold_min).abs() < 1e-9);
    }

    #[test]
    fn per_sa_state_is_independent() {
        let mut core = FusionCore::new(2, fast_config());
        for _ in 0..32 {
            core.fuse(1, &[Some(0.2), Some(0.9)]);
        }
        assert!(core.weight(1, 1) < 1.0, "SA 1 learned the disagreement");
        assert!(
            (core.weight(2, 1) - 1.0).abs() < 1e-12,
            "SA 2 is untouched: fusion state is per-SA"
        );
    }

    #[test]
    fn rebaseline_voids_budget_and_episodes() {
        let mut core = FusionCore::new(2, fast_config());
        for _ in 0..32 {
            core.fuse(4, &[Some(0.2), Some(0.22)]);
        }
        for _ in 0..32 {
            core.fuse(4, &[Some(0.42), Some(0.44)]);
        }
        core.rebaseline(4);
        assert_eq!(core.budget(4), 0);
        assert!(!core.episode(4));
    }
}
