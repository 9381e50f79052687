//! Drift-aware ensemble fusion for the vProfile IDS.
//!
//! The §5.3 online update retrains on a fixed cadence, which makes it
//! blind to *when* adaptation is needed — and exploitable by an attacker
//! who poisons the update stream patiently. This crate replaces both
//! weaknesses with one mechanism built on calibrated scores
//! (`DetectionBackend::calibrated_score`):
//!
//! * [`FusionCore`] — N detection backends vote as first-class peers.
//!   The fused score is a confidence-weighted mean; secondary voters'
//!   weights are learned from their recent agreement with the primary
//!   ([`AgreementWeight`]), and the fused call compares against an
//!   adaptive per-SA threshold. A voter that abstains (or is suspended)
//!   is reweighted around, not counted — losing one voter degrades the
//!   ensemble gracefully instead of losing coverage.
//! * [`Cusum`] / [`Ewma`] — seeded, allocation-free change-point
//!   detectors over every voter's per-SA score stream, plus an
//!   ensemble-disagreement chart. They emit typed [`DriftVerdict`]s.
//! * **Retrain-on-drift** — absorption is *gated*: a
//!   [`DriftKind::ScoreShift`] verdict opens a bounded absorption
//!   budget (the model should adapt), while a
//!   [`DriftKind::EnsembleDisagreement`] episode quarantines absorption
//!   entirely (somebody is gaming one model's blind spot).
//! * [`DriftLedger`] — a cross-shard, operator-facing record of the
//!   notable fusion frames ([`FusionEvent`]s carrying a drift verdict or a
//!   voter outage).
//!
//! All per-frame state is per source address, so the sharded pipeline's
//! SA-affine routing keeps fused verdict streams deterministic for any
//! worker count. The `vprofile-ids` crate wires this into its pipeline
//! as `FusionEngine`/`FusionPipeline`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drift;
mod fuse;
mod ledger;
mod weights;

pub use drift::{Cusum, CusumConfig, DriftKind, DriftSignal, DriftVerdict, Ewma, EwmaConfig};
pub use fuse::{FusionConfig, FusionCore, FusionDecision};
pub use ledger::{DriftLedger, FusionEvent, FusionRecord};
pub use weights::{AgreementWeight, WeightConfig};
