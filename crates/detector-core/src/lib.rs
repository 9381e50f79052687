//! The backend-agnostic detection contract shared by the vProfile IDS
//! pipeline and the voltage-fingerprinting baselines.
//!
//! The sharded streaming pipeline in `vprofile-ids` was originally
//! hard-wired to `vprofile::Detector`. This crate extracts the contract
//! that pipeline actually needs from a detector into the object-safe
//! [`DetectionBackend`] trait, so Viden-, Scission- and VoltageIDS-style
//! detectors can ride the same sharding, supervision, backpressure, and
//! zero-allocation scratch machinery:
//!
//! * **scratch-aware scoring** — [`DetectionBackend::classify_into`] reads
//!   the extracted edge set from [`ScratchArena::edge_set`] and may use the
//!   arena's other buffers as working memory, so steady-state scoring
//!   performs no heap allocations;
//! * **snapshot / restore** — the pipeline supervisor checkpoints a
//!   worker's detector and rolls it back after a panic;
//!   [`DetectionBackend::snapshot`] / [`DetectionBackend::restore`] make
//!   that checkpointing backend-agnostic and drift-free (snapshots hold a
//!   clone of the concrete state, not a lossy serialization);
//! * **online updates** — backends that learn continuously (vProfile's
//!   Algorithm 4, Viden's profile drift tracking) hook
//!   [`DetectionBackend::absorb`]; stateless classifiers keep the default
//!   no-ops.
//!
//! [`VProfileBackend`] is the reference implementation, wrapping a trained
//! [`vprofile::Model`] (which carries its own stacked scoring rows)
//! together with its pending online-update buffer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod vprofile_backend;

pub use vprofile_backend::VProfileBackend;

use std::any::Any;
use std::collections::BTreeMap;
use vprofile::{ClusterId, LabeledEdgeSet, ScratchArena, VProfileError, Verdict};
use vprofile_can::SourceAddress;

/// An opaque, byte-exact checkpoint of one backend's mutable state.
///
/// Snapshots wrap a *clone* of the concrete backend rather than a
/// serialized form: restoring reproduces the exact floating-point state,
/// so a supervisor-restarted worker scores byte-identically to an
/// unrestarted one. The `kind` tag guards against restoring a snapshot
/// into a different backend type.
#[derive(Debug)]
pub struct BackendSnapshot {
    kind: &'static str,
    state: Box<dyn Any + Send + Sync>,
}

impl BackendSnapshot {
    /// Wraps a clone of a concrete backend state under a kind tag.
    pub fn new<T: Any + Send + Sync>(kind: &'static str, state: T) -> Self {
        BackendSnapshot {
            kind,
            state: Box::new(state),
        }
    }

    /// The backend kind this snapshot was taken from.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Borrows the concrete state, if `T` matches the snapshotted type.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.state.downcast_ref::<T>()
    }

    /// Restores this snapshot into `target`, verifying the kind tag.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::KindMismatch`] when the snapshot was taken from a
    /// different backend kind (or a different concrete type).
    pub fn restore_into<T: Any + Clone>(
        &self,
        expected: &'static str,
        target: &mut T,
    ) -> Result<(), SnapshotError> {
        let state = (self.kind == expected)
            .then(|| self.downcast_ref::<T>())
            .flatten()
            .ok_or(SnapshotError::KindMismatch {
                expected,
                found: self.kind,
            })?;
        target.clone_from(state);
        Ok(())
    }
}

/// Failure modes of [`DetectionBackend::restore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was taken from a different backend kind.
    KindMismatch {
        /// The kind the restoring backend expected.
        expected: &'static str,
        /// The kind recorded in the snapshot.
        found: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::KindMismatch { expected, found } => write!(
                f,
                "snapshot kind mismatch: expected `{expected}`, snapshot holds `{found}`"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The detection contract the streaming IDS pipeline runs against.
///
/// The trait is **object-safe** (no generic methods, no `Self` returns) so
/// harness code can hold `&dyn DetectionBackend`; the pipeline hot path
/// nevertheless dispatches statically through an enum to keep scoring
/// monomorphized and allocation-free.
///
/// # Scratch contract
///
/// [`DetectionBackend::classify_into`] and [`DetectionBackend::absorb`]
/// are the per-frame hot path. `classify_into` reads the extracted edge
/// set from [`ScratchArena::edge_set`] (filled by
/// `vprofile::EdgeSetExtractor::extract_into`) and may use
/// [`ScratchArena::distances`] and [`ScratchArena::features`] as working
/// buffers; it must not allocate once those buffers have reached
/// steady-state capacity. Verdict semantics are fail-closed: a scoring
/// failure maps to [`vprofile::AnomalyKind::Unscorable`], never to a
/// silent pass.
pub trait DetectionBackend: Send {
    /// Short stable identifier for reports and snapshot tags
    /// (e.g. `"vprofile"`, `"viden"`).
    fn name(&self) -> &'static str;

    /// Re-fits the backend in place from labeled training data and the
    /// SA → cluster lookup table.
    ///
    /// # Errors
    ///
    /// Propagates training failures; the previous state stays in force
    /// when training fails.
    fn train(
        &mut self,
        data: &[LabeledEdgeSet],
        lut: &BTreeMap<SourceAddress, ClusterId>,
    ) -> Result<(), VProfileError>;

    /// Classifies the edge set currently held in `scratch.edge_set`,
    /// claimed to originate from `sa`.
    fn classify_into(&mut self, scratch: &mut ScratchArena, sa: SourceAddress) -> Verdict;

    /// Optional online-update hook: feeds one accepted (non-anomalous)
    /// edge set back into the backend. Stateless backends keep the
    /// default no-op.
    fn absorb(&mut self, sa: SourceAddress, edge_set: &[f64]) {
        let _ = (sa, edge_set);
    }

    /// Flushes any buffered online updates immediately. Default no-op.
    fn apply_pending_updates(&mut self) {}

    /// Drops buffered online updates attributed to a quarantined SA, so a
    /// suspect sender cannot poison the model. Default no-op.
    fn discard_pending_for(&mut self, sa: SourceAddress) {
        let _ = sa;
    }

    /// `true` once absorbed updates warrant a full retrain (the thesis'
    /// upper bound `M`). Default `false` for backends without online
    /// updates.
    fn retrain_due(&self, bound: usize) -> bool {
        let _ = bound;
        false
    }

    /// How far applied online updates have moved the model away from its
    /// last trained/installed baseline, as a backend-defined scalar (for
    /// vProfile: the largest Euclidean displacement of any cluster mean).
    /// The IDS engine's poisoning drift guard compares this against a
    /// threshold and quarantines the absorbing sender when it trips — the
    /// defense-in-depth catch for an attacker walking the §5.3 update
    /// toward their own signature. Default `0.0` for backends without
    /// online updates.
    fn update_drift(&self) -> f64 {
        0.0
    }

    /// Maps a verdict onto a calibrated anomaly score in `[0, 1]`, where
    /// `0.5` is the backend's own decision boundary: `< 0.5` means the
    /// backend would accept the frame, `> 0.5` means it would alarm, and
    /// the distance from `0.5` expresses confidence. `None` means the
    /// backend abstains ([`vprofile::AnomalyKind::Unscorable`]) — a fusion
    /// layer must reweight the remaining voters rather than count an
    /// abstention as a vote.
    ///
    /// The default maps the shared verdict shapes without model knowledge:
    /// accepted frames land below `0.5` by a monotone squash of the
    /// reported distance, threshold excesses land above `0.5` scaled by
    /// the relative overshoot. Backends that know their per-cluster
    /// thresholds (vProfile) override this with a sharper map.
    fn calibrated_score(&self, sa: SourceAddress, verdict: &Verdict) -> Option<f64> {
        let _ = sa;
        default_calibration(verdict)
    }

    /// Captures a byte-exact checkpoint of the backend's mutable state for
    /// supervisor restarts.
    fn snapshot(&self) -> BackendSnapshot;

    /// Rolls the backend back to a previously captured checkpoint.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::KindMismatch`] when the snapshot belongs to a
    /// different backend kind; the current state is left untouched.
    fn restore(&mut self, snapshot: &BackendSnapshot) -> Result<(), SnapshotError>;
}

/// The model-agnostic verdict → score map backing
/// [`DetectionBackend::calibrated_score`]'s default implementation.
///
/// * `Ok { distance }` → `0.5 · d / (d + 1)`: monotone in the distance,
///   always strictly below the `0.5` boundary.
/// * `ThresholdExceeded { distance, limit }` → `0.5 + 0.5 · min(1, (d − l)/l)`:
///   scaled by the relative overshoot, always at or above the boundary.
/// * `ClusterMismatch` → `0.9`: the waveform identifies a *different* ECU,
///   a high-confidence alarm regardless of distance scale.
/// * `UnknownSa` → `1.0`: trivially anomalous.
/// * `Unscorable` → `None`: the backend abstains.
pub fn default_calibration(verdict: &Verdict) -> Option<f64> {
    use vprofile::AnomalyKind;
    match verdict {
        Verdict::Ok { distance, .. } => {
            let d = distance.max(0.0);
            Some(0.5 * d / (d + 1.0))
        }
        Verdict::Anomaly { kind } => match kind {
            AnomalyKind::ThresholdExceeded {
                distance, limit, ..
            } => {
                let overshoot = if *limit > f64::EPSILON {
                    ((distance - limit) / limit).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                Some(0.5 + 0.5 * overshoot)
            }
            AnomalyKind::ClusterMismatch { .. } => Some(0.9),
            AnomalyKind::UnknownSa { .. } => Some(1.0),
            AnomalyKind::Unscorable => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal stateless backend used to pin down the trait contract.
    #[derive(Debug, Clone, PartialEq)]
    struct FlagEverything;

    impl DetectionBackend for FlagEverything {
        fn name(&self) -> &'static str {
            "flag-everything"
        }

        fn train(
            &mut self,
            _data: &[LabeledEdgeSet],
            _lut: &BTreeMap<SourceAddress, ClusterId>,
        ) -> Result<(), VProfileError> {
            Ok(())
        }

        fn classify_into(&mut self, _scratch: &mut ScratchArena, sa: SourceAddress) -> Verdict {
            Verdict::Anomaly {
                kind: vprofile::AnomalyKind::UnknownSa { sa },
            }
        }

        fn snapshot(&self) -> BackendSnapshot {
            BackendSnapshot::new(self.name(), self.clone())
        }

        fn restore(&mut self, snapshot: &BackendSnapshot) -> Result<(), SnapshotError> {
            snapshot.restore_into("flag-everything", self)
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let mut backend = FlagEverything;
        let dynamic: &mut dyn DetectionBackend = &mut backend;
        assert_eq!(dynamic.name(), "flag-everything");
        let mut scratch = ScratchArena::new();
        let verdict = dynamic.classify_into(&mut scratch, SourceAddress(7));
        assert!(verdict.is_anomaly());
    }

    #[test]
    fn default_hooks_are_inert() {
        let mut backend = FlagEverything;
        backend.absorb(SourceAddress(1), &[1.0, 2.0]);
        backend.apply_pending_updates();
        backend.discard_pending_for(SourceAddress(1));
        assert!(!backend.retrain_due(0));
        assert!(backend.update_drift().abs() < 1e-12);
    }

    #[test]
    fn snapshot_round_trips() {
        let backend = FlagEverything;
        let snapshot = backend.snapshot();
        assert_eq!(snapshot.kind(), "flag-everything");
        let mut other = FlagEverything;
        other.restore(&snapshot).unwrap();
    }

    #[test]
    fn restore_rejects_foreign_snapshots() {
        let foreign = BackendSnapshot::new("something-else", 42u32);
        let mut backend = FlagEverything;
        let err = backend.restore(&foreign).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::KindMismatch {
                expected: "flag-everything",
                found: "something-else",
            }
        );
        assert!(err.to_string().contains("something-else"));
    }

    #[test]
    fn default_calibration_brackets_the_decision_boundary() {
        use vprofile::AnomalyKind;
        // Accepted frames stay strictly below 0.5, monotone in distance.
        let near = default_calibration(&Verdict::Ok {
            cluster: ClusterId(0),
            distance: 0.1,
        })
        .unwrap();
        let far = default_calibration(&Verdict::Ok {
            cluster: ClusterId(0),
            distance: 10.0,
        })
        .unwrap();
        assert!(near < far && far < 0.5, "{near} < {far} < 0.5");

        // Threshold excesses start at the boundary and grow with overshoot.
        let grazing = default_calibration(&Verdict::Anomaly {
            kind: AnomalyKind::ThresholdExceeded {
                cluster: ClusterId(0),
                distance: 5.0,
                limit: 5.0,
            },
        })
        .unwrap();
        let blown = default_calibration(&Verdict::Anomaly {
            kind: AnomalyKind::ThresholdExceeded {
                cluster: ClusterId(0),
                distance: 50.0,
                limit: 5.0,
            },
        })
        .unwrap();
        assert!((grazing - 0.5).abs() < 1e-12);
        assert!((blown - 1.0).abs() < 1e-12);

        let mismatch = default_calibration(&Verdict::Anomaly {
            kind: AnomalyKind::ClusterMismatch {
                expected: ClusterId(0),
                predicted: ClusterId(1),
                distance: 1.0,
            },
        })
        .unwrap();
        assert!(mismatch > 0.5);
        assert!(
            default_calibration(&Verdict::Anomaly {
                kind: AnomalyKind::UnknownSa {
                    sa: SourceAddress(9)
                },
            })
            .unwrap()
            .to_bits()
                == 1.0f64.to_bits()
        );
        // Unscorable abstains rather than voting.
        assert!(default_calibration(&Verdict::Anomaly {
            kind: AnomalyKind::Unscorable,
        })
        .is_none());
    }

    #[test]
    fn downcast_rejects_wrong_type() {
        let snapshot = BackendSnapshot::new("flag-everything", 42u32);
        // Kind matches but the concrete type does not: restore must fail
        // rather than clobber state.
        let mut backend = FlagEverything;
        assert!(backend.restore(&snapshot).is_err());
        assert!(snapshot.downcast_ref::<FlagEverything>().is_none());
        assert_eq!(snapshot.downcast_ref::<u32>(), Some(&42));
    }
}
