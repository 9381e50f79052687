//! Static dispatch over the detection backends the pipeline can run.
//!
//! The pipeline hot path scores one frame per call; boxing the backend
//! behind `dyn DetectionBackend` would keep the trait calls virtual and
//! make `Engine: Clone` (the supervisor's checkpoint mechanism)
//! awkward. [`Backend`] instead enumerates the known backends and
//! match-delegates every [`DetectionBackend`] method, so each arm is
//! monomorphized, inlineable, and allocation-free — the enum *is* the
//! dispatch table, and its `Clone` gives byte-exact checkpoints, copied
//! into an existing checkpoint of the same backend without allocating.

use vprofile::{Model, ScratchArena, Verdict};
use vprofile_baselines::{ScissionDetector, VidenDetector, VoltageIdsDetector};
use vprofile_can::SourceAddress;
use vprofile_detector_core::{DetectionBackend, VProfileBackend};

/// Which detection backend a pipeline is running — a plain tag for
/// reports, benches, and config plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum BackendKind {
    /// vProfile's Mahalanobis nearest-cluster detector (the reference).
    VProfile,
    /// Viden-style tracking-point voltage profiles.
    Viden,
    /// Scission-style region features + logistic regression.
    Scission,
    /// VoltageIDS-style region features + one-vs-rest linear SVM.
    VoltageIds,
}

impl BackendKind {
    /// Stable lowercase label, matching [`DetectionBackend::name`].
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::VProfile => "vprofile",
            BackendKind::Viden => "viden",
            BackendKind::Scission => "scission",
            BackendKind::VoltageIds => "voltage-ids",
        }
    }
}

/// The enum-dispatched detection backend each voter of an
/// [`crate::Engine`] runs.
///
/// Every variant implements [`DetectionBackend`]; this enum forwards each
/// trait method with a `match`, keeping the hot path statically
/// dispatched (see the module docs for why this beats `Box<dyn>` here).
#[derive(Debug)]
pub enum Backend {
    /// vProfile's Mahalanobis nearest-cluster detector.
    VProfile(VProfileBackend),
    /// Viden-style tracking-point voltage profiles.
    Viden(VidenDetector),
    /// Scission-style region features + logistic regression.
    Scission(ScissionDetector),
    /// VoltageIDS-style region features + one-vs-rest linear SVM.
    VoltageIds(VoltageIdsDetector),
}

impl Backend {
    /// Wraps a trained vProfile model with its threshold margin.
    pub fn vprofile(model: Model, margin: f64) -> Self {
        Backend::VProfile(VProfileBackend::new(model, margin))
    }

    /// The tag for this backend.
    pub fn kind(&self) -> BackendKind {
        match self {
            Backend::VProfile(_) => BackendKind::VProfile,
            Backend::Viden(_) => BackendKind::Viden,
            Backend::Scission(_) => BackendKind::Scission,
            Backend::VoltageIds(_) => BackendKind::VoltageIds,
        }
    }

    /// The wrapped vProfile backend, when this is the vProfile variant.
    pub fn as_vprofile(&self) -> Option<&VProfileBackend> {
        match self {
            Backend::VProfile(b) => Some(b),
            _ => None,
        }
    }

    /// Mutable access to the wrapped vProfile backend.
    pub fn as_vprofile_mut(&mut self) -> Option<&mut VProfileBackend> {
        match self {
            Backend::VProfile(b) => Some(b),
            _ => None,
        }
    }
}

impl From<VProfileBackend> for Backend {
    fn from(b: VProfileBackend) -> Self {
        Backend::VProfile(b)
    }
}

impl From<VidenDetector> for Backend {
    fn from(b: VidenDetector) -> Self {
        Backend::Viden(b)
    }
}

impl From<ScissionDetector> for Backend {
    fn from(b: ScissionDetector) -> Self {
        Backend::Scission(b)
    }
}

impl From<VoltageIdsDetector> for Backend {
    fn from(b: VoltageIdsDetector) -> Self {
        Backend::VoltageIds(b)
    }
}

macro_rules! delegate {
    ($self:expr, $b:ident => $body:expr) => {
        match $self {
            Backend::VProfile($b) => $body,
            Backend::Viden($b) => $body,
            Backend::Scission($b) => $body,
            Backend::VoltageIds($b) => $body,
        }
    };
}

impl Clone for Backend {
    fn clone(&self) -> Self {
        delegate!(self, b => Backend::from(b.clone()))
    }

    /// Copies into `self`'s buffers when both are the same backend.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Backend::VProfile(to), Backend::VProfile(from)) => to.clone_from(from),
            (Backend::Viden(to), Backend::Viden(from)) => to.clone_from(from),
            (Backend::Scission(to), Backend::Scission(from)) => to.clone_from(from),
            (Backend::VoltageIds(to), Backend::VoltageIds(from)) => to.clone_from(from),
            (to, from) => {
                // xtask: allow(hot-path-alloc): another backend has no buffers to reuse; an engine changes backend only when a model is installed
                *to = from.clone();
            }
        }
    }
}

impl DetectionBackend for Backend {
    fn name(&self) -> &'static str {
        delegate!(self, b => b.name())
    }

    // xtask: hot-path
    fn classify_into(&mut self, scratch: &mut ScratchArena, sa: SourceAddress) -> Verdict {
        delegate!(self, b => b.classify_into(scratch, sa))
    }

    // xtask: cold
    fn absorb(&mut self, sa: SourceAddress, edge_set: &[f64]) {
        delegate!(self, b => b.absorb(sa, edge_set));
    }

    // xtask: cold
    fn apply_pending_updates(&mut self) {
        delegate!(self, b => b.apply_pending_updates());
    }

    fn discard_pending_for(&mut self, sa: SourceAddress) {
        delegate!(self, b => b.discard_pending_for(sa));
    }

    fn retrain_due(&self, bound: usize) -> bool {
        delegate!(self, b => b.retrain_due(bound))
    }

    // xtask: cold
    fn update_drift(&self) -> f64 {
        delegate!(self, b => b.update_drift())
    }

    fn calibrated_score(&self, sa: SourceAddress, verdict: &Verdict) -> Option<f64> {
        delegate!(self, b => b.calibrated_score(sa, verdict))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(BackendKind::VProfile.label(), "vprofile");
        assert_eq!(BackendKind::Viden.label(), "viden");
        assert_eq!(BackendKind::Scission.label(), "scission");
        assert_eq!(BackendKind::VoltageIds.label(), "voltage-ids");
    }
}
