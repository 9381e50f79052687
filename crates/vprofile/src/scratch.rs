//! Reusable per-worker scratch buffers for the per-frame hot path.
//!
//! Extraction and scoring need small working buffers (the extracted edge
//! set, a baseline backend's features and per-class scores). Allocating
//! them per frame dominates the steady-state cost of the detection loop, so
//! each pipeline worker owns one [`ScratchArena`] and threads it through
//! [`crate::EdgeSetExtractor::extract_into`] and the backends' scoring,
//! which for vProfile is [`crate::Detector::classify_parts`] on
//! `scratch.edge_set`: after the first frame sizes the buffers, the loop
//! performs zero heap allocations (verified by the counting-allocator
//! harness in the bench crate).

/// A bag of reusable buffers for one detection worker.
///
/// Fields are public so a caller can split borrows — e.g. score
/// `&scratch.edge_set` while a per-class scan fills
/// `&mut scratch.distances`. Buffer contents are unspecified between
/// calls (each entry point clears what it writes); only the capacity is
/// meaningful state, so two arenas always compare equal in the containers
/// that embed them.
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// The extracted (and, for §5.2 multi-set configs, averaged) edge set.
    pub edge_set: Vec<f64>,
    /// Per-set extraction buffer used when averaging multiple edge sets.
    pub edge_tmp: Vec<f64>,
    /// Per-class score vector for backends that score every class, such
    /// as the Scission-style posteriors. vProfile's seeded nearest-cluster
    /// scan does not use it.
    pub distances: Vec<f64>,
    /// Derived-feature buffer for backends that score hand-crafted
    /// features (e.g. the Scission-style 21-value region summary) instead
    /// of raw edge sets.
    pub features: Vec<f64>,
}

vprofile_sigstat::clone_in_place!(ScratchArena {
    edge_set,
    edge_tmp,
    distances,
    features
});

impl ScratchArena {
    /// Creates an empty arena; buffers grow to steady-state size on first
    /// use and are reused afterwards.
    #[must_use]
    pub fn new() -> Self {
        ScratchArena::default()
    }

    /// Creates an arena pre-sized for `edge_dim`-sample edge sets scored
    /// against `clusters` clusters, so even the first frame allocates
    /// nothing.
    #[must_use]
    pub fn with_dims(edge_dim: usize, clusters: usize) -> Self {
        ScratchArena {
            edge_set: Vec::with_capacity(edge_dim),
            edge_tmp: Vec::with_capacity(edge_dim),
            distances: Vec::with_capacity(clusters),
            // Large enough for the 21-value Scission feature set without
            // a first-frame allocation.
            features: Vec::with_capacity(24),
        }
    }
}

/// Scratch capacity is invisible state: arenas never make two otherwise
/// equal holders unequal.
impl PartialEq for ScratchArena {
    fn eq(&self, _other: &ScratchArena) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arenas_always_compare_equal() {
        let empty = ScratchArena::new();
        let sized = ScratchArena::with_dims(32, 8);
        assert_eq!(empty, sized);
    }

    #[test]
    fn with_dims_presizes_buffers() {
        let arena = ScratchArena::with_dims(32, 8);
        assert!(arena.edge_set.capacity() >= 32);
        assert!(arena.edge_tmp.capacity() >= 32);
        assert!(arena.distances.capacity() >= 8);
        assert!(arena.features.capacity() >= 21);
    }
}
