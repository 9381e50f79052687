//! Quarantine bookkeeping for degraded-mode operation.
//!
//! When a capture-integrity fault is detected (extraction failures or
//! unscorable verdicts piling up), the observations flowing through the
//! affected source addresses can no longer be trusted — absorbing them into
//! the model via the §5.3 online update would poison the very clusters the
//! detector relies on. A [`QuarantineSet`] records which SAs are under
//! suspicion so the IDS engine can keep *scoring* conservatively while
//! refusing to *learn* from them until the fault clears.

use serde::{Deserialize, Serialize};

/// The set of source addresses currently quarantined from model updates.
///
/// Stored as a sorted vector: quarantines hold at most 254 SAs, and a
/// sorted small vector serializes plainly.
#[derive(Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineSet {
    sas: Vec<u8>,
}

vprofile_sigstat::clone_in_place!(QuarantineSet { sas });

impl QuarantineSet {
    /// An empty quarantine.
    pub fn new() -> Self {
        QuarantineSet::default()
    }

    /// Quarantines an SA. Returns `true` if it was newly added.
    pub fn insert(&mut self, sa: u8) -> bool {
        match self.sas.binary_search(&sa) {
            Ok(_) => false,
            Err(at) => {
                self.sas.insert(at, sa);
                true
            }
        }
    }

    /// `true` while `sa` is quarantined.
    pub fn contains(&self, sa: u8) -> bool {
        self.sas.binary_search(&sa).is_ok()
    }

    /// Releases one SA. Returns `true` if it was present.
    pub fn remove(&mut self, sa: u8) -> bool {
        match self.sas.binary_search(&sa) {
            Ok(at) => {
                self.sas.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Releases every SA.
    pub fn clear(&mut self) {
        self.sas.clear();
    }

    /// Number of quarantined SAs.
    pub fn len(&self) -> usize {
        self.sas.len()
    }

    /// `true` when nothing is quarantined.
    pub fn is_empty(&self) -> bool {
        self.sas.is_empty()
    }

    /// The quarantined SAs, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.sas.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_release_round_trip() {
        let mut q = QuarantineSet::new();
        assert!(q.is_empty());
        assert!(q.insert(0x17));
        assert!(!q.insert(0x17), "double insert is idempotent");
        assert!(q.contains(0x17));
        assert!(!q.contains(0x18));
        assert_eq!(q.len(), 1);
        assert!(q.remove(0x17));
        assert!(!q.remove(0x17));
        assert!(q.is_empty());
    }

    #[test]
    fn clear_releases_everything_in_order() {
        let mut q = QuarantineSet::new();
        q.insert(0x20);
        q.insert(0x10);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![0x10, 0x20]);
        q.clear();
        assert!(q.is_empty());
    }
}
