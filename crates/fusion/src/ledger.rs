//! Cross-shard drift ledger: the operator-facing record of change-point
//! verdicts and voter outages.
//!
//! Shard workers own disjoint SA slots, so fusion *decisions* need no
//! shared state — but operators want one chronological answer to "what
//! drifted, when, and which voter dropped out?" across the whole
//! pipeline. The pipeline records notable fusion frames here inside the
//! critical section that counts and emits them, so records keep framing
//! order across shards.
//!
//! Lock discipline: the ledger's internal mutex (`fusion_ledger` in
//! `lock-order.toml`) is a leaf lock — it nests under the pipeline's
//! stats lock, is acquired last, and is never held across a blocking call
//! or another lock acquisition.

use crate::drift::DriftVerdict;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// One recorded change-point verdict, with stream provenance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftRecord {
    /// Frame index in the merged output stream.
    pub stream_pos: u64,
    /// Shard worker that scored the frame.
    pub shard: usize,
    /// The typed change-point verdict.
    pub verdict: DriftVerdict,
}

/// One recorded voter outage (suspension or quarantine), with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageRecord {
    /// Frame index in the merged output stream.
    pub stream_pos: u64,
    /// Shard worker the outage happened on.
    pub shard: usize,
    /// Index of the voter that dropped out (0 = primary).
    pub voter: u8,
}

#[derive(Debug, Default)]
struct LedgerState {
    drifts: Vec<DriftRecord>,
    outages: Vec<OutageRecord>,
}

/// Thread-safe, append-only record of fusion drift events.
#[derive(Debug, Default)]
pub struct DriftLedger {
    state: Mutex<LedgerState>,
}

impl DriftLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        DriftLedger::default()
    }

    /// Appends one change-point verdict.
    pub fn record_drift(&self, stream_pos: u64, shard: usize, verdict: DriftVerdict) {
        self.state.lock().drifts.push(DriftRecord {
            stream_pos,
            shard,
            verdict,
        });
    }

    /// Appends one voter outage.
    pub fn record_outage(&self, stream_pos: u64, shard: usize, voter: u8) {
        self.state.lock().outages.push(OutageRecord {
            stream_pos,
            shard,
            voter,
        });
    }

    /// Snapshot of every recorded change-point verdict, in record order.
    pub fn drifts(&self) -> Vec<DriftRecord> {
        self.state.lock().drifts.clone()
    }

    /// Snapshot of every recorded voter outage, in record order.
    pub fn outages(&self) -> Vec<OutageRecord> {
        self.state.lock().outages.clone()
    }

    /// Number of recorded change-point verdicts.
    pub fn drift_count(&self) -> usize {
        self.state.lock().drifts.len()
    }

    /// Number of recorded voter outages.
    pub fn outage_count(&self) -> usize {
        self.state.lock().outages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::DriftKind;

    #[test]
    fn ledger_preserves_record_order() {
        let ledger = DriftLedger::new();
        ledger.record_drift(
            10,
            0,
            DriftVerdict {
                sa: 3,
                kind: DriftKind::ScoreShift { voter: 1 },
                magnitude: 1.5,
            },
        );
        ledger.record_drift(
            12,
            1,
            DriftVerdict {
                sa: 4,
                kind: DriftKind::EnsembleDisagreement,
                magnitude: 2.0,
            },
        );
        ledger.record_outage(15, 0, 2);
        let drifts = ledger.drifts();
        assert_eq!(drifts.len(), 2);
        assert_eq!(drifts.first().map(|d| d.stream_pos), Some(10));
        assert_eq!(drifts.get(1).map(|d| d.verdict.sa), Some(4));
        assert_eq!(ledger.outage_count(), 1);
        assert_eq!(ledger.outages().first().map(|o| o.voter), Some(2));
    }
}
