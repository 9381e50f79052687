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
//! A deployed monitor runs for months, so the ledger keeps only the most
//! recent [`RETAINED`] records of each kind, in a fixed ring, while its
//! counts cover every record ever made.
//!
//! Lock discipline: the ledger's internal mutex (`fusion_ledger` in
//! `lock-order.toml`) is a leaf lock — it nests under the pipeline's
//! stats lock, is acquired last, and is never held across a blocking call
//! or another lock acquisition.

use crate::drift::DriftVerdict;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Records of each kind the ledger keeps. One traced benchmark run of a
/// saturated bus under three-voter fusion (tapbench `saturated_fused`,
/// seed 11) records 972 drift verdicts, so 1 024 hold the whole of such a
/// run while the ledger stays within 32 KiB of drift records and 24 KiB
/// of outages.
const RETAINED: usize = 1024;

/// One recorded change-point verdict, with stream provenance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftRecord {
    /// Sample index of the frame's first sample in the input stream.
    pub stream_pos: u64,
    /// Shard worker that scored the frame.
    pub shard: usize,
    /// The typed change-point verdict.
    pub verdict: DriftVerdict,
}

/// One recorded voter outage (suspension or quarantine), with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageRecord {
    /// Sample index of the frame's first sample in the input stream.
    pub stream_pos: u64,
    /// Shard worker the outage happened on.
    pub shard: usize,
    /// Index of the voter that dropped out (0 = primary).
    pub voter: u8,
}

/// The most recent [`RETAINED`] records of one kind, oldest first, and
/// how many were ever made.
#[derive(Debug)]
struct Recent<T> {
    records: VecDeque<T>,
    total: usize,
}

impl<T: Copy> Recent<T> {
    fn push(&mut self, record: T) {
        if self.records.len() == RETAINED {
            self.records.pop_front();
        }
        self.records.push_back(record);
        self.total += 1;
    }

    fn snapshot(&self) -> Vec<T> {
        self.records.iter().copied().collect()
    }
}

impl<T> Default for Recent<T> {
    fn default() -> Self {
        Recent {
            records: VecDeque::new(),
            total: 0,
        }
    }
}

#[derive(Debug, Default)]
struct LedgerState {
    drifts: Recent<DriftRecord>,
    outages: Recent<OutageRecord>,
}

/// Thread-safe record of fusion drift events: the most recent 1 024 of
/// each kind, and how many of each were ever recorded.
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

    /// Snapshot of the retained change-point verdicts, oldest first.
    pub fn drifts(&self) -> Vec<DriftRecord> {
        self.state.lock().drifts.snapshot()
    }

    /// Snapshot of the retained voter outages, oldest first.
    pub fn outages(&self) -> Vec<OutageRecord> {
        self.state.lock().outages.snapshot()
    }

    /// Number of change-point verdicts ever recorded, retained or not.
    pub fn drift_count(&self) -> usize {
        self.state.lock().drifts.total
    }

    /// Number of voter outages ever recorded, retained or not.
    pub fn outage_count(&self) -> usize {
        self.state.lock().outages.total
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

    #[test]
    fn ledger_keeps_the_most_recent_records_and_counts_all() {
        let ledger = DriftLedger::new();
        let extra = 37;
        let total = RETAINED + extra;
        for pos in 0..total as u64 {
            let verdict = DriftVerdict {
                sa: 3,
                kind: DriftKind::EnsembleDisagreement,
                magnitude: 1.0,
            };
            ledger.record_drift(pos, 0, verdict);
            ledger.record_outage(pos, 1, 2);
        }
        assert_eq!(ledger.drift_count(), total);
        assert_eq!(ledger.outage_count(), total);
        let kept: Vec<u64> = (extra as u64..total as u64).collect();
        let drifts: Vec<u64> = ledger.drifts().iter().map(|d| d.stream_pos).collect();
        let outages: Vec<u64> = ledger.outages().iter().map(|o| o.stream_pos).collect();
        assert_eq!(drifts, kept, "the last RETAINED drifts, oldest first");
        assert_eq!(outages, kept, "the last RETAINED outages, oldest first");
    }
}
