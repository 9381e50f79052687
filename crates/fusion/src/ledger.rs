//! Cross-shard drift ledger: the operator-facing record of notable fusion
//! frames, those carrying a change-point verdict or a voter outage.
//!
//! Shard workers own disjoint SA slots, so fusion *decisions* need no
//! shared state — but operators want one chronological answer to "what
//! drifted, when, and which voter dropped out?" across the whole
//! pipeline. The pipeline records notable fusion frames here inside the
//! critical section that counts and emits them, so records keep framing
//! order across shards.
//!
//! A deployed monitor runs for months, so the ledger keeps only the most
//! recent [`RETAINED`] notable frames, whole, in one fixed ring, while its
//! counts cover every drift verdict and outage ever recorded.
//!
//! Lock discipline: the ledger's internal mutex (`fusion_ledger` in
//! `lock-order.toml`) is a leaf lock — it nests under the pipeline's
//! stats lock, is acquired last, and is never held across a blocking call
//! or another lock acquisition.

use crate::drift::DriftVerdict;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Notable frames the ledger keeps. One traced benchmark run of a
/// saturated bus under three-voter fusion (tapbench `saturated_fused`,
/// seed 11) records 972 drift verdicts, so 1 024 hold the whole of such a
/// run while the ledger stays within 56 KiB.
const RETAINED: usize = 1024;

/// Compact per-frame fusion telemetry: what the fused call decided for
/// one frame. The pipeline counts it into its fusion statistics and keeps
/// the notable ones in the [`DriftLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FusionRecord {
    /// The claimed source address the frame was fused under.
    pub sa: u8,
    /// The confidence-weighted fused score.
    pub score: f64,
    /// The adaptive per-SA threshold the call compared against.
    pub threshold: f64,
    /// The fused anomaly call.
    pub anomaly: bool,
    /// `false` when every voter abstained (fail-closed frame).
    pub scored: bool,
    /// `true` while the SA is inside a disagreement drift episode.
    pub episode: bool,
    /// `true` when this frame was absorbed into the voters' models
    /// (drift-gated online update).
    pub absorbed: bool,
    /// Bit `i` set when voter `i`'s call differed from the fused call.
    pub disagree_mask: u8,
    /// The typed change-point verdict this frame emitted, if any.
    pub drift: Option<DriftVerdict>,
    /// Voter index newly suspended on this frame, if any.
    pub outage: Option<u8>,
}

/// One notable fusion frame — one carrying a drift verdict or a voter
/// outage — with its stream provenance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FusionEvent {
    /// Sample index of the frame's first sample in the input stream.
    pub stream_pos: u64,
    /// Shard worker that scored the frame.
    pub shard: usize,
    /// The frame's fusion telemetry.
    pub record: FusionRecord,
}

#[derive(Debug, Default)]
struct LedgerState {
    /// The most recent [`RETAINED`] notable frames, oldest first.
    events: VecDeque<FusionEvent>,
    drifts: usize,
    outages: usize,
}

/// Thread-safe record of notable fusion frames: the most recent 1 024,
/// and how many drift verdicts and voter outages were ever recorded.
#[derive(Debug, Default)]
pub struct DriftLedger {
    state: Mutex<LedgerState>,
}

impl DriftLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        DriftLedger::default()
    }

    /// Appends one notable frame, dropping the oldest retained one when
    /// the ring is full, and counts its drift verdict and outage.
    pub fn record(&self, event: FusionEvent) {
        let mut state = self.state.lock();
        state.drifts += usize::from(event.record.drift.is_some());
        state.outages += usize::from(event.record.outage.is_some());
        if state.events.len() == RETAINED {
            state.events.pop_front();
        }
        state.events.push_back(event);
    }

    /// Snapshot of the retained notable frames, oldest first.
    pub fn events(&self) -> Vec<FusionEvent> {
        self.state.lock().events.iter().copied().collect()
    }

    /// Number of change-point verdicts ever recorded, retained or not.
    pub fn drift_count(&self) -> usize {
        self.state.lock().drifts
    }

    /// Number of voter outages ever recorded, retained or not.
    pub fn outage_count(&self) -> usize {
        self.state.lock().outages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::DriftKind;

    /// A notable frame at `stream_pos` on `shard`.
    fn notable(
        stream_pos: u64,
        shard: usize,
        drift: Option<DriftVerdict>,
        outage: Option<u8>,
    ) -> FusionEvent {
        FusionEvent {
            stream_pos,
            shard,
            record: FusionRecord {
                sa: drift.map_or(0, |d| d.sa),
                score: 0.5,
                threshold: 0.6,
                anomaly: false,
                scored: true,
                episode: false,
                absorbed: false,
                disagree_mask: 0,
                drift,
                outage,
            },
        }
    }

    #[test]
    fn ledger_preserves_record_order() {
        let ledger = DriftLedger::new();
        let shift = DriftVerdict {
            sa: 3,
            kind: DriftKind::ScoreShift { voter: 1 },
            magnitude: 1.5,
        };
        let disagreement = DriftVerdict {
            sa: 4,
            kind: DriftKind::EnsembleDisagreement,
            magnitude: 2.0,
        };
        ledger.record(notable(10, 0, Some(shift), None));
        ledger.record(notable(12, 1, Some(disagreement), None));
        ledger.record(notable(15, 0, None, Some(2)));
        let events = ledger.events();
        let drifts: Vec<&FusionEvent> =
            events.iter().filter(|e| e.record.drift.is_some()).collect();
        assert_eq!(drifts.len(), 2);
        assert_eq!(drifts.first().map(|e| e.stream_pos), Some(10));
        assert_eq!(drifts.get(1).map(|e| e.record.sa), Some(4));
        assert_eq!(ledger.drift_count(), 2);
        assert_eq!(ledger.outage_count(), 1);
        let outage = events.iter().find(|e| e.record.outage.is_some());
        assert_eq!(outage.and_then(|e| e.record.outage), Some(2));
        let positions: Vec<u64> = events.iter().map(|e| e.stream_pos).collect();
        assert_eq!(positions, [10, 12, 15], "one ring, in recording order");
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
            ledger.record(notable(pos, 0, Some(verdict), None));
            ledger.record(notable(pos, 1, None, Some(2)));
        }
        assert_eq!(ledger.drift_count(), total);
        assert_eq!(ledger.outage_count(), total);
        let kept = RETAINED / 2;
        let first = (total - kept) as u64;
        let events = ledger.events();
        assert_eq!(events.len(), RETAINED, "the ring holds RETAINED frames");
        let drifts: Vec<u64> = events
            .iter()
            .filter(|e| e.record.drift.is_some())
            .map(|e| e.stream_pos)
            .collect();
        let outages: Vec<u64> = events
            .iter()
            .filter(|e| e.record.outage.is_some())
            .map(|e| e.stream_pos)
            .collect();
        let expected: Vec<u64> = (first..total as u64).collect();
        assert_eq!(drifts, expected, "the last RETAINED frames, oldest first");
        assert_eq!(outages, expected, "the last RETAINED frames, oldest first");
    }
}
