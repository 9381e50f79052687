//! An event-driven multi-node CAN bus simulator.
//!
//! The simulator advances in bit-time units at a configurable bit rate
//! (250 kb/s for both thesis vehicles). Each node owns a queue of frames
//! with release times; whenever the bus goes idle, every node whose head
//! frame is due contends, bitwise arbitration picks the winner (lowest
//! identifier — [`crate::arbitration`]), and the winning frame occupies the
//! bus for its stuffed wire length plus the 3-bit interframe space. Losers
//! automatically re-contend at the next idle point, so "neither information
//! nor time is lost" (thesis §2.1.2).
//!
//! The output is a chronological log of [`BusRecord`]s that the analog layer
//! turns into voltage traces.

use crate::{arbitration::arbitrate, DataFrame, WireFrame};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Interframe space in bit times (CAN intermission field).
pub const INTERFRAME_SPACE_BITS: u64 = 3;

/// A frame queued for transmission by a node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct QueuedFrame {
    /// Earliest bit time at which the node may start transmitting.
    release_at: u64,
    frame: DataFrame,
}

/// One transmission that completed on the simulated bus.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusRecord {
    /// Bit time at which the SOF hit the bus.
    pub start_bit_time: u64,
    /// Index of the transmitting node (as registered with
    /// [`BusSimulator::add_node`]).
    pub node: usize,
    /// The transmitted frame.
    pub frame: DataFrame,
    /// Number of nodes that contended for this slot (1 = uncontended).
    pub contenders: usize,
}

impl BusRecord {
    /// Start time in seconds for a given bit rate.
    pub fn start_time_secs(&self, bit_rate_bps: u32) -> f64 {
        self.start_bit_time as f64 / f64::from(bit_rate_bps)
    }
}

/// Statistics accumulated over a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BusStats {
    /// Total frames delivered.
    pub frames: usize,
    /// Slots in which more than one node contended.
    pub contended_slots: usize,
    /// Total bus-busy time in bit times.
    pub busy_bits: u64,
    /// Bit time at which the last frame finished (0 for an empty run).
    pub final_bit_time: u64,
}

impl BusStats {
    /// Bus utilization in `[0, 1]`: busy bits over elapsed bits.
    pub fn utilization(&self) -> f64 {
        if self.final_bit_time == 0 {
            0.0
        } else {
            self.busy_bits as f64 / self.final_bit_time as f64
        }
    }
}

/// An event-driven CAN bus simulator.
///
/// # Example
///
/// ```
/// use vprofile_can::bus::BusSimulator;
/// use vprofile_can::{DataFrame, ExtendedId};
///
/// # fn main() -> Result<(), vprofile_can::CanError> {
/// let mut bus = BusSimulator::new(250_000);
/// let ecm = bus.add_node("ECM");
/// let abs = bus.add_node("ABS");
/// // Both due at t=0: the lower identifier must win the first slot.
/// bus.queue_frame(abs, 0, DataFrame::new(ExtendedId::new(0x1800_0021)?, &[1])?);
/// bus.queue_frame(ecm, 0, DataFrame::new(ExtendedId::new(0x0C00_0000)?, &[2])?);
/// let log = bus.run();
/// assert_eq!(log[0].node, ecm);
/// assert_eq!(log[1].node, abs);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BusSimulator {
    bit_rate_bps: u32,
    node_names: Vec<String>,
    queues: Vec<VecDeque<QueuedFrame>>,
}

impl BusSimulator {
    /// Creates an empty bus at the given bit rate.
    ///
    /// # Panics
    ///
    /// Panics if `bit_rate_bps` is zero.
    pub fn new(bit_rate_bps: u32) -> Self {
        assert!(bit_rate_bps > 0, "bit rate must be non-zero");
        BusSimulator {
            bit_rate_bps,
            node_names: Vec::new(),
            queues: Vec::new(),
        }
    }

    /// The configured bit rate.
    pub fn bit_rate_bps(&self) -> u32 {
        self.bit_rate_bps
    }

    /// Registers a node and returns its index.
    pub fn add_node(&mut self, name: &str) -> usize {
        self.node_names.push(name.to_owned());
        self.queues.push(VecDeque::new());
        self.node_names.len() - 1
    }

    /// Name of a registered node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_name(&self, node: usize) -> &str {
        &self.node_names[node]
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Queues a frame for transmission by `node` no earlier than
    /// `release_at` (bit time). Frames from one node keep their queue order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or releases are queued out of order
    /// for the node.
    pub fn queue_frame(&mut self, node: usize, release_at: u64, frame: DataFrame) {
        let queue = &mut self.queues[node];
        if let Some(last) = queue.back() {
            assert!(
                release_at >= last.release_at,
                "frames must be queued in release order per node"
            );
        }
        queue.push_back(QueuedFrame { release_at, frame });
    }

    /// Runs the simulation to completion, draining every queue, and returns
    /// the chronological transmission log.
    pub fn run(&mut self) -> Vec<BusRecord> {
        self.run_with_stats().0
    }

    /// Like [`BusSimulator::run`] but also returns aggregate statistics.
    pub fn run_with_stats(&mut self) -> (Vec<BusRecord>, BusStats) {
        let mut log = Vec::new();
        let mut stats = BusStats::default();
        let mut now: u64 = 0;

        loop {
            // Earliest pending release across all nodes.
            let next_release = self
                .queues
                .iter()
                .filter_map(|q| q.front().map(|f| f.release_at))
                .min();
            let Some(next_release) = next_release else {
                break;
            };
            now = now.max(next_release);

            // Every node whose head frame is due contends for this slot.
            let contenders: Vec<usize> = self
                .queues
                .iter()
                .enumerate()
                .filter(|(_, q)| q.front().is_some_and(|f| f.release_at <= now))
                .map(|(i, _)| i)
                .collect();
            debug_assert!(!contenders.is_empty());

            let winner_node = if contenders.len() == 1 {
                contenders[0]
            } else {
                let ids: Vec<_> = contenders
                    .iter()
                    .filter_map(|&n| self.queues[n].front().map(|q| q.frame.id()))
                    .collect();
                debug_assert_eq!(
                    ids.len(),
                    contenders.len(),
                    "every contender was selected for having a due head frame"
                );
                let outcome = arbitrate(&ids);
                contenders[outcome.winner]
            };

            let Some(queued) = self.queues[winner_node].pop_front() else {
                // Unreachable: the winner was selected for having a due
                // head frame this slot. Skipping the slot keeps the
                // simulation moving if the invariant is ever violated.
                continue;
            };
            let wire = WireFrame::encode(&queued.frame);
            let duration = wire.duration_bits() as u64 + INTERFRAME_SPACE_BITS;

            if contenders.len() > 1 {
                stats.contended_slots += 1;
            }
            stats.frames += 1;
            stats.busy_bits += wire.duration_bits() as u64;

            log.push(BusRecord {
                start_bit_time: now,
                node: winner_node,
                frame: queued.frame,
                contenders: contenders.len(),
            });

            now += duration;
            stats.final_bit_time = now;
        }

        (log, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{J1939Id, Pgn, Priority, SourceAddress};
    use proptest::prelude::*;

    fn frame(priority: u8, pgn: u32, sa: u8) -> DataFrame {
        let id = J1939Id::new(
            Priority::new(priority).unwrap(),
            Pgn::new(pgn).unwrap(),
            SourceAddress(sa),
        );
        DataFrame::new(id.into(), &[sa, 0x42]).unwrap()
    }

    #[test]
    fn empty_bus_produces_empty_log() {
        let mut bus = BusSimulator::new(250_000);
        bus.add_node("only");
        let (log, stats) = bus.run_with_stats();
        assert!(log.is_empty());
        assert_eq!(stats.frames, 0);
        assert_eq!(stats.utilization().to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn single_node_transmits_in_queue_order() {
        let mut bus = BusSimulator::new(250_000);
        let n = bus.add_node("ECM");
        bus.queue_frame(n, 0, frame(3, 0x100, 0));
        bus.queue_frame(n, 0, frame(3, 0x200, 0));
        bus.queue_frame(n, 500, frame(3, 0x300, 0));
        let log = bus.run();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].frame.j1939_id().pgn.raw(), 0x100);
        assert_eq!(log[1].frame.j1939_id().pgn.raw(), 0x200);
        assert_eq!(log[2].frame.j1939_id().pgn.raw(), 0x300);
        // Back-to-back frames are separated by at least the frame length +
        // interframe space.
        assert!(log[1].start_bit_time > log[0].start_bit_time);
        assert!(log[2].start_bit_time >= 500);
    }

    #[test]
    fn simultaneous_release_resolved_by_priority() {
        let mut bus = BusSimulator::new(250_000);
        let low = bus.add_node("low-priority");
        let high = bus.add_node("high-priority");
        bus.queue_frame(low, 0, frame(7, 0x1, 0x80));
        bus.queue_frame(high, 0, frame(0, 0x1, 0x01));
        let (log, stats) = bus.run_with_stats();
        assert_eq!(log[0].node, high);
        assert_eq!(log[0].contenders, 2);
        assert_eq!(log[1].node, low);
        assert_eq!(stats.contended_slots, 1);
    }

    #[test]
    fn loser_retries_and_eventually_wins_the_bus() {
        let mut bus = BusSimulator::new(250_000);
        let a = bus.add_node("a");
        let b = bus.add_node("b");
        // b has lower priority but must still get through after a's burst.
        bus.queue_frame(b, 0, frame(7, 0x10, 0xB0));
        for _ in 0..3 {
            bus.queue_frame(a, 0, frame(0, 0x20, 0xA0));
        }
        let log = bus.run();
        assert_eq!(log.len(), 4);
        assert_eq!(log[3].node, b);
    }

    #[test]
    fn records_are_chronological_and_non_overlapping() {
        let mut bus = BusSimulator::new(250_000);
        let a = bus.add_node("a");
        let b = bus.add_node("b");
        for k in 0..5u64 {
            bus.queue_frame(a, k * 100, frame(1, 0x10 + k as u32, 0xA0));
            bus.queue_frame(b, k * 100, frame(2, 0x10 + k as u32, 0xB0));
        }
        let log = bus.run();
        for pair in log.windows(2) {
            let first = WireFrame::encode(&pair[0].frame);
            assert!(
                pair[1].start_bit_time
                    >= pair[0].start_bit_time
                        + first.duration_bits() as u64
                        + INTERFRAME_SPACE_BITS
            );
        }
    }

    #[test]
    fn utilization_is_bounded() {
        let mut bus = BusSimulator::new(250_000);
        let a = bus.add_node("a");
        for k in 0..10u64 {
            bus.queue_frame(a, k * 1000, frame(1, k as u32, 0));
        }
        let (_, stats) = bus.run_with_stats();
        let u = stats.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u} out of range");
    }

    #[test]
    #[should_panic(expected = "release order")]
    fn out_of_order_queueing_panics() {
        let mut bus = BusSimulator::new(250_000);
        let a = bus.add_node("a");
        bus.queue_frame(a, 100, frame(1, 1, 0));
        bus.queue_frame(a, 50, frame(1, 2, 0));
    }

    #[test]
    fn start_time_secs_scales_with_bit_rate() {
        let record = BusRecord {
            start_bit_time: 250_000,
            node: 0,
            frame: frame(1, 1, 1),
            contenders: 1,
        };
        assert!((record.start_time_secs(250_000) - 1.0).abs() < 1e-12);
        assert!((record.start_time_secs(500_000) - 0.5).abs() < 1e-12);
    }

    proptest! {
        /// All queued frames are delivered exactly once, in a log sorted by
        /// start time.
        #[test]
        fn prop_all_frames_delivered(
            releases in proptest::collection::vec((0u64..5000, 0u32..1000, 0u8..4), 1..30)
        ) {
            let mut bus = BusSimulator::new(250_000);
            for i in 0..4 {
                bus.add_node(&format!("n{i}"));
            }
            let mut per_node: Vec<Vec<(u64, u32)>> = vec![Vec::new(); 4];
            for &(t, pgn, node) in &releases {
                per_node[node as usize].push((t, pgn));
            }
            let mut expected = 0;
            for (node, frames) in per_node.iter_mut().enumerate() {
                frames.sort();
                for (k, &(t, pgn)) in frames.iter().enumerate() {
                    // Make ids unique: encode node+seq in SA/PGN bits.
                    let f = frame((node % 8) as u8, pgn + (k as u32) * 1024, node as u8);
                    bus.queue_frame(node, t, f);
                    expected += 1;
                }
            }
            let log = bus.run();
            prop_assert_eq!(log.len(), expected);
            for pair in log.windows(2) {
                prop_assert!(pair[0].start_bit_time <= pair[1].start_bit_time);
            }
        }
    }
}
