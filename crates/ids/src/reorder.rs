//! Sequence-numbered reorder buffer.
//!
//! Detection workers complete windows out of order; whichever thread
//! finishes a window pushes its `(sequence, event)` pair through the one
//! shared [`ReorderBuffer`], under the pipeline's stats lock, so the event
//! stream leaves the pipeline in exactly the order the windows were framed.
//! This is what makes the sharded pipeline's output deterministic and
//! byte-identical to the single-worker engine.

use std::collections::VecDeque;

/// Buffers out-of-order items and releases them in contiguous sequence
/// order, starting from sequence 0.
///
/// Implemented as a ring of slots indexed by offset from the release
/// cursor, so the merge's steady state moves items through without
/// allocating (a `BTreeMap` would pay one node allocation per event) or
/// cloning: every item is moved in exactly once and moved out exactly once.
#[derive(Debug, Clone, Default)]
pub struct ReorderBuffer<T> {
    /// The next sequence to release; slot `i` of `slots` holds sequence
    /// `next + i`.
    next: u64,
    slots: VecDeque<Option<T>>,
    /// Number of occupied slots.
    buffered: usize,
}

impl<T> ReorderBuffer<T> {
    /// An empty buffer expecting sequence 0 first.
    #[must_use]
    pub fn new() -> Self {
        ReorderBuffer {
            next: 0,
            slots: VecDeque::new(),
            buffered: 0,
        }
    }

    /// Inserts one item and appends every now-releasable item to `out` in
    /// sequence order. `out` is not cleared; items arriving below the
    /// release cursor or at an already-buffered sequence are dropped (each
    /// sequence is released at most once).
    // xtask: hot-path
    pub fn push(&mut self, seq: u64, value: T, out: &mut Vec<T>) {
        if seq < self.next {
            debug_assert!(false, "sequence {seq} arrived after its release point");
            return;
        }
        let offset = usize::try_from(seq - self.next).unwrap_or(usize::MAX);
        if offset >= self.slots.len() {
            self.slots.resize_with(offset + 1, || None);
        }
        // xtask: allow(hot-path-panic): the resize_with above guarantees offset < slots.len()
        let slot = &mut self.slots[offset];
        if slot.is_some() {
            debug_assert!(false, "duplicate sequence {seq}");
            return;
        }
        *slot = Some(value);
        self.buffered += 1;
        // Release the contiguous run at the cursor; the run's sequence
        // numbers are dense by construction (slot i ↔ next + i).
        while matches!(self.slots.front(), Some(Some(_))) {
            if let Some(Some(value)) = self.slots.pop_front() {
                out.push(value);
                self.buffered -= 1;
                self.next += 1;
            }
        }
        debug_assert_eq!(
            self.buffered,
            self.slots.iter().filter(|s| s.is_some()).count(),
            "occupancy count must match the slots still waiting on a gap"
        );
        debug_assert!(
            !matches!(self.slots.front(), Some(Some(_))),
            "a releasable item was left behind the cursor"
        );
    }

    /// Number of items waiting on a gap in the sequence.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buffered
    }

    /// The next sequence number the buffer will release.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_items_pass_straight_through() {
        let mut buf = ReorderBuffer::new();
        let mut out = Vec::new();
        for seq in 0..5u64 {
            buf.push(seq, seq * 10, &mut out);
        }
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
        assert_eq!(buf.pending(), 0);
        assert_eq!(buf.next_seq(), 5);
    }

    #[test]
    fn out_of_order_items_are_held_until_the_gap_fills() {
        let mut buf = ReorderBuffer::new();
        let mut out = Vec::new();
        buf.push(2, "c", &mut out);
        buf.push(1, "b", &mut out);
        assert!(out.is_empty());
        assert_eq!(buf.pending(), 2);
        buf.push(0, "a", &mut out);
        assert_eq!(out, vec!["a", "b", "c"]);
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn interleaved_shards_release_in_sequence_order() {
        // Two "workers" finishing alternately, each ahead of the other.
        let mut buf = ReorderBuffer::new();
        let mut out = Vec::new();
        for seq in [1u64, 0, 3, 5, 2, 4, 7, 6] {
            buf.push(seq, seq, &mut out);
        }
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(buf.next_seq(), 8);
    }

    #[test]
    fn pending_counts_only_gapped_items() {
        let mut buf = ReorderBuffer::new();
        let mut out = Vec::new();
        buf.push(0, 0, &mut out);
        buf.push(5, 5, &mut out);
        buf.push(6, 6, &mut out);
        assert_eq!(buf.pending(), 2);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn in_order_steady_state_reuses_capacity() {
        let mut buf = ReorderBuffer::new();
        let mut out = Vec::new();
        // Warm up: one out-of-order burst sizes the ring.
        for seq in [3u64, 1, 0, 2] {
            buf.push(seq, seq, &mut out);
        }
        let cap = buf.slots.capacity();
        for seq in 4..2000u64 {
            buf.push(seq, seq, &mut out);
        }
        assert_eq!(buf.slots.capacity(), cap, "steady state must not regrow");
        assert_eq!(out.len(), 2000);
        assert!(out.iter().copied().eq(0..2000));
    }

    #[test]
    fn moves_items_without_cloning() {
        // A type that is not Clone: compiles only if the buffer moves.
        struct NoClone(u64);
        let mut buf = ReorderBuffer::new();
        let mut out: Vec<NoClone> = Vec::new();
        buf.push(1, NoClone(1), &mut out);
        buf.push(0, NoClone(0), &mut out);
        assert_eq!(out.iter().map(|v| v.0).collect::<Vec<_>>(), vec![0, 1]);
    }
}
