//! Bounded single-producer/single-consumer ring with batched hand-off.
//!
//! [`crate::IdsPipeline::feed`] owns the producer side of one ring per
//! shard, under the pipeline's feed-side splitter lock; the shard's worker
//! owns the consumer side. Both ends move *batches*: the producer
//! publishes a whole batch with one `Release` store of `tail` and the
//! consumer retires a whole batch with one `Release` store of `head`, so
//! the cross-core traffic is one atomic (plus at most one condvar
//! signal) per batch rather than per item.
//!
//! The workspace forbids `unsafe`, so the slot array is
//! `Box<[Mutex<Option<T>>]>` instead of raw cells. Those per-slot
//! mutexes are *uncontended by construction*: the head/tail index
//! discipline means the producer only ever touches slots in
//! `[tail, head + capacity)` and the consumer only slots in
//! `[head, tail)`, which never overlap — each `lock()` is a plain
//! compare-exchange on a free mutex, not a wait. Blocking (a full ring
//! for the producer, an empty one for the consumer) parks on a shared
//! `signal` mutex + two condvars with the classic missed-wakeup
//! protocol: waiters re-check the atomics *under* the signal lock, and
//! updaters store the atomic first, then take the lock and notify.
//!
//! Shutdown is two one-way flags. `close()` (producer side) lets the
//! consumer drain and then observe end-of-stream; `mark_consumer_gone()`
//! (consumer side) unblocks a producer parked on a full ring so the
//! pipeline cannot deadlock when a downstream stage disappears first.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Bounded SPSC ring buffer; see the module docs for the protocol.
#[derive(Debug)]
pub struct SpscRing<T> {
    /// One mutex-wrapped cell per slot; uncontended by index discipline.
    slots: Box<[Mutex<Option<T>>]>,
    /// Capacity as `u64` (indices are monotone counters, slot = `i % cap`).
    cap: u64,
    /// Next slot the consumer will read. Consumer-advanced, `Release` on
    /// store so the producer's free-space check sees retired slots.
    head: AtomicU64,
    /// One past the last published slot. Producer-advanced, one `Release`
    /// store per batch.
    tail: AtomicU64,
    /// Producer is done; consumer drains what remains, then sees 0.
    closed: AtomicBool,
    /// Consumer is gone; producer pushes fail instead of parking forever.
    consumer_gone: AtomicBool,
    /// Park/notify rendezvous for both directions.
    signal: Mutex<()>,
    /// Consumer parks here when the ring is empty.
    not_empty: Condvar,
    /// Producer parks here when the ring is full.
    not_full: Condvar,
}

impl<T> SpscRing<T> {
    /// Creates a ring with `capacity` slots (at least 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        SpscRing {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            cap: cap as u64,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            consumer_gone: AtomicBool::new(false),
            signal: Mutex::new(()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Items currently published but not yet retired.
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        tail.saturating_sub(head) as usize
    }

    /// Whether every slot is taken, so a push would park (or shed). The
    /// `Reject` policy refuses a chunk while any shard ring is full.
    pub fn is_full(&self) -> bool {
        self.len() >= self.cap as usize
    }

    /// Producer: pushes the whole batch, parking whenever the ring is
    /// full, and leaves `batch` empty on success. Returns `false` (with
    /// the unpushed suffix still in `batch`) once the consumer is gone.
    // xtask: hot-path
    pub fn push_batch(&self, batch: &mut Vec<T>) -> bool {
        while !batch.is_empty() {
            if self.consumer_gone.load(Ordering::Acquire) {
                return false;
            }
            let accepted = self.publish(batch);
            if accepted == 0 {
                self.park_until_not_full();
            }
        }
        true
    }

    /// Producer: pushes as much of the batch as currently fits without
    /// parking, draining the accepted prefix out of `batch`. Returns how
    /// many items were accepted; the caller owns (and accounts for) the
    /// rejected suffix. Used by the `DropOldest` shed path.
    // xtask: hot-path
    pub fn try_push_batch(&self, batch: &mut Vec<T>) -> usize {
        if self.consumer_gone.load(Ordering::Acquire) {
            return 0;
        }
        self.publish(batch)
    }

    /// Consumer: pops up to `max` items into `out`, parking while the
    /// ring is empty and not closed. Returns the number popped; `0`
    /// means the ring is closed *and* fully drained.
    // xtask: hot-path
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        loop {
            let head = self.head.load(Ordering::Relaxed);
            let tail = self.tail.load(Ordering::Acquire);
            let avail = tail.saturating_sub(head) as usize;
            if avail == 0 {
                // The producer publishes before it closes, so a batch it
                // published after the `tail` load above is visible once
                // `closed` is: re-read `tail` before reporting the end.
                if self.closed.load(Ordering::Acquire) {
                    if self.tail.load(Ordering::Acquire) == head {
                        return 0;
                    }
                    continue;
                }
                self.park_until_not_empty(head);
                continue;
            }
            let n = avail.min(max.max(1));
            let mut pos = head;
            for _ in 0..n {
                let Some(slot) = self.slots.get((pos % self.cap) as usize) else {
                    break;
                };
                // xtask: allow(hot-path-lock): slot mutexes are uncontended by the SPSC index discipline; this is the no-unsafe stand-in for a cell write
                let taken = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
                if let Some(item) = taken {
                    out.push(item);
                }
                pos += 1;
            }
            self.head.store(head + n as u64, Ordering::Release);
            // xtask: allow(hot-path-lock): empty rendezvous critical section, one per batch; required by the missed-wakeup protocol
            let guard = self.signal.lock().unwrap_or_else(PoisonError::into_inner);
            self.not_full.notify_one();
            drop(guard);
            return n;
        }
    }

    /// Producer: no more pushes will follow. The consumer drains what is
    /// buffered and then observes end-of-stream.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let guard = self.signal.lock().unwrap_or_else(PoisonError::into_inner);
        self.not_empty.notify_all();
        drop(guard);
    }

    /// Whether [`SpscRing::mark_consumer_gone`] has been called. Lets a
    /// non-parking producer (the `DropOldest` shed path) tell a dead
    /// consumer apart from a merely full ring.
    pub fn is_consumer_gone(&self) -> bool {
        self.consumer_gone.load(Ordering::Acquire)
    }

    /// Consumer: it will never pop again. Unblocks (and fails) any
    /// producer parked on a full ring.
    pub fn mark_consumer_gone(&self) {
        self.consumer_gone.store(true, Ordering::Release);
        let guard = self.signal.lock().unwrap_or_else(PoisonError::into_inner);
        self.not_full.notify_all();
        drop(guard);
    }

    /// Writes as many items from the front of `batch` as the ring has
    /// free slots, publishes them with one `Release` store of `tail`,
    /// and signals the consumer once. Returns the count accepted.
    // xtask: hot-path
    fn publish(&self, batch: &mut Vec<T>) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Relaxed);
        let free = (self.cap - tail.saturating_sub(head)) as usize;
        let n = free.min(batch.len());
        if n == 0 {
            return 0;
        }
        let mut pos = tail;
        for item in batch.drain(..n) {
            let Some(slot) = self.slots.get((pos % self.cap) as usize) else {
                break;
            };
            // xtask: allow(hot-path-lock): slot mutexes are uncontended by the SPSC index discipline; this is the no-unsafe stand-in for a cell write
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(item);
            pos += 1;
        }
        self.tail.store(tail + n as u64, Ordering::Release);
        // xtask: allow(hot-path-lock): empty rendezvous critical section, one per batch; required by the missed-wakeup protocol
        let guard = self.signal.lock().unwrap_or_else(PoisonError::into_inner);
        self.not_empty.notify_one();
        drop(guard);
        n
    }

    /// Parks the producer until slots free up (or the consumer vanishes),
    /// re-checking the atomics under the signal lock so a notify between
    /// check and park cannot be missed. Off the steady-state path by
    /// definition: it only runs when the ring is already full.
    // xtask: cold
    fn park_until_not_full(&self) {
        let guard = self.signal.lock().unwrap_or_else(PoisonError::into_inner);
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Relaxed);
        let full = tail.saturating_sub(head) >= self.cap;
        if full && !self.consumer_gone.load(Ordering::Acquire) {
            let _parked = self
                .not_full
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Parks the consumer until the producer publishes past `head` or
    /// closes the ring; same missed-wakeup discipline as the producer.
    // xtask: cold
    fn park_until_not_empty(&self, head: u64) {
        let guard = self.signal.lock().unwrap_or_else(PoisonError::into_inner);
        let tail = self.tail.load(Ordering::Acquire);
        if tail == head && !self.closed.load(Ordering::Acquire) {
            let _parked = self
                .not_empty
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn batches_cross_threads_in_order() {
        let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::new(8));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut batch = Vec::new();
                for start in (0..1000u64).step_by(10) {
                    batch.extend(start..start + 10);
                    assert!(ring.push_batch(&mut batch));
                }
                ring.close();
            })
        };
        let mut got = Vec::new();
        let mut scratch = Vec::new();
        loop {
            scratch.clear();
            if ring.pop_batch(&mut scratch, 7) == 0 {
                break;
            }
            got.extend_from_slice(&scratch);
        }
        producer.join().expect("producer");
        assert_eq!(got, (0..1000u64).collect::<Vec<_>>());
    }

    #[test]
    fn close_drains_then_reports_end_of_stream() {
        let ring: SpscRing<u32> = SpscRing::new(4);
        let mut batch = vec![1, 2, 3];
        assert_eq!(ring.try_push_batch(&mut batch), 3);
        assert!(batch.is_empty());
        ring.close();
        let mut out = Vec::new();
        assert_eq!(ring.pop_batch(&mut out, 16), 3);
        assert_eq!(ring.pop_batch(&mut out, 16), 0);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn try_push_accepts_only_what_fits() {
        let ring: SpscRing<u32> = SpscRing::new(2);
        let mut batch = vec![1, 2, 3, 4];
        assert_eq!(ring.try_push_batch(&mut batch), 2);
        assert_eq!(batch, vec![3, 4], "rejected suffix stays with caller");
        assert_eq!(ring.len(), 2);
        let mut out = Vec::new();
        assert_eq!(ring.pop_batch(&mut out, 1), 1);
        assert_eq!(ring.try_push_batch(&mut batch), 1);
        assert_eq!(batch, vec![4]);
    }

    #[test]
    fn consumer_gone_unblocks_a_parked_producer() {
        let ring: Arc<SpscRing<u32>> = Arc::new(SpscRing::new(2));
        let mut fill = vec![1, 2];
        assert!(ring.push_batch(&mut fill));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut batch = vec![3, 4, 5];
                ring.push_batch(&mut batch)
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        ring.mark_consumer_gone();
        assert!(
            !producer.join().expect("producer"),
            "push_batch must fail once the consumer is gone"
        );
    }
}
