//! A counting [`GlobalAlloc`] wrapper around the system allocator.
//!
//! The vProfile IDS claims its steady-state score path — framed window →
//! Algorithm 1 extraction → stacked Mahalanobis scoring → verdict — performs
//! **zero heap allocations** after warm-up. That claim is only worth
//! anything if it is enforced by a measurement, not a comment: install
//! [`CountingAllocator`] as the `#[global_allocator]` in a harness binary,
//! [`snapshot`](CountingAllocator::snapshot) the counters around the hot
//! loop, and fail the run if the delta is non-zero. The workspace's
//! `alloc_audit` binary (in `vprofile-bench`) does exactly that in CI.
//!
//! The counters are process-global atomics with [`Ordering::Relaxed`]
//! bumps: a handful of uncontended atomic adds per allocation, cheap enough
//! to leave installed for a whole benchmark run, but the counts are only
//! attributable to a specific region when nothing else is running — keep
//! the measured section single-threaded.
//!
//! This crate is the workspace's sole `unsafe` exception (see its
//! `Cargo.toml`): `GlobalAlloc` cannot be implemented without `unsafe`, and
//! each method here is a counter increment plus a direct delegation to
//! [`System`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time copy of the allocator's counters.
///
/// Counters are monotonic; attribute work to a region by subtracting two
/// snapshots with [`AllocCounts::since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    /// Calls to `alloc` / `alloc_zeroed` (fresh blocks).
    pub allocations: u64,
    /// Calls to `dealloc`.
    pub deallocations: u64,
    /// Calls to `realloc` (grow/shrink of an existing block).
    pub reallocations: u64,
    /// Bytes requested across `alloc`/`alloc_zeroed`/`realloc` new sizes.
    pub bytes_requested: u64,
}

impl AllocCounts {
    /// The counter deltas accumulated since `earlier` (saturating, so a
    /// mismatched snapshot order reads as zero rather than wrapping).
    #[must_use]
    pub fn since(&self, earlier: &AllocCounts) -> AllocCounts {
        AllocCounts {
            allocations: self.allocations.saturating_sub(earlier.allocations),
            deallocations: self.deallocations.saturating_sub(earlier.deallocations),
            reallocations: self.reallocations.saturating_sub(earlier.reallocations),
            bytes_requested: self.bytes_requested.saturating_sub(earlier.bytes_requested),
        }
    }

    /// Every event that touched the allocator for new or resized memory:
    /// `allocations + reallocations`. This is the number a zero-allocation
    /// hot path must hold at 0 (deallocations are counted separately; a
    /// path that frees without allocating is already paying a hidden drop).
    #[must_use]
    pub fn total_allocations(&self) -> u64 {
        self.allocations.saturating_add(self.reallocations)
    }
}

/// The counting allocator. Install as the global allocator:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator::new();
/// ```
///
/// then bracket the region under test with [`CountingAllocator::snapshot`].
#[derive(Debug)]
pub struct CountingAllocator {
    allocations: AtomicU64,
    deallocations: AtomicU64,
    reallocations: AtomicU64,
    bytes_requested: AtomicU64,
}

impl CountingAllocator {
    /// A new allocator with zeroed counters (`const`, as a
    /// `#[global_allocator]` static requires).
    #[must_use]
    pub const fn new() -> Self {
        CountingAllocator {
            allocations: AtomicU64::new(0),
            deallocations: AtomicU64::new(0),
            reallocations: AtomicU64::new(0),
            bytes_requested: AtomicU64::new(0),
        }
    }

    /// Reads the current counter values.
    #[must_use]
    pub fn snapshot(&self) -> AllocCounts {
        AllocCounts {
            allocations: self.allocations.load(Ordering::Relaxed),
            deallocations: self.deallocations.load(Ordering::Relaxed),
            reallocations: self.reallocations.load(Ordering::Relaxed),
            bytes_requested: self.bytes_requested.load(Ordering::Relaxed),
        }
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        CountingAllocator::new()
    }
}

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter bumps are side-effect-only and cannot
// affect the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes_requested
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes_requested
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.deallocations.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.reallocations.fetch_add(1, Ordering::Relaxed);
        self.bytes_requested
            .fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static ALLOC: CountingAllocator = CountingAllocator::new();

    // Tests run on parallel threads sharing the global counters, so
    // assertions are one-sided (>=): another test's allocations can only
    // inflate a delta, never shrink it.

    #[test]
    fn allocations_are_counted() {
        let before = ALLOC.snapshot();
        let v: Vec<u64> = Vec::with_capacity(32);
        let after = ALLOC.snapshot();
        drop(v);
        let delta = after.since(&before);
        assert!(delta.allocations >= 1, "Vec::with_capacity must allocate");
        assert!(delta.bytes_requested >= 32 * 8);
        assert!(delta.total_allocations() >= 1);
    }

    #[test]
    fn reallocations_are_counted() {
        let mut v: Vec<u64> = Vec::with_capacity(4);
        v.extend(0..4);
        let before = ALLOC.snapshot();
        v.extend(4..64); // forces at least one grow
        let after = ALLOC.snapshot();
        let delta = after.since(&before);
        assert!(
            delta.total_allocations() >= 1,
            "growing past capacity must hit the allocator"
        );
    }

    #[test]
    fn deallocations_are_counted() {
        let v: Vec<u64> = Vec::with_capacity(16);
        let before = ALLOC.snapshot();
        drop(v);
        let after = ALLOC.snapshot();
        assert!(after.since(&before).deallocations >= 1);
    }

    #[test]
    fn since_saturates_on_reversed_snapshots() {
        let a = AllocCounts {
            allocations: 1,
            deallocations: 1,
            reallocations: 1,
            bytes_requested: 1,
        };
        let b = AllocCounts {
            allocations: 5,
            deallocations: 5,
            reallocations: 5,
            bytes_requested: 5,
        };
        assert_eq!(a.since(&b), AllocCounts::default());
        assert_eq!(b.since(&a).total_allocations(), 8);
    }
}
