//! A counting global allocator for the `exchange_scaling` experiment and
//! the histogram-round allocation guard (`tests/histogram_round_alloc.rs`).
//!
//! The flat exchange engine exists to kill the `p²` per-exchange heap
//! allocations of the nested send matrix; the benchmark proves the point by
//! counting real allocator calls around each exchange.  The fused
//! histogramming round exists to kill the `O(p·m)` words of per-rank probe
//! indexes and rank vectors; its guard counts requested *bytes*.  Binaries
//! opt in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: hss_bench::alloc_counter::CountingAllocator =
//!     hss_bench::alloc_counter::CountingAllocator;
//! ```
//!
//! When no binary installs the allocator (e.g. under `cargo test`), the
//! counter simply stays at zero and reported allocation deltas are 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// The system allocator wrapped with relaxed atomic counters of allocation
/// calls and requested bytes (deallocations are not counted — the callers
/// compare how many buffers, or how much buffer space, each design
/// *creates*).
pub struct CountingAllocator;

// SAFETY: all methods delegate directly to `System`; the only extra work is
// two relaxed atomic increments, which allocate nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}

/// Total allocator calls (alloc / realloc / alloc_zeroed) observed so far;
/// 0 forever when [`CountingAllocator`] is not installed as the global
/// allocator.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes requested through those calls (a `realloc` counts its whole
/// new size); 0 forever when [`CountingAllocator`] is not installed.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counter_reads_without_panicking() {
        // The test binary does not install the counting allocator, so the
        // counter is simply monotone (and in practice zero).
        let a = super::allocations();
        let _v: Vec<u64> = (0..100).collect();
        assert!(super::allocations() >= a);
    }
}
