//! A counting global allocator for the histogram-round allocation guard
//! (`tests/histogram_round_alloc.rs`).
//!
//! The fused histogramming round exists to kill the `O(p·m)` words of
//! per-rank probe indexes and rank vectors; its guard counts requested
//! *bytes*.  Binaries opt in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: hss_bench::alloc_counter::CountingAllocator =
//!     hss_bench::alloc_counter::CountingAllocator;
//! ```
//!
//! When no binary installs the allocator (e.g. under `cargo test`), the
//! counter simply stays at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// The system allocator wrapped with a relaxed atomic counter of requested
/// bytes (deallocations are not counted — the callers compare how much
/// buffer space each design *creates*).
pub struct CountingAllocator;

// SAFETY: all methods delegate directly to `System`; the only extra work is
// a relaxed atomic increment, which allocates nothing.
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

/// Total bytes requested through alloc / realloc / alloc_zeroed so far (a
/// `realloc` counts its whole new size); 0 forever when
/// [`CountingAllocator`] is not installed as the global allocator.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counter_reads_without_panicking() {
        // The test binary does not install the counting allocator, so the
        // counter is simply monotone (and in practice zero).
        let a = super::allocated_bytes();
        let _v: Vec<u64> = (0..100).collect();
        assert!(super::allocated_bytes() >= a);
    }
}
