//! Counting global allocator: live bytes, peak live bytes and allocation
//! count, behind `peak_heap_mib` and `pipeline.allocs_per_frame`.
//!
//! The counters are statistics that publish no other data, so every access
//! is `Relaxed`. The bench allocates its own sample, stamp and span buffers
//! before it takes a baseline, so what is counted between [`reset_peak`]
//! and [`peak`] is the product's memory, not the measurement's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged and only updates counters around the call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            COUNT.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            COUNT.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            COUNT.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Bytes currently allocated.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Allocations (and reallocations) made so far.
pub fn count() -> u64 {
    COUNT.load(Relaxed)
}

/// Restarts peak tracking from the current live size and returns that
/// size, the baseline [`peak_above`] subtracts.
pub fn reset_peak() -> usize {
    let live = live();
    PEAK.store(live, Relaxed);
    live
}

/// Highest live size since [`reset_peak`], above `baseline`, in bytes.
pub fn peak_above(baseline: usize) -> usize {
    PEAK.load(Relaxed).saturating_sub(baseline)
}
