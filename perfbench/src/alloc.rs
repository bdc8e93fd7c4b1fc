//! A counting global allocator: allocator calls and the live-bytes
//! high-water mark, resettable per measured region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Delegates to [`System`] and counts. Statistics only — every counter is
/// `Relaxed` because none of them publishes other data.
pub struct CountingAllocator;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards the caller's layout and pointer unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the bookkeeping
// touches only atomics and never the allocated memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller gave us.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live block from this allocator.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            let live = LIVE.fetch_add(new_size, Ordering::Relaxed) + new_size;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        new_ptr
    }
}

/// Allocator calls and peak live bytes over one region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSpan {
    /// `alloc` + `realloc` calls since the region started.
    pub calls: u64,
    /// Highest live heap size (bytes, absolute) seen in the region.
    pub peak_bytes: usize,
}

/// Starts a region: zeroes the call counter and rebases the high-water
/// mark onto the current live size.
pub fn start_region() {
    CALLS.store(0, Ordering::Relaxed);
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// What the region since [`start_region`] allocated.
pub fn region() -> AllocSpan {
    AllocSpan {
        calls: CALLS.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
    }
}
