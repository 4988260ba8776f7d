//! A counting global allocator: live and peak heap bytes, allocation
//! calls and bytes requested. Feeds `mem_peak_mb` and the per-request
//! allocation counts. The benchmark drives the world from one thread,
//! so `Relaxed` counters are exact; they publish no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call delegates to `System` with the caller's arguments
// unchanged; the wrapper only maintains counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grow(new_size as u64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the allocator counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reading {
    pub live: u64,
    pub peak: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Reading {
    pub fn now() -> Reading {
        Reading {
            live: LIVE.load(Relaxed),
            peak: PEAK.load(Relaxed),
            allocs: ALLOCS.load(Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Relaxed),
        }
    }
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
