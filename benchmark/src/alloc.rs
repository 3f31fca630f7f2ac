//! A counting global allocator: live heap bytes, their high-water mark,
//! and the number of allocator calls. Exact for a given binary and
//! input, so `peak_heap_mb` and `allocs_per_kpkt` repeat to the byte.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

// Statistics only: none of these publishes other data, so `Relaxed`.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every operation is delegated verbatim to `System`; the
// counter updates are lock-free atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        System.alloc(layout)
    }
    // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
    // SAFETY: forwards the caller's layout unchanged to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
    // SAFETY: `ptr` was allocated by `System` with `layout`; `new_size`
    // is passed through unmodified.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocator calls (alloc, alloc_zeroed, realloc) since process start.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Runs `f` and returns the high-water mark of live heap bytes above
/// the level at entry. Not reentrant: one watched region at a time.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}
