//! Live-heap accounting for `session_heap_mib`.
//!
//! The benchmark installs [`CountingAlloc`], a wrapper around the system
//! allocator that counts live bytes and their peak. The load loop resets the
//! peak when a session starts and reads it when the session ends; the
//! metric is the median of the peaks above the live size at the start: the
//! heap a session needs, whatever the run's length. (Everything a run keeps
//! grows with the sessions it completes — the daemon keeps every finished
//! job — so a total would grow with the program's speed.)
//!
//! The process's `VmHWM` is printed too, but as a metric it misled: it is a
//! maximum over the run, so it grew with the number of sessions a run
//! completed, and it jumped by up to a quarter between lock seeds on
//! `sat-hard` because a `Vec` that doubles while being copied holds both
//! buffers for a moment. The counted peak moves a reallocation's size
//! change in one step, so only the live data counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes.
pub struct CountingAlloc;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees hold; the
// counters are statistics that no allocation depends on.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s requirements for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s requirements for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s requirements for `ptr`,
        // `layout` and `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Starts a new peak at the current live size, which it returns (bytes).
pub(crate) fn reset_peak() -> u64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live as u64
}

/// The peak live heap since the last [`reset_peak`], in bytes.
pub(crate) fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed) as u64
}
