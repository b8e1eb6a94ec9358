//! A global allocator that counts allocator calls while switched on.
//!
//! Counting stays off in untraced runs, so end-to-end numbers pay only a
//! relaxed load per allocation. A traced run switches it on around the
//! calls whose allocations it reports.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus a call counter.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn note() {
    // Relaxed: both values are statistics and publish no other data.
    if ON.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as this method's caller upholds.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as this method's caller upholds.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: same contract as this method's caller upholds.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as this method's caller upholds.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches counting on or off.
pub fn counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Allocator calls counted so far, by every thread.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Runs `f` with counting on and returns its result with the allocator
/// calls made meanwhile.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    counting(true);
    let before = calls();
    let out = f();
    let n = calls() - before;
    counting(false);
    (out, n)
}
