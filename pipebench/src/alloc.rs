//! A counting allocator for the traced run's memory accounting.
//!
//! The binary installs [`Counting`] as its `#[global_allocator]`. It
//! forwards to the system allocator and, only while [`enable`]d, keeps a
//! running total of live bytes, so the traced run can read how many
//! bytes a cube, an index or a snapshot keeps alive per cell.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);

/// System allocator plus a live-byte count while enabled.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting only touches atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: same contract as `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: same contract as `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: same contract as `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off.
pub fn enable(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Bytes allocated and not yet freed while counting was on.
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Live bytes that building `f`'s result leaves allocated (transient
/// allocations made while building are freed again and do not count).
/// Reads 0 unless counting is on.
pub fn retained_by<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = live_bytes();
    let out = f();
    (out, live_bytes() - before)
}
