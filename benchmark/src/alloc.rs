//! Counting global allocator behind the `*_allocs` / `*_alloc_bytes` rows.
//!
//! Wraps `System`. Counting is per thread and off by default, so only the
//! call a measurement wraps in [`count`] is counted: other threads (server
//! workers, the second client) and the harness's own bookkeeping are not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when they can no longer be reached.
    let _ = ENABLED.try_with(|on| {
        if on.get() {
            ALLOCS.with(|c| c.set(c.get() + 1));
            BYTES.with(|c| c.set(c.get() + size as u64));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only const-initialised thread-local
// `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` with counting on for this thread; returns its result with the
/// number of allocations (reallocations included) and the bytes requested.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (allocs0, bytes0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    ENABLED.with(|on| on.set(true));
    let out = f();
    ENABLED.with(|on| on.set(false));
    (
        out,
        ALLOCS.with(Cell::get) - allocs0,
        BYTES.with(Cell::get) - bytes0,
    )
}
