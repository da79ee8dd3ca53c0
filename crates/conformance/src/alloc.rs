//! The counting allocator behind every exact allocation count in the
//! tests. A test binary installs it with one line,
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: septic_conformance::alloc::Counting = septic_conformance::alloc::Counting;
//! ```
//!
//! and reads what a piece of work allocated with [`counted`] or
//! [`allocations`]. It counts per thread, since `cargo test` runs the
//! tests of a file on parallel threads, and it counts fresh allocations
//! and regrowths of an existing one apart. A binary that does not install
//! it counts nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A `GlobalAlloc` over [`System`] that counts, per thread.
pub struct Counting;

/// Allocations made on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `alloc` and `alloc_zeroed` calls.
    pub fresh: u64,
    /// `realloc` calls: an allocation regrown (or shrunk).
    pub regrown: u64,
}

impl Counts {
    /// Fresh allocations and regrowths together.
    #[must_use]
    pub fn total(self) -> u64 {
        self.fresh + self.regrown
    }
}

thread_local! {
    static COUNTS: Cell<Counts> = const { Cell::new(Counts { fresh: 0, regrown: 0 }) };
}

fn count(fresh: u64, regrown: u64) {
    // Unreachable only while a thread is torn down; nothing is measured then.
    let _ = COUNTS.try_with(|c| {
        let mut counts = c.get();
        counts.fresh += fresh;
        counts.regrown += regrown;
        c.set(counts);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; counting touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, 0);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, 0);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(0, 1);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// What `work` allocated on this thread, and its result.
pub fn counted<T>(work: impl FnOnce() -> T) -> (Counts, T) {
    let before = COUNTS.get();
    let out = work();
    let after = COUNTS.get();
    let made = Counts {
        fresh: after.fresh - before.fresh,
        regrown: after.regrown - before.regrown,
    };
    (made, out)
}

/// Allocations `work` makes, fresh and regrown, its result dropped
/// uncounted.
pub fn allocations<T>(work: impl FnOnce() -> T) -> u64 {
    counted(work).0.total()
}
