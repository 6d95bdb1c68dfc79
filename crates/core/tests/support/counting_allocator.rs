//! A counting global allocator for the allocation guards of this crate's
//! test binaries. Each binary includes this file as a module and installs
//! the allocator as its own `#[global_allocator]`:
//!
//! ```ignore
//! #[path = "support/counting_allocator.rs"]
//! mod counting_allocator;
//! use counting_allocator::{large_allocations, CountingAllocator};
//!
//! #[global_allocator]
//! static ALLOCATOR: CountingAllocator = CountingAllocator;
//! ```
//!
//! The counter is per thread, so a test counts only what its own thread
//! allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting this thread's allocations of at least `THRESHOLD`
/// bytes (reallocations by their new size; frees are not allocations).
pub struct CountingAllocator;

thread_local! {
    static THRESHOLD: Cell<usize> = const { Cell::new(usize::MAX) };
    static LARGE: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = THRESHOLD.try_with(|threshold| {
        if size >= threshold.get() {
            let _ = LARGE.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` and returns how many allocations of `bytes` or more it made.
pub fn large_allocations<T>(bytes: usize, f: impl FnOnce() -> T) -> (usize, T) {
    THRESHOLD.with(|t| t.set(bytes));
    let before = LARGE.with(Cell::get);
    let value = f();
    THRESHOLD.with(|t| t.set(usize::MAX));
    (LARGE.with(Cell::get) - before, value)
}
