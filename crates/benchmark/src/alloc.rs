//! A counting allocator for `core.allocs_per_op`. The binary installs it as
//! the global allocator; it forwards to the system allocator and, only
//! while a traced round's timed window is open, counts calls. With counting
//! off the cost is one relaxed load of a flag nobody writes, so untraced
//! rounds measure the product's allocator behaviour, not the counter's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state and cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Allocator calls counted so far (zero for ever if [`CountingAlloc`] is
/// not the global allocator).
pub fn count() -> u64 {
    ALLOCS.load(Relaxed)
}
