//! Steady-state allocation accounting for the `call_with` fast path.
//!
//! The interned-id call path is meant to be allocation-free once warm:
//! args and results ride in `ValVec` inline storage (arity ≤ 4), implicit
//! entries execute inline in the caller without a `CallCell`, and managed
//! entries recycle cells through the per-object pool. This test installs
//! a counting global allocator and asserts a zero allocation delta across
//! a burst of warm implicit `call_with` invocations under each `Wait`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use alps_core::{argv, EntryDef, ObjectBuilder, RetryPolicy, Value, Wait};
use alps_runtime::Runtime;

struct CountingAlloc;

thread_local! {
    // Per thread, not per process: the measured paths run entirely in the
    // calling thread, while libtest's main thread, sibling tests and the
    // unwinding processes of a test that just shut down allocate at
    // times of their own. Const-initialised and without destructors, so
    // the allocator may read them at any point of a thread's life.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

/// Allocations the calling thread makes while it runs `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCS.set(0);
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCS.get()
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn the_counter_sees_the_calling_threads_allocations() {
    let n = allocations_during(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert_eq!(n, 1);
}

/// A warm `call_with` on an implicit arity-1 entry allocates nothing
/// under each of the three waits: unbounded (what `call_id` is), a
/// deadline that never fires, and a retry whose first attempt succeeds —
/// only the per-attempt `args.clone()` (inline, heap-free for arity ≤ 4)
/// rides on top of the deadline path, and no backoff machinery runs.
#[test]
fn warm_call_with_allocates_nothing_under_every_wait() {
    let rt = Runtime::threaded();
    let obj = ObjectBuilder::new("Plain")
        .entry(
            EntryDef::new("Echo")
                .params([alps_core::Ty::Int])
                .results([alps_core::Ty::Int])
                .body(|_ctx, args| Ok(argv![args[0].clone()])),
        )
        .spawn(&rt)
        .unwrap();
    let id = obj.entry_id("Echo").unwrap();

    for wait in [
        Wait::Unbounded,
        Wait::Deadline(1_000_000),
        Wait::Retry(RetryPolicy::new(3, 10_000_000)),
    ] {
        // Warm up: first calls may lazily allocate (thread-locals, pool
        // hand-off structures, stats buckets).
        for _ in 0..64 {
            let r = obj.call_with(id, argv![7i64], wait).unwrap();
            assert_eq!(r[0], Value::Int(7));
        }

        let n = allocations_during(|| {
            for _ in 0..1000 {
                let r = obj.call_with(id, argv![7i64], wait).unwrap();
                assert_eq!(r[0], Value::Int(7));
            }
        });

        assert_eq!(
            n, 0,
            "warm call_with under {wait:?} on an implicit arity-1 entry must not \
             allocate; saw {n} allocations over 1000 calls"
        );
    }

    obj.shutdown();
    rt.shutdown();
}
