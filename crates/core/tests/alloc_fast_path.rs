//! Steady-state allocation accounting for the `call_with` fast path and
//! the manager's side of a managed call.
//!
//! The interned-id call path is meant to be allocation-free once warm:
//! args and results ride in `ValVec` inline storage (arity ≤ 4), implicit
//! entries execute inline in the caller without a `CallCell`, and managed
//! entries recycle cells through the per-object pool. The manager's
//! `accept` selects over one index guard on the stack and `execute`
//! hands its results back as `ValVec`s. These tests install a counting
//! global allocator and assert a zero allocation delta across a burst of
//! warm implicit `call_with` invocations under each `Wait`, and across
//! warm managed `accept` → `execute` round trips on both executors.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use alps_core::{argv, EntryDef, ObjectBuilder, RetryPolicy, Ty, Value, Wait};
use alps_runtime::Runtime;

struct CountingAlloc;

thread_local! {
    // Per thread, not per process: the measured paths run entirely in the
    // calling thread, while libtest's main thread, sibling tests and the
    // unwinding processes of a test that just shut down allocate at
    // times of their own. Const-initialised and without destructors, so
    // the allocator may read them at any point of a thread's life.
    static OPEN_WINDOWS: Cell<u32> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if OPEN_WINDOWS.get() > 0 {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

/// Allocations the calling thread makes while it runs `f`. Tasks sharing
/// a pool worker may open windows that interleave; each then counts
/// every allocation the thread makes while it is open.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    OPEN_WINDOWS.set(OPEN_WINDOWS.get() + 1);
    f();
    OPEN_WINDOWS.set(OPEN_WINDOWS.get() - 1);
    ALLOCS.get() - before
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
                .params([Ty::Int])
                .results([Ty::Int])
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

const WARM: usize = 64;
const MEASURED: usize = 1000;

/// The manager's side of a warm `accept` → `execute` round trip allocates
/// nothing, on either executor. The caller and the manager each count
/// their own thread over round trips `WARM + 1 ..= WARM + MEASURED`. On a
/// one-worker pool both are tasks on the same thread, so either count
/// covers both sides, and both must be zero. On threads the caller is not
/// held to zero: when it and the manager let go of the call cell at the
/// same moment, neither sees itself last, and the cell is freed instead
/// of recycled.
#[test]
fn warm_managed_round_trip_allocates_nothing_on_either_executor() {
    for rt in [Runtime::threaded(), Runtime::thread_pool(1)] {
        let in_manager = Arc::new(AtomicU64::new(u64::MAX));
        let counted = Arc::clone(&in_manager);
        let obj = ObjectBuilder::new("Managed")
            .entry(
                EntryDef::new("Echo")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(|_ctx, args| Ok(args)),
            )
            .manager(move |mgr| {
                let serve = |_| mgr.execute(mgr.accept("Echo")?).map(drop);
                (0..WARM).try_for_each(serve)?;
                let mut served = Ok(());
                let n = allocations_during(|| served = (0..MEASURED).try_for_each(serve));
                served?;
                // Filed before the manager accepts the next call.
                counted.store(n, SeqCst);
                loop {
                    serve(0)?;
                }
            })
            .spawn(&rt)
            .unwrap();
        let id = obj.entry_id("Echo").unwrap();
        let caller = obj.clone();
        let call = move || assert_eq!(caller.call_id(id, argv![7i64]).unwrap()[0], Value::Int(7));
        let idle = rt.clone();
        let in_caller = rt
            .spawn(move || {
                // Idle long enough for the manager to park once before
                // any window opens: its first park sizes the object
                // notifier's waiter list.
                idle.sleep(2_000);
                (0..WARM).for_each(|_| call());
                allocations_during(|| (0..MEASURED).for_each(|_| call()))
            })
            .join()
            .unwrap();
        obj.call_id(id, argv![7i64]).unwrap();
        // One worker plus the timer: the pool, where the caller counts too.
        let in_caller = if rt.os_threads() == Some(2) {
            in_caller
        } else {
            0
        };
        let seen = (in_caller, in_manager.load(SeqCst));
        assert_eq!(seen, (0, 0), "(caller, manager) allocations on {rt:?}");
        obj.shutdown();
        rt.shutdown();
    }
}
