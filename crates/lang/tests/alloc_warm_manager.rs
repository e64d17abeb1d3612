//! Allocation accounting for a compiled manager's warm path.
//!
//! A counting global allocator, as in `alps-core`'s `alloc_fast_path.rs`,
//! counts what one thread allocates while a window is open. The program
//! is a bounded buffer of list messages behind the paper's counting
//! manager (§2.4.1); Rust drives its `Buffer` through
//! `Compiled::handle`. On a one-worker pool the caller and the manager
//! are tasks on the same thread, so the caller's window counts both
//! sides of every call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use alps_core::{argv, Value};
use alps_lang::{check, parse, spawn_compiled, Output};
use alps_runtime::Runtime;

struct CountingAlloc;

thread_local! {
    // Per thread, not per process: libtest's main thread and sibling
    // tests allocate at times of their own. Const-initialised and without
    // destructors, so the allocator may read them at any point of a
    // thread's life.
    static OPEN_WINDOWS: Cell<u32> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if OPEN_WINDOWS.get() > 0 {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

/// Allocations the calling thread makes while it runs `f`.
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

const BUFFER: &str = r#"
    object Buffer defines
      proc Deposit(M: list(int));
      proc Remove() returns (list(int));
    end Buffer;

    object Buffer implements
      var Store: list(list(int));
      var Scratch: list(int);
      var In: int;
      var Out: int;
      var k: int;

      proc Deposit(M: list(int));
      begin
        set(Store, In, M);
        In := (In + 1) mod 4
      end Deposit;

      proc Remove() returns (list(int));
      var M2: list(int);
      begin
        M2 := get(Store, Out);
        Out := (Out + 1) mod 4;
        return (M2)
      end Remove;

      manager
        intercepts Deposit(list(int)), Remove;
        var Count: int;
        begin
          loop
            accept Deposit(M) when Count < 4 =>
              execute Deposit(M);
              Count := Count + 1
          or
            accept Remove when Count > 0 =>
              execute Remove;
              Count := Count - 1
          end loop
        end;

      begin
        for k := 1 to 8 do push(Scratch, 0) end for;
        for k := 1 to 4 do push(Store, Scratch) end for
      end Buffer;
"#;

const WARM: usize = 64;
const MEASURED: usize = 1000;

/// Heap allocations per warm call to the compiled `Buffer`, caller and
/// manager together, each `Deposit` carrying an eight-word list:
///
/// * the caller's copy of the message it sends (`Deposit`);
/// * the core's copy of the accepted call's intercepted parameters
///   (`Deposit`);
/// * the manager's bind of that parameter to `M` (`Deposit`); `execute
///   Deposit(M)` then moves it into the body, and the body moves it into
///   `Store`, because `M` is dead after each read;
/// * the copy `Remove` returns (`get` leaves the stored list in place);
/// * the `Vec` of guards each select round hands to the core (every
///   call) — a `when` decided once per round boxes no closure.
///
/// Six per `Deposit`/`Remove` pair: three per call.
const ALLOCS_PER_CALL: u64 = 3;

#[test]
fn warm_compiled_manager_allocates_three_times_per_call() {
    let rt = Runtime::thread_pool(1);
    let checked = Arc::new(check(parse(BUFFER).unwrap()).unwrap());
    let compiled = spawn_compiled(&rt, &checked, Output::buffer().0).unwrap();
    let buffer = compiled.handle("Buffer").unwrap();
    let deposit = buffer.entry_id("Deposit").unwrap();
    let remove = buffer.entry_id("Remove").unwrap();
    let message = Value::List((0..8).map(Value::Int).collect());
    let pair = move || {
        buffer.call_id(deposit, argv![message.clone()]).unwrap();
        let reply = buffer.call_id(remove, argv![]).unwrap();
        assert_eq!(reply[0].as_list().unwrap().len(), 8);
    };
    let seen = rt
        .spawn(move || {
            (0..WARM).for_each(|_| pair());
            allocations_during(|| (0..MEASURED).for_each(|_| pair()))
        })
        .join()
        .unwrap();
    compiled.shutdown();
    rt.shutdown();
    assert_eq!(
        seen,
        ALLOCS_PER_CALL * 2 * MEASURED as u64,
        "{seen} allocations over {MEASURED} Deposit/Remove pairs"
    );
}
