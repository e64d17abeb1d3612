//! Threaded executor: one OS thread per process.
//!
//! A process is a [`ProcId`], a park slot (name, permit, done and panic
//! status) and an OS thread named `"{name}#{id}"` — what `top -H`, gdb
//! and a panic message show. The thread is created by `spawn` and exits
//! when the process returns; a process may block indefinitely, and
//! nothing is shared between one process and the next. A thread costs
//! 14–16 µs to create (DESIGN.md §11.8): where that matters, spawn on
//! [`Runtime::thread_pool`](super::Runtime::thread_pool) or preallocate
//! the processes, as the paper does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use super::{current_for, set_current, ExecutorCore};
use crate::error::{Aborted, RuntimeError};
use crate::process::{ProcId, Spawn};

#[derive(Debug)]
struct SlotSt {
    permit: bool,
    done: bool,
    panicked: bool,
    aborted: bool,
    /// The process's handle is gone: nobody can join it, so its exit
    /// removes the slot from the registry.
    detached: bool,
}

#[derive(Debug)]
struct ProcSlot {
    name: String,
    foreign: bool,
    st: Mutex<SlotSt>,
    cv: Condvar,
    done_cv: Condvar,
}

impl ProcSlot {
    fn new(name: String, foreign: bool) -> Arc<ProcSlot> {
        Arc::new(ProcSlot {
            name,
            foreign,
            st: Mutex::new(SlotSt {
                permit: false,
                done: false,
                panicked: false,
                aborted: false,
                detached: false,
            }),
            cv: Condvar::new(),
            done_cv: Condvar::new(),
        })
    }
}

type Registry = HashMap<ProcId, Arc<ProcSlot>>;

pub(crate) struct ThreadCore {
    /// Unique instance token keying thread-local registrations — never an
    /// address, which the allocator may reuse across runtime lifetimes.
    token: usize,
    /// Shared with every process's thread, which prunes its own entry.
    procs: Arc<Mutex<Registry>>,
    next_id: AtomicU64,
    epoch0: Instant,
    shutdown: AtomicBool,
}

impl ThreadCore {
    pub(crate) fn new() -> Arc<ThreadCore> {
        crate::error::silence_abort_panics();
        Arc::new(ThreadCore {
            token: super::alloc_core_token(),
            procs: Arc::new(Mutex::new(HashMap::new())),
            next_id: AtomicU64::new(1),
            epoch0: Instant::now(),
            shutdown: AtomicBool::new(false),
        })
    }

    fn alloc_id(&self) -> ProcId {
        ProcId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Slot of the calling thread, registering foreign threads lazily.
    fn my_slot(&self) -> (ProcId, Arc<ProcSlot>) {
        if let Some(id) = current_for(self.token) {
            let slot = self.procs.lock().get(&id).cloned();
            if let Some(slot) = slot {
                return (id, slot);
            }
        }
        // Foreign (or stale) thread: register a fresh slot.
        let id = self.alloc_id();
        let slot = ProcSlot::new(format!("foreign-{}", id.as_u64()), true);
        self.procs.lock().insert(id, Arc::clone(&slot));
        set_current(self.token, id);
        (id, slot)
    }
}

/// Process `id` has returned: publish its status to `join`, and forget it
/// if its handle is already gone.
fn exited(procs: &Mutex<Registry>, id: ProcId, slot: &ProcSlot, panicked: bool) {
    let detached = {
        let mut st = slot.st.lock();
        st.done = true;
        st.panicked = panicked;
        slot.done_cv.notify_all();
        st.detached
    };
    if detached {
        procs.lock().remove(&id);
    }
}

impl ExecutorCore for ThreadCore {
    fn spawn(
        &self,
        _self_arc: &Arc<dyn ExecutorCore>,
        opts: Spawn,
        f: Box<dyn FnOnce() + Send>,
    ) -> ProcId {
        let id = self.alloc_id();
        let slot = ProcSlot::new(opts.name, false);
        self.procs.lock().insert(id, Arc::clone(&slot));
        let (token, procs) = (self.token, Arc::clone(&self.procs));
        std::thread::Builder::new()
            .name(format!("{}#{}", slot.name, id.as_u64()))
            .spawn(move || {
                set_current(token, id);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                let panicked = matches!(&outcome, Err(payload) if !payload.is::<Aborted>());
                exited(&procs, id, &slot, panicked);
            })
            .expect("failed to spawn OS thread");
        id
    }

    fn detach(&self, id: ProcId) {
        let mut procs = self.procs.lock();
        let Some(slot) = procs.get(&id) else {
            return;
        };
        // The slot lock orders this against the process's exit: either
        // it is done and we prune, or it sees `detached`.
        let done = {
            let mut st = slot.st.lock();
            st.detached = true;
            st.done
        };
        if done {
            procs.remove(&id);
        }
    }

    fn current(&self, _self_arc: &Arc<dyn ExecutorCore>) -> ProcId {
        self.my_slot().0
    }

    fn park(&self, _self_arc: &Arc<dyn ExecutorCore>) {
        let (_, slot) = self.my_slot();
        let mut st = slot.st.lock();
        if st.aborted && !slot.foreign {
            drop(st);
            std::panic::panic_any(Aborted);
        }
        if st.permit {
            st.permit = false;
            return;
        }
        slot.cv.wait(&mut st);
        if st.aborted && !slot.foreign {
            drop(st);
            std::panic::panic_any(Aborted);
        }
        // Either a real unpark (consume the permit) or a spurious/aborted
        // wake; callers loop on their condition either way.
        st.permit = false;
    }

    fn park_timeout(&self, _self_arc: &Arc<dyn ExecutorCore>, ticks: u64) {
        let (_, slot) = self.my_slot();
        let mut st = slot.st.lock();
        if st.aborted && !slot.foreign {
            drop(st);
            std::panic::panic_any(Aborted);
        }
        if st.permit {
            st.permit = false;
            return;
        }
        let _ = slot.cv.wait_for(&mut st, Duration::from_micros(ticks));
        if st.aborted && !slot.foreign {
            drop(st);
            std::panic::panic_any(Aborted);
        }
        // Real unpark, timeout, or spurious wake: consume any permit and
        // let the caller re-check its condition, exactly as in park().
        st.permit = false;
    }

    fn unpark(&self, id: ProcId) {
        let slot = self.procs.lock().get(&id).cloned();
        if let Some(slot) = slot {
            let mut st = slot.st.lock();
            st.permit = true;
            slot.cv.notify_all();
        }
    }

    fn yield_now(&self, _self_arc: &Arc<dyn ExecutorCore>) {
        std::thread::yield_now();
    }

    fn sleep(&self, _self_arc: &Arc<dyn ExecutorCore>, ticks: u64) {
        if self.shutdown.load(Ordering::SeqCst) {
            std::panic::panic_any(Aborted);
        }
        std::thread::sleep(Duration::from_micros(ticks));
    }

    fn now(&self) -> u64 {
        self.epoch0.elapsed().as_micros() as u64
    }

    fn join(&self, _self_arc: &Arc<dyn ExecutorCore>, id: ProcId) -> Result<(), RuntimeError> {
        let slot = self.procs.lock().get(&id).cloned();
        let Some(slot) = slot else {
            return Ok(()); // not a process of this runtime
        };
        let mut st = slot.st.lock();
        while !st.done {
            slot.done_cv.wait(&mut st);
        }
        // The slot stays until the handle drops (`detach`).
        if st.panicked {
            Err(RuntimeError::ProcPanicked {
                name: slot.name.clone(),
            })
        } else {
            Ok(())
        }
    }

    fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let slots: Vec<Arc<ProcSlot>> = self.procs.lock().values().cloned().collect();
        for slot in slots {
            let mut st = slot.st.lock();
            st.aborted = true;
            st.permit = true;
            slot.cv.notify_all();
        }
    }

    fn is_sim(&self) -> bool {
        false
    }

    fn proc_name(&self, id: ProcId) -> Option<String> {
        self.procs.lock().get(&id).map(|s| s.name.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::super::eventually;
    use super::ThreadCore;
    use crate::process::Priority;
    use crate::{Runtime, Spawn};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn a_process_runs_on_an_os_thread_that_carries_its_name() {
        let rt = Runtime::threaded();
        let h = rt.spawn_with(Spawn::new("worker"), || {
            std::thread::current().name().map(str::to_string)
        });
        let id = h.id();
        let name = h.join().unwrap().expect("unnamed OS thread");
        assert_eq!(name, format!("worker#{}", id.as_u64()));
    }

    /// OS threads of this process whose name starts with `prefix`
    /// (Linux; `None` elsewhere). By name, because the tests beside this
    /// one start and stop threads of their own.
    fn os_threads_named(prefix: &str) -> Option<usize> {
        let tasks = std::fs::read_dir("/proc/self/task").ok()?;
        Some(
            tasks
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .filter(|comm| comm.starts_with(prefix))
                .count(),
        )
    }

    #[test]
    fn an_os_thread_exits_with_its_process() {
        if os_threads_named("exits#").is_none() {
            return;
        }
        let rt = Runtime::threaded();
        let rt2 = rt.clone();
        let parked = rt.spawn_with(Spawn::new("exits"), move || rt2.park());
        eventually("thread up", || os_threads_named("exits#") == Some(1));
        for _ in 0..64 {
            rt.spawn_with(Spawn::new("exits"), || ()).join().unwrap();
        }
        // `join` returns when the process is done; its thread is gone a
        // moment later, with no idle period in between.
        eventually("64 threads gone", || os_threads_named("exits#") == Some(1));
        rt.unpark(parked.id());
        parked.join().unwrap();
        eventually("all gone", || os_threads_named("exits#") == Some(0));
    }

    #[test]
    fn dropped_handles_leave_nothing_in_the_registry() {
        let core = ThreadCore::new();
        let rt = Runtime { core: core.clone() };
        let before = core.procs.lock().len();
        let finished = Arc::new(AtomicUsize::new(0));
        for spawned in 0..10_000 {
            // Bound the processes in flight, and so the OS threads.
            while spawned - finished.load(Ordering::SeqCst) >= 16 {
                std::thread::yield_now();
            }
            let f = Arc::clone(&finished);
            drop(rt.spawn(move || {
                f.fetch_add(1, Ordering::SeqCst);
            }));
        }
        eventually("registry drained", || core.procs.lock().len() == before);
        // A joined process is forgotten too, once its handle is gone; a
        // parked one stays reachable after its handle is dropped.
        let h = rt.spawn(|| 1);
        assert_eq!(core.procs.lock().len(), before + 1);
        assert_eq!(h.join().unwrap(), 1);
        assert_eq!(core.procs.lock().len(), before);
        let rt2 = rt.clone();
        let h = rt.spawn(move || rt2.park());
        let id = h.id();
        drop(h);
        assert_eq!(core.procs.lock().len(), before + 1);
        rt.unpark(id);
        eventually("woken and forgotten", || core.procs.lock().len() == before);
    }

    #[test]
    fn spawn_and_join_returns_value() {
        let rt = Runtime::threaded();
        let h = rt.spawn(|| 7);
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    fn join_reports_panic() {
        let rt = Runtime::threaded();
        let h = rt.spawn_with(Spawn::new("boom"), || {
            if true {
                panic!("bang");
            }
        });
        let err = h.join().unwrap_err();
        assert_eq!(err.to_string(), "process `boom` panicked");
    }

    #[test]
    fn unpark_before_park_buffers_permit() {
        let rt = Runtime::threaded();
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            let me = rt2.current();
            rt2.unpark(me); // self-permit
            rt2.park(); // must not block
            42
        });
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn park_blocks_until_unpark() {
        let rt = Runtime::threaded();
        let flag = Arc::new(AtomicUsize::new(0));
        let (rt2, flag2) = (rt.clone(), Arc::clone(&flag));
        let h = rt.spawn(move || {
            flag2.store(1, Ordering::SeqCst);
            rt2.park();
            flag2.store(2, Ordering::SeqCst);
        });
        let id = h.id();
        while flag.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(flag.load(Ordering::SeqCst), 1);
        rt.unpark(id);
        h.join().unwrap();
        assert_eq!(flag.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn park_timeout_expires_without_unpark() {
        let rt = Runtime::threaded();
        let h = rt.spawn(move || 1);
        h.join().unwrap();
        let t0 = std::time::Instant::now();
        rt.park_timeout(5_000); // 5ms; nobody unparks this thread
        assert!(t0.elapsed() >= std::time::Duration::from_millis(2));
    }

    #[test]
    fn park_timeout_consumes_buffered_permit_immediately() {
        let rt = Runtime::threaded();
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            let me = rt2.current();
            rt2.unpark(me);
            let t0 = std::time::Instant::now();
            rt2.park_timeout(5_000_000); // must not block: permit buffered
            t0.elapsed() < std::time::Duration::from_secs(1)
        });
        assert!(h.join().unwrap());
    }

    #[test]
    fn foreign_thread_can_park_and_be_unparked() {
        let rt = Runtime::threaded();
        let me = rt.current(); // registers the test thread
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            rt2.unpark(me);
        });
        rt.park();
        h.join().unwrap();
    }

    #[test]
    fn foreign_registration_dies_with_its_runtime() {
        // Regression: the thread-local registration used to be keyed by
        // the executor's heap address. When a runtime was dropped and the
        // next runtime's executor reused the allocation, the main thread's
        // stale (addr, id) entry survived — and if the new runtime had
        // already handed that id to a spawned proc, the main thread
        // adopted that proc's park slot. Two threads sharing one slot
        // steal each other's unpark permits: a lost wakeup that showed up
        // as a rare bench deadlock. Tokens are process-unique, so the
        // stale entry can never match; this loop makes allocator reuse
        // likely and asserts the foreign thread always gets its own slot.
        for _ in 0..64 {
            // Runtime A: main registers as a foreign proc with a low id.
            let rt_a = Runtime::threaded();
            let _ = rt_a.current();
            drop(rt_a);
            // Runtime B (often at the same address): spawn a few procs so
            // their ids cover A's stale foreign id, then register main.
            let rt_b = Runtime::threaded();
            let go = Arc::new(AtomicUsize::new(0));
            let hs: Vec<_> = (0..3)
                .map(|_| {
                    let go2 = Arc::clone(&go);
                    rt_b.spawn(move || {
                        while go2.load(Ordering::SeqCst) == 0 {
                            std::thread::yield_now();
                        }
                    })
                })
                .collect();
            let me = rt_b.current();
            for h in &hs {
                assert_ne!(me, h.id(), "foreign thread adopted a spawned proc's id");
            }
            let name = rt_b.proc_name(me).unwrap();
            assert!(name.starts_with("foreign-"), "not a foreign slot: {name}");
            // The park/unpark handshake that deadlocked under the old code.
            let rt2 = rt_b.clone();
            let waker = rt_b.spawn(move || rt2.unpark(me));
            rt_b.park();
            go.store(1, Ordering::SeqCst);
            waker.join().unwrap();
            for h in hs {
                h.join().unwrap();
            }
        }
    }

    #[test]
    fn now_is_monotonic_and_sleep_advances_it() {
        let rt = Runtime::threaded();
        let t0 = rt.now();
        rt.sleep(2_000);
        let t1 = rt.now();
        assert!(t1 >= t0 + 1_000, "t0={t0} t1={t1}");
    }

    #[test]
    fn priorities_are_advisory_metadata() {
        let rt = Runtime::threaded();
        let h = rt.spawn_with(Spawn::new("m").prio(Priority::MANAGER).daemon(true), || 1);
        assert_eq!(h.join().unwrap(), 1);
    }

    #[test]
    fn proc_name_resolves_while_alive() {
        let rt = Runtime::threaded();
        let rt2 = rt.clone();
        let h = rt.spawn_with(Spawn::new("worker"), move || {
            let me = rt2.current();
            rt2.proc_name(me)
        });
        assert_eq!(h.join().unwrap().as_deref(), Some("worker"));
    }
}
