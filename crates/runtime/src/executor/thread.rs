//! Threaded executor: one OS thread per *live* process, recycled.
//!
//! A process is a fresh [`ProcId`], park slot (name, permit, done and
//! panic status) and thread-local registration — identity is per process.
//! The OS thread under it is not: a thread whose process has returned
//! parks itself on a LIFO idle list and runs the next spawned process,
//! so a spawn costs one wake instead of one `clone` + stack `mmap`. An
//! idle thread exits after [`tuning::THREAD_KEEP_ALIVE_MS`] and at
//! `shutdown`; only a spawn that finds the list empty creates a thread,
//! so concurrency is never capped — a process may block indefinitely.
//!
//! OS threads therefore carry one generic name; ask
//! [`Runtime::proc_name`](super::Runtime::proc_name) who a process is.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use super::{current_depth, current_for, set_current, truncate_current, ExecutorCore};
use crate::error::{Aborted, RuntimeError};
use crate::process::{ProcId, Spawn};
use crate::tuning;

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

/// One process, handed to the OS thread that will run it.
struct Job {
    id: ProcId,
    slot: Arc<ProcSlot>,
    f: Box<dyn FnOnce() + Send>,
}

enum Msg {
    Run(Job),
    Exit,
}

/// Where an idle OS thread waits for its next process. Whoever takes a
/// mailbox off the idle list — a `spawn`, `shutdown`, or the thread's own
/// keep-alive expiry — decides the thread's fate; a thread that finds
/// itself delisted waits for the message that is on its way.
#[derive(Default)]
struct Mailbox {
    msg: Mutex<Option<Msg>>,
    cv: Condvar,
}

impl Mailbox {
    fn post(&self, msg: Msg) {
        *self.msg.lock() = Some(msg);
        self.cv.notify_one();
    }
}

pub(crate) struct ThreadCore {
    /// Unique instance token keying thread-local registrations — never an
    /// address, which the allocator may reuse across runtime lifetimes.
    token: usize,
    /// For handing the core to the OS threads it creates.
    me: Weak<ThreadCore>,
    procs: Mutex<HashMap<ProcId, Arc<ProcSlot>>>,
    /// OS threads between processes, most recently idled last.
    idle: Mutex<Vec<Arc<Mailbox>>>,
    next_id: AtomicU64,
    epoch0: Instant,
    shutdown: AtomicBool,
}

impl ThreadCore {
    pub(crate) fn new() -> Arc<ThreadCore> {
        crate::error::silence_abort_panics();
        Arc::new_cyclic(|me| ThreadCore {
            token: super::alloc_core_token(),
            me: me.clone(),
            procs: Mutex::new(HashMap::new()),
            idle: Mutex::new(Vec::new()),
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

    /// Body of every OS thread: run processes until none arrives.
    fn thread_main(self: Arc<Self>, first: Job) {
        let mailbox = Arc::new(Mailbox::default());
        let mut job = Some(first);
        while let Some(Job { id, slot, f }) = job {
            let panicked = self.run(id, f);
            // Listed before the exit is announced: whoever joins this
            // process and then spawns finds this thread.
            let listed = self.list_idle(&mailbox);
            self.exited(id, &slot, panicked);
            job = if listed {
                self.next_job(&mailbox)
            } else {
                None
            };
        }
    }

    /// Run one process on the calling thread; whether it panicked.
    fn run(&self, id: ProcId, f: Box<dyn FnOnce() + Send>) -> bool {
        let depth = current_depth();
        set_current(self.token, id);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        // Drops this registration and any foreign one the process made
        // in another runtime: the next process on this thread must not
        // inherit an identity (and its permits) there.
        truncate_current(depth);
        matches!(&outcome, Err(payload) if !payload.is::<Aborted>())
    }

    fn exited(&self, id: ProcId, slot: &ProcSlot, panicked: bool) {
        let detached = {
            let mut st = slot.st.lock();
            st.done = true;
            st.panicked = panicked;
            slot.done_cv.notify_all();
            st.detached
        };
        if detached {
            self.procs.lock().remove(&id);
        }
    }

    /// Put the calling thread's mailbox on the idle list, unless the
    /// runtime is shut down.
    fn list_idle(&self, mailbox: &Arc<Mailbox>) -> bool {
        let mut idle = self.idle.lock();
        // Under the list lock: `shutdown` raises the flag before it
        // drains the list, so this thread sees one or the other.
        if self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        idle.push(Arc::clone(mailbox));
        true
    }

    /// Wait on a listed mailbox until a process arrives; `None` means
    /// the thread should exit.
    fn next_job(&self, mailbox: &Arc<Mailbox>) -> Option<Job> {
        let deadline = Instant::now() + Duration::from_millis(tuning::THREAD_KEEP_ALIVE_MS);
        let mut msg = mailbox.msg.lock();
        loop {
            match msg.take() {
                Some(Msg::Run(job)) => return Some(job),
                Some(Msg::Exit) => return None,
                None => {}
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if !left.is_zero() {
                let _ = mailbox.cv.wait_for(&mut msg, left);
                continue;
            }
            drop(msg);
            {
                let mut idle = self.idle.lock();
                if let Some(pos) = idle.iter().position(|m| Arc::ptr_eq(m, mailbox)) {
                    idle.remove(pos);
                    return None;
                }
            }
            // Delisted by someone else: their message is on its way.
            msg = mailbox.msg.lock();
            while msg.is_none() {
                mailbox.cv.wait(&mut msg);
            }
        }
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
        let job = Job { id, slot, f };
        let recycled = self.idle.lock().pop();
        match recycled {
            Some(mailbox) => mailbox.post(Msg::Run(job)),
            None => {
                let core = self.me.upgrade().expect("spawn on a dropped runtime");
                std::thread::Builder::new()
                    .name("alps-proc".to_string())
                    .spawn(move || core.thread_main(job))
                    .expect("failed to spawn OS thread");
            }
        }
        id
    }

    fn detach(&self, id: ProcId) {
        let mut procs = self.procs.lock();
        let Some(slot) = procs.get(&id) else {
            return;
        };
        // The slot lock orders this against `exited`: either the process
        // is done and we prune, or it sees `detached`.
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
        let idle = std::mem::take(&mut *self.idle.lock());
        for mailbox in idle {
            mailbox.post(Msg::Exit);
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
    use crate::{tuning, Runtime, Spawn};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    fn os_thread() -> ThreadId {
        std::thread::current().id()
    }

    #[test]
    fn sequential_spawns_recycle_one_thread_with_fresh_identities() {
        let rt = Runtime::threaded();
        let mut threads = HashSet::new();
        let mut ids = HashSet::new();
        for i in 0..1000 {
            let rt2 = rt.clone();
            let h = rt.spawn_with(Spawn::new(format!("p{i}")), move || {
                let me = rt2.current();
                let t0 = Instant::now();
                rt2.park_timeout(200); // returns early only on a permit
                let parked = t0.elapsed();
                rt2.unpark(me); // left behind for whoever runs here next
                (me, rt2.proc_name(me), os_thread(), parked)
            });
            let id = h.id();
            let (me, name, thread, parked) = h.join().unwrap();
            assert_eq!(me, id, "process {i} saw another process's identity");
            assert_eq!(name, Some(format!("p{i}")));
            assert!(
                parked >= Duration::from_micros(100),
                "process {i} inherited a permit"
            );
            assert!(ids.insert(me), "ProcId reused");
            threads.insert(thread);
        }
        // One, unless this test was descheduled for a whole keep-alive.
        assert!(
            threads.len() <= 4,
            "1000 sequential processes used {} OS threads",
            threads.len()
        );
    }

    #[test]
    fn a_foreign_registration_does_not_outlive_its_process() {
        let rt = Runtime::threaded();
        let other = Runtime::threaded();
        // Two processes, one after the other, each touching `other` from
        // the OS thread they share (retried if a stall of a whole
        // keep-alive gave the second one a new thread).
        for _ in 0..20 {
            let o = other.clone();
            let first = rt.spawn(move || {
                let me = o.current(); // registers this thread in `other`
                o.unpark(me);
                (me, os_thread())
            });
            let (first_id, first_thread) = first.join().unwrap();
            let o = other.clone();
            let second = rt.spawn(move || {
                let me = o.current();
                let t0 = Instant::now();
                o.park_timeout(5_000);
                (me, os_thread(), t0.elapsed())
            });
            let (second_id, second_thread, parked) = second.join().unwrap();
            if first_thread != second_thread {
                continue;
            }
            assert_ne!(second_id, first_id, "inherited an identity in `other`");
            assert!(parked >= Duration::from_millis(2), "and its permit");
            return;
        }
        panic!("sequential processes never shared an OS thread");
    }

    #[test]
    fn a_panicking_process_is_reported_and_its_thread_serves_the_next() {
        let rt = Runtime::threaded();
        for _ in 0..20 {
            let thread = Arc::new(parking_lot::Mutex::new(None));
            let t2 = Arc::clone(&thread);
            let h = rt.spawn_with(Spawn::new("boom"), move || {
                *t2.lock() = Some(os_thread());
                panic!("bang");
            });
            let err = h.join().unwrap_err();
            assert_eq!(err.to_string(), "process `boom` panicked");
            let next = rt.spawn(os_thread).join().unwrap();
            if Some(next) == *thread.lock() {
                return;
            }
        }
        panic!("no spawn ever reused the thread of a panicked process");
    }

    thread_local! {
        /// Counts OS-thread exits: its destructor runs when the thread
        /// that set it exits.
        static CANARY: std::cell::RefCell<Option<Canary>> = const { std::cell::RefCell::new(None) };
    }

    struct Canary(Arc<AtomicUsize>);

    impl Drop for Canary {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Run `n` processes at once, each planting a canary in its OS
    /// thread, and return once all have exited.
    fn run_burst(rt: &Runtime, n: usize, exits: &Arc<AtomicUsize>) {
        let arrived = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..n)
            .map(|_| {
                let (arrived, exits) = (Arc::clone(&arrived), Arc::clone(exits));
                rt.spawn(move || {
                    CANARY.with(|c| {
                        let mut c = c.borrow_mut();
                        if c.is_none() {
                            *c = Some(Canary(exits));
                        }
                    });
                    arrived.fetch_add(1, Ordering::SeqCst);
                    // Nobody leaves before everybody is here: only n
                    // concurrent OS threads get past this.
                    while arrived.load(Ordering::SeqCst) < n {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
    }

    #[test]
    fn recycling_never_caps_concurrency() {
        let rt = Runtime::threaded();
        let exits = Arc::new(AtomicUsize::new(0));
        // A warm idle list of 4 must not hold a burst of 64 to 4 threads.
        run_burst(&rt, 4, &exits);
        run_burst(&rt, 64, &exits);
        rt.shutdown();
    }

    #[test]
    fn idle_threads_exit_after_the_keep_alive() {
        let core = ThreadCore::new();
        let rt = Runtime { core: core.clone() };
        let exits = Arc::new(AtomicUsize::new(0));
        run_burst(&rt, 8, &exits);
        // A thread lists itself before it announces its process's exit.
        assert_eq!(core.idle.lock().len(), 8);
        std::thread::sleep(Duration::from_millis(tuning::THREAD_KEEP_ALIVE_MS));
        eventually("8 threads gone", || exits.load(Ordering::SeqCst) == 8);
        assert_eq!(core.idle.lock().len(), 0);
        // The runtime is as good as new.
        assert_eq!(rt.spawn(|| 7).join().unwrap(), 7);
    }

    #[test]
    fn idle_threads_exit_at_shutdown() {
        let core = ThreadCore::new();
        let rt = Runtime { core: core.clone() };
        let exits = Arc::new(AtomicUsize::new(0));
        run_burst(&rt, 8, &exits);
        assert_eq!(core.idle.lock().len(), 8);
        rt.shutdown();
        // Delisted by `shutdown` itself, not by their keep-alive.
        assert_eq!(core.idle.lock().len(), 0);
        eventually("8 threads gone", || exits.load(Ordering::SeqCst) == 8);
        // A thread that finishes a process after shutdown does not idle.
        run_burst(&rt, 1, &exits);
        assert_eq!(core.idle.lock().len(), 0);
        eventually("late thread gone", || exits.load(Ordering::SeqCst) == 9);
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
