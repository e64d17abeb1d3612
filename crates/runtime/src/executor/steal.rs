//! Work-stealing shared executor: processes as stackful green tasks on
//! K long-lived OS workers.
//!
//! The threaded executor spends one OS thread per live process, so a
//! system of 64 objects — each with a manager loop plus pool workers plus
//! callers — costs hundreds of threads before any work is done. This
//! executor keeps the *exact same* [`ExecutorCore`] contract
//! (buffered-permit park, `park_timeout`, abort-on-shutdown unwinding,
//! lazily registered foreign threads) but multiplexes all spawned
//! processes onto a fixed worker pool:
//!
//! * Every spawned process is a **stackful coroutine** (own 1 MiB lazily
//!   committed stack, callee-saved registers switched in ~20 ns of inline
//!   asm). Because *all* blocking in the object runtime funnels through
//!   `Runtime::park` / `park_timeout` (call-cell reply waits, notifier
//!   waits, pool-worker idling), a park simply suspends the coroutine and
//!   frees the worker — manager loops and `PoolMode::{PerCall,Shared}`
//!   bodies become tasks with no changes to the synchronization protocols.
//! * Scheduling is **work stealing**: each worker owns a LIFO deque
//!   (newest-first for cache locality; `yield_now` re-queues at the cold
//!   end, `yield_briefly` just behind the task at the hot end), spawns
//!   and wakeups from non-worker threads land in a global
//!   injector, and an idle worker steals *half* of a victim's deque in
//!   one batch so a burst fans out in O(log n) steals. Workers also poll
//!   the injector ahead of their own deque every
//!   [`GLOBAL_POLL_INTERVAL`] dispatches, so injected tasks cannot
//!   starve behind a local deque that never drains.
//! * The idle protocol is check-then-park, with no spin phase (it paid
//!   for nothing, DESIGN.md §11.10): a worker that finds every queue
//!   empty registers in an idle list, re-checks (producers enqueue *before*
//!   consulting the list, so the recheck closes the sleep/publish race),
//!   and parks on its own parker. Producers wake at most one worker per
//!   enqueue, and only for work the enqueuing worker cannot run next
//!   (next bullet); a worker that grabs a batch wakes the next worker, so
//!   wakeups cascade only while work remains.
//! * A task readied by its partner stays on the partner's worker: an
//!   enqueue onto the running worker's own deque wakes a sleeper only
//!   for surplus (the deque now holds two or more, or the running task
//!   readied a different task last time, so it fans work out rather
//!   than handing it back and forth) or when a worker sleeps *deep* (it
//!   went idle while every worker was idle); injected tasks wake one as
//!   before. So a caller and the manager it wakes share one worker and
//!   its cache (DESIGN.md §11.12), while a manager serving many callers
//!   still hands the ones it wakes to another worker. A worker that went
//!   idle while a peer ran sleeps in periods of [`IDLE_CHECK_PERIOD`]
//!   instead. At each timeout it takes the oldest task of a peer that
//!   has dispatched fewer than two tasks since the period began, or
//!   sleeps deep if every worker is idle by then. So a task queued
//!   behind one that computes without yielding waits about one period,
//!   not the whole computation.
//! * `park_timeout` and `sleep` are served by one timer thread holding a
//!   min-heap of deadlines. Timer wakeups carry the park sequence number
//!   they were armed for and are dropped stale, so an early `unpark`
//!   never lets an old timer interrupt a later park.
//!
//! # Lost-wakeup discipline
//!
//! The racy edge is a task suspending while another thread unparks it.
//! A task that decides to park publishes `PARKING` and switches to the
//! scheduler; **only the scheduler** (now on its own stack, the task's
//! context fully saved) moves `PARKING → PARKED` and then re-checks the
//! permit: `unpark` stores the permit *before* CAS-ing `PARKED →
//! RUNNABLE`, and the scheduler stores `PARKED` *before* re-reading the
//! permit (both SeqCst), so whichever side loses the race still observes
//! the other's write — the task is re-queued exactly once, never lost,
//! and never enqueued while its register state is still being saved.
//!
//! # Divergences from the threaded executor
//!
//! * Dropping the last `Runtime` clone shuts the pool down (aborting
//!   still-parked daemon tasks) and joins the workers; the threaded
//!   executor leaves its blocked threads behind (idle ones exit by
//!   their keep-alive). In-repo teardown already parks orderly, so this
//!   only changes leak behaviour.
//! * Spawning after `shutdown` records the process as immediately
//!   panicked instead of running it.
//! * Green stacks are 1 MiB with no guard page; deep recursion in a
//!   spawned process is UB where the threaded executor would fault
//!   cleanly. A checked ALPS program reaches it: a local procedure that
//!   recurses 200 deep dies with SIGSEGV on `thread_pool(2)`, while
//!   depth 100 runs (ROADMAP.md, item 1).
//!
//! x86_64 only (the context switch is hand-written for the System V
//! ABI); `Runtime::thread_pool` falls back to the threaded executor on
//! other targets.

use std::alloc::Layout;
use std::cell::{Cell, UnsafeCell};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{
    AtomicBool, AtomicU64, AtomicU8, AtomicUsize,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use super::{current_for, set_current, ExecutorCore};
use crate::error::{Aborted, RuntimeError};
use crate::process::{ProcId, Spawn};

/// Green-task stack size. Lazily committed (plain `malloc`-class
/// allocation, untouched pages cost address space only).
const STACK_SIZE: usize = 1 << 20;
/// Completed tasks' stacks are recycled through a bounded free list.
const STACK_POOL_CAP: usize = 64;
/// Max tasks pulled from the injector in one grab.
const INJ_BATCH_MAX: usize = 16;
/// Max tasks stolen from a victim in one grab.
const STEAL_BATCH_MAX: usize = 16;
/// Every this-many dispatches a worker polls the global injector before
/// its own deque, so injected tasks cannot starve behind a local deque
/// that never drains (cf. tokio's global-queue interval). It must stay
/// finite: `injected_task_is_not_starved_by_yield_looping_tasks`.
///
/// Measured worth (ten rotating rounds, `--seconds 16`, 2 cores,
/// medians, 61 → 7): `call_solo` `lat_p50_us` 2.21 → 2.15 (lower with 7
/// in 5/10), `kv_storm` 12.5 → 12.2 (4/10), `alps_buffer` 24.4 → 22.5 ms
/// (9/10, inside the spread of 3.2 ms that the 61 runs show): no
/// resolvable difference, so the period stays.
const GLOBAL_POLL_INTERVAL: u64 = 61;
/// Re-arm delay (ticks = µs) when a timer fires inside the instant
/// between a task *deciding* to park and the scheduler publishing
/// `PARKED`. The stale-sequence check bounds the retries.
const TIMER_RETRY_TICKS: u64 = 20;
/// Sleep period of a worker that went idle while a peer ran. At each
/// timeout it takes the oldest task of a peer stuck behind one long
/// task, so this bounds how long a task readied onto a busy worker's
/// deque (which wakes nobody) waits for a worker.
///
/// Measured worth (DESIGN.md §11.12): with no period check, a task
/// readied behind its waker's 20 ms burst waited 20.1 ms; with 1 ms
/// periods it starts after 1.06–1.09 ms. A 200 µs period read the same
/// `call_solo` p50 and CPU per op (three pairs) and wakes an idle
/// worker five times as often.
const IDLE_CHECK_PERIOD: Duration = Duration::from_millis(1);

// ---------------------------------------------------------------------
// Context switch (x86_64 System V)
// ---------------------------------------------------------------------

/// Save the callee-saved state of the current continuation on the
/// current stack, store the resulting stack pointer to `*save`, then
/// resume the continuation whose stack pointer is `load`.
///
/// Frame layout at a saved stack pointer `sp` (low → high):
/// `[sp+0]` mxcsr, `[sp+4]` x87 control word, `[sp+8..56]` r15 r14 r13
/// r12 rbx rbp, `[sp+56]` return address.
///
/// # Safety
///
/// `load` must be a stack pointer previously produced by this function
/// (or by [`prepare_stack`]) and not resumed since.
#[unsafe(naked)]
unsafe extern "C" fn ctx_switch(_save: *mut *mut u8, _load: *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First resumption target of a fresh task: [`prepare_stack`] parks the
/// task pointer in (callee-saved) r12, so it survives the switch and
/// becomes `task_entry`'s argument. `task_entry` never returns.
#[unsafe(naked)]
unsafe extern "C" fn task_boot() {
    core::arch::naked_asm!(
        "mov rdi, r12",
        "call {entry}",
        "ud2",
        entry = sym task_entry,
    )
}

/// Body of every green task: run the spawned closure under
/// `catch_unwind` (an [`Aborted`] unwind is orderly shutdown, not a
/// panic), then hand control back to the scheduler for good.
unsafe extern "C" fn task_entry(task: *const Task) -> ! {
    // The scheduler's `current` slot (and `run_task`'s own `Arc`) keep
    // `*task` alive for the whole run, including this final switch-out;
    // the registry entry may already be gone (`detach`).
    let f = unsafe { (*task).closure.lock().take() }.expect("green task started twice");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    let panicked = match &outcome {
        Ok(()) => false,
        Err(payload) => !payload.is::<Aborted>(),
    };
    // Drop the panic payload *before* the final switch: the stack is
    // recycled, anything still live on it would leak.
    drop(outcome);
    switch_out(Pending::Done { panicked });
    unreachable!("completed green task was resumed");
}

/// A green stack. Allocated uninitialized so pages commit lazily.
struct Stack {
    ptr: *mut u8,
    layout: Layout,
}

unsafe impl Send for Stack {}

impl Stack {
    fn new() -> Stack {
        let layout = Layout::from_size_align(STACK_SIZE, 16).unwrap();
        let ptr = unsafe { std::alloc::alloc(layout) };
        assert!(!ptr.is_null(), "green stack allocation failed");
        Stack { ptr, layout }
    }

    fn top(&self) -> *mut u8 {
        unsafe { self.ptr.add(STACK_SIZE) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        unsafe { std::alloc::dealloc(self.ptr, self.layout) };
    }
}

/// Write a fresh [`ctx_switch`] frame onto `stack` that boots into
/// `task_boot` with `task` in r12 and the ABI-default FP control state,
/// and return the stack pointer to load.
///
/// Alignment: the return-address slot sits at an address ≡ 8 (mod 16),
/// so after `ctx_switch`'s `ret` the stack is 16-aligned at `task_boot`,
/// whose `call` then gives `task_entry` a standard System V entry frame.
unsafe fn prepare_stack(stack: &Stack, task: *const Task) -> *mut u8 {
    let top16 = (stack.top() as usize & !15) as *mut u8;
    let sp = unsafe { top16.sub(64) };
    let words = sp as *mut u64;
    let boot: unsafe extern "C" fn() = task_boot;
    unsafe {
        // [0] fp state: mxcsr 0x1F80 (all exceptions masked), fcw 0x037F.
        words.write(0x1F80_u64 | (0x037F_u64 << 32));
        words.add(1).write(0); // r15
        words.add(2).write(0); // r14
        words.add(3).write(0); // r13
        words.add(4).write(task as u64); // r12 → task_entry arg
        words.add(5).write(0); // rbx
        words.add(6).write(0); // rbp
        words.add(7).write(boot as usize as u64); // return address
    }
    sp
}

// ---------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------

const RUNNING: u8 = 0;
/// Decided to park/sleep; register state still being saved. Transient:
/// only the owning scheduler moves a task out of `PARKING`.
const PARKING: u8 = 1;
const PARKED: u8 = 2;
const SLEEPING: u8 = 3;
const RUNNABLE: u8 = 4;
const DONE: u8 = 5;

struct JoinSt {
    done: bool,
    panicked: bool,
    /// The task's handle is gone: `finish_task` prunes the registry.
    detached: bool,
    /// Green tasks parked in `join`; unparked by `finish_task`.
    waiters: Vec<ProcId>,
}

struct Task {
    id: ProcId,
    name: String,
    state: AtomicU8,
    /// Buffered unpark permit, exactly the `std::thread::park` token.
    permit: AtomicBool,
    aborted: AtomicBool,
    /// Bumped on every return from park; timer entries armed for an
    /// older sequence are stale and dropped.
    park_seq: AtomicU64,
    /// Queued by a `yield_briefly` and not dispatched since. Set and
    /// read under the deque lock; cleared at dispatch, when no deque
    /// holds the task.
    brief: AtomicBool,
    /// Id of the task this one last readied onto an otherwise empty
    /// deque of its worker (0: none yet). Read and written by those
    /// enqueues, on the worker running it; `Relaxed`, since it publishes
    /// nothing and the deque lock orders a task's runs across workers.
    last_readied: AtomicU64,
    /// Saved stack pointer while suspended. Owned by the running task /
    /// its scheduler, exclusively, per the state machine.
    sp: UnsafeCell<*mut u8>,
    stack: Mutex<Option<Stack>>,
    closure: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    join: Mutex<JoinSt>,
    done_cv: Condvar,
}

unsafe impl Send for Task {}
unsafe impl Sync for Task {}

/// What a task asked the scheduler to do with it when it switched out.
enum Pending {
    None,
    Park,
    Sleep,
    Yield,
    YieldBriefly,
    Done { panicked: bool },
}

/// Per-OS-worker scheduler state, reachable from task context via TLS.
struct WorkerCtx {
    /// Pool instance token ([`super::alloc_core_token`]); a task of pool
    /// A calling into a *different* pool must take the foreign path.
    token: usize,
    index: usize,
    /// Saved scheduler continuation while a task runs.
    sched_sp: *mut u8,
    current: Option<Arc<Task>>,
    pending: Pending,
}

thread_local! {
    static WORKER_TLS: Cell<*mut WorkerCtx> = const { Cell::new(std::ptr::null_mut()) };
}

/// TLS accessors are `#[inline(never)]`: a green task migrates between
/// OS threads across a park, and an inlined `%fs`-relative TLS load is
/// exactly the kind of thing LLVM hoists/CSEs across the (opaque to it)
/// context switch. An outlined call re-reads the *current* thread's slot
/// at every use site.
#[inline(never)]
fn worker_ctx() -> *mut WorkerCtx {
    WORKER_TLS.with(|c| c.get())
}

#[inline(never)]
fn set_worker_ctx(p: *mut WorkerCtx) {
    WORKER_TLS.with(|c| c.set(p));
}

/// Suspend the calling green task, handing `pending` to its scheduler.
/// Returns when the task is next resumed — possibly on another worker.
fn switch_out(pending: Pending) {
    let w = worker_ctx();
    assert!(!w.is_null(), "switch_out outside a green task");
    unsafe {
        (*w).pending = pending;
        let sp_slot = (*w)
            .current
            .as_ref()
            .expect("switch_out with no current task")
            .sp
            .get();
        let sched = (*w).sched_sp;
        ctx_switch(sp_slot, sched);
    }
    // Resumed. Do not touch `w` here: the task may now be on a
    // different worker; callers re-read TLS if they need scheduler state.
}

// ---------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------

struct WorkerShared {
    /// LIFO run queue: `pop_back` newest for locality; steals take
    /// `pop_front` oldest. `len` mirrors the deque length so idle checks
    /// and steal scans stay lock-free.
    deque: Mutex<VecDeque<Arc<Task>>>,
    len: AtomicUsize,
    /// Dispatch counter driving the periodic injector poll, and read by
    /// sleeping peers to tell a stuck worker (only this worker writes
    /// it; atomic because `next_task` takes `&self`).
    ticks: AtomicU64,
    /// Parker: permit + condvar, same shape as a task permit.
    park: Mutex<bool>,
    cv: Condvar,
}

impl WorkerShared {
    fn new() -> WorkerShared {
        WorkerShared {
            deque: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            ticks: AtomicU64::new(0),
            park: Mutex::new(false),
            cv: Condvar::new(),
        }
    }
}

struct ForeignSt {
    permit: bool,
    aborted: bool,
}

/// Park slot for a lazily registered non-pool thread (identical
/// semantics to the threaded executor's foreign slots: parks never
/// abort-panic).
struct ForeignSlot {
    name: String,
    st: Mutex<ForeignSt>,
    cv: Condvar,
}

#[derive(Clone)]
enum Slot {
    Green(Arc<Task>),
    Foreign(Arc<ForeignSlot>),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    Park,
    Sleep,
}

struct TimerEnt {
    at: u64,
    seq: u64,
    id: ProcId,
    kind: TimerKind,
}

// Min-heap by deadline.
impl PartialEq for TimerEnt {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}
impl Eq for TimerEnt {}
impl PartialOrd for TimerEnt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEnt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at)
    }
}

struct PoolInner {
    token: usize,
    next_id: AtomicU64,
    epoch0: Instant,
    shutdown: AtomicBool,
    procs: Mutex<HashMap<ProcId, Slot>>,
    injector: Mutex<VecDeque<Arc<Task>>>,
    inj_len: AtomicUsize,
    workers: Vec<WorkerShared>,
    /// Indices of workers parked (or about to park) on their parker.
    idle: Mutex<Vec<usize>>,
    /// Workers asleep deep: with no period check, so a local enqueue
    /// wakes one while any is. Incremented under the `idle` lock, so a
    /// worker that leaves the list after it sees the count.
    deep_sleepers: AtomicUsize,
    /// Green tasks spawned and not yet finished; workers exit when this
    /// hits zero after shutdown.
    live_tasks: AtomicUsize,
    timers: Mutex<BinaryHeap<TimerEnt>>,
    timer_cv: Condvar,
    stack_pool: Mutex<Vec<Stack>>,
}

impl PoolInner {
    fn now(&self) -> u64 {
        self.epoch0.elapsed().as_micros() as u64
    }

    fn alloc_id(&self) -> ProcId {
        ProcId(self.next_id.fetch_add(1, SeqCst))
    }

    /// The calling green task, iff the current thread is one of *this*
    /// pool's workers currently running a task.
    fn current_green(&self) -> Option<Arc<Task>> {
        let w = worker_ctx();
        if w.is_null() {
            return None;
        }
        unsafe {
            if (*w).token != self.token {
                return None;
            }
            (*w).current.clone()
        }
    }

    /// Queue a RUNNABLE task: on the local deque when enqueued from one
    /// of this pool's workers, else on the global injector. An injected
    /// task wakes a sleeping worker. A local one does only when the
    /// deque now holds surplus, the running task is not its partner, or
    /// a worker sleeps deep: otherwise the enqueuing worker runs it
    /// next, and a shallow sleeper checks on a stuck peer itself.
    fn enqueue(&self, task: Arc<Task>) {
        let w = worker_ctx();
        if !w.is_null() && unsafe { (*w).token } == self.token {
            let ws = &self.workers[unsafe { (*w).index }];
            let id = task.id.as_u64();
            let mut d = ws.deque.lock();
            d.push_back(task);
            let len = d.len();
            ws.len.store(len, SeqCst);
            drop(d);
            if len >= 2 || !Self::readies_its_partner(w, id) || self.deep_sleepers.load(SeqCst) > 0
            {
                self.wake_one();
            }
        } else {
            let mut inj = self.injector.lock();
            inj.push_back(task);
            self.inj_len.store(inj.len(), SeqCst);
            drop(inj);
            self.wake_one();
        }
    }

    /// Whether the task running on worker `w` readied task `id` the last
    /// time it readied one onto an empty deque too: the two hand work
    /// back and forth, and run best on one worker. A task that readies a
    /// different task each time fans work out, and the readied ones are
    /// work for a peer. Outside a task (the scheduler re-queueing one)
    /// this is true.
    fn readies_its_partner(w: *mut WorkerCtx, id: u64) -> bool {
        // SAFETY: `w` is the calling thread's live worker context
        // (`enqueue` checked it), and only this thread touches `current`.
        match unsafe { &(*w).current } {
            Some(cur) => cur.last_readied.swap(id, Relaxed) == id,
            None => true,
        }
    }

    fn wake_one(&self) {
        let idx = self.idle.lock().pop();
        if let Some(i) = idx {
            let ws = &self.workers[i];
            let mut p = ws.park.lock();
            *p = true;
            ws.cv.notify_all();
        }
    }

    fn wake_all_workers(&self) {
        self.idle.lock().clear();
        for ws in &self.workers {
            let mut p = ws.park.lock();
            *p = true;
            ws.cv.notify_all();
        }
    }

    fn has_work(&self) -> bool {
        self.inj_len.load(SeqCst) > 0 || self.workers.iter().any(|ws| ws.len.load(SeqCst) > 0)
    }

    /// Find the next task for worker `i`: own deque (LIFO), then an
    /// injector batch, then steal-half from a victim. Never holds two
    /// deque locks at once (steals copy out, unlock, then re-queue).
    fn next_task(&self, i: usize) -> Option<Arc<Task>> {
        // Fairness valve: every GLOBAL_POLL_INTERVAL dispatches, look at
        // the injector *before* the local deque. Without it a worker
        // whose deque never drains (e.g. green tasks in a yield loop)
        // never returns to the injector, and — since the wake cascade's
        // halving grabs can leave a task behind — an injected task can
        // starve forever while every worker stays busy.
        let tick = self.workers[i].ticks.fetch_add(1, SeqCst);
        if tick.is_multiple_of(GLOBAL_POLL_INTERVAL) {
            let mut inj = self.injector.lock();
            if let Some(t) = inj.pop_front() {
                self.inj_len.store(inj.len(), SeqCst);
                return Some(t);
            }
        }
        {
            let ws = &self.workers[i];
            let mut d = ws.deque.lock();
            if let Some(t) = d.pop_back() {
                ws.len.store(d.len(), SeqCst);
                return Some(t);
            }
        }
        // Injector: take half of what's queued (≥1, capped), FIFO.
        let mut grabbed: Vec<Arc<Task>> = Vec::new();
        let mut more_elsewhere = false;
        {
            let mut inj = self.injector.lock();
            if !inj.is_empty() {
                let take = inj.len().div_ceil(2).min(INJ_BATCH_MAX);
                grabbed.extend(inj.drain(..take));
                self.inj_len.store(inj.len(), SeqCst);
                more_elsewhere = !inj.is_empty();
            }
        }
        if grabbed.is_empty() {
            // Steal half of the first non-empty victim's deque, oldest
            // first (the victim keeps its hot newest entries).
            for off in 1..self.workers.len() {
                let v = (i + off) % self.workers.len();
                let ws = &self.workers[v];
                if ws.len.load(SeqCst) == 0 {
                    continue;
                }
                let mut d = ws.deque.lock();
                let take = d.len().div_ceil(2).min(STEAL_BATCH_MAX);
                grabbed.extend(d.drain(..take));
                ws.len.store(d.len(), SeqCst);
                more_elsewhere = !d.is_empty();
                drop(d);
                if !grabbed.is_empty() {
                    break;
                }
            }
        }
        let first = grabbed.pop()?; // newest of the batch runs first
        if !grabbed.is_empty() {
            let ws = &self.workers[i];
            let mut d = ws.deque.lock();
            for t in grabbed {
                d.push_back(t);
            }
            ws.len.store(d.len(), SeqCst);
            drop(d);
            // We hold a batch; cascade a wakeup so a peer can share it.
            self.wake_one();
        } else if more_elsewhere {
            self.wake_one();
        }
        Some(first)
    }

    /// Resume `task` on worker `w` until it parks, sleeps, yields, or
    /// finishes, then apply the state transition it requested. All
    /// `PARKING → *` moves happen here, on the scheduler stack, with the
    /// task's register state fully saved.
    fn run_task(&self, w: *mut WorkerCtx, task: Arc<Task>) {
        task.state.store(RUNNING, SeqCst);
        if task.brief.load(Relaxed) {
            task.brief.store(false, Relaxed);
        }
        unsafe {
            (*w).pending = Pending::None;
            (*w).current = Some(Arc::clone(&task));
            let sp = *task.sp.get();
            ctx_switch(std::ptr::addr_of_mut!((*w).sched_sp), sp);
            (*w).current = None;
        }
        let pending = unsafe { std::mem::replace(&mut (*w).pending, Pending::None) };
        match pending {
            Pending::Park => {
                let ok = task
                    .state
                    .compare_exchange(PARKING, PARKED, SeqCst, SeqCst)
                    .is_ok();
                debug_assert!(ok, "parking task moved by someone else");
                // Dekker re-check against a racing unpark/abort: they
                // store permit/aborted before reading the state, we store
                // PARKED before reading permit/aborted — one side must
                // see the other.
                if (task.permit.load(SeqCst) || task.aborted.load(SeqCst))
                    && task
                        .state
                        .compare_exchange(PARKED, RUNNABLE, SeqCst, SeqCst)
                        .is_ok()
                {
                    self.enqueue(task);
                }
            }
            Pending::Sleep => {
                let ok = task
                    .state
                    .compare_exchange(PARKING, SLEEPING, SeqCst, SeqCst)
                    .is_ok();
                debug_assert!(ok, "sleeping task moved by someone else");
                // Same re-check for a shutdown that raced the suspension.
                if task.aborted.load(SeqCst)
                    && task
                        .state
                        .compare_exchange(SLEEPING, RUNNABLE, SeqCst, SeqCst)
                        .is_ok()
                {
                    self.enqueue(task);
                }
            }
            Pending::Yield => {
                task.state.store(RUNNABLE, SeqCst);
                // Cold end of the LIFO deque: everything else local runs
                // before the yielder comes around again.
                let ws = &self.workers[unsafe { (*w).index }];
                let mut d = ws.deque.lock();
                d.push_front(task);
                ws.len.store(d.len(), SeqCst);
            }
            Pending::YieldBriefly => self.requeue_briefly(w, task),
            Pending::Done { panicked } => self.finish_task(&task, panicked),
            Pending::None => unreachable!("green task switched out with no pending request"),
        }
    }

    /// Re-queue a task that yielded briefly just behind the hot-end task,
    /// so that task runs first, with whatever it queues at the hot end
    /// in turn. Never behind one that came there
    /// the same way: two brief yielders would then trade the worker and
    /// starve every other task; it goes to the cold end instead. Out of
    /// line: only a manager with bodies in flight comes here, and
    /// `run_task`'s match, which every yield and park passes through,
    /// stays the size it was.
    #[inline(never)]
    fn requeue_briefly(&self, w: *mut WorkerCtx, task: Arc<Task>) {
        task.state.store(RUNNABLE, SeqCst);
        task.brief.store(true, Relaxed);
        let ws = &self.workers[unsafe { (*w).index }];
        let mut d = ws.deque.lock();
        match d.len().checked_sub(1) {
            Some(hot) if !d[hot].brief.load(Relaxed) => d.insert(hot, task),
            _ => d.push_front(task),
        }
        ws.len.store(d.len(), SeqCst);
    }

    fn finish_task(&self, task: &Arc<Task>, panicked: bool) {
        task.state.store(DONE, SeqCst);
        if let Some(stack) = task.stack.lock().take() {
            let mut pool = self.stack_pool.lock();
            if pool.len() < STACK_POOL_CAP {
                pool.push(stack);
            }
        }
        let (waiters, detached) = {
            let mut j = task.join.lock();
            j.done = true;
            j.panicked = panicked;
            (std::mem::take(&mut j.waiters), j.detached)
        };
        task.done_cv.notify_all();
        if detached {
            self.procs.lock().remove(&task.id);
        }
        for wid in waiters {
            self.unpark_id(wid);
        }
        let prev = self.live_tasks.fetch_sub(1, SeqCst);
        if prev == 1 && self.shutdown.load(SeqCst) {
            // Last task after shutdown: release workers waiting to exit.
            self.wake_all_workers();
            let _g = self.timers.lock();
            self.timer_cv.notify_all();
        }
    }

    fn unpark_id(&self, id: ProcId) {
        let slot = self.procs.lock().get(&id).cloned();
        match slot {
            Some(Slot::Green(t)) => {
                t.permit.store(true, SeqCst);
                if t.state
                    .compare_exchange(PARKED, RUNNABLE, SeqCst, SeqCst)
                    .is_ok()
                {
                    self.enqueue(t);
                }
                // SLEEPING: the permit is buffered for the next park;
                // sleeps are woken only by their timer (or shutdown).
            }
            Some(Slot::Foreign(s)) => {
                let mut st = s.st.lock();
                st.permit = true;
                s.cv.notify_all();
            }
            None => {}
        }
    }

    fn register_timer(&self, ent: TimerEnt) {
        let mut timers = self.timers.lock();
        let new_front = timers.peek().is_none_or(|top| ent.at < top.at);
        timers.push(ent);
        if new_front {
            self.timer_cv.notify_all();
        }
    }

    fn fire_timer(&self, ent: TimerEnt) {
        let slot = self.procs.lock().get(&ent.id).cloned();
        let Some(Slot::Green(t)) = slot else { return };
        match ent.kind {
            TimerKind::Park => {
                if t.park_seq.load(SeqCst) != ent.seq {
                    return; // that park already returned
                }
                match t.state.compare_exchange(PARKED, RUNNABLE, SeqCst, SeqCst) {
                    Ok(_) => self.enqueue(t),
                    // Fired inside the decide-to-park window (timer armed
                    // before the PARKING publish): try again shortly.
                    Err(RUNNING) | Err(PARKING) => self.register_timer(TimerEnt {
                        at: self.now() + TIMER_RETRY_TICKS,
                        ..ent
                    }),
                    Err(_) => {} // already awake (unparked) or done
                }
            }
            TimerKind::Sleep => {
                match t.state.compare_exchange(SLEEPING, RUNNABLE, SeqCst, SeqCst) {
                    Ok(_) => self.enqueue(t),
                    Err(RUNNING) | Err(PARKING) => self.register_timer(TimerEnt {
                        at: self.now() + TIMER_RETRY_TICKS,
                        ..ent
                    }),
                    Err(_) => {} // woken by shutdown, or done
                }
            }
        }
    }

    // --- green-task blocking primitives -------------------------------

    fn green_park(&self, t: &Arc<Task>) {
        if t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
        if t.permit.swap(false, SeqCst) {
            return;
        }
        t.state.store(PARKING, SeqCst);
        switch_out(Pending::Park);
        t.park_seq.fetch_add(1, SeqCst);
        t.permit.store(false, SeqCst);
        if t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
    }

    fn green_park_timeout(&self, t: &Arc<Task>, ticks: u64) {
        if t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
        if t.permit.swap(false, SeqCst) {
            return;
        }
        if ticks == 0 {
            // Pure scheduling point, mirroring the threaded executor's
            // zero-duration wait.
            switch_out(Pending::Yield);
            t.permit.store(false, SeqCst);
            if t.aborted.load(SeqCst) {
                std::panic::panic_any(Aborted);
            }
            return;
        }
        let seq = t.park_seq.load(SeqCst);
        self.register_timer(TimerEnt {
            at: self.now().saturating_add(ticks),
            seq,
            id: t.id,
            kind: TimerKind::Park,
        });
        t.state.store(PARKING, SeqCst);
        switch_out(Pending::Park);
        t.park_seq.fetch_add(1, SeqCst);
        t.permit.store(false, SeqCst);
        if t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
    }

    fn green_sleep(&self, t: &Arc<Task>, ticks: u64) {
        if self.shutdown.load(SeqCst) || t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
        self.register_timer(TimerEnt {
            at: self.now().saturating_add(ticks),
            seq: t.park_seq.load(SeqCst),
            id: t.id,
            kind: TimerKind::Sleep,
        });
        t.state.store(PARKING, SeqCst);
        switch_out(Pending::Sleep);
        if t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
    }

    fn green_yield(&self, t: &Arc<Task>, how: Pending) {
        if t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
        switch_out(how);
        if t.aborted.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
    }

    // --- worker / timer threads ---------------------------------------

    /// Sleep as worker `i` until woken. Returns a task only when a
    /// period check took it from a stuck peer.
    fn idle_wait(&self, i: usize) -> Option<Arc<Task>> {
        if self.has_work() {
            return None;
        }
        let mut deep = self.register_idle(i, true);
        // Producers enqueue before popping the idle list, so this
        // re-check observes anything published before we registered.
        let taken = if self.has_work() {
            None
        } else {
            self.sleep_until_woken(i, &mut deep)
        };
        let mut idle = self.idle.lock();
        if let Some(pos) = idle.iter().rposition(|&x| x == i) {
            idle.remove(pos);
        }
        if deep {
            self.deep_sleepers.fetch_sub(1, SeqCst);
        }
        taken
    }

    /// Put worker `i` on the idle list (`push`) or find it still there,
    /// and say whether it sleeps deep: every worker is on the list.
    fn register_idle(&self, i: usize, push: bool) -> bool {
        let mut idle = self.idle.lock();
        if push {
            idle.push(i);
        }
        let deep = idle.len() == self.workers.len() && idle.contains(&i);
        if deep {
            self.deep_sleepers.fetch_add(1, SeqCst);
        }
        deep
    }

    /// Park worker `i` on its parker until a wake. A shallow sleeper
    /// wakes every [`IDLE_CHECK_PERIOD`] as well: it takes the oldest
    /// task of a peer that has dispatched fewer than two tasks since the
    /// period began, or, if every worker is idle by then, sleeps deep.
    /// It never reads a deque's length as a sign of a stuck peer: a
    /// yield re-queues its task before the worker pops the next one.
    fn sleep_until_woken(&self, i: usize, deep: &mut bool) -> Option<Arc<Task>> {
        let ws = &self.workers[i];
        // Every worker's `ticks` as the current period began.
        let mut seen = vec![0; self.workers.len()];
        loop {
            if !*deep {
                for (s, w) in seen.iter_mut().zip(&self.workers) {
                    *s = w.ticks.load(SeqCst);
                }
            }
            let mut p = ws.park.lock();
            loop {
                if *p {
                    *p = false;
                    return None;
                }
                if self.shutdown.load(SeqCst) {
                    // Post-shutdown the exit condition (live_tasks == 0)
                    // is not tied to a queue publish; poll it.
                    let _ = ws.cv.wait_for(&mut p, Duration::from_millis(1));
                    *p = false;
                    return None;
                }
                if *deep {
                    ws.cv.wait(&mut p);
                } else if ws.cv.wait_for(&mut p, IDLE_CHECK_PERIOD).timed_out() && !*p {
                    break;
                }
            }
            drop(p);
            for (v, peer) in self.workers.iter().enumerate() {
                if v == i || peer.ticks.load(SeqCst) - seen[v] >= 2 || peer.len.load(SeqCst) == 0 {
                    continue;
                }
                let mut d = peer.deque.lock();
                if let Some(t) = d.pop_front() {
                    peer.len.store(d.len(), SeqCst);
                    return Some(t);
                }
            }
            *deep = self.register_idle(i, false);
        }
    }
}

// Raw pointers in `Task`/`Stack` fields; safety is argued at each field.
unsafe impl Send for PoolInner {}
unsafe impl Sync for PoolInner {}

fn worker_main(pool: Arc<PoolInner>, index: usize) {
    let mut ctx = Box::new(WorkerCtx {
        token: pool.token,
        index,
        sched_sp: std::ptr::null_mut(),
        current: None,
        pending: Pending::None,
    });
    let ctx_ptr: *mut WorkerCtx = &mut *ctx;
    set_worker_ctx(ctx_ptr);
    loop {
        if pool.shutdown.load(SeqCst) && pool.live_tasks.load(SeqCst) == 0 {
            break;
        }
        if let Some(t) = pool.next_task(index).or_else(|| pool.idle_wait(index)) {
            pool.run_task(ctx_ptr, t);
        }
    }
    set_worker_ctx(std::ptr::null_mut());
}

fn timer_main(pool: Arc<PoolInner>) {
    loop {
        let mut due: Vec<TimerEnt> = Vec::new();
        {
            let mut timers = pool.timers.lock();
            if pool.shutdown.load(SeqCst) {
                return;
            }
            let now = pool.now();
            let mut next_at = None;
            while let Some(top) = timers.peek() {
                if top.at <= now {
                    due.push(timers.pop().unwrap());
                } else {
                    next_at = Some(top.at);
                    break;
                }
            }
            if due.is_empty() {
                match next_at {
                    Some(at) => {
                        let _ = pool
                            .timer_cv
                            .wait_for(&mut timers, Duration::from_micros(at - now));
                    }
                    None => pool.timer_cv.wait(&mut timers),
                }
                continue;
            }
        }
        for ent in due {
            pool.fire_timer(ent);
        }
    }
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

pub(crate) struct StealCore {
    inner: Arc<PoolInner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl StealCore {
    pub(crate) fn new(workers: usize) -> StealCore {
        crate::error::silence_abort_panics();
        let k = workers.max(1);
        let inner = Arc::new(PoolInner {
            token: super::alloc_core_token(),
            next_id: AtomicU64::new(1),
            epoch0: Instant::now(),
            shutdown: AtomicBool::new(false),
            procs: Mutex::new(HashMap::new()),
            injector: Mutex::new(VecDeque::new()),
            inj_len: AtomicUsize::new(0),
            workers: (0..k).map(|_| WorkerShared::new()).collect(),
            idle: Mutex::new(Vec::new()),
            deep_sleepers: AtomicUsize::new(0),
            live_tasks: AtomicUsize::new(0),
            timers: Mutex::new(BinaryHeap::new()),
            timer_cv: Condvar::new(),
            stack_pool: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(k + 1);
        for i in 0..k {
            let p = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("alps-steal-{i}"))
                    .spawn(move || worker_main(p, i))
                    .expect("failed to spawn steal worker"),
            );
        }
        let p = Arc::clone(&inner);
        handles.push(
            std::thread::Builder::new()
                .name("alps-steal-timer".to_string())
                .spawn(move || timer_main(p))
                .expect("failed to spawn timer thread"),
        );
        StealCore {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// Slot of the calling non-pool thread, registering it lazily
    /// (threaded-executor semantics).
    fn foreign_slot(&self) -> (ProcId, Arc<ForeignSlot>) {
        if let Some(id) = current_for(self.inner.token) {
            if let Some(Slot::Foreign(s)) = self.inner.procs.lock().get(&id).cloned() {
                return (id, s);
            }
        }
        let id = self.inner.alloc_id();
        let slot = Arc::new(ForeignSlot {
            name: format!("foreign-{}", id.as_u64()),
            st: Mutex::new(ForeignSt {
                permit: false,
                aborted: false,
            }),
            cv: Condvar::new(),
        });
        self.inner
            .procs
            .lock()
            .insert(id, Slot::Foreign(Arc::clone(&slot)));
        set_current(self.inner.token, id);
        (id, slot)
    }

    fn shutdown_impl(&self) {
        self.inner.shutdown.store(true, SeqCst);
        let slots: Vec<Slot> = self.inner.procs.lock().values().cloned().collect();
        for slot in slots {
            match slot {
                Slot::Green(t) => {
                    t.aborted.store(true, SeqCst);
                    t.permit.store(true, SeqCst);
                    // Requeue suspended tasks so they resume and unwind.
                    // A task caught in PARKING is requeued by its
                    // scheduler's post-switch abort re-check.
                    if t.state
                        .compare_exchange(PARKED, RUNNABLE, SeqCst, SeqCst)
                        .is_ok()
                        || t.state
                            .compare_exchange(SLEEPING, RUNNABLE, SeqCst, SeqCst)
                            .is_ok()
                    {
                        self.inner.enqueue(t);
                    }
                }
                Slot::Foreign(s) => {
                    let mut st = s.st.lock();
                    st.aborted = true;
                    st.permit = true;
                    s.cv.notify_all();
                }
            }
        }
        self.inner.wake_all_workers();
        let _g = self.inner.timers.lock();
        self.inner.timer_cv.notify_all();
    }
}

impl Drop for StealCore {
    fn drop(&mut self) {
        self.shutdown_impl();
        let handles = std::mem::take(&mut *self.handles.lock());
        let w = worker_ctx();
        let on_pool_thread = !w.is_null() && unsafe { (*w).token } == self.inner.token;
        if on_pool_thread {
            // The last Runtime clone was dropped from inside a green
            // task. Joining would deadlock — this very task keeps
            // live_tasks above zero. Detach: shutdown is signalled, the
            // workers exit once the remaining tasks unwind.
            for h in handles {
                drop(h);
            }
        } else {
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

impl ExecutorCore for StealCore {
    fn spawn(
        &self,
        _self_arc: &Arc<dyn ExecutorCore>,
        opts: Spawn,
        f: Box<dyn FnOnce() + Send>,
    ) -> ProcId {
        let id = self.inner.alloc_id();
        let task = Arc::new(Task {
            id,
            name: opts.name.clone(),
            state: AtomicU8::new(RUNNABLE),
            permit: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            park_seq: AtomicU64::new(0),
            brief: AtomicBool::new(false),
            last_readied: AtomicU64::new(0),
            sp: UnsafeCell::new(std::ptr::null_mut()),
            stack: Mutex::new(None),
            closure: Mutex::new(Some(f)),
            join: Mutex::new(JoinSt {
                done: false,
                panicked: false,
                detached: false,
                waiters: Vec::new(),
            }),
            done_cv: Condvar::new(),
        });
        self.inner
            .procs
            .lock()
            .insert(id, Slot::Green(Arc::clone(&task)));
        if self.inner.shutdown.load(SeqCst) {
            // Post-shutdown spawn: record as immediately panicked.
            task.state.store(DONE, SeqCst);
            let mut j = task.join.lock();
            j.done = true;
            j.panicked = true;
            drop(j);
            task.done_cv.notify_all();
            return id;
        }
        let stack = self
            .inner
            .stack_pool
            .lock()
            .pop()
            .unwrap_or_else(Stack::new);
        unsafe {
            *task.sp.get() = prepare_stack(&stack, Arc::as_ptr(&task));
        }
        *task.stack.lock() = Some(stack);
        self.inner.live_tasks.fetch_add(1, SeqCst);
        self.inner.enqueue(task);
        id
    }

    fn current(&self, _self_arc: &Arc<dyn ExecutorCore>) -> ProcId {
        if let Some(t) = self.inner.current_green() {
            return t.id;
        }
        self.foreign_slot().0
    }

    fn park(&self, _self_arc: &Arc<dyn ExecutorCore>) {
        if let Some(t) = self.inner.current_green() {
            self.inner.green_park(&t);
            return;
        }
        let (_, slot) = self.foreign_slot();
        let mut st = slot.st.lock();
        if st.permit {
            st.permit = false;
            return;
        }
        slot.cv.wait(&mut st);
        st.permit = false;
    }

    fn park_timeout(&self, _self_arc: &Arc<dyn ExecutorCore>, ticks: u64) {
        if let Some(t) = self.inner.current_green() {
            self.inner.green_park_timeout(&t, ticks);
            return;
        }
        let (_, slot) = self.foreign_slot();
        let mut st = slot.st.lock();
        if st.permit {
            st.permit = false;
            return;
        }
        let _ = slot.cv.wait_for(&mut st, Duration::from_micros(ticks));
        st.permit = false;
    }

    fn unpark(&self, id: ProcId) {
        self.inner.unpark_id(id);
    }

    fn yield_now(&self, _self_arc: &Arc<dyn ExecutorCore>) {
        if let Some(t) = self.inner.current_green() {
            self.inner.green_yield(&t, Pending::Yield);
            return;
        }
        std::thread::yield_now();
    }

    fn yield_briefly(&self, _self_arc: &Arc<dyn ExecutorCore>) {
        if let Some(t) = self.inner.current_green() {
            self.inner.green_yield(&t, Pending::YieldBriefly);
            return;
        }
        std::thread::yield_now();
    }

    fn sleep(&self, _self_arc: &Arc<dyn ExecutorCore>, ticks: u64) {
        if let Some(t) = self.inner.current_green() {
            self.inner.green_sleep(&t, ticks);
            return;
        }
        if self.inner.shutdown.load(SeqCst) {
            std::panic::panic_any(Aborted);
        }
        std::thread::sleep(Duration::from_micros(ticks));
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn join(&self, _self_arc: &Arc<dyn ExecutorCore>, id: ProcId) -> Result<(), RuntimeError> {
        let slot = self.inner.procs.lock().get(&id).cloned();
        let Some(slot) = slot else {
            return Ok(()); // not a process of this pool
        };
        let t = match slot {
            Slot::Green(t) => t,
            Slot::Foreign(_) => return Ok(()), // foreign threads are not joinable
        };
        if let Some(me) = self.inner.current_green() {
            loop {
                {
                    let mut j = t.join.lock();
                    if j.done {
                        break;
                    }
                    if !j.waiters.contains(&me.id) {
                        j.waiters.push(me.id);
                    }
                }
                self.inner.green_park(&me);
            }
        } else {
            let mut j = t.join.lock();
            while !j.done {
                t.done_cv.wait(&mut j);
            }
        }
        // The entry stays until the handle drops (`detach`).
        let j = t.join.lock();
        if j.panicked {
            Err(RuntimeError::ProcPanicked {
                name: t.name.clone(),
            })
        } else {
            Ok(())
        }
    }

    fn detach(&self, id: ProcId) {
        let mut procs = self.inner.procs.lock();
        let Some(Slot::Green(t)) = procs.get(&id) else {
            return;
        };
        // The join lock orders this against `finish_task`: either the
        // task is done and we prune, or it sees `detached`. A live task
        // must stay registered — a parked one is reachable from nowhere
        // else.
        let done = {
            let mut j = t.join.lock();
            j.detached = true;
            j.done
        };
        if done {
            procs.remove(&id);
        }
    }

    fn shutdown(&self) {
        self.shutdown_impl();
    }

    fn is_sim(&self) -> bool {
        false
    }

    fn proc_name(&self, id: ProcId) -> Option<String> {
        match self.inner.procs.lock().get(&id) {
            Some(Slot::Green(t)) => Some(t.name.clone()),
            Some(Slot::Foreign(s)) => Some(s.name.clone()),
            None => None,
        }
    }

    fn os_threads(&self) -> Option<u64> {
        // K workers + 1 timer thread, fixed for the pool's lifetime.
        Some(self.inner.workers.len() as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::super::eventually;
    use crate::process::{Priority, ProcId};
    use crate::{Runtime, Spawn};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn pool(k: usize) -> Runtime {
        Runtime::thread_pool(k)
    }

    #[test]
    fn spawn_and_join_returns_value() {
        let rt = pool(2);
        let h = rt.spawn(|| 7);
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    fn join_reports_panic() {
        let rt = pool(2);
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
        let rt = pool(2);
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
        let rt = pool(2);
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
    fn green_park_timeout_expires_without_unpark() {
        let rt = pool(2);
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            let t0 = std::time::Instant::now();
            rt2.park_timeout(5_000); // 5 ms, nobody unparks
            t0.elapsed()
        });
        assert!(h.join().unwrap() >= std::time::Duration::from_millis(2));
    }

    #[test]
    fn foreign_park_timeout_expires_without_unpark() {
        let rt = pool(2);
        let t0 = std::time::Instant::now();
        rt.park_timeout(5_000); // foreign (test) thread
        assert!(t0.elapsed() >= std::time::Duration::from_millis(2));
    }

    #[test]
    fn park_timeout_consumes_buffered_permit_immediately() {
        let rt = pool(2);
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
    fn stale_timer_does_not_wake_a_later_park() {
        let rt = pool(1);
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            let me = rt2.current();
            // Arm a 50 ms timeout but get unparked immediately…
            rt2.unpark(me);
            rt2.park_timeout(50_000);
            // …then park without a timeout. The stale timer must not
            // end this park; the explicit unparker does, much later.
            let t0 = std::time::Instant::now();
            rt2.park();
            t0.elapsed()
        });
        let id = h.id();
        std::thread::sleep(std::time::Duration::from_millis(120));
        rt.unpark(id);
        // The second park must have lasted until our unpark (~120 ms),
        // not ended by the 50 ms timer armed for the first park.
        assert!(h.join().unwrap() >= std::time::Duration::from_millis(100));
    }

    #[test]
    fn foreign_thread_can_park_and_be_unparked() {
        let rt = pool(2);
        let me = rt.current(); // registers the test thread
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            rt2.unpark(me);
        });
        rt.park();
        h.join().unwrap();
    }

    #[test]
    fn now_is_monotonic_and_green_sleep_advances_it() {
        let rt = pool(2);
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            let t0 = rt2.now();
            rt2.sleep(2_000);
            let t1 = rt2.now();
            (t0, t1)
        });
        let (t0, t1) = h.join().unwrap();
        assert!(t1 >= t0 + 1_000, "t0={t0} t1={t1}");
    }

    #[test]
    fn proc_name_resolves_while_alive() {
        let rt = pool(2);
        let rt2 = rt.clone();
        let h = rt.spawn_with(Spawn::new("worker"), move || {
            let me = rt2.current();
            rt2.proc_name(me)
        });
        assert_eq!(h.join().unwrap().as_deref(), Some("worker"));
    }

    #[test]
    fn green_task_can_spawn_and_join() {
        let rt = pool(2);
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            let inner = rt2.spawn(|| 5);
            inner.join().unwrap() + 1
        });
        assert_eq!(h.join().unwrap(), 6);
    }

    /// Run `lead` as a green task on a one-worker pool and return what
    /// it and the tasks it spawns noted, in order. A task spawned from a
    /// worker goes on the hot end of that worker's deque, and nothing
    /// runs until the lead yields, so the order is the queue's.
    fn run_order(lead: impl FnOnce(&Runtime, &Note) + Send + 'static) -> Vec<&'static str> {
        let rt = pool(1);
        let note: Note = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (rt2, n2) = (rt.clone(), Arc::clone(&note));
        rt.spawn(move || lead(&rt2, &n2)).join().unwrap();
        eventually("every noting task ran", || Arc::strong_count(&note) == 1);
        rt.shutdown();
        let order = note.lock().clone();
        order
    }

    type Note = Arc<parking_lot::Mutex<Vec<&'static str>>>;

    fn spawn_noting(rt: &Runtime, note: &Note, opts: Spawn, what: &'static str) {
        let note = Arc::clone(note);
        rt.spawn_with(opts, move || note.lock().push(what));
    }

    #[test]
    fn spawn_priority_does_not_reorder_the_run_queue() {
        let order = run_order(|rt, note| {
            let mgr = Spawn::new("m").prio(Priority::MANAGER).daemon(true);
            spawn_noting(rt, note, mgr, "manager");
            spawn_noting(rt, note, Spawn::new("n"), "normal");
            rt.yield_now();
        });
        assert_eq!(order, ["normal", "manager"]);
    }

    /// The hot-end task runs before a brief yielder, and so does a task
    /// it spawns, which lands at the hot end too; the rest wait. A plain
    /// yield still goes behind all of them.
    #[test]
    fn yield_briefly_requeues_behind_the_hot_end_task() {
        let order = run_order(|rt, note| {
            for what in ["a", "b"] {
                spawn_noting(rt, note, Spawn::new(what), what);
            }
            let (rt2, n2) = (rt.clone(), Arc::clone(note));
            rt.spawn(move || {
                n2.lock().push("c");
                spawn_noting(&rt2, &n2, Spawn::new("d"), "spawned by c");
            });
            rt.yield_briefly();
            note.lock().push("brief");
            rt.yield_now();
            note.lock().push("plain");
        });
        assert_eq!(order, ["c", "spawned by c", "brief", "b", "a", "plain"]);
    }

    #[test]
    fn brief_yielders_never_queue_directly_behind_each_other() {
        let order = run_order(|rt, note| {
            spawn_noting(rt, note, Spawn::new("x"), "x");
            let (rt2, n2) = (rt.clone(), Arc::clone(note));
            rt.spawn(move || {
                n2.lock().push("y");
                // The hot end holds the lead, queued by its own brief
                // yield: this one goes to the cold end, behind `x`.
                rt2.yield_briefly();
                n2.lock().push("y again");
            });
            rt.yield_briefly();
            note.lock().push("lead");
        });
        assert_eq!(order, ["y", "lead", "x", "y again"]);
    }

    #[test]
    fn many_tasks_on_few_workers() {
        // 200 interdependent tasks on 2 workers: a thread-per-process
        // design would need 200 threads; here parks free the workers.
        let rt = pool(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..200)
            .map(|_| {
                let (rt2, c) = (rt.clone(), Arc::clone(&counter));
                rt.spawn(move || {
                    let inner = rt2.spawn(|| 1usize);
                    c.fetch_add(inner.join().unwrap(), Ordering::SeqCst);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        assert_eq!(rt.os_threads(), Some(3)); // 2 workers + timer
    }

    #[test]
    fn unpark_ping_pong_across_tasks() {
        // Two tasks alternate strict turns via park/unpark 2000 times;
        // exercises the PARKING→PARKED handshake and task migration.
        let rt = pool(2);
        let ctr = Arc::new(AtomicUsize::new(0));
        let a_id = Arc::new(AtomicUsize::new(0));
        let b_id = Arc::new(AtomicUsize::new(0));
        let turns = 1000usize;
        let mk = |my_id: Arc<AtomicUsize>, peer_id: Arc<AtomicUsize>, parity: usize| {
            let (rt2, ctr2) = (rt.clone(), Arc::clone(&ctr));
            rt.spawn(move || {
                my_id.store(rt2.current().as_u64() as usize, Ordering::SeqCst);
                for k in 0..turns {
                    let my_turn = 2 * k + parity;
                    while ctr2.load(Ordering::SeqCst) != my_turn {
                        rt2.park();
                    }
                    ctr2.store(my_turn + 1, Ordering::SeqCst);
                    loop {
                        let peer = peer_id.load(Ordering::SeqCst);
                        if peer != 0 {
                            rt2.unpark(crate::process::ProcId(peer as u64));
                            break;
                        }
                        rt2.yield_now();
                    }
                }
            })
        };
        let a = mk(Arc::clone(&a_id), Arc::clone(&b_id), 0);
        let b = mk(b_id, a_id, 1);
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(ctr.load(Ordering::SeqCst), 2 * turns);
    }

    #[test]
    fn shutdown_aborts_parked_tasks() {
        let rt = pool(2);
        let parked = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..8)
            .map(|_| {
                let (rt2, p) = (rt.clone(), Arc::clone(&parked));
                rt.spawn(move || {
                    p.fetch_add(1, Ordering::SeqCst);
                    loop {
                        rt2.park(); // aborts with Aborted on shutdown
                    }
                })
            })
            .collect();
        while parked.load(Ordering::SeqCst) < 8 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        rt.shutdown();
        for h in hs {
            // Aborted unwinds count as panicked joins, like the
            // threaded executor.
            assert!(h.join().is_err());
        }
    }

    #[test]
    fn shutdown_wakes_green_sleepers() {
        let rt = pool(2);
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            rt2.sleep(60_000_000); // 60 s; shutdown must interrupt
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let t0 = std::time::Instant::now();
        rt.shutdown();
        assert!(h.join().is_err());
        assert!(t0.elapsed() < std::time::Duration::from_secs(10));
    }

    #[test]
    fn spawn_after_shutdown_is_immediately_panicked() {
        let rt = pool(1);
        rt.shutdown();
        let h = rt.spawn(|| 3);
        assert!(h.join().is_err());
    }

    #[test]
    fn dropped_handles_leave_nothing_in_the_registry() {
        let core = Arc::new(super::StealCore::new(2));
        let rt = Runtime { core: core.clone() };
        let registered = || core.inner.procs.lock().len();
        let before = registered();
        let finished = Arc::new(AtomicUsize::new(0));
        for spawned in 0..10_000 {
            // Bound the tasks in flight, and so the green stacks.
            while spawned - finished.load(Ordering::SeqCst) >= 16 {
                std::thread::yield_now();
            }
            let f = Arc::clone(&finished);
            drop(rt.spawn(move || {
                f.fetch_add(1, Ordering::SeqCst);
            }));
        }
        eventually("registry drained", || registered() == before);
        // A joined task is forgotten too, once its handle is gone; a
        // parked one stays reachable after its handle is dropped.
        let h = rt.spawn(|| 1);
        assert_eq!(registered(), before + 1);
        assert_eq!(h.join().unwrap(), 1);
        assert_eq!(registered(), before);
        let rt2 = rt.clone();
        let h = rt.spawn(move || rt2.park());
        let id = h.id();
        drop(h);
        assert_eq!(registered(), before + 1);
        rt.unpark(id);
        eventually("woken and forgotten", || registered() == before);
    }

    #[test]
    fn os_thread_count_is_bounded_by_pool_size() {
        let rt = pool(4);
        assert_eq!(rt.os_threads(), Some(5));
        assert_eq!(format!("{rt:?}"), r#"Runtime { kind: "thread_pool" }"#);
        let hs: Vec<_> = (0..64).map(|_| rt.spawn(|| ())).collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(rt.os_threads(), Some(5));
    }

    /// Index of the worker running the calling green task.
    fn worker_index() -> usize {
        let w = super::worker_ctx();
        assert!(!w.is_null(), "not on a worker");
        // SAFETY: a non-null context is the calling worker thread's own,
        // live while it runs a task.
        unsafe { (*w).index }
    }

    /// Busy-wait, with no scheduling point, until `cond` holds.
    fn spin_until(what: &str, cond: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !cond() {
            assert!(t0.elapsed() < Duration::from_secs(10), "timed out: {what}");
            std::hint::spin_loop();
        }
    }

    /// Two tasks hand a turn back and forth with `unpark` and `park`.
    /// Each woken task runs on its waker's worker: the enqueue leaves
    /// the sleeping worker asleep instead of rousing it to steal the
    /// task (a wake per enqueue keeps 88–94 % of the handoffs local).
    /// A handoff counts when the waker found its peer parked, so that
    /// the unpark queued it: a peer still running or parking when
    /// unparked keeps its worker whatever the wake rule, and once the
    /// two run on two workers that way they stay there until one parks
    /// in time. It does not count either when the woken task's turn
    /// before last began half a period or more ago. Then the host
    /// stalled a worker thread, and the sleeper's period check may
    /// rightly move the task: a check takes a task only from a worker
    /// that dispatched at most one task in a whole period, and those two
    /// turns span at least that.
    #[test]
    fn a_woken_task_runs_on_its_wakers_worker() {
        const ROUND_TRIPS: usize = 20_000;
        const NOT_QUEUED: usize = usize::MAX;
        let core = Arc::new(super::StealCore::new(2));
        let rt = Runtime { core: core.clone() };
        let turn = Arc::new(AtomicUsize::new(0));
        let waker_at = Arc::new(AtomicUsize::new(NOT_QUEUED));
        let ids: Arc<[AtomicUsize; 2]> = Arc::default();
        let [stayed, counted]: [Arc<AtomicUsize>; 2] = Default::default();
        let hs: Vec<_> = (0..2)
            .map(|me| {
                let (rt2, inner) = (rt.clone(), Arc::clone(&core.inner));
                let (turn, waker_at, ids) =
                    (Arc::clone(&turn), Arc::clone(&waker_at), Arc::clone(&ids));
                let (stayed, counted) = (Arc::clone(&stayed), Arc::clone(&counted));
                rt.spawn(move || {
                    ids[me].store(rt2.current().as_u64() as usize, Ordering::SeqCst);
                    let peer = loop {
                        match ids[1 - me].load(Ordering::SeqCst) {
                            0 => rt2.yield_now(),
                            id => break ProcId(id as u64),
                        }
                    };
                    // When this task's last two turns began.
                    let mut began: [Option<Instant>; 2] = [None, None];
                    for k in 0..ROUND_TRIPS {
                        let mine = 2 * k + me;
                        while turn.load(Ordering::SeqCst) != mine {
                            rt2.park();
                        }
                        let now = Instant::now();
                        let before_last = began[k % 2].replace(now);
                        let at = waker_at.load(Ordering::SeqCst);
                        if at != NOT_QUEUED
                            && before_last.is_none_or(|b| now - b < super::IDLE_CHECK_PERIOD / 2)
                        {
                            counted.fetch_add(1, Ordering::SeqCst);
                            if worker_index() == at {
                                stayed.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        // A parked peer stays parked until this unpark.
                        let queued = parked(&inner, peer);
                        waker_at.store(
                            if queued { worker_index() } else { NOT_QUEUED },
                            Ordering::SeqCst,
                        );
                        turn.store(mine + 1, Ordering::SeqCst);
                        rt2.unpark(peer);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let (stayed, counted) = (
            stayed.load(Ordering::SeqCst),
            counted.load(Ordering::SeqCst),
        );
        let handoffs = 2 * ROUND_TRIPS;
        assert!(
            stayed * 1000 >= counted * 999 && counted * 2 >= handoffs,
            "{stayed} of {counted} counted handoffs (of {handoffs}) ran on the waker's worker"
        );
    }

    /// Whether task `id` of `inner` is parked.
    fn parked(inner: &super::PoolInner, id: ProcId) -> bool {
        match inner.procs.lock().get(&id) {
            Some(super::Slot::Green(task)) => task.state.load(Ordering::SeqCst) == super::PARKED,
            _ => false,
        }
    }

    /// On a two-worker pool, a waker readies its partner `t` (a task it
    /// readied before) and then holds its worker for 20 ms with no
    /// scheduling point, once the other worker sleeps deep (it went idle
    /// while every worker was idle, so it sleeps with no period and the
    /// enqueue must wake it) or not (it went idle while the waker's
    /// worker ran, so it sleeps in periods and the enqueue leaves it
    /// asleep). Returns how long `t` waited and whether it ran on the
    /// other worker.
    fn readied_behind_a_burst(deep: bool) -> (Duration, bool) {
        let core = Arc::new(super::StealCore::new(2));
        let rt = Runtime { core: core.clone() };
        let inner = Arc::clone(&core.inner);
        let parks = Arc::new(AtomicUsize::new(0));
        let (rt2, p2) = (rt.clone(), Arc::clone(&parks));
        let t = rt.spawn(move || {
            for _ in 0..2 {
                p2.fetch_add(1, Ordering::SeqCst);
                rt2.park();
            }
            (Instant::now(), worker_index())
        });
        let t_id = t.id();
        let t_parked = {
            let inner = Arc::clone(&inner);
            move |n: usize| parks.load(Ordering::SeqCst) == n && parked(&inner, t_id)
        };
        eventually("`t` parked", || t_parked(1));
        let rt2 = rt.clone();
        let waker = rt.spawn(move || {
            // Warm-up: `t` becomes the task this one readied last.
            rt2.unpark(t_id);
            spin_until("`t` parked again", || t_parked(2));
            if deep {
                rt2.park(); // until both workers sleep deep
            }
            let me = worker_index();
            spin_until("the other worker asleep", || {
                inner.deep_sleepers.load(Ordering::SeqCst) == usize::from(deep)
                    && *inner.idle.lock() == [1 - me]
            });
            let t0 = Instant::now();
            rt2.unpark(t_id);
            // An OS sleep holds the worker like a computation would,
            // with no scheduling point, and leaves the core to the
            // sleeper: the bound measured is the executor's, not the
            // OS scheduler's time slice.
            std::thread::sleep(Duration::from_millis(20));
            (t0, me)
        });
        if deep {
            // Each sleeper finds every worker idle at a period's end. The
            // waker must be parked first: both workers can still count as
            // deep for a moment after its spawn woke one of them.
            eventually("the waker parked, both workers asleep deep", || {
                parked(&core.inner, waker.id())
                    && core.inner.deep_sleepers.load(Ordering::SeqCst) == 2
            });
            rt.unpark(waker.id());
        }
        let (t0, waker_at) = waker.join().unwrap();
        let (started, ran_at) = t.join().unwrap();
        (started - t0, ran_at != waker_at)
    }

    /// A task queued behind one that computes without yielding starts on
    /// the other worker within three sleep periods, whichever way that
    /// worker sleeps. The bound is the executor's, but the host can
    /// delay any one OS wake by milliseconds, so a case gets three
    /// tries; a sleeper that never checks waits the full 20 ms in each.
    #[test]
    fn a_task_readied_behind_a_burst_starts_within_three_periods() {
        let within = |(waited, elsewhere): (Duration, bool)| {
            elsewhere && waited < 3 * super::IDLE_CHECK_PERIOD
        };
        for (case, deep) in [("asleep deep", true), ("asleep while the waker ran", false)] {
            let mut tries = vec![readied_behind_a_burst(deep)];
            while !within(tries[tries.len() - 1]) && tries.len() < 3 {
                tries.push(readied_behind_a_burst(deep));
            }
            assert!(
                within(tries[tries.len() - 1]),
                "{case}: (waited, on the other worker) per try: {tries:?}"
            );
        }
    }
}
