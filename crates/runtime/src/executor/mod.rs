//! Executors: the threaded runtimes and the deterministic simulation runtime.
//!
//! The paper assumes objects live in a single address space with light
//! weight processes and a high-priority manager (paper §3, citing Mach
//! tasks/threads). We provide three interchangeable executors behind the
//! [`Runtime`] handle:
//!
//! * [`Runtime::threaded`] — one OS thread per process, named after it;
//!   real parallelism; priorities are advisory (the OS schedules).
//! * [`Runtime::thread_pool`] — the same contract with processes as green
//!   tasks on a fixed set of OS workers (x86_64). A spawn priority does
//!   not reorder its run queues; a process that must come back quickly
//!   (the manager awaiting the bodies it started) says so at each yield
//!   with [`Runtime::yield_briefly`].
//! * [`SimRuntime`] — deterministic cooperative simulation: exactly one
//!   process runs at a time, scheduling points are explicit
//!   (`park`/`unpark`/`yield_now`/`sleep`), priorities are honoured
//!   strictly (smallest value first), time is virtual, and **deadlock is
//!   detected** (all live processes parked with no pending timer).

mod sim;
#[cfg(target_arch = "x86_64")]
mod steal;
mod thread;

pub use sim::{SchedPolicy, SimProbe, SimRuntime};

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::RuntimeError;
use crate::fault::FaultAction;
use crate::process::{ProcId, Spawn};

/// Number of virtual ticks per simulated millisecond. One tick is one
/// microsecond: the threaded executor maps `sleep(t)` to a real sleep of
/// `t` microseconds, the simulation executor advances its virtual clock.
pub const TICKS_PER_MS: u64 = 1_000;

pub(crate) trait ExecutorCore: Send + Sync {
    fn spawn(
        &self,
        self_arc: &Arc<dyn ExecutorCore>,
        opts: Spawn,
        f: Box<dyn FnOnce() + Send>,
    ) -> ProcId;
    fn current(&self, self_arc: &Arc<dyn ExecutorCore>) -> ProcId;
    fn park(&self, self_arc: &Arc<dyn ExecutorCore>);
    fn park_timeout(&self, self_arc: &Arc<dyn ExecutorCore>, ticks: u64);
    fn unpark(&self, id: ProcId);
    fn yield_now(&self, self_arc: &Arc<dyn ExecutorCore>);
    /// [`Runtime::yield_briefly`]; a plain yield unless the executor
    /// can place the yielder better.
    fn yield_briefly(&self, self_arc: &Arc<dyn ExecutorCore>) {
        self.yield_now(self_arc);
    }
    fn sleep(&self, self_arc: &Arc<dyn ExecutorCore>, ticks: u64);
    fn now(&self) -> u64;
    fn join(&self, self_arc: &Arc<dyn ExecutorCore>, id: ProcId) -> Result<(), RuntimeError>;
    /// The process's [`ProcHandle`] is gone, so nobody can join it: the
    /// executor may forget the process once it has exited (at once if it
    /// already has). The default keeps it — the simulator wants every
    /// process for its deadlock report.
    fn detach(&self, id: ProcId) {
        let _ = id;
    }
    fn shutdown(&self);
    fn is_sim(&self) -> bool;
    fn proc_name(&self, id: ProcId) -> Option<String>;
    /// Consult the installed fault plan (simulation only; the threaded
    /// executor never has one) at a named protocol step.
    fn fault(&self, step: &str) -> Option<FaultAction> {
        let _ = step;
        None
    }
    /// Commit-point annotation (see [`crate::explore::CommitPoint`]):
    /// a no-op everywhere except the simulation executor, where the
    /// scheduling strategy may preempt the caller with a bounded virtual
    /// delay and the hit is folded into the coverage counters.
    fn sim_point(&self, self_arc: &Arc<dyn ExecutorCore>, cp: crate::explore::CommitPoint) {
        let _ = (self_arc, cp);
    }
    /// OS threads this executor occupies, when that number is *bounded*
    /// regardless of how many processes are spawned (the work-stealing
    /// pool: K workers + 1 timer). `None` for thread-per-process and
    /// simulation executors, where the question is moot or unbounded.
    fn os_threads(&self) -> Option<u64> {
        None
    }
    /// Draw a pseudo-random 64-bit value. The simulation executor draws
    /// from its seeded scheduler stream (deterministic per seed); the
    /// threaded executor uses a process-wide splitmix64 counter, which is
    /// well-distributed but not reproducible across runs.
    fn rand_u64(&self) -> u64 {
        // splitmix64 over a global Weyl sequence: each call advances the
        // counter by the golden-gamma increment and scrambles it.
        static RAND_CTR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let mut z = RAND_CTR
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Process-unique executor instance tokens. The thread-local [`CURRENT`]
/// registry keys registrations by token, **not** by executor address: heap
/// addresses are reused after a runtime is dropped, and a stale
/// registration that matched a new runtime at the same address could hand
/// a foreign thread the identity of one of the new runtime's spawned
/// processes — two threads sharing one park slot silently steal each
/// other's unpark permits (lost wakeups).
static NEXT_CORE_TOKEN: AtomicUsize = AtomicUsize::new(1);

pub(crate) fn alloc_core_token() -> usize {
    NEXT_CORE_TOKEN.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// Which process the current OS thread is, per executor instance
    /// (keyed by the executor's unique token). A thread can in principle
    /// touch several runtimes (e.g. a test driving two threaded runtimes).
    pub(crate) static CURRENT: RefCell<Vec<(usize, ProcId)>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn current_for(core_token: usize) -> Option<ProcId> {
    CURRENT.with(|c| {
        c.borrow()
            .iter()
            .rev()
            .find(|(t, _)| *t == core_token)
            .map(|(_, id)| *id)
    })
}

pub(crate) fn set_current(core_token: usize, id: ProcId) {
    CURRENT.with(|c| c.borrow_mut().push((core_token, id)));
}

pub(crate) fn clear_current(core_token: usize, id: ProcId) {
    CURRENT.with(|c| {
        let mut v = c.borrow_mut();
        if let Some(pos) = v.iter().rposition(|(t, p)| *t == core_token && *p == id) {
            v.remove(pos);
        }
    });
}

/// Test helper: poll `cond` for up to 10 s.
#[cfg(test)]
pub(crate) fn eventually(what: &str, cond: impl Fn() -> bool) {
    let t0 = std::time::Instant::now();
    while !cond() {
        assert!(t0.elapsed().as_secs() < 10, "timed out: {what}");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// Handle to a runtime. Cloning is cheap (an `Arc`); all clones refer to
/// the same executor.
///
/// # Examples
///
/// ```
/// use alps_runtime::{Runtime, Spawn};
///
/// let rt = Runtime::threaded();
/// let h = rt.spawn_with(Spawn::new("greeter"), || 2 + 2);
/// assert_eq!(h.join().unwrap(), 4);
/// rt.shutdown();
/// ```
#[derive(Clone)]
pub struct Runtime {
    pub(crate) core: Arc<dyn ExecutorCore>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field(
                "kind",
                &if self.is_sim() {
                    "sim"
                } else if self.os_threads().is_some() {
                    "thread_pool"
                } else {
                    "threaded"
                },
            )
            .finish()
    }
}

impl Runtime {
    /// Create a threaded runtime: every process has an OS thread of its
    /// own, named `"{name}#{id}"` after it, created by `spawn` and gone
    /// when the process returns.
    pub fn threaded() -> Runtime {
        Runtime {
            core: thread::ThreadCore::new(),
        }
    }

    /// Create a work-stealing shared runtime: spawned processes are
    /// stackful green tasks multiplexed onto `workers` long-lived OS
    /// workers (plus one timer thread), with per-worker LIFO deques, a
    /// global injector, and steal-half batching. A woken process that
    /// its waker also woke the time before (a caller and its manager
    /// handing a call back and forth) stays on the waker's worker: a
    /// sleeping worker is roused only for surplus work, and one that
    /// went idle while a peer ran checks every millisecond for a peer
    /// stuck behind one long task and takes its oldest queued process.
    /// The park/unpark/`park_timeout` contract is identical to
    /// [`Runtime::threaded`]; the OS-thread count stays fixed no matter
    /// how many processes are spawned (see [`Runtime::os_threads`]).
    ///
    /// x86_64 only (hand-written context switch); other targets fall
    /// back to the threaded executor.
    #[cfg(target_arch = "x86_64")]
    pub fn thread_pool(workers: usize) -> Runtime {
        Runtime {
            core: Arc::new(steal::StealCore::new(workers)),
        }
    }

    /// Fallback for non-x86_64 targets: a plain threaded runtime.
    #[cfg(not(target_arch = "x86_64"))]
    pub fn thread_pool(workers: usize) -> Runtime {
        let _ = workers;
        Runtime::threaded()
    }

    /// Spawn a process with default options (name `"proc"`, normal
    /// priority, non-daemon). Returns a handle whose
    /// [`join`](ProcHandle::join) yields the closure's result.
    pub fn spawn<R, F>(&self, f: F) -> ProcHandle<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        self.spawn_with(Spawn::default(), f)
    }

    /// Spawn a process with explicit [`Spawn`] options.
    pub fn spawn_with<R, F>(&self, opts: Spawn, f: F) -> ProcHandle<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let result: Arc<parking_lot::Mutex<Option<R>>> = Arc::new(parking_lot::Mutex::new(None));
        let slot = Arc::clone(&result);
        let id = self.core.spawn(
            &self.core,
            opts,
            Box::new(move || {
                let r = f();
                *slot.lock() = Some(r);
            }),
        );
        ProcHandle {
            rt: self.clone(),
            id,
            result,
        }
    }

    /// Identity of the calling process.
    ///
    /// # Panics
    ///
    /// In a simulation runtime, panics when called from a thread that is
    /// not a simulated process (foreign threads would break determinism).
    /// The threaded runtime lazily registers foreign threads instead.
    pub fn current(&self) -> ProcId {
        self.core.current(&self.core)
    }

    /// Block the calling process until some other process calls
    /// [`unpark`](Runtime::unpark) for it. Like [`std::thread::park`], a
    /// token (permit) is buffered: an `unpark` that precedes the `park`
    /// makes the `park` return immediately. Spurious returns are possible;
    /// always re-check the waited-for condition in a loop.
    pub fn park(&self) {
        self.core.park(&self.core);
    }

    /// Like [`park`](Runtime::park), but return after at most `ticks`
    /// virtual microseconds even if no unpark arrives. There is no
    /// timed-out indication — exactly as with `park`, callers must
    /// re-check their condition (and their own deadline) in a loop.
    /// `park_timeout(0)` is a scheduling point that returns immediately
    /// unless a permit is buffered.
    pub fn park_timeout(&self, ticks: u64) {
        self.core.park_timeout(&self.core, ticks);
    }

    /// Make a pending or future [`park`](Runtime::park) of `id` return.
    /// Unknown or exited ids are ignored.
    pub fn unpark(&self, id: ProcId) {
        self.core.unpark(id);
    }

    /// Yield the CPU. In the simulation executor this is a scheduling
    /// point: the highest-priority runnable process (possibly the caller)
    /// runs next. In the threaded executor it is [`std::thread::yield_now`].
    pub fn yield_now(&self) {
        self.core.yield_now(&self.core);
    }

    /// Yield the CPU for as short a turn as the executor can arrange: the
    /// scheduling hint of a process that others are about to hand work
    /// to, such as a manager awaiting the bodies it started (the paper's
    /// high-priority manager, §3). On [`Runtime::thread_pool`] the caller
    /// is re-queued just behind the task at the hot end of its worker's
    /// deque, so that task runs before it, and so does whatever that task
    /// spawns or wakes on the same worker (it lands at the hot end too),
    /// where [`yield_now`](Runtime::yield_now) lets every queued task run
    /// first. It never lands directly behind another task that yielded
    /// this way (it goes to the cold end instead), so two such processes
    /// cannot keep a worker between them. Elsewhere it is `yield_now`.
    pub fn yield_briefly(&self) {
        self.core.yield_briefly(&self.core);
    }

    /// Sleep for `ticks` virtual microseconds (simulation: advances the
    /// virtual clock without wall-clock delay; threaded: real sleep).
    /// `sleep(0)` returns immediately without a scheduling point.
    pub fn sleep(&self, ticks: u64) {
        if ticks == 0 {
            return;
        }
        self.core.sleep(&self.core, ticks);
    }

    /// Current time in ticks (virtual in simulation, wall-clock
    /// microseconds since runtime creation otherwise).
    pub fn now(&self) -> u64 {
        self.core.now()
    }

    /// Whether this is a deterministic simulation runtime.
    pub fn is_sim(&self) -> bool {
        self.core.is_sim()
    }

    /// OS threads this runtime occupies, when that number is bounded
    /// independently of the number of spawned processes (the
    /// work-stealing pool reports `Some(workers + 1)`); `None` for the
    /// thread-per-process and simulation executors.
    pub fn os_threads(&self) -> Option<u64> {
        self.core.os_threads()
    }

    /// Fault-injection hook for instrumented protocol steps (see
    /// [`FaultPlan`](crate::FaultPlan)). Counts one occurrence of `step`
    /// against the installed plan. A matching [`FaultAction::Delay`] is
    /// applied here (virtual sleep); [`FaultAction::Panic`] panics with
    /// payload `"injected fault: <step>"`. Returns `true` iff the site
    /// should *drop* the operation ([`FaultAction::Drop`]). Without an
    /// installed plan this is a cheap constant `false`.
    pub fn fault_point(&self, step: &str) -> bool {
        match self.core.fault(step) {
            None => false,
            Some(FaultAction::Delay(ticks)) => {
                self.sleep(ticks);
                false
            }
            Some(FaultAction::Panic) => panic!("injected fault: {step}"),
            Some(FaultAction::Drop) => true,
        }
    }

    /// Annotate a protocol **commit point** (see
    /// [`CommitPoint`](crate::explore::CommitPoint)) — one of the places
    /// the call protocol commits a racy decision. A no-op on the real
    /// executors; on a [`SimRuntime`] the scheduling strategy may
    /// preempt the calling process here with a bounded virtual delay,
    /// and the hit is recorded in the schedule-coverage counters.
    ///
    /// Call sites must hold **no locks**: on the sim executor this can
    /// suspend the calling process for virtual time.
    #[inline]
    pub fn sim_point(&self, cp: crate::explore::CommitPoint) {
        self.core.sim_point(&self.core, cp);
    }

    /// Draw a pseudo-random 64-bit value from the runtime's RNG. On a
    /// [`SimRuntime`] the stream is the scheduler's seeded xorshift64*, so
    /// every draw — e.g. retry-backoff jitter — is deterministic per seed
    /// and a seeded replay reproduces it bit-for-bit. On the threaded
    /// runtime the values are well-distributed but not reproducible.
    pub fn rand_u64(&self) -> u64 {
        self.core.rand_u64()
    }

    /// Debug name of a live process, if known.
    pub fn proc_name(&self, id: ProcId) -> Option<String> {
        self.core.proc_name(id)
    }

    /// Abort all processes: parked processes wake and unwind with
    /// [`Aborted`](crate::Aborted). Blocking operations after shutdown
    /// unwind immediately. Used as a backstop; orderly teardown (e.g.
    /// closing an ALPS object) should not rely on it.
    pub fn shutdown(&self) {
        self.core.shutdown();
    }
}

/// Handle to a spawned process; join to retrieve the closure's result.
/// Dropping the handle detaches the process: it keeps running, and the
/// runtime forgets it when it exits.
#[derive(Debug)]
pub struct ProcHandle<R> {
    rt: Runtime,
    id: ProcId,
    result: Arc<parking_lot::Mutex<Option<R>>>,
}

impl<R: Send + 'static> ProcHandle<R> {
    /// The process id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Wait for the process to finish and return its result.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ProcPanicked`] if the process panicked (including
    /// shutdown aborts).
    pub fn join(self) -> Result<R, RuntimeError> {
        self.rt.core.join(&self.rt.core, self.id)?;
        let r = self.result.lock().take();
        r.ok_or(RuntimeError::ProcPanicked {
            name: self
                .rt
                .proc_name(self.id)
                .unwrap_or_else(|| "unknown".to_string()),
        })
    }
}

impl<R> Drop for ProcHandle<R> {
    fn drop(&mut self) {
        self.rt.core.detach(self.id);
    }
}
