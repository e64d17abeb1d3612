//! Process pools executing entry-procedure bodies.
//!
//! Paper §3 discusses three implementation strategies for the processes
//! behind a hidden procedure array `P[1..N]`:
//!
//! 1. create a process per remote call ([`PoolMode::PerCall`] — "in many
//!    operating systems dynamic process creation is expensive");
//! 2. preallocate one process per array element, 1:1
//!    ([`PoolMode::PerSlot`]);
//! 3. preallocate a pool of `M ≪ N` processes and bind a process to a call
//!    when it is *started* rather than when it arrives
//!    ([`PoolMode::Shared`]), attractive "for resources in high demand
//!    where the average queue length is significant".
//!
//! The paper suggests a compiler switch chooses among these; here it is
//! [`crate::ObjectBuilder::pool`]. Experiment E7 sweeps the choice.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use alps_runtime::metrics::Counter;
use alps_runtime::{ProcId, Runtime, Spawn};
use parking_lot::Mutex;

use crate::object::ObjectInner;
use crate::value::ValVec;

/// How entry executions are mapped onto runtime processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolMode {
    /// Spawn a fresh process per started call — the strategy paper §3
    /// sets aside because "dynamic process creation is expensive", in
    /// favour of the two preallocated modes below. What a process costs
    /// here (spawn + join of an empty one, 2-core box, best case): about
    /// 3 µs as a green task on `Runtime::thread_pool`, 14–16 µs as an OS
    /// thread on `Runtime::threaded` (DESIGN.md §11.8).
    PerCall,
    /// One preallocated worker per procedure-array slot (1:1).
    #[default]
    PerSlot,
    /// A shared pool of `M` preallocated workers serving all slots.
    Shared(usize),
}

impl fmt::Display for PoolMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolMode::PerCall => write!(f, "per-call"),
            PoolMode::PerSlot => write!(f, "per-slot"),
            PoolMode::Shared(m) => write!(f, "shared({m})"),
        }
    }
}

/// Unit of work handed to a pool worker.
///
/// `Body` carries an entry execution without boxing a closure — the
/// fields it needs are plain data, so dispatching a started call does not
/// allocate. `Task` keeps the pool usable as a generic executor (tests,
/// ad-hoc jobs).
pub(crate) enum Job {
    /// Run `entry`'s body on `slot` with `params`.
    Body {
        obj: Weak<ObjectInner>,
        entry: usize,
        slot: usize,
        params: ValVec,
    },
    /// Run an arbitrary closure.
    #[cfg_attr(not(test), allow(dead_code))]
    Task(Box<dyn FnOnce() + Send>),
}

impl Job {
    fn run(self) {
        match self {
            Job::Body {
                obj,
                entry,
                slot,
                params,
            } => {
                // A dead upgrade means the object was dropped after
                // dispatch; its calls were already failed at shutdown.
                if let Some(o) = obj.upgrade() {
                    o.run_body(entry, slot, params);
                }
            }
            Job::Task(f) => f(),
        }
    }
}

/// A FIFO of jobs and the workers parked waiting for one. `PerSlot` gives
/// each slot its own queue with one worker; `Shared(m)` has one queue
/// with `m` workers.
#[derive(Default)]
struct JobQueue {
    st: Mutex<QState>,
    closed: AtomicBool,
}

#[derive(Default)]
struct QState {
    jobs: VecDeque<Job>,
    idle: Vec<ProcId>,
}

pub(crate) struct Pool {
    rt: Runtime,
    name: String,
    mode: PoolMode,
    queues: Vec<Arc<JobQueue>>,
    spawned: Counter,
    executed: Counter,
    closed: AtomicBool,
}

impl Pool {
    /// Create the pool and eagerly spawn preallocated workers.
    /// `total_slots` is the sum of all procedure-array sizes of the object
    /// (used by [`PoolMode::PerSlot`]).
    pub(crate) fn new(rt: Runtime, name: String, mode: PoolMode, total_slots: usize) -> Pool {
        let per_slot = mode == PoolMode::PerSlot;
        let (queues, workers) = match mode {
            PoolMode::PerCall => (0, 0),
            PoolMode::PerSlot => (total_slots, total_slots),
            PoolMode::Shared(m) => (1, m.max(1)),
        };
        let pool = Pool {
            rt,
            name,
            mode,
            queues: (0..queues).map(|_| Arc::default()).collect(),
            spawned: Counter::new(),
            executed: Counter::new(),
            closed: AtomicBool::new(false),
        };
        // Slot `k`'s worker serves queue `k`; the shared workers all
        // serve queue 0.
        for i in 0..workers {
            let (q, name) = if per_slot {
                (i, format!("{}:worker[{i}]", pool.name))
            } else {
                (0, format!("{}:pool[{i}]", pool.name))
            };
            pool.spawn_worker(name, Arc::clone(&pool.queues[q]));
        }
        pool
    }

    fn spawn_worker(&self, name: String, q: Arc<JobQueue>) {
        self.spawned.incr();
        let rt = self.rt.clone();
        let executed = self.executed.clone();
        let opts = Spawn::new(name).daemon(true);
        self.rt.spawn_with(opts, move || loop {
            let job = {
                let mut st = q.st.lock();
                match st.jobs.pop_front() {
                    Some(j) => Some(j),
                    None => {
                        if q.closed.load(Ordering::SeqCst) {
                            return;
                        }
                        let me = rt.current();
                        if !st.idle.contains(&me) {
                            st.idle.push(me);
                        }
                        None
                    }
                }
            };
            match job {
                Some(j) => {
                    executed.incr();
                    j.run();
                }
                None => rt.park(),
            }
        });
    }

    /// Hand a started call's execution to a worker. `slot_key` identifies
    /// the global slot (only [`PoolMode::PerSlot`] uses it).
    pub(crate) fn dispatch(&self, slot_key: usize, job: Job) {
        if self.closed.load(Ordering::SeqCst) {
            // Object already shut down; the call was completed with an
            // error by the object, drop the job.
            return;
        }
        let per_slot = match self.mode {
            PoolMode::PerCall => {
                self.spawned.incr();
                self.executed.incr();
                let opts = Spawn::new(format!("{}:call", self.name)).daemon(true);
                self.rt.spawn_with(opts, move || job.run());
                return;
            }
            PoolMode::PerSlot => true,
            PoolMode::Shared(_) => false,
        };
        let q = &self.queues[if per_slot { slot_key } else { 0 }];
        let waiter = {
            let mut st = q.st.lock();
            debug_assert!(!per_slot || st.jobs.is_empty(), "slot worker busy twice");
            st.jobs.push_back(job);
            st.idle.pop()
        };
        if let Some(w) = waiter {
            self.rt.unpark(w);
        }
    }

    /// Stop all workers; pending jobs are discarded.
    pub(crate) fn shutdown(&self) {
        self.closed.store(true, Ordering::SeqCst);
        for q in &self.queues {
            q.closed.store(true, Ordering::SeqCst);
            let idle = std::mem::take(&mut q.st.lock().idle);
            for w in idle {
                self.rt.unpark(w);
            }
        }
    }

    /// Number of runtime processes this pool has created (experiment E7's
    /// cost axis).
    pub(crate) fn procs_spawned(&self) -> u64 {
        self.spawned.get()
    }

    /// Number of jobs executed.
    pub(crate) fn jobs_executed(&self) -> u64 {
        self.executed.get()
    }
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("name", &self.name)
            .field("mode", &self.mode)
            .field("spawned", &self.spawned.get())
            .field("executed", &self.executed.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alps_runtime::SimRuntime;
    use std::sync::atomic::AtomicUsize;

    fn run_jobs(mode: PoolMode, slots: usize, jobs: usize) -> (u64, u64) {
        let sim = SimRuntime::new();
        sim.run(move |rt| {
            let pool = Pool::new(rt.clone(), "t".into(), mode, slots);
            let done = Arc::new(AtomicUsize::new(0));
            // Dispatch in waves of `slots`, mirroring the object layer's
            // guarantee that a slot is restarted only after its previous
            // job completed.
            let mut issued = 0;
            while issued < jobs {
                let wave = slots.min(jobs - issued);
                for k in 0..wave {
                    let done = Arc::clone(&done);
                    pool.dispatch(
                        k,
                        Job::Task(Box::new(move || {
                            done.fetch_add(1, Ordering::SeqCst);
                        })),
                    );
                }
                issued += wave;
                while done.load(Ordering::SeqCst) < issued {
                    rt.yield_now();
                }
            }
            pool.shutdown();
            (pool.procs_spawned(), pool.jobs_executed())
        })
        .unwrap()
    }

    #[test]
    fn per_slot_runs_jobs_with_one_proc_per_slot() {
        let (spawned, executed) = run_jobs(PoolMode::PerSlot, 4, 8);
        assert_eq!(spawned, 4);
        assert_eq!(executed, 8);
    }

    #[test]
    fn shared_pool_bounds_processes() {
        let (spawned, executed) = run_jobs(PoolMode::Shared(2), 16, 10);
        assert_eq!(spawned, 2);
        assert_eq!(executed, 10);
    }

    #[test]
    fn per_call_spawns_per_job() {
        let (spawned, executed) = run_jobs(PoolMode::PerCall, 4, 5);
        assert_eq!(spawned, 5);
        assert_eq!(executed, 5);
    }

    #[test]
    fn mode_display() {
        assert_eq!(PoolMode::PerCall.to_string(), "per-call");
        assert_eq!(PoolMode::PerSlot.to_string(), "per-slot");
        assert_eq!(PoolMode::Shared(3).to_string(), "shared(3)");
    }

    #[test]
    fn dispatch_after_shutdown_is_dropped() {
        for mode in [PoolMode::PerCall, PoolMode::PerSlot, PoolMode::Shared(1)] {
            let sim = SimRuntime::new();
            sim.run(move |rt| {
                let pool = Pool::new(rt.clone(), "t".into(), mode, 1);
                pool.shutdown();
                pool.dispatch(0, Job::Task(Box::new(|| panic!("must not run"))));
                rt.yield_now();
                assert_eq!(pool.jobs_executed(), 0, "{mode}");
            })
            .unwrap();
        }
    }
}
