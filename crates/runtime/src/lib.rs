//! # alps-runtime — the ALPS kernel substrate
//!
//! Runtime support for the ALPS reproduction ("Synchronization and
//! Scheduling in ALPS Objects", ICDCS 1988): lightweight processes with
//! priorities, asynchronous typed channels, parallel (`par`) combinators,
//! an epoch [`Notifier`] for building `select`, and three interchangeable
//! executors:
//!
//! * [`Runtime::threaded`] — one OS thread per process, named after it;
//!   real parallelism;
//! * [`Runtime::thread_pool`] — processes as green tasks on a fixed set
//!   of work-stealing OS workers (x86_64);
//! * [`SimRuntime`] — deterministic cooperative simulation with strict
//!   priorities, virtual time, reproducible schedules, and deadlock
//!   detection.
//!
//! The paper's kernel ran on a 16-node transputer network and assumed
//! Mach-style lightweight threads; this crate is the documented
//! substitution (see the repository `DESIGN.md`, §3).
//!
//! ## Example
//!
//! ```
//! use alps_runtime::{Chan, Priority, Runtime, SimRuntime, Spawn};
//!
//! let sim = SimRuntime::new();
//! let total = sim
//!     .run(|rt| {
//!         let c: Chan<u64> = Chan::unbounded("work");
//!         let c2 = c.clone();
//!         let rt2 = rt.clone();
//!         rt.spawn_with(Spawn::new("producer"), move || {
//!             for i in 1..=10 {
//!                 c2.send(&rt2, i).unwrap();
//!             }
//!         });
//!         (0..10).map(|_| c.recv(rt).unwrap()).sum::<u64>()
//!     })
//!     .unwrap();
//! assert_eq!(total, 55);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chan;
mod error;
mod executor;
pub mod explore;
mod fault;
pub mod metrics;
mod notifier;
mod par;
mod process;
pub mod tuning;

pub use chan::{Chan, IntakeRing};
pub use error::{Aborted, RuntimeError};
pub use executor::{ProcHandle, Runtime, SchedPolicy, SimProbe, SimRuntime, TICKS_PER_MS};
pub use explore::{CommitPoint, TraceSpec};
pub use fault::{FaultAction, FaultPlan};
pub use notifier::Notifier;
pub use par::par;
pub use process::{Priority, ProcId, Spawn};

#[cfg(test)]
mod send_sync_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<Runtime>();
        assert_ss::<Chan<u64>>();
        assert_ss::<Notifier>();
        assert_ss::<RuntimeError>();
        assert_ss::<ProcId>();
        assert_ss::<Priority>();
        assert_ss::<Spawn>();
    }
}
