//! # alps-sync — the synchronization abstractions the ALPS manager generalizes
//!
//! The paper (§1) positions the object/manager facility as "a
//! generalization of the well-known synchronization abstractions monitor
//! \[1,2\], serializer \[3\] and path expressions \[4,5\]", and explicitly
//! avoids semaphores and conditional critical regions for intra-object
//! scheduling. This crate implements all of them from scratch — on the
//! same runtime primitives as the ALPS objects, so they run
//! deterministically under [`alps_runtime::SimRuntime`] — to serve as the
//! baselines in experiments E1, E2 and E6:
//!
//! * [`Semaphore`] — counting semaphore, FIFO wakeups.
//! * [`Monitor`] / [`Cond`] — monitor with Mesa-style condition queues.
//! * [`Serializer`] / [`Queue`] / [`Crowd`] — Hewitt–Atkinson serializer.
//! * [`PathController`] / [`PathExpr`] — compiled Campbell–Habermann path
//!   expressions with the classic semaphore translation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod monitor;
mod path;
mod semaphore;
mod serializer;

pub use monitor::{Cond, Monitor, MonitorGuard};
pub use path::{ParsePathError, PathController, PathError, PathExpr};
pub use semaphore::Semaphore;
pub use serializer::{Crowd, Queue, SerView, Serializer};
