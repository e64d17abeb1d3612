//! # alps-core — ALPS objects, managers, and hidden procedure arrays
//!
//! Reproduction of the language mechanisms of *"Synchronization and
//! Scheduling in ALPS Objects"* (ICDCS 1988) as an embedded Rust API:
//!
//! * **Objects** ([`ObjectBuilder`], [`ObjectHandle`]) — shared data plus
//!   entry procedures, called RPC-style with [`ObjectHandle::call`].
//! * **Managers** ([`ManagerCtx`]) — a high-priority process per object
//!   that intercepts entry calls and implements all synchronization and
//!   scheduling via `accept` / `start` / `await` / `finish` / `execute`,
//!   including request combining (`finish_accepted`).
//! * **Hidden procedure arrays** ([`EntryDef::array`]) — an entry exported
//!   as a single procedure but implemented as an array; each call attaches
//!   to a free element the manager can name individually.
//! * **Guarded selection** ([`Guard`], [`Selected`]) — CSP-style
//!   `select`/`loop` with acceptance conditions over received values and
//!   run-time `pri` priorities.
//! * **Hidden parameters/results** and **intercepted prefixes**
//!   ([`EntryDef::hidden_params`], [`EntryDef::intercept_params`], …).
//! * **Process pools** ([`PoolMode`]) — per-call, per-slot (1:1), or a
//!   shared pool of `M ≪ N` workers (paper §3).
//! * **Fast-path calls** ([`ObjectHandle::entry_id`],
//!   [`ObjectHandle::call_with`], [`ValVec`]/[`argv!`]) — interned entry
//!   ids plus inline argument tuples make a steady-state call of arity
//!   ≤ 4 to a non-intercepted entry allocation-free under every
//!   [`Wait`]: unbounded (`call_id`), a deadline, or a retry whose first
//!   attempt succeeds. A managed `accept` → `execute` round trip is
//!   allocation-free too, on either executor, and the manager's side of
//!   it reads no clock.
//!
//! ## Quickstart: the paper's bounded buffer (§2.4.1)
//!
//! ```
//! use alps_core::{vals, EntryDef, Guard, ObjectBuilder, Selected, Ty, Value};
//! use alps_runtime::SimRuntime;
//! use std::collections::VecDeque;
//! use std::sync::Arc;
//! use parking_lot::Mutex;
//!
//! let sim = SimRuntime::new();
//! let got = sim.run(|rt| {
//!     let buf: Arc<Mutex<VecDeque<Value>>> = Arc::new(Mutex::new(VecDeque::new()));
//!     let (b1, b2) = (Arc::clone(&buf), Arc::clone(&buf));
//!     const N: usize = 4;
//!     let buffer = ObjectBuilder::new("Buffer")
//!         .entry(
//!             EntryDef::new("Deposit").params([Ty::Int]).intercepted().body(
//!                 move |_ctx, args| {
//!                     b1.lock().push_back(args[0].clone());
//!                     Ok(vec![])
//!                 },
//!             ),
//!         )
//!         .entry(
//!             EntryDef::new("Remove").results([Ty::Int]).intercepted().body(
//!                 move |_ctx, _args| Ok(vec![b2.lock().pop_front().expect("non-empty")]),
//!             ),
//!         )
//!         .manager(move |mgr| {
//!             let mut count = 0usize;
//!             loop {
//!                 let sel = mgr.select(vec![
//!                     Guard::accept("Deposit").when(move |_| count < N),
//!                     Guard::accept("Remove").when(move |_| count > 0),
//!                 ])?;
//!                 match sel {
//!                     Selected::Accepted { guard, call } => {
//!                         let is_deposit = guard == 0;
//!                         mgr.execute(call)?;
//!                         if is_deposit { count += 1 } else { count -= 1 }
//!                     }
//!                     _ => unreachable!(),
//!                 }
//!             }
//!         })
//!         .spawn(rt)
//!         .unwrap();
//!     buffer.call("Deposit", vals![7i64]).unwrap();
//!     buffer.call("Remove", vals![]).unwrap()[0].as_int().unwrap()
//! })
//! .unwrap();
//! assert_eq!(got, 7);
//! ```

#![warn(missing_docs)]

mod cell;
mod entry;
mod error;
mod handle;
mod intake;
mod manager;
mod object;
mod pool;
mod proc_ctx;
mod restart;
mod select;
mod shard;
mod stats;
mod supervise;
mod value;

pub use entry::{EntryBody, EntryDef, Intercept};
pub use error::{AlpsError, Result};
pub use handle::{EntryId, ObjectBuilder, ObjectHandle};
pub use intake::AdmissionPolicy;
pub use manager::{AcceptedCall, ManagerCtx, ReadyEntry};
pub use object::ManagerBody;
pub use pool::PoolMode;
pub use proc_ctx::ProcCtx;
pub use select::{Guard, GuardView, Selected};
pub use shard::{hash_values, spread, ShardEntryId, ShardedBuilder, ShardedHandle, ShardedStats};
pub use stats::ObjectStats;
pub use supervise::{Backoff, RestartPolicy, RetryPolicy, Wait};
pub use value::{check_types, check_types_lazy, ChanValue, Ty, ValVec, Value, INLINE_VALS};
