//! ALPS objects: the object's shared state, the body-run path, and
//! shutdown.
//!
//! Each state machine of the call protocol lives in its own module, which
//! alone writes its part of [`ObjectInner`] (DESIGN.md §7): the call cell
//! and the hidden procedure arrays in [`crate::cell`], the intake ring in
//! [`crate::intake`], supervision in [`crate::restart`], and the builder,
//! the handle and the caller's side of a call in [`crate::handle`].
//!
//! The hot path's four ideas — interned entry ids, inline implicit
//! starts, call-cell recycling, and per-entry locks with lock-free `#P`
//! counts — are set out in DESIGN.md §7, "The fast path".

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use alps_runtime::{Notifier, Runtime};

use crate::cell::{CallCell, Dispatch, Slot, SlotTable};
use crate::entry::EntryDef;
use crate::error::{AlpsError, Result};
use crate::intake::Intake;
use crate::manager::ManagerCtx;
use crate::pool::{Job, Pool, PoolMode};
use crate::proc_ctx::ProcCtx;
use crate::restart::Supervisor;
use crate::stats::ObjectStats;
use crate::value::{check_types_lazy, Ty, ValVec};

/// The manager process body. It runs once, typically an endless
/// `loop { mgr.select(...)? ... }`; returning `Ok` ends the manager (the
/// object then no longer accepts intercepted calls), and
/// [`AlpsError::ObjectClosed`] is the normal exit path at shutdown.
pub type ManagerBody = Box<dyn FnMut(&mut ManagerCtx) -> Result<()> + Send + 'static>;

pub(crate) struct ObjectInner {
    // The definition, fixed at spawn.
    pub(crate) name: String,
    pub(crate) rt: Runtime,
    pub(crate) entries: Vec<EntryDef>,
    by_name: HashMap<String, usize>,
    /// Each entry's first slot in the pool's global slot numbering.
    slot_base: Vec<usize>,
    /// `EntryDef::full_results()` precomputed per entry so the per-call
    /// result type check does not allocate.
    pub(crate) full_results: Vec<Vec<Ty>>,
    // Shared services.
    pub(crate) notifier: Notifier,
    pub(crate) stats: ObjectStats,
    pub(crate) pool: Pool,
    closed: AtomicBool,
    // One state machine each; their fields are private to their module.
    pub(crate) slots: SlotTable,
    pub(crate) intake: Intake,
    pub(crate) supervisor: Supervisor,
}

impl ObjectInner {
    /// Assemble a validated definition; starts the pool's workers.
    pub(crate) fn new(
        rt: &Runtime,
        name: String,
        entries: Vec<EntryDef>,
        by_name: HashMap<String, usize>,
        pool: PoolMode,
        intake: Intake,
        supervisor: Supervisor,
    ) -> ObjectInner {
        let mut slot_base = Vec::with_capacity(entries.len());
        let mut total = 0usize;
        for e in &entries {
            slot_base.push(total);
            total += e.array;
        }
        ObjectInner {
            slots: SlotTable::new(entries.iter().map(|e| e.array), total),
            full_results: entries.iter().map(|e| e.full_results()).collect(),
            pool: Pool::new(rt.clone(), name.clone(), pool, total),
            rt: rt.clone(),
            name,
            entries,
            by_name,
            slot_base,
            notifier: Notifier::new(),
            stats: ObjectStats::new(),
            closed: AtomicBool::new(false),
            intake,
            supervisor,
        }
    }

    pub(crate) fn entry_idx(&self, name: &str) -> Result<usize> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| AlpsError::UnknownEntry {
                object: self.name.clone(),
                entry: name.to_string(),
            })
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    pub(crate) fn closed_err(&self) -> AlpsError {
        AlpsError::ObjectClosed {
            object: self.name.clone(),
        }
    }

    /// `#P`: attached-but-unaccepted plus queued calls, plus calls still
    /// in the intake ring (committed but not yet drained) — paper §2.5.1.
    /// Reads atomic counts — no lock.
    pub(crate) fn pending(&self, entry: usize) -> usize {
        self.slots.pending(entry) + self.intake.in_ring(entry)
    }

    /// Hand a started slot's execution to the pool, if a slot transition
    /// started one; called after the entry lock is released.
    pub(crate) fn dispatch_body(self: &Arc<Self>, entry: usize, dispatch: Dispatch) {
        let Some((slot, params)) = dispatch else {
            return;
        };
        let key = self.slot_base[entry] + slot;
        self.pool.dispatch(
            key,
            Job::Body {
                obj: Arc::downgrade(self),
                entry,
                slot,
                params,
            },
        );
    }

    /// Execute the body of `entry` in the current process and report the
    /// outcome to the state machine.
    pub(crate) fn run_body(self: &Arc<Self>, entry: usize, slot: usize, params: ValVec) {
        let outcome = self.exec_checked_body(entry, slot, params);
        self.body_done(entry, slot, outcome);
    }

    /// Run the body under `catch_unwind` and type-check its results.
    pub(crate) fn exec_checked_body(
        self: &Arc<Self>,
        entry: usize,
        slot: usize,
        params: ValVec,
    ) -> std::result::Result<ValVec, String> {
        let def = &self.entries[entry];
        let body = def
            .body
            .as_ref()
            .expect("validated at build: every entry has a body");
        let mut ctx = ProcCtx::new(Arc::clone(self), entry, slot);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Inside the unwind boundary so an injected `Panic` at the
            // `"body"` step is indistinguishable from a real body panic.
            if self.rt.fault_point("body") {
                return Err(AlpsError::Custom("injected drop: body".into()));
            }
            body(&mut ctx, params)
        }));
        match outcome {
            Ok(Ok(results)) => {
                match check_types_lazy(&self.full_results[entry], &results, || {
                    format!("results of {}.{}", self.name, def.name)
                }) {
                    Ok(()) => Ok(results),
                    Err(e) => Err(e.to_string()),
                }
            }
            Ok(Err(e)) => Err(e.to_string()),
            Err(payload) => {
                self.handle_body_panic();
                Err(panic_message(payload.as_ref()))
            }
        }
    }

    /// What the caller of a failed body receives, the failure counted.
    pub(crate) fn body_failed(&self, entry: usize, message: String) -> AlpsError {
        self.stats.on_body_failure();
        AlpsError::BodyFailed {
            entry: self.entries[entry].name.clone(),
            message,
        }
    }

    /// Record a body's completion: intercepted entries become `Ready` for
    /// the manager; implicit entries answer the caller directly.
    fn body_done(
        self: &Arc<Self>,
        entry: usize,
        slot: usize,
        outcome: std::result::Result<ValVec, String>,
    ) {
        let mut es = self.slots.lock(entry);
        let dispatch = match es.replace(slot, Slot::Free) {
            Slot::Started {
                call,
                by_start: true,
            } => {
                if outcome.is_err() {
                    self.stats.on_body_failure();
                }
                es.replace(slot, Slot::Ready { call, outcome });
                drop(es);
                // Outside the entry lock: the notifier takes its own lock
                // only when someone is parked.
                self.notifier.notify(&self.rt);
                return;
            }
            Slot::Started { call, .. } => {
                let reply = outcome.map_err(|message| self.body_failed(entry, message));
                self.complete(&call, reply);
                self.free_slot_and_pull(&mut es, entry, slot)
            }
            // A restart swept this call mid-body: the caller was already
            // answered, so the outcome is discarded and the slot simply
            // frees up for the next queued call.
            Slot::Abandoned => self.free_slot_and_pull(&mut es, entry, slot),
            // Object likely shut down underneath the body.
            other => {
                es.replace(slot, other);
                return;
            }
        };
        drop(es);
        self.dispatch_body(entry, dispatch);
    }

    /// Inline implicit execution: the caller claimed `slot`
    /// (`Slot::InlineBusy`) and runs the body itself.
    pub(crate) fn run_inline(
        self: &Arc<Self>,
        entry: usize,
        slot: usize,
        args: ValVec,
        t_call: u64,
    ) -> Result<ValVec> {
        self.stats.on_implicit_start();
        let outcome = self.exec_checked_body(entry, slot, args);
        let dispatch = {
            let mut es = self.slots.lock(entry);
            match es.slots()[slot] {
                Slot::InlineBusy => self.free_slot_and_pull(&mut es, entry, slot),
                // Shutdown swept the slot while the body ran; the call
                // fails like any other in-flight call at shutdown.
                _ => return Err(self.closed_err()),
            }
        };
        self.dispatch_body(entry, dispatch);
        let results = outcome.map_err(|message| self.body_failed(entry, message))?;
        // As in `complete`: the latency clock stops once the reply is in
        // hand.
        self.stats.on_complete(self.rt.now().saturating_sub(t_call));
        Ok(results)
    }

    /// Shut the object down: fail all in-flight and queued calls, stop the
    /// pool, wake the manager (whose next primitive returns
    /// [`AlpsError::ObjectClosed`]).
    pub(crate) fn shutdown(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        // Fail undrained ring residents first. A producer whose publish
        // this sweep misses (still in its store buffer) sees `closed`
        // after its own SeqCst fence and sweeps its item itself — see
        // `call_protocol`. The ring count is decremented per popped item,
        // never zeroed, precisely because such in-flight producers still
        // own their increment.
        self.fail_intake(|| self.closed_err());
        let mut victims: Vec<Arc<CallCell>> = Vec::new();
        for entry in 0..self.entries.len() {
            let mut es = self.slots.lock(entry);
            victims.extend(es.drain());
            // Every slot frees, Abandoned included: its caller was already
            // answered by the restart, and the still-running body's
            // `body_done` finds the slot `Free` and treats it as swept.
            es.sweep(|_| Some(Slot::Free), &mut victims);
        }
        for call in victims {
            self.complete(&call, Err(self.closed_err()));
        }
        self.pool.shutdown();
        self.notifier.notify(&self.rt);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}
