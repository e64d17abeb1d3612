//! ALPS objects: the call-protocol state machine, hidden procedure
//! arrays, implicit starts, and object lifecycle.
//!
//! Every hidden-procedure-array slot moves through the protocol of paper
//! §2.3/§2.5:
//!
//! ```text
//!            attach                accept            start
//! Free ───────────────▶ Attached ─────────▶ Accepted ──────▶ Started
//!   ▲                                          │                │ body runs
//!   │                 finish (combining, §2.7) │                ▼
//!   │◀─────────────────────────────────────────┘             Ready
//!   │                                  await                    │
//!   │◀───────────── Awaited ◀───────────────────────────────────┘
//!          finish
//! ```
//!
//! Calls that find no free slot wait in a FIFO queue and attach when a
//! slot frees (`#P` counts both attached-unaccepted and queued calls,
//! paper §2.5.1). Entries not listed in the manager's intercepts clause
//! are started implicitly at attach time (paper §2.3).
//!
//! # The fast path
//!
//! The invocation hot path is engineered so a steady-state call performs
//! no heap allocation for arity ≤ 4:
//!
//! * **[`EntryId`]** — entry names are interned once
//!   ([`ObjectHandle::entry_id`]); [`ObjectHandle::call_id`] skips the
//!   string hash lookup of [`ObjectHandle::call`].
//! * **Inline implicit starts** — a call to a non-intercepted entry that
//!   finds a free slot runs the body *in the calling process* (the caller
//!   would block for the result anyway), skipping the pool hand-off and
//!   two park/unpark round trips. Queued calls still dispatch to the pool
//!   when a slot frees.
//! * **[`CallCell`] recycling** — calls that do rendezvous (intercepted
//!   entries, queued calls) draw their cell from a per-object free list;
//!   the cell's old `times`/`st` mutex pair is collapsed into atomics plus
//!   a oneshot result word.
//! * **Lock-split state** — each entry owns its own slot array, wait
//!   queue, and lock ([`EntrySync`]), so unrelated entries do not contend;
//!   `#P` reads an atomic index without locking anything.

use std::cell::{Cell, UnsafeCell};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use alps_runtime::{
    tuning, CommitPoint, IntakeRing, Notifier, Priority, ProcId, Runtime, Spawn, SpinWait,
};
use parking_lot::Mutex;

use crate::entry::EntryDef;
use crate::error::{AlpsError, Result};
use crate::manager::ManagerCtx;
use crate::pool::{Job, Pool, PoolMode};
use crate::proc_ctx::ProcCtx;
use crate::stats::ObjectStats;
use crate::supervise::{AdmissionPolicy, OnRestart, RestartPolicy, Wait};
use crate::value::{check_types_lazy, Ty, ValVec};

/// The manager process body. It runs once, typically an endless
/// `loop { mgr.select(...)? ... }`; returning `Ok` ends the manager (the
/// object then no longer accepts intercepted calls), and
/// [`AlpsError::ObjectClosed`] is the normal exit path at shutdown.
pub type ManagerBody = Box<dyn FnMut(&mut ManagerCtx) -> Result<()> + Send + 'static>;

/// Interned handle to one entry of one object.
///
/// Minted by [`ObjectHandle::entry_id`] — the name is resolved exactly
/// once — and redeemed by [`ObjectHandle::call_id`], which skips the
/// per-call string hash lookup. `EntryId` is `Copy` and carries the
/// object's unique id, so using it on a different object is caught and
/// reported as [`AlpsError::ForeignEntryId`] rather than silently calling
/// the wrong entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryId {
    pub(crate) obj: u64,
    pub(crate) idx: u32,
}

impl EntryId {
    /// Index of the entry in its object's entry table.
    pub fn index(&self) -> usize {
        self.idx as usize
    }
}

/// Process-wide object uid source backing [`EntryId`] validity checks.
static OBJECT_UID: AtomicU64 = AtomicU64::new(1);

/// Installed supervision configuration
/// ([`ObjectBuilder::supervise`] / [`on_restart`](ObjectBuilder::on_restart)
/// / [`state_init`](ObjectBuilder::state_init)).
pub(crate) struct SuperviseCfg {
    policy: RestartPolicy,
    on_restart: OnRestart,
    state_init: Option<Box<dyn Fn() + Send + Sync + 'static>>,
}

const CALL_WAITING: u32 = 0;
const CALL_DONE: u32 = 1;
/// The caller's deadline expired: it claimed the cell back and returned
/// [`AlpsError::Timeout`]. Completers that lose the `finish` CAS against
/// this state discard their result and tombstone the cell instead.
const CALL_CANCELLED: u32 = 2;
/// A protocol-side holder (intake drain, losing completer, shutdown
/// sweep) acknowledged the cancellation. The `CANCELLED → TOMBSTONE` CAS
/// has a unique winner, which is the one party entitled to account the
/// reap; the cell is recycled as usual once its `Arc` is unique (reset
/// clears the state word).
const CALL_TOMBSTONE: u32 = 3;

/// One in-flight rendezvous between a caller and the object.
///
/// The seed design carried two `Mutex`es per call (`times`, `st`); both
/// are collapsed here into plain atomics plus a oneshot result cell:
///
/// * `state` is the one-word call state. The happy path is a single
///   transition `CALL_WAITING → CALL_DONE`; a deadline-bounded caller may
///   instead win `CALL_WAITING → CALL_CANCELLED`, after which whichever
///   protocol-side holder discovers the cell moves it `CALL_CANCELLED →
///   CALL_TOMBSTONE` and reclaims it. Both completion and cancellation
///   are compare-exchanges on `CALL_WAITING`, so exactly one side wins.
/// * `result` is written exactly once, by the single completer that took
///   the cell out of its slot/queue under the entry lock, *before* the
///   `SeqCst` CAS to `CALL_DONE`; the caller reads it only after a
///   `SeqCst` load observes `CALL_DONE`. If the CAS loses to a
///   cancellation the caller is gone for good — the written result is
///   dead and `reset` clears it. That handoff is the entire safety
///   argument for the `unsafe impl Sync`.
/// * `waiting` is the caller's "I am about to park" announcement. The
///   completer skips the (expensive) `rt.unpark` when it is false — i.e.
///   when the caller is still in its spin/yield phase. The flag and the
///   state word form a store-buffering pair, which is why both sides use
///   `SeqCst`: the caller stores `waiting = true` then loads `state`, the
///   completer stores `state = DONE` then loads `waiting` — sequential
///   consistency guarantees at least one side observes the other, so a
///   parked caller is always unparked.
///
/// Cells are recycled through a per-object free list
/// ([`ObjectInner::release_cell`]); a cell is only reset when its `Arc` is
/// unique, so no stale reader can observe the reset.
pub(crate) struct CallCell {
    /// Argument tuple. Interior-mutable so the start path can *move* the
    /// arguments into the body instead of cloning them out of a shared
    /// `Arc` — see [`args`](Self::args) / [`take_args`](Self::take_args)
    /// for the ownership discipline that makes the `&self` access sound.
    args: UnsafeCell<ValVec>,
    pub(crate) caller: ProcId,
    pub(crate) t_call: u64,
    pub(crate) t_attach: AtomicU64,
    pub(crate) t_start: AtomicU64,
    state: AtomicU32,
    waiting: AtomicBool,
    result: UnsafeCell<Option<Result<ValVec>>>,
}

// SAFETY: `result` is written once by the unique completer before the
// Release store on `state` and read once by the caller after an Acquire
// load. `args` is written before the cell is published (unique
// ownership in `new`/`reset`) and afterwards touched only by the
// protocol side that currently owns the cell's slot/queue position —
// manager select/accept/start, all serialized by the entry lock — never
// by the caller, and never after `take_args`. All other fields are
// immutable-after-publish or atomic.
unsafe impl Sync for CallCell {}

impl CallCell {
    fn new(args: ValVec, caller: ProcId, t_call: u64) -> CallCell {
        CallCell {
            args: UnsafeCell::new(args),
            caller,
            t_call,
            t_attach: AtomicU64::new(0),
            t_start: AtomicU64::new(0),
            state: AtomicU32::new(CALL_WAITING),
            waiting: AtomicBool::new(false),
            result: UnsafeCell::new(None),
        }
    }

    /// Borrow the argument tuple.
    ///
    /// Sound because every reader is on the protocol side of the cell —
    /// guard evaluation over `Attached` slots, intercept-prefix
    /// extraction at accept — and those all run in the object's single
    /// manager process under the entry lock; the caller never reads
    /// `args` after submitting the cell.
    pub(crate) fn args(&self) -> &ValVec {
        // SAFETY: see above — reads are serialized by the entry lock and
        // `take_args` (the only mutation) runs under that same lock, in
        // the same manager process, at the `Accepted → Started`
        // transition after which no reader looks at `args` again.
        unsafe { &*self.args.get() }
    }

    /// Move the argument tuple out, leaving an empty one. Called exactly
    /// once per call round, at the `Attached/Accepted → Started`
    /// transition (implicit start, `start`, or `execute`), under the
    /// entry lock, by the manager that owns the slot. The restart and
    /// shutdown sweeps never read `args`, so a taken tuple is never
    /// missed.
    pub(crate) fn take_args(&self) -> ValVec {
        // SAFETY: unique protocol-side accessor under the entry lock; no
        // `args()` borrow is live across this call (borrows end before
        // the slot-state transition that reaches here).
        unsafe { std::mem::take(&mut *self.args.get()) }
    }

    /// Deliver the result. Must be called at most once per call round, by
    /// the completer that removed this cell from the slot/queue. Returns
    /// whether the result was actually delivered — `false` means the
    /// caller cancelled first (deadline expiry), is gone, and must *not*
    /// be unparked.
    fn finish(&self, r: Result<ValVec>) -> bool {
        // SAFETY: single completer per round (slot-state ownership); the
        // caller cannot read until the CAS below succeeds, and after a
        // cancellation it never reads at all (the write is dead and reset
        // clears it). SeqCst (not just Release) because this CAS and the
        // completer's subsequent `waiting` load pair with the caller's
        // `waiting` store / `state` load — see the struct docs.
        unsafe {
            *self.result.get() = Some(r);
        }
        self.state
            .compare_exchange(CALL_WAITING, CALL_DONE, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Caller side, deadline path: claim the cell back. Succeeds iff no
    /// completer has delivered yet; on success the caller owns the
    /// `Timeout` outcome and every later completion attempt is discarded.
    fn cancel(&self) -> bool {
        self.state
            .compare_exchange(
                CALL_WAITING,
                CALL_CANCELLED,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Whether the caller abandoned this call (and nobody tombstoned it
    /// yet). Holders use it to skip dead cells cheaply before committing
    /// work to them.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.state.load(Ordering::SeqCst) == CALL_CANCELLED
    }

    /// Acknowledge a cancellation. The unique winner of this CAS is the
    /// one party entitled to account the reap.
    fn claim_tombstone(&self) -> bool {
        self.state
            .compare_exchange(
                CALL_CANCELLED,
                CALL_TOMBSTONE,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Caller side: take the result if the call has completed.
    fn try_take(&self) -> Option<Result<ValVec>> {
        if self.state.load(Ordering::SeqCst) == CALL_DONE {
            // SAFETY: the completer's writes happen-before this read via
            // the load above, and only the one caller consumes.
            unsafe { (*self.result.get()).take() }
        } else {
            None
        }
    }

    /// Reset for reuse. Requires unique ownership (`Arc::get_mut`).
    fn reset(&mut self, args: ValVec, caller: ProcId, t_call: u64) {
        *self.args.get_mut() = args;
        self.caller = caller;
        self.t_call = t_call;
        *self.t_attach.get_mut() = 0;
        *self.t_start.get_mut() = 0;
        *self.state.get_mut() = CALL_WAITING;
        *self.waiting.get_mut() = false;
        *self.result.get_mut() = None;
    }
}

/// Slot states of the hidden-procedure-array protocol.
pub(crate) enum Slot {
    Free,
    Attached {
        call: Arc<CallCell>,
    },
    Accepted {
        call: Arc<CallCell>,
    },
    Started {
        call: Arc<CallCell>,
    },
    /// An implicit call is executing its body inline in the caller's own
    /// process (the fast path) — there is no parked caller to answer, so
    /// no cell is needed; the caller discovers shutdown by finding the
    /// slot no longer in this state.
    InlineBusy,
    /// Body finished; `outcome` is the full implementation-side result
    /// list (public ++ hidden) or a failure message.
    Ready {
        call: Arc<CallCell>,
        outcome: std::result::Result<ValVec, String>,
    },
    /// Manager executed `await`; the non-intercepted public results wait
    /// here for `finish` to release them to the caller.
    Awaited {
        call: Arc<CallCell>,
        remainder: ValVec,
    },
    /// The manager cancelled a `Started` call
    /// ([`ManagerCtx::cancel`](crate::ManagerCtx::cancel)): the caller was
    /// answered with [`AlpsError::Cancelled`] immediately, but the body is
    /// still running and owns the slot until `body_done` discards its
    /// outcome and frees it.
    Abandoned,
}

impl Slot {
    pub(crate) fn state_name(&self) -> &'static str {
        match self {
            Slot::Free => "free",
            Slot::Attached { .. } => "attached",
            Slot::Accepted { .. } => "accepted",
            Slot::Started { .. } => "started",
            Slot::InlineBusy => "started",
            Slot::Ready { .. } => "ready",
            Slot::Awaited { .. } => "awaited",
            Slot::Abandoned => "abandoned",
        }
    }
}

/// Lock-protected per-entry protocol state.
pub(crate) struct EntryState {
    pub(crate) slots: Vec<Slot>,
    pub(crate) waitq: VecDeque<Arc<CallCell>>,
}

/// One entry's synchronization block: its own lock (so unrelated entries
/// never contend) plus the narrow manager-visible index — atomic counts
/// that `#P`, guard conditions, and monitoring read without taking any
/// lock.
///
/// Count maintenance (always under `st`):
/// * `attached`: +1 attach of an intercepted call, −1 accept, 0 at
///   shutdown;
/// * `queued`: +1 queue push, −1 queue pull, 0 at shutdown;
/// * `ready`: +1 body completion of an intercepted call, −1 await, 0 at
///   shutdown.
///
/// `in_ring` is the exception: it counts this entry's calls sitting in the
/// object's intake ring, is incremented by the *caller* before its push
/// (no lock held) and decremented by whoever pops the item (drain or
/// shutdown sweep). It makes `#P` cover calls the manager has not drained
/// yet, so a guard like `when #P > 0` cannot miss a call that is already
/// committed to the ring.
pub(crate) struct EntrySync {
    pub(crate) st: Mutex<EntryState>,
    pub(crate) attached: AtomicUsize,
    pub(crate) queued: AtomicUsize,
    pub(crate) ready: AtomicUsize,
    pub(crate) in_ring: AtomicUsize,
}

impl EntrySync {
    fn new(slots: usize) -> EntrySync {
        EntrySync {
            st: Mutex::new(EntryState {
                slots: (0..slots).map(|_| Slot::Free).collect(),
                waitq: VecDeque::new(),
            }),
            attached: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            ready: AtomicUsize::new(0),
            in_ring: AtomicUsize::new(0),
        }
    }
}

pub(crate) struct ObjectInner {
    pub(crate) name: String,
    pub(crate) rt: Runtime,
    pub(crate) uid: u64,
    pub(crate) entries: Vec<EntryDef>,
    pub(crate) by_name: HashMap<String, usize>,
    pub(crate) slot_base: Vec<usize>,
    pub(crate) estates: Vec<EntrySync>,
    pub(crate) notifier: Notifier,
    pub(crate) stats: ObjectStats,
    pub(crate) closed: AtomicBool,
    /// Set when an entry body panics in a poisoning object
    /// ([`ObjectBuilder::poison_on_panic`]): the object's invariants may
    /// be corrupt, so new calls fail fast with
    /// [`AlpsError::ObjectPoisoned`]. Poisoned ≠ closed — the manager
    /// keeps running and in-flight calls complete normally.
    pub(crate) poisoned: AtomicBool,
    poison_on_panic: bool,
    pub(crate) pool: Pool,
    pub(crate) manager_error: Mutex<Option<AlpsError>>,
    /// Recycled [`CallCell`]s; bounded by `cell_cap`.
    cell_pool: Mutex<Vec<Arc<CallCell>>>,
    cell_cap: usize,
    /// `EntryDef::full_results()` precomputed per entry so the per-call
    /// result type check does not allocate.
    pub(crate) full_results: Vec<Vec<Ty>>,
    /// Lock-free call intake: callers of *intercepted* entries push
    /// `(entry, cell)` here instead of taking the entry lock; the manager
    /// drains in batches ([`drain_intake`](ObjectInner::drain_intake)).
    /// Implicit entries keep the direct attach path — they have no
    /// manager to drain for them.
    pub(crate) intake: IntakeRing<(u32, Arc<CallCell>)>,
    /// Serializes ring consumers (manager drain, shutdown sweep, a
    /// producer's post-close self-sweep) so each cell has one completer.
    intake_drain: Mutex<()>,
    /// True while the manager is between wakeup and its pre-park
    /// condition re-check; callers use it to decide whether yielding (the
    /// manager will service the ring soon) beats parking (it will not).
    pub(crate) mgr_active: AtomicBool,
    /// Poll mode: the manager yield-polls the intake ring instead of
    /// parking, so the whole submit→serve→reply cycle runs on scheduler
    /// rotation with no futex traffic. Set by `drain_intake` after any
    /// non-empty drain — a caller that was just served is the likeliest
    /// source of the next call, whether it is alone or one of a storm —
    /// and cleared after a dry poll budget in `wait_for_work`.
    pub(crate) mgr_poll: AtomicBool,
    /// Restart generation: bumped at the start of every supervised
    /// restart, *before* the in-flight sweep. Manager primitives capture
    /// it at [`ManagerCtx`] creation and re-check it under the entry lock
    /// before committing, so a pre-restart manager can never accept,
    /// start, or finish into the post-restart object — stale replies are
    /// refused with [`AlpsError::ObjectRestarting`] instead of delivered.
    pub(crate) generation: AtomicU64,
    /// Supervision configuration; `None` for unsupervised objects.
    supervise: Option<SuperviseCfg>,
    /// Serializes restarts and holds the timestamps the
    /// [`RestartPolicy::RestartTransient`] budget window is judged
    /// against. The supervisor loop in [`ObjectBuilder::spawn`] takes it
    /// (empty critical section) as a barrier so the manager body never
    /// re-enters while a sweep or state rebuild is still in progress.
    pub(crate) restart_times: Mutex<Vec<u64>>,
    /// A restart was refused — budget exhausted, injected `"restart"`
    /// fault, [`RestartPolicy::Never`], or a panicking `state_init`. The
    /// poison is permanent: callers get [`AlpsError::ObjectPoisoned`],
    /// not the transient [`AlpsError::ObjectRestarting`].
    perm_failed: AtomicBool,
    /// What the call protocol does when the intake ring is full.
    admission: AdmissionPolicy,
    /// Epoch bumped whenever ring space frees (drain, shutdown sweep,
    /// restart): `Block` producers facing a full ring park here instead
    /// of yield-spinning.
    space_notifier: Notifier,
}

impl fmt::Debug for ObjectInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Object")
            .field("name", &self.name)
            .field("entries", &self.entries.len())
            .field("closed", &self.closed.load(Ordering::SeqCst))
            .finish()
    }
}

impl ObjectInner {
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

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    fn poisoned_err(&self) -> AlpsError {
        AlpsError::ObjectPoisoned {
            object: self.name.clone(),
        }
    }

    pub(crate) fn restarting_err(&self) -> AlpsError {
        AlpsError::ObjectRestarting {
            object: self.name.clone(),
        }
    }

    fn overloaded_err(&self) -> AlpsError {
        AlpsError::Overloaded {
            object: self.name.clone(),
        }
    }

    /// The error a new call gets while the object is poisoned: transient
    /// ([`AlpsError::ObjectRestarting`], retry-worthy) while a supervised
    /// restart is still possible, permanent ([`AlpsError::ObjectPoisoned`])
    /// otherwise.
    fn poison_reject(&self) -> AlpsError {
        if self.supervise.is_some() && !self.perm_failed.load(Ordering::SeqCst) {
            self.restarting_err()
        } else {
            self.poisoned_err()
        }
    }

    /// Draw a call cell from the free list, or allocate one.
    fn acquire_cell(&self, args: ValVec, caller: ProcId, t_call: u64) -> Arc<CallCell> {
        if let Some(mut arc) = self.cell_pool.lock().pop() {
            if let Some(cell) = Arc::get_mut(&mut arc) {
                cell.reset(args, caller, t_call);
                return arc;
            }
            // A stale clone still exists (should not happen — cells are
            // pooled only when unique); fall through and allocate.
        }
        Arc::new(CallCell::new(args, caller, t_call))
    }

    /// Return a finished cell to the free list if no other clone survives.
    fn release_cell(&self, call: Arc<CallCell>) {
        if Arc::strong_count(&call) != 1 {
            return;
        }
        let mut pool = self.cell_pool.lock();
        if pool.len() < self.cell_cap {
            pool.push(call);
        }
    }

    /// Complete a call: deliver the result and unpark the caller — unless
    /// the caller has not announced a park (`waiting` false), in which
    /// case it is still in its spin/yield phase and will pick the result
    /// up itself; skipping `rt.unpark` there saves the proc-table lookup
    /// and wake syscall on the contended fast path. The SeqCst
    /// store-then-load on the completer side pairs with the caller's
    /// SeqCst `waiting`-store-then-`state`-load (see [`CallCell`]).
    ///
    /// Returns whether the result reached the caller. `false` means the
    /// caller cancelled first (deadline expiry): the delivery is
    /// discarded, the cell is tombstoned here, and — critically — no
    /// unpark is issued, so the departed caller's park slot is never
    /// handed a stray permit (the lost-wakeup-class hazard under
    /// cancellation).
    pub(crate) fn complete(&self, call: &Arc<CallCell>, result: Result<ValVec>) -> bool {
        let ok = result.is_ok();
        if call.finish(result) {
            if ok {
                let now = self.rt.now();
                self.stats.on_complete(now.saturating_sub(call.t_call));
            }
            if call.waiting.load(Ordering::SeqCst) {
                self.rt.unpark(call.caller);
            }
            true
        } else {
            if call.claim_tombstone() {
                self.stats.on_reap();
            }
            false
        }
    }

    /// Attach a call to a free slot of `entry`, or queue it. Returns an
    /// implicit-start dispatch if the entry is not intercepted.
    /// Caller must run the returned dispatch *after* releasing the entry
    /// lock it passed in.
    pub(crate) fn attach_or_queue(
        self: &Arc<Self>,
        es: &mut EntryState,
        entry: usize,
        call: Arc<CallCell>,
    ) -> Option<(usize, ValVec)> {
        let free = es.slots.iter().position(|s| matches!(s, Slot::Free));
        match free {
            Some(i) => self.attach_to_slot(es, entry, i, call),
            None => {
                es.waitq.push_back(call);
                self.estates[entry].queued.fetch_add(1, Ordering::SeqCst);
                // #P changed; manager `when` conditions may depend on it.
                self.notifier.notify(&self.rt);
                None
            }
        }
    }

    /// Attach `call` to the known-free slot `i`.
    pub(crate) fn attach_to_slot(
        self: &Arc<Self>,
        es: &mut EntryState,
        entry: usize,
        i: usize,
        call: Arc<CallCell>,
    ) -> Option<(usize, ValVec)> {
        let now = self.rt.now();
        call.t_attach.store(now, Ordering::Relaxed);
        self.stats.on_attach(now.saturating_sub(call.t_call));
        let def = &self.entries[entry];
        if def.intercept.is_some() {
            es.slots[i] = Slot::Attached { call };
            self.estates[entry].attached.fetch_add(1, Ordering::SeqCst);
            self.notifier.notify(&self.rt);
            None
        } else {
            // Implicit start (paper §2.3: calls to procedures not listed
            // in the intercepts clause are started implicitly). The
            // intercept prefix is empty, so the body takes the full
            // argument tuple — moved out of the cell, not cloned: nobody
            // reads `args` once the slot is `Started`.
            call.t_start.store(now, Ordering::Relaxed);
            let params = call.take_args();
            es.slots[i] = Slot::Started { call };
            self.stats.on_implicit_start();
            Some((i, params))
        }
    }

    /// Free slot `i` of `entry` and attach the next queued call, if any.
    /// Returns an implicit-start dispatch to run after unlocking.
    pub(crate) fn free_slot_and_pull(
        self: &Arc<Self>,
        es: &mut EntryState,
        entry: usize,
        i: usize,
    ) -> Option<(usize, ValVec)> {
        es.slots[i] = Slot::Free;
        if let Some(next) = es.waitq.pop_front() {
            self.estates[entry].queued.fetch_sub(1, Ordering::SeqCst);
            self.attach_to_slot(es, entry, i, next)
        } else {
            None
        }
    }

    /// Hand a started slot's execution to the pool.
    pub(crate) fn dispatch_body(self: &Arc<Self>, entry: usize, slot: usize, params: ValVec) {
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
                // A panic (not an error return) may have unwound the body
                // mid-update: in a poisoning object, fail all future calls
                // fast rather than letting them observe torn state. A
                // supervised object additionally attempts a restart (which
                // clears the poison again on success).
                if self.poison_on_panic || self.supervise.is_some() {
                    self.poisoned.store(true, Ordering::SeqCst);
                }
                if self.supervise.is_some() {
                    self.handle_body_panic();
                }
                Err(panic_message(payload.as_ref()))
            }
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
        let mut dispatch = None;
        let mut made_ready = false;
        {
            let sync = &self.estates[entry];
            let mut es = sync.st.lock();
            let s = &mut es.slots[slot];
            let call = match std::mem::replace(s, Slot::Free) {
                Slot::Started { call } => call,
                Slot::Abandoned => {
                    // The manager cancelled this call mid-body: the caller
                    // was already answered, so the outcome is discarded and
                    // the slot simply frees up for the next queued call.
                    let dispatch = self.free_slot_and_pull(&mut es, entry, slot);
                    drop(es);
                    if let Some((i, params)) = dispatch {
                        self.dispatch_body(entry, i, params);
                    }
                    return;
                }
                other => {
                    // Object likely shut down underneath the body.
                    *s = other;
                    return;
                }
            };
            let now = self.rt.now();
            let started = call.t_start.load(Ordering::Relaxed);
            self.stats.on_service(now.saturating_sub(started));
            let def = &self.entries[entry];
            if def.intercept.is_some() {
                if outcome.is_err() {
                    self.stats.on_body_failure();
                }
                es.slots[slot] = Slot::Ready { call, outcome };
                sync.ready.fetch_add(1, Ordering::SeqCst);
                made_ready = true;
            } else {
                match outcome {
                    Ok(results) => {
                        self.complete(&call, Ok(results));
                    }
                    Err(msg) => {
                        self.stats.on_body_failure();
                        self.complete(
                            &call,
                            Err(AlpsError::BodyFailed {
                                entry: def.name.clone(),
                                message: msg,
                            }),
                        );
                    }
                }
                dispatch = self.free_slot_and_pull(&mut es, entry, slot);
            }
        }
        if made_ready {
            // Outside the entry lock: the notifier takes its own lock only
            // when someone is parked.
            self.notifier.notify(&self.rt);
        }
        if let Some((i, params)) = dispatch {
            self.dispatch_body(entry, i, params);
        }
    }

    /// Publish `(entry, call)` to the intake ring, applying the object's
    /// [`AdmissionPolicy`] when the ring is full. On success the
    /// empty→non-empty notify contract is honored. On a shed, the entry's
    /// `in_ring` count is already rolled back and
    /// [`AlpsError::Overloaded`] returned — the caller owns the
    /// (unpublished) cell and must release it.
    fn push_intake(&self, entry: usize, call: &Arc<CallCell>) -> Result<()> {
        let sync = &self.estates[entry];
        sync.in_ring.fetch_add(1, Ordering::SeqCst);
        let mut item = (entry as u32, Arc::clone(call));
        // Backpressure epoch snapshot: `None` until the first full-ring
        // encounter; a push retried after snapshotting that still finds
        // the ring full parks until a drain moves the epoch past it.
        let mut seen: Option<u64> = None;
        loop {
            match self.intake.push(item) {
                Ok(was_empty) => {
                    if was_empty {
                        self.notifier.notify(&self.rt);
                    }
                    return Ok(());
                }
                Err(back) => {
                    // Ring full. No direct-attach fallback — that would
                    // let this call overtake ring residents of the same
                    // entry and break per-entry FIFO.
                    if self.is_closed() {
                        sync.in_ring.fetch_sub(1, Ordering::SeqCst);
                        drop(back);
                        return Err(self.closed_err());
                    }
                    item = back;
                    match self.admission {
                        AdmissionPolicy::ShedNewest => {
                            sync.in_ring.fetch_sub(1, Ordering::SeqCst);
                            self.stats.on_shed();
                            return Err(self.overloaded_err());
                        }
                        AdmissionPolicy::Block => match seen {
                            None => {
                                // First encounter: snapshot the space
                                // epoch, then yield once — the manager
                                // is often mid-drain already.
                                seen = Some(self.space_notifier.epoch());
                                self.rt.yield_now();
                            }
                            Some(s) => {
                                // The retry between snapshot and here
                                // closes the missed-wakeup race: any
                                // drain after the snapshot moves the
                                // epoch past `s`.
                                self.space_notifier.wait_past(&self.rt, s);
                                seen = None;
                            }
                        },
                    }
                }
            }
        }
    }

    /// The full blocking call protocol: validate, attach or queue, wait
    /// for the reply.
    ///
    /// `deadline` bounds the reply wait to that many virtual
    /// microseconds. On expiry the caller claims its cell back
    /// (`CALL_WAITING → CALL_CANCELLED`), proactively removes it from the
    /// wait queue or an `Attached` slot if it is still reachable there,
    /// and returns [`AlpsError::Timeout`]; a cell the manager already owns
    /// — in the intake ring, `Accepted`, or `Started` — is reclaimed
    /// lazily by whichever holder touches it next (drain tombstone, losing
    /// `finish` CAS, shutdown sweep).
    pub(crate) fn call_protocol(
        self: &Arc<Self>,
        entry: usize,
        args: ValVec,
        external: bool,
        deadline: Option<u64>,
    ) -> Result<ValVec> {
        let def = &self.entries[entry];
        if external && def.local {
            return Err(AlpsError::LocalEntryCalled {
                object: self.name.clone(),
                entry: def.name.clone(),
            });
        }
        check_types_lazy(&def.params, &args, || {
            format!("call {}.{}", self.name, def.name)
        })?;
        if self.is_closed() {
            return Err(self.closed_err());
        }
        if self.is_poisoned() {
            self.stats.on_poison_reject();
            return Err(self.poison_reject());
        }
        self.stats.on_call();
        let t_call = self.rt.now();
        let intercepted = def.intercept.is_some();

        // Fast path: an implicit (non-intercepted) entry with a free slot
        // runs its body inline in this process — the caller would block
        // for the result anyway, so this is observationally the same
        // rendezvous minus the pool hand-off and two park/unpark pairs,
        // and it touches no heap at all. A deadline bounds *waiting*,
        // never execution already underway, so it plays no part here.
        if !intercepted {
            let claimed = {
                let mut es = self.estates[entry].st.lock();
                if self.is_closed() {
                    return Err(self.closed_err());
                }
                match es.slots.iter().position(|s| matches!(s, Slot::Free)) {
                    Some(i) => {
                        es.slots[i] = Slot::InlineBusy;
                        Some(i)
                    }
                    None => None,
                }
            };
            if let Some(i) = claimed {
                return self.run_inline(entry, i, args, t_call);
            }
        }

        // Slow path: rendezvous through a (recycled) call cell.
        let call = self.acquire_cell(args, self.rt.current(), t_call);

        if !intercepted {
            // Implicit entry, all slots busy: queue directly under the
            // entry lock (no manager exists to drain a ring for us).
            let dispatch = {
                let mut es = self.estates[entry].st.lock();
                if self.is_closed() {
                    return Err(self.closed_err());
                }
                self.attach_or_queue(&mut es, entry, Arc::clone(&call))
            };
            if let Some((i, params)) = dispatch {
                self.dispatch_body(entry, i, params);
            }
        } else if !self.rt.fault_point("intake_push") {
            // Intercepted entries submit through the lock-free intake
            // ring; the manager drains it in batches. (An injected
            // `intake_push` fault skips this: the cell is never published,
            // so a deadline-bounded caller recovers via Timeout and a
            // plain caller hangs — in simulation, as a detected deadlock.)
            //
            // Commit point: the next step publishes this call into the
            // ring, racing the manager's drain. No locks held.
            self.rt.sim_point(CommitPoint::IntakePush);
            if let Err(e) = self.push_intake(entry, &call) {
                self.release_cell(call);
                return Err(e);
            }
            // Shutdown may have raced the push: its sweep can miss a slot
            // whose publish was still in this core's store buffer when it
            // popped. The fence orders our publish before the load below,
            // so either shutdown's sweep sees our item, or we see
            // `closed` here and sweep it (or a classified victim) out
            // ourselves.
            std::sync::atomic::fence(Ordering::SeqCst);
            if self.is_closed() {
                self.sweep_intake();
            }
        }
        let r = match deadline {
            None => self.wait_for_reply(&call, intercepted),
            Some(ticks) => {
                self.wait_for_reply_deadline(&call, entry, t_call.saturating_add(ticks), ticks)
            }
        };
        self.release_cell(call);
        r
    }

    /// Block until `call` completes, adaptively: a short pure-spin burst,
    /// then — while the manager is awake — a bounded number of yields,
    /// then announce (`waiting = true`) and park.
    ///
    /// `adaptive` is false for non-ring waits (queued implicit calls,
    /// whose completer is a pool worker, not the manager) and the
    /// spin/yield phases are skipped entirely on the simulation executor,
    /// where a blocked process can never observe progress by spinning.
    fn wait_for_reply(&self, call: &Arc<CallCell>, adaptive: bool) -> Result<ValVec> {
        if adaptive && !self.rt.is_sim() {
            let mut sw = SpinWait::new(tuning::CALLER_SPIN_ROUNDS);
            while sw.spin() {
                if let Some(r) = call.try_take() {
                    self.stats.on_spin_resolved();
                    return r;
                }
            }
            // Yield phase: worth it only while the manager is running —
            // each yield hands it the CPU (single-core) or leaves it
            // draining (multi-core).
            let mut spent = 0;
            while spent < tuning::CALLER_YIELD_BUDGET && self.mgr_active.load(Ordering::SeqCst) {
                if let Some(r) = call.try_take() {
                    self.stats.on_spin_resolved();
                    return r;
                }
                self.rt.yield_now();
                spent += 1;
            }
        }
        call.waiting.store(true, Ordering::SeqCst);
        loop {
            if let Some(r) = call.try_take() {
                if adaptive {
                    self.stats.on_park_resolved();
                }
                return r;
            }
            self.rt.park();
        }
    }

    /// Deadline-bounded reply wait. No spin/yield phase: a caller that
    /// opted into a deadline is latency-tolerant by definition, so it
    /// announces and parks with a timer straight away. On expiry it races
    /// the completer with a `cancel` CAS; losing the race means the result
    /// was published first and is taken normally.
    fn wait_for_reply_deadline(
        self: &Arc<Self>,
        call: &Arc<CallCell>,
        entry: usize,
        deadline: u64,
        budget: u64,
    ) -> Result<ValVec> {
        call.waiting.store(true, Ordering::SeqCst);
        loop {
            if let Some(r) = call.try_take() {
                return r;
            }
            let now = self.rt.now();
            if now >= deadline {
                // Commit point: the cancel CAS below races the
                // completer's `finish` CAS. A strategy preempting here
                // widens the window in which the manager can win.
                self.rt.sim_point(CommitPoint::FinishCas);
                if call.cancel() {
                    self.stats.on_timeout();
                    self.reap_cancelled(entry, call);
                    return Err(AlpsError::Timeout {
                        what: self.entries[entry].name.clone(),
                        ticks: budget,
                    });
                }
                // Lost the race: `finish` publishes the result before its
                // CAS, so a failed cancel means the result is visible now.
                return call
                    .try_take()
                    .expect("completer won the state CAS, result published");
            }
            self.rt.park_timeout(deadline - now);
        }
    }

    /// Best-effort immediate cleanup after a caller-side cancellation:
    /// pull the cell out of whatever this side can still reach — the wait
    /// queue or an `Attached` slot. Cells the manager already owns
    /// (`Accepted`, `Started`, `Ready`, `Awaited`) are left in place: the
    /// manager's eventual completion loses the `finish` CAS and tombstones
    /// them. Cells still in the intake ring are tombstoned by the next
    /// drain or sweep.
    fn reap_cancelled(self: &Arc<Self>, entry: usize, call: &Arc<CallCell>) {
        let sync = &self.estates[entry];
        let mut removed = false;
        let dispatch = {
            let mut es = sync.st.lock();
            if let Some(pos) = es.waitq.iter().position(|c| Arc::ptr_eq(c, call)) {
                es.waitq.remove(pos);
                sync.queued.fetch_sub(1, Ordering::SeqCst);
                removed = true;
                None
            } else if let Some(i) = es
                .slots
                .iter()
                .position(|s| matches!(s, Slot::Attached { call: c } if Arc::ptr_eq(c, call)))
            {
                sync.attached.fetch_sub(1, Ordering::SeqCst);
                removed = true;
                // Dropping the slot's clone here; free_slot_and_pull hands
                // the slot to the next queued call.
                self.free_slot_and_pull(&mut es, entry, i)
            } else {
                None
            }
        };
        if removed {
            if call.claim_tombstone() {
                self.stats.on_reap();
            }
            // `#P` shrank; a `when`-condition watching it may now hold.
            self.notifier.notify(&self.rt);
        }
        if let Some((i, params)) = dispatch {
            self.dispatch_body(entry, i, params);
        }
    }

    /// Classify one popped intake item into its entry's slot array or
    /// wait queue. Runs under the `intake_drain` lock.
    fn drain_classify(&self, now: u64, eidx: u32, call: Arc<CallCell>) {
        let entry = eidx as usize;
        let sync = &self.estates[entry];
        // A cancelled cell is a tombstone, not a stale call: the
        // caller's deadline expired between its push and this drain.
        // Acknowledge, drop the ring accounting, and recycle — it must
        // never reach a slot or the wait queue.
        if call.is_cancelled() {
            sync.in_ring.fetch_sub(1, Ordering::SeqCst);
            if call.claim_tombstone() {
                self.stats.on_reap();
            }
            self.release_cell(call);
            return;
        }
        if self.rt.fault_point("drain") {
            // Injected lost drain: the cell vanishes undelivered. Its
            // caller recovers via deadline (or deadlocks, detectably).
            sync.in_ring.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let mut es = sync.st.lock();
        if self.is_closed() {
            // Entry-lock mutual exclusion with shutdown's sweep makes
            // either ordering safe: whoever holds the cell fails it.
            drop(es);
            sync.in_ring.fetch_sub(1, Ordering::SeqCst);
            self.complete(&call, Err(self.closed_err()));
            return;
        }
        call.t_attach.store(now, Ordering::Relaxed);
        self.stats.on_attach(now.saturating_sub(call.t_call));
        let free = if es.waitq.is_empty() {
            es.slots.iter().position(|s| matches!(s, Slot::Free))
        } else {
            // Earlier calls of this entry are queued; going to a slot
            // now would overtake them.
            None
        };
        match free {
            Some(i) => {
                es.slots[i] = Slot::Attached { call };
                sync.attached.fetch_add(1, Ordering::SeqCst);
            }
            None => {
                es.waitq.push_back(call);
                sync.queued.fetch_add(1, Ordering::SeqCst);
            }
        }
        // After the attach/queue increment so `#P` never transiently
        // under-counts this call.
        sync.in_ring.fetch_sub(1, Ordering::SeqCst);
    }

    /// Drain the intake ring: classify every published cell into its
    /// entry's slot array or wait queue. Called by the manager at the top
    /// of each select pass, so one wakeup amortizes over the whole batch.
    ///
    /// Classification is *silent* (no notifier bump): the manager is the
    /// only waiter on the object notifier and it evaluates its guards
    /// right after draining. Per-entry FIFO holds because ring pop order
    /// is ring push order and a cell is queued — never slot-attached —
    /// whenever earlier cells of its entry are still queued.
    pub(crate) fn drain_intake(&self) {
        if self.intake.is_empty() {
            return;
        }
        // Commit point: work was observed but the drain lock is not yet
        // held — preempting here lets producers pile on (or cancel) and
        // lets a restart sweep win the lock first. Must stay *before*
        // the lock: a preemption while holding `intake_drain` could
        // OS-block a rival that holds the simulated CPU.
        self.rt.sim_point(CommitPoint::RingDrain);
        let _g = self.intake_drain.lock();
        let now = self.rt.now();
        let mut drained = 0u64;
        while let Some((eidx, call)) = self.intake.pop() {
            drained += 1;
            self.drain_classify(now, eidx, call);
        }
        if drained > 0 {
            self.stats.on_drain(drained);
            // Ring space freed: wake producers parked on a full ring
            // (`Block` backpressure).
            self.space_notifier.notify(&self.rt);
            // Poll after any drain (yield-poll instead of park, see
            // `wait_for_work`): whoever was just served — a lone
            // synchronous caller or a whole storm — is about to wake and
            // resubmit, and serving that on scheduler rotation costs no
            // futex traffic. One dry `MGR_POLL_BUDGET` parks again.
            // Load first: in steady state the flag is already set, and
            // the SeqCst store is a full fence on every drain
            // (`call_solo` p50 2.73 → 2.59 µs over 6 alternating runs).
            if !self.mgr_poll.load(Ordering::SeqCst) {
                self.mgr_poll.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Fail every published cell still in the intake ring (shutdown path
    /// and producers that observed `closed` after their push).
    pub(crate) fn sweep_intake(&self) {
        let _g = self.intake_drain.lock();
        let mut popped = false;
        while let Some((eidx, call)) = self.intake.pop() {
            self.estates[eidx as usize]
                .in_ring
                .fetch_sub(1, Ordering::SeqCst);
            self.complete(&call, Err(self.closed_err()));
            popped = true;
        }
        if popped {
            // Backpressured producers must not stay parked on a ring that
            // will never drain again.
            self.space_notifier.notify(&self.rt);
        }
    }

    /// Supervision entry point, called from the panic arm of
    /// [`exec_checked_body`](Self::exec_checked_body) with no locks held,
    /// in whichever process ran the panicking body (pool worker, inline
    /// caller, or the manager itself via `execute`).
    ///
    /// Under the restart lock: charge the restart budget (refusal ⇒
    /// permanent poison), consult the `"restart"` fault point, bump the
    /// generation, sweep in-flight calls per the [`OnRestart`] choice,
    /// re-run `state_init`, clear the poison, and wake everyone with a
    /// stake — the old-generation manager (whose next primitive fails with
    /// [`AlpsError::ObjectRestarting`], sending the supervisor loop back
    /// around), backpressured producers, and `when #P` guards.
    ///
    /// Cancellation of running bodies stays cooperative: a body in flight
    /// at restart time keeps running against the old state (its slot is
    /// abandoned and its outcome discarded). A `state_init` that must not
    /// race such stragglers should swap in fresh state atomically (e.g.
    /// replace the contents of an `Arc<Mutex<…>>`) rather than mutate in
    /// place.
    fn handle_body_panic(self: &Arc<Self>) {
        let Some(cfg) = &self.supervise else { return };
        // Commit point, before the restart lock: a restart is about to
        // sweep in-flight calls, racing callers publishing, cancelling,
        // and the manager finishing. No locks held yet.
        self.rt.sim_point(CommitPoint::RestartSweep);
        // Serialize concurrent panics: each performs (or is refused) one
        // restart, in panic order. The supervisor loop also takes this
        // lock as its re-entry barrier.
        let mut times = self.restart_times.lock();
        if self.is_closed() || self.perm_failed.load(Ordering::SeqCst) {
            return;
        }
        let now = self.rt.now();
        let allowed = match cfg.policy {
            RestartPolicy::Never => false,
            RestartPolicy::AlwaysFresh => true,
            RestartPolicy::RestartTransient {
                max_restarts,
                window_ticks,
            } => {
                times.retain(|t| now.saturating_sub(*t) < window_ticks);
                (times.len() as u32) < max_restarts
            }
        };
        // An injected `"restart"` Drop fails this attempt: the object
        // stays permanently poisoned, as if the rebuild itself died.
        if !allowed || self.rt.fault_point("restart") {
            self.perm_failed.store(true, Ordering::SeqCst);
            return;
        }
        times.push(now);
        // Bump the generation FIRST: every manager primitive re-checks it
        // under the entry lock, so no old-generation accept, start, or
        // finish can commit once the sweep below begins.
        self.generation.fetch_add(1, Ordering::SeqCst);
        self.restart_sweep(cfg.on_restart);
        // Rebuild user state. A panicking initializer fails the restart
        // permanently (poison), not the process.
        if let Some(init) = &cfg.state_init {
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(&**init)).is_err() {
                self.perm_failed.store(true, Ordering::SeqCst);
                return;
            }
        }
        self.stats.on_restart();
        self.poisoned.store(false, Ordering::SeqCst);
        drop(times);
        self.notifier.notify(&self.rt);
        self.space_notifier.notify(&self.rt);
    }

    /// The restart's in-flight sweep. Phase 1 empties the intake ring
    /// under the drain lock (FailInFlight only — under Requeue the ring
    /// holds exactly the calls no manager generation has seen, and the new
    /// generation's first drain classifies them in FIFO order). Phase 2
    /// walks each entry under its own lock — the drain lock is *not* held,
    /// matching `drain_intake`'s intake_drain → entry-lock order — and
    /// completes victims only after unlocking, mirroring `shutdown`.
    fn restart_sweep(self: &Arc<Self>, on: OnRestart) {
        let fail_unseen = matches!(on, OnRestart::FailInFlight);
        if fail_unseen {
            let _g = self.intake_drain.lock();
            while let Some((eidx, call)) = self.intake.pop() {
                self.estates[eidx as usize]
                    .in_ring
                    .fetch_sub(1, Ordering::SeqCst);
                if call.is_cancelled() {
                    if call.claim_tombstone() {
                        self.stats.on_reap();
                    }
                    self.release_cell(call);
                } else {
                    self.complete(&call, Err(self.restarting_err()));
                }
            }
        }
        for (entry, sync) in self.estates.iter().enumerate() {
            let mut victims: Vec<Arc<CallCell>> = Vec::new();
            let mut dispatches: Vec<(usize, ValVec)> = Vec::new();
            {
                let mut es = sync.st.lock();
                if fail_unseen {
                    let n = es.waitq.len();
                    victims.extend(es.waitq.drain(..));
                    if n > 0 {
                        sync.queued.fetch_sub(n, Ordering::SeqCst);
                    }
                }
                for s in &mut es.slots {
                    match std::mem::replace(s, Slot::Free) {
                        Slot::Free => {}
                        // An inline implicit body answers its own caller;
                        // an already-abandoned body is somebody else's
                        // cleanup. Both keep their slot.
                        keep @ (Slot::InlineBusy | Slot::Abandoned) => *s = keep,
                        Slot::Attached { call } => {
                            if fail_unseen {
                                sync.attached.fetch_sub(1, Ordering::SeqCst);
                                victims.push(call);
                            } else {
                                // Requeue: attached-but-unaccepted calls
                                // were never seen by the dead generation
                                // and survive in place.
                                *s = Slot::Attached { call };
                            }
                        }
                        // The dead generation's bookkeeping owned these —
                        // accepted, running, or holding a pre-restart
                        // result that must never be delivered.
                        Slot::Accepted { call } => victims.push(call),
                        Slot::Started { call } => {
                            // The body cannot be interrupted. It keeps
                            // the slot as Abandoned; `body_done`
                            // discards its outcome and frees it.
                            *s = Slot::Abandoned;
                            victims.push(call);
                        }
                        Slot::Ready { call, .. } => {
                            sync.ready.fetch_sub(1, Ordering::SeqCst);
                            victims.push(call);
                        }
                        Slot::Awaited { call, .. } => victims.push(call),
                    }
                }
                if !fail_unseen {
                    // Requeue: slots freed above (accepted/ready/awaited
                    // victims) immediately re-attach surviving queued
                    // calls, preserving per-entry FIFO.
                    for i in 0..es.slots.len() {
                        if !matches!(es.slots[i], Slot::Free) {
                            continue;
                        }
                        let Some(next) = es.waitq.pop_front() else {
                            break;
                        };
                        sync.queued.fetch_sub(1, Ordering::SeqCst);
                        if let Some(d) = self.attach_to_slot(&mut es, entry, i, next) {
                            dispatches.push(d);
                        }
                    }
                }
            }
            for call in victims {
                self.complete(&call, Err(self.restarting_err()));
            }
            for (i, params) in dispatches {
                self.dispatch_body(entry, i, params);
            }
        }
    }

    /// Inline implicit execution: the caller claimed `slot`
    /// (`Slot::InlineBusy`) and runs the body itself.
    fn run_inline(
        self: &Arc<Self>,
        entry: usize,
        slot: usize,
        args: ValVec,
        t_call: u64,
    ) -> Result<ValVec> {
        // The slot was free when we got here, so the attach wait is ~0;
        // reuse `t_call` as the start time instead of reading the clock
        // again.
        self.stats.on_attach(0);
        self.stats.on_implicit_start();
        let outcome = self.exec_checked_body(entry, slot, args);
        let done_at = self.rt.now();
        self.stats.on_service(done_at.saturating_sub(t_call));
        let dispatch = {
            let mut es = self.estates[entry].st.lock();
            match es.slots[slot] {
                Slot::InlineBusy => self.free_slot_and_pull(&mut es, entry, slot),
                // Shutdown swept the slot while the body ran; the call
                // fails like any other in-flight call at shutdown.
                _ => return Err(self.closed_err()),
            }
        };
        if let Some((i, params)) = dispatch {
            self.dispatch_body(entry, i, params);
        }
        match outcome {
            Ok(results) => {
                self.stats.on_complete(done_at.saturating_sub(t_call));
                Ok(results)
            }
            Err(msg) => {
                self.stats.on_body_failure();
                Err(AlpsError::BodyFailed {
                    entry: self.entries[entry].name.clone(),
                    message: msg,
                })
            }
        }
    }

    /// `#P`: attached-but-unaccepted plus queued calls, plus calls still
    /// in the intake ring (committed but not yet drained) — paper §2.5.1.
    /// Reads the per-entry atomic index — no lock.
    pub(crate) fn pending(&self, entry: usize) -> usize {
        let s = &self.estates[entry];
        s.attached.load(Ordering::SeqCst)
            + s.queued.load(Ordering::SeqCst)
            + s.in_ring.load(Ordering::SeqCst)
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
        // `call_protocol`. `in_ring` is decremented per popped item, never
        // zeroed, precisely because such in-flight producers still own
        // their increment.
        self.sweep_intake();
        let mut victims: Vec<Arc<CallCell>> = Vec::new();
        for sync in &self.estates {
            let mut es = sync.st.lock();
            victims.extend(es.waitq.drain(..));
            for s in &mut es.slots {
                match std::mem::replace(s, Slot::Free) {
                    // Abandoned: the caller was already answered by
                    // `cancel`; the still-running body's `body_done` finds
                    // the slot `Free` and treats it as swept.
                    Slot::Free | Slot::InlineBusy | Slot::Abandoned => {}
                    Slot::Attached { call }
                    | Slot::Accepted { call }
                    | Slot::Started { call }
                    | Slot::Ready { call, .. }
                    | Slot::Awaited { call, .. } => victims.push(call),
                }
            }
            sync.attached.store(0, Ordering::SeqCst);
            sync.queued.store(0, Ordering::SeqCst);
            sync.ready.store(0, Ordering::SeqCst);
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

/// Builder assembling an ALPS object from entry definitions, an optional
/// manager, and a pool mode; [`spawn`](ObjectBuilder::spawn) creates the
/// object and starts its manager process.
///
/// # Examples
///
/// A minimal managed object (monitor-style mutual exclusion via
/// `execute`, paper §1):
///
/// ```
/// use alps_core::{EntryDef, Guard, ObjectBuilder, Selected, Ty, vals};
/// use alps_runtime::SimRuntime;
///
/// let sim = SimRuntime::new();
/// let out = sim
///     .run(|rt| {
///         let counter = ObjectBuilder::new("Counter")
///             .entry(
///                 EntryDef::new("Incr")
///                     .params([Ty::Int])
///                     .results([Ty::Int])
///                     .intercepted()
///                     .body(|_ctx, args| {
///                         Ok(vec![alps_core::Value::Int(args[0].as_int()? + 1)])
///                     }),
///             )
///             .manager(|mgr| {
///                 loop {
///                     let acc = mgr.accept("Incr")?;
///                     mgr.execute(acc)?;
///                 }
///             })
///             .spawn(rt)
///             .unwrap();
///         counter.call("Incr", vals![41i64]).unwrap()[0].as_int().unwrap()
///     })
///     .unwrap();
/// assert_eq!(out, 42);
/// ```
pub struct ObjectBuilder {
    name: String,
    entries: Vec<EntryDef>,
    manager: Option<ManagerBody>,
    pool: PoolMode,
    manager_prio: Priority,
    poison_on_panic: bool,
    supervise: Option<RestartPolicy>,
    on_restart: OnRestart,
    state_init: Option<Box<dyn Fn() + Send + Sync + 'static>>,
    admission: AdmissionPolicy,
    intake_capacity: Option<usize>,
}

impl fmt::Debug for ObjectBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectBuilder")
            .field("name", &self.name)
            .field("entries", &self.entries)
            .field("has_manager", &self.manager.is_some())
            .field("pool", &self.pool)
            .finish()
    }
}

impl ObjectBuilder {
    /// Start building an object with the given name.
    pub fn new(name: impl Into<String>) -> ObjectBuilder {
        ObjectBuilder {
            name: name.into(),
            entries: Vec::new(),
            manager: None,
            pool: PoolMode::default(),
            manager_prio: Priority::MANAGER,
            poison_on_panic: false,
            supervise: None,
            on_restart: OnRestart::default(),
            state_init: None,
            admission: AdmissionPolicy::default(),
            intake_capacity: None,
        }
    }

    /// Poison the object when an entry body panics: subsequent calls fail
    /// fast with [`AlpsError::ObjectPoisoned`] instead of running against
    /// possibly-corrupt state. Off by default — a panicking body already
    /// fails its own caller with [`AlpsError::BodyFailed`], and many
    /// objects (e.g. the failure-injection tests) tolerate body panics
    /// without invariant damage.
    pub fn poison_on_panic(mut self, yes: bool) -> Self {
        self.poison_on_panic = yes;
        self
    }

    /// Supervise the object: an entry-body panic triggers the restart
    /// machinery instead of (only) poisoning. Per `policy` the object is
    /// swept of in-flight calls (see [`on_restart`](Self::on_restart)),
    /// its user state is rebuilt by the [`state_init`](Self::state_init)
    /// closure, its manager process body is re-entered at a bumped
    /// generation, and the poison is cleared — the object serves calls
    /// again. A refused restart (budget exhausted,
    /// [`RestartPolicy::Never`]) leaves the object permanently poisoned,
    /// exactly like [`poison_on_panic`](Self::poison_on_panic).
    ///
    /// While a restart is possible, rejected new calls and swept in-flight
    /// calls fail with the *transient* [`AlpsError::ObjectRestarting`]
    /// (retry-worthy — see [`Wait::Retry`]) rather than the
    /// permanent [`AlpsError::ObjectPoisoned`].
    pub fn supervise(mut self, policy: RestartPolicy) -> Self {
        self.supervise = Some(policy);
        self
    }

    /// What a supervised restart does with in-flight calls (default:
    /// [`OnRestart::FailInFlight`]). Only meaningful together with
    /// [`supervise`](Self::supervise).
    pub fn on_restart(mut self, choice: OnRestart) -> Self {
        self.on_restart = choice;
        self
    }

    /// Closure re-run on every supervised restart to rebuild the user
    /// state shared with the entry bodies (typically: reset the contents
    /// of the `Arc<Mutex<…>>` the bodies captured). Manager-closure-local
    /// state needs no initializer — the manager body is a `FnMut` that is
    /// simply re-entered from the top, rebuilding its own locals.
    pub fn state_init(mut self, f: impl Fn() + Send + Sync + 'static) -> Self {
        self.state_init = Some(Box::new(f));
        self
    }

    /// What the call protocol does when the bounded intake ring is full
    /// (default: [`AdmissionPolicy::Block`] — backpressure).
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Override the intake-ring capacity (rounded up to a power of two,
    /// minimum 2). The default is sized from the total slot count; shed
    /// policies usually want an explicit, small bound so overload is
    /// reached — and tested — deterministically.
    pub fn intake_capacity(mut self, n: usize) -> Self {
        self.intake_capacity = Some(n);
        self
    }

    /// Add an entry (or local) procedure.
    pub fn entry(mut self, def: EntryDef) -> Self {
        self.entries.push(def);
        self
    }

    /// Install the manager process body.
    pub fn manager<F>(mut self, f: F) -> Self
    where
        F: FnMut(&mut ManagerCtx) -> Result<()> + Send + 'static,
    {
        self.manager = Some(Box::new(f));
        self
    }

    /// Choose how entry executions map to processes (default:
    /// [`PoolMode::PerSlot`]).
    pub fn pool(mut self, mode: PoolMode) -> Self {
        self.pool = mode;
        self
    }

    /// Scheduling priority of the manager process (default
    /// [`Priority::MANAGER`], the paper's recommendation that the manager
    /// run "at a higher priority compared to the other processes in the
    /// object"). Experiment E8 lowers it to quantify the recommendation.
    pub fn manager_priority(mut self, prio: Priority) -> Self {
        self.manager_prio = prio;
        self
    }

    /// Validate the definition, create the object, start its pool workers
    /// and manager process.
    ///
    /// # Errors
    ///
    /// [`AlpsError::BadDefinition`] for inconsistent definitions:
    /// duplicate entry names, a missing body, an intercept prefix longer
    /// than the signature, hidden parameters/results on a non-intercepted
    /// entry, interception without a manager, or an empty shared pool.
    pub fn spawn(self, rt: &Runtime) -> Result<ObjectHandle> {
        let bad = |reason: String| AlpsError::BadDefinition { reason };
        let mut by_name = HashMap::new();
        for (i, e) in self.entries.iter().enumerate() {
            if by_name.insert(e.name.clone(), i).is_some() {
                return Err(bad(format!("duplicate entry `{}`", e.name)));
            }
            if e.body.is_none() {
                return Err(bad(format!("entry `{}` has no body", e.name)));
            }
            if let Some(ic) = e.intercept {
                if ic.params > e.params.len() {
                    return Err(bad(format!(
                        "entry `{}` intercepts {} parameters but declares {}",
                        e.name,
                        ic.params,
                        e.params.len()
                    )));
                }
                if ic.results > e.results.len() {
                    return Err(bad(format!(
                        "entry `{}` intercepts {} results but declares {}",
                        e.name,
                        ic.results,
                        e.results.len()
                    )));
                }
                if self.manager.is_none() {
                    return Err(bad(format!(
                        "entry `{}` is intercepted but the object has no manager",
                        e.name
                    )));
                }
            } else if !e.hidden_params.is_empty() || !e.hidden_results.is_empty() {
                return Err(bad(format!(
                    "entry `{}` declares hidden parameters/results but is not intercepted \
                     (only the manager can supply or receive them)",
                    e.name
                )));
            }
        }
        if let PoolMode::Shared(0) = self.pool {
            return Err(bad("shared pool must have at least one process".into()));
        }
        let mut slot_base = Vec::with_capacity(self.entries.len());
        let mut total = 0usize;
        for e in &self.entries {
            slot_base.push(total);
            total += e.array;
        }
        let estates: Vec<EntrySync> = self
            .entries
            .iter()
            .map(|e| EntrySync::new(e.array))
            .collect();
        let full_results: Vec<Vec<Ty>> = self.entries.iter().map(|e| e.full_results()).collect();
        let pool = Pool::new(rt.clone(), self.name.clone(), self.pool, total);
        let supervise = self.supervise.map(|policy| SuperviseCfg {
            policy,
            on_restart: self.on_restart,
            state_init: self.state_init,
        });
        let inner = Arc::new(ObjectInner {
            name: self.name.clone(),
            rt: rt.clone(),
            uid: OBJECT_UID.fetch_add(1, Ordering::Relaxed),
            entries: self.entries,
            by_name,
            slot_base,
            estates,
            notifier: Notifier::new(),
            stats: ObjectStats::new(),
            closed: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            poison_on_panic: self.poison_on_panic,
            pool,
            manager_error: Mutex::new(None),
            cell_pool: Mutex::new(Vec::new()),
            cell_cap: (total * 2).clamp(8, 256),
            full_results,
            // Sized so a storm of callers (far more than slots) rarely
            // hits the full-ring admission path, yet small enough to stay
            // cache-resident; shed policies usually override the bound.
            intake: IntakeRing::with_capacity(
                self.intake_capacity
                    .map(|n| n.next_power_of_two().max(2))
                    .unwrap_or_else(|| (total * 8).next_power_of_two().clamp(64, 1024)),
            ),
            intake_drain: Mutex::new(()),
            mgr_active: AtomicBool::new(true),
            mgr_poll: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            supervise,
            restart_times: Mutex::new(Vec::new()),
            perm_failed: AtomicBool::new(false),
            admission: self.admission,
            space_notifier: Notifier::new(),
        });
        if let Some(mut body) = self.manager {
            let mgr_inner = Arc::clone(&inner);
            let supervised = mgr_inner.supervise.is_some();
            // The supervisor loop: the body is a `FnMut`, so a supervised
            // restart simply re-enters it from the top with a fresh
            // generation-tagged context — its closure-local state (counts,
            // free lists, …) rebuilds naturally.
            let opts = Spawn::new(format!("{}:manager", self.name))
                .prio(self.manager_prio)
                .daemon(true);
            rt.spawn_with(opts, move || loop {
                let mut ctx = ManagerCtx::new(Arc::clone(&mgr_inner));
                match body(&mut ctx) {
                    Ok(()) | Err(AlpsError::ObjectClosed { .. }) | Err(AlpsError::Runtime(_)) => {
                        break
                    }
                    Err(AlpsError::ObjectRestarting { .. }) if supervised => {
                        // A restart invalidated this generation. Wait
                        // for the in-flight sweep and state rebuild to
                        // complete (the restart holds this lock
                        // throughout) before re-entering, so the new
                        // generation never observes a half-swept
                        // object — that barrier is what makes "zero
                        // stale pre-restart replies" hold.
                        drop(mgr_inner.restart_times.lock());
                        // A restart whose rebuild failed leaves the
                        // object permanently poisoned: nothing will
                        // ever be admitted again, so don't re-enter.
                        if mgr_inner.perm_failed.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    Err(e) => {
                        *mgr_inner.manager_error.lock() = Some(e);
                        mgr_inner.shutdown();
                        break;
                    }
                }
            });
        }
        Ok(ObjectHandle {
            core: Arc::new(HandleCore { inner }),
        })
    }
}

struct HandleCore {
    inner: Arc<ObjectInner>,
}

impl Drop for HandleCore {
    fn drop(&mut self) {
        self.inner.shutdown();
    }
}

/// Handle to a live ALPS object. Cloning shares the handle; the object is
/// shut down when the last clone drops (or explicitly via
/// [`shutdown`](ObjectHandle::shutdown)).
#[derive(Clone)]
pub struct ObjectHandle {
    core: Arc<HandleCore>,
}

impl fmt::Debug for ObjectHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.core.inner.fmt(f)
    }
}

impl ObjectHandle {
    /// The object's name.
    pub fn name(&self) -> &str {
        &self.core.inner.name
    }

    /// Intern an entry name, resolving it once to a copyable [`EntryId`]
    /// for use with [`call_id`](Self::call_id). Resolve ids right after
    /// [`ObjectBuilder::spawn`] and reuse them for every call.
    ///
    /// # Errors
    ///
    /// [`AlpsError::UnknownEntry`] for a bad name.
    pub fn entry_id(&self, entry: &str) -> Result<EntryId> {
        let idx = self.core.inner.entry_idx(entry)?;
        Ok(self.entry_at(idx as u32))
    }

    /// Names of the object's externally callable entries (locals are
    /// omitted — they would fail with [`AlpsError::LocalEntryCalled`]).
    /// This is the table a network server exports during the wire
    /// handshake so remote callers can intern [`EntryId`]s by name.
    pub fn entry_names(&self) -> Vec<String> {
        self.core
            .inner
            .entries
            .iter()
            .filter(|e| !e.local)
            .map(|e| e.name.clone())
            .collect()
    }

    /// This object's id for entry `idx` of its table: how a sharded group
    /// turns one group-wide index into each shard's own [`EntryId`].
    pub(crate) fn entry_at(&self, idx: u32) -> EntryId {
        EntryId {
            obj: self.core.inner.uid,
            idx,
        }
    }

    /// Whether `other` has the same entry names in the same order, so an
    /// index into one table names the same entry in the other.
    pub(crate) fn same_entries(&self, other: &ObjectHandle) -> bool {
        let (mine, theirs) = (&self.core.inner.entries, &other.core.inner.entries);
        mine.iter()
            .map(|e| &e.name)
            .eq(theirs.iter().map(|e| &e.name))
    }

    /// Call an entry procedure and block until it finishes (ALPS
    /// `X.P(params, results)`, paper §2.2). The reply carries the public
    /// results.
    ///
    /// This is the resolving wrapper around the fast path: it interns the
    /// entry name ([`entry_id`](Self::entry_id)) and delegates to
    /// [`call_id`](Self::call_id) — one protocol implementation, not two.
    /// Hot callers should intern once themselves and call `call_id`
    /// directly to skip the per-call hash lookup.
    ///
    /// # Errors
    ///
    /// [`AlpsError::UnknownEntry`] for a bad name, else as
    /// [`call_with`](Self::call_with).
    pub fn call(&self, entry: &str, args: Vec<Value>) -> Result<Vec<Value>> {
        let id = self.entry_id(entry)?;
        self.call_id(id, args).map(Vec::from)
    }

    /// The allocation-light fast path: call an entry through an interned
    /// [`EntryId`] and wait without limit — `call_with(id, args,
    /// Wait::Unbounded)`. Semantically identical to [`call`](Self::call)
    /// minus the per-call name resolution, and with inline
    /// argument/result tuples ([`ValVec`]) so a steady-state call of
    /// arity ≤ 4 performs no heap allocation.
    ///
    /// ```no_run
    /// # use alps_core::{argv, ObjectBuilder, EntryDef, Ty};
    /// # use alps_runtime::Runtime;
    /// # let rt = Runtime::threaded();
    /// # let obj = ObjectBuilder::new("X")
    /// #     .entry(EntryDef::new("P").params([Ty::Int]).body(|_, _| Ok(vec![])))
    /// #     .spawn(&rt).unwrap();
    /// let p = obj.entry_id("P")?;
    /// for i in 0..1000i64 {
    ///     obj.call_id(p, argv![i])?;
    /// }
    /// # Ok::<(), alps_core::AlpsError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As [`call_with`](Self::call_with).
    pub fn call_id(&self, id: EntryId, args: impl Into<ValVec>) -> Result<ValVec> {
        self.call_with(id, args, Wait::Unbounded)
    }

    /// Call an entry through an interned [`EntryId`] and wait as `wait`
    /// says ([`Wait`]). Every other call form on this handle is this one.
    /// A retry's backoff jitter comes from
    /// [`Runtime::rand_u64`](alps_runtime::Runtime::rand_u64), so a seeded
    /// simulation replays it bit-for-bit.
    ///
    /// # Errors
    ///
    /// * [`AlpsError::ForeignEntryId`] for an id minted by another object;
    /// * [`AlpsError::LocalEntryCalled`] and arity/type mismatches;
    /// * [`AlpsError::ObjectClosed`] if the object shuts down first;
    /// * [`AlpsError::BodyFailed`] if the entry body fails;
    /// * [`AlpsError::Timeout`] when a deadline expires; under a retry,
    ///   the last transient error once every attempt failed.
    pub fn call_with(&self, id: EntryId, args: impl Into<ValVec>, wait: Wait) -> Result<ValVec> {
        let inner = &self.core.inner;
        if id.obj != inner.uid {
            return Err(AlpsError::ForeignEntryId {
                object: inner.name.clone(),
            });
        }
        let idx = id.idx as usize;
        let args: ValVec = args.into();
        let policy = match wait {
            Wait::Unbounded => return inner.call_protocol(idx, args, true, None),
            Wait::Deadline(ticks) => return inner.call_protocol(idx, args, true, Some(ticks)),
            Wait::Retry(policy) => policy,
        };
        let seen = Cell::new(0);
        policy.run(
            &inner.rt,
            &inner.entries[idx].name,
            inner.stats.retry_counter(),
            |ticks| {
                // Epoch read BEFORE the attempt: if the attempt fails with
                // ObjectRestarting and the restart completes before we
                // register as a waiter below, the epoch has already moved
                // and the wait returns immediately — no lost wakeup.
                seen.set(inner.notifier.epoch());
                inner.call_protocol(idx, args.clone(), true, Some(ticks))
            },
            |e, ticks| {
                // A refused call returns without a scheduling point, so a
                // zero-backoff loop would burn every attempt while the
                // restart sweep is parked mid-window (the schedule
                // explorer's PreemptionBounded strategy found exactly
                // this). Wait for the restart's completion notify
                // instead, bounded by this attempt's budget slice.
                // Refused callers never bump the notifier, so the wait is
                // not woken spuriously by rivals.
                if matches!(e, AlpsError::ObjectRestarting { .. }) {
                    let until = inner.rt.now().saturating_add(ticks);
                    inner
                        .notifier
                        .wait_past_deadline(&inner.rt, seen.get(), until);
                }
            },
        )
    }

    /// The object's restart generation: 0 at spawn, incremented by every
    /// supervised restart ([`ObjectBuilder::supervise`]).
    pub fn generation(&self) -> u64 {
        self.core.inner.generation.load(Ordering::SeqCst)
    }

    /// Call a procedure *as if from inside the object*, through an
    /// interned [`EntryId`]: local procedures are callable and, when
    /// intercepted, go through the full attach/accept/start/finish
    /// protocol. Intended for language runtimes running procedure bodies
    /// (`alps-lang`); ordinary clients should use
    /// [`call_id`](Self::call_id).
    ///
    /// # Errors
    ///
    /// As [`call_id`](Self::call_id), except local procedures are
    /// permitted.
    pub fn call_from_inside_id(&self, id: EntryId, args: impl Into<ValVec>) -> Result<ValVec> {
        let inner = &self.core.inner;
        if id.obj != inner.uid {
            return Err(AlpsError::ForeignEntryId {
                object: inner.name.clone(),
            });
        }
        inner.call_protocol(id.idx as usize, args.into(), false, None)
    }

    /// `#P` for an entry: calls attached-but-unaccepted plus queued
    /// (paper §2.5.1; Ada `COUNT` / SR `?` analogue). Lock-free.
    ///
    /// # Errors
    ///
    /// [`AlpsError::UnknownEntry`] for bad names.
    pub fn pending(&self, entry: &str) -> Result<usize> {
        let inner = &self.core.inner;
        let idx = inner.entry_idx(entry)?;
        Ok(inner.pending(idx))
    }

    /// Instrumentation counters for this object.
    pub fn stats(&self) -> ObjectStats {
        self.core.inner.stats.clone()
    }

    /// How many runtime processes the object's pool created (experiment
    /// E7's cost metric).
    pub fn pool_procs_spawned(&self) -> u64 {
        self.core.inner.pool.procs_spawned()
    }

    /// Shut the object down now: in-flight and future calls fail with
    /// [`AlpsError::ObjectClosed`]; the manager and pool workers exit.
    pub fn shutdown(&self) {
        self.core.inner.shutdown();
    }

    /// Whether the object has been shut down.
    pub fn is_closed(&self) -> bool {
        self.core.inner.is_closed()
    }

    /// Whether an entry-body panic poisoned the object (only possible
    /// with [`ObjectBuilder::poison_on_panic`]).
    pub fn is_poisoned(&self) -> bool {
        self.core.inner.is_poisoned()
    }

    /// If the manager exited with an error (other than the normal
    /// shutdown path), that error.
    pub fn manager_error(&self) -> Option<AlpsError> {
        self.core.inner.manager_error.lock().clone()
    }

    /// Number of body executions the pool has run.
    pub fn pool_jobs_executed(&self) -> u64 {
        self.core.inner.pool.jobs_executed()
    }
}

use crate::value::Value;
