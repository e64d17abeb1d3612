//! The call cell and the hidden procedure arrays: every slot transition,
//! every wait-queue change, and the counts behind `#P`.
//!
//! Every hidden-procedure-array slot moves through the protocol of paper
//! §2.3/§2.5 ([`Slot`]):
//!
//! ```text
//!        attach            accept             start            body done
//! Free ─────────▶ Attached ───────▶ Accepted ───────▶ Started ───────────▶ Ready
//!  ▲                                   │                                     │
//!  │        finish_accepted (§2.7)     │                                     │ await
//!  │◀──────────────────────────────────┘                 finish              ▼
//!  │◀──────────────────────────────────────────────────────────────────── Awaited
//! ```
//!
//! * An implicit entry (not intercepted, §2.3) starts at attach:
//!   `Free → Started` with the body on the pool, or `Free → InlineBusy`
//!   when the caller finds a free slot and runs the body itself. Either
//!   frees the slot when the body is done.
//! * `execute` fuses `start; await; finish`: `Accepted → Started → Free`.
//! * A caller whose deadline expired frees its own `Attached` slot.
//! * A restart turns `Started` slots `Abandoned` and frees every other
//!   occupied one; an `Abandoned` slot frees when its body is done. Only
//!   a restart abandons a slot. Shutdown frees every slot.
//!
//! Calls that find no free slot wait in a FIFO queue and attach when a
//! slot frees. `#P` counts attached and queued calls (paper §2.5.1), plus
//! the entry's calls still in the intake ring ([`crate::intake`]). Beside
//! it the table counts the slots `start` left `Started`: bodies on the
//! pool that the manager has yet to see finish, which tell its idle wait
//! to yield briefly ([`SlotTable::bodies_in_flight`]).

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use alps_runtime::{tuning, CommitPoint, ProcId};
use parking_lot::{Mutex, MutexGuard};

use crate::error::{AlpsError, Result};
use crate::object::ObjectInner;
use crate::value::ValVec;

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

/// One in-flight rendezvous between a caller and the object: plain
/// atomics plus a oneshot result cell.
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
///   when the caller is still in its yield phase. The flag and the
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
    caller: ProcId,
    t_call: u64,
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
        self.cas(CALL_WAITING, CALL_DONE)
    }

    /// Caller side, deadline path: claim the cell back. Succeeds iff no
    /// completer has delivered yet; on success the caller owns the
    /// `Timeout` outcome and every later completion attempt is discarded.
    fn cancel(&self) -> bool {
        self.cas(CALL_WAITING, CALL_CANCELLED)
    }

    /// Move the call state `from → to`; whether this side won.
    fn cas(&self, from: u32, to: u32) -> bool {
        self.state
            .compare_exchange(from, to, Ordering::SeqCst, Ordering::SeqCst)
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
        self.cas(CALL_CANCELLED, CALL_TOMBSTONE)
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
        *self.state.get_mut() = CALL_WAITING;
        *self.waiting.get_mut() = false;
        *self.result.get_mut() = None;
    }
}

/// Slot states of the hidden-procedure-array protocol (see the module
/// docs for the transitions).
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
        /// Left here by the manager's `start`: a body on the pool whose
        /// `Ready` the manager awaits. False for `execute`, whose body
        /// the manager runs itself, and for an implicit call.
        by_start: bool,
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
    /// A restart swept a `Started` call: the caller was answered
    /// already, but the body is still running and owns the slot until
    /// `body_done` discards its outcome and frees it.
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

    /// The call whose caller this slot still owes an answer, if any.
    #[inline]
    pub(crate) fn into_call(self) -> Option<Arc<CallCell>> {
        match self {
            Slot::Attached { call }
            | Slot::Accepted { call }
            | Slot::Started { call, .. }
            | Slot::Ready { call, .. }
            | Slot::Awaited { call, .. } => Some(call),
            Slot::Free | Slot::InlineBusy | Slot::Abandoned => None,
        }
    }
}

/// A slot whose implicit call has just started: `(slot, params)` for
/// [`ObjectInner::dispatch_body`] to hand to the pool once the entry lock
/// is released.
pub(crate) type Dispatch = Option<(usize, ValVec)>;

/// Every entry's hidden procedure array and wait queue, and the free list
/// of call cells. Aligned to its own cache lines for the reason
/// [`Intake`](crate::intake::Intake) is: callers and the manager both take
/// the free-list lock on every call.
#[repr(align(128))]
pub(crate) struct SlotTable {
    entries: Box<[EntrySync]>,
    /// Recycled [`CallCell`]s; bounded by `cell_cap`.
    free_cells: Mutex<Vec<Arc<CallCell>>>,
    cell_cap: usize,
}

/// One entry's synchronization block: its own lock (so unrelated entries
/// never contend) plus the counts that `#P`, guard pre-checks, the
/// manager's wait and monitoring read without taking any lock. Only
/// [`EntryState`] writes them, in the same step as the slot or queue
/// change they count.
struct EntrySync {
    st: Mutex<Table>,
    /// Slots in state `Attached`.
    attached: AtomicUsize,
    /// Calls in the wait queue.
    queued: AtomicUsize,
    /// Slots in state `Ready`.
    ready: AtomicUsize,
    /// Slots in state `Started` by `start`: bodies the manager started
    /// on the pool and has not seen finish.
    started: AtomicUsize,
}

struct Table {
    slots: Vec<Slot>,
    waitq: VecDeque<Arc<CallCell>>,
}

impl EntrySync {
    /// The count that tracks slots in state `s`, if any.
    #[inline]
    fn count_of(&self, s: &Slot) -> Option<&AtomicUsize> {
        match s {
            Slot::Attached { .. } => Some(&self.attached),
            Slot::Ready { .. } => Some(&self.ready),
            Slot::Started { by_start: true, .. } => Some(&self.started),
            _ => None,
        }
    }
}

impl SlotTable {
    /// One array of `arrays[e]` free slots per entry `e`; the cell free
    /// list holds up to `2 × total` slots, clamped to [8, 256].
    pub(crate) fn new(arrays: impl Iterator<Item = usize>, total: usize) -> SlotTable {
        let entries = arrays
            .map(|n| EntrySync {
                st: Mutex::new(Table {
                    slots: (0..n).map(|_| Slot::Free).collect(),
                    waitq: VecDeque::new(),
                }),
                attached: AtomicUsize::new(0),
                queued: AtomicUsize::new(0),
                ready: AtomicUsize::new(0),
                started: AtomicUsize::new(0),
            })
            .collect();
        SlotTable {
            entries,
            free_cells: Mutex::new(Vec::new()),
            cell_cap: (total * 2).clamp(8, 256),
        }
    }

    #[inline]
    pub(crate) fn lock(&self, entry: usize) -> EntryState<'_> {
        let sync = &self.entries[entry];
        EntryState {
            t: sync.st.lock(),
            sync,
        }
    }

    /// `Attached` slots of `entry`. Lock-free.
    #[inline]
    pub(crate) fn attached(&self, entry: usize) -> usize {
        self.entries[entry].attached.load(Ordering::SeqCst)
    }

    /// `Ready` slots of `entry`. Lock-free.
    #[inline]
    pub(crate) fn ready(&self, entry: usize) -> usize {
        self.entries[entry].ready.load(Ordering::SeqCst)
    }

    /// Attached plus queued calls of `entry`: `#P` short of the calls
    /// still in the intake ring. Lock-free.
    #[inline]
    pub(crate) fn pending(&self, entry: usize) -> usize {
        let s = &self.entries[entry];
        s.attached.load(Ordering::SeqCst) + s.queued.load(Ordering::SeqCst)
    }

    /// Whether any body the manager started on the pool has yet to
    /// finish. Lock-free and relaxed: a hint for how the manager yields,
    /// never a guard.
    #[inline]
    pub(crate) fn bodies_in_flight(&self) -> bool {
        self.entries
            .iter()
            .any(|s| s.started.load(Ordering::Relaxed) > 0)
    }
}

/// One entry's slots and wait queue, locked. Every write to either goes
/// through a method here, which moves the lock-free counts with it.
///
/// The small accessors here, on [`SlotTable`], on the intake and on the
/// supervisor are `#[inline]`: their callers sit in other modules, and
/// without it `rw_select` read ~5 % slower than the direct field access
/// they replace (2 vCPUs, alternating pairs).
pub(crate) struct EntryState<'a> {
    t: MutexGuard<'a, Table>,
    sync: &'a EntrySync,
}

impl EntryState<'_> {
    #[inline]
    pub(crate) fn slots(&self) -> &[Slot] {
        &self.t.slots
    }

    #[inline]
    pub(crate) fn free_slot(&self) -> Option<usize> {
        self.t.slots.iter().position(|s| matches!(s, Slot::Free))
    }

    #[inline]
    pub(crate) fn queued(&self) -> usize {
        self.t.waitq.len()
    }

    /// The one slot transition: put `new` in slot `i` and return what it
    /// held, moving `attached`/`ready`/`started` from the old state to the
    /// new one. The count of the new state rises before that of the old
    /// one falls, so a lock-free reader never sees a call missing.
    #[inline]
    pub(crate) fn replace(&mut self, i: usize, new: Slot) -> Slot {
        let old = std::mem::replace(&mut self.t.slots[i], new);
        if let Some(c) = self.sync.count_of(&self.t.slots[i]) {
            c.fetch_add(1, Ordering::SeqCst);
        }
        if let Some(c) = self.sync.count_of(&old) {
            c.fetch_sub(1, Ordering::SeqCst);
        }
        self.check_counts();
        old
    }

    #[inline]
    pub(crate) fn push(&mut self, call: Arc<CallCell>) {
        self.t.waitq.push_back(call);
        self.sync.queued.fetch_add(1, Ordering::SeqCst);
        self.check_counts();
    }

    #[inline]
    fn pop(&mut self) -> Option<Arc<CallCell>> {
        let call = self.t.waitq.pop_front()?;
        self.sync.queued.fetch_sub(1, Ordering::SeqCst);
        self.check_counts();
        Some(call)
    }

    /// Take `call` out of the queue; whether it was there.
    fn remove(&mut self, call: &Arc<CallCell>) -> bool {
        let Some(pos) = self.t.waitq.iter().position(|c| Arc::ptr_eq(c, call)) else {
            return false;
        };
        self.t.waitq.remove(pos);
        self.sync.queued.fetch_sub(1, Ordering::SeqCst);
        self.check_counts();
        true
    }

    pub(crate) fn drain(&mut self) -> VecDeque<Arc<CallCell>> {
        let calls = std::mem::take(&mut self.t.waitq);
        self.sync.queued.fetch_sub(calls.len(), Ordering::SeqCst);
        self.check_counts();
        calls
    }

    /// A restart's or shutdown's pass over the slots: `to` names each
    /// slot's new state (`None` leaves it), and the calls that lose their
    /// slot are added to `victims` for the sweeper to answer.
    pub(crate) fn sweep(
        &mut self,
        to: impl Fn(&Slot) -> Option<Slot>,
        victims: &mut Vec<Arc<CallCell>>,
    ) {
        for i in 0..self.t.slots.len() {
            if let Some(new) = to(&self.t.slots[i]) {
                victims.extend(self.replace(i, new).into_call());
            }
        }
    }

    /// The counts equal a census of the slots and the queue. Runs under
    /// the entry lock, so the census is consistent; compiled out in
    /// release builds.
    fn check_counts(&self) {
        let census = |f: fn(&Slot) -> bool| self.t.slots.iter().filter(|s| f(s)).count();
        let load = |c: &AtomicUsize| c.load(Ordering::SeqCst);
        let c = self.sync;
        debug_assert_eq!(
            (
                load(&c.attached),
                load(&c.ready),
                load(&c.queued),
                load(&c.started)
            ),
            (
                census(|s| matches!(s, Slot::Attached { .. })),
                census(|s| matches!(s, Slot::Ready { .. })),
                self.t.waitq.len(),
                census(|s| matches!(s, Slot::Started { by_start: true, .. }))
            ),
            "(attached, ready, queued, started) disagree with a census of the slots and the queue"
        );
    }
}

impl ObjectInner {
    /// Draw a call cell from the free list, or allocate one.
    pub(crate) fn acquire_cell(&self, args: ValVec, caller: ProcId, t_call: u64) -> Arc<CallCell> {
        if let Some(mut arc) = self.slots.free_cells.lock().pop() {
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
    /// The caller and the manager completing its call both let go through
    /// here, so whichever is last recycles the cell; only when both let go
    /// at once does neither see itself last, and the cell is freed.
    pub(crate) fn release_cell(&self, call: Arc<CallCell>) {
        if Arc::strong_count(&call) != 1 {
            return;
        }
        let mut free = self.slots.free_cells.lock();
        if free.len() < self.slots.cell_cap {
            free.push(call);
        }
    }

    /// Complete a call: deliver the result and unpark the caller — unless
    /// the caller has not announced a park (`waiting` false), in which
    /// case it is still in its yield phase and will pick the result
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
            self.tombstone(call);
            false
        }
    }

    /// Acknowledge a cancelled call, counting the reap once.
    pub(crate) fn tombstone(&self, call: &CallCell) {
        if call.claim_tombstone() {
            self.stats.on_reap();
        }
    }

    /// Attach `call` to the known-free slot `i`.
    fn attach_to_slot(
        self: &Arc<Self>,
        es: &mut EntryState<'_>,
        entry: usize,
        i: usize,
        call: Arc<CallCell>,
    ) -> Dispatch {
        if self.entries[entry].intercept.is_some() {
            es.replace(i, Slot::Attached { call });
            self.notifier.notify(&self.rt);
            None
        } else {
            // Implicit start (paper §2.3: calls to procedures not listed
            // in the intercepts clause are started implicitly). The
            // intercept prefix is empty, so the body takes the full
            // argument tuple — moved out of the cell, not cloned: nobody
            // reads `args` once the slot is `Started`.
            let params = call.take_args();
            es.replace(
                i,
                Slot::Started {
                    call,
                    by_start: false,
                },
            );
            self.stats.on_implicit_start();
            Some((i, params))
        }
    }

    /// Free slot `i` of `entry` and attach the next queued call, if any.
    /// Returns an implicit-start dispatch to run after unlocking.
    pub(crate) fn free_slot_and_pull(
        self: &Arc<Self>,
        es: &mut EntryState<'_>,
        entry: usize,
        i: usize,
    ) -> Dispatch {
        es.replace(i, Slot::Free);
        let next = es.pop()?;
        self.attach_to_slot(es, entry, i, next)
    }

    /// [`free_slot_and_pull`](Self::free_slot_and_pull) for an
    /// intercepted entry, whose next queued call only attaches: it never
    /// self-starts.
    pub(crate) fn free_managed_slot(
        self: &Arc<Self>,
        es: &mut EntryState<'_>,
        entry: usize,
        i: usize,
    ) {
        let dispatch = self.free_slot_and_pull(es, entry, i);
        debug_assert!(dispatch.is_none(), "intercepted entries never self-start");
    }

    /// Block until `call` completes.
    ///
    /// Without a deadline, an `adaptive` wait (a ring call, answered by
    /// the manager) yields a bounded number of times while the manager is
    /// awake, then announces (`waiting = true`) and parks. It never spins:
    /// a spinning green task holds the worker the manager may need. Other
    /// waits (queued implicit calls, answered by a pool worker) park at
    /// once, and so does every wait on the simulation executor, where a
    /// blocked process never observes progress by yielding.
    ///
    /// `deadline` is `(absolute expiry, budget)`. A caller that opted into
    /// one is latency-tolerant by definition, so it parks with a timer
    /// straight away. On expiry it races the completer with a `cancel`
    /// CAS; losing the race means the result was published first and is
    /// taken normally.
    pub(crate) fn wait_for_reply(
        self: &Arc<Self>,
        call: &Arc<CallCell>,
        entry: usize,
        adaptive: bool,
        deadline: Option<(u64, u64)>,
    ) -> Result<ValVec> {
        let adaptive = adaptive && deadline.is_none();
        if adaptive && !self.rt.is_sim() {
            // Yield phase: worth it only while the manager is running —
            // each yield hands it the CPU (single-core) or leaves it
            // draining (multi-core).
            let mut spent = 0;
            while spent < tuning::CALLER_YIELD_BUDGET && self.intake.manager_active() {
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
            let Some((at, budget)) = deadline else {
                self.rt.park();
                continue;
            };
            let now = self.rt.now();
            if now >= at {
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
            self.rt.park_timeout(at - now);
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
        let mut removed = true;
        let dispatch = {
            let mut es = self.slots.lock(entry);
            let attached =
                |s: &Slot| matches!(s, Slot::Attached { call: c } if Arc::ptr_eq(c, call));
            if es.remove(call) {
                None
            } else if let Some(i) = es.slots().iter().position(attached) {
                // Dropping the slot's clone here; free_slot_and_pull hands
                // the slot to the next queued call.
                self.free_slot_and_pull(&mut es, entry, i)
            } else {
                removed = false;
                None
            }
        };
        if removed {
            self.tombstone(call);
            // `#P` shrank; a `when`-condition watching it may now hold.
            self.notifier.notify(&self.rt);
        }
        self.dispatch_body(entry, dispatch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alps_runtime::SimRuntime;

    fn counts(t: &SlotTable) -> (usize, usize, usize) {
        (t.attached(0), t.pending(0) - t.attached(0), t.ready(0))
    }

    /// Every slot transition of the protocol, the queue operations, and
    /// the restart and shutdown sweeps keep `attached`, `queued` and
    /// `ready` equal to a census of the table (`check_counts` asserts it
    /// after each step in debug builds; the asserts here pin the values).
    #[test]
    fn counts_follow_every_transition() {
        let sim = SimRuntime::new();
        sim.run(|rt| {
            let cell = || Arc::new(CallCell::new(ValVec::new(), rt.current(), 0));
            let t = SlotTable::new([3].into_iter(), 3);
            let mut es = t.lock(0);
            let call = |s: Slot| s.into_call().expect("slot holds a call");

            // Attach, accept, start, body done, await, finish.
            es.replace(0, Slot::Attached { call: cell() });
            assert_eq!(counts(&t), (1, 0, 0));
            let c = call(es.replace(0, Slot::Free));
            es.replace(0, Slot::Accepted { call: c });
            assert_eq!(counts(&t), (0, 0, 0));
            let c = call(es.replace(0, Slot::Free));
            let by_start = true;
            es.replace(0, Slot::Started { call: c, by_start });
            let c = call(es.replace(0, Slot::Free));
            let outcome = Ok(ValVec::new());
            es.replace(0, Slot::Ready { call: c, outcome });
            assert_eq!(counts(&t), (0, 0, 1));
            let c = call(es.replace(0, Slot::Free));
            assert_eq!(counts(&t), (0, 0, 0));
            let remainder = ValVec::new();
            es.replace(0, Slot::Awaited { call: c, remainder });
            es.replace(0, Slot::Free);

            // Inline implicit body; a started body a restart abandoned.
            es.replace(1, Slot::InlineBusy);
            es.replace(1, Slot::Free);
            let call2 = cell();
            es.replace(
                2,
                Slot::Started {
                    call: call2,
                    by_start,
                },
            );
            es.replace(2, Slot::Abandoned);
            assert_eq!(counts(&t), (0, 0, 0));

            // Queue: push, remove, pop.
            let (q1, q2) = (cell(), cell());
            es.push(Arc::clone(&q1));
            es.push(Arc::clone(&q2));
            assert_eq!(counts(&t), (0, 2, 0));
            assert!(es.remove(&q1));
            assert!(!es.remove(&q1));
            assert!(Arc::ptr_eq(&es.pop().expect("one queued"), &q2));
            assert_eq!(counts(&t), (0, 0, 0));

            // A restart sweep over Attached, Ready and
            // Abandoned slots, and a drained queue.
            es.replace(0, Slot::Attached { call: cell() });
            let outcome = Err("boom".to_string());
            es.replace(
                1,
                Slot::Ready {
                    call: cell(),
                    outcome,
                },
            );
            es.push(cell());
            assert_eq!(counts(&t), (1, 1, 1));
            let mut victims: Vec<_> = es.drain().into();
            es.sweep(
                |s| match s {
                    Slot::Free | Slot::InlineBusy | Slot::Abandoned => None,
                    Slot::Started { .. } => Some(Slot::Abandoned),
                    _ => Some(Slot::Free),
                },
                &mut victims,
            );
            assert_eq!(victims.len(), 3);
            assert_eq!(counts(&t), (0, 0, 0));
            assert!(matches!(es.slots()[2], Slot::Abandoned));

            // Shutdown's sweep frees every slot, Abandoned included.
            es.replace(0, Slot::Attached { call: cell() });
            es.replace(
                1,
                Slot::Ready {
                    call: cell(),
                    outcome: Ok(ValVec::new()),
                },
            );
            let mut victims = Vec::new();
            es.sweep(|_| Some(Slot::Free), &mut victims);
            assert_eq!(victims.len(), 2);
            assert_eq!(counts(&t), (0, 0, 0));
            assert_eq!(es.free_slot(), Some(0));
            assert!(es.slots().iter().all(|s| matches!(s, Slot::Free)));
        })
        .unwrap();
    }

    fn started(t: &SlotTable) -> usize {
        t.entries
            .iter()
            .map(|s| s.started.load(Ordering::Relaxed))
            .sum()
    }

    /// The `started` count follows every transition into and out of a
    /// `Started` slot left by `start`, and counts no `execute`, implicit
    /// or inline body.
    #[test]
    fn started_counts_bodies_begun_by_start() {
        let sim = SimRuntime::new();
        sim.run(|rt| {
            let cell = || Arc::new(CallCell::new(ValVec::new(), rt.current(), 0));
            let t = SlotTable::new([2].into_iter(), 2);
            let call = |s: Slot| s.into_call().expect("slot holds a call");
            let started_by = |by_start| Slot::Started {
                call: cell(),
                by_start,
            };
            let mut es = t.lock(0);

            // `start`, then the body finishes: Started → Ready.
            es.replace(0, Slot::Accepted { call: cell() });
            let c = call(es.replace(0, Slot::Free));
            es.replace(
                0,
                Slot::Started {
                    call: c,
                    by_start: true,
                },
            );
            assert_eq!(started(&t), 1);
            assert!(t.bodies_in_flight());
            let c = call(es.replace(0, Slot::Free));
            es.replace(
                0,
                Slot::Ready {
                    call: c,
                    outcome: Ok(ValVec::new()),
                },
            );
            assert_eq!(started(&t), 0);
            assert!(!t.bodies_in_flight());
            es.replace(0, Slot::Free);

            // `execute`: Accepted → Started → Free, never counted.
            es.replace(0, Slot::Accepted { call: cell() });
            let c = call(es.replace(0, Slot::Free));
            es.replace(
                0,
                Slot::Started {
                    call: c,
                    by_start: false,
                },
            );
            assert_eq!(started(&t), 0);
            es.replace(0, Slot::Free);

            // A restart abandons the started body and `execute`'s alike.
            es.replace(0, started_by(true));
            es.replace(1, started_by(false));
            assert_eq!(started(&t), 1);
            let mut victims = Vec::new();
            es.sweep(
                |s| match s {
                    Slot::Started { .. } => Some(Slot::Abandoned),
                    _ => None,
                },
                &mut victims,
            );
            assert_eq!((started(&t), victims.len()), (0, 2));
            es.replace(0, Slot::Free);
            es.replace(1, Slot::Free);

            // Shutdown's sweep frees a started slot outright.
            es.replace(1, started_by(true));
            assert_eq!(started(&t), 1);
            es.sweep(|_| Some(Slot::Free), &mut victims);
            assert_eq!(started(&t), 0);

            // An implicit call's pool body and an inline body never count.
            es.replace(0, started_by(false));
            es.replace(1, Slot::InlineBusy);
            assert_eq!(started(&t), 0);
            assert!(!t.bodies_in_flight());
            es.replace(0, Slot::Free);
            es.replace(1, Slot::Free);
        })
        .unwrap();
    }

    /// `check_counts` recomputes `started` from the slots: a count that
    /// drifted from them fails the next write.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "disagree with a census")]
    fn census_catches_a_drifted_started_count() {
        let t = SlotTable::new([1].into_iter(), 1);
        t.entries[0].started.store(1, Ordering::Relaxed);
        t.lock(0).replace(0, Slot::Free);
    }
}
