//! Nondeterministic guarded selection (paper §2.4).
//!
//! ALPS `select`/`loop` statements guard alternatives with any of:
//!
//! ```text
//! when B                        -- pure boolean guard
//! accept P[i] (...) when B      -- a pending call is attached to P[i]
//! await  P[i] (...) when B      -- P[i] is ready to terminate
//! receive C(...) when B         -- a message is buffered on channel C
//! ```
//!
//! each optionally ending in `pri E`, a *run-time* priority expression:
//! among the eligible alternatives, the one with the smallest `pri` value
//! is selected (ties break deterministically by guard listing order, then
//! slot index). Acceptance conditions (`when B` over received values) are
//! evaluated against a candidate without consuming it: a failing condition
//! leaves the call attached / the message buffered — SR semantics, which
//! the paper adopts [12].
//!
//! Closedness follows CSP: a `when false` guard is closed; a `receive`
//! guard on a closed, unmatched channel is closed; `accept`/`await`
//! guards close only when the whole object shuts down. A `select` whose
//! guards are all closed fails with [`AlpsError::SelectFailed`].
//!
//! # Locking
//!
//! Object state is split per entry, so a select evaluates each
//! `accept`/`await` guard under that entry's own lock — and skips the lock
//! entirely when the entry's atomic attached/ready count says there is
//! nothing to look at. The chosen candidate is committed under a fresh
//! acquisition of its entry lock with re-validation; the manager is the
//! only consumer of attached/ready slots, so the only writer that can
//! invalidate a candidate in between is shutdown, which the retry loop
//! turns into [`AlpsError::ObjectClosed`].

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use alps_runtime::{tuning, WaitOutcome};

use crate::error::{AlpsError, Result};
use crate::manager::{AcceptedCall, ReadyEntry};
use crate::object::{ObjectInner, Slot};
use crate::value::{ChanValue, Value};

/// Read-only view handed to `when`/`pri` closures while a candidate's
/// entry is locked: the candidate's slot index and visible values, plus
/// the `#P` pending counts the paper allows in acceptance conditions
/// (§2.5.1 uses `#Read`/`#Write` inside guards).
pub struct GuardView<'s> {
    pub(crate) slot: usize,
    pub(crate) values: &'s [Value],
    pub(crate) obj: &'s ObjectInner,
}

impl fmt::Debug for GuardView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GuardView")
            .field("slot", &self.slot)
            .field("values", &self.values)
            .finish()
    }
}

impl GuardView<'_> {
    /// Procedure-array index of the candidate (0-based; the paper writes
    /// `P[1..N]`, the embedded API uses `0..N`).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Visible values of the candidate: intercepted parameters for an
    /// `accept` guard, intercepted results followed by hidden results for
    /// an `await` guard, the full message for a `receive` guard, empty for
    /// `when` guards.
    pub fn values(&self) -> &[Value] {
        self.values
    }

    /// `#entry` — pending-call count usable inside acceptance conditions.
    /// Reads the entry's atomic index; never takes a lock (safe to call on
    /// any entry, including the candidate's own).
    ///
    /// # Panics
    ///
    /// Panics if the entry does not exist (a programming error in the
    /// manager body).
    pub fn pending(&self, entry: &str) -> usize {
        let idx = self
            .obj
            .entry_idx(entry)
            .unwrap_or_else(|e| panic!("GuardView::pending: {e}"));
        self.obj.pending(idx)
    }

    /// [`pending`](GuardView::pending) through a pre-resolved entry index
    /// (builder declaration order) — no string hash on the guard path.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn pending_idx(&self, entry: usize) -> usize {
        assert!(
            entry < self.obj.entries.len(),
            "GuardView::pending_idx: entry #{entry} out of range"
        );
        self.obj.pending(entry)
    }
}

type WhenFn<'a> = Box<dyn Fn(&GuardView<'_>) -> bool + 'a>;
type PriFn<'a> = Box<dyn Fn(&GuardView<'_>) -> i64 + 'a>;

/// How a guard designates its entry: by name (resolved to an index once
/// per select) or by a pre-resolved index (compiled managers; the select
/// pass then never hashes a string).
pub(crate) enum EntrySel {
    Name(String),
    Idx(usize),
}

impl EntrySel {
    fn label(&self) -> String {
        match self {
            EntrySel::Name(n) => n.clone(),
            EntrySel::Idx(i) => format!("entry#{i}"),
        }
    }

    fn resolve(&self, obj: &ObjectInner) -> Result<usize> {
        match self {
            EntrySel::Name(n) => obj.entry_idx(n),
            EntrySel::Idx(i) if *i < obj.entries.len() => Ok(*i),
            EntrySel::Idx(i) => Err(AlpsError::UnknownEntry {
                object: obj.name.clone(),
                entry: format!("entry#{i}"),
            }),
        }
    }
}

pub(crate) enum GuardKind {
    Accept {
        entry: EntrySel,
        slot: Option<usize>,
    },
    AwaitDone {
        entry: EntrySel,
        slot: Option<usize>,
    },
    Receive {
        chan: ChanValue,
    },
    When {
        cond: bool,
    },
}

/// One guarded alternative of a [`select`](crate::ManagerCtx::select).
///
/// # Examples
///
/// The bounded-buffer manager guards (paper §2.4.1):
///
/// ```no_run
/// use alps_core::Guard;
/// let count = 3usize;
/// let n = 8usize;
/// let guards = vec![
///     Guard::accept("Deposit").when(move |_| count < n),
///     Guard::accept("Remove").when(move |_| count > 0),
/// ];
/// # let _ = guards;
/// ```
pub struct Guard<'a> {
    pub(crate) kind: GuardKind,
    pub(crate) when: Option<WhenFn<'a>>,
    pub(crate) pri: Option<PriFn<'a>>,
}

impl fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.kind {
            GuardKind::Accept { entry, slot } => format!("accept {}{slot:?}", entry.label()),
            GuardKind::AwaitDone { entry, slot } => format!("await {}{slot:?}", entry.label()),
            GuardKind::Receive { chan } => format!("receive {}", chan.name()),
            GuardKind::When { cond } => format!("when {cond}"),
        };
        f.debug_struct("Guard")
            .field("kind", &kind)
            .field("has_when", &self.when.is_some())
            .field("has_pri", &self.pri.is_some())
            .finish()
    }
}

impl<'a> Guard<'a> {
    fn new(kind: GuardKind) -> Guard<'a> {
        Guard {
            kind,
            when: None,
            pri: None,
        }
    }

    /// `accept P` over any element of P's hidden procedure array.
    pub fn accept(entry: impl Into<String>) -> Guard<'a> {
        Guard::new(GuardKind::Accept {
            entry: EntrySel::Name(entry.into()),
            slot: None,
        })
    }

    /// `accept P[i]` for a specific array element.
    pub fn accept_slot(entry: impl Into<String>, slot: usize) -> Guard<'a> {
        Guard::new(GuardKind::Accept {
            entry: EntrySel::Name(entry.into()),
            slot: Some(slot),
        })
    }

    /// [`accept`](Guard::accept) through a pre-resolved entry index (the
    /// position of the entry in [`ObjectBuilder`](crate::ObjectBuilder)
    /// declaration order). Skips per-select name resolution entirely —
    /// compiled managers use this so the warm select path never hashes a
    /// string.
    pub fn accept_idx(entry: usize) -> Guard<'a> {
        Guard::new(GuardKind::Accept {
            entry: EntrySel::Idx(entry),
            slot: None,
        })
    }

    /// `await P` — some element of P is ready to terminate.
    pub fn await_done(entry: impl Into<String>) -> Guard<'a> {
        Guard::new(GuardKind::AwaitDone {
            entry: EntrySel::Name(entry.into()),
            slot: None,
        })
    }

    /// `await P[i]` for a specific array element.
    pub fn await_slot(entry: impl Into<String>, slot: usize) -> Guard<'a> {
        Guard::new(GuardKind::AwaitDone {
            entry: EntrySel::Name(entry.into()),
            slot: Some(slot),
        })
    }

    /// [`await_done`](Guard::await_done) through a pre-resolved entry
    /// index.
    pub fn await_idx(entry: usize) -> Guard<'a> {
        Guard::new(GuardKind::AwaitDone {
            entry: EntrySel::Idx(entry),
            slot: None,
        })
    }

    /// `receive C(...)` — a buffered message is available on `chan`.
    pub fn receive(chan: &ChanValue) -> Guard<'a> {
        Guard::new(GuardKind::Receive { chan: chan.clone() })
    }

    /// `when B` — a pure boolean alternative.
    pub fn cond(cond: bool) -> Guard<'a> {
        Guard::new(GuardKind::When { cond })
    }

    /// Attach an acceptance condition evaluated against each candidate
    /// (paper §2.4: conditions may depend on the values received).
    pub fn when(mut self, f: impl Fn(&GuardView<'_>) -> bool + 'a) -> Self {
        self.when = Some(Box::new(f));
        self
    }

    /// Attach a run-time priority expression (`pri E`): among eligible
    /// alternatives the smallest value wins. Guards without `pri` have
    /// priority 0.
    pub fn pri(mut self, f: impl Fn(&GuardView<'_>) -> i64 + 'a) -> Self {
        self.pri = Some(Box::new(f));
        self
    }

    /// Constant-priority convenience for [`pri`](Guard::pri).
    pub fn pri_const(self, v: i64) -> Self {
        self.pri(move |_| v)
    }
}

/// The alternative a [`select`](crate::ManagerCtx::select) chose.
#[derive(Debug)]
pub enum Selected {
    /// An `accept` guard fired; consume the call with
    /// [`start`](crate::ManagerCtx::start),
    /// [`finish_accepted`](crate::ManagerCtx::finish_accepted) or
    /// [`execute`](crate::ManagerCtx::execute).
    Accepted {
        /// Index of the guard that fired.
        guard: usize,
        /// The accepted call token.
        call: AcceptedCall,
    },
    /// An `await` guard fired; consume with
    /// [`finish`](crate::ManagerCtx::finish).
    Ready {
        /// Index of the guard that fired.
        guard: usize,
        /// The awaited-entry token.
        done: ReadyEntry,
    },
    /// A `receive` guard fired.
    Received {
        /// Index of the guard that fired.
        guard: usize,
        /// The received message.
        msg: Vec<Value>,
    },
    /// A pure `when` guard fired.
    Cond {
        /// Index of the guard that fired.
        guard: usize,
    },
}

impl Selected {
    /// Index of the guard that fired, in listing order.
    pub fn guard_index(&self) -> usize {
        match self {
            Selected::Accepted { guard, .. }
            | Selected::Ready { guard, .. }
            | Selected::Received { guard, .. }
            | Selected::Cond { guard } => *guard,
        }
    }
}

enum CandAction {
    Accept { entry: usize, slot: usize },
    Await { entry: usize, slot: usize },
    Receive,
    Cond,
}

struct Candidate {
    pri: i64,
    guard: usize,
    slot: usize,
    action: CandAction,
}

fn consider(best: &mut Option<Candidate>, c: Candidate) {
    let better = match best {
        None => true,
        Some(b) => (c.pri, c.guard, c.slot) < (b.pri, b.guard, b.slot),
    };
    if better {
        *best = Some(c);
    }
}

/// Run one select: block until a guard fires or all guards close.
/// `gen` is the restart generation of the selecting manager context; a
/// supervised restart bumps it, failing the select with
/// [`AlpsError::ObjectRestarting`] before any stale commit.
pub(crate) fn run_select(
    obj: &Arc<ObjectInner>,
    guards: &[Guard<'_>],
    gen: u64,
) -> Result<Selected> {
    run_select_deadline(obj, guards, None, gen)
}

/// [`run_select`] with an optional deadline: `(absolute expiry, budget)`.
/// When the expiry passes before any guard fires, the select fails with
/// [`AlpsError::Timeout`] (callers rewrite `what` to name their wait).
/// The deadline bounds *waiting* only — a guard that is already eligible
/// is still committed even if the deadline has technically passed, so a
/// zero-tick deadline degenerates to a non-blocking poll.
pub(crate) fn run_select_deadline(
    obj: &Arc<ObjectInner>,
    guards: &[Guard<'_>],
    deadline: Option<(u64, u64)>,
    gen: u64,
) -> Result<Selected> {
    if guards.is_empty() {
        return Err(AlpsError::SelectFailed);
    }
    // Resolve entry names once.
    let mut resolved: Vec<Option<usize>> = Vec::with_capacity(guards.len());
    for g in guards {
        match &g.kind {
            GuardKind::Accept { entry, .. } | GuardKind::AwaitDone { entry, .. } => {
                resolved.push(Some(entry.resolve(obj)?));
            }
            _ => resolved.push(None),
        }
    }
    loop {
        if obj.is_closed() {
            return Err(obj.closed_err());
        }
        // Checked every iteration (each wakeup), so a manager parked in
        // select observes a restart promptly and unwinds to the
        // supervisor instead of committing into the new generation.
        if obj.generation.load(Ordering::SeqCst) != gen {
            return Err(obj.restarting_err());
        }
        // Epoch before drain: any push after this snapshot bumps the
        // epoch, so the wait below cannot sleep through it.
        let epoch = obj.notifier.epoch();
        obj.drain_intake();
        for g in guards {
            if let GuardKind::Receive { chan } = &g.kind {
                chan.raw().subscribe(&obj.notifier);
            }
        }
        let mut all_closed = true;
        let mut best: Option<Candidate> = None;
        for (gi, g) in guards.iter().enumerate() {
            match &g.kind {
                GuardKind::Accept { slot, .. } => {
                    all_closed = false;
                    let entry = resolved[gi].expect("resolved above");
                    let sync = &obj.estates[entry];
                    // Lock-free pre-check: no attached call, nothing to
                    // evaluate. A call attaching after this load bumps the
                    // notifier epoch, so `wait_past` below cannot sleep
                    // through it.
                    if sync.attached.load(Ordering::SeqCst) == 0 {
                        continue;
                    }
                    let k = obj.entries[entry]
                        .intercept
                        .map(|ic| ic.params)
                        .unwrap_or(0);
                    let es = sync.st.lock();
                    for (i, s) in es.slots.iter().enumerate() {
                        if slot.is_some() && *slot != Some(i) {
                            continue;
                        }
                        let Slot::Attached { call } = s else {
                            continue;
                        };
                        let view = GuardView {
                            slot: i,
                            values: &call.args()[..k],
                            obj,
                        };
                        if g.when.as_ref().map(|f| f(&view)).unwrap_or(true) {
                            let pri = g.pri.as_ref().map(|f| f(&view)).unwrap_or(0);
                            consider(
                                &mut best,
                                Candidate {
                                    pri,
                                    guard: gi,
                                    slot: i,
                                    action: CandAction::Accept { entry, slot: i },
                                },
                            );
                        }
                    }
                }
                GuardKind::AwaitDone { slot, .. } => {
                    all_closed = false;
                    let entry = resolved[gi].expect("resolved above");
                    let sync = &obj.estates[entry];
                    if sync.ready.load(Ordering::SeqCst) == 0 {
                        continue;
                    }
                    let def = &obj.entries[entry];
                    let kr = def.intercept.map(|ic| ic.results).unwrap_or(0);
                    let pub_len = def.results.len();
                    let es = sync.st.lock();
                    for (i, s) in es.slots.iter().enumerate() {
                        if slot.is_some() && *slot != Some(i) {
                            continue;
                        }
                        let Slot::Ready { outcome, .. } = s else {
                            continue;
                        };
                        // Visible values: intercepted result prefix +
                        // hidden results; a failed body is always
                        // eligible so the manager can clean up.
                        let visible: Vec<Value> = match outcome {
                            Ok(full) => {
                                let mut v = full[..kr.min(full.len())].to_vec();
                                if full.len() >= pub_len {
                                    v.extend(full[pub_len..].iter().cloned());
                                }
                                v
                            }
                            Err(_) => Vec::new(),
                        };
                        let view = GuardView {
                            slot: i,
                            values: &visible,
                            obj,
                        };
                        let eligible = match outcome {
                            Err(_) => true,
                            Ok(_) => g.when.as_ref().map(|f| f(&view)).unwrap_or(true),
                        };
                        if eligible {
                            let pri = g.pri.as_ref().map(|f| f(&view)).unwrap_or(0);
                            consider(
                                &mut best,
                                Candidate {
                                    pri,
                                    guard: gi,
                                    slot: i,
                                    action: CandAction::Await { entry, slot: i },
                                },
                            );
                        }
                    }
                }
                GuardKind::Receive { chan } => {
                    let found = chan.raw().peek_with(|it| {
                        for msg in it {
                            let view = GuardView {
                                slot: 0,
                                values: msg,
                                obj,
                            };
                            if g.when.as_ref().map(|f| f(&view)).unwrap_or(true) {
                                let pri = g.pri.as_ref().map(|f| f(&view)).unwrap_or(0);
                                return Some(pri);
                            }
                        }
                        None
                    });
                    match found {
                        Some(pri) => {
                            all_closed = false;
                            consider(
                                &mut best,
                                Candidate {
                                    pri,
                                    guard: gi,
                                    slot: 0,
                                    action: CandAction::Receive,
                                },
                            );
                        }
                        None => {
                            if !chan.is_closed() {
                                all_closed = false;
                            }
                        }
                    }
                }
                GuardKind::When { cond } => {
                    if *cond {
                        all_closed = false;
                        let view = GuardView {
                            slot: 0,
                            values: &[],
                            obj,
                        };
                        let pri = g.pri.as_ref().map(|f| f(&view)).unwrap_or(0);
                        consider(
                            &mut best,
                            Candidate {
                                pri,
                                guard: gi,
                                slot: 0,
                                action: CandAction::Cond,
                            },
                        );
                    }
                }
            }
        }
        let had_candidate = best.is_some();
        let chosen: Option<Selected> = match best {
            None => None,
            Some(c) => match c.action {
                CandAction::Accept { entry, slot } => {
                    // Commit under a fresh acquisition of the entry lock.
                    // The manager is the sole consumer of attached slots,
                    // so only shutdown can have invalidated the candidate;
                    // the retry loop then reports ObjectClosed.
                    let mut es = obj.estates[entry].st.lock();
                    if obj.generation.load(Ordering::SeqCst) != gen {
                        return Err(obj.restarting_err());
                    }
                    if matches!(es.slots[slot], Slot::Attached { .. }) {
                        let call = crate::manager::commit_accept(obj, &mut es, entry, slot, gen);
                        Some(Selected::Accepted {
                            guard: c.guard,
                            call,
                        })
                    } else {
                        None
                    }
                }
                CandAction::Await { entry, slot } => {
                    let mut es = obj.estates[entry].st.lock();
                    if obj.generation.load(Ordering::SeqCst) != gen {
                        return Err(obj.restarting_err());
                    }
                    if matches!(es.slots[slot], Slot::Ready { .. }) {
                        let done = crate::manager::commit_await(obj, &mut es, entry, slot, gen);
                        Some(Selected::Ready {
                            guard: c.guard,
                            done,
                        })
                    } else {
                        None
                    }
                }
                CandAction::Receive => {
                    let GuardKind::Receive { chan } = &guards[c.guard].kind else {
                        unreachable!()
                    };
                    let g = &guards[c.guard];
                    let msg = chan.raw().recv_match(&obj.rt, |m| {
                        let view = GuardView {
                            slot: 0,
                            values: m,
                            obj,
                        };
                        g.when.as_ref().map(|f| f(&view)).unwrap_or(true)
                    });
                    msg.map(|m| Selected::Received {
                        guard: c.guard,
                        msg: m,
                    })
                }
                CandAction::Cond => Some(Selected::Cond { guard: c.guard }),
            },
        };
        if let Some(sel) = chosen {
            return Ok(sel);
        }
        if had_candidate {
            // The candidate vanished between evaluation and commit: a
            // receive was stolen by a concurrent receiver, or shutdown
            // swept the slot. Re-evaluate at once.
            continue;
        }
        if all_closed {
            return Err(AlpsError::SelectFailed);
        }
        wait_for_work_deadline(obj, epoch, deadline)?;
    }
}

/// Deadline-bounded wrapper around [`wait_for_work`]: without a deadline
/// it is exactly `wait_for_work`; with one, the park is timer-bounded and
/// an expiry with no epoch movement fails the select with
/// [`AlpsError::Timeout`]. The poll-mode yield loop is skipped — a
/// deadline wait is a latency-tolerant cold path by definition.
fn wait_for_work_deadline(
    obj: &ObjectInner,
    epoch: u64,
    deadline: Option<(u64, u64)>,
) -> Result<()> {
    let Some((at, budget)) = deadline else {
        wait_for_work(obj, epoch);
        return Ok(());
    };
    let timeout = || AlpsError::Timeout {
        what: "select".into(),
        ticks: budget,
    };
    if obj.rt.now() >= at {
        return Err(timeout());
    }
    // Same lost-wakeup handshake as `wait_for_work` (see its comment).
    obj.mgr_active.store(false, Ordering::SeqCst);
    if !obj.intake.is_empty() {
        obj.mgr_active.store(true, Ordering::SeqCst);
        obj.rt.yield_now();
        return Ok(());
    }
    let moved = obj.notifier.wait_past_deadline(&obj.rt, epoch, at);
    obj.mgr_active.store(true, Ordering::SeqCst);
    obj.stats.on_mgr_wakeup();
    if !moved && obj.rt.now() >= at {
        return Err(timeout());
    }
    Ok(())
}

/// The manager's wait point, with the lost-wakeup handshake against the
/// intake ring. Clearing `mgr_active` *before* the emptiness re-check
/// pairs (SeqCst store-buffering pair) with a producer's push-then-load:
/// either the manager sees the push and retries, or the producer sees the
/// manager inactive and parks — in which case the producer's push flipped
/// the drained-empty ring and its notify bumped the epoch this wait
/// watches. A `false` from `is_empty` may also mean a producer has
/// *claimed but not yet published* a slot (such a producer owes no
/// notify), so the manager must not sleep — it yields and retries.
fn wait_for_work(obj: &ObjectInner, epoch: u64) {
    // Poll mode (entered by `drain_intake` after any non-empty drain): the
    // callers just served are in their wake-and-resubmit window. Parking
    // now would convoy them — each would find `mgr_active` false, park in
    // turn, and pay a futex round trip per call while the ring never
    // accumulates a real batch. Instead, yield-poll the ring: every yield
    // hands the CPU to a waking caller, whose push needs no notify
    // syscall (we never register as a waiter) and whose reply wait stays
    // in its yield phase (`mgr_active` stays true). One dry budget — no
    // work after `tuning::MGR_POLL_BUDGET` yields — demotes back to
    // parking. Pointless in simulation, where only one process runs at a
    // time.
    if obj.mgr_poll.load(Ordering::SeqCst) && !obj.rt.is_sim() {
        for _ in 0..tuning::MGR_POLL_BUDGET {
            if !obj.intake.is_empty() || obj.notifier.epoch() != epoch {
                obj.stats.on_mgr_wakeup();
                obj.stats.on_spin_resolved();
                return;
            }
            obj.rt.yield_now();
        }
        obj.mgr_poll.store(false, Ordering::SeqCst);
    }
    obj.mgr_active.store(false, Ordering::SeqCst);
    if !obj.intake.is_empty() {
        obj.mgr_active.store(true, Ordering::SeqCst);
        obj.rt.yield_now();
        return;
    }
    // Spin rounds are pure CPU hints (no yields): they only pay when a
    // producer is mid-call on another core; `wait_past_spin` skips them
    // in simulation.
    let out = obj
        .notifier
        .wait_past_spin(&obj.rt, epoch, tuning::MGR_IDLE_SPIN_ROUNDS);
    obj.mgr_active.store(true, Ordering::SeqCst);
    obj.stats.on_mgr_wakeup();
    match out {
        WaitOutcome::Spun => obj.stats.on_spin_resolved(),
        WaitOutcome::Parked => obj.stats.on_park_resolved(),
        WaitOutcome::Immediate => {}
    }
}
