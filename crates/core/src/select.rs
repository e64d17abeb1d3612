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
use std::sync::Arc;

use crate::cell::Slot;
use crate::error::{AlpsError, Result};
use crate::manager::{commit_accept, commit_await, AcceptedCall, ReadyEntry};
use crate::object::ObjectInner;
use crate::value::{ChanValue, ValVec, Value};

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

impl<'s> GuardView<'s> {
    fn of(obj: &'s ObjectInner, slot: usize, values: &'s [Value]) -> GuardView<'s> {
        GuardView { slot, values, obj }
    }

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

impl GuardKind {
    /// The guard-resolution step of every select: the entry index an
    /// `accept`/`await` guard names (`None` for other guards). A guard on
    /// one array element is refused here when the entry has no such
    /// element — it could never fire, and its select would wait forever.
    fn resolve(&self, obj: &ObjectInner) -> Result<Option<usize>> {
        let (verb, entry, slot) = match self {
            GuardKind::Accept { entry, slot } => ("accept", entry, slot),
            GuardKind::AwaitDone { entry, slot } => ("await", entry, slot),
            GuardKind::Receive { .. } | GuardKind::When { .. } => return Ok(None),
        };
        let idx = entry.resolve(obj)?;
        let def = &obj.entries[idx];
        match slot {
            Some(i) if *i >= def.array => Err(AlpsError::ProtocolViolation {
                reason: format!("{verb} {}[{i}]: no such array element", def.name),
            }),
            _ => Ok(Some(idx)),
        }
    }
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
    pub(crate) fn new(kind: GuardKind) -> Guard<'a> {
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

    /// Whether the acceptance condition admits the alternative `view`
    /// shows; a guard without one admits every alternative.
    fn admits(&self, view: &GuardView<'_>) -> bool {
        self.when.as_ref().is_none_or(|f| f(view))
    }

    /// The `pri` of the alternative `view` shows; 0 without `pri`.
    fn rank(&self, view: &GuardView<'_>) -> i64 {
        self.pri.as_ref().map_or(0, |f| f(view))
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
    /// The call a single `accept` guard's select accepted.
    pub(crate) fn into_accepted(self) -> AcceptedCall {
        let Selected::Accepted { call, .. } = self else {
            unreachable!("single accept guard")
        };
        call
    }

    /// The execution a single `await` guard's select found ready.
    pub(crate) fn into_ready(self) -> ReadyEntry {
        let Selected::Ready { done, .. } = self else {
            unreachable!("single await guard")
        };
        done
    }

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

/// The best eligible alternative so far: the guard's kind says what
/// committing it means.
struct Candidate {
    pri: i64,
    guard: usize,
    slot: usize,
}

/// Keep the smaller of `best` and the alternative `(pri, guard, slot)`:
/// ties on `pri` break by guard listing order, then slot index.
fn consider(best: &mut Option<Candidate>, pri: i64, guard: usize, slot: usize) {
    if best
        .as_ref()
        .is_none_or(|b| (pri, guard, slot) < (b.pri, b.guard, b.slot))
    {
        *best = Some(Candidate { pri, guard, slot });
    }
}

/// Selects with at most this many guards keep their resolved entry
/// indices on the stack.
const INLINE_GUARDS: usize = 8;

/// Run one select: block until a guard fires or all guards close.
/// `gen` is the restart generation of the selecting manager context; a
/// supervised restart bumps it, failing the select with
/// [`AlpsError::ObjectRestarting`] before any stale commit.
pub(crate) fn run_select(
    obj: &Arc<ObjectInner>,
    guards: &[Guard<'_>],
    gen: u64,
) -> Result<Selected> {
    if guards.is_empty() {
        return Err(AlpsError::SelectFailed);
    }
    // Resolve entry names once, on the stack for up to `INLINE_GUARDS`.
    let mut inline = [None; INLINE_GUARDS];
    let mut spilled = Vec::new();
    let resolved: &mut [Option<usize>] = if guards.len() <= INLINE_GUARDS {
        &mut inline[..guards.len()]
    } else {
        spilled.resize(guards.len(), None);
        &mut spilled
    };
    for (r, g) in resolved.iter_mut().zip(guards) {
        *r = g.kind.resolve(obj)?;
    }
    loop {
        if obj.is_closed() {
            return Err(obj.closed_err());
        }
        // Checked every iteration (each wakeup), so a manager parked in
        // select observes a restart promptly and unwinds to the
        // supervisor instead of committing into the new generation.
        if obj.generation() != gen {
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
                GuardKind::Accept { slot, .. } | GuardKind::AwaitDone { slot, .. } => {
                    all_closed = false;
                    let accept = matches!(g.kind, GuardKind::Accept { .. });
                    let entry = resolved[gi].expect("resolved above");
                    // Lock-free pre-check: no attached call (no ready
                    // body), nothing to evaluate. One arriving after this
                    // load bumps the notifier epoch, so the wait below
                    // cannot sleep through it.
                    let present = if accept {
                        obj.slots.attached(entry)
                    } else {
                        obj.slots.ready(entry)
                    };
                    if present == 0 {
                        continue;
                    }
                    let def = &obj.entries[entry];
                    let ic = def.intercept.unwrap_or_default();
                    let es = obj.slots.lock(entry);
                    for (i, s) in es.slots().iter().enumerate() {
                        if slot.is_some_and(|want| want != i) {
                            continue;
                        }
                        // Visible values: an attached call's intercepted
                        // parameters; a ready body's intercepted result
                        // prefix and hidden results. A failed body shows
                        // none and is always eligible, so the manager can
                        // clean up.
                        let ready: ValVec;
                        let (values, failed): (&[Value], _) = match s {
                            Slot::Attached { call } if accept => (&call.args()[..ic.params], false),
                            Slot::Ready {
                                outcome: Ok(full), ..
                            } if !accept => {
                                let hidden = &full[def.results.len()..];
                                ready = full[..ic.results].iter().chain(hidden).cloned().collect();
                                (&ready, false)
                            }
                            Slot::Ready {
                                outcome: Err(_), ..
                            } if !accept => (&[], true),
                            _ => continue,
                        };
                        let view = GuardView::of(obj, i, values);
                        if failed || g.admits(&view) {
                            consider(&mut best, g.rank(&view), gi, i);
                        }
                    }
                }
                GuardKind::Receive { chan } => {
                    let found = chan.raw().peek_with(|msgs| {
                        for msg in msgs {
                            let view = GuardView::of(obj, 0, msg);
                            if g.admits(&view) {
                                return Some(g.rank(&view));
                            }
                        }
                        None
                    });
                    if found.is_some() || !chan.is_closed() {
                        all_closed = false;
                    }
                    if let Some(pri) = found {
                        consider(&mut best, pri, gi, 0);
                    }
                }
                GuardKind::When { cond } => {
                    if *cond {
                        all_closed = false;
                        consider(&mut best, g.rank(&GuardView::of(obj, 0, &[])), gi, 0);
                    }
                }
            }
        }
        let had_candidate = best.is_some();
        let chosen = match best {
            None => None,
            Some(Candidate { guard, slot, .. }) => {
                let g = &guards[guard];
                match &g.kind {
                    GuardKind::Accept { .. } | GuardKind::AwaitDone { .. } => {
                        // Commit under a fresh acquisition of the entry
                        // lock. The manager is the sole consumer of
                        // attached and ready slots, so only shutdown can
                        // have invalidated the candidate; the retry loop
                        // then reports ObjectClosed.
                        let entry = resolved[guard].expect("resolved above");
                        let mut es = obj.lock_at_gen(entry, gen)?;
                        match (&g.kind, &es.slots()[slot]) {
                            (GuardKind::Accept { .. }, Slot::Attached { .. }) => {
                                let call = commit_accept(obj, &mut es, entry, slot, gen);
                                Some(Selected::Accepted { guard, call })
                            }
                            (GuardKind::AwaitDone { .. }, Slot::Ready { .. }) => {
                                let done = commit_await(obj, &mut es, entry, slot, gen);
                                Some(Selected::Ready { guard, done })
                            }
                            _ => None,
                        }
                    }
                    GuardKind::Receive { chan } => chan
                        .raw()
                        .recv_match(&obj.rt, |m| g.admits(&GuardView::of(obj, 0, m)))
                        .map(|msg| Selected::Received { guard, msg }),
                    GuardKind::When { .. } => Some(Selected::Cond { guard }),
                }
            }
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
        obj.wait_for_work(epoch);
    }
}
