//! The manager process: `accept` / `start` / `await` / `finish` /
//! `execute`, request combining, and hidden parameters/results.
//!
//! Paper §2.3: "When an entry procedure of an object is called, the
//! procedure is not executed immediately but the call is directed to the
//! manager" — the manager rendezvouses with the call (`accept`), starts
//! the body asynchronously (`start`, avoiding the nested-call problem),
//! recognizes readiness to terminate (`await`), and endorses termination
//! (`finish`, which never blocks). `execute` packages
//! `start; await; finish` for exclusive execution. A manager may also
//! `finish` an accepted call *without* starting it, synthesizing the
//! results itself — request combining (§2.7).
//!
//! Manager commits take only the lock of the entry involved (see
//! [`crate::cell`]): intercepted traffic on one entry never contends with
//! calls to another.
//!
//! Intercepted calls reach the manager through the object's lock-free
//! intake ring: every blocking manager primitive funnels through
//! `run_select`, which drains the ring in a batch before evaluating
//! guards — one manager wakeup services every call that arrived while it
//! slept, which is what makes combining (`finish_accepted` in a loop)
//! cheaper than serial `execute`. See `DESIGN.md` §7 for the wakeup
//! pipeline.

use std::fmt;
use std::sync::Arc;

use alps_runtime::{CommitPoint, Runtime};

use crate::cell::{CallCell, EntryState, Slot};
use crate::error::{AlpsError, Result};
use crate::object::ObjectInner;
use crate::select::{run_select, EntrySel, Guard, GuardKind, Selected};
use crate::value::{check_types_lazy, ChanValue, ValVec, Value};

/// A call the manager has accepted but not yet started or finished.
///
/// Consume it with [`ManagerCtx::start`] (normal service),
/// [`ManagerCtx::finish_accepted`] (combining), or
/// [`ManagerCtx::execute`]. Dropping it unconsumed is a protocol
/// violation: the caller is failed and the slot freed so the object stays
/// usable.
pub struct AcceptedCall {
    pub(crate) obj: Arc<ObjectInner>,
    pub(crate) entry: usize,
    pub(crate) slot: usize,
    pub(crate) params: ValVec,
    /// Restart generation the token was minted under. A supervised
    /// restart sweeps the slot and answers the caller itself, so a
    /// stale-generation token must not touch the slot (it may already
    /// hold a new generation's call).
    pub(crate) gen: u64,
    pub(crate) armed: bool,
}

impl fmt::Debug for AcceptedCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AcceptedCall")
            .field("entry", &self.entry_name())
            .field("slot", &self.slot)
            .field("params", &self.params.as_slice())
            .finish()
    }
}

impl AcceptedCall {
    /// Name of the accepted entry.
    pub fn entry_name(&self) -> &str {
        &self.obj.entries[self.entry].name
    }

    /// Index of the entry in builder declaration order — the same index
    /// [`Guard::accept_idx`](crate::Guard::accept_idx) takes. Compiled
    /// managers key their token tables by this instead of hashing
    /// [`entry_name`](AcceptedCall::entry_name).
    pub fn entry_index(&self) -> usize {
        self.entry
    }

    /// Procedure-array element the call is attached to (0-based).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The intercepted parameter prefix received at `accept`.
    pub fn params(&self) -> &[Value] {
        self.params.as_slice()
    }

    /// Give up the duty to answer the caller on drop: `(obj, entry,
    /// slot, gen)` for the primitive that consumes the token.
    fn disarm(mut self) -> (Arc<ObjectInner>, usize, usize, u64) {
        self.armed = false;
        (Arc::clone(&self.obj), self.entry, self.slot, self.gen)
    }
}

impl Drop for AcceptedCall {
    fn drop(&mut self) {
        if self.armed {
            let reason = format!(
                "manager dropped accepted call to `{}` without start/finish",
                self.entry_name()
            );
            fail_unconsumed(&self.obj, self.gen, self.entry, self.slot, reason);
        }
    }
}

/// An armed token was dropped: fail the caller its slot still holds with
/// a [`AlpsError::ProtocolViolation`] and free the slot, so the object
/// stays usable. Nothing is left to do after shutdown, or under a stale
/// generation: a restart already swept the slot and answered the caller,
/// and the slot may hold a new generation's call now.
fn fail_unconsumed(obj: &Arc<ObjectInner>, gen: u64, entry: usize, slot: usize, reason: String) {
    if obj.is_closed() || obj.generation() != gen {
        return;
    }
    let mut es = obj.slots.lock(entry);
    if let Slot::Accepted { call } | Slot::Awaited { call, .. } = es.replace(slot, Slot::Free) {
        obj.complete(&call, Err(AlpsError::ProtocolViolation { reason }));
        obj.free_managed_slot(&mut es, entry, slot);
    }
}

/// An entry execution the manager has `await`ed but not yet `finish`ed.
///
/// Carries the intercepted result prefix and the hidden results. Consume
/// with [`ManagerCtx::finish`]; dropping it unconsumed fails the caller.
pub struct ReadyEntry {
    pub(crate) obj: Arc<ObjectInner>,
    pub(crate) entry: usize,
    pub(crate) slot: usize,
    pub(crate) results: ValVec,
    pub(crate) hidden: ValVec,
    pub(crate) failure: Option<String>,
    /// Restart generation the token was minted under (see
    /// [`AcceptedCall::gen`]).
    pub(crate) gen: u64,
    pub(crate) armed: bool,
}

impl fmt::Debug for ReadyEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadyEntry")
            .field("entry", &self.entry_name())
            .field("slot", &self.slot)
            .field("results", &self.results.as_slice())
            .field("hidden", &self.hidden.as_slice())
            .field("failure", &self.failure)
            .finish()
    }
}

impl ReadyEntry {
    /// Name of the terminating entry.
    pub fn entry_name(&self) -> &str {
        &self.obj.entries[self.entry].name
    }

    /// Index of the entry in builder declaration order (see
    /// [`AcceptedCall::entry_index`]).
    pub fn entry_index(&self) -> usize {
        self.entry
    }

    /// Procedure-array element (0-based).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The intercepted result prefix received at `await`.
    pub fn results(&self) -> &[Value] {
        self.results.as_slice()
    }

    /// The hidden results received at `await` (paper §2.8).
    pub fn hidden(&self) -> &[Value] {
        self.hidden.as_slice()
    }

    /// If the body failed, its failure message. `finish` then reports
    /// [`AlpsError::BodyFailed`] to the caller.
    pub fn failure(&self) -> Option<&str> {
        self.failure.as_deref()
    }

    fn disarm(mut self) -> (Arc<ObjectInner>, usize, usize, u64, Option<String>) {
        self.armed = false;
        let failure = self.failure.take();
        (
            Arc::clone(&self.obj),
            self.entry,
            self.slot,
            self.gen,
            failure,
        )
    }
}

impl Drop for ReadyEntry {
    fn drop(&mut self) {
        if self.armed {
            let reason = format!(
                "manager dropped awaited entry `{}` without finish",
                self.entry_name()
            );
            fail_unconsumed(&self.obj, self.gen, self.entry, self.slot, reason);
        }
    }
}

/// Empty `slot` (leaving it `Free`) and return what it held, provided
/// it is in state `want`; otherwise leave it untouched and report
/// primitive `what` as a [`AlpsError::ProtocolViolation`] naming the
/// state it is in.
fn take_slot(es: &mut EntryState<'_>, slot: usize, want: &str, what: &'static str) -> Result<Slot> {
    let name = es.slots()[slot].state_name();
    if name != want {
        return Err(AlpsError::ProtocolViolation {
            reason: format!("{what} on slot in state `{name}`"),
        });
    }
    Ok(es.replace(slot, Slot::Free))
}

fn accepted(s: Slot) -> Arc<CallCell> {
    s.into_call().expect("an accepted slot holds its call")
}

/// Commit an accept under the entry lock (select internals).
pub(crate) fn commit_accept(
    obj: &Arc<ObjectInner>,
    es: &mut EntryState<'_>,
    entry: usize,
    slot: usize,
    gen: u64,
) -> AcceptedCall {
    let Slot::Attached { call } = es.replace(slot, Slot::Free) else {
        unreachable!("select commits an accept only on an attached slot");
    };
    obj.stats.on_accept();
    let k = obj.entries[entry]
        .intercept
        .map(|ic| ic.params)
        .unwrap_or(0);
    // Only the intercepted prefix is copied out (paper §2.6); inline —
    // heap-free — for prefixes of ≤ 4 values. The suffix stays in the
    // cell until `start`/`execute` moves it into the body.
    let params = ValVec::from_slice(&call.args()[..k]);
    es.replace(slot, Slot::Accepted { call });
    AcceptedCall {
        obj: Arc::clone(obj),
        entry,
        slot,
        params,
        gen,
        armed: true,
    }
}

/// Commit an await under the entry lock (select internals).
pub(crate) fn commit_await(
    obj: &Arc<ObjectInner>,
    es: &mut EntryState<'_>,
    entry: usize,
    slot: usize,
    gen: u64,
) -> ReadyEntry {
    let Slot::Ready { call, outcome } = es.replace(slot, Slot::Free) else {
        unreachable!("select commits an await only on a ready slot");
    };
    let def = &obj.entries[entry];
    let kr = def.intercept.map(|ic| ic.results).unwrap_or(0);
    let (results, remainder, hidden, failure) = match outcome {
        Ok(mut full) => {
            // Split the full result list `[prefix | remainder | hidden]`
            // by move — no element is cloned; the remainder parks in the
            // slot until `finish` stitches it back onto the (possibly
            // rewritten) prefix.
            let hidden = full.split_off(def.results.len());
            let remainder = full.split_off(kr);
            (full, remainder, hidden, None)
        }
        Err(msg) => (ValVec::new(), ValVec::new(), ValVec::new(), Some(msg)),
    };
    es.replace(slot, Slot::Awaited { call, remainder });
    ReadyEntry {
        obj: Arc::clone(obj),
        entry,
        slot,
        results,
        hidden,
        failure,
        gen,
        armed: true,
    }
}

/// The guard of a single-guard primitive, its entry still named
/// ([`ManagerCtx::select_one`]).
enum One<'a> {
    Accept(&'a str, Option<usize>),
    Await(&'a str, Option<usize>),
    Receive(&'a ChanValue),
}

/// The manager's view of its object: the scheduling primitives of paper
/// §2.3–§2.8. A [`ManagerBody`](crate::ManagerBody) receives `&mut
/// ManagerCtx` and typically runs `loop { match mgr.select(...)? { … } }`.
pub struct ManagerCtx {
    obj: Arc<ObjectInner>,
    /// Restart generation this manager body invocation serves. A
    /// supervised restart bumps the object generation *before* sweeping,
    /// so every blocking primitive of a stale-generation context fails
    /// with [`AlpsError::ObjectRestarting`] instead of committing on a
    /// swept (or reused) slot.
    gen: u64,
}

impl fmt::Debug for ManagerCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ManagerCtx")
            .field("object", &self.obj.name)
            .finish()
    }
}

impl ManagerCtx {
    pub(crate) fn new(obj: Arc<ObjectInner>) -> ManagerCtx {
        let gen = obj.generation();
        ManagerCtx { obj, gen }
    }

    /// The object's name.
    pub fn object_name(&self) -> &str {
        &self.obj.name
    }

    /// The runtime the object lives on.
    pub fn rt(&self) -> &Runtime {
        &self.obj.rt
    }

    /// Current time in ticks.
    pub fn now(&self) -> u64 {
        self.obj.rt.now()
    }

    /// Sleep for `ticks` (virtual in simulation).
    pub fn sleep(&self, ticks: u64) {
        self.obj.rt.sleep(ticks)
    }

    /// `#P` — pending calls to `entry` (paper §2.5.1). Reads an atomic
    /// index; takes no lock.
    ///
    /// # Errors
    ///
    /// [`AlpsError::UnknownEntry`] for a bad name.
    pub fn pending(&self, entry: &str) -> Result<usize> {
        let idx = self.obj.entry_idx(entry)?;
        Ok(self.obj.pending(idx))
    }

    /// [`pending`](Self::pending) through a pre-resolved entry index
    /// (builder declaration order) — the compiled manager's `#P`.
    ///
    /// # Errors
    ///
    /// [`AlpsError::UnknownEntry`] when the index is out of range.
    pub fn pending_idx(&self, entry: usize) -> Result<usize> {
        if entry >= self.obj.entries.len() {
            return Err(AlpsError::UnknownEntry {
                object: self.obj.name.clone(),
                entry: format!("entry#{entry}"),
            });
        }
        Ok(self.obj.pending(entry))
    }

    /// Block on a guarded nondeterministic select (paper §2.4).
    ///
    /// # Errors
    ///
    /// * [`AlpsError::SelectFailed`] when every guard is closed;
    /// * [`AlpsError::ObjectClosed`] at shutdown;
    /// * [`AlpsError::UnknownEntry`] for bad entry names in guards;
    /// * [`AlpsError::ProtocolViolation`] for a slot guard naming an
    ///   array element the entry does not have.
    pub fn select(&self, guards: Vec<Guard<'_>>) -> Result<Selected> {
        run_select(&self.obj, &guards, self.gen)
    }

    /// `accept P` — block until a call to `entry` is attached, accept it.
    ///
    /// # Errors
    ///
    /// [`AlpsError::ObjectClosed`], [`AlpsError::UnknownEntry`].
    pub fn accept(&self, entry: &str) -> Result<AcceptedCall> {
        self.select_one(One::Accept(entry, None))
            .map(Selected::into_accepted)
    }

    /// `accept P[i]` — accept specifically on array element `i`.
    ///
    /// # Errors
    ///
    /// [`AlpsError::ObjectClosed`], [`AlpsError::UnknownEntry`];
    /// [`AlpsError::ProtocolViolation`] when `P` has no element `i`.
    pub fn accept_slot(&self, entry: &str, slot: usize) -> Result<AcceptedCall> {
        self.select_one(One::Accept(entry, Some(slot)))
            .map(Selected::into_accepted)
    }

    /// `await P` — block until some execution of `entry` is ready to
    /// terminate.
    ///
    /// # Errors
    ///
    /// [`AlpsError::ObjectClosed`], [`AlpsError::UnknownEntry`].
    pub fn await_done(&self, entry: &str) -> Result<ReadyEntry> {
        self.select_one(One::Await(entry, None))
            .map(Selected::into_ready)
    }

    /// `await P[i]` — await a specific array element.
    ///
    /// # Errors
    ///
    /// [`AlpsError::ObjectClosed`], [`AlpsError::UnknownEntry`];
    /// [`AlpsError::ProtocolViolation`] when `P` has no element `i`.
    pub fn await_slot(&self, entry: &str, slot: usize) -> Result<ReadyEntry> {
        self.select_one(One::Await(entry, Some(slot)))
            .map(Selected::into_ready)
    }

    /// The select behind every single-guard primitive: resolve the entry
    /// name once, build an index guard, and select over that one guard —
    /// no `String` and no `Vec`, so a warm `accept` allocates nothing.
    fn select_one(&self, one: One<'_>) -> Result<Selected> {
        let obj = &self.obj;
        let kind = match one {
            One::Accept(name, slot) => GuardKind::Accept {
                entry: EntrySel::Idx(obj.entry_idx(name)?),
                slot,
            },
            One::Await(name, slot) => GuardKind::AwaitDone {
                entry: EntrySel::Idx(obj.entry_idx(name)?),
                slot,
            },
            One::Receive(chan) => GuardKind::Receive { chan: chan.clone() },
        };
        run_select(obj, std::slice::from_ref(&Guard::new(kind)), self.gen)
    }

    /// `receive C` — block for a message on a channel, interruptible by
    /// object shutdown (prefer this over [`ChanValue::recv`] inside
    /// managers).
    ///
    /// # Errors
    ///
    /// [`AlpsError::ObjectClosed`]; [`AlpsError::SelectFailed`] when the
    /// channel is closed and drained.
    pub fn receive(&self, chan: &ChanValue) -> Result<Vec<Value>> {
        match self.select_one(One::Receive(chan))? {
            Selected::Received { msg, .. } => Ok(msg),
            _ => unreachable!("single receive guard"),
        }
    }

    /// The `Accepted → Started` step `start` and `execute` share: check
    /// the supplied prefix and hidden parameters, take the call out of
    /// its `Accepted` slot, and leave it `Started` with the body's full
    /// argument list `prefix ++ suffix ++ hidden` in hand. `what` names
    /// the primitive in the [`AlpsError::ProtocolViolation`] text, and
    /// `by_start` whether the body goes to the pool for the manager to
    /// await.
    fn begin(
        &self,
        acc: AcceptedCall,
        prefix: ValVec,
        hidden: ValVec,
        what: &'static str,
        by_start: bool,
    ) -> Result<(Arc<ObjectInner>, usize, usize, ValVec)> {
        let def = &acc.obj.entries[acc.entry];
        let ic = def.intercept.expect("accepted entries are intercepted");
        check_types_lazy(&def.params[..ic.params], &prefix, || {
            format!("start {}.{} prefix", acc.obj.name, def.name)
        })?;
        check_types_lazy(&def.hidden_params, &hidden, || {
            format!("start {}.{} hidden", acc.obj.name, def.name)
        })?;
        if acc.obj.is_closed() {
            let _ = acc.disarm();
            return Err(self.obj.closed_err());
        }
        let (obj, entry, slot, gen) = acc.disarm();
        let mut es = obj.lock_at_gen(entry, gen)?;
        let call = accepted(take_slot(&mut es, slot, "accepted", what)?);
        obj.stats.on_start();
        let mut full = prefix;
        // Move the non-intercepted argument suffix out of the cell (the
        // prefix copy was taken at accept; nothing reads `args` once the
        // slot is `Started`).
        full.extend(call.take_args().split_off(ic.params));
        full.extend(hidden);
        es.replace(slot, Slot::Started { call, by_start });
        drop(es);
        Ok((obj, entry, slot, full))
    }

    /// `start P(...)` — begin executing the accepted call asynchronously,
    /// supplying the (possibly rewritten) intercepted parameter prefix and
    /// the hidden parameters.
    ///
    /// # Errors
    ///
    /// Type/arity mismatches against the declared prefix and hidden
    /// parameter lists; [`AlpsError::ObjectClosed`].
    pub fn start(
        &self,
        acc: AcceptedCall,
        prefix: impl Into<ValVec>,
        hidden: impl Into<ValVec>,
    ) -> Result<()> {
        let (obj, entry, slot, full) =
            self.begin(acc, prefix.into(), hidden.into(), "start", true)?;
        obj.dispatch_body(entry, Some((slot, full)));
        Ok(())
    }

    /// `start P` forwarding the intercepted parameters unchanged; for
    /// entries without hidden parameters.
    ///
    /// # Errors
    ///
    /// As [`start`](Self::start).
    pub fn start_as_is(&self, acc: AcceptedCall) -> Result<()> {
        let prefix = acc.params.clone();
        self.start(acc, prefix, ValVec::new())
    }

    /// `finish P(...)` — endorse termination, forwarding the (possibly
    /// rewritten) intercepted result prefix to the caller. Never blocks
    /// (paper §2.3: "when the manager executes a finish P(...), it never
    /// blocks because the caller of P is simply waiting for the results").
    ///
    /// # Errors
    ///
    /// Type/arity mismatches against the intercepted result prefix.
    pub fn finish(&self, done: ReadyEntry, prefix: impl Into<ValVec>) -> Result<()> {
        let prefix: ValVec = prefix.into();
        let def = &done.obj.entries[done.entry];
        let ic = def.intercept.expect("awaited entries are intercepted");
        if done.failure.is_none() {
            check_types_lazy(&def.results[..ic.results], &prefix, || {
                format!("finish {}.{} prefix", done.obj.name, def.name)
            })?;
        }
        let (obj, entry, slot, gen, failure) = done.disarm();
        // Commit point, before the entry lock: the `complete` below runs
        // the finish-vs-cancel CAS against a deadline-bounded caller.
        obj.rt.sim_point(CommitPoint::FinishCas);
        let mut es = obj.lock_at_gen(entry, gen)?;
        let Slot::Awaited { call, remainder } = take_slot(&mut es, slot, "awaited", "finish")?
        else {
            unreachable!("take_slot checked the state");
        };
        obj.stats.on_finish();
        let reply = match failure {
            None => {
                let mut results = prefix;
                results.extend(remainder);
                Ok(results)
            }
            Some(message) => Err(AlpsError::BodyFailed {
                entry: obj.entries[entry].name.clone(),
                message,
            }),
        };
        obj.complete(&call, reply);
        obj.free_managed_slot(&mut es, entry, slot);
        drop(es);
        obj.release_cell(call);
        Ok(())
    }

    /// `finish P` forwarding the intercepted results unchanged.
    ///
    /// # Errors
    ///
    /// As [`finish`](Self::finish).
    pub fn finish_as_is(&self, done: ReadyEntry) -> Result<()> {
        let prefix = done.results.clone();
        self.finish(done, prefix)
    }

    /// Request combining (paper §2.7): answer an accepted call *without*
    /// executing its body, supplying the full public result list. Legal
    /// only when the manager intercepted the full parameter list.
    ///
    /// # Errors
    ///
    /// [`AlpsError::BadCombining`] when parameters were not fully
    /// intercepted; type/arity mismatches against the full result list.
    pub fn finish_accepted(&self, acc: AcceptedCall, results: impl Into<ValVec>) -> Result<()> {
        let results: ValVec = results.into();
        let def = &acc.obj.entries[acc.entry];
        let ic = def.intercept.expect("accepted entries are intercepted");
        if ic.params != def.params.len() {
            return Err(AlpsError::BadCombining {
                reason: format!(
                    "entry `{}` intercepts only {} of {} parameters; combining requires \
                     the manager to receive all invocation parameters",
                    def.name,
                    ic.params,
                    def.params.len()
                ),
            });
        }
        check_types_lazy(&def.results, &results, || {
            format!("combine {}.{} results", acc.obj.name, def.name)
        })?;
        let (obj, entry, slot, gen) = acc.disarm();
        // Commit point: combining's `complete` races caller cancels the
        // same way `finish` does.
        obj.rt.sim_point(CommitPoint::FinishCas);
        let mut es = obj.lock_at_gen(entry, gen)?;
        let call = accepted(take_slot(&mut es, slot, "accepted", "finish_accepted")?);
        obj.stats.on_combine();
        obj.complete(&call, Ok(results));
        obj.free_managed_slot(&mut es, entry, slot);
        drop(es);
        obj.release_cell(call);
        Ok(())
    }

    /// `execute P` ≡ `start P; await P; finish P` (paper §2.3): run the
    /// call to completion while the manager waits — monitor-style
    /// exclusive execution. Returns the intercepted result prefix and the
    /// hidden results.
    ///
    /// # Errors
    ///
    /// As the three underlying primitives; [`AlpsError::BodyFailed`] if
    /// the body failed (the caller receives the same error).
    pub fn execute(&self, acc: AcceptedCall) -> Result<(ValVec, ValVec)> {
        let prefix = acc.params.clone();
        self.execute_with(acc, prefix, ValVec::new())
    }

    /// [`execute`](Self::execute) with explicit intercepted-parameter
    /// prefix and hidden parameters.
    ///
    /// # Errors
    ///
    /// As [`execute`](Self::execute).
    pub fn execute_with(
        &self,
        acc: AcceptedCall,
        prefix: impl Into<ValVec>,
        hidden: impl Into<ValVec>,
    ) -> Result<(ValVec, ValVec)> {
        // `start`: Accepted → Started — but the body runs right here in
        // the manager's process instead of being handed to the pool. The
        // manager would block in `await` until the body finished anyway
        // (monitor-style exclusive execution), so executing it inline is
        // observationally the same protocol minus a worker wakeup, a
        // manager park, and a notifier round trip.
        let (obj, entry, slot, full) =
            self.begin(acc, prefix.into(), hidden.into(), "execute", false)?;
        let def = &obj.entries[entry];
        let kr = def.intercept.map_or(0, |ic| ic.results);
        let pub_len = def.results.len();
        let outcome = obj.exec_checked_body(entry, slot, full);
        // Commit point, between body completion and the re-lock: the
        // fused `await; finish` below completes the caller, racing its
        // deadline cancel and any restart sweeping this slot.
        obj.rt.sim_point(CommitPoint::FinishCas);
        // `await; finish` fused: take the call back out of the slot and
        // answer the caller directly — no Ready state, no notify.
        let mut es = obj.slots.lock(entry);
        let call = match es.replace(slot, Slot::Free) {
            Slot::Started { call, .. } => call,
            // A supervised restart swept the slot mid-body: the caller
            // was already answered `ObjectRestarting`, the computed
            // outcome must be discarded (it belongs to the dead
            // generation), and the manager body unwinds so the
            // supervisor can re-enter it.
            Slot::Abandoned => {
                obj.free_managed_slot(&mut es, entry, slot);
                return Err(obj.restarting_err());
            }
            // Only shutdown can have swept the slot; the caller was
            // already answered with the shutdown error.
            other => {
                es.replace(slot, other);
                return Err(obj.closed_err());
            }
        };
        obj.stats.on_finish();
        let ret = match outcome {
            Ok(mut full_results) => {
                // In-place reply: the hidden suffix splits off by move,
                // the intercepted prefix is the only copy (inline for
                // kr ≤ 4), and the public result list moves straight
                // into the cell's reply slot — the caller wakes and
                // takes it without another copy.
                let hidden_out = full_results.split_off(pub_len);
                let ret_prefix = ValVec::from_slice(&full_results[..kr]);
                obj.complete(&call, Ok(full_results));
                Ok((ret_prefix, hidden_out))
            }
            Err(message) => {
                let failed = obj.body_failed(entry, message);
                obj.complete(&call, Err(failed.clone()));
                Err(failed)
            }
        };
        obj.free_managed_slot(&mut es, entry, slot);
        drop(es);
        obj.release_cell(call);
        ret
    }
}
