//! Building an object, the handle callers hold, and the caller's side of
//! the call protocol.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alps_runtime::{CommitPoint, Priority, Runtime};

use crate::cell::Slot;
use crate::entry::EntryDef;
use crate::error::{AlpsError, Result};
use crate::intake::{AdmissionPolicy, Intake};
use crate::manager::ManagerCtx;
use crate::object::{ManagerBody, ObjectInner};
use crate::pool::PoolMode;
use crate::restart::Supervisor;
use crate::stats::ObjectStats;
use crate::supervise::{RestartPolicy, Wait};
use crate::value::{check_types_lazy, ValVec, Value};

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

impl ObjectInner {
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

        let call = if !intercepted {
            let mut es = self.slots.lock(entry);
            if self.is_closed() {
                return Err(self.closed_err());
            }
            // Fast path: an implicit (non-intercepted) entry with a free
            // slot runs its body inline in this process — the caller would
            // block for the result anyway, so this is observationally the
            // same rendezvous minus the pool hand-off and two park/unpark
            // pairs, and it touches no heap at all. A deadline bounds
            // *waiting*, never execution already underway, so it plays no
            // part here.
            if let Some(i) = es.free_slot() {
                es.replace(i, Slot::InlineBusy);
                drop(es);
                return self.run_inline(entry, i, args, t_call);
            }
            // All slots busy: queue through a (recycled) call cell under
            // the entry lock (no manager exists to drain a ring for us).
            // `#P` changed; manager `when` conditions may depend on it.
            let call = self.acquire_cell(args, self.rt.current(), t_call);
            es.push(Arc::clone(&call));
            self.notifier.notify(&self.rt);
            call
        } else {
            // Intercepted entries rendezvous through a (recycled) call
            // cell submitted to the lock-free intake ring; the manager
            // drains it in batches. (An injected `intake_push` fault skips
            // the submission: the cell is never published, so a
            // deadline-bounded caller recovers via Timeout and a plain
            // caller hangs — in simulation, as a detected deadlock.)
            let call = self.acquire_cell(args, self.rt.current(), t_call);
            if !self.rt.fault_point("intake_push") {
                // Commit point: the next step publishes this call into the
                // ring, racing the manager's drain. No locks held.
                self.rt.sim_point(CommitPoint::IntakePush);
                if let Err(e) = self.push_intake(entry, &call) {
                    self.release_cell(call);
                    return Err(e);
                }
                // Shutdown may have raced the push: its sweep can miss a
                // slot whose publish was still in this core's store buffer
                // when it popped. The fence orders our publish before the
                // load below, so either shutdown's sweep sees our item, or
                // we see `closed` here and sweep it (or a classified
                // victim) out ourselves.
                std::sync::atomic::fence(Ordering::SeqCst);
                if self.is_closed() {
                    self.fail_intake(|| self.closed_err());
                }
            }
            call
        };
        let deadline = deadline.map(|ticks| (t_call.saturating_add(ticks), ticks));
        let r = self.wait_for_reply(&call, entry, intercepted, deadline);
        self.release_cell(call);
        r
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
    /// machinery instead of (only) poisoning. Per `policy` the object's
    /// in-flight calls are failed, its user state is rebuilt by the
    /// [`state_init`](Self::state_init) closure, its manager process body
    /// is re-entered at a bumped generation, and the poison is cleared —
    /// the object serves calls again. A refused restart (budget
    /// exhausted) leaves the object permanently poisoned, exactly like
    /// [`poison_on_panic`](Self::poison_on_panic).
    ///
    /// While a restart is possible, rejected new calls and swept in-flight
    /// calls fail with the *transient* [`AlpsError::ObjectRestarting`]
    /// (retry-worthy — see [`Wait::Retry`]) rather than the
    /// permanent [`AlpsError::ObjectPoisoned`].
    pub fn supervise(mut self, policy: RestartPolicy) -> Self {
        self.supervise = Some(policy);
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
        let total = self.entries.iter().map(|e| e.array).sum();
        let intake = Intake::new(
            self.entries.len(),
            total,
            self.intake_capacity,
            self.admission,
        );
        let supervisor = Supervisor::new(self.supervise, self.state_init, self.poison_on_panic);
        let uid = OBJECT_UID.fetch_add(1, Ordering::Relaxed);
        let inner = Arc::new(ObjectInner::new(
            rt,
            self.name,
            self.entries,
            by_name,
            self.pool,
            intake,
            supervisor,
        ));
        if let Some(body) = self.manager {
            inner.spawn_manager(body, self.manager_prio);
        }
        Ok(ObjectHandle {
            core: Arc::new(HandleCore { inner, uid }),
        })
    }
}

struct HandleCore {
    inner: Arc<ObjectInner>,
    /// Stamped into every [`EntryId`] this object mints.
    uid: u64,
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
        let inner = &self.core.inner;
        f.debug_struct("Object")
            .field("name", &inner.name)
            .field("entries", &inner.entries.len())
            .field("closed", &inner.is_closed())
            .finish()
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
            obj: self.core.uid,
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

    /// The entry index `id` names in this object, or
    /// [`AlpsError::ForeignEntryId`] for an id minted by another object.
    fn own(&self, id: EntryId) -> Result<usize> {
        if id.obj != self.core.uid {
            return Err(AlpsError::ForeignEntryId {
                object: self.core.inner.name.clone(),
            });
        }
        Ok(id.idx as usize)
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
        let idx = self.own(id)?;
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
        self.core.inner.generation()
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
        let idx = self.own(id)?;
        self.core.inner.call_protocol(idx, args.into(), false, None)
    }

    /// `#P` for an entry (paper §2.5.1; Ada `COUNT` / SR `?` analogue):
    /// calls attached but not yet accepted, calls queued for a free slot,
    /// and calls still in the intake ring, committed but not yet drained
    /// by the manager. Lock-free; the same count
    /// [`ManagerCtx::pending`] reads.
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

    /// Whether an entry-body panic poisoned the object: with
    /// [`ObjectBuilder::poison_on_panic`], or in a supervised object
    /// ([`ObjectBuilder::supervise`]) from the panic until a restart
    /// clears it — for good once a restart is refused.
    pub fn is_poisoned(&self) -> bool {
        self.core.inner.is_poisoned()
    }

    /// If the manager exited with an error (other than the normal
    /// shutdown path), that error.
    pub fn manager_error(&self) -> Option<AlpsError> {
        self.core.inner.manager_error()
    }

    /// Number of body executions the pool has run.
    pub fn pool_jobs_executed(&self) -> u64 {
        self.core.inner.pool.jobs_executed()
    }
}
