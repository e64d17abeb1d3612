//! Supervision: poison, restart generations, the restart sweep, and the
//! supervisor loop that re-enters the manager body after a restart.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use alps_runtime::{CommitPoint, Priority, Spawn};
use parking_lot::Mutex;

use crate::cell::{CallCell, EntryState, Slot};
use crate::error::{AlpsError, Result};
use crate::manager::ManagerCtx;
use crate::object::{ManagerBody, ObjectInner};
use crate::supervise::RestartPolicy;

pub(crate) struct Supervisor {
    /// `None` for unsupervised objects; with `state_init`, the installed
    /// configuration
    /// ([`ObjectBuilder::supervise`](crate::ObjectBuilder::supervise)).
    policy: Option<RestartPolicy>,
    state_init: Option<Box<dyn Fn() + Send + Sync + 'static>>,
    /// Set when an entry body panics in a supervised object: the object's
    /// invariants may be corrupt, so new calls fail fast. Poisoned ≠
    /// closed — the manager keeps running and in-flight calls complete
    /// normally. A successful restart clears it.
    poisoned: AtomicBool,
    /// Restart generation: bumped at the start of every supervised
    /// restart, *before* the in-flight sweep. Manager primitives capture
    /// it at [`ManagerCtx`] creation and re-check it under the entry lock
    /// before committing, so a pre-restart manager can never accept,
    /// start, or finish into the post-restart object — stale replies are
    /// refused with [`AlpsError::ObjectRestarting`] instead of delivered.
    generation: AtomicU64,
    /// Serializes restarts and holds the timestamps the
    /// [`RestartPolicy::RestartTransient`] budget window is judged
    /// against. The supervisor loop takes it (empty critical section) as
    /// a barrier so the manager body never re-enters while a sweep or
    /// state rebuild is still in progress.
    restart_times: Mutex<Vec<u64>>,
    /// A restart was refused — budget exhausted, injected `"restart"`
    /// fault, or a panicking `state_init`. The poison is permanent:
    /// callers get [`AlpsError::ObjectPoisoned`], not the transient
    /// [`AlpsError::ObjectRestarting`]. Stored before `poisoned`, so no
    /// caller reads a refused restart as one in progress.
    perm_failed: AtomicBool,
    /// The error the manager body exited with, other than the normal
    /// shutdown path.
    manager_error: Mutex<Option<AlpsError>>,
}

impl Supervisor {
    pub(crate) fn new(
        policy: Option<RestartPolicy>,
        state_init: Option<Box<dyn Fn() + Send + Sync + 'static>>,
    ) -> Supervisor {
        Supervisor {
            policy,
            state_init,
            poisoned: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            restart_times: Mutex::new(Vec::new()),
            perm_failed: AtomicBool::new(false),
            manager_error: Mutex::new(None),
        }
    }
}

impl ObjectInner {
    #[inline]
    pub(crate) fn generation(&self) -> u64 {
        self.supervisor.generation.load(Ordering::SeqCst)
    }

    /// Lock `entry` for a manager step taken under restart generation
    /// `gen`. Refused with [`AlpsError::ObjectRestarting`] once a restart
    /// has bumped the generation: its sweep answered the token's caller,
    /// and the slot may belong to the new generation now.
    #[inline]
    pub(crate) fn lock_at_gen(&self, entry: usize, gen: u64) -> Result<EntryState<'_>> {
        let es = self.slots.lock(entry);
        if self.generation() != gen {
            return Err(self.restarting_err());
        }
        Ok(es)
    }

    pub(crate) fn restarting_err(&self) -> AlpsError {
        AlpsError::ObjectRestarting {
            object: self.name.clone(),
        }
    }

    #[inline]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.supervisor.poisoned.load(Ordering::SeqCst)
    }

    /// The error a new call gets while the object is poisoned: transient
    /// ([`AlpsError::ObjectRestarting`], retry-worthy) while a supervised
    /// restart is still possible, permanent ([`AlpsError::ObjectPoisoned`])
    /// otherwise.
    pub(crate) fn poison_reject(&self) -> AlpsError {
        let sv = &self.supervisor;
        if sv.policy.is_some() && !sv.perm_failed.load(Ordering::SeqCst) {
            self.restarting_err()
        } else {
            AlpsError::ObjectPoisoned {
                object: self.name.clone(),
            }
        }
    }

    pub(crate) fn manager_error(&self) -> Option<AlpsError> {
        self.supervisor.manager_error.lock().clone()
    }

    /// An entry body panicked (not an error return), called with no locks
    /// held in whichever process ran it (pool worker, inline caller, or
    /// the manager itself via `execute`). The panic may have unwound the
    /// body mid-update: a supervised object fails all future calls fast
    /// rather than letting them observe torn state, and attempts a
    /// restart, which clears the poison again on success. An unsupervised
    /// object is left as it is.
    ///
    /// Under the restart lock: charge the restart budget (refusal ⇒
    /// permanent poison), consult the `"restart"` fault point, poison,
    /// bump the generation, fail the calls in flight,
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
    pub(crate) fn handle_body_panic(self: &Arc<Self>) {
        let sv = &self.supervisor;
        let Some(policy) = sv.policy else { return };
        // Commit point, before the restart lock: a restart is about to
        // sweep in-flight calls, racing callers publishing, cancelling,
        // and the manager finishing. No locks held yet.
        self.rt.sim_point(CommitPoint::RestartSweep);
        // Serialize concurrent panics: each performs (or is refused) one
        // restart, in panic order. The supervisor loop also takes this
        // lock as its re-entry barrier.
        let mut times = sv.restart_times.lock();
        if self.is_closed() || sv.perm_failed.load(Ordering::SeqCst) {
            sv.poisoned.store(true, Ordering::SeqCst);
            return;
        }
        let now = self.rt.now();
        let allowed = match policy {
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
            sv.perm_failed.store(true, Ordering::SeqCst);
            sv.poisoned.store(true, Ordering::SeqCst);
            return;
        }
        sv.poisoned.store(true, Ordering::SeqCst);
        times.push(now);
        // Bump the generation FIRST: every manager primitive re-checks it
        // under the entry lock, so no old-generation accept, start, or
        // finish can commit once the sweep below begins.
        sv.generation.fetch_add(1, Ordering::SeqCst);
        self.restart_sweep();
        // Rebuild user state. A panicking initializer fails the restart
        // permanently (poison), not the process.
        if let Some(init) = &sv.state_init {
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(&**init)).is_err() {
                sv.perm_failed.store(true, Ordering::SeqCst);
                return;
            }
        }
        self.stats.on_restart();
        sv.poisoned.store(false, Ordering::SeqCst);
        drop(times);
        self.notifier.notify(&self.rt);
        self.intake.space_freed(&self.rt);
    }

    /// The restart's in-flight sweep. Phase 1 fails the intake ring under
    /// the drain lock. Phase 2 walks each entry under its own lock — the
    /// drain lock is *not* held, matching `drain_intake`'s drain-lock →
    /// entry-lock order — and completes victims only after unlocking,
    /// mirroring `shutdown`.
    fn restart_sweep(self: &Arc<Self>) {
        self.fail_intake(|| self.restarting_err());
        for entry in 0..self.entries.len() {
            let mut victims: Vec<Arc<CallCell>> = Vec::new();
            {
                let mut es = self.slots.lock(entry);
                victims.extend(es.drain());
                es.sweep(
                    |s| match s {
                        // An inline implicit body answers its own caller;
                        // an already-abandoned body is somebody else's
                        // cleanup. Both keep their slot.
                        Slot::Free | Slot::InlineBusy | Slot::Abandoned => None,
                        // The body cannot be interrupted. It keeps the
                        // slot as Abandoned; `body_done` discards its
                        // outcome and frees it.
                        Slot::Started { .. } => Some(Slot::Abandoned),
                        // Every other call — attached, or held by the
                        // dead generation's bookkeeping (accepted, ready,
                        // awaited, maybe with a pre-restart result that
                        // must never be delivered) — is failed.
                        _ => Some(Slot::Free),
                    },
                    &mut victims,
                );
            }
            for call in victims {
                self.complete(&call, Err(self.restarting_err()));
            }
        }
    }

    /// Start the manager process: the supervisor loop around `body`. The
    /// body is a `FnMut`, so a supervised restart simply re-enters it from
    /// the top with a fresh generation-tagged context — its closure-local
    /// state (counts, free lists, …) rebuilds naturally.
    pub(crate) fn spawn_manager(self: &Arc<Self>, mut body: ManagerBody, prio: Priority) {
        let obj = Arc::clone(self);
        let supervised = obj.supervisor.policy.is_some();
        let opts = Spawn::new(format!("{}:manager", self.name))
            .prio(prio)
            .daemon(true);
        self.rt.spawn_with(opts, move || loop {
            let mut ctx = ManagerCtx::new(Arc::clone(&obj));
            match body(&mut ctx) {
                Ok(()) | Err(AlpsError::ObjectClosed { .. }) | Err(AlpsError::Runtime(_)) => break,
                Err(AlpsError::ObjectRestarting { .. }) if supervised => {
                    // A restart invalidated this generation. Wait for the
                    // in-flight sweep and state rebuild to complete (the
                    // restart holds this lock throughout) before
                    // re-entering, so the new generation never observes a
                    // half-swept object — that barrier is what makes
                    // "zero stale pre-restart replies" hold.
                    drop(obj.supervisor.restart_times.lock());
                    // A restart whose rebuild failed leaves the object
                    // permanently poisoned: nothing will ever be admitted
                    // again, so don't re-enter.
                    if obj.supervisor.perm_failed.load(Ordering::SeqCst) {
                        break;
                    }
                }
                Err(e) => {
                    *obj.supervisor.manager_error.lock() = Some(e);
                    obj.shutdown();
                    break;
                }
            }
        });
    }
}
