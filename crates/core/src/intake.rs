//! The intake ring: how a call to an intercepted entry reaches the
//! manager.
//!
//! Callers push `(entry, cell)` onto a per-object lock-free ring instead
//! of taking the entry lock; the manager drains it in batches at the top
//! of each select pass ([`ObjectInner::drain_intake`]) and parks, or
//! yield-polls, when it is empty ([`ObjectInner::wait_for_work`]).
//! Implicit entries keep the direct attach path — they have no manager to
//! drain for them.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use alps_runtime::{tuning, CommitPoint, IntakeRing, Notifier, Runtime};
use parking_lot::Mutex;

use crate::cell::{CallCell, Slot};
use crate::error::{AlpsError, Result};
use crate::object::ObjectInner;

/// What the call protocol does when the bounded intake ring is full.
///
/// Both policies preserve the intake's empty→non-empty notify contract
/// (only a push observing the empty→non-empty transition wakes the
/// manager) and per-entry FIFO (a shed call never entered the queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Backpressure: the caller yields, then parks until the manager
    /// drains room. Today's behaviour, made park-based instead of a pure
    /// yield spin.
    #[default]
    Block,
    /// Refuse the incoming call with
    /// [`AlpsError::Overloaded`]. Bounded
    /// latency for admitted calls; newest work is the casualty.
    ShedNewest,
}

/// Aligned to its own cache lines: callers and the manager write the ring
/// positions and the drain lock on every call, and on a line shared with
/// `ObjectInner`'s read-mostly fields that cost `call_solo` ~15 % of
/// `lat_p50_us` (2 vCPUs, alternating pairs).
#[repr(align(128))]
pub(crate) struct Intake {
    ring: IntakeRing<(u32, Arc<CallCell>)>,
    /// Per entry, its calls sitting in the ring: incremented by the
    /// *caller* before its push (no lock held) and decremented by whoever
    /// pops the item (drain or sweep). It makes `#P` cover calls the
    /// manager has not drained yet, so a guard like `when #P > 0` cannot
    /// miss a call that is already committed to the ring.
    in_ring: Box<[AtomicUsize]>,
    /// Serializes ring consumers (manager drain, shutdown sweep, a
    /// producer's post-close self-sweep) so each cell has one completer.
    drain_lock: Mutex<()>,
    /// Epoch bumped whenever ring space frees (drain, shutdown sweep,
    /// restart): `Block` producers facing a full ring park here instead
    /// of yield-spinning.
    space: Notifier,
    admission: AdmissionPolicy,
    /// True while the manager is between wakeup and its pre-park
    /// condition re-check; callers use it to decide whether yielding (the
    /// manager will service the ring soon) beats parking (it will not).
    mgr_active: AtomicBool,
    /// Poll mode: the manager yield-polls the intake ring instead of
    /// parking, so the whole submit→serve→reply cycle runs on scheduler
    /// rotation with no futex traffic. Set by `drain_intake` after any
    /// non-empty drain — a caller that was just served is the likeliest
    /// source of the next call, whether it is alone or one of a storm —
    /// and cleared after a dry poll budget in `wait_for_work`.
    mgr_poll: AtomicBool,
}

impl Intake {
    /// A ring for `entries` entries. The default capacity is sized so a
    /// storm of callers (far more than the `total_slots`) rarely hits the
    /// full-ring admission path, yet small enough to stay cache-resident;
    /// shed policies usually override the bound.
    pub(crate) fn new(
        entries: usize,
        total_slots: usize,
        capacity: Option<usize>,
        admission: AdmissionPolicy,
    ) -> Intake {
        Intake {
            ring: IntakeRing::with_capacity(
                capacity
                    .map(|n| n.next_power_of_two().max(2))
                    .unwrap_or_else(|| (total_slots * 8).next_power_of_two().clamp(64, 1024)),
            ),
            in_ring: (0..entries).map(|_| AtomicUsize::new(0)).collect(),
            drain_lock: Mutex::new(()),
            space: Notifier::new(),
            admission,
            mgr_active: AtomicBool::new(true),
            mgr_poll: AtomicBool::new(false),
        }
    }

    /// `entry`'s calls committed to the ring and not yet popped.
    #[inline]
    pub(crate) fn in_ring(&self, entry: usize) -> usize {
        self.in_ring[entry].load(Ordering::SeqCst)
    }

    /// Whether the manager is awake, so a caller's yield can reach it.
    #[inline]
    pub(crate) fn manager_active(&self) -> bool {
        self.mgr_active.load(Ordering::SeqCst)
    }

    #[inline]
    fn popped(&self, entry: usize) {
        self.in_ring[entry].fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake producers parked on a full ring (`Block` backpressure).
    pub(crate) fn space_freed(&self, rt: &Runtime) {
        self.space.notify(rt);
    }
}

impl ObjectInner {
    /// Publish `(entry, call)` to the intake ring, applying the object's
    /// [`AdmissionPolicy`] when the ring is full. On success the
    /// empty→non-empty notify contract is honored. On a shed, the entry's
    /// `in_ring` count is already rolled back and
    /// [`AlpsError::Overloaded`] returned — the caller owns the
    /// (unpublished) cell and must release it.
    pub(crate) fn push_intake(&self, entry: usize, call: &Arc<CallCell>) -> Result<()> {
        let ik = &self.intake;
        ik.in_ring[entry].fetch_add(1, Ordering::SeqCst);
        let mut item = (entry as u32, Arc::clone(call));
        // Backpressure epoch snapshot: `None` until the first full-ring
        // encounter; a push retried after snapshotting that still finds
        // the ring full parks until a drain moves the epoch past it.
        let mut seen: Option<u64> = None;
        loop {
            match ik.ring.push(item) {
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
                        ik.popped(entry);
                        drop(back);
                        return Err(self.closed_err());
                    }
                    item = back;
                    match ik.admission {
                        AdmissionPolicy::ShedNewest => {
                            ik.popped(entry);
                            self.stats.on_shed();
                            return Err(AlpsError::Overloaded {
                                object: self.name.clone(),
                            });
                        }
                        AdmissionPolicy::Block => match seen {
                            None => {
                                // First encounter: snapshot the space
                                // epoch, then yield once — the manager
                                // is often mid-drain already.
                                seen = Some(ik.space.epoch());
                                self.rt.yield_now();
                            }
                            Some(s) => {
                                // The retry between snapshot and here
                                // closes the missed-wakeup race: any
                                // drain after the snapshot moves the
                                // epoch past `s`.
                                ik.space.wait_past(&self.rt, s);
                                seen = None;
                            }
                        },
                    }
                }
            }
        }
    }

    /// Classify one popped intake item into its entry's slot array or
    /// wait queue. Runs under the drain lock.
    fn drain_classify(&self, entry: usize, call: Arc<CallCell>) {
        // A cancelled cell is a tombstone, not a stale call: the
        // caller's deadline expired between its push and this drain.
        // Acknowledge, drop the ring accounting, and recycle — it must
        // never reach a slot or the wait queue.
        if call.is_cancelled() {
            self.intake.popped(entry);
            self.tombstone(&call);
            self.release_cell(call);
            return;
        }
        if self.rt.fault_point("drain") {
            // Injected lost drain: the cell vanishes undelivered. Its
            // caller recovers via deadline (or deadlocks, detectably).
            self.intake.popped(entry);
            return;
        }
        let mut es = self.slots.lock(entry);
        if self.is_closed() {
            // Entry-lock mutual exclusion with shutdown's sweep makes
            // either ordering safe: whoever holds the cell fails it.
            drop(es);
            self.intake.popped(entry);
            self.complete(&call, Err(self.closed_err()));
            return;
        }
        // A slot only if no earlier call of this entry is queued: going
        // to a slot then would overtake it.
        match es.free_slot() {
            Some(i) if es.queued() == 0 => {
                es.replace(i, Slot::Attached { call });
            }
            _ => es.push(call),
        }
        // After the attach/queue increment so `#P` never transiently
        // under-counts this call.
        self.intake.popped(entry);
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
        let ik = &self.intake;
        if ik.ring.is_empty() {
            return;
        }
        // Commit point: work was observed but the drain lock is not yet
        // held — preempting here lets producers pile on (or cancel) and
        // lets a restart sweep win the lock first. Must stay *before*
        // the lock: a preemption while holding the drain lock could
        // OS-block a rival that holds the simulated CPU.
        self.rt.sim_point(CommitPoint::RingDrain);
        let drained = self.pop_all(|entry, call| self.drain_classify(entry, call));
        if drained > 0 {
            self.stats.on_drain(drained);
            // Poll after any drain (yield-poll instead of park, see
            // `wait_for_work`): whoever was just served — a lone
            // synchronous caller or a whole storm — is about to wake and
            // resubmit, and serving that on scheduler rotation costs no
            // futex traffic. One dry `MGR_POLL_BUDGET` parks again.
            // Load first: in steady state the flag is already set, and
            // the SeqCst store is a full fence on every drain
            // (`call_solo` p50 2.73 → 2.59 µs over 6 alternating runs).
            if !ik.mgr_poll.load(Ordering::SeqCst) {
                ik.mgr_poll.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Fail every published cell still in the intake ring with `err()`:
    /// the shutdown sweep, a producer that observed `closed` after its
    /// push, and a restart failing its in-flight calls. A cancelled cell
    /// loses `complete`'s CAS and is reaped there.
    pub(crate) fn fail_intake(&self, err: impl Fn() -> AlpsError) {
        self.pop_all(|entry, call| {
            self.intake.popped(entry);
            self.complete(&call, Err(err()));
        });
    }

    /// Pop every published cell under the drain lock, handing each to
    /// `f`, and return how many there were. Ring space freed wakes the
    /// producers parked on a full ring (`Block` backpressure): they must
    /// not stay parked on a ring that will not drain for them.
    fn pop_all(&self, mut f: impl FnMut(usize, Arc<CallCell>)) -> u64 {
        let ik = &self.intake;
        let _g = ik.drain_lock.lock();
        let mut n = 0u64;
        while let Some((eidx, call)) = ik.ring.pop() {
            n += 1;
            f(eidx as usize, call);
        }
        if n > 0 {
            ik.space_freed(&self.rt);
        }
        n
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
    /// It has no deadline: it returns once there may be work.
    pub(crate) fn wait_for_work(&self, epoch: u64) {
        let ik = &self.intake;
        // Poll mode (entered by `drain_intake` after any non-empty drain):
        // the callers just served are in their wake-and-resubmit window.
        // Parking now would convoy them — each would find `mgr_active`
        // false, park in turn, and pay a futex round trip per call while
        // the ring never accumulates a real batch. Instead, yield-poll the
        // ring: every yield hands the CPU to a waking caller, whose push
        // needs no notify syscall (we never register as a waiter) and
        // whose reply wait stays in its yield phase (`mgr_active` stays
        // true). One dry budget — no work after `tuning::MGR_POLL_BUDGET`
        // yields — demotes back to parking. Pointless in simulation, where
        // only one process runs at a time.
        //
        // While bodies this manager started are still running, it is the
        // object's serial resource waiting on them, and its yield is brief
        // (paper §3's high-priority manager): it comes back after the task
        // at the hot end of its worker's deque, not after every
        // yield-polling caller. Read once: only this manager starts
        // bodies, and one finishing moves the epoch, which ends the poll.
        if ik.mgr_poll.load(Ordering::SeqCst) && !self.rt.is_sim() {
            let brief = self.slots.bodies_in_flight();
            for _ in 0..tuning::MGR_POLL_BUDGET {
                if !ik.ring.is_empty() || self.notifier.epoch() != epoch {
                    self.stats.on_mgr_wakeup();
                    self.stats.on_spin_resolved();
                    return;
                }
                if brief {
                    self.rt.yield_briefly();
                } else {
                    self.rt.yield_now();
                }
            }
            ik.mgr_poll.store(false, Ordering::SeqCst);
        }
        ik.mgr_active.store(false, Ordering::SeqCst);
        if !ik.ring.is_empty() {
            ik.mgr_active.store(true, Ordering::SeqCst);
            self.rt.yield_now();
            return;
        }
        // An idle manager parks at once: a spin would hold the worker its
        // producers need. An epoch that already moved is no wait; any
        // other counts as park-resolved.
        let parks = self.notifier.epoch() == epoch;
        self.notifier.wait_past(&self.rt, epoch);
        ik.mgr_active.store(true, Ordering::SeqCst);
        self.stats.on_mgr_wakeup();
        if parks {
            self.stats.on_park_resolved();
        }
    }
}
