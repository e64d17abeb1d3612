//! Epoch-based event notification.
//!
//! A [`Notifier`] is the wakeup primitive the object/manager layer builds
//! its `select` on: a manager snapshots the epoch, evaluates its guards,
//! and — if none is eligible — waits for the epoch to change. Any event
//! source (an arriving entry call, a terminating entry procedure, a
//! channel send) bumps the epoch and unparks the waiters. Spurious wakeups
//! are benign because waiters always re-evaluate their condition.
//!
//! # Fast path
//!
//! The epoch is a plain atomic and the waiter list is guarded by a flag:
//! when nobody is parked — the common case while a manager is busy
//! draining work — `notify` is one `fetch_add` plus one load, with no
//! lock and no syscall.
//!
//! Lost wakeups are impossible by a store-buffer argument: a waiter
//! registers itself (and raises the flag) *before* re-checking the epoch,
//! a notifier bumps the epoch *before* checking the flag (both SeqCst) —
//! at least one of the two observes the other.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::executor::Runtime;
use crate::process::ProcId;

#[derive(Debug)]
pub(crate) struct NotifierInner {
    epoch: AtomicU64,
    has_waiters: AtomicBool,
    waiters: Mutex<Vec<ProcId>>,
}

impl NotifierInner {
    fn notify(&self, rt: &Runtime) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.wake(rt);
    }

    fn wake(&self, rt: &Runtime) {
        if !self.has_waiters.load(Ordering::SeqCst) {
            return;
        }
        let mut waiters = {
            let mut ws = self.waiters.lock();
            self.has_waiters.store(false, Ordering::SeqCst);
            std::mem::take(&mut *ws)
        };
        for w in waiters.drain(..) {
            rt.unpark(w);
        }
        // Hand the emptied buffer back, so the next registration does not
        // allocate: an object's manager parks through here on every idle
        // wait.
        let mut ws = self.waiters.lock();
        if ws.capacity() == 0 {
            *ws = waiters;
        }
    }
}

/// A broadcast wakeup channel with an epoch counter.
///
/// # Examples
///
/// ```
/// use alps_runtime::{Notifier, Runtime};
///
/// let rt = Runtime::threaded();
/// let n = Notifier::new();
/// let seen = n.epoch();
/// n.notify(&rt);
/// assert!(n.epoch() > seen);
/// rt.shutdown();
/// ```
#[derive(Debug, Clone)]
pub struct Notifier {
    inner: Arc<NotifierInner>,
}

impl Default for Notifier {
    fn default() -> Self {
        Self::new()
    }
}

impl Notifier {
    /// New notifier at epoch 0 with no waiters.
    pub fn new() -> Notifier {
        Notifier {
            inner: Arc::new(NotifierInner {
                epoch: AtomicU64::new(0),
                has_waiters: AtomicBool::new(false),
                waiters: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Current epoch. Snapshot this *before* evaluating the condition you
    /// are about to wait on.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// Bump the epoch and unpark all registered waiters. Lock-free when
    /// nobody is waiting.
    pub fn notify(&self, rt: &Runtime) {
        self.inner.notify(rt);
    }

    /// Park the calling process until the epoch differs from `seen`.
    /// Returns immediately if it already does. May return spuriously;
    /// callers re-check their condition in a loop.
    pub fn wait_past(&self, rt: &Runtime, seen: u64) {
        self.wait(rt, seen, None);
    }

    /// Deadline-bounded variant of [`wait_past`](Notifier::wait_past):
    /// park until the epoch differs from `seen` **or** `rt.now()` reaches
    /// the absolute tick `deadline`. Returns `true` when the epoch moved,
    /// `false` on timeout. Uses the same register-then-recheck handshake
    /// as `wait_past`, with [`Runtime::park_timeout`] bounding each park;
    /// on timeout the caller deregisters itself so the waiter list does
    /// not accumulate dead entries.
    pub fn wait_past_deadline(&self, rt: &Runtime, seen: u64, deadline: u64) -> bool {
        self.wait(rt, seen, Some(deadline))
    }

    /// The one wait loop: register, raise `has_waiters`, re-check the
    /// epoch, park (timer-bounded when there is a `deadline`). Returns
    /// `true` once the epoch moved, `false` when the deadline passed.
    fn wait(&self, rt: &Runtime, seen: u64, deadline: Option<u64>) -> bool {
        let me = rt.current();
        loop {
            if self.inner.epoch.load(Ordering::SeqCst) != seen {
                return true;
            }
            let left = match deadline {
                None => None,
                Some(at) => {
                    let now = rt.now();
                    if now >= at {
                        let mut ws = self.inner.waiters.lock();
                        if let Some(pos) = ws.iter().position(|w| *w == me) {
                            ws.remove(pos);
                        }
                        return false;
                    }
                    Some(at - now)
                }
            };
            {
                let mut ws = self.inner.waiters.lock();
                if !ws.contains(&me) {
                    ws.push(me);
                }
                self.inner.has_waiters.store(true, Ordering::SeqCst);
            }
            // Dekker handshake: register first, then re-check. If a notify
            // slipped in before registration, this load sees its bump; if
            // after, the notify sees `has_waiters` and unparks us.
            if self.inner.epoch.load(Ordering::SeqCst) != seen {
                return true;
            }
            match left {
                Some(ticks) => rt.park_timeout(ticks),
                None => rt.park(),
            }
        }
    }

    pub(crate) fn downgrade(&self) -> WeakNotifier {
        WeakNotifier {
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Pointer identity, used to deduplicate subscriptions.
    pub(crate) fn inner_ptr(&self) -> usize {
        Arc::as_ptr(&self.inner) as *const () as usize
    }
}

/// A weak handle used by event sources (channels) to signal subscribed
/// selects without keeping them alive.
#[derive(Debug, Clone)]
pub(crate) struct WeakNotifier {
    inner: Weak<NotifierInner>,
}

impl WeakNotifier {
    /// Notify if the notifier is still alive; returns false when dead (the
    /// subscriber entry can be pruned).
    pub(crate) fn notify(&self, rt: &Runtime) -> bool {
        match self.inner.upgrade() {
            Some(inner) => {
                inner.notify(rt);
                true
            }
            None => false,
        }
    }

    /// Whether the underlying notifier is still alive.
    pub(crate) fn is_alive(&self) -> bool {
        self.inner.strong_count() > 0
    }

    /// Pointer identity of the underlying notifier.
    pub(crate) fn ptr(&self) -> usize {
        self.inner.as_ptr() as *const () as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SimRuntime;
    use crate::process::Spawn;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn epoch_starts_at_zero_and_increments() {
        let rt = Runtime::threaded();
        let n = Notifier::new();
        assert_eq!(n.epoch(), 0);
        n.notify(&rt);
        n.notify(&rt);
        assert_eq!(n.epoch(), 2);
    }

    #[test]
    fn wait_past_returns_immediately_on_stale_epoch() {
        let rt = Runtime::threaded();
        let n = Notifier::new();
        n.notify(&rt);
        n.wait_past(&rt, 0); // epoch is 1, returns at once
    }

    #[test]
    fn wait_past_blocks_until_notify_sim() {
        let sim = SimRuntime::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        sim.run(move |rt| {
            let n = Notifier::new();
            let n2 = n.clone();
            let rt2 = rt.clone();
            let h = rt.spawn_with(Spawn::new("waiter"), move || {
                let seen = n2.epoch();
                n2.wait_past(&rt2, seen);
                hits2.store(1, Ordering::SeqCst);
            });
            rt.yield_now(); // waiter runs and parks
            n.notify(rt);
            h.join().unwrap();
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wait_past_deadline_times_out_and_deregisters() {
        let sim = SimRuntime::new();
        sim.run(|rt| {
            let n = Notifier::new();
            let seen = n.epoch();
            let t0 = rt.now();
            assert!(!n.wait_past_deadline(rt, seen, t0 + 300));
            assert_eq!(rt.now(), t0 + 300);
            // Deregistered on timeout: the wake pass has nobody to visit.
            assert!(
                !n.inner.has_waiters.load(Ordering::SeqCst) || n.inner.waiters.lock().is_empty()
            );
        })
        .unwrap();
    }

    #[test]
    fn wait_past_deadline_returns_true_on_notify() {
        let sim = SimRuntime::new();
        sim.run(|rt| {
            let n = Notifier::new();
            let n2 = n.clone();
            let rt2 = rt.clone();
            let h = rt.spawn_with(Spawn::new("waiter"), move || {
                let seen = n2.epoch();
                n2.wait_past_deadline(&rt2, seen, rt2.now() + 1_000_000)
            });
            rt.yield_now(); // waiter parks
            n.notify(rt);
            assert!(h.join().unwrap());
            // Notified well before the deadline: no clock advance needed.
            assert_eq!(rt.now(), 0);
        })
        .unwrap();
    }

    #[test]
    fn weak_notifier_reports_liveness() {
        let rt = Runtime::threaded();
        let n = Notifier::new();
        let w = n.downgrade();
        assert!(w.notify(&rt));
        drop(n);
        assert!(!w.notify(&rt));
    }

    #[test]
    fn notify_wakes_multiple_waiters() {
        let sim = SimRuntime::new();
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        sim.run(move |rt| {
            let n = Notifier::new();
            let mut hs = Vec::new();
            for i in 0..3 {
                let n2 = n.clone();
                let rt2 = rt.clone();
                let c2 = Arc::clone(&c);
                hs.push(rt.spawn_with(Spawn::new(format!("w{i}")), move || {
                    let seen = n2.epoch();
                    n2.wait_past(&rt2, seen);
                    c2.fetch_add(1, Ordering::SeqCst);
                }));
            }
            rt.yield_now();
            rt.yield_now();
            rt.yield_now();
            n.notify(rt);
            for h in hs {
                h.join().unwrap();
            }
        })
        .unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }
}
