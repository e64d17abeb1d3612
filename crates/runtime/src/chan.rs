//! Asynchronous typed point-to-point channels (paper §2.1.2).
//!
//! ALPS channels are asynchronous (`send` buffers and continues), typed,
//! first-class values (they can be stored in data structures, passed as
//! procedure parameters and inside messages), and usable in the guards of
//! `select`/`loop` statements. This module provides `Chan<T>` with exactly
//! those properties:
//!
//! * unbounded by default, optionally bounded (`send` then blocks when
//!   full — a buffering limit, not a rendezvous);
//! * FIFO per channel;
//! * *acceptance-condition* support for guards: a receive guard may scan
//!   the queue for the first message satisfying a predicate, leaving
//!   non-matching messages untouched (SR-style semantics, see paper §2.4);
//! * select integration through [`Notifier`] subscription.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::RuntimeError;
use crate::executor::Runtime;
use crate::notifier::{Notifier, WeakNotifier};
use crate::process::ProcId;

struct ChanSt<T> {
    q: VecDeque<T>,
    recv_waiters: Vec<ProcId>,
    send_waiters: Vec<ProcId>,
    subscribers: Vec<WeakNotifier>,
    closed: bool,
}

struct ChanInner<T> {
    st: Mutex<ChanSt<T>>,
    cap: Option<usize>,
    name: String,
}

/// An asynchronous buffered channel carrying values of type `T`.
///
/// Cloning the handle is cheap; all clones refer to the same queue. The
/// paper requires each channel be used for input *or* output by a given
/// process but the type itself does not enforce directionality (split
/// wrappers [`SendHalf`]/[`RecvHalf`] provide it when wanted).
///
/// # Examples
///
/// ```
/// use alps_runtime::{Chan, Runtime};
///
/// let rt = Runtime::threaded();
/// let c: Chan<i64> = Chan::unbounded("nums");
/// c.send(&rt, 1).unwrap();
/// c.send(&rt, 2).unwrap();
/// assert_eq!(c.recv(&rt).unwrap(), 1);
/// assert_eq!(c.recv(&rt).unwrap(), 2);
/// rt.shutdown();
/// ```
pub struct Chan<T> {
    inner: Arc<ChanInner<T>>,
}

impl<T> Clone for Chan<T> {
    fn clone(&self) -> Self {
        Chan {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> fmt::Debug for Chan<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.st.lock();
        f.debug_struct("Chan")
            .field("name", &self.inner.name)
            .field("len", &st.q.len())
            .field("cap", &self.inner.cap)
            .field("closed", &st.closed)
            .finish()
    }
}

impl<T: Send + 'static> Chan<T> {
    /// Create an unbounded channel with a debug name.
    pub fn unbounded(name: impl Into<String>) -> Chan<T> {
        Self::with_capacity(name, None)
    }

    /// Create a bounded channel: `send` blocks while `cap` messages are
    /// buffered.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` (ALPS channels are asynchronous; a rendezvous
    /// channel would change the language semantics).
    pub fn bounded(name: impl Into<String>, cap: usize) -> Chan<T> {
        assert!(cap > 0, "ALPS channels are buffered; capacity must be > 0");
        Self::with_capacity(name, Some(cap))
    }

    fn with_capacity(name: impl Into<String>, cap: Option<usize>) -> Chan<T> {
        Chan {
            inner: Arc::new(ChanInner {
                st: Mutex::new(ChanSt {
                    q: VecDeque::new(),
                    recv_waiters: Vec::new(),
                    send_waiters: Vec::new(),
                    subscribers: Vec::new(),
                    closed: false,
                }),
                cap,
                name: name.into(),
            }),
        }
    }

    /// The channel's debug name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Whether two handles refer to the same underlying channel.
    pub fn same(&self, other: &Chan<T>) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// A stable identity for the underlying channel (pointer-based).
    pub fn id(&self) -> usize {
        Arc::as_ptr(&self.inner) as *const () as usize
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        self.inner.st.lock().q.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the channel has been closed.
    pub fn is_closed(&self) -> bool {
        self.inner.st.lock().closed
    }

    /// Send a message. Buffers and returns immediately on an unbounded
    /// channel; blocks while a bounded channel is full.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Shutdown`] if the channel is closed.
    pub fn send(&self, rt: &Runtime, v: T) -> Result<(), RuntimeError> {
        let mut v = Some(v);
        loop {
            let (recv_waiters, notify_subs) = {
                let mut st = self.inner.st.lock();
                if st.closed {
                    return Err(RuntimeError::Shutdown);
                }
                if let Some(cap) = self.inner.cap {
                    if st.q.len() >= cap {
                        let me = rt.current();
                        if !st.send_waiters.contains(&me) {
                            st.send_waiters.push(me);
                        }
                        drop(st);
                        rt.park();
                        continue;
                    }
                }
                st.q.push_back(v.take().expect("send loop reuse"));
                let rw = std::mem::take(&mut st.recv_waiters);
                let subs = st.subscribers.clone();
                (rw, subs)
            };
            for w in recv_waiters {
                rt.unpark(w);
            }
            self.fan_out(rt, notify_subs);
            return Ok(());
        }
    }

    /// Send a batch of messages, waking receivers and subscribed selects
    /// **once** for the whole batch rather than once per message. On a
    /// bounded channel the batch honors the capacity: the sender blocks
    /// mid-batch while the buffer is full (messages already enqueued stay
    /// enqueued, and their wakeups are delivered before blocking).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Shutdown`] if the channel is (or becomes) closed;
    /// messages enqueued before the failure remain in the buffer.
    pub fn send_batch(
        &self,
        rt: &Runtime,
        msgs: impl IntoIterator<Item = T>,
    ) -> Result<(), RuntimeError> {
        let mut pending = msgs.into_iter();
        let mut carry: Option<T> = None;
        loop {
            let (recv_waiters, notify_subs, full) = {
                let mut st = self.inner.st.lock();
                if st.closed {
                    return Err(RuntimeError::Shutdown);
                }
                let mut sent_any = false;
                let mut full = false;
                loop {
                    if let Some(cap) = self.inner.cap {
                        if st.q.len() >= cap {
                            full = true;
                            break;
                        }
                    }
                    match carry.take().or_else(|| pending.next()) {
                        Some(v) => {
                            st.q.push_back(v);
                            sent_any = true;
                        }
                        None => break,
                    }
                }
                if full {
                    // Remember where we stopped and register for a wakeup.
                    carry = carry.take().or_else(|| pending.next());
                    if carry.is_none() {
                        full = false; // iterator exhausted exactly at cap
                    } else {
                        let me = rt.current();
                        if !st.send_waiters.contains(&me) {
                            st.send_waiters.push(me);
                        }
                    }
                }
                if sent_any {
                    (
                        std::mem::take(&mut st.recv_waiters),
                        st.subscribers.clone(),
                        full,
                    )
                } else {
                    (Vec::new(), Vec::new(), full)
                }
            };
            for w in recv_waiters {
                rt.unpark(w);
            }
            self.fan_out(rt, notify_subs);
            if !full {
                return Ok(());
            }
            rt.park();
        }
    }

    /// Receive the oldest message, blocking until one is available.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Shutdown`] once the channel is closed *and* drained.
    pub fn recv(&self, rt: &Runtime) -> Result<T, RuntimeError> {
        loop {
            {
                let mut st = self.inner.st.lock();
                if let Some(v) = st.q.pop_front() {
                    let sw = std::mem::take(&mut st.send_waiters);
                    drop(st);
                    for w in sw {
                        rt.unpark(w);
                    }
                    return Ok(v);
                }
                if st.closed {
                    return Err(RuntimeError::Shutdown);
                }
                let me = rt.current();
                if !st.recv_waiters.contains(&me) {
                    st.recv_waiters.push(me);
                }
            }
            rt.park();
        }
    }

    /// [`recv`](Chan::recv) bounded by the absolute tick `deadline`:
    /// `Ok(None)` when `rt.now()` reaches it with the buffer still empty.
    /// A receiver that gives up takes itself off the waiter list, so a
    /// later send does not unpark a process that is no longer waiting.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Shutdown`] once the channel is closed *and* drained.
    pub fn recv_deadline(&self, rt: &Runtime, deadline: u64) -> Result<Option<T>, RuntimeError> {
        let me = rt.current();
        loop {
            let remaining = {
                let mut st = self.inner.st.lock();
                if let Some(v) = st.q.pop_front() {
                    st.recv_waiters.retain(|w| *w != me);
                    let sw = std::mem::take(&mut st.send_waiters);
                    drop(st);
                    for w in sw {
                        rt.unpark(w);
                    }
                    return Ok(Some(v));
                }
                if st.closed {
                    return Err(RuntimeError::Shutdown);
                }
                let remaining = deadline.saturating_sub(rt.now());
                if remaining == 0 {
                    st.recv_waiters.retain(|w| *w != me);
                    return Ok(None);
                }
                if !st.recv_waiters.contains(&me) {
                    st.recv_waiters.push(me);
                }
                remaining
            };
            rt.park_timeout(remaining);
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self, rt: &Runtime) -> Option<T> {
        let mut st = self.inner.st.lock();
        let v = st.q.pop_front();
        if v.is_some() {
            let sw = std::mem::take(&mut st.send_waiters);
            drop(st);
            for w in sw {
                rt.unpark(w);
            }
        }
        v
    }

    /// Remove and return the first message satisfying `pred`, leaving all
    /// other messages in order. This is the *acceptance condition* receive
    /// used by select guards: if no buffered message satisfies the
    /// condition the guard is simply not eligible.
    pub fn recv_match(&self, rt: &Runtime, pred: impl FnMut(&T) -> bool) -> Option<T> {
        let mut st = self.inner.st.lock();
        let idx = st.q.iter().position(pred)?;
        let v = st.q.remove(idx);
        let sw = std::mem::take(&mut st.send_waiters);
        drop(st);
        for w in sw {
            rt.unpark(w);
        }
        v
    }

    /// Inspect buffered messages without consuming, returning `f`'s answer
    /// over the queue iterator. Used by guard evaluation to test
    /// eligibility and compute `pri` values.
    pub fn peek_with<R>(&self, f: impl FnOnce(&mut dyn Iterator<Item = &T>) -> R) -> R {
        let st = self.inner.st.lock();
        let mut it = st.q.iter();
        f(&mut it)
    }

    /// Close the channel: future sends fail, receivers drain the buffer
    /// then fail, subscribed selects are woken.
    pub fn close(&self, rt: &Runtime) {
        let (rw, sw, subs) = {
            let mut st = self.inner.st.lock();
            st.closed = true;
            (
                std::mem::take(&mut st.recv_waiters),
                std::mem::take(&mut st.send_waiters),
                st.subscribers.clone(),
            )
        };
        for w in rw.into_iter().chain(sw) {
            rt.unpark(w);
        }
        self.fan_out(rt, subs);
    }

    /// Subscribe a select's notifier: every send (and close) will bump it.
    /// Subscribing the same notifier again is a no-op, so a manager's
    /// select loop may subscribe on every iteration without growth. Dead
    /// subscribers are pruned lazily.
    pub fn subscribe(&self, n: &Notifier) {
        let mut st = self.inner.st.lock();
        let p = n.inner_ptr();
        if st.subscribers.iter().any(|w| w.ptr() == p) {
            return;
        }
        st.subscribers.push(n.downgrade());
    }

    fn fan_out(&self, rt: &Runtime, subs: Vec<WeakNotifier>) {
        let mut any_dead = false;
        for s in &subs {
            if !s.notify(rt) {
                any_dead = true;
            }
        }
        if any_dead {
            let mut st = self.inner.st.lock();
            st.subscribers.retain(|w| w.is_alive());
        }
    }

    /// Directional split: a send-only and a receive-only handle.
    pub fn split(&self) -> (SendHalf<T>, RecvHalf<T>) {
        (
            SendHalf { chan: self.clone() },
            RecvHalf { chan: self.clone() },
        )
    }
}

/// Send-only handle to a [`Chan`] (the paper requires each endpoint use a
/// channel in one direction only).
#[derive(Debug, Clone)]
pub struct SendHalf<T> {
    chan: Chan<T>,
}

impl<T: Send + 'static> SendHalf<T> {
    /// See [`Chan::send`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Shutdown`] if the channel is closed.
    pub fn send(&self, rt: &Runtime, v: T) -> Result<(), RuntimeError> {
        self.chan.send(rt, v)
    }
}

/// Receive-only handle to a [`Chan`].
#[derive(Debug, Clone)]
pub struct RecvHalf<T> {
    chan: Chan<T>,
}

impl<T: Send + 'static> RecvHalf<T> {
    /// See [`Chan::recv`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Shutdown`] once the channel is closed and drained.
    pub fn recv(&self, rt: &Runtime) -> Result<T, RuntimeError> {
        self.chan.recv(rt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SimRuntime;
    use crate::process::Spawn;

    #[test]
    fn fifo_order_preserved() {
        let rt = Runtime::threaded();
        let c = Chan::unbounded("c");
        for i in 0..10 {
            c.send(&rt, i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(c.recv(&rt).unwrap(), i);
        }
    }

    #[test]
    fn recv_blocks_until_send_sim() {
        let sim = SimRuntime::new();
        let v = sim
            .run(|rt| {
                let c: Chan<&'static str> = Chan::unbounded("c");
                let c2 = c.clone();
                let rt2 = rt.clone();
                rt.spawn_with(Spawn::new("sender"), move || {
                    rt2.sleep(100);
                    c2.send(&rt2, "hello").unwrap();
                });
                c.recv(rt).unwrap()
            })
            .unwrap();
        assert_eq!(v, "hello");
    }

    #[test]
    fn recv_deadline_expires_at_the_deadline_tick_sim() {
        let sim = SimRuntime::new();
        sim.run(|rt| {
            let c: Chan<i32> = Chan::unbounded("c");
            assert_eq!(c.recv_deadline(rt, 700), Ok(None));
            assert_eq!(rt.now(), 700);
            // The receiver that gave up is off the waiter list: a later
            // send unparks nobody, so this park runs its full length.
            c.send(rt, 1).unwrap();
            rt.park_timeout(300);
            assert_eq!(rt.now(), 1_000);
            // A buffered message is taken even when the deadline has passed.
            assert_eq!(c.recv_deadline(rt, 0), Ok(Some(1)));
        })
        .unwrap();
    }

    #[test]
    fn recv_deadline_takes_a_send_one_tick_before_the_deadline_sim() {
        let sim = SimRuntime::new();
        sim.run(|rt| {
            let c: Chan<i32> = Chan::unbounded("c");
            let (c2, rt2) = (c.clone(), rt.clone());
            rt.spawn_with(Spawn::new("sender"), move || {
                rt2.sleep(699);
                c2.send(&rt2, 9).unwrap();
            });
            assert_eq!(c.recv_deadline(rt, 700), Ok(Some(9)));
            assert_eq!(rt.now(), 699);
            c.close(rt);
            assert_eq!(c.recv_deadline(rt, 5_000), Err(RuntimeError::Shutdown));
        })
        .unwrap();
    }

    #[test]
    fn recv_deadline_threaded() {
        let rt = Runtime::threaded();
        let c: Chan<i32> = Chan::unbounded("c");
        let t0 = rt.now();
        assert_eq!(c.recv_deadline(&rt, t0 + 2_000), Ok(None));
        assert!(rt.now() >= t0 + 2_000);
        let (c2, rt2) = (c.clone(), rt.clone());
        let sender = rt.spawn(move || c2.send(&rt2, 5).unwrap());
        // The bound is far off; the send is what ends the wait.
        assert_eq!(c.recv_deadline(&rt, rt.now() + 60_000_000), Ok(Some(5)));
        sender.join().unwrap();
    }

    #[test]
    fn bounded_send_blocks_when_full() {
        let sim = SimRuntime::new();
        let got = sim
            .run(|rt| {
                let c = Chan::bounded("c", 2);
                let c2 = c.clone();
                let rt2 = rt.clone();
                let h = rt.spawn_with(Spawn::new("sender"), move || {
                    for i in 0..4 {
                        c2.send(&rt2, i).unwrap();
                    }
                    "done"
                });
                rt.yield_now(); // sender fills the buffer and blocks at 2
                assert_eq!(c.len(), 2);
                let mut out = Vec::new();
                for _ in 0..4 {
                    out.push(c.recv(rt).unwrap());
                }
                h.join().unwrap();
                out
            })
            .unwrap();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "capacity must be > 0")]
    fn zero_capacity_rejected() {
        let _ = Chan::<i32>::bounded("bad", 0);
    }

    #[test]
    fn recv_match_skips_non_matching() {
        let rt = Runtime::threaded();
        let c = Chan::unbounded("c");
        for i in 1..=5 {
            c.send(&rt, i).unwrap();
        }
        // Take the first even message.
        assert_eq!(c.recv_match(&rt, |m| m % 2 == 0), Some(2));
        // Remaining order intact.
        let rest: Vec<i32> = std::iter::from_fn(|| c.try_recv(&rt)).collect();
        assert_eq!(rest, vec![1, 3, 4, 5]);
    }

    #[test]
    fn recv_match_none_when_no_match() {
        let rt = Runtime::threaded();
        let c = Chan::unbounded("c");
        c.send(&rt, 1).unwrap();
        assert_eq!(c.recv_match(&rt, |m| *m > 10), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn close_fails_sends_and_drains_receives() {
        let rt = Runtime::threaded();
        let c = Chan::unbounded("c");
        c.send(&rt, 1).unwrap();
        c.close(&rt);
        assert!(c.is_closed());
        assert_eq!(c.send(&rt, 2), Err(RuntimeError::Shutdown));
        assert_eq!(c.recv(&rt).unwrap(), 1); // drain
        assert_eq!(c.recv(&rt), Err(RuntimeError::Shutdown));
    }

    #[test]
    fn send_batch_delivers_all_with_one_notification() {
        let rt = Runtime::threaded();
        let c = Chan::unbounded("c");
        let n = Notifier::new();
        c.subscribe(&n);
        let e0 = n.epoch();
        c.send_batch(&rt, 0..5).unwrap();
        // One epoch bump for the whole batch…
        assert_eq!(n.epoch(), e0 + 1);
        // …and every message delivered in order.
        let got: Vec<i32> = std::iter::from_fn(|| c.try_recv(&rt)).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn send_batch_respects_bounded_capacity_sim() {
        let sim = SimRuntime::new();
        let got = sim
            .run(|rt| {
                let c = Chan::bounded("c", 2);
                let c2 = c.clone();
                let rt2 = rt.clone();
                let h = rt.spawn_with(Spawn::new("batcher"), move || {
                    c2.send_batch(&rt2, 0..5).unwrap();
                });
                rt.yield_now(); // batcher fills to capacity and parks
                assert_eq!(c.len(), 2);
                let mut out = Vec::new();
                for _ in 0..5 {
                    out.push(c.recv(rt).unwrap());
                }
                h.join().unwrap();
                out
            })
            .unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn send_batch_on_closed_channel_fails() {
        let rt = Runtime::threaded();
        let c: Chan<i32> = Chan::unbounded("c");
        c.close(&rt);
        assert_eq!(c.send_batch(&rt, [1, 2]), Err(RuntimeError::Shutdown));
    }

    #[test]
    fn subscriber_notified_on_send() {
        let rt = Runtime::threaded();
        let c = Chan::unbounded("c");
        let n = Notifier::new();
        c.subscribe(&n);
        let e0 = n.epoch();
        c.send(&rt, 5).unwrap();
        assert!(n.epoch() > e0);
    }

    #[test]
    fn channels_are_first_class_values() {
        // A channel of channels, as the paper allows (§2.1.2).
        let sim = SimRuntime::new();
        let v = sim
            .run(|rt| {
                let meta: Chan<Chan<i32>> = Chan::unbounded("meta");
                let meta2 = meta.clone();
                let rt2 = rt.clone();
                rt.spawn_with(Spawn::new("replier"), move || {
                    let reply = meta2.recv(&rt2).unwrap();
                    reply.send(&rt2, 7).unwrap();
                });
                let reply: Chan<i32> = Chan::unbounded("reply");
                meta.send(rt, reply.clone()).unwrap();
                reply.recv(rt).unwrap()
            })
            .unwrap();
        assert_eq!(v, 7);
    }

    #[test]
    fn peek_with_observes_without_consuming() {
        let rt = Runtime::threaded();
        let c = Chan::unbounded("c");
        c.send(&rt, 3).unwrap();
        c.send(&rt, 9).unwrap();
        let max = c.peek_with(|it| it.copied().max());
        assert_eq!(max, Some(9));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn split_halves_work() {
        let rt = Runtime::threaded();
        let c = Chan::unbounded("c");
        let (tx, rx) = c.split();
        tx.send(&rt, 1).unwrap();
        assert_eq!(rx.recv(&rt).unwrap(), 1);
    }

    #[test]
    fn threaded_multi_producer_stress() {
        let rt = Runtime::threaded();
        let c = Chan::unbounded("c");
        let n_producers = 4;
        let per = 250;
        let mut hs = Vec::new();
        for p in 0..n_producers {
            let c2 = c.clone();
            let rt2 = rt.clone();
            hs.push(rt.spawn(move || {
                for i in 0..per {
                    c2.send(&rt2, p * per + i).unwrap();
                }
            }));
        }
        let mut got = Vec::new();
        for _ in 0..n_producers * per {
            got.push(c.recv(&rt).unwrap());
        }
        for h in hs {
            h.join().unwrap();
        }
        got.sort_unstable();
        let want: Vec<i32> = (0..n_producers * per).collect();
        assert_eq!(got, want);
    }
}

/// A bounded lock-free multi-producer ring (Vyukov-style sequence
/// numbers), used as the call-intake queue of the object layer: callers
/// `push` without taking any object lock, the manager drains in batches.
///
/// The distinguishing feature is the return value of [`push`]: `Ok(true)`
/// means this push was the **empty→non-empty transition** as seen from the
/// consumer's current drain position. The producer that observes it owns
/// the duty to wake the consumer; every other producer can skip the
/// notification entirely, which is what makes a drain of N calls cost one
/// wakeup instead of N.
///
/// Wakeup protocol (the consumer side must mirror this):
///
/// 1. producers: claim → write → publish → if `was_empty`, notify;
/// 2. consumer: drain until `pop` returns `None`; before sleeping,
///    re-check [`is_empty`] — `false` means some producer has *claimed* a
///    slot it has not yet published (or published one after the drain), so
///    the consumer must retry instead of sleeping, because that producer
///    may not be the one that owes a notification.
///
/// With both rules in place a sleeping consumer is always covered: a push
/// into a drained-empty ring compares its claimed position against the
/// consumer's position and sees the transition, so it notifies.
///
/// [`push`]: IntakeRing::push
/// [`is_empty`]: IntakeRing::is_empty
///
/// ```
/// use alps_runtime::IntakeRing;
/// let r: IntakeRing<u64> = IntakeRing::with_capacity(4);
/// assert_eq!(r.push(1), Ok(true));  // empty → non-empty
/// assert_eq!(r.push(2), Ok(false));
/// assert_eq!(r.pop(), Some(1));
/// assert_eq!(r.pop(), Some(2));
/// assert_eq!(r.pop(), None);
/// ```
pub struct IntakeRing<T> {
    buf: Box<[RingSlot<T>]>,
    mask: usize,
    enqueue_pos: std::sync::atomic::AtomicUsize,
    dequeue_pos: std::sync::atomic::AtomicUsize,
}

struct RingSlot<T> {
    seq: std::sync::atomic::AtomicUsize,
    val: std::cell::UnsafeCell<Option<T>>,
}

// SAFETY: a slot's value is written by exactly one producer (the one
// whose CAS claimed the slot's sequence number) and read by exactly one
// consumer (the one whose CAS claimed the matching dequeue position);
// the Release publish on `seq` orders the write before the Acquire read.
unsafe impl<T: Send> Sync for IntakeRing<T> {}
unsafe impl<T: Send> Send for IntakeRing<T> {}

impl<T> fmt::Debug for IntakeRing<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IntakeRing")
            .field("capacity", &(self.mask + 1))
            .field("len", &self.len())
            .finish()
    }
}

impl<T> IntakeRing<T> {
    /// Create a ring holding at least `cap` items (rounded up to a power
    /// of two, minimum 2).
    pub fn with_capacity(cap: usize) -> IntakeRing<T> {
        use std::sync::atomic::AtomicUsize;
        let cap = cap.max(2).next_power_of_two();
        let buf: Vec<RingSlot<T>> = (0..cap)
            .map(|i| RingSlot {
                seq: AtomicUsize::new(i),
                val: std::cell::UnsafeCell::new(None),
            })
            .collect();
        IntakeRing {
            buf: buf.into_boxed_slice(),
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Approximate number of items (claimed slots count as occupied).
    pub fn len(&self) -> usize {
        use std::sync::atomic::Ordering::SeqCst;
        self.enqueue_pos
            .load(SeqCst)
            .saturating_sub(self.dequeue_pos.load(SeqCst))
    }

    /// Whether the ring is empty. A `false` from the consumer's side may
    /// mean a producer has claimed a slot but not yet published it; the
    /// consumer must treat that as "work pending" and not sleep (see the
    /// wakeup protocol above).
    pub fn is_empty(&self) -> bool {
        use std::sync::atomic::Ordering::SeqCst;
        self.enqueue_pos.load(SeqCst) == self.dequeue_pos.load(SeqCst)
    }

    /// Push an item. `Ok(true)` when this push made the ring non-empty
    /// from the consumer's perspective (the caller then owes the consumer
    /// a wakeup); `Err(item)` when the ring is full.
    pub fn push(&self, item: T) -> Result<bool, T> {
        use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
        let mut pos = self.enqueue_pos.load(Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self
                    .enqueue_pos
                    .compare_exchange_weak(pos, pos + 1, SeqCst, Relaxed)
                {
                    Ok(_) => {
                        // SeqCst so the transition test and the consumer's
                        // `is_empty` pre-sleep check totally order.
                        let was_empty = pos == self.dequeue_pos.load(SeqCst);
                        // SAFETY: the CAS gave us exclusive claim on this
                        // slot until the `seq` publish below.
                        unsafe {
                            *slot.val.get() = Some(item);
                        }
                        slot.seq.store(pos + 1, Release);
                        return Ok(was_empty);
                    }
                    Err(p) => pos = p,
                }
            } else if diff < 0 {
                return Err(item);
            } else {
                pos = self.enqueue_pos.load(Relaxed);
            }
        }
    }

    /// Pop every currently-published item in order, applying `f` to each;
    /// returns how many were drained. Stops at the first claimed-but-
    /// unpublished slot, like [`pop`](Self::pop) — the caller must treat
    /// a non-empty ring after `drain_with` as work still pending.
    pub fn drain_with(&self, mut f: impl FnMut(T)) -> usize {
        let mut n = 0;
        while let Some(item) = self.pop() {
            f(item);
            n += 1;
        }
        n
    }

    /// Pop the oldest item, or `None` when the ring is empty *or* the
    /// oldest claimed slot has not been published yet.
    pub fn pop(&self) -> Option<T> {
        use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
        let mut pos = self.dequeue_pos.load(Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                match self
                    .dequeue_pos
                    .compare_exchange_weak(pos, pos + 1, SeqCst, Relaxed)
                {
                    Ok(_) => {
                        // SAFETY: the CAS gave us exclusive claim on this
                        // published slot.
                        let item = unsafe { (*slot.val.get()).take() };
                        slot.seq.store(pos + self.mask + 1, Release);
                        return item;
                    }
                    Err(p) => pos = p,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod ring_tests {
    use super::IntakeRing;

    #[test]
    fn fifo_and_empty_transition() {
        let r: IntakeRing<u32> = IntakeRing::with_capacity(8);
        assert!(r.is_empty());
        assert_eq!(r.push(10), Ok(true));
        assert_eq!(r.push(11), Ok(false));
        assert_eq!(r.push(12), Ok(false));
        assert!(!r.is_empty());
        assert_eq!(r.pop(), Some(10));
        assert_eq!(r.pop(), Some(11));
        assert_eq!(r.pop(), Some(12));
        assert_eq!(r.pop(), None);
        assert!(r.is_empty());
        // Drained: the next push is a fresh transition.
        assert_eq!(r.push(13), Ok(true));
        assert_eq!(r.pop(), Some(13));
    }

    #[test]
    fn full_ring_rejects_and_returns_item() {
        let r: IntakeRing<String> = IntakeRing::with_capacity(2);
        assert_eq!(r.push("a".into()), Ok(true));
        assert_eq!(r.push("b".into()), Ok(false));
        assert_eq!(r.push("c".into()), Err("c".to_string()));
        assert_eq!(r.pop(), Some("a".into()));
        assert_eq!(r.push("c".into()), Ok(false));
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let r: IntakeRing<u8> = IntakeRing::with_capacity(5);
        assert_eq!(r.capacity(), 8);
        let r: IntakeRing<u8> = IntakeRing::with_capacity(0);
        assert_eq!(r.capacity(), 2);
    }

    #[test]
    fn wraparound_many_rounds() {
        let r: IntakeRing<usize> = IntakeRing::with_capacity(4);
        for round in 0..100 {
            for i in 0..3 {
                assert_eq!(r.push(round * 3 + i), Ok(i == 0));
            }
            for i in 0..3 {
                assert_eq!(r.pop(), Some(round * 3 + i));
            }
        }
    }

    #[test]
    fn multi_producer_stress_no_loss() {
        use std::sync::Arc;
        let r: Arc<IntakeRing<usize>> = Arc::new(IntakeRing::with_capacity(64));
        let producers = 4;
        let per = 5_000usize;
        let mut hs = Vec::new();
        for p in 0..producers {
            let r2 = Arc::clone(&r);
            hs.push(std::thread::spawn(move || {
                let mut transitions = 0u64;
                for i in 0..per {
                    let mut item = p * per + i;
                    loop {
                        match r2.push(item) {
                            Ok(was_empty) => {
                                if was_empty {
                                    transitions += 1;
                                }
                                break;
                            }
                            Err(back) => {
                                item = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
                transitions
            }));
        }
        let mut got = Vec::with_capacity(producers * per);
        while got.len() < producers * per {
            match r.pop() {
                Some(v) => got.push(v),
                None => std::thread::yield_now(),
            }
        }
        let transitions: u64 = hs.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(transitions >= 1, "at least the first push transitions");
        got.sort_unstable();
        let want: Vec<usize> = (0..producers * per).collect();
        assert_eq!(got, want);
        assert!(r.is_empty());
    }
}
