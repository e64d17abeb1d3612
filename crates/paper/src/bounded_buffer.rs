//! The bounded buffer of paper §2.4.1 — the first example of a manager —
//! plus the baseline implementations experiment E1 compares against.
//!
//! The paper's manager accepts `Deposit` only while the buffer is not
//! full and `Remove` only while it is not empty, executing each call to
//! completion before accepting another (`execute`): monitor-style mutual
//! exclusion expressed entirely inside the manager.

use std::collections::VecDeque;
use std::sync::Arc;

use alps_core::{
    argv, AdmissionPolicy, EntryDef, EntryId, Guard, ObjectBuilder, ObjectHandle, Result, Selected,
    Ty, Value,
};
use alps_runtime::Runtime;
use alps_sync::{Cond, Monitor};
use parking_lot::Mutex;

/// A manager-mediated bounded buffer of `i64` messages (paper §2.4.1).
///
/// # Examples
///
/// ```
/// use alps_paper::bounded_buffer::AlpsBuffer;
/// use alps_runtime::SimRuntime;
///
/// let sim = SimRuntime::new();
/// let v = sim
///     .run(|rt| {
///         let buf = AlpsBuffer::spawn(rt, 4).unwrap();
///         buf.deposit(rt, 7).unwrap();
///         buf.remove(rt).unwrap()
///     })
///     .unwrap();
/// assert_eq!(v, 7);
/// ```
#[derive(Debug, Clone)]
pub struct AlpsBuffer {
    obj: ObjectHandle,
    deposit: EntryId,
    remove: EntryId,
}

impl AlpsBuffer {
    /// Create the buffer object with capacity `n` and start its manager.
    ///
    /// # Errors
    ///
    /// Propagates object-definition errors (none for valid `n`).
    pub fn spawn(rt: &Runtime, n: usize) -> Result<AlpsBuffer> {
        Self::spawn_with_copy_cost(rt, n, 0)
    }

    /// Like [`spawn`](Self::spawn), but each Deposit/Remove body also
    /// spends `copy_cost` virtual ticks copying the message *inside* the
    /// operation — the knob experiment E5 sweeps to compare this serial
    /// buffer against the §2.8.2 parallel buffer.
    ///
    /// # Errors
    ///
    /// Propagates object-definition errors (none for valid `n`).
    pub fn spawn_with_copy_cost(rt: &Runtime, n: usize, copy_cost: u64) -> Result<AlpsBuffer> {
        Self::build(rt, n, copy_cost, None)
    }

    /// Like [`spawn`](Self::spawn), but the object sheds load instead of
    /// queueing it without bound: the manager's intake ring is capped at
    /// `intake` pending calls and arrivals beyond that are answered
    /// [`alps_core::AlpsError::Overloaded`]
    /// ([`AdmissionPolicy::ShedNewest`]) instead of parking the caller.
    /// Shed calls never touch the buffer; admitted calls keep the usual
    /// FIFO and backpressure semantics, and the shed count is visible as
    /// `object().stats().sheds()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use alps_core::AlpsError;
    /// use alps_paper::bounded_buffer::AlpsBuffer;
    /// use alps_runtime::SimRuntime;
    ///
    /// let sim = SimRuntime::new();
    /// let v = sim
    ///     .run(|rt| {
    ///         // Capacity 4, at most 2 calls waiting in the intake ring.
    ///         let buf = AlpsBuffer::spawn_shedding(rt, 4, 2).unwrap();
    ///         buf.deposit(rt, 7).unwrap();
    ///         // An uncontended caller is always admitted; under a storm
    ///         // the excess would see Err(AlpsError::Overloaded) instead
    ///         // of parking forever.
    ///         buf.remove(rt).unwrap()
    ///     })
    ///     .unwrap();
    /// assert_eq!(v, 7);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates object-definition errors (none for valid `n`).
    pub fn spawn_shedding(rt: &Runtime, n: usize, intake: usize) -> Result<AlpsBuffer> {
        Self::build(rt, n, 0, Some(intake))
    }

    fn build(
        rt: &Runtime,
        n: usize,
        copy_cost: u64,
        shed_intake: Option<usize>,
    ) -> Result<AlpsBuffer> {
        assert!(n > 0, "buffer capacity must be positive");
        let store: Arc<Mutex<VecDeque<Value>>> = Arc::new(Mutex::new(VecDeque::new()));
        let (s_dep, s_rem) = (Arc::clone(&store), Arc::clone(&store));
        let mut builder = ObjectBuilder::new("Buffer")
            .entry(
                EntryDef::new("Deposit")
                    .params([Ty::Int])
                    .intercepted()
                    .body(move |ctx, args| {
                        ctx.sleep(copy_cost);
                        s_dep.lock().push_back(args[0].clone());
                        Ok(vec![])
                    }),
            )
            .entry(
                EntryDef::new("Remove")
                    .results([Ty::Int])
                    .intercepted()
                    .body(move |ctx, _| {
                        ctx.sleep(copy_cost);
                        let v = s_rem
                            .lock()
                            .pop_front()
                            .expect("manager admits Remove only when non-empty");
                        Ok(vec![v])
                    }),
            )
            .manager(move |mgr| {
                // The paper's manager: Count tracks occupancy; a call is
                // accepted only when its guard holds, and each accepted
                // call is executed to completion (execute = start; await;
                // finish).
                let mut count = 0usize;
                loop {
                    let sel = mgr.select(vec![
                        Guard::accept("Deposit").when(move |_| count < n),
                        Guard::accept("Remove").when(move |_| count > 0),
                    ])?;
                    match sel {
                        Selected::Accepted { guard, call } => {
                            let deposit = guard == 0;
                            mgr.execute(call)?;
                            if deposit {
                                count += 1;
                            } else {
                                count -= 1;
                            }
                        }
                        _ => unreachable!("only accept guards"),
                    }
                }
            });
        if let Some(intake) = shed_intake {
            builder = builder
                .admission(AdmissionPolicy::ShedNewest)
                .intake_capacity(intake);
        }
        let obj = builder.spawn(rt)?;
        // Intern the entry names once; every deposit/remove then takes
        // the call_id fast path.
        let deposit = obj.entry_id("Deposit")?;
        let remove = obj.entry_id("Remove")?;
        Ok(AlpsBuffer {
            obj,
            deposit,
            remove,
        })
    }

    /// Deposit a message (blocks while the buffer is full).
    ///
    /// # Errors
    ///
    /// [`alps_core::AlpsError::ObjectClosed`] after shutdown.
    pub fn deposit(&self, _rt: &Runtime, v: i64) -> Result<()> {
        self.obj.call_id(self.deposit, argv![v])?;
        Ok(())
    }

    /// Remove the oldest message (blocks while the buffer is empty).
    ///
    /// # Errors
    ///
    /// [`alps_core::AlpsError::ObjectClosed`] after shutdown.
    pub fn remove(&self, _rt: &Runtime) -> Result<i64> {
        let r = self.obj.call_id(self.remove, argv![])?;
        r[0].as_int()
    }

    /// The underlying object handle (stats, shutdown, …).
    pub fn object(&self) -> &ObjectHandle {
        &self.obj
    }
}

/// Baseline: the same buffer on a [`Monitor`] with two condition
/// variables — the style the paper criticizes because "the scheduling
/// algorithm gets scattered across the various procedures" (§1).
#[derive(Debug, Clone)]
pub struct MonitorBuffer {
    mon: Monitor<VecDeque<i64>>,
    cap: usize,
}

const NOT_FULL: Cond = Cond(0);
const NOT_EMPTY: Cond = Cond(1);

impl MonitorBuffer {
    /// New monitor-based buffer with capacity `n`.
    pub fn new(n: usize) -> MonitorBuffer {
        assert!(n > 0, "buffer capacity must be positive");
        MonitorBuffer {
            mon: Monitor::new(2, VecDeque::new()),
            cap: n,
        }
    }

    /// Deposit, blocking while full.
    pub fn deposit(&self, rt: &Runtime, v: i64) {
        let mut g = self.mon.enter(rt);
        while g.data().len() >= self.cap {
            g.wait(NOT_FULL);
        }
        g.data().push_back(v);
        g.signal(NOT_EMPTY);
    }

    /// Remove, blocking while empty.
    pub fn remove(&self, rt: &Runtime) -> i64 {
        let mut g = self.mon.enter(rt);
        while g.data().is_empty() {
            g.wait(NOT_EMPTY);
        }
        let v = g.data().pop_front().expect("checked non-empty");
        g.signal(NOT_FULL);
        v
    }
}

/// Baseline: a bare bounded channel (the "don't build an object at all"
/// floor for E1).
#[derive(Debug, Clone)]
pub struct ChanBuffer {
    chan: alps_runtime::Chan<i64>,
}

impl ChanBuffer {
    /// New channel-based buffer with capacity `n`.
    pub fn new(n: usize) -> ChanBuffer {
        ChanBuffer {
            chan: alps_runtime::Chan::bounded("buffer", n),
        }
    }

    /// Deposit, blocking while full.
    pub fn deposit(&self, rt: &Runtime, v: i64) {
        self.chan.send(rt, v).expect("channel open");
    }

    /// Remove, blocking while empty.
    pub fn remove(&self, rt: &Runtime) -> i64 {
        self.chan.recv(rt).expect("channel open")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alps_runtime::{SimRuntime, Spawn};

    fn producer_consumer_alps(cap: usize, items: i64) -> Vec<i64> {
        let sim = SimRuntime::new();
        sim.run(move |rt| {
            let buf = AlpsBuffer::spawn(rt, cap).unwrap();
            let (b2, rt2) = (buf.clone(), rt.clone());
            let producer = rt.spawn_with(Spawn::new("producer"), move || {
                for i in 0..items {
                    b2.deposit(&rt2, i).unwrap();
                }
            });
            let mut out = Vec::new();
            for _ in 0..items {
                out.push(buf.remove(rt).unwrap());
            }
            producer.join().unwrap();
            out
        })
        .unwrap()
    }

    #[test]
    fn fifo_order_for_various_capacities() {
        for cap in [1, 2, 7] {
            let got = producer_consumer_alps(cap, 25);
            assert_eq!(got, (0..25).collect::<Vec<_>>(), "cap={cap}");
        }
    }

    #[test]
    fn capacity_backpressure_blocks_producer() {
        let sim = SimRuntime::new();
        sim.run(|rt| {
            let buf = AlpsBuffer::spawn(rt, 2).unwrap();
            let (b2, rt2) = (buf.clone(), rt.clone());
            let producer = rt.spawn_with(Spawn::new("producer"), move || {
                for i in 0..4 {
                    b2.deposit(&rt2, i).unwrap();
                }
            });
            for _ in 0..20 {
                rt.yield_now();
            }
            // Producer deposited 2, is blocked on the 3rd: #Deposit == 1.
            assert_eq!(buf.object().pending("Deposit").unwrap(), 1);
            for want in 0..4 {
                assert_eq!(buf.remove(rt).unwrap(), want);
            }
            producer.join().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn shedding_buffer_answers_overload_instead_of_parking() {
        use alps_core::AlpsError;
        use std::sync::atomic::{AtomicU64, Ordering};

        let sim = SimRuntime::new();
        sim.run(|rt| {
            // Slow bodies (copy_cost 40) keep the manager busy so the
            // 2-deep intake ring actually fills under the storm.
            let buf = AlpsBuffer::build(rt, 16, 40, Some(2)).unwrap();
            let ok = Arc::new(AtomicU64::new(0));
            let shed = Arc::new(AtomicU64::new(0));
            let mut hs = Vec::new();
            for i in 0..12 {
                let (b2, rt2) = (buf.clone(), rt.clone());
                let (ok2, shed2) = (Arc::clone(&ok), Arc::clone(&shed));
                hs.push(rt.spawn_with(
                    Spawn::new(format!("p{i}")),
                    move || match b2.deposit(&rt2, i) {
                        Ok(()) => {
                            ok2.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(AlpsError::Overloaded { .. }) => {
                            shed2.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    },
                ));
            }
            for h in hs {
                h.join().unwrap();
            }
            let (ok, shed) = (ok.load(Ordering::SeqCst), shed.load(Ordering::SeqCst));
            // Every caller got an answer — admitted or shed, never hung.
            assert_eq!(ok + shed, 12);
            assert!(shed > 0, "storm should overflow the 2-deep intake");
            assert_eq!(buf.object().stats().sheds(), shed);
            // Admitted deposits really landed: drain them all back out.
            for _ in 0..ok {
                buf.remove(rt).unwrap();
            }
        })
        .unwrap();
    }

    #[test]
    fn monitor_buffer_equivalent_behaviour() {
        let sim = SimRuntime::new();
        let got = sim
            .run(|rt| {
                let buf = MonitorBuffer::new(3);
                let (b2, rt2) = (buf.clone(), rt.clone());
                let producer = rt.spawn_with(Spawn::new("producer"), move || {
                    for i in 0..10 {
                        b2.deposit(&rt2, i);
                    }
                });
                let out: Vec<i64> = (0..10).map(|_| buf.remove(rt)).collect();
                producer.join().unwrap();
                out
            })
            .unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chan_buffer_equivalent_behaviour() {
        let sim = SimRuntime::new();
        let got = sim
            .run(|rt| {
                let buf = ChanBuffer::new(3);
                let (b2, rt2) = (buf.clone(), rt.clone());
                let producer = rt.spawn_with(Spawn::new("producer"), move || {
                    for i in 0..10 {
                        b2.deposit(&rt2, i);
                    }
                });
                let out: Vec<i64> = (0..10).map(|_| buf.remove(rt)).collect();
                producer.join().unwrap();
                out
            })
            .unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn alps_buffer_works_threaded() {
        let rt = Runtime::threaded();
        let buf = AlpsBuffer::spawn(&rt, 4).unwrap();
        let (b2, rt2) = (buf.clone(), rt.clone());
        let producer = rt.spawn_with(Spawn::new("producer"), move || {
            for i in 0..100 {
                b2.deposit(&rt2, i).unwrap();
            }
        });
        let out: Vec<i64> = (0..100).map(|_| buf.remove(&rt).unwrap()).collect();
        producer.join().unwrap();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        buf.object().shutdown();
    }
}
