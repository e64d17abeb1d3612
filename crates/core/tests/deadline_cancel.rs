//! Deadline-bounded calls, cell reclamation, the restart that abandons a
//! started body, and poisoning.
//!
//! The cancellation state machine under test (see DESIGN.md §"Deadlines
//! and cancellation"): a call cell moves WAITING → DONE when a completer
//! wins, WAITING → CANCELLED when the caller's deadline CAS wins, and
//! CANCELLED → TOMBSTONE when exactly one protocol-side holder reclaims
//! the departed caller's cell. A call is answered exactly once, by
//! exactly one side, no matter how the timeout races the reply. Only the
//! caller cancels; the manager has no cancel and no deadline, and only a
//! restart abandons a started body, answering its caller itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alps_core::{
    vals, AlpsError, EntryDef, Guard, ObjectBuilder, RestartPolicy, Selected, Ty, Value, Wait,
};
use alps_runtime::{Runtime, SimRuntime, Spawn};

/// An object whose manager blocks accepting `Gate` (which nobody calls),
/// so calls to `P` attach / queue but are never accepted.
fn never_accepting_object(rt: &Runtime) -> alps_core::ObjectHandle {
    ObjectBuilder::new("Stuck")
        .entry(
            EntryDef::new("P")
                .params([Ty::Int])
                .results([Ty::Int])
                .intercepted()
                .body(|_ctx, args| Ok(vec![args[0].clone()])),
        )
        .entry(
            EntryDef::new("Gate")
                .intercepted()
                .body(|_ctx, _| Ok(vec![])),
        )
        .manager(|mgr| loop {
            let acc = mgr.accept("Gate")?;
            mgr.execute(acc)?;
        })
        .spawn(rt)
        .unwrap()
}

#[test]
fn timeout_while_attached_and_while_queued() {
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = never_accepting_object(rt);
        let mut joins = Vec::new();
        // P's procedure array has one element: the first call attaches,
        // the second waits in the queue. Both must time out.
        let p = obj.entry_id("P").unwrap();
        for i in 0..2i64 {
            let (o2, rt2) = (obj.clone(), rt.clone());
            joins.push(rt.spawn_with(Spawn::new(format!("caller{i}")), move || {
                let t0 = rt2.now();
                let err = o2.call_with(p, vals![i], Wait::Deadline(200)).unwrap_err();
                assert!(
                    matches!(err, AlpsError::Timeout { ticks: 200, .. }),
                    "wanted Timeout, got {err:?}"
                );
                assert!(rt2.now() >= t0 + 200, "timed out before the deadline");
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let stats = obj.stats();
        assert_eq!(stats.timeouts(), 2);
        // Both cells were reclaimed by the caller-side reap: one out of
        // the attached slot, one out of the wait queue (pulled into the
        // slot when the first reap freed it, then reaped there).
        assert_eq!(stats.reaps(), 2);
        assert_eq!(obj.pending("P").unwrap(), 0, "no stale pending count");
        assert_eq!(stats.finishes(), 0);
    })
    .unwrap();
}

#[test]
fn reply_racing_the_deadline_is_delivered_not_lost() {
    // A deadline equal to the service time: whichever side wins the state
    // CAS, the call must be answered exactly once — either Ok or Timeout,
    // never a hang, never a double completion.
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Tight")
            .entry(
                EntryDef::new("P")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(|ctx, args| {
                        ctx.sleep(100);
                        Ok(vec![args[0].clone()])
                    }),
            )
            .manager(|mgr| loop {
                let acc = mgr.accept("P")?;
                mgr.execute(acc)?;
            })
            .spawn(rt)
            .unwrap();
        let mut ok = 0u32;
        let mut timed_out = 0u32;
        let p = obj.entry_id("P").unwrap();
        for i in 0..10i64 {
            match obj.call_with(p, vals![i], Wait::Deadline(100)) {
                Ok(r) => {
                    assert_eq!(r[0].as_int().unwrap(), i);
                    ok += 1;
                }
                Err(AlpsError::Timeout { .. }) => timed_out += 1,
                Err(e) => panic!("unexpected error: {e:?}"),
            }
        }
        assert_eq!(ok + timed_out, 10, "every call answered exactly once");
        let stats = obj.stats();
        assert_eq!(stats.timeouts(), u64::from(timed_out));
    })
    .unwrap();
}

#[test]
fn timeout_while_started_tombstones_the_late_result() {
    // The body takes 1000 ticks; the caller gives up at 100. The started
    // body runs to completion (cancellation is cooperative), the manager
    // finishes it normally, and the finish — finding the caller gone —
    // tombstones the cell instead of delivering.
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Slow")
            .entry(
                EntryDef::new("P")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(|ctx, args| {
                        ctx.sleep(1000);
                        Ok(vec![args[0].clone()])
                    }),
            )
            .manager(|mgr| loop {
                match mgr.select(vec![Guard::accept("P"), Guard::await_done("P")])? {
                    Selected::Accepted { call, .. } => mgr.start_as_is(call)?,
                    Selected::Ready { done, .. } => mgr.finish_as_is(done)?,
                    _ => unreachable!(),
                }
            })
            .spawn(rt)
            .unwrap();
        let p = obj.entry_id("P").unwrap();
        let r = obj.call_with(p, vals![7i64], Wait::Deadline(100));
        assert!(matches!(r, Err(AlpsError::Timeout { .. })), "{r:?}");
        // Let the abandoned execution run to completion.
        rt.sleep(2000);
        let stats = obj.stats();
        assert_eq!(stats.timeouts(), 1);
        assert_eq!(stats.finishes(), 1, "manager finished the late body");
        assert_eq!(stats.reaps(), 1, "the undeliverable result was tombstoned");
        // The slot is free again: a fresh call (no deadline) round-trips.
        let r = obj.call("P", vals![8i64]).unwrap();
        assert_eq!(r[0].as_int().unwrap(), 8);
    })
    .unwrap();
}

#[test]
fn cancelled_cells_are_recycled_never_double_completed() {
    // Interleave timeouts with successful calls: a cell recycled out of a
    // CANCELLED/TOMBSTONE state must behave like a fresh one.
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let gate = Arc::new(AtomicU64::new(0));
        let g2 = Arc::clone(&gate);
        let obj = ObjectBuilder::new("Mix")
            .entry(
                EntryDef::new("P")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(move |ctx, args| {
                        // Slow only when the gate says so.
                        if g2.load(Ordering::SeqCst) == 1 {
                            ctx.sleep(1000);
                        }
                        Ok(vec![args[0].clone()])
                    }),
            )
            .manager(|mgr| loop {
                match mgr.select(vec![Guard::accept("P"), Guard::await_done("P")])? {
                    Selected::Accepted { call, .. } => mgr.start_as_is(call)?,
                    Selected::Ready { done, .. } => mgr.finish_as_is(done)?,
                    _ => unreachable!(),
                }
            })
            .spawn(rt)
            .unwrap();
        let p = obj.entry_id("P").unwrap();
        for round in 0..5i64 {
            gate.store(1, Ordering::SeqCst);
            let r = obj.call_with(p, vals![round], Wait::Deadline(50));
            assert!(matches!(r, Err(AlpsError::Timeout { .. })), "{r:?}");
            rt.sleep(2000); // drain the abandoned execution
            gate.store(0, Ordering::SeqCst);
            let r = obj.call("P", vals![round + 100]).unwrap();
            assert_eq!(r[0].as_int().unwrap(), round + 100);
        }
        let stats = obj.stats();
        assert_eq!(stats.timeouts(), 5);
        assert_eq!(stats.reaps(), 5);
        // 5 timed-out + 5 successful calls, all finished by the manager.
        assert_eq!(stats.finishes(), 10);
    })
    .unwrap();
}

#[test]
fn restart_answers_a_started_call_once_and_discards_its_body() {
    // The lost-wakeup regression. The caller of P(0) parks waiting for its
    // reply while its body sleeps; P(1)'s body panics, and the restart
    // abandons P(0)'s started slot and answers its caller from the
    // panicking body's process. That answer's unpark must be consumed by
    // exactly the caller's one park — afterwards its park_timeout must
    // actually sleep (a stray buffered permit would return it at once).
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Abort")
            .entry(
                EntryDef::new("P")
                    .array(2)
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(|ctx, args| {
                        let v = args[0].as_int()?;
                        assert!(v != 1, "P(1) kills the body");
                        ctx.sleep(10_000);
                        Ok(vec![Value::Int(v)])
                    }),
            )
            .manager(|mgr| loop {
                match mgr.select(vec![Guard::accept("P"), Guard::await_done("P")])? {
                    Selected::Accepted { call, .. } => mgr.start_as_is(call)?,
                    Selected::Ready { done, .. } => mgr.finish_as_is(done)?,
                    _ => unreachable!(),
                }
            })
            .supervise(RestartPolicy::AlwaysFresh)
            .spawn(rt)
            .unwrap();
        let (o2, rt2) = (obj.clone(), rt.clone());
        let caller = rt.spawn_with(Spawn::new("caller"), move || {
            let err = o2.call("P", vals![0i64]).unwrap_err();
            assert!(
                matches!(err, AlpsError::ObjectRestarting { .. }),
                "wanted ObjectRestarting, got {err:?}"
            );
            let woke_before = rt2.now();
            assert!(woke_before < 10_000, "restart answered before the body");
            // Exactly-once token check: with no stray permit, this park
            // must consume the full 300 ticks of virtual time.
            rt2.park_timeout(300);
            assert!(
                rt2.now() >= woke_before + 300,
                "stray unpark permit: park_timeout returned early \
                 ({} -> {})",
                woke_before,
                rt2.now()
            );
        });
        // Give P(0)'s body time to start sleeping and its caller time to
        // park, then kill the other body.
        rt.sleep(500);
        let err = obj.call("P", vals![1i64]).unwrap_err();
        assert!(matches!(err, AlpsError::ObjectRestarting { .. }), "{err:?}");
        caller.join().unwrap();
        // Drain the abandoned execution, then prove the slot is reusable.
        rt.sleep(20_000);
        let r = obj.call("P", vals![2i64]).unwrap();
        assert_eq!(r[0].as_int().unwrap(), 2);
        let stats = obj.stats();
        assert_eq!(stats.restarts(), 1);
        assert_eq!(stats.finishes(), 1, "only the post-restart call finished");
    })
    .unwrap();
}

#[test]
fn poisoned_object_rejects_new_calls() {
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Glass")
            .poison_on_panic(true)
            .entry(
                EntryDef::new("P")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    // Implicit (not intercepted): runs without a manager.
                    .body(|_ctx, args| {
                        let v = args[0].as_int()?;
                        assert!(v >= 0, "negative input corrupts the invariant");
                        Ok(vec![Value::Int(v)])
                    }),
            )
            .spawn(rt)
            .unwrap();
        assert!(!obj.is_poisoned());
        let r = obj.call("P", vals![1i64]).unwrap();
        assert_eq!(r[0].as_int().unwrap(), 1);
        // The panicking call itself reports the body failure...
        let err = obj.call("P", vals![-1i64]).unwrap_err();
        assert!(matches!(err, AlpsError::BodyFailed { .. }), "{err:?}");
        // ...and every call after it fails fast without running a body.
        assert!(obj.is_poisoned());
        for _ in 0..3 {
            let err = obj.call("P", vals![2i64]).unwrap_err();
            assert!(matches!(err, AlpsError::ObjectPoisoned { .. }), "{err:?}");
        }
        let stats = obj.stats();
        assert_eq!(stats.poison_rejects(), 3);
        assert_eq!(stats.body_failures(), 1);
        assert!(!obj.is_closed(), "poisoned is not closed");
    })
    .unwrap();
}

#[test]
fn error_returns_do_not_poison_even_when_enabled() {
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Sturdy")
            .poison_on_panic(true)
            .entry(
                EntryDef::new("P")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .body(|_ctx, args| {
                        let v = args[0].as_int()?;
                        if v < 0 {
                            return Err(AlpsError::Custom("bad input".into()));
                        }
                        Ok(vec![Value::Int(v)])
                    }),
            )
            .spawn(rt)
            .unwrap();
        // A typed error is a normal outcome: invariants were maintained.
        assert!(obj.call("P", vals![-1i64]).is_err());
        assert!(!obj.is_poisoned());
        let r = obj.call("P", vals![5i64]).unwrap();
        assert_eq!(r[0].as_int().unwrap(), 5);
    })
    .unwrap();
}

#[test]
fn deadline_calls_work_threaded() {
    // The same timeout semantics on the OS-thread executor: real time,
    // condvar-bounded parks.
    let rt = Runtime::threaded();
    let obj = never_accepting_object(&rt);
    let p = obj.entry_id("P").unwrap();
    let r = obj.call_with(p, vals![1i64], Wait::Deadline(20_000));
    assert!(matches!(r, Err(AlpsError::Timeout { .. })), "{r:?}");
    assert_eq!(obj.stats().timeouts(), 1);
    obj.shutdown();
}
