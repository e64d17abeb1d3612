//! ALPS objects on the work-stealing shared executor
//! (`Runtime::thread_pool`): manager loops, pool-worker bodies, and
//! callers all run as green tasks on a fixed OS-thread budget, with the
//! unchanged park/unpark call protocol underneath.
//!
//! These tests only run where the pooled executor exists (x86_64); on
//! other targets `Runtime::thread_pool` falls back to the threaded
//! executor and the thread-budget assertions would be vacuous or false,
//! so the whole file is gated.
#![cfg(target_arch = "x86_64")]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use alps_core::{
    vals, AlpsError, Backoff, EntryDef, Guard, ObjectBuilder, ObjectHandle, ObjectStats, PoolMode,
    RestartPolicy, RetryPolicy, Selected, Ty, Value, Wait,
};
use alps_runtime::Runtime;

fn echo_object(rt: &Runtime, name: &str) -> ObjectHandle {
    ObjectBuilder::new(name)
        .entry(
            EntryDef::new("Echo")
                .params([Ty::Int])
                .results([Ty::Int])
                .intercepted()
                .body(|_ctx, args| Ok(vec![args[0].clone()])),
        )
        .manager(|mgr| loop {
            let acc = mgr.accept("Echo")?;
            mgr.execute(acc)?;
        })
        .spawn(rt)
        .unwrap()
}

/// A pooled object whose bodies run as pool-worker jobs (not inline in
/// the manager): `start_as_is` dispatches to the pool in the given mode.
fn pooled_object(rt: &Runtime, mode: PoolMode) -> ObjectHandle {
    ObjectBuilder::new("Pooled")
        .entry(
            EntryDef::new("Echo")
                .params([Ty::Int])
                .results([Ty::Int])
                .array(4)
                .intercepted()
                .body(|_ctx, args| Ok(vec![args[0].clone()])),
        )
        .pool(mode)
        .manager(|mgr| loop {
            let sel = mgr.select(vec![Guard::accept("Echo"), Guard::await_done("Echo")])?;
            match sel {
                Selected::Accepted { call, .. } => mgr.start_as_is(call)?,
                Selected::Ready { done, .. } => mgr.finish_as_is(done)?,
                _ => unreachable!(),
            }
        })
        .spawn(rt)
        .unwrap()
}

#[test]
fn managed_execute_round_trip_on_pool() {
    let rt = Runtime::thread_pool(2);
    let obj = echo_object(&rt, "Echo");
    for i in 0..50i64 {
        assert_eq!(obj.call("Echo", vals![i]).unwrap()[0], Value::Int(i));
    }
    obj.shutdown();
    rt.shutdown();
}

#[test]
fn shared_pool_bodies_run_as_stolen_tasks() {
    let rt = Runtime::thread_pool(2);
    let obj = pooled_object(&rt, PoolMode::Shared(2));
    for i in 0..64i64 {
        assert_eq!(obj.call("Echo", vals![i]).unwrap()[0], Value::Int(i));
    }
    assert!(obj.stats().starts() >= 64);
    obj.shutdown();
    rt.shutdown();
}

#[test]
fn per_call_pool_bodies_run_as_stolen_tasks() {
    let rt = Runtime::thread_pool(2);
    let obj = pooled_object(&rt, PoolMode::PerCall);
    for i in 0..64i64 {
        assert_eq!(obj.call("Echo", vals![i]).unwrap()[0], Value::Int(i));
    }
    obj.shutdown();
    rt.shutdown();
}

#[test]
fn concurrent_green_callers_hammer_one_object() {
    let rt = Runtime::thread_pool(3);
    let obj = echo_object(&rt, "Echo");
    let ok = Arc::new(AtomicUsize::new(0));
    let hs: Vec<_> = (0..16)
        .map(|c| {
            let (obj, ok) = (obj.clone(), Arc::clone(&ok));
            rt.spawn(move || {
                for i in 0..50i64 {
                    let v = obj.call("Echo", vals![i + c]).unwrap()[0].as_int().unwrap();
                    assert_eq!(v, i + c);
                }
                ok.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    assert_eq!(ok.load(Ordering::SeqCst), 16);
    obj.shutdown();
    rt.shutdown();
}

/// Injector fairness: green tasks stuck in a yield loop keep every
/// worker's local deque non-empty, and the wake cascade's halving grabs
/// can leave a late spawn behind in the global injector — without the
/// periodic injector poll it starves there forever (livelock). The
/// spinners only exit once they observe the flag that only the starved
/// task sets, so a regression fails the assertion instead of hanging.
#[test]
fn injected_task_is_not_starved_by_yield_looping_tasks() {
    let rt = Runtime::thread_pool(2);
    let flag = Arc::new(AtomicUsize::new(0));
    let spinners: Vec<_> = (0..8)
        .map(|_| {
            let (rt2, flag) = (rt.clone(), Arc::clone(&flag));
            rt.spawn(move || {
                let mut spins = 0u64;
                while flag.load(Ordering::SeqCst) == 0 && spins < 20_000_000 {
                    rt2.yield_now();
                    spins += 1;
                }
                flag.load(Ordering::SeqCst)
            })
        })
        .collect();
    let setter = {
        let flag = Arc::clone(&flag);
        rt.spawn(move || flag.store(1, Ordering::SeqCst))
    };
    setter.join().unwrap();
    for s in spinners {
        assert_eq!(
            s.join().unwrap(),
            1,
            "spinner exhausted its budget without ever seeing the injected task run"
        );
    }
    rt.shutdown();
}

/// Two managers wait on a started body each beside a yield-looping task,
/// all on one worker. With bodies in flight a manager's poll yields are
/// brief, and those must leave the looping task its turns: were one
/// manager re-queued directly behind the other, the two would trade the
/// worker until their poll budgets ran out and park. The bodies finish
/// only after the looping task's laps, so a manager that parks before
/// its body is `Ready` shows the starvation. Everything is spawned from
/// a green task, so it all queues on the worker's own deque.
#[test]
fn managers_awaiting_bodies_leave_a_yield_looping_task_its_turns() {
    const LAPS: usize = 4;
    let rt = Runtime::thread_pool(1);
    let laps = Arc::new(AtomicUsize::new(0));
    let parked_awaiting = Arc::new(AtomicU64::new(0));
    let (laps1, parked1) = (Arc::clone(&laps), Arc::clone(&parked_awaiting));
    let gated = move |rt: &Runtime| {
        let stats = Arc::new(OnceLock::<ObjectStats>::new());
        let (rt2, laps) = (rt.clone(), Arc::clone(&laps1));
        let (stats2, parked) = (Arc::clone(&stats), Arc::clone(&parked1));
        let obj = ObjectBuilder::new("Gated")
            .entry(EntryDef::new("Work").results([Ty::Int]).intercepted().body(
                move |_ctx, _args| {
                    while laps.load(Ordering::SeqCst) < LAPS {
                        rt2.yield_now();
                    }
                    Ok(vec![Value::Int(1)])
                },
            ))
            .manager(move |mgr| loop {
                let parks = || stats2.get().map_or(0, |s| s.park_resolved());
                let acc = mgr.accept("Work")?;
                mgr.start_as_is(acc)?;
                let before = parks();
                let done = mgr.await_done("Work")?;
                parked.fetch_add(parks() - before, Ordering::SeqCst);
                mgr.finish_as_is(done)?;
            })
            .spawn(rt)
            .unwrap();
        stats.set(obj.stats()).unwrap();
        obj
    };
    let rt2 = rt.clone();
    let laps2 = Arc::clone(&laps);
    let main_task = rt.spawn(move || {
        let objects = [gated(&rt2), gated(&rt2)];
        let callers: Vec<_> = objects
            .iter()
            .map(|o| {
                let o = o.clone();
                rt2.spawn(move || o.call("Work", vec![]))
            })
            .collect();
        let looper = {
            let rt3 = rt2.clone();
            rt2.spawn(move || {
                while laps2.load(Ordering::SeqCst) < LAPS {
                    laps2.fetch_add(1, Ordering::SeqCst);
                    rt3.yield_now();
                }
            })
        };
        let replies: Vec<_> = callers.into_iter().map(|c| c.join().unwrap()).collect();
        looper.join().unwrap();
        for o in objects {
            o.shutdown();
        }
        replies
    });
    for reply in main_task.join().unwrap() {
        assert_eq!(reply.unwrap(), vec![Value::Int(1)]);
    }
    assert_eq!(
        parked_awaiting.load(Ordering::SeqCst),
        0,
        "a manager ran out of its poll budget while its body waited for the looping task"
    );
    rt.shutdown();
}

/// Supervised restart on the pooled executor: a `Shared` pool body
/// panics while sibling calls are queued behind it as green tasks; the
/// supervisor restarts the object and `Wait::Retry` rides out the
/// transient `ObjectRestarting` answers.
#[test]
fn supervised_restart_with_pooled_bodies_recovers() {
    let rt = Runtime::thread_pool(2);
    let boom = Arc::new(AtomicUsize::new(0));
    let b2 = Arc::clone(&boom);
    let obj = ObjectBuilder::new("Sup")
        .entry(
            EntryDef::new("Work")
                .params([Ty::Int])
                .results([Ty::Int])
                .array(4)
                .intercepted()
                .body(move |_ctx, args| {
                    let v = args[0].as_int()?;
                    if v < 0 && b2.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("injected body crash");
                    }
                    Ok(vec![Value::Int(v)])
                }),
        )
        .pool(PoolMode::Shared(2))
        .manager(|mgr| loop {
            let sel = mgr.select(vec![Guard::accept("Work"), Guard::await_done("Work")])?;
            match sel {
                Selected::Accepted { call, .. } => mgr.start_as_is(call)?,
                Selected::Ready { done, .. } => mgr.finish_as_is(done)?,
                _ => unreachable!(),
            }
        })
        .supervise(RestartPolicy::AlwaysFresh)
        .spawn(&rt)
        .unwrap();

    // Queue concurrent green callers, one of which trips the crash.
    let work = obj.entry_id("Work").unwrap();
    let retry = Wait::Retry(RetryPolicy::new(16, 2_000_000).backoff(Backoff::Fixed(5_000)));
    let hs: Vec<_> = (0..8)
        .map(|c| {
            let obj = obj.clone();
            rt.spawn(move || {
                let arg = if c == 0 { -1i64 } else { c as i64 };
                obj.call_with(work, vals![arg], retry)
            })
        })
        .collect();
    let mut served = 0;
    for h in hs {
        match h.join().unwrap() {
            Ok(_) => served += 1,
            // A caller caught mid-restart whose retry budget lapsed is
            // acceptable; delivered protocol errors are not.
            Err(AlpsError::ObjectRestarting { .. }) | Err(AlpsError::Timeout { .. }) => {}
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    }
    assert!(served >= 6, "only {served}/8 calls served after restart");
    // The crashing body's process counts the restart only after the
    // panic hook returns. With `RUST_BACKTRACE=1` on a loaded box the
    // hook can outlast the first attempt's 125 ms slice, so the crashed
    // caller's retry (which no longer panics) and every sibling may be
    // served before the restart has happened. Give it time to land.
    let t0 = std::time::Instant::now();
    while obj.stats().restarts() == 0 && t0.elapsed() < std::time::Duration::from_secs(10) {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(obj.stats().restarts() >= 1);
    // The object keeps serving on the bumped generation.
    assert_eq!(obj.call("Work", vals![7i64]).unwrap()[0], Value::Int(7));
    obj.shutdown();
    rt.shutdown();
}
