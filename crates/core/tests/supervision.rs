//! Supervision: restart policies, overload shedding, and caller-side
//! retry/backoff.
//!
//! Each test runs on the deterministic simulation runtime so restart and
//! shed timing windows are replayable; the seeded-interleaving sweeps in
//! `interleaving_sweep.rs` additionally shuffle these scenarios across
//! 256 schedules in CI.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alps_core::{
    vals, AdmissionPolicy, AlpsError, Backoff, EntryDef, ObjectBuilder, RestartPolicy, RetryPolicy,
    Ty, Value, Wait,
};
use alps_runtime::{FaultPlan, SchedPolicy, SimRuntime, Spawn};

/// A supervised object whose body is killed by an injected panic must be
/// rebuilt by `state_init` and serve successful calls again — in the same
/// test, through the same handle.
#[test]
fn restarted_object_serves_again() {
    let sim = SimRuntime::new();
    sim.set_fault_plan(FaultPlan::new().panic_at("body", 2));
    sim.run(|rt| {
        let state = Arc::new(AtomicU64::new(0));
        let (s_body, s_init) = (Arc::clone(&state), Arc::clone(&state));
        let obj = ObjectBuilder::new("Sup")
            .entry(
                EntryDef::new("Bump")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(move |_ctx, args| {
                        let v = args[0].as_int()?;
                        Ok(vec![Value::Int(
                            v + s_body.fetch_add(1, Ordering::SeqCst) as i64,
                        )])
                    }),
            )
            .manager(|mgr| loop {
                let acc = mgr.accept("Bump")?;
                mgr.execute(acc)?;
            })
            .supervise(RestartPolicy::AlwaysFresh)
            .state_init(move || s_init.store(100, Ordering::SeqCst))
            .spawn(rt)
            .unwrap();
        assert_eq!(obj.generation(), 0);
        // First call succeeds normally.
        assert_eq!(obj.call("Bump", vals![10i64]).unwrap()[0], Value::Int(10));
        // Second body execution is killed: the caller is answered with the
        // transient restart error, never a stale result and never a hang.
        let err = obj.call("Bump", vals![10i64]).unwrap_err();
        assert!(matches!(err, AlpsError::ObjectRestarting { .. }), "{err:?}");
        // Recovery: the same handle serves again, with `state_init`'s
        // fresh state (100), under the bumped generation.
        let (bump, retry) = (obj.entry_id("Bump").unwrap(), RetryPolicy::new(8, 50_000));
        assert_eq!(
            obj.call_with(bump, vals![10i64], Wait::Retry(retry))
                .unwrap()[0],
            Value::Int(110)
        );
        assert_eq!(obj.generation(), 1);
        assert_eq!(obj.stats().restarts(), 1);
    })
    .unwrap();
}

/// A `RestartTransient` budget converges to permanent poison: restarts
/// inside the window beyond `max_restarts` are refused, and from then on
/// callers see the *permanent* `ObjectPoisoned`, not the retryable
/// `ObjectRestarting`.
#[test]
fn restart_budget_exhaustion_poisons_permanently() {
    let sim = SimRuntime::new();
    // Kill body executions 1 and 2 (calls 1 and 2 below).
    sim.set_fault_plan(FaultPlan::new().panic_at("body", 1).panic_at("body", 2));
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Budgeted")
            .entry(
                EntryDef::new("P")
                    .results([Ty::Int])
                    .intercepted()
                    .body(|_ctx, _| Ok(vec![Value::Int(7)])),
            )
            .manager(|mgr| loop {
                let acc = mgr.accept("P")?;
                match mgr.execute(acc) {
                    Ok(_) | Err(AlpsError::BodyFailed { .. }) => {}
                    Err(e) => return Err(e),
                }
            })
            .supervise(RestartPolicy::RestartTransient {
                max_restarts: 1,
                window_ticks: 1_000_000,
            })
            .spawn(rt)
            .unwrap();
        // Panic #1: restarted (budget 1 of 1 used); the in-flight caller
        // is swept with the transient restart error.
        let e1 = obj.call("P", vals![]).unwrap_err();
        assert!(matches!(e1, AlpsError::ObjectRestarting { .. }), "{e1:?}");
        // Panic #2: inside the window, budget exhausted — the restart is
        // refused, so no sweep runs and the caller sees the plain body
        // failure.
        let e2 = obj.call("P", vals![]).unwrap_err();
        assert!(matches!(e2, AlpsError::BodyFailed { .. }), "{e2:?}");
        // Permanently poisoned now: fail-fast, non-retryable.
        let e3 = obj.call("P", vals![]).unwrap_err();
        assert!(matches!(e3, AlpsError::ObjectPoisoned { .. }), "{e3:?}");
        assert_eq!(obj.stats().restarts(), 1);
        assert_eq!(obj.generation(), 1);
    })
    .unwrap();
}

/// An injected `restart` fault (FaultPlan::fail_restart) vetoes the
/// restart itself: the object degrades to permanent poison exactly as if
/// the policy had refused.
#[test]
fn injected_restart_failure_degrades_to_poison() {
    let sim = SimRuntime::new();
    sim.set_fault_plan(FaultPlan::new().panic_at("body", 1).fail_restart(1));
    sim.run(|rt| {
        let obj = ObjectBuilder::new("NoComeback")
            .entry(
                EntryDef::new("P")
                    .results([Ty::Int])
                    .intercepted()
                    .body(|_ctx, _| Ok(vec![Value::Int(1)])),
            )
            .manager(|mgr| loop {
                let acc = mgr.accept("P")?;
                match mgr.execute(acc) {
                    Ok(_) | Err(AlpsError::BodyFailed { .. }) => {}
                    Err(e) => return Err(e),
                }
            })
            .supervise(RestartPolicy::AlwaysFresh)
            .spawn(rt)
            .unwrap();
        // The vetoed restart never sweeps, so the triggering caller sees
        // the plain body failure; the object degrades to permanent
        // poison for everyone after.
        let e = obj.call("P", vals![]).unwrap_err();
        assert!(matches!(e, AlpsError::BodyFailed { .. }), "{e:?}");
        let e = obj.call("P", vals![]).unwrap_err();
        assert!(matches!(e, AlpsError::ObjectPoisoned { .. }), "{e:?}");
        assert!(obj.is_poisoned(), "a refused restart leaves the poison");
        assert_eq!(obj.stats().restarts(), 0, "the restart was vetoed");
        assert_eq!(obj.generation(), 0, "no generation was ever fenced");
    })
    .unwrap();
}

/// A panicking `state_init` refuses the restart: recovery that cannot
/// rebuild state must not un-poison the object.
#[test]
fn panicking_state_init_refuses_restart() {
    let sim = SimRuntime::new();
    sim.set_fault_plan(FaultPlan::new().panic_at("body", 1));
    sim.run(|rt| {
        let obj = ObjectBuilder::new("BadInit")
            .entry(
                EntryDef::new("P")
                    .results([Ty::Int])
                    .intercepted()
                    .body(|_ctx, _| Ok(vec![Value::Int(1)])),
            )
            .manager(|mgr| loop {
                let acc = mgr.accept("P")?;
                match mgr.execute(acc) {
                    Ok(_) | Err(AlpsError::BodyFailed { .. }) => {}
                    Err(e) => return Err(e),
                }
            })
            .supervise(RestartPolicy::AlwaysFresh)
            .state_init(|| panic!("cannot rebuild"))
            .spawn(rt)
            .unwrap();
        // The sweep ran (the caller was failed with the transient error)
        // but the rebuild died, so the poison sticks.
        let e = obj.call("P", vals![]).unwrap_err();
        assert!(matches!(e, AlpsError::ObjectRestarting { .. }), "{e:?}");
        let e = obj.call("P", vals![]).unwrap_err();
        assert!(matches!(e, AlpsError::ObjectPoisoned { .. }), "{e:?}");
        assert!(obj.is_poisoned(), "a refused restart leaves the poison");
        assert_eq!(obj.stats().restarts(), 0);
    })
    .unwrap();
}

/// 16-caller storm against a tiny `ShedNewest` intake: every shed caller
/// gets `Err(Overloaded)` immediately (never a hang), admitted calls all
/// complete, and the shed count in the stats accounts for every refusal.
#[test]
fn shed_newest_storm_bounds_occupancy() {
    let sim = SimRuntime::with_policy(SchedPolicy::PriorityRandom(7));
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Shedder")
            .entry(
                EntryDef::new("P")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(|ctx, args| {
                        // Slow service keeps the ring saturated.
                        ctx.sleep(50);
                        Ok(vec![args[0].clone()])
                    }),
            )
            .manager(|mgr| loop {
                let acc = mgr.accept("P")?;
                mgr.execute(acc)?;
            })
            .admission(AdmissionPolicy::ShedNewest)
            .intake_capacity(4)
            .spawn(rt)
            .unwrap();
        let outcomes: Arc<parking_lot::Mutex<Vec<&'static str>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut joins = Vec::new();
        for i in 0..16i64 {
            let (o2, out2) = (obj.clone(), Arc::clone(&outcomes));
            joins.push(rt.spawn_with(Spawn::new(format!("storm{i}")), move || {
                for k in 0..4i64 {
                    let tag = match o2.call("P", vals![i * 10 + k]) {
                        Ok(r) => {
                            assert_eq!(r[0].as_int().unwrap(), i * 10 + k);
                            "ok"
                        }
                        Err(AlpsError::Overloaded { .. }) => "shed",
                        Err(e) => panic!("storm caller {i}: unexpected error {e:?}"),
                    };
                    out2.lock().push(tag);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let outs = outcomes.lock();
        assert_eq!(outs.len(), 64, "every call was answered — no hangs");
        let ok = outs.iter().filter(|t| **t == "ok").count() as u64;
        let shed = outs.iter().filter(|t| **t == "shed").count() as u64;
        let stats = obj.stats();
        assert!(shed > 0, "a 16-caller storm against capacity 4 must shed");
        assert_eq!(stats.sheds(), shed, "stats account for every refusal");
        assert_eq!(stats.finishes(), ok, "every admitted call completed");
    })
    .unwrap();
}

/// `Block` (the default) against a ring that is full most of the time:
/// 12 callers, capacity 4, so producers park on the space notifier — and
/// nobody is shed, every call is served in full.
#[test]
fn block_backpressure_parks_and_never_sheds() {
    let sim = SimRuntime::with_policy(SchedPolicy::PriorityRandom(3));
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Blocking")
            .entry(
                EntryDef::new("P")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(|ctx, args| {
                        // Callers refill the ring while the body sleeps.
                        ctx.sleep(30);
                        Ok(vec![args[0].clone()])
                    }),
            )
            .manager(|mgr| loop {
                let acc = mgr.accept("P")?;
                mgr.execute(acc)?;
            })
            .intake_capacity(4)
            .spawn(rt)
            .unwrap();
        let mut joins = Vec::new();
        for i in 0..12i64 {
            let o2 = obj.clone();
            joins.push(rt.spawn_with(Spawn::new(format!("c{i}")), move || {
                for k in 0..3i64 {
                    let r = o2.call("P", vals![i * 10 + k]).unwrap();
                    assert_eq!(r[0].as_int().unwrap(), i * 10 + k);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let stats = obj.stats();
        assert_eq!(stats.sheds(), 0, "Block never sheds");
        assert_eq!(stats.finishes(), 36, "every call was served");
        assert!(!obj.is_closed());
    })
    .unwrap();
}

/// `Wait::Retry` retries a deadline expiry and succeeds once the manager
/// starts serving; the per-attempt deadline split and the retry counter
/// are observable.
#[test]
fn call_retry_rides_out_a_slow_start() {
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Sleepy")
            .entry(
                EntryDef::new("P")
                    .results([Ty::Int])
                    .intercepted()
                    .body(|_ctx, _| Ok(vec![Value::Int(9)])),
            )
            .manager(|mgr| {
                // Ignore the entry long enough that early attempts
                // time out, then serve forever.
                mgr.sleep(500);
                loop {
                    let acc = mgr.accept("P")?;
                    mgr.execute(acc)?;
                }
            })
            .spawn(rt)
            .unwrap();
        // Budget 1200 over 4 attempts: first attempt gets 300 ticks and
        // times out inside the manager's 500-tick nap; a later attempt
        // lands after the nap and succeeds.
        let r = obj
            .call_with(
                obj.entry_id("P").unwrap(),
                vals![],
                Wait::Retry(RetryPolicy::new(4, 1200).backoff(Backoff::Fixed(10))),
            )
            .unwrap();
        assert_eq!(r[0], Value::Int(9));
        let stats = obj.stats();
        assert!(stats.retries() >= 1, "at least one attempt was retried");
        assert_eq!(
            stats.timeouts(),
            stats.retries(),
            "every retry followed a timeout"
        );
    })
    .unwrap();
}

/// A delivered application error is never retried, and an exhausted
/// budget surfaces the *last* transient error.
#[test]
fn call_retry_never_retries_delivered_errors() {
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Failing")
            .entry(
                EntryDef::new("Boom")
                    .results([Ty::Int])
                    .intercepted()
                    .body(|_ctx, _| Err::<Vec<Value>, _>(AlpsError::Custom("no".into()))),
            )
            .entry(
                EntryDef::new("Never")
                    .results([Ty::Int])
                    .intercepted()
                    .body(|_ctx, _| Ok(vec![Value::Int(0)])),
            )
            .manager(|mgr| loop {
                // Serve Boom; never accept Never.
                let acc = mgr.accept("Boom")?;
                match mgr.execute(acc) {
                    Ok(_) | Err(AlpsError::BodyFailed { .. }) => {}
                    Err(e) => return Err(e),
                }
            })
            .spawn(rt)
            .unwrap();
        let boom = obj.entry_id("Boom").unwrap();
        let e = obj
            .call_with(boom, vals![], Wait::Retry(RetryPolicy::new(5, 10_000)))
            .unwrap_err();
        assert!(matches!(e, AlpsError::BodyFailed { .. }), "{e:?}");
        assert_eq!(obj.stats().retries(), 0, "a delivered error is final");
        // Unserved entry: every attempt times out; the budget bounds the
        // whole affair and the last transient error comes back.
        let t0 = rt.now();
        let never = obj.entry_id("Never").unwrap();
        let e = obj
            .call_with(never, vals![], Wait::Retry(RetryPolicy::new(3, 600)))
            .unwrap_err();
        assert!(matches!(e, AlpsError::Timeout { .. }), "{e:?}");
        assert!(
            rt.now() - t0 <= 650,
            "budget bounded the attempts, took {}",
            rt.now() - t0
        );
        assert_eq!(obj.stats().retries(), 2);
    })
    .unwrap();
}

/// The hazard DESIGN.md §10 calls "one accepted hole": a `Timeout` retry
/// can run a body that had already started. Each 300-tick attempt times
/// out while the 400-tick body it started keeps running, so the next
/// attempt starts the body again — retrying a timeout is not
/// at-most-once, in-process or over the wire.
#[test]
fn timeout_retry_reruns_a_started_body() {
    let sim = SimRuntime::new();
    let runs = Arc::new(AtomicU64::new(0));
    let r2 = Arc::clone(&runs);
    sim.run(move |rt| {
        let obj = ObjectBuilder::new("Slow")
            .entry(EntryDef::new("P").intercepted().body(move |ctx, _| {
                r2.fetch_add(1, Ordering::SeqCst);
                ctx.sleep(400);
                Ok(vec![])
            }))
            .manager(|mgr| loop {
                let acc = mgr.accept("P")?;
                mgr.execute(acc)?;
            })
            .spawn(rt)
            .unwrap();
        let p = obj.entry_id("P").unwrap();
        let e = obj
            .call_with(p, vals![], Wait::Retry(RetryPolicy::new(3, 900)))
            .unwrap_err();
        assert!(matches!(e, AlpsError::Timeout { ticks: 300, .. }), "{e:?}");
        assert_eq!(obj.stats().retries(), 2);
    })
    .unwrap();
    let runs = runs.load(Ordering::SeqCst);
    assert!(runs > 1, "one logical call ran its body {runs} time(s)");
}

/// Regression pin: a call whose cell is already DONE before a panic
/// poisons the object still delivers its result. Poisoning gates
/// *admission*, never delivery — across every interleaving of the
/// completing call and the poisoning one.
#[test]
fn completed_call_delivers_despite_poisoning() {
    for seed in 0..32u64 {
        let sim = SimRuntime::with_policy(SchedPolicy::PriorityRandom(seed));
        sim.run(move |rt| {
            let obj = ObjectBuilder::new("Pinned")
                .entry(
                    EntryDef::new("Work")
                        .params([Ty::Int])
                        .results([Ty::Int])
                        .intercepted()
                        .body(|ctx, args| {
                            ctx.sleep(15);
                            Ok(vec![Value::Int(args[0].as_int()? * 2)])
                        }),
                )
                .entry(
                    EntryDef::new("Boom")
                        .intercepted()
                        .body(|_ctx, _| -> alps_core::Result<Vec<Value>> { panic!("deliberate") }),
                )
                .manager(|mgr| loop {
                    let sel = mgr.select(vec![
                        alps_core::Guard::accept("Work"),
                        alps_core::Guard::accept("Boom"),
                    ])?;
                    if let alps_core::Selected::Accepted { call, .. } = sel {
                        match mgr.execute(call) {
                            Ok(_) | Err(AlpsError::BodyFailed { .. }) => {}
                            Err(e) => return Err(e),
                        }
                    }
                })
                .poison_on_panic(true)
                .spawn(rt)
                .unwrap();
            let o_work = obj.clone();
            let worker = rt.spawn_with(Spawn::new("worker"), move || {
                // Admitted before (or racing) the poison: if the body ran,
                // its DONE cell must deliver — never be swallowed by the
                // poison flag the racing Boom sets.
                match o_work.call("Work", vals![21i64]) {
                    Ok(r) => assert_eq!(r[0].as_int().unwrap(), 42),
                    Err(AlpsError::ObjectPoisoned { .. }) => {
                        // Legal only when the poison landed before this
                        // call was admitted at all.
                    }
                    Err(e) => panic!("seed {seed}: unexpected error {e:?}"),
                }
            });
            let o_boom = obj.clone();
            let bomber = rt.spawn_with(Spawn::new("bomber"), move || {
                let e = o_boom.call("Boom", vals![]).unwrap_err();
                assert!(matches!(e, AlpsError::BodyFailed { .. }), "{e:?}");
            });
            worker.join().unwrap();
            bomber.join().unwrap();
            // The poison is in effect for everything new.
            let e = obj.call("Work", vals![1i64]).unwrap_err();
            assert!(matches!(e, AlpsError::ObjectPoisoned { .. }), "{e:?}");
        })
        .unwrap();
    }
}

/// `ExpJitter` backoff draws its jitter from the seeded simulation
/// stream: the same seed replays the same delays, tick for tick.
#[test]
fn exp_jitter_backoff_is_deterministic_per_seed() {
    let run = |seed: u64| -> u64 {
        let sim = SimRuntime::with_policy(SchedPolicy::PriorityRandom(seed));
        sim.run(|rt| {
            let obj = ObjectBuilder::new("Jitter")
                .entry(
                    EntryDef::new("P")
                        .results([Ty::Int])
                        .intercepted()
                        .body(|_ctx, _| Ok(vec![Value::Int(1)])),
                )
                .manager(|mgr| {
                    mgr.sleep(900);
                    loop {
                        let acc = mgr.accept("P")?;
                        mgr.execute(acc)?;
                    }
                })
                .spawn(rt)
                .unwrap();
            let policy =
                RetryPolicy::new(6, 2_000).backoff(Backoff::ExpJitter { base: 16, cap: 200 });
            let _ = obj.call_with(obj.entry_id("P").unwrap(), vals![], Wait::Retry(policy));
            rt.now()
        })
        .unwrap()
    };
    assert_eq!(run(11), run(11), "same seed, same jittered schedule");
}
