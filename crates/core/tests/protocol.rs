//! End-to-end tests of the call protocol: accept/start/await/finish,
//! execute, combining, hidden parameters/results, implicit starts, `#P`,
//! shutdown, and failure handling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use alps_core::{
    argv, vals, AlpsError, EntryDef, Guard, ObjectBuilder, PoolMode, RetryPolicy, Selected, Ty,
    Value, Wait,
};
use alps_runtime::{Runtime, SimRuntime, Spawn};

/// Every way a caller can wait, each generous enough never to fire.
const WAITS: [Wait; 3] = [
    Wait::Unbounded,
    Wait::Deadline(10_000_000),
    Wait::Retry(RetryPolicy {
        max_attempts: 3,
        backoff: alps_core::Backoff::None,
        budget_ticks: 10_000_000,
    }),
];

/// A managed echo object: manager accepts and executes each call.
fn echo_object(rt: &Runtime) -> alps_core::ObjectHandle {
    ObjectBuilder::new("Echo")
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

#[test]
fn execute_round_trip_sim() {
    let sim = SimRuntime::new();
    let v = sim
        .run(|rt| {
            let obj = echo_object(rt);
            obj.call("Echo", vals![5i64]).unwrap()[0].as_int().unwrap()
        })
        .unwrap();
    assert_eq!(v, 5);
}

#[test]
fn execute_round_trip_threaded() {
    let rt = Runtime::threaded();
    let obj = echo_object(&rt);
    for i in 0..20i64 {
        let got = obj.call("Echo", vals![i]).unwrap()[0].as_int().unwrap();
        assert_eq!(got, i);
    }
    obj.shutdown();
}

#[test]
fn stats_track_protocol_transitions() {
    let sim = SimRuntime::new();
    let stats = sim
        .run(|rt| {
            let obj = echo_object(rt);
            for i in 0..3i64 {
                obj.call("Echo", vals![i]).unwrap();
            }
            obj.stats()
        })
        .unwrap();
    assert_eq!(stats.calls(), 3);
    assert_eq!(stats.accepts(), 3);
    assert_eq!(stats.starts(), 3);
    assert_eq!(stats.finishes(), 3);
    assert_eq!(stats.combines(), 0);
}

#[test]
fn unknown_entry_and_arity_and_type_errors() {
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = echo_object(rt);
        assert!(matches!(
            obj.call("Nope", vals![]),
            Err(AlpsError::UnknownEntry { .. })
        ));
        assert!(matches!(
            obj.call("Echo", vals![]),
            Err(AlpsError::ArityMismatch { .. })
        ));
        assert!(matches!(
            obj.call("Echo", vals!["str"]),
            Err(AlpsError::TypeMismatch { .. })
        ));
    })
    .unwrap();
}

#[test]
fn manager_rewrites_intercepted_params_and_results() {
    let sim = SimRuntime::new();
    let v = sim
        .run(|rt| {
            let obj = ObjectBuilder::new("Adjust")
                .entry(
                    EntryDef::new("P")
                        .params([Ty::Int])
                        .results([Ty::Int])
                        .intercept_params(1)
                        .intercept_results(1)
                        .body(|_ctx, args| Ok(vec![Value::Int(args[0].as_int()? * 10)])),
                )
                .manager(|mgr| loop {
                    let acc = mgr.accept("P")?;
                    // Manager doubles the incoming parameter...
                    let doubled = acc.params()[0].as_int()? * 2;
                    let slot = acc.slot();
                    mgr.start(acc, vals![doubled], vals![])?;
                    let done = mgr.await_slot("P", slot)?;
                    // ...and adds one to the outgoing result.
                    let bumped = done.results()[0].as_int()? + 1;
                    mgr.finish(done, vals![bumped])?;
                })
                .spawn(rt)
                .unwrap();
            obj.call("P", vals![3i64]).unwrap()[0].as_int().unwrap()
        })
        .unwrap();
    // caller 3 -> manager doubles to 6 -> body *10 = 60 -> manager +1 = 61
    assert_eq!(v, 61);
}

#[test]
fn hidden_params_and_results_flow_through_manager_only() {
    // The spooler pattern (paper §2.8.1): the manager supplies a printer
    // number as a hidden parameter and receives it back as a hidden
    // result; the caller sees neither.
    let sim = SimRuntime::new();
    let printers_seen = Arc::new(parking_lot::Mutex::new(Vec::<i64>::new()));
    let seen2 = Arc::clone(&printers_seen);
    sim.run(move |rt| {
        let obj = ObjectBuilder::new("Spooler")
            .entry(
                EntryDef::new("Print")
                    .params([Ty::Str])
                    .array(2)
                    .intercepted()
                    .hidden_params([Ty::Int])
                    .hidden_results([Ty::Int])
                    .body(move |_ctx, args| {
                        // args = [file, printer#]
                        let printer = args[1].as_int()?;
                        seen2.lock().push(printer);
                        Ok(vec![Value::Int(printer)])
                    }),
            )
            .manager(|mgr| {
                let mut free = vec![7i64, 9];
                loop {
                    let sel = mgr.select(vec![
                        Guard::accept("Print").when(|v| {
                            let _ = v;
                            true
                        }),
                        Guard::await_done("Print"),
                    ])?;
                    match sel {
                        Selected::Accepted { call, .. } => {
                            let p = free.pop().expect("printer available");
                            mgr.start(call, vals![], vals![p])?;
                        }
                        Selected::Ready { done, .. } => {
                            let p = done.hidden()[0].as_int()?;
                            free.push(p);
                            mgr.finish_as_is(done)?;
                        }
                        _ => unreachable!(),
                    }
                }
            })
            .spawn(rt)
            .unwrap();
        // Caller passes only the file name; gets no results.
        let out = obj.call("Print", vals!["a.txt"]).unwrap();
        assert!(out.is_empty());
        let out = obj.call("Print", vals!["b.txt"]).unwrap();
        assert!(out.is_empty());
    })
    .unwrap();
    let seen = printers_seen.lock().clone();
    assert_eq!(seen.len(), 2);
    assert!(seen.iter().all(|p| *p == 7 || *p == 9));
}

#[test]
fn combining_answers_without_execution() {
    // Dictionary pattern (paper §2.7.1): identical queries are combined.
    let sim = SimRuntime::new();
    let executions = Arc::new(AtomicUsize::new(0));
    let ex2 = Arc::clone(&executions);
    let (n_starts, n_combines) = sim
        .run(move |rt| {
            let obj = ObjectBuilder::new("Dict")
                .entry(
                    EntryDef::new("Search")
                        .params([Ty::Str])
                        .results([Ty::Str])
                        .array(4)
                        .intercept_params(1)
                        .intercept_results(1)
                        .body(move |ctx, args| {
                            ex2.fetch_add(1, Ordering::SeqCst);
                            ctx.sleep(100); // model dictionary lookup cost
                            Ok(vec![Value::str(format!(
                                "meaning-of-{}",
                                args[0].as_str()?
                            ))])
                        }),
                )
                .manager(|mgr| {
                    // word -> list of calls waiting for that word's answer
                    use std::collections::HashMap;
                    let mut waiting: HashMap<String, Vec<alps_core::AcceptedCall>> = HashMap::new();
                    let mut in_flight: HashMap<usize, String> = HashMap::new();
                    loop {
                        let sel =
                            mgr.select(vec![Guard::accept("Search"), Guard::await_done("Search")])?;
                        match sel {
                            Selected::Accepted { call, .. } => {
                                let word = call.params()[0].as_str()?.to_string();
                                if let Some(q) = waiting.get_mut(&word) {
                                    // Already being searched: combine.
                                    q.push(call);
                                } else {
                                    waiting.insert(word.clone(), Vec::new());
                                    in_flight.insert(call.slot(), word);
                                    mgr.start_as_is(call)?;
                                }
                            }
                            Selected::Ready { done, .. } => {
                                let word = in_flight.remove(&done.slot()).unwrap();
                                let meaning = done.results()[0].clone();
                                let waiters = waiting.remove(&word).unwrap_or_default();
                                mgr.finish_as_is(done)?;
                                for acc in waiters {
                                    mgr.finish_accepted(acc, vec![meaning.clone()])?;
                                }
                            }
                            _ => unreachable!(),
                        }
                    }
                })
                .spawn(rt)
                .unwrap();
            // Three concurrent identical queries + one distinct.
            let mut handles = Vec::new();
            for word in ["apple", "apple", "apple", "pear"] {
                let obj2 = obj.clone();
                let rt2 = rt.clone();
                handles.push(rt.spawn_with(Spawn::new(format!("q-{word}")), move || {
                    let _ = rt2;
                    obj2.call("Search", vals![word]).unwrap()[0]
                        .as_str()
                        .unwrap()
                        .to_string()
                }));
            }
            let answers: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(answers[0], "meaning-of-apple");
            assert_eq!(answers[1], "meaning-of-apple");
            assert_eq!(answers[2], "meaning-of-apple");
            assert_eq!(answers[3], "meaning-of-pear");
            (obj.stats().starts(), obj.stats().combines())
        })
        .unwrap();
    // Only two executions (apple once, pear once); two combined replies.
    assert_eq!(executions.load(Ordering::SeqCst), 2);
    assert_eq!(n_starts, 2);
    assert_eq!(n_combines, 2);
}

#[test]
fn combining_requires_full_param_interception() {
    let sim = SimRuntime::new();
    let err = sim
        .run(|rt| {
            let obj = ObjectBuilder::new("Bad")
                .entry(
                    EntryDef::new("P")
                        .params([Ty::Int, Ty::Int])
                        .results([Ty::Int])
                        .intercept_params(1) // only 1 of 2
                        .body(|_ctx, _| Ok(vec![Value::Int(0)])),
                )
                .manager(|mgr| {
                    let acc = mgr.accept("P")?;
                    // Combining must fail: parameters not fully intercepted.
                    match mgr.finish_accepted(acc, vals![1i64]) {
                        Err(e @ AlpsError::BadCombining { .. }) => Err(e),
                        other => panic!("expected BadCombining, got {other:?}"),
                    }
                })
                .spawn(rt)
                .unwrap();
            let e = obj.call("P", vals![1i64, 2i64]).unwrap_err();
            let me = loop {
                if let Some(me) = obj.manager_error() {
                    break me;
                }
                rt.yield_now();
            };
            (e, me)
        })
        .unwrap();
    // The manager error is surfaced, and the caller was failed when the
    // object shut down (exact error depends on teardown interleaving).
    assert!(matches!(err.1, AlpsError::BadCombining { .. }));
}

#[test]
fn implicit_entries_run_without_manager() {
    let sim = SimRuntime::new();
    let v = sim
        .run(|rt| {
            let obj = ObjectBuilder::new("Plain")
                .entry(
                    EntryDef::new("Status")
                        .results([Ty::Str])
                        .body(|_ctx, _| Ok(vec![Value::str("ok")])),
                )
                .spawn(rt)
                .unwrap();
            obj.call("Status", vals![]).unwrap()[0]
                .as_str()
                .unwrap()
                .to_string()
        })
        .unwrap();
    assert_eq!(v, "ok");
}

#[test]
fn mixed_intercepted_and_implicit_entries() {
    // Paper §2.3: "the flexibility to define entry procedures that are not
    // intercepted by the manager (e.g. a procedure that returns the
    // object's status)".
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Mixed")
            .entry(
                EntryDef::new("Work")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(|_ctx, args| Ok(vec![args[0].clone()])),
            )
            .entry(
                EntryDef::new("Status")
                    .results([Ty::Str])
                    .body(|_ctx, _| Ok(vec![Value::str("alive")])),
            )
            .manager(|mgr| loop {
                let acc = mgr.accept("Work")?;
                mgr.execute(acc)?;
            })
            .spawn(rt)
            .unwrap();
        assert_eq!(
            obj.call("Status", vals![]).unwrap()[0].as_str().unwrap(),
            "alive"
        );
        assert_eq!(
            obj.call("Work", vals![9i64]).unwrap()[0].as_int().unwrap(),
            9
        );
        assert_eq!(obj.stats().implicit_starts(), 1);
        assert_eq!(obj.stats().starts(), 1);
    })
    .unwrap();
}

#[test]
fn pending_counts_attached_and_queued() {
    let sim = SimRuntime::new();
    sim.run(|rt| {
        // Manager that never accepts until told via a channel.
        let gate = alps_core::ChanValue::new("gate", vec![]);
        let gate2 = gate.clone();
        let obj = ObjectBuilder::new("Gated")
            .entry(
                EntryDef::new("P")
                    .array(2)
                    .intercepted()
                    .body(|_ctx, _| Ok(vec![])),
            )
            .manager(move |mgr| {
                // Wait for the gate, then drain everything.
                mgr.receive(&gate2)?;
                loop {
                    let acc = mgr.accept("P")?;
                    mgr.execute(acc)?;
                }
            })
            .spawn(rt)
            .unwrap();
        // Fire 5 calls: 2 attach to slots, 3 queue.
        let mut hs = Vec::new();
        for i in 0..5 {
            let obj2 = obj.clone();
            hs.push(rt.spawn_with(Spawn::new(format!("c{i}")), move || {
                obj2.call("P", vals![]).unwrap();
            }));
        }
        // Let the callers run until they block.
        for _ in 0..20 {
            rt.yield_now();
        }
        assert_eq!(obj.pending("P").unwrap(), 5);
        gate.send(rt, vals![]).unwrap();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(obj.pending("P").unwrap(), 0);
    })
    .unwrap();
}

#[test]
fn body_failure_reaches_caller_through_finish() {
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Fragile")
            .entry(
                EntryDef::new("Boom")
                    .intercepted()
                    .body(|_ctx, _| Err::<Vec<Value>, _>(AlpsError::Custom("kapow".into()))),
            )
            .entry(
                EntryDef::new("Panics")
                    .intercepted()
                    .body(|_ctx, _| -> alps_core::Result<Vec<Value>> { panic!("argh") }),
            )
            .manager(|mgr| loop {
                let sel = mgr.select(vec![
                    Guard::accept("Boom"),
                    Guard::accept("Panics"),
                    Guard::await_done("Boom"),
                    Guard::await_done("Panics"),
                ])?;
                match sel {
                    Selected::Accepted { call, .. } => mgr.start_as_is(call)?,
                    Selected::Ready { done, .. } => {
                        assert!(done.failure().is_some());
                        mgr.finish_as_is(done)?;
                    }
                    _ => unreachable!(),
                }
            })
            .spawn(rt)
            .unwrap();
        let e = obj.call("Boom", vals![]).unwrap_err();
        assert!(matches!(e, AlpsError::BodyFailed { .. }), "{e}");
        assert!(e.to_string().contains("kapow"));
        let e = obj.call("Panics", vals![]).unwrap_err();
        assert!(e.to_string().contains("argh"));
        // The object survives failures.
        assert_eq!(obj.stats().body_failures(), 2);
        assert!(!obj.is_closed());
    })
    .unwrap();
}

#[test]
fn dropping_accepted_call_fails_caller_but_object_survives() {
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Sloppy")
            .entry(EntryDef::new("P").intercepted().body(|_ctx, _| Ok(vec![])))
            .manager(|mgr| {
                let first = mgr.accept("P")?;
                drop(first); // protocol violation
                loop {
                    let acc = mgr.accept("P")?;
                    mgr.execute(acc)?;
                }
            })
            .spawn(rt)
            .unwrap();
        let e = obj.call("P", vals![]).unwrap_err();
        assert!(matches!(e, AlpsError::ProtocolViolation { .. }), "{e}");
        // Subsequent calls work.
        obj.call("P", vals![]).unwrap();
    })
    .unwrap();
}

#[test]
fn shutdown_fails_waiting_callers() {
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Doomed")
            .entry(EntryDef::new("P").intercepted().body(|_ctx, _| Ok(vec![])))
            .manager(|mgr| {
                // Never accept; park until shutdown.
                loop {
                    mgr.select(vec![Guard::cond(false), Guard::accept("Nonexistent")])
                        .map(|_| ())?;
                }
            });
        // Manager references a nonexistent entry: the select errors, the
        // manager dies with UnknownEntry, the object shuts down.
        let handle = obj.spawn(rt).unwrap();
        let e = handle.call("P", vals![]).unwrap_err();
        assert!(
            matches!(e, AlpsError::ObjectClosed { .. }),
            "unexpected: {e}"
        );
        assert!(matches!(
            handle.manager_error(),
            Some(AlpsError::UnknownEntry { .. })
        ));
    })
    .unwrap();
}

#[test]
fn calls_after_shutdown_fail_fast() {
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = echo_object(rt);
        obj.shutdown();
        let e = obj.call("Echo", vals![1i64]).unwrap_err();
        assert!(matches!(e, AlpsError::ObjectClosed { .. }));
    })
    .unwrap();
}

#[test]
fn local_procedures_not_callable_externally_but_callable_inline() {
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = ObjectBuilder::new("WithLocal")
            .entry(
                EntryDef::new("Outer")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .body(|ctx, args| {
                        let r = ctx.call_local("Helper", args)?;
                        Ok(r)
                    }),
            )
            .entry(
                EntryDef::new("Helper")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .local()
                    .body(|_ctx, args| Ok(vec![Value::Int(args[0].as_int()? + 100)])),
            )
            .spawn(rt)
            .unwrap();
        let e = obj.call("Helper", vals![1i64]).unwrap_err();
        assert!(matches!(e, AlpsError::LocalEntryCalled { .. }));
        let v = obj.call("Outer", vals![1i64]).unwrap()[0].as_int().unwrap();
        assert_eq!(v, 101);
    })
    .unwrap();
}

#[test]
fn intercepted_local_procedure_is_scheduled_by_manager() {
    // Paper §2.3: if P and Q call a common local procedure R, the manager
    // can control P and Q even after starting them by intercepting R.
    let sim = SimRuntime::new();
    let r_count = Arc::new(AtomicUsize::new(0));
    let rc = Arc::clone(&r_count);
    sim.run(move |rt| {
        let obj = ObjectBuilder::new("LocalSched")
            .entry(
                EntryDef::new("P")
                    .results([Ty::Int])
                    .intercepted()
                    .body(|ctx, _| {
                        let r = ctx.call_local("R", vals![])?;
                        Ok(r)
                    }),
            )
            .entry(
                EntryDef::new("R")
                    .results([Ty::Int])
                    .local()
                    .intercepted()
                    .body(move |_ctx, _| {
                        rc.fetch_add(1, Ordering::SeqCst);
                        Ok(vec![Value::Int(42)])
                    }),
            )
            .pool(PoolMode::PerSlot)
            .manager(|mgr| loop {
                let sel = mgr.select(vec![
                    Guard::accept("P"),
                    Guard::accept("R"),
                    Guard::await_done("P"),
                    Guard::await_done("R"),
                ])?;
                match sel {
                    Selected::Accepted { call, .. } => mgr.start_as_is(call)?,
                    Selected::Ready { done, .. } => mgr.finish_as_is(done)?,
                    _ => unreachable!(),
                }
            })
            .spawn(rt)
            .unwrap();
        let v = obj.call("P", vals![]).unwrap()[0].as_int().unwrap();
        assert_eq!(v, 42);
        // R went through the protocol: 2 accepts total (P and R).
        assert_eq!(obj.stats().accepts(), 2);
    })
    .unwrap();
    assert_eq!(r_count.load(Ordering::SeqCst), 1);
}

#[test]
fn hidden_array_allows_parallel_service() {
    // With an array of 3 and a manager that starts calls without awaiting
    // them immediately, three calls are serviced concurrently.
    let sim = SimRuntime::new();
    let (t_total, n) = sim
        .run(|rt| {
            let obj = ObjectBuilder::new("Par")
                .entry(EntryDef::new("Work").array(3).intercepted().body(|ctx, _| {
                    ctx.sleep(1_000);
                    Ok(vec![])
                }))
                .manager(|mgr| loop {
                    let sel = mgr.select(vec![Guard::accept("Work"), Guard::await_done("Work")])?;
                    match sel {
                        Selected::Accepted { call, .. } => mgr.start_as_is(call)?,
                        Selected::Ready { done, .. } => mgr.finish_as_is(done)?,
                        _ => unreachable!(),
                    }
                })
                .spawn(rt)
                .unwrap();
            let t0 = rt.now();
            let mut hs = Vec::new();
            for i in 0..3 {
                let obj2 = obj.clone();
                hs.push(rt.spawn_with(Spawn::new(format!("w{i}")), move || {
                    obj2.call("Work", vals![]).unwrap();
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            (rt.now() - t0, 3)
        })
        .unwrap();
    let _ = n;
    // Three overlapping 1000-tick jobs finish in ~1000 virtual ticks, not
    // 3000 (they overlap in virtual time).
    assert!(t_total < 2_000, "expected parallel service, took {t_total}");
}

#[test]
fn serial_execute_takes_sum_of_service_times() {
    let sim = SimRuntime::new();
    let t_total = sim
        .run(|rt| {
            let obj = ObjectBuilder::new("Serial")
                .entry(EntryDef::new("Work").array(3).intercepted().body(|ctx, _| {
                    ctx.sleep(1_000);
                    Ok(vec![])
                }))
                .manager(|mgr| loop {
                    let acc = mgr.accept("Work")?;
                    mgr.execute(acc)?; // exclusive: one at a time
                })
                .spawn(rt)
                .unwrap();
            let t0 = rt.now();
            let mut hs = Vec::new();
            for i in 0..3 {
                let obj2 = obj.clone();
                hs.push(rt.spawn_with(Spawn::new(format!("w{i}")), move || {
                    obj2.call("Work", vals![]).unwrap();
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            rt.now() - t0
        })
        .unwrap();
    assert!(t_total >= 3_000, "expected serial service, took {t_total}");
}

#[test]
fn build_errors_are_reported() {
    let rt = Runtime::threaded();
    // Duplicate entries.
    let e = ObjectBuilder::new("X")
        .entry(EntryDef::new("P").body(|_, _| Ok(vec![])))
        .entry(EntryDef::new("P").body(|_, _| Ok(vec![])))
        .spawn(&rt)
        .unwrap_err();
    assert!(e.to_string().contains("duplicate"));
    // Missing body.
    let e = ObjectBuilder::new("X")
        .entry(EntryDef::new("P"))
        .spawn(&rt)
        .unwrap_err();
    assert!(e.to_string().contains("no body"));
    // Intercept without manager.
    let e = ObjectBuilder::new("X")
        .entry(EntryDef::new("P").intercepted().body(|_, _| Ok(vec![])))
        .spawn(&rt)
        .unwrap_err();
    assert!(e.to_string().contains("no manager"));
    // Hidden params without intercept.
    let e = ObjectBuilder::new("X")
        .entry(
            EntryDef::new("P")
                .hidden_params([Ty::Int])
                .body(|_, _| Ok(vec![])),
        )
        .spawn(&rt)
        .unwrap_err();
    assert!(e.to_string().contains("hidden"));
    // Intercept prefix longer than the signature.
    let e = ObjectBuilder::new("X")
        .entry(
            EntryDef::new("P")
                .intercept_params(1)
                .body(|_, _| Ok(vec![])),
        )
        .manager(|_mgr| Ok(()))
        .spawn(&rt)
        .unwrap_err();
    assert!(e.to_string().contains("intercepts"));
    rt.shutdown();
}

#[test]
fn per_call_and_shared_pools_serve_calls() {
    for mode in [PoolMode::PerCall, PoolMode::Shared(2), PoolMode::PerSlot] {
        let sim = SimRuntime::new();
        let ok = sim
            .run(move |rt| {
                let obj = ObjectBuilder::new("Pooled")
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
                        let sel =
                            mgr.select(vec![Guard::accept("Echo"), Guard::await_done("Echo")])?;
                        match sel {
                            Selected::Accepted { call, .. } => mgr.start_as_is(call)?,
                            Selected::Ready { done, .. } => mgr.finish_as_is(done)?,
                            _ => unreachable!(),
                        }
                    })
                    .spawn(rt)
                    .unwrap();
                (0..8i64).all(|i| obj.call("Echo", vals![i]).unwrap()[0].as_int().unwrap() == i)
            })
            .unwrap();
        assert!(ok, "pool mode {mode:?} failed");
    }
}

// ---------------------------------------------------------------------------
// Interned entry ids (`entry_id` / `call_id` fast path)
// ---------------------------------------------------------------------------

#[test]
fn entry_id_resolves_and_unknown_entry_errors() {
    let rt = Runtime::threaded();
    let obj = echo_object(&rt);
    let id = obj.entry_id("Echo").unwrap();
    assert_eq!(id.index(), 0);
    match obj.entry_id("Nope") {
        Err(AlpsError::UnknownEntry { .. }) => {}
        other => panic!("expected UnknownEntry, got {other:?}"),
    }
    obj.shutdown();
    rt.shutdown();
}

#[test]
fn call_id_matches_call_on_managed_and_implicit_entries() {
    let rt = Runtime::threaded();
    // Managed (intercepted) entry.
    let managed = echo_object(&rt);
    let id = managed.entry_id("Echo").unwrap();
    for i in 0..4i64 {
        let by_name = managed.call("Echo", vals![i]).unwrap();
        let by_id = managed.call_id(id, argv![i]).unwrap();
        assert_eq!(by_id, by_name);
        for wait in WAITS {
            let by_wait = managed.call_with(id, argv![i], wait).unwrap();
            assert_eq!(by_wait, by_name, "{wait:?}");
        }
    }
    managed.shutdown();
    // Implicit (non-intercepted) entry: the id path takes the inline
    // fast path; results must be identical to the resolving call.
    let plain = ObjectBuilder::new("Plain")
        .entry(
            EntryDef::new("Twice")
                .params([Ty::Int])
                .results([Ty::Int])
                .body(|_ctx, args| Ok(argv![args[0].as_int().unwrap() * 2])),
        )
        .spawn(&rt)
        .unwrap();
    let tid = plain.entry_id("Twice").unwrap();
    for i in 0..4i64 {
        let by_name = plain.call("Twice", vals![i]).unwrap();
        let by_id = plain.call_id(tid, argv![i]).unwrap();
        assert_eq!(by_id, by_name);
        assert_eq!(by_id[0], Value::Int(i * 2));
        for wait in WAITS {
            let by_wait = plain.call_with(tid, argv![i], wait).unwrap();
            assert_eq!(by_wait, by_name, "{wait:?}");
        }
    }
    plain.shutdown();
    rt.shutdown();
}

#[test]
fn foreign_entry_id_is_a_typed_error_not_a_panic() {
    let rt = Runtime::threaded();
    let a = echo_object(&rt);
    let b = ObjectBuilder::new("Other")
        .entry(
            EntryDef::new("Echo")
                .params([Ty::Int])
                .results([Ty::Int])
                .body(|_ctx, args| Ok(argv![args[0].clone()])),
        )
        .spawn(&rt)
        .unwrap();
    // An id minted by `a` must be rejected by `b` even though the entry
    // index would be in range there.
    let id = a.entry_id("Echo").unwrap();
    for wait in WAITS {
        match b.call_with(id, argv![1i64], wait) {
            Err(AlpsError::ForeignEntryId { .. }) => {}
            other => panic!("{wait:?}: expected ForeignEntryId, got {other:?}"),
        }
    }
    // And the id keeps working on its own object afterwards.
    assert_eq!(a.call_id(id, argv![9i64]).unwrap()[0], Value::Int(9));
    a.shutdown();
    b.shutdown();
    rt.shutdown();
}
