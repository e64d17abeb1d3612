//! Tests of the guarded-select semantics (paper §2.4): acceptance
//! conditions over received values, run-time `pri` priorities, pure
//! boolean guards, channel guards, and CSP-style failure when all guards
//! close.

use std::sync::Arc;

use alps_core::{vals, AlpsError, ChanValue, EntryDef, Guard, ObjectBuilder, Selected, Ty, Value};
use alps_runtime::{SimRuntime, Spawn};
use parking_lot::Mutex;

/// Object with one intercepted entry "P" (one int param, echoed back) and
/// a manager given by the test.
fn one_entry_object<F>(rt: &alps_runtime::Runtime, array: usize, mgr: F) -> alps_core::ObjectHandle
where
    F: FnMut(&mut alps_core::ManagerCtx) -> alps_core::Result<()> + Send + 'static,
{
    ObjectBuilder::new("T")
        .entry(
            EntryDef::new("P")
                .params([Ty::Int])
                .results([Ty::Int])
                .array(array)
                .intercept_params(1)
                .intercept_results(1)
                .body(|_ctx, args| Ok(vec![args[0].clone()])),
        )
        .manager(mgr)
        .spawn(rt)
        .unwrap()
}

#[test]
fn acceptance_condition_skips_non_matching_calls() {
    // Two calls attach (array=2); the manager's acceptance condition only
    // admits even parameters first, then drains the rest.
    let sim = SimRuntime::new();
    let order = Arc::new(Mutex::new(Vec::<i64>::new()));
    let order2 = Arc::clone(&order);
    sim.run(move |rt| {
        let obj = one_entry_object(rt, 2, move |mgr| {
            let mut admitted = 0;
            loop {
                let evens_first = admitted < 1;
                let sel = mgr.select(vec![Guard::accept("P").when(move |v| {
                    if evens_first {
                        v.values()[0].as_int().unwrap() % 2 == 0
                    } else {
                        true
                    }
                })])?;
                match sel {
                    Selected::Accepted { call, .. } => {
                        order2.lock().push(call.params()[0].as_int()?);
                        admitted += 1;
                        mgr.execute(call)?;
                    }
                    _ => unreachable!(),
                }
            }
        });
        let mut hs = Vec::new();
        for v in [3i64, 4] {
            let obj2 = obj.clone();
            hs.push(rt.spawn_with(Spawn::new(format!("c{v}")), move || {
                obj2.call("P", vals![v]).unwrap();
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
    })
    .unwrap();
    // 4 (even) admitted before 3 even though 3 attached first.
    assert_eq!(order.lock().clone(), vec![4, 3]);
}

#[test]
fn pri_selects_smallest_value() {
    // Shortest-request-first: with several calls attached, the manager's
    // pri expression picks the smallest parameter (paper §2.4, the SR
    // facility).
    let sim = SimRuntime::new();
    let order = Arc::new(Mutex::new(Vec::<i64>::new()));
    let order2 = Arc::clone(&order);
    sim.run(move |rt| {
        let gate = ChanValue::new("gate", vec![]);
        let gate2 = gate.clone();
        let obj = one_entry_object(rt, 4, move |mgr| {
            mgr.receive(&gate2)?; // let all calls attach first
            loop {
                let sel = mgr.select(vec![
                    Guard::accept("P").pri(|v| v.values()[0].as_int().unwrap())
                ])?;
                match sel {
                    Selected::Accepted { call, .. } => {
                        order2.lock().push(call.params()[0].as_int()?);
                        mgr.execute(call)?;
                    }
                    _ => unreachable!(),
                }
            }
        });
        let mut hs = Vec::new();
        for v in [30i64, 10, 20] {
            let obj2 = obj.clone();
            hs.push(rt.spawn_with(Spawn::new(format!("c{v}")), move || {
                obj2.call("P", vals![v]).unwrap();
            }));
        }
        for _ in 0..10 {
            rt.yield_now(); // all three attach
        }
        gate.send(rt, vals![]).unwrap();
        for h in hs {
            h.join().unwrap();
        }
    })
    .unwrap();
    assert_eq!(order.lock().clone(), vec![10, 20, 30]);
}

#[test]
fn pri_ties_break_by_guard_listing_order() {
    let sim = SimRuntime::new();
    let picked = sim
        .run(|rt| {
            let obj = one_entry_object(rt, 1, |mgr| loop {
                let sel = mgr.select(vec![
                    Guard::cond(true).pri_const(5),
                    Guard::cond(true).pri_const(5),
                    Guard::accept("P").pri_const(1),
                ])?;
                match sel {
                    Selected::Cond { guard } => {
                        // No call pending: the two equal-pri conds tie;
                        // the first listed must win.
                        assert_eq!(guard, 0);
                        // Now wait for a real call so the test can finish.
                        let acc = mgr.accept("P")?;
                        mgr.execute(acc)?;
                    }
                    Selected::Accepted { call, .. } => {
                        mgr.execute(call)?;
                    }
                    _ => unreachable!(),
                }
            });
            obj.call("P", vals![1i64]).unwrap()[0].as_int().unwrap()
        })
        .unwrap();
    assert_eq!(picked, 1);
}

#[test]
fn accept_beats_cond_when_lower_pri() {
    // With a call already attached, pri 1 accept wins over pri 5 cond.
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = one_entry_object(rt, 1, |mgr| {
            loop {
                let sel = mgr.select(vec![
                    Guard::cond(true).pri_const(5),
                    Guard::accept("P").pri_const(1),
                ])?;
                match sel {
                    Selected::Accepted { call, .. } => {
                        mgr.execute(call)?;
                    }
                    Selected::Cond { .. } => {
                        // The manager runs at the highest priority, so a
                        // yield would starve everyone: sleep instead,
                        // letting virtual time (and the caller) advance.
                        mgr.sleep(10);
                    }
                    _ => unreachable!(),
                }
            }
        });
        assert_eq!(obj.call("P", vals![7i64]).unwrap()[0].as_int().unwrap(), 7);
    })
    .unwrap();
}

#[test]
fn receive_guard_with_acceptance_condition_scans_queue() {
    let sim = SimRuntime::new();
    let got = sim
        .run(|rt| {
            let data = ChanValue::new("data", vec![Ty::Int]);
            let data2 = data.clone();
            let out = Arc::new(Mutex::new(Vec::<i64>::new()));
            let out2 = Arc::clone(&out);
            let obj = ObjectBuilder::new("RecvTest")
                .entry(
                    EntryDef::new("Stop")
                        .intercepted()
                        .body(|_ctx, _| Ok(vec![])),
                )
                .manager(move |mgr| loop {
                    let sel = mgr.select(vec![
                        // Only messages > 10 pass the acceptance condition.
                        Guard::receive(&data2).when(|v| v.values()[0].as_int().unwrap() > 10),
                        Guard::accept("Stop"),
                    ])?;
                    match sel {
                        Selected::Received { msg, .. } => {
                            out2.lock().push(msg[0].as_int()?);
                        }
                        Selected::Accepted { call, .. } => {
                            mgr.execute(call)?;
                            return Ok(());
                        }
                        _ => unreachable!(),
                    }
                })
                .spawn(rt)
                .unwrap();
            // 5 and 7 never match; 11 and 12 do, in order.
            for v in [5i64, 11, 7, 12] {
                data.send(rt, vals![v]).unwrap();
            }
            for _ in 0..10 {
                rt.yield_now();
            }
            obj.call("Stop", vals![]).unwrap();
            // Non-matching messages stay buffered.
            assert_eq!(data.len(), 2);
            let v = out.lock().clone();
            v
        })
        .unwrap();
    assert_eq!(got, vec![11, 12]);
}

#[test]
fn select_fails_when_all_guards_closed() {
    let sim = SimRuntime::new();
    let err = sim
        .run(|rt| {
            let failed = Arc::new(Mutex::new(None::<AlpsError>));
            let f2 = Arc::clone(&failed);
            let obj = ObjectBuilder::new("Closed")
                .entry(EntryDef::new("P").intercepted().body(|_ctx, _| Ok(vec![])))
                .manager(move |mgr| {
                    // All guards closed: two false conds and a closed,
                    // empty channel.
                    let c = ChanValue::new("dead", vec![]);
                    c.close(mgr.rt());
                    let r = mgr.select(vec![
                        Guard::cond(false),
                        Guard::cond(false),
                        Guard::receive(&c),
                    ]);
                    *f2.lock() = r.err();
                    // Keep the object alive until shutdown.
                    loop {
                        let acc = mgr.accept("P")?;
                        mgr.execute(acc)?;
                    }
                })
                .spawn(rt)
                .unwrap();
            obj.call("P", vals![]).unwrap(); // manager reached its loop
            let e = failed.lock().clone();
            e
        })
        .unwrap();
    assert!(matches!(err, Some(AlpsError::SelectFailed)));
}

/// A slot guard on an array element the entry does not have is refused
/// at once, in every form: no call can ever attach there, so the select
/// would wait forever.
#[test]
fn a_slot_beyond_the_array_is_refused_in_every_form() {
    let refusals = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&refusals);
    SimRuntime::new()
        .run(move |rt| {
            let obj = one_entry_object(rt, 2, move |mgr| {
                let probes = [
                    mgr.accept_slot("P", 5).map(drop),
                    mgr.await_slot("P", 2).map(drop),
                    // One bad guard refuses the whole select.
                    mgr.select(vec![Guard::accept("P"), Guard::accept_slot("P", 2)])
                        .map(drop),
                    mgr.select(vec![Guard::await_slot("P", 7)]).map(drop),
                ];
                log.lock()
                    .extend(probes.map(|r| r.unwrap_err().to_string()));
                loop {
                    let acc = mgr.accept("P")?;
                    mgr.execute(acc)?;
                }
            });
            // Returns once the manager is past its probes.
            obj.call("P", vals![1i64]).unwrap();
        })
        .unwrap();
    let violation =
        |what: &str| format!("manager protocol violation: {what}: no such array element");
    assert_eq!(
        *refusals.lock(),
        ["accept P[5]", "await P[2]", "accept P[2]", "await P[7]"].map(violation)
    );
}

#[test]
fn closed_channel_with_matching_message_still_eligible() {
    // Closing a channel does not drop buffered messages; a guard can
    // still receive them.
    let sim = SimRuntime::new();
    let got = sim
        .run(|rt| {
            let c = ChanValue::new("c", vec![Ty::Int]);
            c.send(rt, vals![9i64]).unwrap();
            c.close(rt);
            let out = Arc::new(Mutex::new(None::<i64>));
            let out2 = Arc::clone(&out);
            let c2 = c.clone();
            let obj = ObjectBuilder::new("Drain")
                .entry(EntryDef::new("P").intercepted().body(|_ctx, _| Ok(vec![])))
                .manager(move |mgr| {
                    if let Selected::Received { msg, .. } = mgr.select(vec![Guard::receive(&c2)])? {
                        *out2.lock() = Some(msg[0].as_int()?);
                    }
                    loop {
                        let acc = mgr.accept("P")?;
                        mgr.execute(acc)?;
                    }
                })
                .spawn(rt)
                .unwrap();
            obj.call("P", vals![]).unwrap();
            let v = out.lock().take();
            v
        })
        .unwrap();
    assert_eq!(got, Some(9));
}

#[test]
fn empty_guard_list_fails() {
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let seen = Arc::new(Mutex::new(None::<AlpsError>));
        let s2 = Arc::clone(&seen);
        let obj = ObjectBuilder::new("Empty")
            .entry(EntryDef::new("P").intercepted().body(|_ctx, _| Ok(vec![])))
            .manager(move |mgr| {
                *s2.lock() = mgr.select(vec![]).err();
                loop {
                    let acc = mgr.accept("P")?;
                    mgr.execute(acc)?;
                }
            })
            .spawn(rt)
            .unwrap();
        obj.call("P", vals![]).unwrap();
        assert!(matches!(seen.lock().clone(), Some(AlpsError::SelectFailed)));
    })
    .unwrap();
}

#[test]
fn await_guard_with_condition_on_results() {
    // The manager starts two calls, then awaits preferentially the one
    // whose (intercepted) result is larger, using a pri over results.
    let sim = SimRuntime::new();
    let finish_order = Arc::new(Mutex::new(Vec::<i64>::new()));
    let fo2 = Arc::clone(&finish_order);
    sim.run(move |rt| {
        let obj = one_entry_object(rt, 2, move |mgr| {
            let mut started = 0usize;
            loop {
                let sel = mgr.select(vec![
                    Guard::accept("P"),
                    // Negate: larger result = smaller pri = preferred.
                    Guard::await_done("P")
                        .when(move |_| started >= 2)
                        .pri(|v| -v.values()[0].as_int().unwrap()),
                ])?;
                match sel {
                    Selected::Accepted { call, .. } => {
                        mgr.start_as_is(call)?;
                        started += 1;
                        if started == 2 {
                            // Let both bodies complete so both Ready slots
                            // are candidates for one pri comparison.
                            mgr.sleep(1_000);
                        }
                    }
                    Selected::Ready { done, .. } => {
                        fo2.lock().push(done.results()[0].as_int()?);
                        mgr.finish_as_is(done)?;
                    }
                    _ => unreachable!(),
                }
            }
        });
        let mut hs = Vec::new();
        for v in [1i64, 2] {
            let obj2 = obj.clone();
            hs.push(rt.spawn_with(Spawn::new(format!("c{v}")), move || {
                obj2.call("P", vals![v]).unwrap();
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
    })
    .unwrap();
    // Both bodies complete before the await guard opens (when started>=2);
    // then the larger result (2) is awaited first.
    assert_eq!(finish_order.lock().clone(), vec![2, 1]);
}

#[test]
fn guard_view_pending_usable_in_conditions() {
    // The readers-writers disjunction uses #Write inside a guard
    // (paper §2.5.1).
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let observed = Arc::new(Mutex::new(Vec::<usize>::new()));
        let obs2 = Arc::clone(&observed);
        let obj = ObjectBuilder::new("PendingView")
            .entry(
                EntryDef::new("A")
                    .array(2)
                    .intercepted()
                    .body(|_ctx, _| Ok(vec![])),
            )
            .entry(EntryDef::new("B").intercepted().body(|_ctx, _| Ok(vec![])))
            .manager(move |mgr| loop {
                let obs3 = Arc::clone(&obs2);
                let sel = mgr.select(vec![
                    Guard::accept("A").when(move |v| {
                        // Record #B as seen from inside a guard.
                        obs3.lock().push(v.pending("B"));
                        true
                    }),
                    Guard::accept("B"),
                ])?;
                match sel {
                    Selected::Accepted { call, .. } => {
                        mgr.execute(call)?;
                    }
                    _ => unreachable!(),
                }
            })
            .spawn(rt)
            .unwrap();
        obj.call("A", vals![]).unwrap();
        assert!(!observed.lock().is_empty());
    })
    .unwrap();
}

#[test]
fn values_are_intercepted_prefix_only() {
    // With intercept_params(1) of a 2-param entry, guards see one value.
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Prefix")
            .entry(
                EntryDef::new("P")
                    .params([Ty::Int, Ty::Str])
                    .intercept_params(1)
                    .body(|_ctx, _| Ok(vec![])),
            )
            .manager(|mgr| loop {
                let sel = mgr.select(vec![Guard::accept("P").when(|v| {
                    assert_eq!(v.values().len(), 1);
                    true
                })])?;
                match sel {
                    Selected::Accepted { call, .. } => {
                        assert_eq!(call.params().len(), 1);
                        mgr.execute(call)?;
                    }
                    _ => unreachable!(),
                }
            })
            .spawn(rt)
            .unwrap();
        obj.call("P", vec![Value::Int(1), Value::str("x")]).unwrap();
    })
    .unwrap();
}
