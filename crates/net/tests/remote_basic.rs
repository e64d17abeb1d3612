//! End-to-end remote calls: handshake, error propagation, deadlines,
//! duplicate suppression, and reconnect-after-disconnect — mostly on the
//! deterministic simulation runtime (the whole wire protocol runs over
//! in-memory [`MemLink`](alps_net::MemLink) channel pairs), plus one
//! real-TCP loopback round trip on the threaded runtime.

use std::collections::HashMap;
use std::sync::Arc;

use alps_core::{
    vals, AlpsError, Backoff, EntryDef, ObjectBuilder, ObjectHandle, RestartPolicy, RetryPolicy,
    Ty, Value, Wait,
};
use alps_net::{
    decode_frame, encode_frame, Connector, Frame, Link, NetFaultPlan, NetServer, ReconnectPolicy,
    RemoteHandle, TcpConnector, NO_BUDGET, PROTO_VERSION,
};
use alps_runtime::{Runtime, SimRuntime, Spawn};
use parking_lot::Mutex;

/// A counting object: `Bump(k)` increments `k`'s tally and returns it;
/// `Count(k)` reads it. The tallies live *outside* the object so tests
/// can assert exactly-once execution directly.
fn counter(rt: &Runtime, counts: &Arc<Mutex<HashMap<i64, i64>>>) -> ObjectHandle {
    let (c_bump, c_read) = (Arc::clone(counts), Arc::clone(counts));
    ObjectBuilder::new("Counter")
        .entry(
            EntryDef::new("Bump")
                .params([Ty::Int])
                .results([Ty::Int])
                .body(move |_ctx, args| {
                    let k = args[0].as_int()?;
                    let mut m = c_bump.lock();
                    let n = m.entry(k).or_insert(0);
                    *n += 1;
                    Ok(vec![Value::Int(*n)])
                }),
        )
        .entry(
            EntryDef::new("Count")
                .params([Ty::Int])
                .results([Ty::Int])
                .body(move |_ctx, args| {
                    let k = args[0].as_int()?;
                    Ok(vec![Value::Int(
                        c_read.lock().get(&k).copied().unwrap_or(0),
                    )])
                }),
        )
        .spawn(rt)
        .unwrap()
}

/// Plain round trip under the sim: interned ids, deadline form, and the
/// remote error for an entry the server does not export.
#[test]
fn sim_round_trip_and_unknown_entry() {
    SimRuntime::new()
        .run(|rt| {
            let counts = Arc::new(Mutex::new(HashMap::new()));
            let obj = counter(rt, &counts);
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "Counter", server.mem_connector());

            let bump = client.entry_id("Bump");
            for i in 1..=5i64 {
                let r = client.call_id(&bump, vals![7i64]).unwrap();
                assert_eq!(r[0], Value::Int(i));
            }
            let count = client.entry_id("Count");
            let r = client.call_with(&count, vals![7i64], Wait::Deadline(50_000));
            assert_eq!(r.unwrap()[0], Value::Int(5));

            let err = client.call("Nope", vals![1i64]).unwrap_err();
            assert!(
                matches!(&err, AlpsError::UnknownEntry { object, entry }
                    if object == "Counter" && entry == "Nope"),
                "{err:?}"
            );
            assert_eq!(client.stats().replies.get(), 6);
        })
        .unwrap();
}

/// Dialing an object the server never registered fails the handshake
/// with a terminal error — no retry storm, no hang.
#[test]
fn unknown_object_is_refused_at_handshake() {
    SimRuntime::new()
        .run(|rt| {
            let server = NetServer::new(rt);
            let client = RemoteHandle::new(rt, "Ghost", server.mem_connector());
            let err = client.call("P", vals![1i64]).unwrap_err();
            assert!(
                matches!(&err, AlpsError::Custom(m) if m.contains("Ghost")),
                "{err:?}"
            );
        })
        .unwrap();
}

/// The server propagates its error taxonomy over the wire: the remote
/// caller sees the *same* variant an in-process caller would.
#[test]
fn errors_cross_the_wire_as_themselves() {
    SimRuntime::new()
        .run(|rt| {
            let obj = ObjectBuilder::new("Faulty")
                .entry(EntryDef::new("Fail").params([]).results([]).body(
                    |_ctx, _args| -> alps_core::Result<Vec<Value>> {
                        Err(AlpsError::Custom("application said no".into()))
                    },
                ))
                .entry(
                    EntryDef::new("Boom")
                        .params([])
                        .results([])
                        .body(|_ctx, _args| -> alps_core::Result<Vec<Value>> { panic!("kaboom") }),
                )
                .supervise(RestartPolicy::RestartTransient {
                    max_restarts: 0,
                    window_ticks: 0,
                })
                .spawn(rt)
                .unwrap();
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "Faulty", server.mem_connector());

            let local = obj.call("Fail", vals![]).unwrap_err();
            let remote = client.call("Fail", vals![]).unwrap_err();
            assert_eq!(remote, local, "delivered errors must match in-process form");

            // Poison the object, then observe ObjectPoisoned remotely.
            let _ = client.call("Boom", vals![]);
            let err = client.call("Fail", vals![]).unwrap_err();
            assert!(matches!(err, AlpsError::ObjectPoisoned { .. }), "{err:?}");
        })
        .unwrap();
}

/// Every `Call` frame duplicated in flight (`dup = 1.0`): the server's
/// session dedup must make execution exactly-once anyway.
#[test]
fn duplicated_frames_execute_at_most_once() {
    SimRuntime::new()
        .run(|rt| {
            let counts = Arc::new(Mutex::new(HashMap::new()));
            let obj = counter(rt, &counts);
            let server = NetServer::new(rt);
            server.register(&obj);
            let mut plan = NetFaultPlan::seeded(99);
            plan.dup_rate = 1.0;
            let client = RemoteHandle::new(rt, "Counter", server.mem_connector()).with_fault(plan);

            for k in 0..10i64 {
                let r = client.call("Bump", vals![k]).unwrap();
                assert_eq!(r[0], Value::Int(1), "key {k} executed more than once");
            }
            let m = counts.lock();
            for k in 0..10i64 {
                assert_eq!(m.get(&k), Some(&1), "key {k} tally");
            }
            drop(m);
            let s = server.stats();
            assert_eq!(s.executed.get(), 10);
            assert!(
                s.suppressed.get() + s.replayed.get() >= 1,
                "duplicates must have reached the dedup layer (suppressed={} replayed={})",
                s.suppressed.get(),
                s.replayed.get()
            );
        })
        .unwrap();
}

/// Forced disconnects every few sends: callers see clean transient
/// errors (`LinkLost`), `Wait::Retry` rides through them over fresh
/// connections, and dedup keeps every key's tally at exactly one.
#[test]
fn retry_rides_through_forced_disconnects() {
    SimRuntime::new()
        .run(|rt| {
            let counts = Arc::new(Mutex::new(HashMap::new()));
            let obj = counter(rt, &counts);
            let server = NetServer::new(rt);
            server.register(&obj);
            let mut plan = NetFaultPlan::seeded(5);
            plan.disconnect_every = 4;
            let client = RemoteHandle::new(rt, "Counter", server.mem_connector())
                .with_fault(plan)
                .with_reconnect(ReconnectPolicy {
                    max_attempts: 6,
                    base_ticks: 20,
                    cap_ticks: 500,
                });
            let policy = RetryPolicy::new(10, 400_000).backoff(Backoff::ExpJitter {
                base: 20,
                cap: 1_000,
            });

            let bump = client.entry_id("Bump");
            for k in 0..12i64 {
                let r = client.call_with(&bump, vals![k], Wait::Retry(policy));
                assert_eq!(r.unwrap()[0], Value::Int(1), "key {k}");
            }
            let m = counts.lock();
            for k in 0..12i64 {
                assert_eq!(m.get(&k), Some(&1), "key {k} tally");
            }
            drop(m);
            assert!(
                client.stats().reconnects.get() >= 2,
                "the disconnect schedule must have forced reconnects (got {})",
                client.stats().reconnects.get()
            );
        })
        .unwrap();
}

/// A supervised object restarting under a remote caller: the restart
/// error crosses the wire as `ObjectRestarting`, is not cached (the body
/// never ran), and the retry re-executes to success.
#[test]
fn remote_retry_through_a_supervised_restart() {
    SimRuntime::new()
        .run(|rt| {
            let fired = Arc::new(Mutex::new(false));
            let f = Arc::clone(&fired);
            let obj = ObjectBuilder::new("Flaky")
                .entry(
                    EntryDef::new("Once")
                        .params([])
                        .results([Ty::Int])
                        // Intercepted + managed so the panic kills the
                        // manager and the restart sweep answers with the
                        // transient ObjectRestarting (an implicit inline
                        // body's panic is delivered as BodyFailed — the
                        // body ran, so that one is rightly not retried).
                        .intercepted()
                        .body(move |_ctx, _args| {
                            let mut fired = f.lock();
                            if !*fired {
                                *fired = true;
                                drop(fired);
                                panic!("first-call crash");
                            }
                            Ok(vec![Value::Int(1)])
                        }),
                )
                .manager(|mgr| loop {
                    let acc = mgr.accept("Once")?;
                    mgr.execute(acc)?;
                })
                .supervise(RestartPolicy::RestartTransient {
                    max_restarts: 8,
                    window_ticks: 1_000_000,
                })
                .spawn(rt)
                .unwrap();
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "Flaky", server.mem_connector());

            let policy = RetryPolicy::new(8, 400_000).backoff(Backoff::ExpJitter {
                base: 50,
                cap: 2_000,
            });
            let once = client.entry_id("Once");
            let r = client.call_with(&once, vals![], Wait::Retry(policy));
            assert_eq!(r.unwrap()[0], Value::Int(1));
            assert_eq!(obj.stats().restarts(), 1);
        })
        .unwrap();
}

/// Clones of one handle share the session (and its dedup watermark);
/// concurrent callers from several sim processes all resolve.
#[test]
fn concurrent_callers_share_one_session() {
    SimRuntime::new()
        .run(|rt| {
            let counts = Arc::new(Mutex::new(HashMap::new()));
            let obj = counter(rt, &counts);
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "Counter", server.mem_connector());

            let mut joins = Vec::new();
            for c in 0..4i64 {
                let h = client.clone();
                joins.push(rt.spawn_with(Spawn::new(format!("caller{c}")), move || {
                    for i in 0..5i64 {
                        let k = c * 5 + i;
                        let r = h.call("Bump", vals![k]).unwrap();
                        assert_eq!(r[0], Value::Int(1));
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            assert_eq!(counts.lock().len(), 20);
            assert_eq!(server.stats().executed.get(), 20);
        })
        .unwrap();
}

/// A session has several links, so a duplicated `Call` frame can be read
/// after *another* link's frame moved `ack_below` past it and pruned its
/// cached reply. The id is below the session's watermark — resolved on
/// the client by the client's own word — and must be neither run again
/// nor answered. Driven frame by frame: link A carries call 1, link B
/// carries call 2 with `ack_below = 2`, then A delivers a second copy of
/// call 1.
#[test]
fn a_duplicate_below_the_watermark_is_not_run_again() {
    SimRuntime::new()
        .run(|rt| {
            let counts = Arc::new(Mutex::new(HashMap::new()));
            let obj = counter(rt, &counts);
            let server = NetServer::new(rt);
            server.register(&obj);
            let connector = server.mem_connector();
            let dial = || -> (Arc<dyn Link>, u32) {
                let link = connector.connect().unwrap();
                let hello = Frame::Hello {
                    version: PROTO_VERSION,
                    session: 41,
                    object: "Counter".into(),
                };
                link.send(&encode_frame(&hello).unwrap()).unwrap();
                match decode_frame(&link.recv().unwrap()).unwrap().0 {
                    Frame::HelloAck { entries } => {
                        let bump = entries.iter().find(|(n, _)| n == "Bump").unwrap().1;
                        (link, bump)
                    }
                    other => panic!("handshake answered {other:?}"),
                }
            };
            // Call `call` bumps the key of its own number.
            let bump = |link: &Arc<dyn Link>, entry: u32, call: u64, ack_below: u64| {
                let frame = Frame::Call {
                    call,
                    ack_below,
                    entry,
                    budget: NO_BUDGET,
                    args: vals![call as i64].into(),
                };
                link.send(&encode_frame(&frame).unwrap()).unwrap();
            };
            let reply = |link: &Arc<dyn Link>| match decode_frame(&link.recv().unwrap()).unwrap().0
            {
                Frame::Reply { call, result } => (call, result.unwrap()[0].clone()),
                other => panic!("expected a reply, got {other:?}"),
            };

            let (a, entry) = dial();
            let (b, _) = dial();
            bump(&a, entry, 1, 1);
            assert_eq!(reply(&a), (1, Value::Int(1)));
            bump(&b, entry, 2, 2);
            assert_eq!(reply(&b), (2, Value::Int(1)));

            bump(&a, entry, 1, 1); // the held-back duplicate
            bump(&a, entry, 3, 3);
            assert_eq!(reply(&a), (3, Value::Int(1)), "the duplicate was answered");
            assert_eq!(counts.lock().get(&1), Some(&1), "the duplicate ran");
            let s = server.stats();
            assert_eq!((s.executed.get(), s.suppressed.get()), (3, 1));
        })
        .unwrap();
}

/// Real TCP over loopback: eight bumps and a deadline-bounded read
/// against a served counter on the threaded runtime. This is the
/// 2-process wire path minus the second process (covered by the
/// repository benchmark's `remote_call` workload, which CI's
/// benchmark-smoke job runs).
#[test]
fn tcp_loopback_round_trip() {
    let rt = Runtime::threaded();
    let counts = Arc::new(Mutex::new(HashMap::new()));
    let obj = counter(&rt, &counts);
    let server = NetServer::new(&rt);
    server.register(&obj);

    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let client = RemoteHandle::new(&rt, "Counter", TcpConnector::new(addr.to_string()));
    let bump = client.entry_id("Bump");
    for i in 1..=8i64 {
        let r = client.call_id(&bump, vals![1i64]).unwrap();
        assert_eq!(r[0], Value::Int(i));
    }
    let count = client.entry_id("Count");
    let r = client.call_with(&count, vals![1i64], Wait::Deadline(5_000_000));
    assert_eq!(r.unwrap()[0], Value::Int(8));

    server.shutdown();
    obj.shutdown();
}
