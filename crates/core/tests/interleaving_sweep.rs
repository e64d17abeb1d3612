//! Seeded-interleaving sweep: the call protocol, deadline/cancellation
//! machinery, select semantics, and restart sweeps under the
//! strategy-driven schedule explorer (`alps_runtime::explore`).
//!
//! Every scenario runs once per (seed, strategy) cell; seeds are split
//! round-robin across the strategy matrix (`random`, `rr`, `pct`,
//! `targeted`). A failing cell is replayed, its commit-point preemption
//! schedule is delta-minimized, and the failure is reported as a
//! `SIM_TRACE=` string that reproduces the exact schedule:
//!
//! ```text
//! SIM_TRACE='targeted:9/3@16' cargo test -p alps-core --test interleaving_sweep
//! ```
//!
//! * `SIM_SEED=<n>` — run only seed `n` (replay mode).
//! * `SIM_SWEEP_SEEDS=<n>` — sweep seeds `0..n` (default 16 as a smoke
//!   test; CI's `sim-sweep` matrix sets 64 per strategy).
//! * `SIM_STRATEGY=<list>` — strategies to sweep: `all` (default) or a
//!   comma list of `fifo`, `random`, `rr`, `pct`, `targeted`.
//! * `SIM_TRACE=<trace>` — skip the sweep and replay one minimized
//!   schedule exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alps_core::{
    vals, AdmissionPolicy, AlpsError, EntryDef, Guard, ObjectBuilder, RestartPolicy, RetryPolicy,
    Selected, ShardedBuilder, Ty, Value, Wait,
};
use alps_runtime::explore::{for_each_policy, sweep_explore};
use alps_runtime::{FaultPlan, SimRuntime, Spawn};

#[path = "common/intake_scenarios.rs"]
mod intake_scenarios;

/// The canonical protocol scenario: several callers race deadline-bounded
/// and plain calls against a combining-capable manager. Returns a trace
/// of observable outcomes for the determinism check.
fn protocol_scenario(sim: SimRuntime) -> Vec<String> {
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Swept")
            .entry(
                EntryDef::new("P")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(|ctx, args| {
                        let v = args[0].as_int()?;
                        // Service time depends on the payload so seeds
                        // shuffle completion order, not just start order.
                        ctx.sleep(20 + (v as u64 % 7) * 30);
                        Ok(vec![Value::Int(v * 2)])
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
        let outcomes: Arc<parking_lot::Mutex<Vec<(i64, String)>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let p = obj.entry_id("P").unwrap();
        let mut joins = Vec::new();
        for i in 0..8i64 {
            let (o2, out2) = (obj.clone(), Arc::clone(&outcomes));
            joins.push(rt.spawn_with(Spawn::new(format!("caller{i}")), move || {
                // Odd callers use a tight deadline that some schedules
                // satisfy and others do not; even callers always wait.
                let wait = if i % 2 == 1 {
                    Wait::Deadline(120)
                } else {
                    Wait::Unbounded
                };
                let tag = match o2.call_with(p, vals![i], wait) {
                    Ok(vals) => format!("ok:{}", vals[0].as_int().unwrap()),
                    Err(AlpsError::Timeout { .. }) => "timeout".to_string(),
                    Err(e) => panic!("caller {i}: unexpected error {e:?}"),
                };
                out2.lock().push((i, tag));
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        // Invariants that must hold under EVERY schedule.
        let stats = obj.stats();
        assert_eq!(stats.calls(), 8);
        let outs = outcomes.lock();
        assert_eq!(outs.len(), 8, "every caller got exactly one answer");
        for (i, tag) in outs.iter() {
            if *tag != "timeout" {
                assert_eq!(tag, &format!("ok:{}", i * 2), "caller {i} got wrong result");
            }
        }
        let timeouts = outs.iter().filter(|(_, t)| t == "timeout").count() as u64;
        assert_eq!(stats.timeouts(), timeouts);
        // A timed-out Started/Ready cell is eventually tombstoned; a
        // timed-out attached/queued cell is reaped by its caller. Either
        // way reaps account for every undelivered completion.
        assert!(stats.reaps() <= timeouts);
        // Deterministic trace: caller outcomes in completion order.
        let mut trace: Vec<String> = outs.iter().map(|(i, t)| format!("{i}={t}")).collect();
        drop(outs);
        trace.push(format!("t_end={}", rt.now()));
        trace
    })
    .unwrap()
}

#[test]
fn protocol_invariants_hold_across_seeds() {
    sweep_explore("protocol", |sim| {
        protocol_scenario(sim);
    });
}

#[test]
fn same_seed_reproduces_the_same_schedule() {
    for_each_policy("determinism", |_strategy, policy, seed| {
        let a = protocol_scenario(SimRuntime::with_policy(policy));
        let b = protocol_scenario(SimRuntime::with_policy(policy));
        assert_eq!(
            a, b,
            "seed {seed}: two runs of the same seed diverged — the simulator \
             is not deterministic"
        );
    });
}

#[test]
fn select_semantics_hold_across_seeds() {
    // The paper's bounded-buffer guards (§2.4.1) under random scheduling:
    // FIFO per entry, never an admitted Remove on an empty buffer.
    sweep_explore("select", |sim| {
        let got = sim
            .run(|rt| {
                let depth = Arc::new(AtomicU64::new(0));
                let (d_dep, d_rem) = (Arc::clone(&depth), Arc::clone(&depth));
                let n = 3u64;
                let obj = ObjectBuilder::new("Buf")
                    .entry(
                        EntryDef::new("Deposit")
                            .params([Ty::Int])
                            .intercepted()
                            .body(move |_ctx, _args| {
                                let now = d_dep.fetch_add(1, Ordering::SeqCst);
                                assert!(now < n, "deposit admitted into a full buffer");
                                Ok(vec![])
                            }),
                    )
                    .entry(
                        EntryDef::new("Remove")
                            .results([Ty::Int])
                            .intercepted()
                            .body(move |_ctx, _| {
                                let was = d_rem.fetch_sub(1, Ordering::SeqCst);
                                assert!(was > 0, "remove admitted from an empty buffer");
                                Ok(vec![Value::Int(was as i64)])
                            }),
                    )
                    .manager(move |mgr| {
                        let mut count = 0u64;
                        loop {
                            let sel = mgr.select(vec![
                                Guard::accept("Deposit").when(move |_| count < n),
                                Guard::accept("Remove").when(move |_| count > 0),
                            ])?;
                            match sel {
                                Selected::Accepted { guard, call } => {
                                    mgr.execute(call)?;
                                    if guard == 0 {
                                        count += 1;
                                    } else {
                                        count -= 1;
                                    }
                                }
                                _ => unreachable!(),
                            }
                        }
                    })
                    .spawn(rt)
                    .unwrap();
                let mut joins = Vec::new();
                for i in 0..6i64 {
                    let (o2, is_producer) = (obj.clone(), i % 2 == 0);
                    joins.push(rt.spawn_with(Spawn::new(format!("proc{i}")), move || {
                        for k in 0..4i64 {
                            if is_producer {
                                o2.call("Deposit", vals![i * 10 + k]).unwrap();
                            } else {
                                o2.call("Remove", vals![]).unwrap();
                            }
                        }
                    }));
                }
                for j in joins {
                    j.join().unwrap();
                }
                obj.stats().finishes()
            })
            .unwrap();
        assert_eq!(got, 24, "all 24 operations completed");
    });
}

#[test]
fn injected_body_panic_is_caught_and_replayable() {
    // Acceptance scenario: a FaultPlan forces a panic inside the 3rd body
    // execution. Under every schedule the victim caller must observe
    // BodyFailed (never a hang, never a lost cell), the other callers
    // must succeed, and the object must stay usable.
    sweep_explore("fault-injection", |sim| {
        sim.set_fault_plan(FaultPlan::new().panic_at("body", 3));
        sim.run(|rt| {
            let obj = ObjectBuilder::new("Faulty")
                .entry(
                    EntryDef::new("P")
                        .params([Ty::Int])
                        .results([Ty::Int])
                        .intercepted()
                        .body(|_ctx, args| Ok(vec![args[0].clone()])),
                )
                .manager(|mgr| loop {
                    let acc = mgr.accept("P")?;
                    // The injected panic surfaces through execute as
                    // BodyFailed; keep serving regardless.
                    match mgr.execute(acc) {
                        Ok(_) | Err(AlpsError::BodyFailed { .. }) => {}
                        Err(e) => return Err(e),
                    }
                })
                .spawn(rt)
                .unwrap();
            let mut failures = 0u32;
            for i in 0..6i64 {
                match obj.call("P", vals![i]) {
                    Ok(r) => assert_eq!(r[0].as_int().unwrap(), i),
                    Err(AlpsError::BodyFailed { message, .. }) => {
                        assert!(
                            message.contains("injected fault: body"),
                            "unexpected failure payload: {message}"
                        );
                        failures += 1;
                    }
                    Err(e) => panic!("unexpected error: {e:?}"),
                }
            }
            assert_eq!(failures, 1, "exactly the 3rd body execution was killed");
            assert_eq!(obj.stats().body_failures(), 1);
        })
        .unwrap();
    });
}

#[test]
fn restart_during_drain_sweeps_cleanly_across_seeds() {
    // Acceptance scenario: an injected panic kills the 3rd body execution
    // of a supervised object while 8 retrying callers are in flight. Under
    // EVERY schedule: each caller eventually succeeds (retry absorbs the
    // transient restart error), every delivered result is tagged with the
    // epoch of the generation that computed it — never a pre-restart
    // value after the sweep — and the object restarts exactly once.
    sweep_explore("restart-during-drain", |sim| {
        sim.set_fault_plan(FaultPlan::new().panic_at("body", 3));
        sim.run(move |rt| {
            // `state_init` bumps the epoch: generation g computes results
            // tagged g*1000.
            let epoch = Arc::new(AtomicU64::new(0));
            let (e_body, e_init) = (Arc::clone(&epoch), Arc::clone(&epoch));
            let obj = ObjectBuilder::new("SweptSup")
                .entry(
                    EntryDef::new("P")
                        .params([Ty::Int])
                        .results([Ty::Int])
                        .intercepted()
                        .body(move |ctx, args| {
                            let v = args[0].as_int()?;
                            ctx.sleep(10 + (v as u64 % 5) * 15);
                            let tag = e_body.load(Ordering::SeqCst) as i64;
                            Ok(vec![Value::Int(v * 2 + tag * 1000)])
                        }),
                )
                .manager(|mgr| loop {
                    let acc = mgr.accept("P")?;
                    mgr.execute(acc)?;
                })
                .supervise(RestartPolicy::AlwaysFresh)
                .state_init(move || {
                    e_init.fetch_add(1, Ordering::SeqCst);
                })
                .spawn(rt)
                .unwrap();
            let mut joins = Vec::new();
            let retry = Wait::Retry(RetryPolicy::new(10, 100_000));
            let p = obj.entry_id("P").unwrap();
            for i in 0..8i64 {
                let o2 = obj.clone();
                joins.push(rt.spawn_with(Spawn::new(format!("caller{i}")), move || {
                    let r = o2
                        .call_with(p, vals![i], retry)
                        .unwrap_or_else(|e| panic!("caller {i}: {e:?}"));
                    let v = r[0].as_int().unwrap();
                    let (tag, base) = (v / 1000, v % 1000);
                    assert_eq!(base, i * 2, "caller {i} got a wrong or torn result");
                    assert!(tag <= 1, "caller {i}: result from impossible epoch {tag}");
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            let stats = obj.stats();
            assert_eq!(stats.restarts(), 1, "exactly one restart");
            assert_eq!(obj.generation(), 1);
            assert!(
                stats.retries() >= 1,
                "the panicked call's caller must have retried"
            );
            // Post-restart service keeps working on the same handle.
            let r = obj.call("P", vals![50i64]).unwrap();
            assert_eq!(r[0].as_int().unwrap(), 50 * 2 + 1000);
        })
        .unwrap();
    });
}

#[test]
fn restart_with_pooled_bodies_queued_across_seeds() {
    // Acceptance scenario for the shared-pool executor path: a supervised
    // object runs its bodies on a Shared(2) pool behind an array(4) entry,
    // so at the moment the injected panic kills the 3rd body execution
    // there are sibling bodies started-but-unfinished on pool workers and
    // more calls queued behind them. Under EVERY schedule: the restart
    // sweeps the started generation cleanly (no hung caller, no torn
    // result), retrying callers ride out the transient errors, the object
    // restarts exactly once, and the new generation's pool serves again.
    sweep_explore("restart-pooled-drain", |sim| {
        sim.set_fault_plan(FaultPlan::new().panic_at("body", 3));
        sim.run(move |rt| {
            let epoch = Arc::new(AtomicU64::new(0));
            let (e_body, e_init) = (Arc::clone(&epoch), Arc::clone(&epoch));
            // Bodies begun; every body of `P` runs on the pool.
            let runs = Arc::new(AtomicU64::new(0));
            let r_body = Arc::clone(&runs);
            let obj = ObjectBuilder::new("SweptPool")
                .entry(
                    EntryDef::new("P")
                        .params([Ty::Int])
                        .results([Ty::Int])
                        .array(4)
                        .intercepted()
                        .body(move |ctx, args| {
                            r_body.fetch_add(1, Ordering::SeqCst);
                            let v = args[0].as_int()?;
                            // Spread service times so several bodies are
                            // in flight when the fault fires.
                            ctx.sleep(15 + (v as u64 % 4) * 25);
                            let tag = e_body.load(Ordering::SeqCst) as i64;
                            Ok(vec![Value::Int(v * 2 + tag * 1000)])
                        }),
                )
                .pool(alps_core::PoolMode::Shared(2))
                .manager(|mgr| loop {
                    match mgr.select(vec![Guard::accept("P"), Guard::await_done("P")])? {
                        Selected::Accepted { call, .. } => mgr.start_as_is(call)?,
                        Selected::Ready { done, .. } => mgr.finish_as_is(done)?,
                        _ => unreachable!(),
                    }
                })
                .supervise(RestartPolicy::AlwaysFresh)
                .state_init(move || {
                    e_init.fetch_add(1, Ordering::SeqCst);
                })
                .spawn(rt)
                .unwrap();
            let mut joins = Vec::new();
            let retry = Wait::Retry(RetryPolicy::new(12, 400_000));
            let p = obj.entry_id("P").unwrap();
            for i in 0..8i64 {
                let o2 = obj.clone();
                joins.push(rt.spawn_with(Spawn::new(format!("caller{i}")), move || {
                    let r = o2
                        .call_with(p, vals![i], retry)
                        .unwrap_or_else(|e| panic!("caller {i}: {e:?}"));
                    let v = r[0].as_int().unwrap();
                    let (tag, base) = (v / 1000, v % 1000);
                    assert_eq!(base, i * 2, "caller {i} got a wrong or torn result");
                    assert!(tag <= 1, "caller {i}: result from impossible epoch {tag}");
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            let stats = obj.stats();
            assert_eq!(stats.restarts(), 1, "exactly one restart");
            assert_eq!(obj.generation(), 1);
            assert!(
                stats.retries() >= 1,
                "at least the panicked call's caller retried"
            );
            // The fresh generation's pool executes bodies again.
            let r = obj.call("P", vals![30i64]).unwrap();
            assert_eq!(r[0].as_int().unwrap(), 30 * 2 + 1000);
            assert!(runs.load(Ordering::SeqCst) >= 1);
        })
        .unwrap();
    });
}

#[test]
fn combined_retirement_races_restart_sweep_across_seeds() {
    // Shard-combining leader/follower retirement racing the restart
    // sweep: six callers issue waves of same-key combined reads against
    // a 2-shard supervised group while an injected panic kills the 3rd
    // body execution. The interesting window — the one TargetedRace
    // preempts into — is a leader holding a combining cell when the
    // sweep fails its in-flight call: the leader must publish the error
    // to its followers (never park them forever), the combining map must
    // drop the cell so a retry can re-lead, and the owner shard must
    // come back. Under EVERY schedule: all callers eventually succeed,
    // the group restarts exactly once, and combining still works after
    // the sweep.
    sweep_explore("combined-vs-restart", |sim| {
        sim.set_fault_plan(FaultPlan::new().panic_at("body", 3));
        sim.run(move |rt| {
            let group = ShardedBuilder::new("ComboSup", 2)
                .spawn(rt, |i| {
                    ObjectBuilder::new(format!("ComboSup{i}"))
                        .entry(
                            EntryDef::new("Get")
                                .params([Ty::Int])
                                .results([Ty::Int])
                                .intercepted()
                                .body(|ctx, args| {
                                    let v = args[0].as_int()?;
                                    // Bodies outlast the largest commit-point
                                    // preemption delay (64 ticks) so same-key
                                    // rivals reliably arrive while the leader
                                    // is still executing.
                                    ctx.sleep(40 + (v as u64 % 3) * 20);
                                    Ok(vec![Value::Int(v * 2)])
                                }),
                        )
                        .manager(|mgr| loop {
                            let acc = mgr.accept("Get")?;
                            mgr.execute(acc)?;
                        })
                        .supervise(RestartPolicy::AlwaysFresh)
                })
                .unwrap();
            let gid = group.entry_id("Get").unwrap();
            let mut joins = Vec::new();
            for c in 0..6i64 {
                let (g2, rt2) = (group.clone(), rt.clone());
                joins.push(rt.spawn_with(Spawn::new(format!("combo{c}")), move || {
                    for w in 0..3i64 {
                        // Same key per wave across all callers, so each
                        // wave is one combinable burst.
                        let key = (w + 1) * 10;
                        let mut attempts = 0u32;
                        let r = loop {
                            match g2.call_id_combined(gid, vals![key]) {
                                Ok(r) => break r,
                                // Transients of the restart window: the
                                // leader's own failed call (BodyFailed),
                                // a follower's cloned copy of it, calls
                                // refused mid-sweep (ObjectRestarting),
                                // and a follower whose leader unwound
                                // (reported as ObjectClosed).
                                Err(AlpsError::BodyFailed { .. })
                                | Err(AlpsError::ObjectRestarting { .. })
                                | Err(AlpsError::ObjectClosed { .. }) => {
                                    attempts += 1;
                                    assert!(
                                        attempts <= 32,
                                        "caller {c} wave {w}: retries exhausted"
                                    );
                                    rt2.sleep(25);
                                }
                                Err(e) => panic!("caller {c} wave {w}: {e:?}"),
                            }
                        };
                        assert_eq!(r[0].as_int().unwrap(), key * 2, "caller {c} wave {w}");
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            let stats = group.stats();
            assert_eq!(
                stats.restarts, 1,
                "exactly the injected panic restarted (summed across shards)"
            );
            assert!(
                stats.combined_follows >= 1,
                "same-key waves against slow bodies must combine at least once"
            );
            assert!(
                stats.combined_leads + stats.combined_follows >= 18,
                "every wave call either led or followed"
            );
            // The combining map is clean after the storm: a fresh
            // combined read leads, executes post-restart, and succeeds.
            let r = group.call_id_combined(gid, vals![777i64]).unwrap();
            assert_eq!(r[0].as_int().unwrap(), 777 * 2);
        })
        .unwrap();
    });
}

#[test]
fn shed_under_storm_bounds_intake_across_seeds() {
    // Acceptance scenario: 16 callers storm a ShedNewest object whose
    // intake holds 4. Under EVERY schedule: no caller ever hangs, every
    // refusal is an immediate `Overloaded` counted by the stats, every
    // admitted call completes with the right result, and the object ends
    // the storm alive.
    sweep_explore("shed-under-storm", |sim| {
        sim.run(move |rt| {
            let obj = ObjectBuilder::new("StormShed")
                .entry(
                    EntryDef::new("P")
                        .params([Ty::Int])
                        .results([Ty::Int])
                        .intercepted()
                        .body(|ctx, args| {
                            ctx.sleep(40);
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
            let tallies: Arc<parking_lot::Mutex<(u64, u64)>> =
                Arc::new(parking_lot::Mutex::new((0, 0)));
            let mut joins = Vec::new();
            for i in 0..16i64 {
                let (o2, t2) = (obj.clone(), Arc::clone(&tallies));
                joins.push(rt.spawn_with(Spawn::new(format!("storm{i}")), move || {
                    for k in 0..2i64 {
                        match o2.call("P", vals![i * 10 + k]) {
                            Ok(r) => {
                                assert_eq!(r[0].as_int().unwrap(), i * 10 + k);
                                t2.lock().0 += 1;
                            }
                            Err(AlpsError::Overloaded { .. }) => t2.lock().1 += 1,
                            Err(e) => panic!("storm caller {i}: {e:?}"),
                        }
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            let (ok, shed) = *tallies.lock();
            assert_eq!(ok + shed, 32, "every call was answered — no hangs");
            assert!(ok >= 1, "admitted work is served even mid-storm");
            assert!(shed >= 1, "16 callers against capacity 4 must shed");
            let stats = obj.stats();
            assert_eq!(stats.sheds(), shed, "stats account for every refusal");
            assert_eq!(stats.finishes(), ok, "every admitted call completed");
            assert!(!obj.is_closed(), "the storm never killed the object");
        })
        .unwrap();
    });
}

#[test]
fn solo_caller_joined_by_a_rival_keeps_every_call_across_seeds() {
    sweep_explore(
        "solo-joined-by-rival",
        intake_scenarios::solo_joined_by_rival,
    );
}

#[test]
fn restart_sweep_fails_ring_held_cells_of_solo_and_rival_across_seeds() {
    sweep_explore(
        "restart-sweeps-solo-and-rival",
        intake_scenarios::restart_sweeps_solo_and_rival,
    );
}

#[test]
fn injected_intake_drop_is_rescued_by_the_deadline() {
    // Drop the very first intake publish: the call never reaches the
    // manager, so only the caller's deadline can answer it. The second
    // call must go through untouched.
    sweep_explore("drop-rescue", |sim| {
        sim.set_fault_plan(FaultPlan::new().drop_at("intake_push", 1));
        sim.run(|rt| {
            let obj = ObjectBuilder::new("Lossy")
                .entry(
                    EntryDef::new("P")
                        .params([Ty::Int])
                        .results([Ty::Int])
                        .intercepted()
                        .body(|_ctx, args| Ok(vec![args[0].clone()])),
                )
                .manager(|mgr| loop {
                    let acc = mgr.accept("P")?;
                    mgr.execute(acc)?;
                })
                .spawn(rt)
                .unwrap();
            let p = obj.entry_id("P").unwrap();
            let err = obj
                .call_with(p, vals![1i64], Wait::Deadline(300))
                .unwrap_err();
            assert!(matches!(err, AlpsError::Timeout { .. }), "{err:?}");
            let r = obj.call_with(p, vals![2i64], Wait::Deadline(300)).unwrap();
            assert_eq!(r[0].as_int().unwrap(), 2);
            assert_eq!(obj.stats().timeouts(), 1);
        })
        .unwrap();
    });
}
