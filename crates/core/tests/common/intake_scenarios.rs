//! Intake-path scenarios shared by the full interleaving sweep
//! (`crates/core/tests/interleaving_sweep.rs`) and the root tier-1 smoke
//! (`tests/protocol_smoke.rs`, which includes this file by `#[path]`).
//! Each function is one schedule of the scenario: hand it to
//! `alps_runtime::explore::sweep_explore`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alps_core::{vals, EntryDef, ObjectBuilder, RestartPolicy, RetryPolicy, Ty, Value};
use alps_runtime::{FaultPlan, SimRuntime, Spawn};

/// A solo caller streams alone (phase 1), then keeps streaming while a
/// rival joins on the same intake ring (phase 2). The drain loop sees the
/// switch from one producer to two mid-stream — possibly with the solo
/// caller's next push already published. Under EVERY schedule: every
/// call gets its own correct reply, every body runs exactly once, each
/// caller's calls execute in the order it issued them, and the object
/// still serves afterwards.
pub fn solo_joined_by_rival(sim: SimRuntime) {
    sim.run(move |rt| {
        let executed: Arc<parking_lot::Mutex<Vec<i64>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let log = Arc::clone(&executed);
        let obj = ObjectBuilder::new("SoloJoined")
            .entry(
                EntryDef::new("P")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(move |ctx, args| {
                        let v = args[0].as_int()?;
                        log.lock().push(v);
                        // Spread service times so seeds shuffle how many
                        // of each caller's pushes share a drain batch
                        // with the rival's.
                        ctx.sleep(5 + (v as u64 % 3) * 10);
                        Ok(vec![Value::Int(v * 2)])
                    }),
            )
            .manager(|mgr| loop {
                let acc = mgr.accept("P")?;
                mgr.execute(acc)?;
            })
            .spawn(rt)
            .unwrap();
        // One task plays the solo caller through both phases, so the pid
        // the manager served alone is the pid still pushing when the
        // rival's traffic arrives.
        let warmed = Arc::new(AtomicU64::new(0));
        let mut joins = Vec::new();
        {
            let (o2, w2) = (obj.clone(), Arc::clone(&warmed));
            joins.push(rt.spawn_with(Spawn::new("solo".to_string()), move || {
                for k in 0..4i64 {
                    let r = o2.call("P", vals![k]).unwrap();
                    assert_eq!(r[0].as_int().unwrap(), k * 2);
                }
                w2.store(1, Ordering::SeqCst);
                for k in 0..8i64 {
                    let v = 1000 + k;
                    let r = o2.call("P", vals![v]).unwrap();
                    assert_eq!(r[0].as_int().unwrap(), v * 2, "solo call {k}");
                }
            }));
        }
        {
            let (o2, w2, rt2) = (obj.clone(), Arc::clone(&warmed), rt.clone());
            joins.push(rt.spawn_with(Spawn::new("rival".to_string()), move || {
                // Virtual sleep, not yield: a yield-spinner is always
                // runnable, and the sim clock only advances when
                // nothing is — the bodies' sleeps would never fire.
                while w2.load(Ordering::SeqCst) == 0 {
                    rt2.sleep(7);
                }
                for k in 0..8i64 {
                    let v = 2000 + k;
                    let r = o2.call("P", vals![v]).unwrap();
                    assert_eq!(r[0].as_int().unwrap(), v * 2, "rival call {k}");
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let stats = obj.stats();
        assert_eq!(stats.calls(), 20);
        assert_eq!(stats.finishes(), 20, "competition never loses a call");
        let executed = executed.lock().clone();
        let solo: Vec<i64> = executed.iter().copied().filter(|v| *v < 2000).collect();
        let rival: Vec<i64> = executed.iter().copied().filter(|v| *v >= 2000).collect();
        assert_eq!(
            solo,
            (0..4).chain(1000..1008).collect::<Vec<i64>>(),
            "solo caller: each call executed once, in issue order"
        );
        assert_eq!(
            rival,
            (2000..2008).collect::<Vec<i64>>(),
            "rival: each call executed once, in issue order"
        );
        let r = obj.call("P", vals![7i64]).unwrap();
        assert_eq!(r[0].as_int().unwrap(), 14);
    })
    .unwrap();
}

/// A supervised object served a solo streamer, then is killed by an
/// injected body panic while both the streamer and a rival have calls in
/// flight — so at sweep time the intake ring may hold a
/// pushed-but-undrained cell from either. The restart sweep must fail
/// those cells with a transient, retryable error. Under EVERY schedule:
/// every caller eventually succeeds through its retry policy with its own
/// correct reply, the object restarts exactly once, and the new
/// generation serves a sequential caller.
pub fn restart_sweeps_solo_and_rival(sim: SimRuntime) {
    // Bodies 1-4 are the solo warmup; the 6th body execution lands inside
    // the concurrent phase, with the rival's or the streamer's next call
    // possibly sitting in the ring.
    sim.set_fault_plan(FaultPlan::new().panic_at("body", 6));
    sim.run(move |rt| {
        let obj = ObjectBuilder::new("SoloRestart")
            .entry(
                EntryDef::new("P")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(|ctx, args| {
                        let v = args[0].as_int()?;
                        ctx.sleep(5 + (v as u64 % 4) * 10);
                        Ok(vec![Value::Int(v * 2)])
                    }),
            )
            .manager(|mgr| loop {
                let acc = mgr.accept("P")?;
                mgr.execute(acc)?;
            })
            .supervise(RestartPolicy::AlwaysFresh)
            .spawn(rt)
            .unwrap();
        let o2 = obj.clone();
        rt.spawn_with(Spawn::new("solo-warmup".to_string()), move || {
            for k in 0..4i64 {
                let r = o2.call("P", vals![k]).unwrap();
                assert_eq!(r[0].as_int().unwrap(), k * 2);
            }
        })
        .join()
        .unwrap();
        // Concurrent phase: the 6th body panic fires somewhere in here.
        // Retry absorbs the transient restart failures — including a
        // cell the sweep pulled straight out of the ring.
        let mut joins = Vec::new();
        for (name, base) in [("solo", 1000i64), ("rival", 2000i64)] {
            let o2 = obj.clone();
            joins.push(rt.spawn_with(Spawn::new(name.to_string()), move || {
                for k in 0..4i64 {
                    let v = base + k;
                    let r = o2
                        .call_retry("P", vals![v], RetryPolicy::new(12, 400_000))
                        .unwrap_or_else(|e| panic!("{name} call {k}: {e:?}"));
                    assert_eq!(r[0].as_int().unwrap(), v * 2, "{name} call {k}");
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(
            obj.stats().restarts(),
            1,
            "exactly the injected panic restarted"
        );
        assert_eq!(obj.generation(), 1);
        for k in 0..3i64 {
            let r = obj.call("P", vals![500 + k]).unwrap();
            assert_eq!(r[0].as_int().unwrap(), (500 + k) * 2);
        }
    })
    .unwrap();
}
