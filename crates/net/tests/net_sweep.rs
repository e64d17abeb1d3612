//! Transport-fault sweep: the full distributed call path — wire
//! protocol over in-memory links, a supervised server object, retrying
//! remote callers — under the strategy-driven schedule explorer AND a
//! per-seed transport fault plan (drops, delays, duplicates, forced
//! disconnects).
//!
//! The invariant pinned across every (seed, strategy) cell is the
//! distributed-objects acceptance contract: **every call resolves
//! exactly once or errors cleanly — zero lost replies, zero double
//! executions** — verified both from ground truth (the tally map the
//! entry bodies write) and over a second, fault-free connection.
//!
//! Runs under the standard sweep env contract (`SIM_SWEEP_SEEDS`,
//! `SIM_STRATEGY`, `SIM_SEED`, `SIM_TRACE`); CI's sim-sweep matrix
//! drives it at 64 seeds per strategy = 256 cells.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use alps_core::{
    vals, Backoff, EntryDef, Guard, ObjectBuilder, RestartPolicy, RetryPolicy, Selected, Ty, Value,
    Wait,
};
use alps_net::{NetFaultPlan, NetServer, ReconnectPolicy, RemoteHandle};
use alps_runtime::explore::sweep_explore;
use alps_runtime::{SimRuntime, Spawn};
use parking_lot::Mutex;

const CALLERS: i64 = 3;
const KEYS_PER_CALLER: i64 = 6;

/// The disconnect-during-call scenario. A supervised counter whose
/// `Bump` panics the *first* time it sees an unlucky key (`k % 17 == 3`)
/// — so restarts, client retries, and server dedup all interlock — is
/// served over a transport whose fault plan is seeded from the sim's
/// deterministic random stream (every sweep seed explores a different
/// fault timing).
fn partial_failure_scenario(sim: SimRuntime) {
    sim.run(|rt| {
        let counts: Arc<Mutex<HashMap<i64, i64>>> = Arc::new(Mutex::new(HashMap::new()));
        let seen: Arc<Mutex<HashSet<i64>>> = Arc::new(Mutex::new(HashSet::new()));
        let (c_bump, c_read, s_bump) = (Arc::clone(&counts), Arc::clone(&counts), seen);
        let obj = ObjectBuilder::new("Counter")
            .entry(
                EntryDef::new("Bump")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    // Intercepted + managed: the injected panic kills
                    // the manager, so the restart sweep answers callers
                    // with the transient ObjectRestarting instead of the
                    // delivered (non-retryable) BodyFailed an implicit
                    // inline body would produce.
                    .intercepted()
                    .body(move |_ctx, args| {
                        let k = args[0].as_int()?;
                        // First sight of an unlucky key: crash BEFORE
                        // recording, so the supervised restart answers
                        // the caller with ObjectRestarting and the
                        // retry's re-execution (key now seen) succeeds.
                        if k % 17 == 3 && s_bump.lock().insert(k) {
                            panic!("injected first-sight crash for key {k}");
                        }
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
                    .intercepted()
                    .body(move |_ctx, args| {
                        let k = args[0].as_int()?;
                        Ok(vec![Value::Int(
                            c_read.lock().get(&k).copied().unwrap_or(0),
                        )])
                    }),
            )
            .manager(|mgr| loop {
                match mgr.select(vec![Guard::accept("Bump"), Guard::accept("Count")])? {
                    Selected::Accepted { call, .. } => {
                        mgr.execute(call)?;
                    }
                    _ => unreachable!(),
                }
            })
            .supervise(RestartPolicy::RestartTransient {
                max_restarts: 32,
                window_ticks: 10_000_000,
            })
            .spawn(rt)
            .unwrap();

        let server = NetServer::new(rt);
        server.register(&obj);
        let connector = server.mem_connector();

        // Per-seed fault timing: the plan's decision stream is seeded
        // from the sim's own deterministic RNG, so each sweep seed
        // schedules different drops/disconnects — replayable from the
        // same SIM_SEED.
        let plan = NetFaultPlan::chaos(rt.rand_u64());
        let client = RemoteHandle::new(rt, "Counter", connector.clone())
            .with_fault(plan)
            .with_reconnect(ReconnectPolicy {
                max_attempts: 6,
                base_ticks: 50,
                cap_ticks: 1_000,
            });
        // Generous per-attempt budgets relative to the ≤200-tick fault
        // delays: a server-side deadline expiring mid-body would tombstone
        // a completed execution, the one case where a Timeout retry can
        // legally re-execute.
        let policy = RetryPolicy::new(10, 600_000).backoff(Backoff::ExpJitter {
            base: 50,
            cap: 2_000,
        });

        let outcomes: Arc<Mutex<Vec<(i64, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut joins = Vec::new();
        for c in 0..CALLERS {
            let (h, out) = (client.clone(), Arc::clone(&outcomes));
            joins.push(rt.spawn_with(Spawn::new(format!("caller{c}")), move || {
                let bump = h.entry_id("Bump");
                for i in 0..KEYS_PER_CALLER {
                    let k = c * KEYS_PER_CALLER + i;
                    let r = h.call_with(&bump, vals![k], Wait::Retry(policy));
                    out.lock().push((k, r.is_ok()));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }

        let outs = outcomes.lock();
        assert_eq!(
            outs.len() as i64,
            CALLERS * KEYS_PER_CALLER,
            "every caller resolved every call (no lost replies, no hangs)"
        );

        // Ground truth from the tally map the bodies write.
        {
            let m = counts.lock();
            for &(k, ok) in outs.iter() {
                let n = m.get(&k).copied().unwrap_or(0);
                if ok {
                    assert_eq!(n, 1, "key {k}: reply delivered but body ran {n} times");
                } else {
                    assert!(n <= 1, "key {k}: errored call double-executed ({n} runs)");
                }
            }
        }

        // And the same verdict read back over a second, fault-free
        // connection (its own session: dedup state must not bleed).
        let verify = RemoteHandle::new(rt, "Counter", connector);
        for &(k, ok) in outs.iter() {
            let n = verify.call("Count", vals![k]).unwrap()[0].as_int().unwrap();
            if ok {
                assert_eq!(n, 1, "key {k} (remote verify)");
            } else {
                assert!(n <= 1, "key {k} (remote verify)");
            }
        }
    })
    .unwrap();
}

#[test]
fn net_partial_failure_sweep() {
    sweep_explore("net_partial_failure", partial_failure_scenario);
}
