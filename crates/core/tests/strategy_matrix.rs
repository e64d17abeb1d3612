//! Strategy-level regression tests for the schedule explorer: decision
//! traces are deterministic per (seed, strategy), strategies genuinely
//! diverge on the same seed, fault injection composes with preemption
//! strategies without lost wakeups, TargetedRace out-explores random
//! picking on the coverage metric, and the trace shrinker hands back a
//! minimized schedule that reproduces on the first replay.
//!
//! These tests pin their own seeds and strategies (they are about the
//! explorer itself), so they ignore `SIM_SEED`/`SIM_STRATEGY`.

use std::collections::HashSet;
use std::panic::AssertUnwindSafe;

use alps_core::{vals, AlpsError, EntryDef, ObjectBuilder, Ty, Value};
use alps_runtime::explore::{policy_for, shrink_preemptions, STRATEGY_MATRIX};
use alps_runtime::{FaultPlan, SchedPolicy, SimRuntime, Spawn, TraceSpec};

/// A commit-point-churning scenario: three same-priority callers (one
/// deadline-bounded) drive intake pushes, ring drains and finish/cancel
/// CASes. Small enough to run hundreds of times, racy enough that
/// schedules actually differ.
fn churn(sim: SimRuntime) -> (u64, u64) {
    let probe = sim.probe();
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Churn")
            .entry(
                EntryDef::new("P")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(|ctx, args| {
                        let v = args[0].as_int()?;
                        ctx.sleep(10 + (v as u64 % 3) * 10);
                        Ok(vec![Value::Int(v * 2)])
                    }),
            )
            .manager(|mgr| loop {
                let acc = mgr.accept("P")?;
                mgr.execute(acc)?;
            })
            .spawn(rt)
            .unwrap();
        let mut joins = Vec::new();
        for i in 0..3i64 {
            let (o2, rt2) = (obj.clone(), rt.clone());
            joins.push(rt.spawn_with(Spawn::new(format!("caller{i}")), move || {
                // Seed-dependent arrival jitter (drawn from the sim's own
                // seeded stream) so the commit-point sequence varies with
                // the seed even under pure pick randomization — the
                // callers are otherwise symmetric and a pick among them
                // would not change the coverage ordering at all.
                if i == 2 {
                    rt2.sleep((rt2.rand_u64() % 8) * 10 + 1);
                }
                for k in 0..2i64 {
                    let v = i * 10 + k;
                    // Caller 1 uses a deadline that preemption delays can
                    // push past — both outcomes are legal, and the
                    // cancel path exercises the finish-vs-cancel CAS.
                    let r = if i == 1 {
                        o2.call_deadline("P", vals![v], 80)
                    } else {
                        o2.call("P", vals![v])
                    };
                    match r {
                        Ok(out) => assert_eq!(out[0].as_int().unwrap(), v * 2),
                        Err(AlpsError::Timeout { .. }) => assert_eq!(i, 1),
                        Err(e) => panic!("caller {i}: {e:?}"),
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    })
    .unwrap();
    (probe.decision_hash(), probe.coverage_hash())
}

/// Satellite: the same (seed, strategy) cell must replay byte-identically
/// — the decision-trace hash covers every grant, every commit-point
/// event, and every preemption tick.
#[test]
fn same_seed_and_strategy_hash_identically() {
    for strategy in ["fifo", "random", "rr", "pct", "targeted"] {
        for seed in [3u64, 11] {
            let a = churn(SimRuntime::with_policy(policy_for(strategy, seed)));
            let b = churn(SimRuntime::with_policy(policy_for(strategy, seed)));
            assert_eq!(
                a, b,
                "strategy `{strategy}` seed {seed}: decision/coverage hashes diverged \
                 across two runs of the same cell"
            );
        }
    }
}

/// Satellite: different strategies on the same seed must explore
/// different schedules. A single seed can coincide for a low-probability
/// strategy (pct fires no preemption on many seeds, degenerating to
/// fifo), so the claim is over each strategy's hash *vector* across a
/// seed range: no two strategies may produce the same vector.
#[test]
fn strategies_diverge_on_equal_seeds() {
    let strategies = ["fifo", "random", "rr", "pct", "targeted"];
    let mut vectors: Vec<(&str, Vec<u64>)> = Vec::new();
    for strategy in strategies {
        let v: Vec<u64> = (0..8u64)
            .map(|seed| churn(SimRuntime::with_policy(policy_for(strategy, seed))).0)
            .collect();
        vectors.push((strategy, v));
    }
    for i in 0..vectors.len() {
        for j in (i + 1)..vectors.len() {
            assert_ne!(
                vectors[i].1, vectors[j].1,
                "strategies `{}` and `{}` produced identical decision traces on \
                 every probe seed — they are not exploring distinct schedules",
                vectors[i].0, vectors[j].0
            );
        }
    }
}

/// Satellite: fault injection composes with preemption strategies. An
/// injected delay in the manager's drain classification — the window
/// where a pushed call is popped but not yet attached — combined with
/// PCT preemptions at the surrounding commit points must never lose a
/// caller's wakeup: every plain caller resolves (a lost wakeup would
/// park it forever and surface as a sim deadlock, failing `run`), and
/// every deadline caller resolves within its generous budget.
#[test]
fn drain_delay_under_preemption_bounded_resolves_every_caller() {
    for seed in 0..64u64 {
        let sim = SimRuntime::with_policy(SchedPolicy::PreemptionBounded { seed, bound: 8 });
        sim.set_fault_plan(FaultPlan::new().delay("drain", 1, 150));
        sim.run(|rt| {
            let obj = ObjectBuilder::new("DelayedDrain")
                .entry(
                    EntryDef::new("P")
                        .params([Ty::Int])
                        .results([Ty::Int])
                        .intercepted()
                        .body(|ctx, args| {
                            ctx.sleep(10);
                            Ok(vec![args[0].clone()])
                        }),
                )
                .manager(|mgr| loop {
                    let acc = mgr.accept("P")?;
                    mgr.execute(acc)?;
                })
                .spawn(rt)
                .unwrap();
            let mut joins = Vec::new();
            for i in 0..6i64 {
                let o2 = obj.clone();
                joins.push(rt.spawn_with(Spawn::new(format!("caller{i}")), move || {
                    let r = if i % 2 == 1 {
                        // The budget dwarfs the injected 150-tick delay
                        // plus any preemption stack, so a timeout here
                        // would itself be a liveness failure.
                        o2.call_deadline("P", vals![i], 5_000)
                    } else {
                        o2.call("P", vals![i])
                    };
                    let out = r.unwrap_or_else(|e| panic!("caller {i}: {e:?}"));
                    assert_eq!(out[0].as_int().unwrap(), i);
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            assert_eq!(obj.stats().finishes(), 6, "every caller resolved");
        })
        .unwrap();
    }
}

/// Number of distinct commit-point orderings `strategy` reaches on the
/// churn scenario across `seeds` seeds.
fn distinct_orderings(strategy: &str, seeds: u64) -> usize {
    let mut seen = HashSet::new();
    for seed in 0..seeds {
        let (_, cov) = churn(SimRuntime::with_policy(policy_for(strategy, seed)));
        seen.insert(cov);
    }
    seen.len()
}

/// Acceptance gate: at equal seed count, TargetedRace must reach at
/// least twice the distinct commit-point orderings of PriorityRandom,
/// and PriorityRandom itself must not regress below its recorded
/// baseline (the floor CI fails on).
#[test]
fn targeted_race_doubles_random_coverage() {
    // Recorded baseline for PriorityRandom on the churn scenario at 64
    // seeds (measured 4 at introduction, targeted measured 61; see
    // DESIGN.md "Schedule exploration"). Kept deliberately below the
    // measured value so only a real coverage regression — not hash-set
    // noise — trips it.
    const RANDOM_BASELINE_FLOOR: usize = 3;
    let random = distinct_orderings("random", 64);
    let targeted = distinct_orderings("targeted", 64);
    eprintln!("SIM_COVERAGE scenario=churn strategy=random seeds=64 distinct_orderings={random}");
    eprintln!(
        "SIM_COVERAGE scenario=churn strategy=targeted seeds=64 distinct_orderings={targeted}"
    );
    assert!(
        random >= RANDOM_BASELINE_FLOOR,
        "PriorityRandom coverage regressed: {random} distinct orderings < \
         recorded floor {RANDOM_BASELINE_FLOOR}"
    );
    assert!(
        targeted >= 2 * random,
        "TargetedRace must at least double PriorityRandom's distinct \
         commit-point orderings at equal seed count: targeted={targeted} random={random}"
    );
}

/// A deadline so tight that it only fails when commit-point preemptions
/// stack inside the call window — the planted schedule-dependent bug for
/// the shrinker test below.
fn fragile_deadline(sim: SimRuntime) {
    sim.run(|rt| {
        let obj = ObjectBuilder::new("Fragile")
            .entry(
                EntryDef::new("P")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(|ctx, args| {
                        ctx.sleep(10);
                        Ok(vec![args[0].clone()])
                    }),
            )
            .manager(|mgr| loop {
                let acc = mgr.accept("P")?;
                mgr.execute(acc)?;
            })
            .spawn(rt)
            .unwrap();
        // Two calls so several intake/drain commit points land inside
        // deadline windows; 60 ticks absorbs the 10-tick body plus
        // protocol overhead but not a stacked preemption delay.
        for k in 0..2i64 {
            let r = obj.call_deadline("P", vals![k], 60);
            assert!(r.is_ok(), "deadline missed under preemption: {r:?}");
        }
    })
    .unwrap();
}

/// Acceptance: a seeded schedule-dependent failure is delta-minimized to
/// a `SIM_TRACE` that reproduces on the FIRST replay, and the trace
/// string round-trips through parse.
#[test]
fn shrinker_minimizes_a_failing_schedule_to_a_replaying_trace() {
    // Hunt a failing cell under TargetedRace. The scenario is fragile by
    // construction, so a failure shows up within a few seeds.
    let mut found = None;
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for seed in 0..256u64 {
        let policy = SchedPolicy::TargetedRace(seed);
        let sim = SimRuntime::with_policy(policy);
        let probe = sim.probe();
        if std::panic::catch_unwind(AssertUnwindSafe(|| fragile_deadline(sim))).is_err() {
            found = Some(TraceSpec {
                policy,
                preemptions: probe.preemptions(),
            });
            break;
        }
    }
    let full = found.expect("no TargetedRace seed in 0..256 broke the fragile deadline");
    assert!(
        !full.preemptions.is_empty(),
        "a fragile-deadline failure without preemptions cannot be schedule-dependent"
    );
    let mut fails = |spec: &TraceSpec| {
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            fragile_deadline(SimRuntime::with_trace(spec))
        }))
        .is_err()
    };
    assert!(fails(&full), "the recorded full trace must reproduce");
    let min = shrink_preemptions(&full, &mut fails);
    std::panic::set_hook(prev_hook);
    assert!(min.preemptions.len() <= full.preemptions.len());
    assert!(
        !min.preemptions.is_empty(),
        "removing every preemption cannot still fail"
    );
    // The replay contract, end to end through the printed string: parse
    // the SIM_TRACE line back and it must fail on the first replay.
    let reparsed = TraceSpec::parse(&min.to_string()).expect("minimized trace reparses");
    assert_eq!(reparsed.policy, min.policy);
    assert_eq!(reparsed.preemptions, min.preemptions);
    let replay_fails = |spec: &TraceSpec| {
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            fragile_deadline(SimRuntime::with_trace(spec))
        }))
        .is_err()
    };
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let reproduced = replay_fails(&reparsed);
    std::panic::set_hook(prev_hook);
    assert!(
        reproduced,
        "minimized SIM_TRACE must fail on the first replay"
    );
}

/// The default strategy matrix stays in sync with the policies it names
/// (CI's sim-sweep matrix axes are generated from this list).
#[test]
fn strategy_matrix_tokens_resolve() {
    for s in STRATEGY_MATRIX {
        let p = policy_for(s, 9);
        assert_eq!(p.strategy_name(), s, "matrix token `{s}` maps to {p:?}");
    }
}
