//! Edge cases of the runtime primitives across both executors.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use alps_runtime::{par, Chan, Notifier, Runtime, RuntimeError, SimRuntime, Spawn};

#[test]
fn close_wakes_blocked_senders_on_bounded_chan() {
    let sim = SimRuntime::new();
    let got = sim
        .run(|rt| {
            let c = Chan::bounded("c", 1);
            c.send(rt, 1).unwrap();
            let (c2, rt2) = (c.clone(), rt.clone());
            let h = rt.spawn_with(Spawn::new("sender"), move || {
                // Blocks (buffer full) until close, then errors.
                c2.send(&rt2, 2)
            });
            rt.yield_now(); // sender blocks
            c.close(rt);
            h.join().unwrap()
        })
        .unwrap();
    assert_eq!(got, Err(RuntimeError::Shutdown));
}

#[test]
fn close_wakes_blocked_receivers() {
    let sim = SimRuntime::new();
    let got = sim
        .run(|rt| {
            let c: Chan<i32> = Chan::unbounded("c");
            let (c2, rt2) = (c.clone(), rt.clone());
            let h = rt.spawn_with(Spawn::new("receiver"), move || c2.recv(&rt2));
            rt.yield_now(); // receiver blocks
            c.close(rt);
            h.join().unwrap()
        })
        .unwrap();
    assert_eq!(got, Err(RuntimeError::Shutdown));
}

#[test]
fn unpark_of_dead_process_is_ignored() {
    let rt = Runtime::threaded();
    let h = rt.spawn(|| 1);
    let id = h.id();
    h.join().unwrap();
    rt.unpark(id); // must not panic or revive anything
    rt.shutdown();
}

#[test]
fn zero_tick_sleep_is_not_a_scheduling_point() {
    let sim = SimRuntime::new();
    let order = sim
        .run(|rt| {
            let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let (rt2, log2) = (rt.clone(), Arc::clone(&log));
            let h = rt.spawn_with(Spawn::new("a"), move || {
                log2.lock().push("a-before");
                rt2.sleep(0); // no-op: must not yield to main
                log2.lock().push("a-after");
            });
            rt.yield_now();
            log.lock().push("main");
            h.join().unwrap();
            let v = log.lock().clone();
            v
        })
        .unwrap();
    assert_eq!(order, vec!["a-before", "a-after", "main"]);
}

#[test]
fn nested_par_in_sim() {
    type Branch = Box<dyn FnOnce() -> i64 + Send>;
    let sim = SimRuntime::new();
    let total: i64 = sim
        .run(|rt| {
            let outer: Vec<Branch> = (1..=3i64)
                .map(|i| {
                    let rt2 = rt.clone();
                    Box::new(move || {
                        // Each branch spawns its own inner family.
                        let inner: Vec<Branch> = (1..=2i64)
                            .map(|j| Box::new(move || i * 10 + j) as Branch)
                            .collect();
                        par(&rt2, inner).unwrap().iter().sum::<i64>()
                    }) as Branch
                })
                .collect();
            par(rt, outer).unwrap().iter().sum()
        })
        .unwrap();
    // (11+12) + (21+22) + (31+32) = 129
    assert_eq!(total, 129);
}

#[test]
fn many_simultaneous_timers_fire_in_order() {
    let sim = SimRuntime::new();
    let stamps = sim
        .run(|rt| {
            let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let mut hs = Vec::new();
            for i in 0..20u64 {
                let (rt2, log2) = (rt.clone(), Arc::clone(&log));
                hs.push(rt.spawn_with(Spawn::new(format!("t{i}")), move || {
                    rt2.sleep(1000 - i * 37);
                    log2.lock().push(rt2.now());
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            let v = log.lock().clone();
            v
        })
        .unwrap();
    let mut sorted = stamps.clone();
    sorted.sort_unstable();
    assert_eq!(stamps, sorted, "timer wakeups out of order");
}

#[test]
fn notifier_epoch_survives_heavy_contention_threaded() {
    let rt = Runtime::threaded();
    let n = Notifier::new();
    let woken = Arc::new(AtomicUsize::new(0));
    let mut hs = Vec::new();
    for i in 0..4 {
        let (n2, rt2, w2) = (n.clone(), rt.clone(), Arc::clone(&woken));
        hs.push(rt.spawn_with(Spawn::new(format!("w{i}")), move || {
            for _ in 0..50 {
                let seen = n2.epoch();
                // Notify may already have happened; wait_past must not
                // hang either way.
                n2.wait_past(&rt2, seen.wrapping_sub(1));
                w2.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    let (n3, rt3) = (n.clone(), rt.clone());
    let noisy = rt.spawn_with(Spawn::new("noise"), move || {
        for _ in 0..500 {
            n3.notify(&rt3);
        }
    });
    for h in hs {
        h.join().unwrap();
    }
    noisy.join().unwrap();
    assert_eq!(woken.load(Ordering::Relaxed), 200);
    rt.shutdown();
}

#[test]
fn sim_detects_deadlock_among_multiple_processes() {
    // Two processes each waiting for the other's unpark.
    let sim = SimRuntime::new();
    let err = sim
        .run(|rt| {
            let rt2 = rt.clone();
            let a = rt.spawn_with(Spawn::new("a"), move || {
                rt2.park();
            });
            let rt3 = rt.clone();
            let _b = rt.spawn_with(Spawn::new("b"), move || {
                rt3.park();
            });
            a.join().unwrap();
        })
        .unwrap_err();
    match err {
        RuntimeError::Deadlock { parked } => {
            assert!(parked.iter().any(|p| p == "a"), "{parked:?}");
            assert!(parked.iter().any(|p| p == "b"), "{parked:?}");
            assert!(parked.iter().any(|p| p == "main"), "{parked:?}");
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn chan_subscribe_is_idempotent() {
    let rt = Runtime::threaded();
    let c: Chan<i32> = Chan::unbounded("c");
    let n = Notifier::new();
    for _ in 0..100 {
        c.subscribe(&n); // must not grow the subscriber list
    }
    let e0 = n.epoch();
    c.send(&rt, 1).unwrap();
    // Exactly one bump per send, regardless of repeated subscription.
    assert_eq!(n.epoch(), e0 + 1);
    rt.shutdown();
}

#[test]
fn virtual_clock_does_not_advance_for_daemons_after_main() {
    let sim = SimRuntime::new();
    let end = sim
        .run(|rt| {
            let rt2 = rt.clone();
            rt.spawn_with(Spawn::new("d").daemon(true), move || {
                rt2.sleep(1_000_000_000); // would be a gigasecond
            });
            rt.sleep(10);
            rt.now()
        })
        .unwrap();
    assert_eq!(end, 10, "daemon timers must not hold the run open");
}

#[test]
fn intake_ring_drain_observes_cancellation_not_stale_calls() {
    // Models the deadline-expires-between-enqueue-and-drain window of the
    // call protocol: a producer publishes a cell into the ring, the
    // caller's deadline CAS flips it to CANCELLED before the consumer
    // drains, and the drain must observe the tombstoned cell — never
    // treat it as a live call. Uses the same IntakeRing the object layer
    // uses, with a model cell carrying the protocol's state word.
    use alps_runtime::IntakeRing;

    const WAITING: usize = 0;
    const CANCELLED: usize = 2;
    const TOMBSTONE: usize = 3;

    #[derive(Debug)]
    struct ModelCell {
        id: usize,
        state: AtomicUsize,
    }

    let ring: IntakeRing<Arc<ModelCell>> = IntakeRing::with_capacity(8);
    let cells: Vec<Arc<ModelCell>> = (0..6)
        .map(|id| {
            Arc::new(ModelCell {
                id,
                state: AtomicUsize::new(WAITING),
            })
        })
        .collect();
    for c in &cells {
        ring.push(Arc::clone(c)).unwrap();
    }
    // Deadlines expire for cells 1 and 4 while they sit in the ring: the
    // caller-side CAS claims them exactly like CallCell::cancel does.
    for idx in [1usize, 4] {
        assert!(cells[idx]
            .state
            .compare_exchange(WAITING, CANCELLED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok());
    }
    // The consumer drains: cancelled cells are tombstoned (unique claim),
    // live ones serviced.
    let mut serviced = Vec::new();
    let mut reaped = Vec::new();
    let mut n = 0;
    while let Some(c) = ring.pop() {
        n += 1;
        if c.state.load(Ordering::SeqCst) == CANCELLED {
            assert!(
                c.state
                    .compare_exchange(CANCELLED, TOMBSTONE, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok(),
                "exactly one holder claims the tombstone"
            );
            reaped.push(c.id);
        } else {
            // A live cell: the completer's CAS must win against WAITING,
            // as CallCell::finish does.
            assert_eq!(c.state.load(Ordering::SeqCst), WAITING, "stale state");
            serviced.push(c.id);
        }
    }
    assert_eq!(n, 6);
    assert_eq!(reaped, vec![1, 4]);
    assert_eq!(serviced, vec![0, 2, 3, 5]);
    assert!(ring.is_empty());
    // The tombstoned cells are inert: a late completer's WAITING→DONE CAS
    // must fail, so the caller is never double-completed.
    for idx in [1usize, 4] {
        assert!(cells[idx]
            .state
            .compare_exchange(WAITING, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err());
    }
}

#[test]
fn park_timeout_races_unpark_without_losing_the_permit() {
    // A second process cancels (unparks) a parker that is also racing a
    // timer: whichever way the race goes, the parker must wake exactly
    // once and a buffered permit must not leak into later parks.
    let sim = SimRuntime::new();
    sim.run(|rt| {
        let rt2 = rt.clone();
        let parker = rt.spawn_with(Spawn::new("parker"), move || {
            let t0 = rt2.now();
            rt2.park_timeout(1_000);
            let woke = rt2.now();
            assert!(woke <= t0 + 1_000, "woke past the timer");
            // The permit (if the unpark won) was consumed by that park:
            // this one must run its full course.
            rt2.park_timeout(50);
            assert_eq!(rt2.now(), woke + 50, "stray permit broke the second park");
        });
        rt.sleep(100);
        rt.unpark(parker.id());
        parker.join().unwrap();
    })
    .unwrap();
}
