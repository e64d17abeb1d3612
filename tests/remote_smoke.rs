//! Tier-1 reach for the remote path: the root `cargo test -q` runs no
//! `crates/net` test, so this drives the whole of it once on the executor
//! it is served on — four callers sharing one handle to a served object,
//! over `MemLink` on `Runtime::threaded()`, through one forced disconnect.
//!
//! The only test of this binary, because it reads the *process's* OS
//! thread count: each caller's link has a process serving it, and when
//! the runtime is shut down none of their threads may be left.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alps::core::{vals, Backoff, EntryDef, ObjectBuilder, RetryPolicy, Ty, Value};
use alps::net::{NetFaultPlan, NetServer, RemoteHandle};
use alps::runtime::Runtime;
use parking_lot::Mutex;

const CALLERS: i64 = 4;
const CALLS: i64 = 200;

/// Entries of /proc/self/task (Linux); `None` elsewhere.
fn os_threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

#[test]
fn four_callers_through_a_disconnect_exactly_once_and_no_thread_left() {
    let threads_before = os_threads();
    let rt = Runtime::threaded();
    let tallies: Arc<Mutex<HashMap<i64, i64>>> = Arc::default();
    let bump = Arc::clone(&tallies);
    let obj = ObjectBuilder::new("Counter")
        .entry(
            EntryDef::new("Bump")
                .params([Ty::Int])
                .results([Ty::Int])
                .intercepted()
                .body(move |_ctx, args| {
                    let k = args[0].as_int()?;
                    let mut m = bump.lock();
                    let n = m.entry(k).or_insert(0);
                    *n += 1;
                    Ok(vec![Value::Int(*n)])
                }),
        )
        .manager(|mgr| loop {
            let call = mgr.accept("Bump")?;
            mgr.execute(call)?;
        })
        .spawn(&rt)
        .unwrap();
    let server = NetServer::new(&rt);
    server.register(&obj);

    // The 500th frame the client sends kills the link instead; with 800
    // calls and a handful of re-sends there is no 1000th.
    let mut plan = NetFaultPlan::seeded(1);
    plan.disconnect_every = 500;
    let client = RemoteHandle::new(&rt, "Counter", server.mem_connector()).with_fault(plan);
    let policy = RetryPolicy::new(8, 30_000_000).backoff(Backoff::ExpJitter {
        base: 200,
        cap: 5_000,
    });

    let callers: Vec<_> = (0..CALLERS)
        .map(|c| {
            let h = client.clone();
            rt.spawn(move || {
                let bump = h.entry_id("Bump");
                for i in 0..CALLS {
                    let r = h.call_id_retry(&bump, vals![c * CALLS + i], policy);
                    assert_eq!(r.unwrap()[0], Value::Int(1));
                }
            })
        })
        .collect();
    for caller in callers {
        caller.join().unwrap();
    }

    {
        let m = tallies.lock();
        assert_eq!(m.len() as i64, CALLERS * CALLS);
        assert!(m.values().all(|&n| n == 1), "a key was bumped twice");
    }
    let s = client.stats();
    // Each caller dials the link it calls on; the disconnect closes one
    // link and the idle ones with it, and whoever then finds none redials.
    let dials = s.reconnects.get();
    assert!(
        (2..=2 * CALLERS as u64).contains(&dials),
        "{dials} dials for first links and redials"
    );
    assert!(s.link_losses.get() + s.retries.get() >= 1);
    assert_eq!(server.stats().executed.get(), (CALLERS * CALLS) as u64);

    server.shutdown();
    obj.shutdown();
    rt.shutdown();
    if let Some(before) = threads_before {
        let t0 = Instant::now();
        while os_threads() != Some(before) {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "{before} OS threads before, {:?} left after shutdown",
                os_threads()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
