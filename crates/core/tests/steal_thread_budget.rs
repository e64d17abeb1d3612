//! The thread-budget bound of the work-stealing executor, alone in its
//! test binary: it reads the *process's* OS thread count, which sibling
//! tests with pools of their own would move.
#![cfg(target_arch = "x86_64")]

use alps_core::{vals, EntryDef, ObjectBuilder, ObjectHandle, Ty};
use alps_runtime::Runtime;

fn echo_object(rt: &Runtime, name: &str) -> ObjectHandle {
    ObjectBuilder::new(name)
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

/// Reads `Threads:` from /proc/self/status (Linux); None elsewhere.
fn os_thread_count() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    s.lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// The ISSUE-5 thread-budget bound: 64 trivial objects — each of which
/// would cost at least one manager thread (plus pool workers) on the
/// threaded executor — run on K workers + 1 timer, and the *process*
/// thread count does not grow with the object count.
#[test]
fn sixty_four_objects_fit_in_the_worker_budget() {
    let rt = Runtime::thread_pool(4);
    assert_eq!(rt.os_threads(), Some(5)); // 4 workers + 1 timer
    let before = os_thread_count();
    let objs: Vec<ObjectHandle> = (0..64)
        .map(|i| echo_object(&rt, &format!("Echo{i}")))
        .collect();
    for (i, obj) in objs.iter().enumerate() {
        let v = obj.call("Echo", vals![i as i64]).unwrap()[0]
            .as_int()
            .unwrap();
        assert_eq!(v, i as i64);
    }
    // Executor-level bound is exact…
    assert_eq!(rt.os_threads(), Some(5));
    // …and the real process thread count has not grown with the 64
    // managers.
    if let (Some(b), Some(a)) = (before, os_thread_count()) {
        assert!(
            a <= b,
            "spawning 64 objects grew the process from {b} to {a} OS threads"
        );
    }
    for obj in &objs {
        obj.shutdown();
    }
    rt.shutdown();
}
