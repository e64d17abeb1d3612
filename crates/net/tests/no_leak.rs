//! What a dropped [`RemoteHandle`] and a shut-down [`NetServer`] leave
//! behind in the process: nothing. One test, because it reads the
//! *process's* OS thread and descriptor counts (Linux `/proc`; skipped
//! elsewhere), which any test running beside it would move.

use std::time::{Duration, Instant};

use alps_core::{vals, EntryDef, ObjectBuilder, Ty};
use alps_net::{NetServer, RemoteHandle, TcpConnector};
use alps_runtime::Runtime;

fn entries(dir: &str) -> Option<usize> {
    Some(std::fs::read_dir(dir).ok()?.count())
}

fn threads_and_fds() -> Option<(usize, usize)> {
    // Reading the directory holds one descriptor open, every time.
    Some((entries("/proc/self/task")?, entries("/proc/self/fd")?))
}

/// A process is done a moment before its OS thread is gone: poll.
fn settles_to(what: &str, want: (usize, usize)) {
    let t0 = Instant::now();
    while threads_and_fds() != Some(want) {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "{what}: (threads, fds) were {want:?}, now {:?}",
            threads_and_fds()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn dropped_handles_and_a_shut_down_server_leave_no_thread_and_no_socket() {
    let Some(at_start) = threads_and_fds() else {
        return;
    };
    let rt = Runtime::threaded();
    let obj = ObjectBuilder::new("Echo")
        .entry(
            EntryDef::new("Id")
                .params([Ty::Int])
                .results([Ty::Int])
                .body(|_ctx, args| Ok(args)),
        )
        .spawn(&rt)
        .unwrap();
    let server = NetServer::new(&rt);
    server.register(&obj);
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    // The listener's socket and the accept loop's thread are the
    // server's, not the handles'.
    let serving = threads_and_fds().unwrap();

    for i in 0..32i64 {
        let h = RemoteHandle::new(&rt, "Echo", TcpConnector::new(addr.to_string()));
        assert_eq!(h.call("Id", vals![i]).unwrap(), vals![i]);
    }
    assert_eq!(server.stats().connections.get(), 32);
    settles_to("32 handles dropped", serving);

    // `shutdown` alone must end the accept loop, which is blocked in
    // `accept()` with no client in sight.
    server.shutdown();
    obj.shutdown();
    settles_to("server shut down", at_start);
    rt.shutdown();
}
