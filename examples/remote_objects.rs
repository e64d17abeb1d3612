//! Running objects across processes: the same call surface, a network
//! between the caller and the object, and partial failure handled by
//! policy instead of by hand.
//!
//! This example forks itself: the child (`remote_objects server`) hosts
//! a *supervised* key/value register behind a [`NetServer`] on an
//! ephemeral loopback TCP port; the parent connects a [`RemoteHandle`],
//! interns entry ids over the handshake, and drives calls with the same
//! `call_with(id, args, Wait::Retry(policy))` it would use in-process. The register's `Put` crashes
//! on its first sight of one unlucky key, so the run demonstrates the
//! full partial-failure story: the panic kills the object's manager, the
//! restart sweep answers the in-flight remote call with the transient
//! `ObjectRestarting`, that error crosses the wire as itself, and the
//! client's retry policy rides through it — exactly once, verified by
//! reading every key back.
//!
//! Run with: `cargo run --example remote_objects`
//!
//! [`NetServer`]: alps::net::NetServer
//! [`RemoteHandle`]: alps::net::RemoteHandle

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;

use alps::core::{
    vals, Backoff, EntryDef, Guard, ObjectBuilder, RestartPolicy, RetryPolicy, Selected, Ty, Value,
    Wait,
};
use alps::net::{NetServer, RemoteHandle, TcpConnector};
use alps::runtime::Runtime;
use parking_lot::Mutex;

const UNLUCKY: i64 = 13;

/// Child role: host the register, print the port, park until the parent
/// closes our stdin (so we never outlive it).
fn server() {
    let rt = Runtime::threaded();

    let store: Arc<Mutex<HashMap<i64, i64>>> = Arc::new(Mutex::new(HashMap::new()));
    let crashed = Arc::new(Mutex::new(false));
    let (s_put, s_get, c) = (Arc::clone(&store), store, crashed);

    let register = ObjectBuilder::new("Register")
        .entry(
            EntryDef::new("Put")
                .params([Ty::Int, Ty::Int])
                .intercepted()
                .body(move |_ctx, args| {
                    let (k, v) = (args[0].as_int()?, args[1].as_int()?);
                    // One injected fault: the first Put of the unlucky key
                    // panics BEFORE writing. The panic kills the manager
                    // below; supervision restarts it and answers the
                    // caller with the retryable ObjectRestarting.
                    if k == UNLUCKY && !std::mem::replace(&mut *c.lock(), true) {
                        panic!("injected crash on first Put({k})");
                    }
                    s_put.lock().insert(k, v);
                    Ok(vec![])
                }),
        )
        .entry(
            EntryDef::new("Get")
                .params([Ty::Int])
                .results([Ty::Int])
                .intercepted()
                .body(move |_ctx, args| {
                    let k = args[0].as_int()?;
                    Ok(vec![Value::Int(
                        s_get.lock().get(&k).copied().unwrap_or(-1),
                    )])
                }),
        )
        .manager(|mgr| loop {
            match mgr.select(vec![Guard::accept("Put"), Guard::accept("Get")])? {
                Selected::Accepted { call, .. } => {
                    mgr.execute(call)?;
                }
                _ => unreachable!(),
            }
        })
        .supervise(RestartPolicy::RestartTransient {
            max_restarts: 4,
            window_ticks: 10_000_000,
        })
        .spawn(&rt)
        .expect("valid object definition");

    let net = NetServer::new(&rt);
    net.register(&register);
    let addr = net.listen_tcp("127.0.0.1:0").expect("bind loopback");
    println!("PORT={}", addr.port());
    std::io::stdout().flush().ok();

    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    net.shutdown();
    register.shutdown();
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("server") {
        return server();
    }

    // Fork the server process and learn its port.
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(exe)
        .arg("server")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn server process");
    let mut lines = BufReader::new(child.stdout.take().expect("child stdout")).lines();
    let port: u16 = loop {
        match lines.next() {
            Some(Ok(l)) if l.starts_with("PORT=") => break l[5..].trim().parse().expect("port"),
            Some(Ok(_)) => continue,
            _ => panic!("server process died before reporting its port"),
        }
    };
    println!("server process is up on 127.0.0.1:{port}");

    // The client side: same call surface, a wire underneath.
    let rt = Runtime::threaded();
    let register = RemoteHandle::new(
        &rt,
        "Register",
        TcpConnector::new(format!("127.0.0.1:{port}")),
    );
    let put = register.entry_id("Put");
    let get = register.entry_id("Get");

    // ObjectRestarting, Overloaded, Timeout, and LinkLost are the
    // retryable taxonomy — the same policy object an in-process caller
    // would pass to ObjectHandle::call_with.
    let policy = RetryPolicy::new(6, 2_000_000).backoff(Backoff::ExpJitter {
        base: 200,
        cap: 5_000,
    });

    for k in 10..16i64 {
        register
            .call_with(&put, vals![k, k * k], Wait::Retry(policy))
            .expect("Put rides through the injected crash");
        println!("Put({k}, {}) ok", k * k);
    }

    println!("--");
    for k in 10..16i64 {
        let v = register
            .call_with(&get, vals![k], Wait::Retry(policy))
            .expect("Get")[0]
            .as_int()
            .expect("int result");
        println!("Get({k}) = {v}");
        assert_eq!(v, k * k, "exactly-once Put for key {k}");
    }

    let stats = register.stats();
    println!("--");
    println!(
        "remote calls: {} sent, {} replies, {} retries (the injected crash), {} link losses",
        stats.sent.get(),
        stats.replies.get(),
        stats.retries.get(),
        stats.link_losses.get()
    );
    assert!(
        stats.retries.get() >= 1,
        "the unlucky key must have forced a retry"
    );

    drop(child.stdin.take());
    let _ = child.kill();
    let _ = child.wait();
    println!("done: every key exactly once, crash included");
}
