//! Who the client wakes, on the deterministic simulation runtime over
//! [`MemLink`](alps_net::MemLink): a reply unparks the one caller it is
//! for, a link death unparks exactly the callers it fails, and a caller
//! that has given up is left alone.
//!
//! `RemoteStats::wakeups` counts returns from the park in which a caller
//! waits for its reply, so "nobody was woken for nothing" reads
//! `wakeups ≤ replies + link losses + timeouts`. Every test makes its
//! first call from one process before the callers start: callers that
//! wait out a dial do so in bounded parks, and the simulator lets a
//! park's expired timer end a later park of the same process.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use alps_core::{vals, AlpsError, EntryDef, ObjectBuilder, ObjectHandle, Ty, Value};
use alps_net::{Connector, Link, MemConnector, NetServer, RemoteHandle};
use alps_runtime::{Runtime, SimRuntime, Spawn};
use parking_lot::Mutex;

const CALLERS: i64 = 4;

/// `Work(k)` holds its caller for `service_ticks`, then returns how often
/// key `k` has been worked on. No manager: each served call runs in its
/// own process, so four calls are in service at once.
fn worker(rt: &Runtime, service_ticks: u64) -> ObjectHandle {
    let tallies: Arc<Mutex<std::collections::HashMap<i64, i64>>> = Arc::default();
    ObjectBuilder::new("Worker")
        .entry(
            EntryDef::new("Work")
                .params([Ty::Int])
                .results([Ty::Int])
                .body(move |ctx, args| {
                    let k = args[0].as_int()?;
                    ctx.sleep(service_ticks);
                    let mut m = tallies.lock();
                    let n = m.entry(k).or_insert(0);
                    *n += 1;
                    Ok(vec![Value::Int(*n)])
                }),
        )
        .spawn(rt)
        .unwrap()
}

/// Dials the server and keeps the links it hands out, so a test can cut
/// one. With `twice`, every frame after the handshake reaches the client
/// twice in a row.
struct TapConnector {
    inner: MemConnector,
    twice: bool,
    links: Arc<Mutex<Vec<Arc<dyn Link>>>>,
}

impl TapConnector {
    fn new(server: &NetServer, twice: bool) -> TapConnector {
        TapConnector {
            inner: server.mem_connector(),
            twice,
            links: Arc::default(),
        }
    }
}

impl Connector for TapConnector {
    fn connect(&self) -> io::Result<Arc<dyn Link>> {
        let mut link = self.inner.connect()?;
        if self.twice {
            link = Arc::new(Twice {
                inner: link,
                handshaken: AtomicBool::new(false),
                again: Mutex::new(None),
            });
        }
        self.links.lock().push(Arc::clone(&link));
        Ok(link)
    }

    fn endpoint(&self) -> String {
        self.inner.endpoint()
    }
}

struct Twice {
    inner: Arc<dyn Link>,
    handshaken: AtomicBool,
    again: Mutex<Option<Vec<u8>>>,
}

impl Link for Twice {
    fn send(&self, frame: &[u8]) -> io::Result<()> {
        self.inner.send(frame)
    }

    fn recv(&self) -> io::Result<Vec<u8>> {
        if let Some(frame) = self.again.lock().take() {
            return Ok(frame);
        }
        let frame = self.inner.recv()?;
        if self.handshaken.swap(true, Ordering::Relaxed) {
            *self.again.lock() = Some(frame.clone());
        }
        Ok(frame)
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

/// Four callers, 64 calls each, all four parked on the one handle while
/// the server works: every reply must wake its own caller only — and a
/// second copy of a reply, which finds the slot filled, nobody.
fn one_reply_wakes_one_caller(twice: bool) {
    SimRuntime::new()
        .run(move |rt| {
            let obj = worker(rt, 50);
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "Worker", TapConnector::new(&server, twice));
            client.call("Work", vals![-1i64]).unwrap();

            let joins: Vec<_> = (0..CALLERS)
                .map(|c| {
                    let h = client.clone();
                    rt.spawn_with(Spawn::new(format!("caller{c}")), move || {
                        let work = h.entry_id("Work");
                        for i in 0..64i64 {
                            let r = h.call_id(&work, vals![c * 64 + i]).unwrap();
                            assert_eq!(r[0], Value::Int(1));
                        }
                    })
                })
                .collect();
            for j in joins {
                j.join().unwrap();
            }

            let s = client.stats();
            assert_eq!(s.replies.get(), 257);
            assert_eq!(s.link_losses.get(), 0);
            assert!(
                s.wakeups.get() <= s.replies.get(),
                "{} wake-ups for {} replies",
                s.wakeups.get(),
                s.replies.get()
            );
            // The callers really were parked: the server takes 50 ticks.
            assert!(s.wakeups.get() >= 256, "{} wake-ups", s.wakeups.get());
        })
        .unwrap();
}

#[test]
fn a_reply_wakes_only_its_caller() {
    one_reply_wakes_one_caller(false);
}

#[test]
fn a_second_copy_of_a_reply_wakes_nobody() {
    one_reply_wakes_one_caller(true);
}

/// The link dies with four calls in service: each resolves with
/// `LinkLost`, woken once.
#[test]
fn a_link_death_resolves_every_call_in_flight() {
    SimRuntime::new()
        .run(|rt| {
            let obj = worker(rt, 10_000);
            let server = NetServer::new(rt);
            server.register(&obj);
            let tap = TapConnector::new(&server, false);
            let links = Arc::clone(&tap.links);
            let client = RemoteHandle::new(rt, "Worker", tap);
            let quick = client.call_deadline("Work", vals![-1i64], 1).unwrap_err();
            assert!(
                matches!(quick, AlpsError::Timeout { ticks: 1, .. }),
                "{quick:?}"
            );
            let s = client.stats();
            let (sent, wakeups) = (s.sent.get(), s.wakeups.get());

            let joins: Vec<_> = (0..CALLERS)
                .map(|c| {
                    let h = client.clone();
                    rt.spawn_with(Spawn::new(format!("caller{c}")), move || {
                        h.call("Work", vals![c]).unwrap_err()
                    })
                })
                .collect();
            rt.sleep(100);
            assert_eq!(s.sent.get(), sent + 4);
            links.lock()[0].shutdown();
            for j in joins {
                let err = j.join().unwrap();
                assert!(matches!(err, AlpsError::LinkLost { .. }), "{err:?}");
            }

            assert_eq!(s.link_losses.get(), 4);
            assert_eq!(s.wakeups.get() - wakeups, 4);
        })
        .unwrap();
}

/// A reply that arrives after its caller timed out is dropped without a
/// wake: the caller's next park runs its full length.
#[test]
fn a_late_reply_does_not_wake_a_caller_that_gave_up() {
    SimRuntime::new()
        .run(|rt| {
            let obj = worker(rt, 1_000);
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "Worker", server.mem_connector());

            let err = client.call_deadline("Work", vals![1i64], 100).unwrap_err();
            assert!(
                matches!(err, AlpsError::Timeout { ticks: 100, .. }),
                "{err:?}"
            );
            let t0 = rt.now();
            rt.park_timeout(5_000);
            assert_eq!(rt.now() - t0, 5_000, "woken by the late reply");

            // The reply did come: the call ran to its end on the server.
            assert_eq!(server.stats().executed.get(), 1);
            let n = client.call("Work", vals![1i64]).unwrap();
            assert_eq!(n[0], Value::Int(2));
            let s = client.stats();
            assert_eq!((s.replies.get(), s.wakeups.get()), (1, 2));
        })
        .unwrap();
}
