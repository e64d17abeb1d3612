//! What owning a link guarantees, on the deterministic simulation runtime
//! over [`MemLink`](alps_net::MemLink): a link carries one call at a
//! time, so a cut link fails exactly the call on it, a reply can reach
//! nobody but the caller reading that link, a link whose call timed out
//! is closed instead of reused, and a warm call creates no process on
//! either end. Then the server's side of it: the same call id arriving on
//! two links of one session runs once.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use alps_core::{
    vals, AlpsError, EntryDef, ObjectBuilder, ObjectHandle, RestartPolicy, Ty, ValVec, Value, Wait,
};
use alps_net::{
    decode_frame, encode_frame, wire_to_err, Connector, Frame, Link, MemConnector, NetServer,
    RemoteHandle, NO_BUDGET, PROTO_VERSION,
};
use alps_runtime::explore::sweep_explore;
use alps_runtime::{Chan, Runtime, SimRuntime, Spawn};
use parking_lot::Mutex;

const CALLERS: i64 = 4;

/// `Work(k)` holds its caller for `service_ticks`, then returns how often
/// key `k` has been worked on. No manager: the body runs on the process
/// that serves the caller's link, so four links are four calls in service.
fn worker(rt: &Runtime, service_ticks: u64) -> ObjectHandle {
    let tallies: Arc<Mutex<HashMap<i64, i64>>> = Arc::default();
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

/// Four calls in service on four links; one link is cut. Exactly the
/// call on it fails, with `LinkLost`; the other three never notice, and
/// their links go on to serve the next calls.
#[test]
fn a_cut_link_fails_exactly_the_call_on_it() {
    SimRuntime::new()
        .run(|rt| {
            let obj = worker(rt, 1_000);
            let server = NetServer::new(rt);
            server.register(&obj);
            let tap = TapConnector::new(&server, false);
            let links = Arc::clone(&tap.links);
            let client = RemoteHandle::new(rt, "Worker", tap);
            let s = client.stats();

            let joins: Vec<_> = (0..CALLERS)
                .map(|c| {
                    let h = client.clone();
                    rt.spawn_with(Spawn::new(format!("caller{c}")), move || {
                        h.call("Work", vals![c])
                    })
                })
                .collect();
            rt.sleep(100);
            assert_eq!((s.sent.get(), links.lock().len()), (4, 4));
            links.lock()[2].shutdown();

            let mut lost = 0;
            for j in joins {
                match j.join().unwrap() {
                    Ok(r) => assert_eq!(r, vals![1i64]),
                    Err(AlpsError::LinkLost { .. }) => lost += 1,
                    Err(e) => panic!("{e:?}"),
                }
            }
            assert_eq!((lost, s.link_losses.get(), s.replies.get()), (1, 1, 3));

            for k in 10..13i64 {
                client.call("Work", vals![k]).unwrap();
            }
            assert_eq!(s.reconnects.get(), 4, "an idle link was there to reuse");
        })
        .unwrap();
}

/// Every reply frame arrives twice. The second copy waits in the link
/// until the link's next call, which skips it: each call gets its own
/// reply (the tally counts up), and the link is reused throughout.
#[test]
fn a_second_copy_of_a_reply_is_skipped_by_the_next_call() {
    SimRuntime::new()
        .run(|rt| {
            let obj = worker(rt, 50);
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "Worker", TapConnector::new(&server, true));
            for n in 1..=5i64 {
                assert_eq!(client.call("Work", vals![7i64]).unwrap(), vals![n]);
            }
            let s = client.stats();
            assert_eq!(
                (s.sent.get(), s.replies.get(), s.reconnects.get()),
                (5, 5, 1)
            );
        })
        .unwrap();
}

/// A call that timed out closes its link. The reply the server sends
/// later therefore reaches no one — the caller's next park runs its full
/// length — and the next call dials a fresh link instead of queueing
/// behind the call still in service on the old one.
#[test]
fn a_timed_out_call_closes_its_link_and_the_late_reply_wakes_no_one() {
    SimRuntime::new()
        .run(|rt| {
            let obj = worker(rt, 1_000);
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "Worker", server.mem_connector());

            let work = client.entry_id("Work");
            let err = client
                .call_with(&work, vals![1i64], Wait::Deadline(100))
                .unwrap_err();
            assert!(
                matches!(err, AlpsError::Timeout { ticks: 100, .. }),
                "{err:?}"
            );
            let t0 = rt.now();
            rt.park_timeout(5_000);
            assert_eq!(rt.now() - t0, 5_000, "woken by the late reply");

            // The first call ran to its end on the server all the same.
            assert_eq!(server.stats().executed.get(), 1);
            let t0 = rt.now();
            assert_eq!(client.call("Work", vals![1i64]).unwrap(), vals![2i64]);
            assert_eq!(rt.now() - t0, 1_000);
            let s = client.stats();
            assert_eq!((s.replies.get(), s.reconnects.get()), (1, 2));
            assert_eq!(server.stats().executed.get(), 2);
        })
        .unwrap();
}

/// Once each caller has a link, a call creates no process on either end:
/// no reader, no process per call. `ProcId`s count up by one per spawn,
/// so two probes spawned around 256 calls differ by exactly one.
#[test]
fn a_warm_call_creates_no_process() {
    SimRuntime::new()
        .run(|rt| {
            let obj = worker(rt, 10);
            let server = NetServer::new(rt);
            server.register(&obj);
            let client = RemoteHandle::new(rt, "Worker", server.mem_connector());
            let warm: Chan<()> = Chan::unbounded("warm");
            let go: Chan<()> = Chan::unbounded("go");

            let joins: Vec<_> = (0..CALLERS)
                .map(|c| {
                    let (h, rt2, warm, go) = (client.clone(), rt.clone(), warm.clone(), go.clone());
                    rt.spawn_with(Spawn::new(format!("caller{c}")), move || {
                        h.call("Work", vals![-1 - c]).unwrap();
                        warm.send(&rt2, ()).unwrap();
                        go.recv(&rt2).unwrap();
                        let work = h.entry_id("Work");
                        for i in 0..64i64 {
                            let r = h.call_id(&work, vals![c * 64 + i]).unwrap();
                            assert_eq!(r[0], Value::Int(1));
                        }
                    })
                })
                .collect();
            for _ in 0..CALLERS {
                warm.recv(rt).unwrap();
            }
            let before = rt.spawn_with(Spawn::new("probe"), || ()).id().as_u64();
            for _ in 0..CALLERS {
                go.send(rt, ()).unwrap();
            }
            for j in joins {
                j.join().unwrap();
            }
            let after = rt.spawn_with(Spawn::new("probe"), || ()).id().as_u64();

            assert_eq!(after - before, 1, "processes created by 256 warm calls");
            let s = client.stats();
            assert_eq!((s.replies.get(), s.reconnects.get()), (260, 4));
            assert_eq!(server.stats().executed.get(), 260);
        })
        .unwrap();
}

/// A server stand-in inside the link: answers every `Call` with its own
/// id, and counts the calls the real server would have dropped as below
/// the session's watermark — the largest `ack_below` any link has sent.
struct WatermarkAudit {
    acked: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
    answer: Mutex<Option<Frame>>,
}

impl Link for WatermarkAudit {
    fn send(&self, frame: &[u8]) -> io::Result<()> {
        let answer = match decode_frame(frame).unwrap().0 {
            Frame::Hello { .. } => Frame::HelloAck {
                entries: vec![("Work".into(), 0)],
            },
            Frame::Call {
                call, ack_below, ..
            } => {
                let acked = self.acked.fetch_max(ack_below, Ordering::SeqCst);
                if call < acked.max(ack_below) {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
                Frame::Reply {
                    call,
                    result: Ok(ValVec::from(vals![call as i64])),
                }
            }
            other => panic!("client sent {other:?}"),
        };
        *self.answer.lock() = Some(answer);
        Ok(())
    }

    fn recv(&self) -> io::Result<Vec<u8>> {
        let answer = self.answer.lock().take().expect("a receive per send");
        Ok(encode_frame(&answer).unwrap())
    }

    fn shutdown(&self) {}

    fn peer(&self) -> String {
        "audit".into()
    }
}

struct AuditConnector {
    acked: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

impl Connector for AuditConnector {
    fn connect(&self) -> io::Result<Arc<dyn Link>> {
        Ok(Arc::new(WatermarkAudit {
            acked: Arc::clone(&self.acked),
            dropped: Arc::clone(&self.dropped),
            answer: Mutex::new(None),
        }))
    }

    fn endpoint(&self) -> String {
        "audit".into()
    }
}

/// The server drops a call whose id is below the watermark unanswered,
/// so no frame of *any* caller may carry an `ack_below` above the id of
/// a call still unresolved — including one whose caller has taken its id
/// and not yet sent it. Four OS threads (the race needs preemption the
/// simulator does not do) share one handle over links that check every
/// frame against the frames sent before it.
#[test]
fn no_frame_acks_past_a_call_that_is_still_unresolved() {
    let rt = Runtime::threaded();
    let dropped = Arc::new(AtomicU64::new(0));
    let connector = AuditConnector {
        acked: Arc::default(),
        dropped: Arc::clone(&dropped),
    };
    let client = RemoteHandle::new(&rt, "Worker", connector);
    let callers: Vec<_> = (0..CALLERS)
        .map(|_| {
            let h = client.clone();
            rt.spawn(move || {
                let work = h.entry_id("Work");
                for _ in 0..100_000 {
                    h.call_id(&work, vals![0i64]).unwrap();
                }
            })
        })
        .collect();
    for caller in callers {
        caller.join().unwrap();
    }
    assert_eq!(client.stats().replies.get(), 400_000);
    assert_eq!(dropped.load(Ordering::Relaxed), 0);
    rt.shutdown();
}

// ---- the server's side, driven frame by frame ----------------------------

/// Dial `Worker` by hand under `session`; returns the link and the wire
/// index of `Work`.
fn dial(connector: &MemConnector, session: u64) -> (Arc<dyn Link>, u32) {
    let link = connector.connect().unwrap();
    let hello = Frame::Hello {
        version: PROTO_VERSION,
        session,
        object: "Worker".into(),
    };
    link.send(&encode_frame(&hello).unwrap()).unwrap();
    match decode_frame(&link.recv().unwrap()).unwrap().0 {
        Frame::HelloAck { entries } => {
            let work = entries.iter().find(|(name, _)| name == "Work").unwrap().1;
            (link, work)
        }
        other => panic!("handshake answered {other:?}"),
    }
}

fn send_work(link: &Arc<dyn Link>, work: u32, call: u64, budget: u64, key: i64) {
    let frame = Frame::Call {
        call,
        ack_below: 1,
        entry: work,
        budget,
        args: ValVec::from(vals![key]),
    };
    link.send(&encode_frame(&frame).unwrap()).unwrap();
}

fn recv_reply(link: &Arc<dyn Link>) -> (u64, Result<ValVec, AlpsError>) {
    match decode_frame(&link.recv().unwrap()).unwrap().0 {
        Frame::Reply { call, result } => (call, result.map_err(|w| wire_to_err(&w))),
        other => panic!("expected a reply, got {other:?}"),
    }
}

/// The shape a retry takes when the client timed out and closed link A
/// while A's process still runs the call: the same id arrives on link B.
/// Whichever link's process marks the id first runs it; the other waits
/// for the verdict and replays it. Every id runs once and both links get
/// its one result, under every scheduling strategy.
fn same_id_on_two_links(sim: SimRuntime) {
    sim.run(|rt| {
        let obj = worker(rt, 50);
        let server = NetServer::new(rt);
        server.register(&obj);
        let connector = server.mem_connector();
        let (a, work) = dial(&connector, 77);
        let (b, _) = dial(&connector, 77);

        for id in 1..=6u64 {
            let (first, second) = if id % 2 == 0 { (&a, &b) } else { (&b, &a) };
            send_work(first, work, id, NO_BUDGET, id as i64);
            send_work(second, work, id, 10_000, id as i64);
            for link in [&a, &b] {
                let (call, result) = recv_reply(link);
                assert_eq!((call, result.unwrap()), (id, ValVec::from(vals![1i64])));
            }
        }
        let s = server.stats();
        assert_eq!(
            (s.executed.get(), s.replayed.get(), s.suppressed.get()),
            (6, 6, 0)
        );
    })
    .unwrap();
}

#[test]
fn an_in_flight_duplicate_on_another_link_waits_for_the_verdict() {
    sweep_explore("same_id_on_two_links", same_id_on_two_links);
}

/// The original resolves retryably — its first run crashes the manager,
/// and the restart sweep answers `ObjectRestarting` — so it leaves no
/// verdict to replay: the waiting duplicate runs the call itself.
#[test]
fn a_waiting_duplicate_runs_the_call_when_the_original_left_no_verdict() {
    SimRuntime::new()
        .run(|rt| {
            let runs = Arc::new(Mutex::new(0));
            let r = Arc::clone(&runs);
            let obj = ObjectBuilder::new("Worker")
                .entry(
                    EntryDef::new("Work")
                        .params([Ty::Int])
                        .results([Ty::Int])
                        .intercepted()
                        .body(move |ctx, _args| {
                            ctx.sleep(500);
                            let mut runs = r.lock();
                            *runs += 1;
                            if *runs == 1 {
                                drop(runs);
                                panic!("first-run crash");
                            }
                            Ok(vec![Value::Int(*runs)])
                        }),
                )
                .manager(|mgr| loop {
                    let acc = mgr.accept("Work")?;
                    mgr.execute(acc)?;
                })
                .supervise(RestartPolicy::RestartTransient {
                    max_restarts: 8,
                    window_ticks: 1_000_000,
                })
                .spawn(rt)
                .unwrap();
            let server = NetServer::new(rt);
            server.register(&obj);
            let connector = server.mem_connector();
            let (a, work) = dial(&connector, 78);
            let (b, _) = dial(&connector, 78);

            send_work(&a, work, 1, NO_BUDGET, 0);
            rt.sleep(100);
            send_work(&b, work, 1, 10_000, 0);
            let (_, original) = recv_reply(&a);
            assert!(
                matches!(original, Err(AlpsError::ObjectRestarting { .. })),
                "{original:?}"
            );
            let (call, retried) = recv_reply(&b);
            assert_eq!((call, retried.unwrap()), (1, ValVec::from(vals![2i64])));
            let s = server.stats();
            assert_eq!((s.executed.get(), s.replayed.get()), (2, 0));
        })
        .unwrap();
}

/// A duplicate waits no longer than the budget its own frame carries:
/// its sender has stopped listening by then. It is dropped unanswered,
/// and the original's verdict is cached for a retry with budget left.
#[test]
fn a_waiting_duplicate_gives_up_at_its_own_budget() {
    SimRuntime::new()
        .run(|rt| {
            let obj = worker(rt, 1_000);
            let server = NetServer::new(rt);
            server.register(&obj);
            let connector = server.mem_connector();
            let (a, work) = dial(&connector, 79);
            let (b, _) = dial(&connector, 79);

            send_work(&a, work, 1, NO_BUDGET, 0);
            rt.sleep(100);
            send_work(&b, work, 1, 300, 0);
            rt.sleep(400);
            assert_eq!(server.stats().suppressed.get(), 1);
            send_work(&b, work, 1, 5_000, 0);
            for link in [&a, &b] {
                let (call, result) = recv_reply(link);
                assert_eq!((call, result.unwrap()), (1, ValVec::from(vals![1i64])));
            }
            assert_eq!(rt.now(), 1_000);
            let s = server.stats();
            assert_eq!((s.executed.get(), s.replayed.get()), (1, 1));
        })
        .unwrap();
}
