//! The server side of distributed ALPS objects: expose a runtime's
//! [`ObjectHandle`]s over any [`Link`] transport.
//!
//! # The connection process is the call process
//!
//! A link carries one call at a time (see [`client`](crate::client)), so
//! the process that serves a connection runs each call it reads inline —
//! prune, dedup, `call_id`, cache, reply — and answers on the link the
//! call came in on. There is no process per call and no shared reply
//! path; N calls in service are N connections, each blocked in its own
//! `call_id` exactly as N local callers would be.
//!
//! # At-most-once execution
//!
//! The server's partial-failure contract is a per-session
//! duplicate-suppression cache, shared by all links of the session.
//! Every call arrives with a session-scoped correlation id; the server
//! tracks each id through `InFlight → Done(reply)` and
//!
//! * replays the cached reply when a **resolved** id is redelivered
//!   (the client retried because the reply was lost, not the call);
//! * makes a redelivery of an **in-flight** id — a retry on a second
//!   link while the first link's process still runs the original — wait
//!   for the verdict, for at most the budget its own frame carries, then
//!   replays it, or runs the call itself if the original resolved
//!   retryably and so left no verdict;
//! * ignores an id below the session's **watermark** (the largest
//!   `ack_below` any link has carried): the client has vouched that the
//!   call is resolved on its side, so this is a stray duplicate, and its
//!   cached reply may already be pruned. Without this rule a duplicate
//!   read on link A after link B advanced the watermark would find no
//!   entry and run the body again.
//!
//! An entry body therefore runs at most once per call id no matter how
//! often the transport redelivers the call — the property the 256-seed
//! transport-fault sweep pins.
//!
//! The cache is pruned whenever the watermark moves, so a long-lived
//! session does not grow it without bound. Only `Done` entries are
//! pruned; an `InFlight` marker must survive until its dispatch
//! resolves, or a duplicate could re-execute the body.
//!
//! # Error propagation
//!
//! A dispatch that fails maps its [`AlpsError`] onto the wire taxonomy
//! ([`err_to_wire`]) — `Overloaded`, `ObjectRestarting`,
//! `ObjectPoisoned` and the rest arrive at the remote caller as the same
//! variant they would see in-process.
//! *Retryable* failures are **not** cached: `Overloaded` and
//! `ObjectRestarting` mean the body never ran, so the client's retry of
//! the same call id must re-execute, not replay the refusal.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use alps_core::{AlpsError, EntryId, ObjectHandle, ValVec};
use alps_runtime::metrics::Counter;
use alps_runtime::{Chan, Notifier, Runtime, Spawn};
use parking_lot::Mutex;

use crate::link::{Link, MemLink, TcpLink};
use crate::wire::{
    decode_frame, encode_frame, err_to_wire, Frame, WireErr, NO_BUDGET, PROTO_VERSION,
};

/// Where a tracked call id stands.
enum CallState {
    /// Some connection's process is running the entry body. A duplicate
    /// of this id on another link waits for it on [`Session::resolved`].
    InFlight,
    /// Resolved; redelivery replays this cached reply.
    Done(Result<ValVec, WireErr>),
}

/// A session's dedup cache.
#[derive(Default)]
struct Calls {
    states: HashMap<u64, CallState>,
    /// The largest `ack_below` seen: every id below it is resolved on the
    /// client.
    acked: u64,
}

/// One client session: the dedup cache plus the entry table, shared by
/// every link the client dials (the session key is client-chosen, the
/// links are not).
struct Session {
    object: ObjectHandle,
    /// Wire entry index → interned [`EntryId`], built once at first
    /// handshake (the wire analogue of resolving ids after spawn).
    entry_ids: Vec<EntryId>,
    entry_names: Vec<String>,
    calls: Mutex<Calls>,
    /// Bumped each time an `InFlight` marker resolves.
    resolved: Notifier,
}

/// Advisory counters for the server ([`NetServer::stats`]).
#[derive(Debug, Default, Clone)]
pub struct ServerStats {
    /// Connections accepted (handshakes completed).
    pub connections: Counter,
    /// Calls dispatched to an entry body.
    pub executed: Counter,
    /// Cached replies replayed for redelivered call ids.
    pub replayed: Counter,
    /// Duplicate deliveries dropped unanswered: ids below the session's
    /// watermark, and in-flight ids whose verdict did not come in time.
    pub suppressed: Counter,
    /// Connections killed by undecodable frames.
    pub frame_errors: Counter,
}

struct ServerInner {
    rt: Runtime,
    objects: Mutex<HashMap<String, ObjectHandle>>,
    sessions: Mutex<HashMap<(String, u64), Arc<Session>>>,
    stats: ServerStats,
    shutdown: AtomicBool,
    conn_seq: AtomicU64,
    /// What [`NetServer::shutdown`] must wake.
    listeners: Mutex<Vec<Listener>>,
}

/// An accept loop, by the handle that can reach it from outside.
enum Listener {
    Tcp(std::net::SocketAddr),
    #[cfg(unix)]
    Unix(std::path::PathBuf),
    Mem(Chan<Arc<MemLink>>),
}

/// Serves a set of objects over [`Link`]s. Clone to share.
///
/// ```
/// use alps_core::{EntryDef, ObjectBuilder, Ty, Value};
/// use alps_net::{NetServer, RemoteHandle};
/// use alps_runtime::Runtime;
///
/// let rt = Runtime::threaded();
/// let obj = ObjectBuilder::new("Echo")
///     .entry(
///         EntryDef::new("Id")
///             .params([Ty::Int])
///             .results([Ty::Int])
///             .body(|_ctx, args| Ok(args)),
///     )
///     .spawn(&rt)
///     .unwrap();
/// let server = NetServer::new(&rt);
/// server.register(&obj);
/// let client = RemoteHandle::new(&rt, "Echo", server.mem_connector());
/// let r = client.call("Id", vec![Value::Int(7)]).unwrap();
/// assert_eq!(r, vec![Value::Int(7)]);
/// # server.shutdown();
/// # obj.shutdown();
/// ```
#[derive(Clone)]
pub struct NetServer {
    inner: Arc<ServerInner>,
}

impl NetServer {
    /// New server with no objects registered.
    pub fn new(rt: &Runtime) -> NetServer {
        NetServer {
            inner: Arc::new(ServerInner {
                rt: rt.clone(),
                objects: Mutex::new(HashMap::new()),
                sessions: Mutex::new(HashMap::new()),
                stats: ServerStats::default(),
                shutdown: AtomicBool::new(false),
                conn_seq: AtomicU64::new(0),
                listeners: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Expose an object to remote callers under its own name.
    pub fn register(&self, object: &ObjectHandle) {
        self.inner
            .objects
            .lock()
            .insert(object.name().to_string(), object.clone());
    }

    /// Server counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats.clone()
    }

    /// Stop accepting connections. Existing connections die on their
    /// next frame; listeners wake and exit.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        // An accept loop blocked in `accept()` reads the flag only when a
        // connection arrives: give it one.
        for listener in std::mem::take(&mut *self.inner.listeners.lock()) {
            match listener {
                Listener::Tcp(mut addr) => {
                    if addr.ip().is_unspecified() {
                        addr.set_ip(match addr {
                            std::net::SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                            std::net::SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                        });
                    }
                    let _ = std::net::TcpStream::connect(addr);
                }
                #[cfg(unix)]
                Listener::Unix(path) => {
                    let _ = std::os::unix::net::UnixStream::connect(path);
                }
                Listener::Mem(accept) => accept.close(&self.inner.rt),
            }
        }
    }

    /// Serve one established link on a daemon process. Returns
    /// immediately; the connection loop runs until the link dies.
    pub fn serve_link(&self, link: Arc<dyn Link>) {
        let inner = Arc::clone(&self.inner);
        let n = inner.conn_seq.fetch_add(1, Ordering::Relaxed);
        self.inner.rt.spawn_with(
            Spawn::new(format!("net.conn.{n}")).daemon(true),
            move || inner.serve_conn(link),
        );
    }

    /// Accept loop over loopback/real TCP. Binds `addr` (use port 0 for
    /// ephemeral), returns the bound address, and serves each accepted
    /// stream on its own daemon process.
    ///
    /// # Errors
    ///
    /// Bind failure.
    pub fn listen_tcp(&self, addr: &str) -> io::Result<std::net::SocketAddr> {
        let listener = std::net::TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        self.inner.listeners.lock().push(Listener::Tcp(local));
        let this = self.clone();
        self.inner
            .rt
            .spawn_with(Spawn::new("net.accept.tcp").daemon(true), move || {
                for stream in listener.incoming() {
                    if this.inner.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    match TcpLink::new(stream) {
                        Ok(link) => this.serve_link(Arc::new(link)),
                        Err(_) => continue,
                    }
                }
            });
        Ok(local)
    }

    /// Accept loop over a Unix-domain socket at `path`.
    ///
    /// # Errors
    ///
    /// Bind failure (e.g. the path exists).
    #[cfg(unix)]
    pub fn listen_unix(&self, path: &std::path::Path) -> io::Result<()> {
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        self.inner
            .listeners
            .lock()
            .push(Listener::Unix(path.to_path_buf()));
        let this = self.clone();
        self.inner
            .rt
            .spawn_with(Spawn::new("net.accept.unix").daemon(true), move || {
                for stream in listener.incoming() {
                    if this.inner.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    match crate::link::UnixLink::new(stream) {
                        Ok(link) => this.serve_link(Arc::new(link)),
                        Err(_) => continue,
                    }
                }
            });
        Ok(())
    }

    /// An in-memory connector to this server: each
    /// [`connect`](crate::client::Connector::connect) creates a
    /// [`MemLink`] pair and hands the server end to a daemon accept
    /// loop. Because the whole transport is runtime [`Chan`]s, a client
    /// and server sharing a [`SimRuntime`](alps_runtime::SimRuntime)
    /// exercise the full wire protocol deterministically.
    pub fn mem_connector(&self) -> crate::client::MemConnector {
        let accept: Chan<Arc<MemLink>> = Chan::unbounded("net.accept.mem");
        self.inner
            .listeners
            .lock()
            .push(Listener::Mem(accept.clone()));
        let this = self.clone();
        let rx = accept.clone();
        self.inner
            .rt
            .spawn_with(Spawn::new("net.accept.mem").daemon(true), move || {
                while let Ok(server_end) = rx.recv(&this.inner.rt) {
                    if this.inner.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    this.serve_link(server_end);
                }
            });
        crate::client::MemConnector::new(&self.inner.rt, accept)
    }
}

impl ServerInner {
    /// Handshake + frame loop for one connection. Any protocol breach —
    /// an undecodable frame, a non-`Hello` opener, a `Call` before
    /// handshake — kills the connection; the client dials another and
    /// its dedup-protected retries resume there.
    fn serve_conn(&self, link: Arc<dyn Link>) {
        let Some(session) = self.handshake(&link) else {
            link.shutdown();
            return;
        };
        self.stats.connections.incr();

        while let Ok(bytes) = link.recv() {
            if self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            match decode_frame(&bytes) {
                Ok((
                    Frame::Call {
                        call,
                        ack_below,
                        entry,
                        budget,
                        args,
                    },
                    _,
                )) => {
                    let answer = self.on_call(&session, call, ack_below, entry, budget, args);
                    if let Some(result) = answer {
                        self.reply(&link, call, result);
                    }
                }
                Ok(_) => break, // protocol breach: only calls after handshake
                Err(_) => {
                    // Corruption reached us (or framing desynced): the
                    // stream can no longer be trusted to carry call ids
                    // faithfully. Kill the connection — never guess.
                    self.stats.frame_errors.incr();
                    break;
                }
            }
        }
        link.shutdown();
    }

    /// Run the `Hello`/`HelloAck` exchange. Returns the (possibly
    /// pre-existing) session, or `None` when the connection must die.
    fn handshake(&self, link: &Arc<dyn Link>) -> Option<Arc<Session>> {
        let bytes = link.recv().ok()?;
        let (frame, _) = match decode_frame(&bytes) {
            Ok(f) => f,
            Err(_) => {
                self.stats.frame_errors.incr();
                return None;
            }
        };
        let Frame::Hello {
            version,
            session,
            object,
        } = frame
        else {
            return None;
        };
        if version != PROTO_VERSION {
            let _ = self.refuse(
                link,
                WireErr {
                    code: 0,
                    a: format!("protocol version {version} unsupported"),
                    b: String::new(),
                    aux: 0,
                },
            );
            return None;
        }
        let Some(handle) = self.objects.lock().get(&object).cloned() else {
            let _ = self.refuse(
                link,
                WireErr {
                    code: 0,
                    a: format!("no object named `{object}` is registered"),
                    b: String::new(),
                    aux: 0,
                },
            );
            return None;
        };
        let sess = {
            let mut sessions = self.sessions.lock();
            Arc::clone(
                sessions
                    .entry((object, session))
                    .or_insert_with(|| Arc::new(Session::new(handle))),
            )
        };
        let entries = sess
            .entry_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        let ack = encode_frame(&Frame::HelloAck { entries }).ok()?;
        link.send(&ack).ok()?;
        Some(sess)
    }

    fn refuse(&self, link: &Arc<dyn Link>, err: WireErr) -> io::Result<()> {
        let frame = encode_frame(&Frame::HelloErr { err })
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        link.send(&frame)
    }

    /// Handle one `Call` frame on the connection's own process: prune,
    /// dedup, run the entry body, cache. Returns what to answer on the
    /// link the call came in on, `None` for a duplicate that gets no
    /// answer.
    fn on_call(
        &self,
        session: &Session,
        call: u64,
        ack_below: u64,
        entry: u32,
        budget: u64,
        args: ValVec,
    ) -> Option<Result<ValVec, WireErr>> {
        // The budget crossed the wire as *remaining ticks*; re-anchor it
        // on this process's clock (no shared clock exists).
        let deadline = (budget != NO_BUDGET).then(|| self.rt.now().saturating_add(budget.max(1)));
        loop {
            let seen = session.resolved.epoch();
            {
                let mut calls = session.calls.lock();
                if ack_below > calls.acked {
                    // The client vouches that every id below the
                    // watermark is resolved on its side; their cached
                    // replies can never be asked for again. InFlight
                    // markers stay — pruning one would let a late
                    // duplicate re-execute the body.
                    calls.acked = ack_below;
                    calls
                        .states
                        .retain(|&id, st| id >= ack_below || matches!(st, CallState::InFlight));
                }
                if call < calls.acked {
                    self.stats.suppressed.incr();
                    return None;
                }
                match calls.states.get(&call) {
                    Some(CallState::Done(cached)) => {
                        self.stats.replayed.incr();
                        return Some(cached.clone());
                    }
                    // Another link's process is running this id: a second
                    // execution is exactly what dedup exists to prevent.
                    Some(CallState::InFlight) => {}
                    None => {
                        calls.states.insert(call, CallState::InFlight);
                        break;
                    }
                }
            }
            let resolved = match deadline {
                None => {
                    session.resolved.wait_past(&self.rt, seen);
                    true
                }
                Some(at) => session.resolved.wait_past_deadline(&self.rt, seen, at),
            };
            if !resolved {
                // The sender's own budget is spent: it has stopped
                // listening, and the original will cache its verdict.
                self.stats.suppressed.incr();
                return None;
            }
        }
        self.stats.executed.incr();
        let budget = match deadline {
            None => NO_BUDGET,
            Some(at) => at.saturating_sub(self.rt.now()).max(1),
        };
        let result = self.dispatch(session, entry, budget, args);
        let retryable = matches!(&result, Err(e) if wire_is_retryable(e));
        {
            let mut calls = session.calls.lock();
            if retryable || call < calls.acked {
                // Retryable: the body never ran (shed / restart sweep) or
                // timed out without an answer, so the client's retry of
                // this id must re-execute rather than replay a refusal.
                // Below the watermark: nobody can ask for it again.
                calls.states.remove(&call);
            } else {
                calls.states.insert(call, CallState::Done(result.clone()));
            }
        }
        session.resolved.notify(&self.rt);
        // Cached before it is sent: if the reply frame dies with the
        // link, the client's retry finds the verdict.
        Some(result)
    }

    /// Run the entry body, mapping every failure onto the wire taxonomy.
    fn dispatch(
        &self,
        session: &Session,
        entry: u32,
        budget: u64,
        args: ValVec,
    ) -> Result<ValVec, WireErr> {
        let Some(&eid) = session.entry_ids.get(entry as usize) else {
            return Err(err_to_wire(&AlpsError::UnknownEntry {
                object: session.object.name().to_string(),
                entry: format!("#{entry}"),
            }));
        };
        let r = if budget == NO_BUDGET {
            session.object.call_id(eid, args)
        } else {
            session.object.call_id_deadline(eid, args, budget)
        };
        r.map_err(|e| err_to_wire(&e))
    }

    /// A send failure is deliberately ignored: the reply is already cached, and the
    /// client's dedup-protected retry will replay it over another link.
    fn reply(&self, link: &Arc<dyn Link>, call: u64, result: Result<ValVec, WireErr>) {
        if let Ok(frame) = encode_frame(&Frame::Reply { call, result }) {
            let _ = link.send(&frame);
        }
    }
}

impl Session {
    fn new(object: ObjectHandle) -> Session {
        let entry_names = object.entry_names();
        let entry_ids = entry_names
            .iter()
            .map(|n| {
                object
                    .entry_id(n)
                    .expect("entry_names() only yields resolvable entries")
            })
            .collect();
        Session {
            object,
            entry_ids,
            entry_names,
            calls: Mutex::new(Calls::default()),
            resolved: Notifier::new(),
        }
    }
}

/// Whether a wire error maps back to a retryable [`AlpsError`] — the
/// server-side mirror of [`AlpsError::is_retryable`], used to decide
/// cache-vs-forget (kept as one conversion so the taxonomies cannot
/// drift).
fn wire_is_retryable(w: &WireErr) -> bool {
    crate::wire::wire_to_err(w).is_retryable()
}
