//! The client side: [`RemoteHandle`], a proxy that speaks the
//! [`ObjectHandle`](alps_core::ObjectHandle) call surface
//! (`call` / `call_deadline` / `call_retry` and their interned-id forms)
//! to an object living in another process.
//!
//! # Partial failure model
//!
//! A remote call can fail in one way an in-process call cannot: the link
//! can die with the call in flight, leaving the caller unable to tell
//! whether the body ran. That outcome surfaces as
//! [`AlpsError::LinkLost`] — a member of the *transient* taxonomy
//! ([`AlpsError::is_retryable`]) because the server deduplicates call
//! ids per session: retrying the same logical call re-sends the same
//! wire id, and the server either replays the cached reply (the body
//! ran; the reply was lost) or executes it for the first time (the call
//! was lost). Either way the body runs **at most once**.
//!
//! # Connection supervision
//!
//! The handle supervises its connection the way the object layer
//! supervises managers: a dead link moves the connection to `Down`, the
//! next caller becomes the reconnector (seeded-jitter exponential
//! backoff, bounded attempts), and everyone else parks on a
//! [`Notifier`] until the connection resolves. In-flight calls at the
//! moment of death are swept with `LinkLost` — they never hang on a
//! connection that no longer exists, mirroring how a supervised
//! restart sweeps its in-flight calls with `ObjectRestarting`.
//!
//! # Who wakes whom
//!
//! A caller waiting for its reply parks on nothing but itself: its reply
//! slot records its [`ProcId`], and whoever fills the slot — the reader
//! with the reply, or the link-death sweep with `LinkLost` — unparks
//! that one process. Filling and giving up (the caller's timeout) are
//! decided under the slot's own lock, so a caller that has left is never
//! unparked: the rule the in-process call cell follows. The notifier is
//! a broadcast and is used only for the one condition that is one:
//! the connection leaving `Connecting`.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alps_core::{AlpsError, Backoff, Result, RetryPolicy, ValVec, Value};
use alps_runtime::metrics::Counter;
use alps_runtime::{Chan, Notifier, ProcId, Runtime, Spawn};
use parking_lot::Mutex;

use crate::fault::{NetFault, NetFaultPlan};
use crate::link::{FaultyLink, Link, MemLink, TcpLink};
use crate::wire::{decode_frame, encode_frame, wire_to_err, Frame, NO_BUDGET, PROTO_VERSION};

/// Dials one endpoint. The handle redials through this after every link
/// death, so a connector must be reusable.
pub trait Connector: Send + Sync {
    /// Establish a fresh link.
    ///
    /// # Errors
    ///
    /// Transport-level dial failure (the handle backs off and retries).
    fn connect(&self) -> io::Result<Arc<dyn Link>>;

    /// Human-readable endpoint for error messages.
    fn endpoint(&self) -> String;
}

/// Dials a TCP address.
pub struct TcpConnector {
    addr: String,
}

impl TcpConnector {
    /// Connector for `addr` (e.g. `"127.0.0.1:4100"`).
    pub fn new(addr: impl Into<String>) -> TcpConnector {
        TcpConnector { addr: addr.into() }
    }
}

impl Connector for TcpConnector {
    fn connect(&self) -> io::Result<Arc<dyn Link>> {
        let stream = std::net::TcpStream::connect(&self.addr)?;
        Ok(Arc::new(TcpLink::new(stream)?))
    }

    fn endpoint(&self) -> String {
        format!("tcp:{}", self.addr)
    }
}

/// Dials a Unix-domain socket path.
#[cfg(unix)]
pub struct UnixConnector {
    path: std::path::PathBuf,
}

#[cfg(unix)]
impl UnixConnector {
    /// Connector for the socket at `path`.
    pub fn new(path: impl Into<std::path::PathBuf>) -> UnixConnector {
        UnixConnector { path: path.into() }
    }
}

#[cfg(unix)]
impl Connector for UnixConnector {
    fn connect(&self) -> io::Result<Arc<dyn Link>> {
        let stream = std::os::unix::net::UnixStream::connect(&self.path)?;
        Ok(Arc::new(crate::link::UnixLink::new(stream)?))
    }

    fn endpoint(&self) -> String {
        format!("unix:{}", self.path.display())
    }
}

/// Dials an in-process [`NetServer`](crate::server::NetServer) through
/// [`MemLink`] pairs — the deterministic transport for simulation
/// sweeps. Obtained from
/// [`NetServer::mem_connector`](crate::server::NetServer::mem_connector).
#[derive(Clone)]
pub struct MemConnector {
    rt: Runtime,
    accept: Chan<Arc<MemLink>>,
    seq: Arc<AtomicU64>,
}

impl MemConnector {
    pub(crate) fn new(rt: &Runtime, accept: Chan<Arc<MemLink>>) -> MemConnector {
        MemConnector {
            rt: rt.clone(),
            accept,
            seq: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Connector for MemConnector {
    fn connect(&self) -> io::Result<Arc<dyn Link>> {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        let (client_end, server_end) = MemLink::pair(&self.rt, &format!("conn{n}"));
        self.accept
            .send(&self.rt, server_end)
            .map_err(|_| io::Error::new(io::ErrorKind::ConnectionRefused, "server gone"))?;
        Ok(client_end)
    }

    fn endpoint(&self) -> String {
        "mem:server".into()
    }
}

/// Reconnect supervision: how hard an attempt chases a dead link before
/// giving the caller [`AlpsError::LinkLost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Dial attempts per reconnect episode (`0` is treated as `1`).
    pub max_attempts: u32,
    /// First backoff delay in ticks (doubles per attempt, jittered to
    /// `[d/2, d]` from the runtime's deterministic random stream).
    pub base_ticks: u64,
    /// Upper bound on the un-jittered delay.
    pub cap_ticks: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> ReconnectPolicy {
        ReconnectPolicy {
            max_attempts: 4,
            base_ticks: 200,
            cap_ticks: 5_000,
        }
    }
}

/// An entry name interned for remote calling. Unlike an in-process
/// [`EntryId`](alps_core::EntryId), the numeric index is per-connection
/// (it comes from the handshake's entry table), so the interned form
/// keeps the name and resolves it against the live table at call time.
#[derive(Debug, Clone)]
pub struct RemoteEntryId {
    name: Arc<str>,
}

impl RemoteEntryId {
    /// The entry name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Advisory counters for a remote handle ([`RemoteHandle::stats`]).
#[derive(Debug, Default, Clone)]
pub struct RemoteStats {
    /// Wire call attempts sent.
    pub sent: Counter,
    /// Replies received and delivered to callers.
    pub replies: Counter,
    /// Link deaths observed (sweeps of in-flight calls).
    pub link_losses: Counter,
    /// Successful reconnect episodes.
    pub reconnects: Counter,
    /// Retries performed by `call_retry`-family methods.
    pub retries: Counter,
    /// Times a caller returned from the park in which it waits for its
    /// reply. Each reply, link loss and timeout accounts for at most one.
    pub wakeups: Counter,
}

/// Connection state machine. All transitions happen under the one
/// `conn` mutex, but the *work* (dialing, handshaking, backoff sleeps)
/// happens outside it — holding a lock across a blocking operation
/// would wedge the cooperative simulation executor.
enum Conn {
    /// No link; the next caller starts a reconnect episode.
    Down,
    /// Somebody is dialing; park on the notifier until it resolves.
    Connecting,
    /// Live link with its handshake-interned entry table.
    Up {
        epoch: u64,
        link: Arc<dyn Link>,
        entries: Arc<HashMap<String, u32>>,
    },
}

/// A call's time bound: the instant it expires on this process's clock
/// and the budget the caller gave, which is what its `Timeout` reports.
#[derive(Clone, Copy)]
struct Deadline {
    at: u64,
    ticks: u64,
}

impl Deadline {
    fn after(rt: &Runtime, ticks: u64) -> Deadline {
        Deadline {
            at: rt.now().saturating_add(ticks.max(1)),
            ticks,
        }
    }

    fn timeout(self, what: &str) -> AlpsError {
        AlpsError::Timeout {
            what: what.to_string(),
            ticks: self.ticks,
        }
    }
}

/// One wire attempt's reply slot.
struct PendingCall {
    /// The process to unpark when the slot is filled.
    caller: ProcId,
    reply: Mutex<Reply>,
}

enum Reply {
    Waiting,
    Ready(std::result::Result<ValVec, AlpsError>),
    /// The caller took its result or timed out; later writers do nothing.
    Left,
}

impl PendingCall {
    /// Fill the slot and wake its caller — first writer wins, so a
    /// duplicated reply frame (or a replay racing the original) cannot
    /// clobber a result the caller is about to read. The unpark happens
    /// under the slot lock: a caller that then finds the slot `Waiting`
    /// at its deadline can leave knowing no wake is on its way.
    fn fill(&self, rt: &Runtime, result: std::result::Result<ValVec, AlpsError>) -> bool {
        let mut reply = self.reply.lock();
        if !matches!(*reply, Reply::Waiting) {
            return false;
        }
        *reply = Reply::Ready(result);
        rt.unpark(self.caller);
        true
    }
}

struct RemoteInner {
    rt: Runtime,
    object: String,
    /// Client-chosen session id: the server keys its dedup cache on it,
    /// which is what makes retry-after-reconnect at-most-once.
    session: u64,
    connector: Box<dyn Connector>,
    fault: Option<Arc<NetFault>>,
    reconnect: ReconnectPolicy,
    conn: Mutex<Conn>,
    conn_epoch: AtomicU64,
    pending: Mutex<HashMap<u64, Arc<PendingCall>>>,
    /// Wire ids of *logical* calls still unresolved. The smallest member
    /// is the `ack_below` watermark sent with every call; holding the id
    /// for the whole retry loop (not per attempt) is what stops the
    /// server from pruning a cached reply this caller may still replay.
    outstanding: Mutex<BTreeSet<u64>>,
    next_call: AtomicU64,
    notifier: Arc<Notifier>,
    stats: RemoteStats,
}

/// Proxy to an object served by a remote
/// [`NetServer`](crate::server::NetServer). Clone to share; clones share
/// the connection, session, and dedup watermark.
///
/// See [`NetServer`](crate::server::NetServer) for a round-trip example.
#[derive(Clone)]
pub struct RemoteHandle {
    inner: Arc<RemoteInner>,
}

impl RemoteHandle {
    /// A handle for `object` dialed through `connector`. Connection is
    /// lazy: the first call (or a call after a link death) dials.
    pub fn new(
        rt: &Runtime,
        object: impl Into<String>,
        connector: impl Connector + 'static,
    ) -> RemoteHandle {
        let mut session = rt.rand_u64();
        if session == 0 {
            session = 1;
        }
        RemoteHandle {
            inner: Arc::new(RemoteInner {
                rt: rt.clone(),
                object: object.into(),
                session,
                connector: Box::new(connector),
                fault: None,
                reconnect: ReconnectPolicy::default(),
                conn: Mutex::new(Conn::Down),
                conn_epoch: AtomicU64::new(0),
                pending: Mutex::new(HashMap::new()),
                outstanding: Mutex::new(BTreeSet::new()),
                next_call: AtomicU64::new(1),
                notifier: Arc::new(Notifier::new()),
                stats: RemoteStats::default(),
            }),
        }
    }

    /// Replace the reconnect policy.
    #[must_use]
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> RemoteHandle {
        Arc::get_mut(&mut self.inner)
            .expect("configure the handle before cloning it")
            .reconnect = policy;
        self
    }

    /// Install a transport fault plan: every established link is wrapped
    /// in a [`FaultyLink`] driven by this seeded plan. Handshake frames
    /// are exempt (faults target calls in flight; an unbounded handshake
    /// hang would just be a dial failure, already covered by reconnect).
    #[must_use]
    pub fn with_fault(mut self, plan: NetFaultPlan) -> RemoteHandle {
        Arc::get_mut(&mut self.inner)
            .expect("configure the handle before cloning it")
            .fault = Some(Arc::new(NetFault::new(plan)));
        self
    }

    /// The remote object's name.
    pub fn object(&self) -> &str {
        &self.inner.object
    }

    /// The endpoint this handle dials.
    pub fn endpoint(&self) -> String {
        self.inner.connector.endpoint()
    }

    /// Counters for this handle.
    pub fn stats(&self) -> RemoteStats {
        self.inner.stats.clone()
    }

    /// Intern an entry name for repeated calling (the remote analogue of
    /// [`ObjectHandle::entry_id`](alps_core::ObjectHandle::entry_id)).
    /// Resolution against the server's entry table happens per call, so
    /// a name the server does not export fails with
    /// [`AlpsError::UnknownEntry`] at call time, not here.
    pub fn entry_id(&self, entry: &str) -> RemoteEntryId {
        RemoteEntryId {
            name: Arc::from(entry),
        }
    }

    /// Remote `X.P(params, results)`: call and block for the reply.
    ///
    /// # Errors
    ///
    /// Everything the in-process call can return (the server propagates
    /// its [`AlpsError`] over the wire), plus [`AlpsError::LinkLost`]
    /// when the connection dies with the call in flight.
    pub fn call(&self, entry: &str, args: Vec<Value>) -> Result<Vec<Value>> {
        self.call_id(&self.entry_id(entry), args).map(Vec::from)
    }

    /// [`call`](Self::call) through an interned [`RemoteEntryId`].
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call).
    pub fn call_id(&self, id: &RemoteEntryId, args: impl Into<ValVec>) -> Result<ValVec> {
        self.logical_call(id, args.into(), None)
    }

    /// Deadline-bounded remote call: `ticks` bounds the whole affair —
    /// dialing, the wire round trip, and the entry body. The deadline
    /// crosses the wire as a *remaining budget* (the processes share no
    /// clock), so the server re-anchors it on its own clock.
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call), plus [`AlpsError::Timeout`] on expiry.
    pub fn call_deadline(&self, entry: &str, args: Vec<Value>, ticks: u64) -> Result<Vec<Value>> {
        self.call_id_deadline(&self.entry_id(entry), args, ticks)
            .map(Vec::from)
    }

    /// Deadline-bounded variant of [`call_id`](Self::call_id).
    ///
    /// # Errors
    ///
    /// As [`call_deadline`](Self::call_deadline).
    pub fn call_id_deadline(
        &self,
        id: &RemoteEntryId,
        args: impl Into<ValVec>,
        ticks: u64,
    ) -> Result<ValVec> {
        let deadline = Deadline::after(&self.inner.rt, ticks);
        self.logical_call(id, args.into(), Some(deadline))
    }

    /// Retry transient failures per `policy`, exactly like
    /// [`ObjectHandle::call_retry`](alps_core::ObjectHandle::call_retry)
    /// — same budget splitting, same seeded backoff — with one addition
    /// to the transient set: [`AlpsError::LinkLost`]. Every attempt
    /// re-sends the **same wire call id**, so the server's session dedup
    /// cache makes the retries at-most-once-executed: a retry of a call
    /// whose reply was lost replays the cached reply instead of running
    /// the body again.
    ///
    /// # Errors
    ///
    /// As [`call_deadline`](Self::call_deadline); when every attempt
    /// fails transiently, the *last* transient error is returned.
    pub fn call_retry(
        &self,
        entry: &str,
        args: Vec<Value>,
        policy: RetryPolicy,
    ) -> Result<Vec<Value>> {
        self.call_id_retry(&self.entry_id(entry), args, policy)
            .map(Vec::from)
    }

    /// [`call_retry`](Self::call_retry) through an interned id.
    ///
    /// # Errors
    ///
    /// As [`call_retry`](Self::call_retry).
    pub fn call_id_retry(
        &self,
        id: &RemoteEntryId,
        args: impl Into<ValVec>,
        policy: RetryPolicy,
    ) -> Result<ValVec> {
        let inner = &self.inner;
        let args: ValVec = args.into();
        let wire_id = inner.alloc_call();
        let attempts = policy.max_attempts.max(1);
        let deadline = inner.rt.now().saturating_add(policy.budget_ticks.max(1));
        let mut last = None;
        for k in 0..attempts {
            let remaining = deadline.saturating_sub(inner.rt.now());
            if remaining == 0 {
                break;
            }
            let attempt_deadline = Deadline::after(&inner.rt, policy.attempt_budget(k, remaining));
            match inner.attempt(wire_id, &id.name, args.clone(), Some(attempt_deadline)) {
                Ok(r) => {
                    inner.release_call(wire_id);
                    return Ok(r);
                }
                Err(e) if e.is_retryable() => {
                    last = Some(e);
                    if k + 1 == attempts {
                        break;
                    }
                    inner.stats.retries.incr();
                    let delay = policy.backoff.delay(k, &inner.rt);
                    // Floor at one tick: with zero backoff a refused call
                    // (Overloaded/Restarting travels the wire in zero
                    // *virtual* time under the sim) would burn every
                    // attempt inside one scheduling window.
                    let sleep = delay.max(1).min(deadline.saturating_sub(inner.rt.now()));
                    inner.rt.sleep(sleep);
                }
                Err(e) => {
                    inner.release_call(wire_id);
                    return Err(e);
                }
            }
        }
        inner.release_call(wire_id);
        Err(last.unwrap_or(AlpsError::Timeout {
            what: id.name.to_string(),
            ticks: policy.budget_ticks,
        }))
    }

    /// One logical call = one wire id held for its whole lifetime.
    fn logical_call(
        &self,
        id: &RemoteEntryId,
        args: ValVec,
        deadline: Option<Deadline>,
    ) -> Result<ValVec> {
        let wire_id = self.inner.alloc_call();
        let r = self.inner.attempt(wire_id, &id.name, args, deadline);
        self.inner.release_call(wire_id);
        r
    }
}

impl RemoteInner {
    fn alloc_call(&self) -> u64 {
        let id = self.next_call.fetch_add(1, Ordering::Relaxed);
        self.outstanding.lock().insert(id);
        id
    }

    fn release_call(&self, id: u64) {
        self.outstanding.lock().remove(&id);
    }

    fn link_lost(&self) -> AlpsError {
        AlpsError::LinkLost {
            endpoint: format!("{} ({})", self.connector.endpoint(), self.object),
        }
    }

    /// One wire attempt: ensure a connection, send the call, wait for
    /// the reply slot to fill (by the reader, or by the link-death
    /// sweep), bounded by `deadline`.
    fn attempt(
        self: &Arc<Self>,
        wire_id: u64,
        entry: &str,
        args: ValVec,
        deadline: Option<Deadline>,
    ) -> Result<ValVec> {
        let (epoch, link, entries) = self.ensure_up(deadline)?;
        let Some(&entry_idx) = entries.get(entry) else {
            return Err(AlpsError::UnknownEntry {
                object: self.object.clone(),
                entry: entry.to_string(),
            });
        };
        let budget = match deadline {
            None => NO_BUDGET,
            Some(d) => {
                let rem = d.at.saturating_sub(self.rt.now());
                if rem == 0 {
                    return Err(d.timeout(entry));
                }
                rem
            }
        };
        let ack_below = self
            .outstanding
            .lock()
            .iter()
            .next()
            .copied()
            .unwrap_or(wire_id);
        let frame = encode_frame(&Frame::Call {
            call: wire_id,
            ack_below,
            entry: entry_idx,
            budget,
            args,
        })
        .map_err(|e| AlpsError::Custom(format!("unsendable arguments: {e}")))?;

        let slot = Arc::new(PendingCall {
            caller: self.rt.current(),
            reply: Mutex::new(Reply::Waiting),
        });
        self.pending.lock().insert(wire_id, Arc::clone(&slot));

        if link.send(&frame).is_err() {
            self.pending.lock().remove(&wire_id);
            self.mark_down(epoch, &link);
            return Err(self.link_lost());
        }
        self.stats.sent.incr();

        // The reader may have died and swept `pending` *before* our
        // insert (the sweep only sees slots present at death). If the
        // epoch has moved on, nobody will ever fill our slot: resolve it
        // ourselves.
        if self.conn_epoch.load(Ordering::Acquire) != epoch {
            let mut reply = slot.reply.lock();
            if matches!(*reply, Reply::Waiting) {
                *reply = Reply::Ready(Err(self.link_lost()));
            }
        }

        loop {
            {
                let mut reply = slot.reply.lock();
                let expired = deadline.is_some_and(|d| self.rt.now() >= d.at);
                if expired || matches!(*reply, Reply::Ready(_)) {
                    let left = std::mem::replace(&mut *reply, Reply::Left);
                    drop(reply);
                    self.pending.lock().remove(&wire_id);
                    return match left {
                        Reply::Ready(result) => {
                            if result.is_ok() {
                                self.stats.replies.incr();
                            }
                            result
                        }
                        _ => Err(deadline
                            .expect("only an expired deadline leaves without a reply")
                            .timeout(entry)),
                    };
                }
            }
            match deadline {
                None => self.rt.park(),
                Some(d) => self.rt.park_timeout(d.at.saturating_sub(self.rt.now())),
            }
            self.stats.wakeups.incr();
        }
    }

    /// Get the live connection, dialing if necessary. The first caller
    /// to find the connection `Down` becomes the reconnector; everyone
    /// else parks on the notifier until the episode resolves.
    #[allow(clippy::type_complexity)]
    fn ensure_up(
        self: &Arc<Self>,
        deadline: Option<Deadline>,
    ) -> Result<(u64, Arc<dyn Link>, Arc<HashMap<String, u32>>)> {
        loop {
            let seen = self.notifier.epoch();
            {
                let mut conn = self.conn.lock();
                match &*conn {
                    Conn::Up {
                        epoch,
                        link,
                        entries,
                    } => return Ok((*epoch, Arc::clone(link), Arc::clone(entries))),
                    Conn::Connecting => {}
                    Conn::Down => {
                        *conn = Conn::Connecting;
                        drop(conn);
                        return self.reconnect_episode(deadline);
                    }
                }
            }
            // Somebody else is dialing; bounded park so a dead
            // reconnector (aborted process) cannot strand us forever.
            if let Some(d) = deadline {
                if self.rt.now() >= d.at {
                    return Err(d.timeout(&self.object));
                }
                self.notifier.wait_past_deadline(&self.rt, seen, d.at);
            } else {
                let bound = self
                    .rt
                    .now()
                    .saturating_add(self.reconnect.cap_ticks.max(1_000));
                self.notifier.wait_past_deadline(&self.rt, seen, bound);
            }
        }
    }

    /// Dial + handshake with seeded-jitter exponential backoff. Runs
    /// with the connection in `Connecting` (never holding the lock
    /// across blocking work); always resolves the state before
    /// returning.
    #[allow(clippy::type_complexity)]
    fn reconnect_episode(
        self: &Arc<Self>,
        deadline: Option<Deadline>,
    ) -> Result<(u64, Arc<dyn Link>, Arc<HashMap<String, u32>>)> {
        let attempts = self.reconnect.max_attempts.max(1);
        let mut outcome = Err(self.link_lost());
        for k in 0..attempts {
            if let Some(d) = deadline.filter(|d| self.rt.now() >= d.at) {
                outcome = Err(d.timeout(&self.object));
                break;
            }
            match self.dial_once() {
                Ok(up) => {
                    outcome = Ok(up);
                    break;
                }
                Err(DialError::Refused(e)) => {
                    // The server answered and said no (unknown object,
                    // version skew): retrying cannot help.
                    outcome = Err(e);
                    break;
                }
                Err(DialError::Io) => {
                    if k + 1 == attempts {
                        break;
                    }
                    let backoff = Backoff::ExpJitter {
                        base: self.reconnect.base_ticks,
                        cap: self.reconnect.cap_ticks,
                    };
                    self.rt.sleep(backoff.delay(k, &self.rt).max(1));
                }
            }
        }
        let mut conn = self.conn.lock();
        match &outcome {
            Ok((epoch, link, entries)) => {
                *conn = Conn::Up {
                    epoch: *epoch,
                    link: Arc::clone(link),
                    entries: Arc::clone(entries),
                };
            }
            Err(_) => *conn = Conn::Down,
        }
        drop(conn);
        self.notifier.notify(&self.rt);
        outcome
    }

    /// One dial + handshake. The handshake runs on the *raw* link
    /// (fault injection starts at steady state — see
    /// [`RemoteHandle::with_fault`]); the reader daemon is spawned on
    /// the possibly-faulty wrapped link.
    #[allow(clippy::type_complexity)]
    fn dial_once(
        self: &Arc<Self>,
    ) -> std::result::Result<(u64, Arc<dyn Link>, Arc<HashMap<String, u32>>), DialError> {
        let raw = self.connector.connect().map_err(|_| DialError::Io)?;
        let hello = encode_frame(&Frame::Hello {
            version: PROTO_VERSION,
            session: self.session,
            object: self.object.clone(),
        })
        .expect("hello frames always encode");
        raw.send(&hello).map_err(|_| DialError::Io)?;
        let ack = raw.recv().map_err(|_| DialError::Io)?;
        let entries = match decode_frame(&ack) {
            Ok((Frame::HelloAck { entries }, _)) => entries,
            Ok((Frame::HelloErr { err }, _)) => {
                return Err(DialError::Refused(wire_to_err(&err)));
            }
            _ => return Err(DialError::Io),
        };
        let table: Arc<HashMap<String, u32>> = Arc::new(entries.into_iter().collect());
        let link: Arc<dyn Link> = match &self.fault {
            Some(fault) => {
                fault.revive();
                Arc::new(FaultyLink::new(&self.rt, raw, Arc::clone(fault)))
            }
            None => raw,
        };
        let epoch = self.conn_epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.stats.reconnects.incr();
        let reader = Arc::clone(self);
        let rlink = Arc::clone(&link);
        self.rt.spawn_with(
            Spawn::new(format!("net.reader.{epoch}")).daemon(true),
            move || reader.read_loop(epoch, rlink),
        );
        Ok((epoch, link, table))
    }

    /// Per-connection reader: fills reply slots until the link dies,
    /// then sweeps every still-empty slot with `LinkLost` — an in-flight
    /// call never hangs on a connection that no longer exists.
    fn read_loop(self: Arc<Self>, epoch: u64, link: Arc<dyn Link>) {
        while let Ok(bytes) = link.recv() {
            match decode_frame(&bytes) {
                Ok((Frame::Reply { call, result }, _)) => {
                    // Unknown call id: a reply for a caller that already
                    // timed out and left. Dropped on the floor by design.
                    let slot = self.pending.lock().get(&call).cloned();
                    if let Some(slot) = slot {
                        slot.fill(&self.rt, result.map_err(|w| wire_to_err(&w)));
                    }
                }
                Ok(_) => break,  // protocol breach
                Err(_) => break, // corruption: the stream is untrustworthy
            }
        }
        self.mark_down(epoch, &link);
    }

    /// Move the connection to `Down` (if `epoch` is still current) and
    /// sweep in-flight calls with `LinkLost`.
    fn mark_down(&self, epoch: u64, link: &Arc<dyn Link>) {
        link.shutdown();
        {
            let mut conn = self.conn.lock();
            if matches!(&*conn, Conn::Up { epoch: e, .. } if *e == epoch) {
                *conn = Conn::Down;
            }
        }
        let lost = self
            .pending
            .lock()
            .values()
            .filter(|slot| slot.fill(&self.rt, Err(self.link_lost())))
            .count() as u64;
        if lost > 0 {
            self.stats.link_losses.add(lost);
        }
    }
}

enum DialError {
    /// Transport failure: worth backing off and retrying.
    Io,
    /// The server refused the handshake: terminal.
    Refused(AlpsError),
}
