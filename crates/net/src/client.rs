//! The client side: [`RemoteHandle`], a proxy that speaks the
//! [`ObjectHandle`](alps_core::ObjectHandle) call surface (`call`,
//! `call_id`, and `call_with` under any [`Wait`]) to an object living in
//! another process.
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
//! was lost). Either way the body runs **at most once**. A retried
//! [`AlpsError::Timeout`] is not covered: the server forgets a
//! retryable outcome, so a body that started before the deadline can
//! run again (see [`RetryPolicy`]).
//!
//! # One call per link
//!
//! A link carries one call at a time, and the caller owns it for that
//! time: it checks an idle, handshaken link out of the handle's stack
//! (or dials one itself, with seeded-jitter exponential backoff and
//! bounded attempts), sends its `Call`, blocks in *that link's* receive
//! for the `Reply` carrying its wire id, and checks the link back in.
//! Nothing stands between the socket and the caller — no reader process,
//! no table of pending calls, nobody to wake — so a call costs the two
//! wakes of a socket round trip, and N callers in flight hold N links.
//! All links of a handle share its session, so the server's dedup cache
//! and the `ack_below` watermark span them.
//!
//! A link that may hold an unread or half-read frame is never reused: a
//! timeout, a transport error and an undecodable frame all close it. A
//! transport error also closes every idle link, since whatever killed
//! this one (a server bounce) most likely killed those; the one caller
//! that found out reports [`AlpsError::LinkLost`].

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alps_core::{AlpsError, Backoff, Result, RetryPolicy, ValVec, Value, Wait};
use alps_runtime::metrics::Counter;
use alps_runtime::{Chan, Runtime};
use parking_lot::Mutex;

use crate::fault::{NetFault, NetFaultPlan};
use crate::link::{FaultyLink, Link, MemLink, TcpLink};
use crate::wire::{decode_frame, encode_frame, wire_to_err, Frame, NO_BUDGET, PROTO_VERSION};

/// Dials one endpoint. The handle dials through this whenever a caller
/// finds no idle link, so a connector must be reusable.
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

/// How hard a caller that needs a fresh link dials before it gives up
/// with [`AlpsError::LinkLost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Dial attempts per call attempt (`0` is treated as `1`).
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
/// keeps the name and resolves it against the table of the link the
/// call goes out on.
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
    /// Calls that lost their link in flight.
    pub link_losses: Counter,
    /// Links dialed and handshaken.
    pub reconnects: Counter,
    /// Re-attempts made by [`Wait::Retry`] calls.
    pub retries: Counter,
}

/// A handshaken link with the entry table its handshake interned.
struct Established {
    link: Arc<dyn Link>,
    entries: HashMap<String, u32>,
}

/// Idle links kept per handle; one checked in beyond this is closed.
const MAX_IDLE_LINKS: usize = 8;

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

/// Wire ids of *logical* calls, one per call however often it is retried.
struct WireIds {
    next: u64,
    /// Those still unresolved. The smallest is the `ack_below` watermark
    /// sent with every call; holding the id for the whole retry loop (not
    /// per attempt) is what stops the server from pruning a cached reply
    /// this caller may still replay.
    outstanding: BTreeSet<u64>,
}

struct RemoteInner {
    rt: Runtime,
    object: String,
    /// Client-chosen session id: the server keys its dedup cache on it,
    /// which is what makes a retry on another link at-most-once.
    session: u64,
    connector: Box<dyn Connector>,
    fault: Option<Arc<NetFault>>,
    reconnect: ReconnectPolicy,
    /// Links nobody is calling on, most recently used last.
    idle: Mutex<Vec<Established>>,
    ids: Mutex<WireIds>,
    stats: RemoteStats,
}

impl Drop for RemoteInner {
    fn drop(&mut self) {
        self.close_idle();
    }
}

/// Proxy to an object served by a remote
/// [`NetServer`](crate::server::NetServer). Clone to share; clones share
/// the idle links, session, and dedup watermark. Dropping the last clone
/// closes the idle links.
///
/// See [`NetServer`](crate::server::NetServer) for a round-trip example.
#[derive(Clone)]
pub struct RemoteHandle {
    inner: Arc<RemoteInner>,
}

impl RemoteHandle {
    /// A handle for `object` dialed through `connector`. Dialing is lazy:
    /// a call that finds no idle link dials one.
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
                idle: Mutex::new(Vec::new()),
                ids: Mutex::new(WireIds {
                    next: 1,
                    outstanding: BTreeSet::new(),
                }),
                stats: RemoteStats::default(),
            }),
        }
    }

    /// Replace the dial policy.
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
    /// hang would just be a dial failure, which the dial policy covers).
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

    /// [`call`](Self::call) through an interned [`RemoteEntryId`] —
    /// `call_with(id, args, Wait::Unbounded)`.
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call).
    pub fn call_id(&self, id: &RemoteEntryId, args: impl Into<ValVec>) -> Result<ValVec> {
        self.call_with(id, args, Wait::Unbounded)
    }

    /// `call_with(id, args, Wait::Retry(policy))`, kept only because the
    /// benchmark's `remote_call` fault phase (`crates/benchmark/src/sut.rs`)
    /// names it.
    ///
    /// # Errors
    ///
    /// As [`call_with`](Self::call_with).
    pub fn call_id_retry(
        &self,
        id: &RemoteEntryId,
        args: impl Into<ValVec>,
        policy: RetryPolicy,
    ) -> Result<ValVec> {
        self.call_with(id, args, Wait::Retry(policy))
    }

    /// Remote call that waits as `wait` says, as
    /// [`ObjectHandle::call_with`](alps_core::ObjectHandle::call_with)
    /// does. A deadline bounds dialing, the round trip and the body, and
    /// crosses the wire as a *remaining budget* (the processes share no
    /// clock). Every attempt of a retry re-sends the **same wire call
    /// id**, so the server's dedup cache replays the reply of an attempt
    /// whose body ran but whose reply was lost ([`AlpsError::LinkLost`]);
    /// a `Timeout` retry can still re-run a started body
    /// ([`RetryPolicy`]).
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call), plus [`AlpsError::Timeout`] when a
    /// deadline expires; under a retry, the last transient error once
    /// every attempt failed.
    pub fn call_with(
        &self,
        id: &RemoteEntryId,
        args: impl Into<ValVec>,
        wait: Wait,
    ) -> Result<ValVec> {
        let inner = &self.inner;
        let args: ValVec = args.into();
        // One logical call = one wire id, held across every attempt and
        // released on every way out.
        let wire_id = inner.alloc_call();
        let r = match wait {
            Wait::Unbounded => inner.attempt(wire_id, &id.name, args, None),
            Wait::Deadline(ticks) => {
                let deadline = Deadline::after(&inner.rt, ticks);
                inner.attempt(wire_id, &id.name, args, Some(deadline))
            }
            Wait::Retry(policy) => policy.run(
                &inner.rt,
                &id.name,
                &inner.stats.retries,
                |ticks| {
                    let deadline = Deadline::after(&inner.rt, ticks);
                    inner.attempt(wire_id, &id.name, args.clone(), Some(deadline))
                },
                // Floor at one tick: a refused call (Overloaded or
                // Restarting) travels the wire in zero *virtual* time
                // under the sim, so a zero backoff would burn every
                // attempt inside one scheduling window.
                |_, _| inner.rt.sleep(1),
            ),
        };
        inner.release_call(wire_id);
        r
    }
}

impl RemoteInner {
    fn alloc_call(&self) -> u64 {
        // Numbered and listed in one step: an id taken but not yet listed
        // would let a rival's frame carry a watermark above it, and the
        // server drops a call below the watermark unanswered.
        let mut ids = self.ids.lock();
        let id = ids.next;
        ids.next += 1;
        ids.outstanding.insert(id);
        id
    }

    fn release_call(&self, id: u64) {
        self.ids.lock().outstanding.remove(&id);
    }

    fn link_lost(&self) -> AlpsError {
        AlpsError::LinkLost {
            endpoint: format!("{} ({})", self.connector.endpoint(), self.object),
        }
    }

    /// One wire attempt on a link of its own: check one out, send the
    /// call, receive until the reply with this wire id, check it back in.
    fn attempt(
        &self,
        wire_id: u64,
        entry: &str,
        args: ValVec,
        deadline: Option<Deadline>,
    ) -> Result<ValVec> {
        let up = self.checkout(deadline)?;
        let frame = match self.call_frame(&up, wire_id, entry, args, deadline) {
            Ok(frame) => frame,
            Err(e) => {
                self.checkin(up);
                return Err(e);
            }
        };
        if up.link.send(&frame).is_err() {
            return Err(self.lose(&up));
        }
        self.stats.sent.incr();
        loop {
            let received = match deadline {
                None => up.link.recv(),
                Some(d) => match d.at.saturating_sub(self.rt.now()) {
                    0 => Err(io::ErrorKind::TimedOut.into()),
                    remaining => up.link.recv_deadline(remaining),
                },
            };
            let bytes = match received {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                    // The reply may still come, and the server's end is
                    // busy with this call until it does: close the link
                    // instead of letting the next call queue behind it.
                    up.link.shutdown();
                    let d = deadline.expect("only a bounded receive times out");
                    return Err(d.timeout(entry));
                }
                Err(_) => return Err(self.lose(&up)),
            };
            match decode_frame(&bytes) {
                Ok((Frame::Reply { call, result }, _)) if call == wire_id => {
                    self.checkin(up);
                    if result.is_ok() {
                        self.stats.replies.incr();
                    }
                    return result.map_err(|w| wire_to_err(&w));
                }
                // A second copy of the reply to an earlier call on this
                // link, whose caller took the first: nobody's.
                Ok((Frame::Reply { .. }, _)) => {}
                // Protocol breach or corruption: the stream is untrustworthy.
                _ => return Err(self.lose(&up)),
            }
        }
    }

    fn call_frame(
        &self,
        up: &Established,
        wire_id: u64,
        entry: &str,
        args: ValVec,
        deadline: Option<Deadline>,
    ) -> Result<Vec<u8>> {
        let Some(&entry_idx) = up.entries.get(entry) else {
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
            .ids
            .lock()
            .outstanding
            .first()
            .copied()
            .unwrap_or(wire_id);
        encode_frame(&Frame::Call {
            call: wire_id,
            ack_below,
            entry: entry_idx,
            budget,
            args,
        })
        .map_err(|e| AlpsError::Custom(format!("unsendable arguments: {e}")))
    }

    /// The most recently used idle link, or a freshly dialed one.
    fn checkout(&self, deadline: Option<Deadline>) -> Result<Established> {
        // Popped in a statement of its own: the guard must not live
        // across the dial.
        let idle = self.idle.lock().pop();
        match idle {
            Some(up) => Ok(up),
            None => self.dial(deadline),
        }
    }

    fn checkin(&self, up: Established) {
        let mut idle = self.idle.lock();
        if idle.len() < MAX_IDLE_LINKS {
            idle.push(up);
        } else {
            drop(idle);
            up.link.shutdown();
        }
    }

    /// A call lost `up` in flight: close it and every idle link.
    fn lose(&self, up: &Established) -> AlpsError {
        up.link.shutdown();
        self.close_idle();
        self.stats.link_losses.incr();
        self.link_lost()
    }

    fn close_idle(&self) {
        let idle = std::mem::take(&mut *self.idle.lock());
        for up in idle {
            up.link.shutdown();
        }
    }

    /// Dial + handshake with seeded-jitter exponential backoff, bounded
    /// by `deadline` and the policy's attempts.
    fn dial(&self, deadline: Option<Deadline>) -> Result<Established> {
        let attempts = self.reconnect.max_attempts.max(1);
        for k in 0..attempts {
            if let Some(d) = deadline.filter(|d| self.rt.now() >= d.at) {
                return Err(d.timeout(&self.object));
            }
            match self.dial_once() {
                Ok(up) => return Ok(up),
                // The server answered and said no (unknown object,
                // version skew): retrying cannot help.
                Err(DialError::Refused(e)) => return Err(e),
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
        Err(self.link_lost())
    }

    /// One dial + handshake. The handshake runs on the *raw* link (fault
    /// injection starts at steady state — see
    /// [`RemoteHandle::with_fault`]); calls go over the wrapped one.
    fn dial_once(&self) -> std::result::Result<Established, DialError> {
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
        let link: Arc<dyn Link> = match &self.fault {
            Some(fault) => {
                fault.revive();
                Arc::new(FaultyLink::new(&self.rt, raw, Arc::clone(fault)))
            }
            None => raw,
        };
        self.stats.reconnects.incr();
        Ok(Established {
            link,
            entries: entries.into_iter().collect(),
        })
    }
}

enum DialError {
    /// Transport failure: worth backing off and retrying.
    Io,
    /// The server refused the handshake: terminal.
    Refused(AlpsError),
}
