//! Network-transparent ALPS objects, with **partial failure** as the
//! headline concern.
//!
//! The paper's objects synchronize through manager processes inside one
//! address space. This crate carries the same call protocol across a
//! process boundary:
//!
//! * [`wire`] — length-prefixed, checksummed frames serializing
//!   [`ValVec`](alps_core::ValVec) calls and replies, with an
//!   entry-table handshake that interns entry ids per connection and a
//!   wire image of the [`AlpsError`](alps_core::AlpsError) taxonomy.
//! * [`link`] — transports: TCP and an in-memory channel pair
//!   ([`MemLink`]) that runs the whole protocol inside one deterministic
//!   simulation.
//! * [`server`] — [`NetServer`] exposes a runtime's objects over any
//!   link, with per-session duplicate suppression making every call
//!   **at-most-once-executed** no matter how the transport misbehaves
//!   (a retried `Timeout` is the one exception, DESIGN.md §10).
//!   The process that serves a connection runs each call it reads.
//! * [`client`] — [`RemoteHandle`] speaks the `ObjectHandle` call
//!   surface remotely, one call per link: a caller checks an idle link
//!   out (or dials one, with seeded backoff), reads its own reply from
//!   it and checks it back in. A link that dies under a call fails that
//!   call with [`AlpsError::LinkLost`](alps_core::AlpsError::LinkLost) —
//!   a *transient* error, safe to retry precisely because of the
//!   server's dedup.
//! * [`fault`] — [`NetFaultPlan`] extends deterministic fault injection
//!   to the transport: seeded drops, delays, duplicates, corruption,
//!   and disconnects at the send/receive points, sweepable across 256
//!   seeds like every other failure in this workspace.

#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod link;
pub mod server;
pub mod wire;

pub use client::{
    Connector, MemConnector, ReconnectPolicy, RemoteEntryId, RemoteHandle, RemoteStats,
    TcpConnector,
};
pub use fault::{NetFault, NetFaultPlan, RecvPlan, SendPlan};
pub use link::{FaultyLink, Link, MemLink, TcpLink};
pub use server::{NetServer, ServerStats};
pub use wire::{
    decode_frame, encode_frame, err_to_wire, wire_to_err, Frame, FrameError, WireErr, MAX_FRAME,
    NO_BUDGET, PROTO_VERSION,
};
