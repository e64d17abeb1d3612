//! Frame transports. A [`Link`] moves whole frames (header + body, as
//! produced by [`encode_frame`](crate::wire::encode_frame)) between two
//! endpoints:
//!
//! * [`TcpLink`] — loopback or real TCP, for the 2-process case.
//! * [`MemLink`] — a pair of runtime [`Chan`]s, so the *entire* client ↔
//!   server protocol (handshake, calls, reconnects) runs inside one
//!   deterministic simulation.
//! * [`FaultyLink`] — wraps any of the above and applies a seeded
//!   [`NetFault`] at the send and receive points.
//!
//! A link is dumb on purpose: it neither parses nor retries. Framing
//! errors, checksum failures, and disconnects all surface to the
//! connection layer, which owns the supervision policy.

use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use alps_runtime::{Chan, Runtime};
use parking_lot::Mutex;

use crate::fault::{NetFault, RecvPlan, SendPlan};
use crate::wire::{HEADER_LEN, MAX_FRAME};

/// A bidirectional whole-frame transport.
///
/// `recv` blocks until a frame, EOF, or transport error; `shutdown` must
/// unblock any blocked `recv` (that is how a link is torn down from
/// outside). One process receives on a link at a time: the client that
/// checked it out, or the server process that serves it.
pub trait Link: Send + Sync {
    /// Send one encoded frame.
    ///
    /// # Errors
    ///
    /// Any transport-level failure; the connection layer treats every
    /// send error as link death.
    fn send(&self, frame: &[u8]) -> io::Result<()>;

    /// Receive one whole frame (header + body).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] on orderly close; anything else
    /// on transport failure. Both mean the link is dead.
    fn recv(&self) -> io::Result<Vec<u8>>;

    /// [`recv`](Link::recv) that gives up after `ticks`.
    ///
    /// The provided body ignores the bound, which is what a wrapper that
    /// does not forward this method gets; every link of this crate
    /// overrides it.
    ///
    /// # Errors
    ///
    /// As [`recv`](Link::recv), plus [`io::ErrorKind::TimedOut`] on
    /// expiry. A stream link may have consumed part of a frame by then,
    /// so the caller must not receive on it again.
    fn recv_deadline(&self, ticks: u64) -> io::Result<Vec<u8>> {
        let _ = ticks;
        self.recv()
    }

    /// Tear the link down, unblocking any blocked [`recv`](Link::recv).
    fn shutdown(&self);

    /// Human-readable peer description for error messages.
    fn peer(&self) -> String;
}

fn eof() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "link closed")
}

fn timed_out() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "no frame within the bound")
}

// ------------------------------------------------------------------ tcp

/// A [`Link`] over a TCP stream. Reader and writer sides are guarded by
/// separate locks so a blocked `recv` never starves `send`.
pub struct TcpLink {
    reader: Mutex<Reader>,
    writer: Mutex<TcpStream>,
    peer: String,
}

/// The read half with the read timeout its socket currently has, so
/// that unbounded receives in a row cost no `setsockopt`.
struct Reader {
    stream: TcpStream,
    bound: Option<Duration>,
}

impl Reader {
    fn read_frame(&mut self, bound: Option<Duration>) -> io::Result<Vec<u8>> {
        if self.bound != bound {
            self.stream.set_read_timeout(bound)?;
            self.bound = bound;
        }
        read_exact_frame(&mut self.stream).map_err(|e| match e.kind() {
            // What an expired SO_RCVTIMEO reads as on Unix.
            io::ErrorKind::WouldBlock => timed_out(),
            _ => e,
        })
    }
}

impl TcpLink {
    /// Wrap a connected stream.
    ///
    /// # Errors
    ///
    /// When the stream cannot be cloned into reader/writer halves.
    pub fn new(stream: TcpStream) -> io::Result<TcpLink> {
        stream.set_nodelay(true).ok();
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "tcp:?".into());
        let writer = stream.try_clone()?;
        Ok(TcpLink {
            reader: Mutex::new(Reader {
                stream,
                bound: None,
            }),
            writer: Mutex::new(writer),
            peer,
        })
    }
}

impl Link for TcpLink {
    fn send(&self, frame: &[u8]) -> io::Result<()> {
        let mut w = self.writer.lock();
        w.write_all(frame)?;
        w.flush()
    }

    fn recv(&self) -> io::Result<Vec<u8>> {
        self.reader.lock().read_frame(None)
    }

    fn recv_deadline(&self, ticks: u64) -> io::Result<Vec<u8>> {
        // A tick is a microsecond on every runtime that has sockets;
        // a zero timeout would mean "none" to the socket.
        let bound = Duration::from_micros(ticks.max(1));
        self.reader.lock().read_frame(Some(bound))
    }

    fn shutdown(&self) {
        let _ = self.writer.lock().shutdown(Shutdown::Both);
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

fn read_exact_frame(r: &mut impl io::Read) -> io::Result<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    if len > MAX_FRAME {
        // A corrupted length prefix has desynchronized the byte stream;
        // there is no way to find the next frame boundary. Kill the link.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("declared frame length {len} exceeds cap"),
        ));
    }
    let mut frame = vec![0u8; HEADER_LEN + len];
    frame[..HEADER_LEN].copy_from_slice(&header);
    r.read_exact(&mut frame[HEADER_LEN..])?;
    Ok(frame)
}

// ------------------------------------------------------------------ mem

/// An in-memory [`Link`] over two runtime [`Chan`]s. Because `Chan`
/// works identically on both executors, a `MemLink` connection under the
/// simulation runtime makes the full distributed protocol — including
/// reconnects and transport faults — deterministic and sweepable.
pub struct MemLink {
    rt: Runtime,
    tx: Chan<Vec<u8>>,
    rx: Chan<Vec<u8>>,
    peer: String,
}

impl MemLink {
    /// A connected pair of in-memory links (client end, server end).
    pub fn pair(rt: &Runtime, name: &str) -> (Arc<MemLink>, Arc<MemLink>) {
        let a2b: Chan<Vec<u8>> = Chan::unbounded(format!("{name}.c2s"));
        let b2a: Chan<Vec<u8>> = Chan::unbounded(format!("{name}.s2c"));
        let client = Arc::new(MemLink {
            rt: rt.clone(),
            tx: a2b.clone(),
            rx: b2a.clone(),
            peer: format!("mem:{name}/server"),
        });
        let server = Arc::new(MemLink {
            rt: rt.clone(),
            tx: b2a,
            rx: a2b,
            peer: format!("mem:{name}/client"),
        });
        (client, server)
    }
}

impl Link for MemLink {
    fn send(&self, frame: &[u8]) -> io::Result<()> {
        self.tx
            .send(&self.rt, frame.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "mem link closed"))
    }

    fn recv(&self) -> io::Result<Vec<u8>> {
        self.rx.recv(&self.rt).map_err(|_| eof())
    }

    fn recv_deadline(&self, ticks: u64) -> io::Result<Vec<u8>> {
        let deadline = self.rt.now().saturating_add(ticks);
        match self.rx.recv_deadline(&self.rt, deadline) {
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err(timed_out()),
            Err(_) => Err(eof()),
        }
    }

    fn shutdown(&self) {
        // Closing both directions unblocks the peer's recv too.
        self.tx.close(&self.rt);
        self.rx.close(&self.rt);
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

// ---------------------------------------------------------------- faulty

/// A [`Link`] decorator that applies a seeded [`NetFault`] plan at the
/// send and receive points: drops, delays (via the runtime clock, so
/// they are virtual under the sim), duplicates, single-byte corruption,
/// and forced disconnects.
pub struct FaultyLink {
    inner: Arc<dyn Link>,
    fault: Arc<NetFault>,
    rt: Runtime,
}

impl FaultyLink {
    /// Wrap `inner` with the given fault state.
    pub fn new(rt: &Runtime, inner: Arc<dyn Link>, fault: Arc<NetFault>) -> FaultyLink {
        FaultyLink {
            inner,
            fault,
            rt: rt.clone(),
        }
    }

    /// Receive until a frame survives the plan or the absolute tick
    /// `deadline` passes; a dropped frame does not restart the bound.
    fn recv_until(&self, deadline: Option<u64>) -> io::Result<Vec<u8>> {
        loop {
            let frame = match deadline {
                None => self.inner.recv()?,
                Some(at) => match at.saturating_sub(self.rt.now()) {
                    0 => return Err(timed_out()),
                    remaining => self.inner.recv_deadline(remaining)?,
                },
            };
            match self.fault.on_recv() {
                RecvPlan::Drop => continue,
                RecvPlan::Deliver { delay_ticks } => {
                    self.rt.sleep(delay_ticks);
                    return Ok(frame);
                }
            }
        }
    }
}

impl Link for FaultyLink {
    fn send(&self, frame: &[u8]) -> io::Result<()> {
        match self.fault.on_send() {
            SendPlan::Drop => Ok(()), // vanished in flight; sender can't tell
            SendPlan::Disconnect => {
                self.inner.shutdown();
                Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "fault injection: forced disconnect",
                ))
            }
            SendPlan::Deliver {
                delay_ticks,
                dup,
                corrupt,
            } => {
                self.rt.sleep(delay_ticks);
                let bytes: Vec<u8>;
                let payload: &[u8] = if let Some((offset_seed, mask)) = corrupt {
                    let mut damaged = frame.to_vec();
                    if damaged.len() > HEADER_LEN {
                        // Damage checksummed bytes only (crc or body):
                        // corrupting the length prefix desyncs stream
                        // framing, which is the disconnect fault, not the
                        // corruption fault.
                        let span = damaged.len() - 4;
                        let off = 4 + (offset_seed as usize) % span;
                        damaged[off] ^= mask;
                    }
                    bytes = damaged;
                    &bytes
                } else {
                    frame
                };
                self.inner.send(payload)?;
                if dup {
                    self.inner.send(payload)?;
                }
                Ok(())
            }
        }
    }

    fn recv(&self) -> io::Result<Vec<u8>> {
        self.recv_until(None)
    }

    fn recv_deadline(&self, ticks: u64) -> io::Result<Vec<u8>> {
        self.recv_until(Some(self.rt.now().saturating_add(ticks)))
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NetFaultPlan;
    use crate::wire::{decode_frame, encode_frame, Frame, FrameError, PROTO_VERSION};

    fn hello() -> Vec<u8> {
        encode_frame(&Frame::Hello {
            version: PROTO_VERSION,
            session: 9,
            object: "X".into(),
        })
        .unwrap()
    }

    #[test]
    fn mem_link_round_trips_frames() {
        let rt = Runtime::threaded();
        let (client, server) = MemLink::pair(&rt, "t");
        client.send(&hello()).unwrap();
        let got = server.recv().unwrap();
        assert_eq!(got, hello());
        server.shutdown();
        assert!(client.recv().is_err());
        assert!(client.send(&hello()).is_err());
    }

    #[test]
    fn faulty_link_corruption_is_detectable_not_desyncing() {
        let rt = Runtime::threaded();
        let (client, server) = MemLink::pair(&rt, "t");
        let mut plan = NetFaultPlan::seeded(3);
        plan.corrupt_rate = 1.0;
        let faulty = FaultyLink::new(&rt, client.clone(), Arc::new(NetFault::new(plan)));
        for _ in 0..50 {
            faulty.send(&hello()).unwrap();
            let got = server.recv().unwrap();
            // Every frame was corrupted past the length prefix, so it
            // still frames correctly and decodes to a clean checksum (or
            // header-crc) error — never a panic, never a wrong frame.
            assert_eq!(got.len(), hello().len());
            match decode_frame(&got) {
                Err(FrameError::Checksum { .. }) => {}
                other => panic!("corrupted frame decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn faulty_link_disconnect_every_kills_the_pipe() {
        let rt = Runtime::threaded();
        let (client, server) = MemLink::pair(&rt, "t");
        let mut plan = NetFaultPlan::seeded(3);
        plan.disconnect_every = 3;
        let faulty = FaultyLink::new(&rt, client.clone(), Arc::new(NetFault::new(plan)));
        faulty.send(&hello()).unwrap();
        faulty.send(&hello()).unwrap();
        let err = faulty.send(&hello()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // The inner link was shut down, so the server sees EOF after
        // draining what was delivered.
        server.recv().unwrap();
        server.recv().unwrap();
        assert!(server.recv().is_err());
    }

    #[test]
    fn recv_deadline_gives_up_on_a_silent_peer() {
        let rt = Runtime::threaded();
        let (client, server) = MemLink::pair(&rt, "t");
        let err = client.recv_deadline(2_000).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        server.send(&hello()).unwrap();
        assert_eq!(client.recv_deadline(2_000).unwrap(), hello());

        // A plan that drops every received frame: the bound still holds.
        let mut plan = NetFaultPlan::seeded(3);
        plan.drop_recv = 1.0;
        let faulty = FaultyLink::new(&rt, client, Arc::new(NetFault::new(plan)));
        server.send(&hello()).unwrap();
        let err = faulty.recv_deadline(2_000).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let link = TcpLink::new(std::net::TcpStream::connect(addr).unwrap()).unwrap();
        let (peer, _) = listener.accept().unwrap();
        let peer = TcpLink::new(peer).unwrap();
        let err = link.recv_deadline(2_000).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // Unbounded again after a bounded receive.
        peer.send(&hello()).unwrap();
        assert_eq!(link.recv().unwrap(), hello());
    }

    #[test]
    fn tcp_link_round_trips_frames() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let link = TcpLink::new(s).unwrap();
            let got = link.recv().unwrap();
            link.send(&got).unwrap();
        });
        let link = TcpLink::new(std::net::TcpStream::connect(addr).unwrap()).unwrap();
        link.send(&hello()).unwrap();
        assert_eq!(link.recv().unwrap(), hello());
        t.join().unwrap();
        // The peer is gone: the next read is an orderly close.
        assert_eq!(
            link.recv().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }
}
