//! The ALPS wire protocol: length-prefixed, checksummed frames carrying
//! handshakes, calls, and replies between processes.
//!
//! # Frame layout
//!
//! ```text
//! [len: u32 le] [crc: u32 le] [body: len bytes]
//! body = [kind: u8] [payload…]
//! ```
//!
//! `len` counts only the body; `crc` is FNV-1a over the body. The
//! checksum is the partial-failure defence for the *corrupt* transport
//! fault: a flipped payload byte fails the checksum and the whole link is
//! torn down — a frame is never delivered to the wrong call id, because a
//! frame with a damaged correlation id never decodes at all.
//!
//! # Frames
//!
//! | kind | frame | payload |
//! |------|-------|---------|
//! | 1 | `Hello` | version u16, session u64, object name |
//! | 2 | `HelloAck` | entry table: (name, entry index) pairs |
//! | 3 | `HelloErr` | a [`WireErr`] |
//! | 4 | `Call` | call id u64, ack_below u64, entry u32, budget u64, args |
//! | 5 | `Reply` | call id u64, ok flag, results **or** [`WireErr`] |
//!
//! The handshake interns [`EntryId`](alps_core::EntryId)s once per
//! connection: `HelloAck` carries the server's `(name → index)` table, so
//! a steady-state `Call` frame names its entry with a bare `u32` — the
//! wire analogue of [`ObjectHandle::entry_id`](alps_core::ObjectHandle::entry_id).
//!
//! Deadlines cross the boundary as *remaining budgets*, never absolute
//! ticks: the two processes do not share a clock, so the client computes
//! `deadline - now` at send time and the server re-anchors the budget on
//! its own clock (`budget == u64::MAX` means "no deadline").
//!
//! # Robustness contract
//!
//! [`decode_frame`] is total: any byte string either decodes to a frame
//! or returns a [`FrameError`] — it never panics and never reads out of
//! bounds, which the seeded corruption test (`tests/wire_corruption.rs`)
//! pins by flipping and truncating valid frames.

use std::fmt;

use alps_core::{AlpsError, ValVec, Value};

/// Protocol version carried in `Hello`; bumped on incompatible change.
pub const PROTO_VERSION: u16 = 1;

/// Frame header length: `len` + `crc`.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a frame body. A corrupted length field therefore
/// cannot make a reader allocate or wait for gigabytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Budget value meaning "no deadline".
pub const NO_BUDGET: u64 = u64::MAX;

const MAX_STR: usize = 1 << 16;
const MAX_VALS: usize = 1 << 16;
const MAX_DEPTH: usize = 16;

/// FNV-1a over the frame body — cheap, dependency-free corruption
/// detection (not cryptographic; the threat model is bit rot and fault
/// injection, not an adversary).
pub fn checksum(body: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in body {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Decode failure. Every variant is a *clean* error: the decoder never
/// panics, and a failed frame tears the link down rather than guessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header (or its declared length) promises.
    Truncated,
    /// Declared body length exceeds [`MAX_FRAME`].
    Oversize {
        /// The declared body length.
        len: usize,
    },
    /// Body checksum mismatch — the frame was corrupted in flight.
    Checksum {
        /// Checksum the header carried.
        expected: u32,
        /// Checksum recomputed over the received body.
        got: u32,
    },
    /// Unknown frame kind byte.
    UnknownKind(u8),
    /// Unknown value tag byte inside a payload.
    UnknownTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A list nested deeper than the decoder's recursion bound.
    TooDeep,
    /// A count field exceeded its sanity bound.
    TooMany {
        /// The declared element count.
        count: usize,
    },
    /// The body decoded but left unconsumed bytes.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The peer speaks a different protocol version.
    BadVersion {
        /// Version the peer announced.
        got: u16,
    },
    /// The value cannot cross the wire (first-class channels are
    /// process-local capabilities).
    Unsupported(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::Oversize { len } => {
                write!(f, "declared frame length {len} exceeds cap {MAX_FRAME}")
            }
            FrameError::Checksum { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: header {expected:#x}, body {got:#x}"
                )
            }
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::UnknownTag(t) => write!(f, "unknown value tag {t}"),
            FrameError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            FrameError::TooDeep => write!(f, "value nests deeper than {MAX_DEPTH}"),
            FrameError::TooMany { count } => write!(f, "count field {count} exceeds sanity bound"),
            FrameError::TrailingBytes { extra } => {
                write!(f, "frame decoded with {extra} trailing byte(s)")
            }
            FrameError::BadVersion { got } => {
                write!(
                    f,
                    "peer speaks protocol version {got}, this side {PROTO_VERSION}"
                )
            }
            FrameError::Unsupported(what) => write!(f, "cannot serialize {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A serializable error: the wire image of the [`AlpsError`] taxonomy the
/// server propagates to remote callers ([`err_to_wire`]/[`wire_to_err`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireErr {
    /// Variant code (see `err_to_wire`).
    pub code: u8,
    /// First string field (object, entry, or message — variant-specific).
    pub a: String,
    /// Second string field.
    pub b: String,
    /// Numeric field (ticks, arity, …).
    pub aux: u64,
}

const E_CUSTOM: u8 = 0;
const E_OPAQUE: u8 = 1;
const E_OVERLOADED: u8 = 2;
const E_RESTARTING: u8 = 3;
const E_POISONED: u8 = 4;
const E_CLOSED: u8 = 5;
const E_TIMEOUT: u8 = 6;
// Code 7 was `Cancelled`, an error the manager no longer raises. Never
// reuse it: an older peer may still send it, and it must keep decoding
// as `Custom`.
const E_BODY_FAILED: u8 = 8;
const E_UNKNOWN_ENTRY: u8 = 9;
const E_LOCAL_ENTRY: u8 = 10;
const E_ARITY: u8 = 11;

/// Map a server-side error onto its wire image. The transient taxonomy
/// the retry machinery depends on — `Overloaded`, `ObjectRestarting`,
/// `Timeout`, plus the terminal `ObjectPoisoned` — survives the crossing
/// exactly; variants with no remote meaning collapse to an opaque
/// rendering of their `Display` form.
pub fn err_to_wire(e: &AlpsError) -> WireErr {
    let w = |code: u8, a: &str, b: &str, aux: u64| WireErr {
        code,
        a: a.to_string(),
        b: b.to_string(),
        aux,
    };
    match e {
        AlpsError::Overloaded { object } => w(E_OVERLOADED, object, "", 0),
        AlpsError::ObjectRestarting { object } => w(E_RESTARTING, object, "", 0),
        AlpsError::ObjectPoisoned { object } => w(E_POISONED, object, "", 0),
        AlpsError::ObjectClosed { object } => w(E_CLOSED, object, "", 0),
        AlpsError::Timeout { what, ticks } => w(E_TIMEOUT, what, "", *ticks),
        AlpsError::BodyFailed { entry, message } => w(E_BODY_FAILED, entry, message, 0),
        AlpsError::UnknownEntry { object, entry } => w(E_UNKNOWN_ENTRY, object, entry, 0),
        AlpsError::LocalEntryCalled { object, entry } => w(E_LOCAL_ENTRY, object, entry, 0),
        AlpsError::ArityMismatch {
            what,
            expected,
            got,
        } => w(
            E_ARITY,
            what,
            "",
            ((*expected as u64) << 32) | (*got as u64 & 0xffff_ffff),
        ),
        AlpsError::Custom(msg) => w(E_CUSTOM, msg, "", 0),
        other => w(E_OPAQUE, &other.to_string(), "", 0),
    }
}

/// Inverse of [`err_to_wire`]. Unknown codes decode to
/// [`AlpsError::Custom`] — a forward-compatible failure, never a panic.
pub fn wire_to_err(w: &WireErr) -> AlpsError {
    match w.code {
        E_OVERLOADED => AlpsError::Overloaded {
            object: w.a.clone(),
        },
        E_RESTARTING => AlpsError::ObjectRestarting {
            object: w.a.clone(),
        },
        E_POISONED => AlpsError::ObjectPoisoned {
            object: w.a.clone(),
        },
        E_CLOSED => AlpsError::ObjectClosed {
            object: w.a.clone(),
        },
        E_TIMEOUT => AlpsError::Timeout {
            what: w.a.clone(),
            ticks: w.aux,
        },
        E_BODY_FAILED => AlpsError::BodyFailed {
            entry: w.a.clone(),
            message: w.b.clone(),
        },
        E_UNKNOWN_ENTRY => AlpsError::UnknownEntry {
            object: w.a.clone(),
            entry: w.b.clone(),
        },
        E_LOCAL_ENTRY => AlpsError::LocalEntryCalled {
            object: w.a.clone(),
            entry: w.b.clone(),
        },
        E_ARITY => AlpsError::ArityMismatch {
            what: w.a.clone(),
            expected: (w.aux >> 32) as usize,
            got: (w.aux & 0xffff_ffff) as usize,
        },
        E_CUSTOM => AlpsError::Custom(w.a.clone()),
        _ => AlpsError::Custom(format!("remote error: {}", w.a)),
    }
}

/// One decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server connection opener. `session` identifies the
    /// logical client across reconnects: the server keys its
    /// duplicate-suppression cache on it, so a call retried over a fresh
    /// connection is still at-most-once-executed.
    Hello {
        /// Protocol version ([`PROTO_VERSION`]).
        version: u16,
        /// Client-chosen session id, stable across reconnects.
        session: u64,
        /// Name of the object the client wants to call.
        object: String,
    },
    /// Server → client handshake acceptance: the object's entry table.
    HelloAck {
        /// `(entry name, wire entry index)` pairs.
        entries: Vec<(String, u32)>,
    },
    /// Server → client handshake refusal (unknown object, bad version).
    HelloErr {
        /// Why the handshake failed.
        err: WireErr,
    },
    /// Client → server call. `call` correlates the eventual reply;
    /// `ack_below` tells the server every call id below it is resolved
    /// client-side, licensing reply-cache pruning.
    Call {
        /// Correlation id, unique per session.
        call: u64,
        /// All call ids `< ack_below` are resolved; the server may drop
        /// their cached replies.
        ack_below: u64,
        /// Wire entry index from the `HelloAck` table.
        entry: u32,
        /// Remaining deadline budget in ticks ([`NO_BUDGET`] = none).
        budget: u64,
        /// Call arguments.
        args: ValVec,
    },
    /// Server → client reply, correlated by call id.
    Reply {
        /// The `Call` frame's correlation id.
        call: u64,
        /// Results, or the server-side error.
        result: Result<ValVec, WireErr>,
    },
}

const K_HELLO: u8 = 1;
const K_HELLO_ACK: u8 = 2;
const K_HELLO_ERR: u8 = 3;
const K_CALL: u8 = 4;
const K_REPLY: u8 = 5;

// ---------------------------------------------------------------- encode

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) -> Result<(), FrameError> {
        if s.len() > MAX_STR {
            return Err(FrameError::TooMany { count: s.len() });
        }
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
    fn value(&mut self, v: &Value, depth: usize) -> Result<(), FrameError> {
        if depth > MAX_DEPTH {
            return Err(FrameError::TooDeep);
        }
        match v {
            Value::Unit => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.u8(u8::from(*b));
            }
            Value::Int(i) => {
                self.u8(2);
                self.u64(*i as u64);
            }
            Value::Float(x) => {
                self.u8(3);
                self.u64(x.to_bits());
            }
            Value::Str(s) => {
                self.u8(4);
                self.str(s)?;
            }
            Value::List(xs) => {
                if xs.len() > MAX_VALS {
                    return Err(FrameError::TooMany { count: xs.len() });
                }
                self.u8(5);
                self.u32(xs.len() as u32);
                for x in xs {
                    self.value(x, depth + 1)?;
                }
            }
            Value::Chan(_) => {
                // A channel is a process-local capability (its queue lives
                // in this runtime); there is nothing meaningful to send.
                return Err(FrameError::Unsupported("a first-class channel value"));
            }
        }
        Ok(())
    }
    fn vals(&mut self, vs: &ValVec) -> Result<(), FrameError> {
        let s = vs.as_slice();
        if s.len() > MAX_VALS {
            return Err(FrameError::TooMany { count: s.len() });
        }
        self.u32(s.len() as u32);
        for v in s {
            self.value(v, 0)?;
        }
        Ok(())
    }
    fn err(&mut self, e: &WireErr) -> Result<(), FrameError> {
        self.u8(e.code);
        self.str(&e.a)?;
        self.str(&e.b)?;
        self.u64(e.aux);
        Ok(())
    }
}

/// Encode a frame to its full on-wire byte image (header + body).
///
/// # Errors
///
/// [`FrameError::Unsupported`] when a value cannot cross the wire (a
/// first-class channel), [`FrameError::TooMany`]/[`FrameError::TooDeep`]
/// when a payload exceeds the decoder's sanity bounds (so the peer would
/// reject it anyway).
pub fn encode_frame(f: &Frame) -> Result<Vec<u8>, FrameError> {
    let mut e = Enc { buf: Vec::new() };
    match f {
        Frame::Hello {
            version,
            session,
            object,
        } => {
            e.u8(K_HELLO);
            e.u16(*version);
            e.u64(*session);
            e.str(object)?;
        }
        Frame::HelloAck { entries } => {
            if entries.len() > MAX_VALS {
                return Err(FrameError::TooMany {
                    count: entries.len(),
                });
            }
            e.u8(K_HELLO_ACK);
            e.u32(entries.len() as u32);
            for (name, idx) in entries {
                e.str(name)?;
                e.u32(*idx);
            }
        }
        Frame::HelloErr { err } => {
            e.u8(K_HELLO_ERR);
            e.err(err)?;
        }
        Frame::Call {
            call,
            ack_below,
            entry,
            budget,
            args,
        } => {
            e.u8(K_CALL);
            e.u64(*call);
            e.u64(*ack_below);
            e.u32(*entry);
            e.u64(*budget);
            e.vals(args)?;
        }
        Frame::Reply { call, result } => {
            e.u8(K_REPLY);
            e.u64(*call);
            match result {
                Ok(vals) => {
                    e.u8(1);
                    e.vals(vals)?;
                }
                Err(err) => {
                    e.u8(0);
                    e.err(err)?;
                }
            }
        }
    }
    let body = e.buf;
    debug_assert!(body.len() <= MAX_FRAME);
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(&body).to_le_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

// ---------------------------------------------------------------- decode

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    fn str(&mut self) -> Result<String, FrameError> {
        let n = self.u32()? as usize;
        if n > MAX_STR {
            return Err(FrameError::TooMany { count: n });
        }
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| FrameError::BadUtf8)
    }
    fn value(&mut self, depth: usize) -> Result<Value, FrameError> {
        if depth > MAX_DEPTH {
            return Err(FrameError::TooDeep);
        }
        match self.u8()? {
            0 => Ok(Value::Unit),
            1 => Ok(Value::Bool(self.u8()? != 0)),
            2 => Ok(Value::Int(self.u64()? as i64)),
            3 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            4 => Ok(Value::str(self.str()?)),
            5 => {
                let n = self.u32()? as usize;
                if n > MAX_VALS {
                    return Err(FrameError::TooMany { count: n });
                }
                // Cap pre-allocation by what the buffer could possibly
                // hold (1 byte per value minimum): a corrupt count can
                // not force a huge allocation before Truncated fires.
                let mut xs = Vec::with_capacity(n.min(self.buf.len() - self.pos));
                for _ in 0..n {
                    xs.push(self.value(depth + 1)?);
                }
                Ok(Value::List(xs))
            }
            t => Err(FrameError::UnknownTag(t)),
        }
    }
    fn vals(&mut self) -> Result<ValVec, FrameError> {
        let n = self.u32()? as usize;
        if n > MAX_VALS {
            return Err(FrameError::TooMany { count: n });
        }
        let mut out = ValVec::new();
        for _ in 0..n {
            out.push(self.value(0)?);
        }
        Ok(out)
    }
    fn err(&mut self) -> Result<WireErr, FrameError> {
        Ok(WireErr {
            code: self.u8()?,
            a: self.str()?,
            b: self.str()?,
            aux: self.u64()?,
        })
    }
}

/// Decode one frame from the **front** of `bytes` (which must contain the
/// complete frame — links deliver whole frames). Returns the frame and
/// the number of bytes consumed.
///
/// Total: every possible byte string returns either a frame or a
/// [`FrameError`]; the decoder never panics, never over-reads, and a
/// body whose checksum fails is rejected before any field is interpreted
/// — a corrupted correlation id can therefore never misdeliver a reply.
///
/// # Errors
///
/// See [`FrameError`].
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), FrameError> {
    if bytes.len() < HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversize { len });
    }
    let expected = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let total = HEADER_LEN + len;
    if bytes.len() < total {
        return Err(FrameError::Truncated);
    }
    let body = &bytes[HEADER_LEN..total];
    let got = checksum(body);
    if got != expected {
        return Err(FrameError::Checksum { expected, got });
    }
    let mut d = Dec { buf: body, pos: 0 };
    let frame = match d.u8()? {
        K_HELLO => Frame::Hello {
            version: d.u16()?,
            session: d.u64()?,
            object: d.str()?,
        },
        K_HELLO_ACK => {
            let n = d.u32()? as usize;
            if n > MAX_VALS {
                return Err(FrameError::TooMany { count: n });
            }
            let mut entries = Vec::with_capacity(n.min(body.len()));
            for _ in 0..n {
                let name = d.str()?;
                let idx = d.u32()?;
                entries.push((name, idx));
            }
            Frame::HelloAck { entries }
        }
        K_HELLO_ERR => Frame::HelloErr { err: d.err()? },
        K_CALL => Frame::Call {
            call: d.u64()?,
            ack_below: d.u64()?,
            entry: d.u32()?,
            budget: d.u64()?,
            args: d.vals()?,
        },
        K_REPLY => {
            let call = d.u64()?;
            let ok = d.u8()?;
            let result = if ok != 0 {
                Ok(d.vals()?)
            } else {
                Err(d.err()?)
            };
            Frame::Reply { call, result }
        }
        k => return Err(FrameError::UnknownKind(k)),
    };
    if d.pos != body.len() {
        return Err(FrameError::TrailingBytes {
            extra: body.len() - d.pos,
        });
    }
    Ok((frame, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alps_core::vals;

    fn roundtrip(f: Frame) {
        let bytes = encode_frame(&f).unwrap();
        let (back, used) = decode_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Hello {
            version: PROTO_VERSION,
            session: 0xdead_beef,
            object: "Counter".into(),
        });
        roundtrip(Frame::HelloAck {
            entries: vec![("Bump".into(), 0), ("Get".into(), 1)],
        });
        roundtrip(Frame::HelloErr {
            err: err_to_wire(&AlpsError::Custom("no such object".into())),
        });
        roundtrip(Frame::Call {
            call: 42,
            ack_below: 40,
            entry: 1,
            budget: NO_BUDGET,
            args: ValVec::from(vals![7i64, "key", 2.5f64, true]),
        });
        roundtrip(Frame::Reply {
            call: 42,
            result: Ok(ValVec::from(vals![Value::List(vals![1i64, 2i64])])),
        });
        roundtrip(Frame::Reply {
            call: 43,
            result: Err(err_to_wire(&AlpsError::Overloaded {
                object: "Counter".into(),
            })),
        });
    }

    #[test]
    fn error_taxonomy_survives_the_crossing() {
        let cases = vec![
            AlpsError::Overloaded { object: "X".into() },
            AlpsError::ObjectRestarting { object: "X".into() },
            AlpsError::ObjectPoisoned { object: "X".into() },
            AlpsError::ObjectClosed { object: "X".into() },
            AlpsError::Timeout {
                what: "P".into(),
                ticks: 500,
            },
            AlpsError::BodyFailed {
                entry: "P".into(),
                message: "boom".into(),
            },
            AlpsError::UnknownEntry {
                object: "X".into(),
                entry: "Q".into(),
            },
            AlpsError::LocalEntryCalled {
                object: "X".into(),
                entry: "L".into(),
            },
            AlpsError::ArityMismatch {
                what: "P".into(),
                expected: 2,
                got: 3,
            },
            AlpsError::Custom("app error".into()),
        ];
        for e in cases {
            let back = wire_to_err(&err_to_wire(&e));
            assert_eq!(back, e, "taxonomy drifted for {e}");
            assert_eq!(
                back.is_retryable(),
                e.is_retryable(),
                "retryability must survive the wire for {e}"
            );
        }
    }

    #[test]
    fn opaque_variants_collapse_to_custom() {
        let e = AlpsError::SelectFailed;
        let back = wire_to_err(&err_to_wire(&e));
        assert!(matches!(back, AlpsError::Custom(_)));
        assert!(!back.is_retryable());
        // The retired `Cancelled` code from an older peer.
        let old = WireErr {
            code: 7,
            a: "P".into(),
            b: String::new(),
            aux: 0,
        };
        assert!(matches!(wire_to_err(&old), AlpsError::Custom(_)));
    }

    #[test]
    fn channels_refuse_to_cross() {
        use alps_core::{ChanValue, Ty};
        let f = Frame::Call {
            call: 1,
            ack_below: 0,
            entry: 0,
            budget: NO_BUDGET,
            args: ValVec::from(vec![Value::Chan(ChanValue::new("c", vec![Ty::Int]))]),
        };
        assert_eq!(
            encode_frame(&f),
            Err(FrameError::Unsupported("a first-class channel value"))
        );
    }

    #[test]
    fn corrupt_byte_fails_checksum() {
        let bytes = encode_frame(&Frame::Reply {
            call: 7,
            result: Ok(ValVec::from(vals![1i64])),
        })
        .unwrap();
        for i in HEADER_LEN..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            match decode_frame(&bad) {
                Err(FrameError::Checksum { .. }) => {}
                other => panic!("flip at {i} produced {other:?}, not a checksum error"),
            }
        }
    }

    #[test]
    fn truncation_is_clean() {
        let bytes = encode_frame(&Frame::Hello {
            version: PROTO_VERSION,
            session: 1,
            object: "X".into(),
        })
        .unwrap();
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(FrameError::Truncated) => {}
                other => panic!("cut at {cut} produced {other:?}"),
            }
        }
    }

    #[test]
    fn oversize_length_is_rejected_before_allocation() {
        let mut bytes = vec![0u8; HEADER_LEN];
        bytes[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Oversize { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // A valid Hello body with one extra byte appended, checksummed so
        // the corruption is structural, not bit-level.
        let inner = encode_frame(&Frame::Hello {
            version: PROTO_VERSION,
            session: 1,
            object: "X".into(),
        })
        .unwrap();
        let mut body = inner[HEADER_LEN..].to_vec();
        body.push(0);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&checksum(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::TrailingBytes { extra: 1 })
        );
    }
}
