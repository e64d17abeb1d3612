//! The dynamic value system used across the object boundary.
//!
//! ALPS is a statically typed Pascal-like language; its compiler would
//! marshal entry-call parameters and results into typed slots. The
//! embedded Rust API plays the role of that compiled code, so values that
//! cross an object boundary (invocation parameters, results, channel
//! messages) are represented dynamically as [`Value`] with runtime type
//! checks against [`Ty`] signatures. The `alps-lang` interpreter performs
//! static checking before execution, so well-typed ALPS programs never
//! trip these checks.

use std::fmt;
use std::sync::Arc;

use alps_runtime::{Chan, Runtime};

use crate::error::{AlpsError, Result};

/// Runtime type tags for [`Value`]s.
///
/// `chan(T1,…,Tn)` mirrors the paper's channel declarations (§2.1.2);
/// channels are first-class and may appear inside messages and parameter
/// lists.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// No value.
    Unit,
    /// Boolean.
    Bool,
    /// 64-bit signed integer (ALPS `int`).
    Int,
    /// 64-bit float (ALPS `float`).
    Float,
    /// Immutable string (ALPS `string`).
    Str,
    /// Channel carrying tuples with the given element types.
    Chan(Vec<Ty>),
    /// Homogeneous list.
    List(Box<Ty>),
    /// Matches any value (used for generic plumbing, not exposed by the
    /// ALPS surface language).
    Any,
}

impl Ty {
    /// Whether `v` is acceptable where this type is declared.
    pub fn accepts(&self, v: &Value) -> bool {
        match (self, v) {
            (Ty::Any, _) => true,
            (Ty::Unit, Value::Unit) => true,
            (Ty::Bool, Value::Bool(_)) => true,
            (Ty::Int, Value::Int(_)) => true,
            (Ty::Float, Value::Float(_)) => true,
            (Ty::Str, Value::Str(_)) => true,
            (Ty::Chan(sig), Value::Chan(c)) => c.sig() == sig.as_slice(),
            (Ty::List(elem), Value::List(xs)) => xs.iter().all(|x| elem.accepts(x)),
            _ => false,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Unit => write!(f, "unit"),
            Ty::Bool => write!(f, "bool"),
            Ty::Int => write!(f, "int"),
            Ty::Float => write!(f, "float"),
            Ty::Str => write!(f, "string"),
            Ty::Chan(sig) => {
                write!(f, "chan(")?;
                for (i, t) in sig.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Ty::List(t) => write!(f, "list({t})"),
            Ty::Any => write!(f, "any"),
        }
    }
}

/// A dynamically typed ALPS value.
///
/// # Examples
///
/// ```
/// use alps_core::{Ty, Value};
///
/// let v = Value::from(42i64);
/// assert_eq!(v.ty(), Ty::Int);
/// assert_eq!(v.as_int().unwrap(), 42);
/// assert_eq!(v.to_string(), "42");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// No value.
    Unit,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Immutable shared string.
    Str(Arc<str>),
    /// First-class channel handle.
    Chan(ChanValue),
    /// Homogeneous list.
    List(Vec<Value>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The runtime type of this value. Lists report the type of their
    /// first element (`list(any)` when empty).
    pub fn ty(&self) -> Ty {
        match self {
            Value::Unit => Ty::Unit,
            Value::Bool(_) => Ty::Bool,
            Value::Int(_) => Ty::Int,
            Value::Float(_) => Ty::Float,
            Value::Str(_) => Ty::Str,
            Value::Chan(c) => Ty::Chan(c.sig().to_vec()),
            Value::List(xs) => Ty::List(Box::new(xs.first().map(Value::ty).unwrap_or(Ty::Any))),
        }
    }

    /// Extract an `i64`.
    ///
    /// # Errors
    ///
    /// [`AlpsError::TypeMismatch`] when the value is not an `Int`.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(type_err("value", Ty::Int, other)),
        }
    }

    /// Extract a `bool`.
    ///
    /// # Errors
    ///
    /// [`AlpsError::TypeMismatch`] when the value is not a `Bool`.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(type_err("value", Ty::Bool, other)),
        }
    }

    /// Extract an `f64`.
    ///
    /// # Errors
    ///
    /// [`AlpsError::TypeMismatch`] when the value is not a `Float`.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(x) => Ok(*x),
            other => Err(type_err("value", Ty::Float, other)),
        }
    }

    /// Extract a string slice.
    ///
    /// # Errors
    ///
    /// [`AlpsError::TypeMismatch`] when the value is not a `Str`.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(type_err("value", Ty::Str, other)),
        }
    }

    /// Extract a channel handle.
    ///
    /// # Errors
    ///
    /// [`AlpsError::TypeMismatch`] when the value is not a `Chan`.
    pub fn as_chan(&self) -> Result<&ChanValue> {
        match self {
            Value::Chan(c) => Ok(c),
            other => Err(type_err("value", Ty::Chan(vec![]), other)),
        }
    }

    /// Extract a list slice.
    ///
    /// # Errors
    ///
    /// [`AlpsError::TypeMismatch`] when the value is not a `List`.
    pub fn as_list(&self) -> Result<&[Value]> {
        match self {
            Value::List(xs) => Ok(xs),
            other => Err(type_err("value", Ty::List(Box::new(Ty::Any)), other)),
        }
    }
}

fn type_err(what: &str, expected: Ty, got: &Value) -> AlpsError {
    AlpsError::TypeMismatch {
        what: what.to_string(),
        index: 0,
        expected,
        got: got.ty(),
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Chan(c) => write!(f, "<chan {}>", c.name()),
            Value::List(xs) => {
                write!(f, "[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl From<ChanValue> for Value {
    fn from(v: ChanValue) -> Self {
        Value::Chan(v)
    }
}
impl From<()> for Value {
    fn from(_: ()) -> Self {
        Value::Unit
    }
}

/// Build a `Vec<Value>` argument list from heterogeneous Rust values.
///
/// ```
/// use alps_core::{vals, Value};
/// let args = vals![1i64, "hello", true];
/// assert_eq!(args.len(), 3);
/// assert_eq!(args[0], Value::Int(1));
/// ```
#[macro_export]
macro_rules! vals {
    () => { Vec::<$crate::Value>::new() };
    ($($v:expr),+ $(,)?) => {
        vec![$($crate::Value::from($v)),+]
    };
}

/// Check an argument vector against a type signature.
///
/// # Errors
///
/// [`AlpsError::ArityMismatch`] or [`AlpsError::TypeMismatch`] naming
/// `what` and the offending position.
pub fn check_types(what: &str, sig: &[Ty], vals: &[Value]) -> Result<()> {
    check_types_lazy(sig, vals, || what.to_string())
}

/// Like [`check_types`] but the description string is only built on
/// failure, keeping the success path allocation-free. Hot-path callers
/// (every entry invocation type-checks its arguments) use this form.
///
/// # Errors
///
/// Same as [`check_types`].
pub fn check_types_lazy(sig: &[Ty], vals: &[Value], what: impl FnOnce() -> String) -> Result<()> {
    if sig.len() != vals.len() {
        return Err(AlpsError::ArityMismatch {
            what: what(),
            expected: sig.len(),
            got: vals.len(),
        });
    }
    for (i, (t, v)) in sig.iter().zip(vals).enumerate() {
        if !t.accepts(v) {
            return Err(AlpsError::TypeMismatch {
                what: what(),
                index: i,
                expected: t.clone(),
                got: v.ty(),
            });
        }
    }
    Ok(())
}

/// Inline capacity of [`ValVec`]: argument/result tuples of this arity or
/// less live entirely on the stack.
pub const INLINE_VALS: usize = 4;

/// A small-vector of [`Value`]s used for entry-call arguments and results.
///
/// The common entry arity in ALPS programs is ≤ 4, so the fast call path
/// keeps tuples inline and performs no heap allocation. Longer tuples
/// spill to an ordinary `Vec`. Dereferences to `[Value]`, so indexing and
/// iteration work exactly like a `Vec<Value>`.
///
/// ```
/// use alps_core::{argv, ValVec, Value};
/// let a = argv![1i64, "x"];
/// assert_eq!(a.len(), 2);
/// assert_eq!(a[0], Value::Int(1));
/// let v: Vec<Value> = a.into();
/// assert_eq!(v.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub enum ValVec {
    /// Up to [`INLINE_VALS`] values on the stack; unused slots hold
    /// `Value::Unit`.
    Inline {
        /// Inline storage; slots at `len..` are `Value::Unit`.
        buf: [Value; INLINE_VALS],
        /// Number of live values in `buf`.
        len: u8,
    },
    /// Spilled storage for longer tuples.
    Heap(Vec<Value>),
}

const UNIT: Value = Value::Unit;

impl ValVec {
    /// An empty, inline tuple.
    pub const fn new() -> ValVec {
        ValVec::Inline {
            buf: [UNIT; INLINE_VALS],
            len: 0,
        }
    }

    /// Append a value, spilling to the heap past [`INLINE_VALS`].
    pub fn push(&mut self, v: Value) {
        match self {
            ValVec::Inline { buf, len } => {
                let n = *len as usize;
                if n < INLINE_VALS {
                    buf[n] = v;
                    *len += 1;
                } else {
                    let mut heap = Vec::with_capacity(INLINE_VALS * 2);
                    for slot in buf.iter_mut() {
                        heap.push(std::mem::replace(slot, UNIT));
                    }
                    heap.push(v);
                    *self = ValVec::Heap(heap);
                }
            }
            ValVec::Heap(h) => h.push(v),
        }
    }

    /// Clone a slice into a `ValVec`, staying inline when it fits. This is
    /// what intercept-prefix extraction uses so that taking the first *k*
    /// arguments of a call costs no allocation for k ≤ 4.
    pub fn from_slice(s: &[Value]) -> ValVec {
        if s.len() <= INLINE_VALS {
            let mut buf = [UNIT; INLINE_VALS];
            for (slot, v) in buf.iter_mut().zip(s) {
                *slot = v.clone();
            }
            ValVec::Inline {
                buf,
                len: s.len() as u8,
            }
        } else {
            ValVec::Heap(s.to_vec())
        }
    }

    /// The values as a slice.
    pub fn as_slice(&self) -> &[Value] {
        match self {
            ValVec::Inline { buf, len } => &buf[..*len as usize],
            ValVec::Heap(h) => h,
        }
    }

    /// Whether this tuple lives entirely on the stack.
    pub fn is_inline(&self) -> bool {
        matches!(self, ValVec::Inline { .. })
    }

    /// Split the tuple at `at`: `self` keeps `[..at]`, the returned tuple
    /// takes `[at..]` — both by move, the zero-copy analogue of a pair of
    /// [`from_slice`](Self::from_slice) calls. Inline tuples split
    /// without allocating; heap tuples defer to [`Vec::split_off`], whose
    /// allocation only exists for arities past [`INLINE_VALS`], outside
    /// the warm-path zero-allocation contract.
    ///
    /// # Panics
    ///
    /// If `at > self.len()`.
    pub fn split_off(&mut self, at: usize) -> ValVec {
        match self {
            ValVec::Inline { buf, len } => {
                let n = *len as usize;
                assert!(at <= n, "split_off at {at} out of bounds of len {n}");
                let mut tail = [UNIT; INLINE_VALS];
                for (slot, v) in tail.iter_mut().zip(buf[at..n].iter_mut()) {
                    *slot = std::mem::replace(v, UNIT);
                }
                *len = at as u8;
                ValVec::Inline {
                    buf: tail,
                    len: (n - at) as u8,
                }
            }
            ValVec::Heap(h) => ValVec::Heap(h.split_off(at)),
        }
    }
}

impl Default for ValVec {
    fn default() -> Self {
        ValVec::new()
    }
}

impl std::ops::Deref for ValVec {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for ValVec {
    fn deref_mut(&mut self) -> &mut [Value] {
        match self {
            ValVec::Inline { buf, len } => &mut buf[..*len as usize],
            ValVec::Heap(h) => h,
        }
    }
}

impl PartialEq for ValVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Vec<Value>> for ValVec {
    fn eq(&self, other: &Vec<Value>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<Value>> for ValVec {
    fn from(v: Vec<Value>) -> Self {
        ValVec::Heap(v)
    }
}

impl From<ValVec> for Vec<Value> {
    fn from(v: ValVec) -> Self {
        match v {
            ValVec::Heap(h) => h,
            inline => inline.into_iter().collect(),
        }
    }
}

impl FromIterator<Value> for ValVec {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut out = ValVec::new();
        for v in iter {
            out.push(v);
        }
        out
    }
}

impl Extend<Value> for ValVec {
    fn extend<I: IntoIterator<Item = Value>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl IntoIterator for ValVec {
    type Item = Value;
    type IntoIter = ValVecIntoIter;
    fn into_iter(self) -> ValVecIntoIter {
        match self {
            ValVec::Inline { buf, len } => ValVecIntoIter::Inline { buf, pos: 0, len },
            ValVec::Heap(h) => ValVecIntoIter::Heap(h.into_iter()),
        }
    }
}

impl<'a> IntoIterator for &'a ValVec {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Owning iterator over a [`ValVec`].
#[derive(Debug)]
pub enum ValVecIntoIter {
    /// Draining the inline buffer.
    Inline {
        /// Remaining values (consumed slots are reset to `Unit`).
        buf: [Value; INLINE_VALS],
        /// Next slot to yield.
        pos: u8,
        /// Total filled slots.
        len: u8,
    },
    /// Draining spilled storage.
    Heap(std::vec::IntoIter<Value>),
}

impl Iterator for ValVecIntoIter {
    type Item = Value;
    fn next(&mut self) -> Option<Value> {
        match self {
            ValVecIntoIter::Inline { buf, pos, len } => {
                if pos < len {
                    let v = std::mem::replace(&mut buf[*pos as usize], UNIT);
                    *pos += 1;
                    Some(v)
                } else {
                    None
                }
            }
            ValVecIntoIter::Heap(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            ValVecIntoIter::Inline { pos, len, .. } => (*len - *pos) as usize,
            ValVecIntoIter::Heap(it) => it.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for ValVecIntoIter {}

/// Build a [`ValVec`] argument tuple from heterogeneous Rust values —
/// the allocation-free counterpart of [`vals!`] for the `call_id` fast
/// path (no heap allocation up to arity 4).
///
/// ```
/// use alps_core::{argv, Value};
/// let args = argv![1i64, "hello", true];
/// assert_eq!(args.len(), 3);
/// assert!(args.is_inline());
/// ```
#[macro_export]
macro_rules! argv {
    () => { $crate::ValVec::new() };
    ($($v:expr),+ $(,)?) => {{
        let mut out = $crate::ValVec::new();
        $( out.push($crate::Value::from($v)); )+
        out
    }};
}

/// A first-class, dynamically typed channel: the representation of ALPS
/// `chan(T1,…,Tn)` values. Messages are tuples checked against the
/// signature on send.
///
/// # Examples
///
/// ```
/// use alps_core::{ChanValue, Ty, vals};
/// use alps_runtime::Runtime;
///
/// let rt = Runtime::threaded();
/// let c = ChanValue::new("status", vec![Ty::Int, Ty::Str]);
/// c.send(&rt, vals![1i64, "ok"]).unwrap();
/// let msg = c.recv(&rt).unwrap();
/// assert_eq!(msg[1].as_str().unwrap(), "ok");
/// rt.shutdown();
/// ```
#[derive(Debug, Clone)]
pub struct ChanValue {
    chan: Chan<Vec<Value>>,
    sig: Arc<Vec<Ty>>,
}

impl ChanValue {
    /// Create an unbounded dynamic channel with the given tuple signature.
    pub fn new(name: impl Into<String>, sig: Vec<Ty>) -> ChanValue {
        ChanValue {
            chan: Chan::unbounded(name),
            sig: Arc::new(sig),
        }
    }

    /// Create a bounded dynamic channel.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn bounded(name: impl Into<String>, sig: Vec<Ty>, cap: usize) -> ChanValue {
        ChanValue {
            chan: Chan::bounded(name, cap),
            sig: Arc::new(sig),
        }
    }

    /// The tuple signature.
    pub fn sig(&self) -> &[Ty] {
        &self.sig
    }

    /// Debug name.
    pub fn name(&self) -> &str {
        self.chan.name()
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        self.chan.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.chan.is_empty()
    }

    /// Send a tuple, type-checking it against the signature.
    ///
    /// # Errors
    ///
    /// Arity/type mismatches, or [`AlpsError::Runtime`] if closed.
    pub fn send(&self, rt: &Runtime, msg: Vec<Value>) -> Result<()> {
        check_types(&format!("send {}", self.name()), &self.sig, &msg)?;
        self.chan.send(rt, msg)?;
        Ok(())
    }

    /// Receive the oldest tuple, blocking.
    ///
    /// # Errors
    ///
    /// [`AlpsError::Runtime`] once the channel is closed and drained.
    pub fn recv(&self, rt: &Runtime) -> Result<Vec<Value>> {
        Ok(self.chan.recv(rt)?)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self, rt: &Runtime) -> Option<Vec<Value>> {
        self.chan.try_recv(rt)
    }

    /// Close the channel.
    pub fn close(&self, rt: &Runtime) {
        self.chan.close(rt)
    }

    /// Whether the channel is closed.
    pub fn is_closed(&self) -> bool {
        self.chan.is_closed()
    }

    /// Access to the raw channel (select guards use this).
    pub(crate) fn raw(&self) -> &Chan<Vec<Value>> {
        &self.chan
    }
}

impl PartialEq for ChanValue {
    fn eq(&self, other: &Self) -> bool {
        self.chan.same(&other.chan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ty_accepts_matching_values() {
        assert!(Ty::Int.accepts(&Value::Int(1)));
        assert!(Ty::Bool.accepts(&Value::Bool(true)));
        assert!(Ty::Str.accepts(&Value::str("x")));
        assert!(Ty::Any.accepts(&Value::Float(1.0)));
        assert!(!Ty::Int.accepts(&Value::Bool(true)));
        assert!(Ty::List(Box::new(Ty::Int)).accepts(&Value::List(vec![Value::Int(1)])));
        assert!(!Ty::List(Box::new(Ty::Int)).accepts(&Value::List(vec![Value::str("x")])));
        // Empty list matches any list type.
        assert!(Ty::List(Box::new(Ty::Int)).accepts(&Value::List(vec![])));
    }

    #[test]
    fn chan_type_matches_on_signature() {
        let c = ChanValue::new("c", vec![Ty::Int]);
        let v = Value::Chan(c);
        assert!(Ty::Chan(vec![Ty::Int]).accepts(&v));
        assert!(!Ty::Chan(vec![Ty::Str]).accepts(&v));
    }

    #[test]
    fn accessors_round_trip() {
        assert_eq!(Value::from(5i64).as_int().unwrap(), 5);
        assert!(Value::from(true).as_bool().unwrap());
        assert_eq!(Value::from(2.5).as_float().unwrap(), 2.5);
        assert_eq!(Value::from("hi").as_str().unwrap(), "hi");
        assert_eq!(Value::List(vec![Value::Int(1)]).as_list().unwrap().len(), 1);
        assert!(Value::from(5i64).as_bool().is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::from(3i64).to_string(), "3");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "[1, 2]"
        );
        assert_eq!(
            Ty::Chan(vec![Ty::Int, Ty::Str]).to_string(),
            "chan(int, string)"
        );
        assert_eq!(Ty::List(Box::new(Ty::Bool)).to_string(), "list(bool)");
    }

    #[test]
    fn check_types_reports_position() {
        let sig = vec![Ty::Int, Ty::Str];
        let err =
            check_types("entry P", &sig, &[Value::from(1i64), Value::from(2i64)]).unwrap_err();
        match err {
            AlpsError::TypeMismatch { index, .. } => assert_eq!(index, 1),
            other => panic!("unexpected {other}"),
        }
        let err = check_types("entry P", &sig, &[Value::from(1i64)]).unwrap_err();
        assert!(matches!(
            err,
            AlpsError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
        check_types("entry P", &sig, &[Value::from(1i64), Value::from("x")]).unwrap();
    }

    #[test]
    fn chan_value_send_checks_types() {
        let rt = Runtime::threaded();
        let c = ChanValue::new("c", vec![Ty::Int]);
        assert!(c.send(&rt, vals!["nope"]).is_err());
        c.send(&rt, vals![1i64]).unwrap();
        assert_eq!(c.recv(&rt).unwrap()[0], Value::Int(1));
    }

    #[test]
    fn chan_value_identity_equality() {
        let a = ChanValue::new("a", vec![]);
        let b = a.clone();
        let c = ChanValue::new("a", vec![]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn vals_macro_builds_lists() {
        let v = vals![1i64, true, "s", 2.0];
        assert_eq!(v.len(), 4);
        let empty = vals![];
        assert!(empty.is_empty());
    }

    #[test]
    fn valvec_split_off_moves_the_tail() {
        // Inline stays inline on both sides.
        let mut v: ValVec = vals![1i64, 2i64, 3i64, 4i64].into_iter().collect();
        let tail = v.split_off(1);
        assert!(v.is_inline() && tail.is_inline());
        assert_eq!(v.as_slice(), &[Value::Int(1)]);
        assert_eq!(
            tail.as_slice(),
            &[Value::Int(2), Value::Int(3), Value::Int(4)]
        );

        // Boundary splits.
        let mut v: ValVec = vals![1i64, 2i64].into_iter().collect();
        assert!(v.split_off(2).is_empty());
        assert_eq!(v.len(), 2);
        let tail = v.split_off(0);
        assert!(v.is_empty());
        assert_eq!(tail.len(), 2);

        // Heap tuples split via Vec::split_off; an Arc-backed string
        // moves rather than clones.
        let s = Value::str("shared");
        let arc = match &s {
            Value::Str(a) => std::sync::Arc::clone(a),
            _ => unreachable!(),
        };
        let mut v: ValVec = (0..5).map(Value::from).chain([s]).collect();
        assert!(!v.is_inline());
        let tail = v.split_off(5);
        assert_eq!(v.len(), 5);
        assert_eq!(tail.len(), 1);
        drop(v);
        drop(tail);
        assert_eq!(std::sync::Arc::strong_count(&arc), 1, "moved, not cloned");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn valvec_split_off_past_len_panics() {
        let mut v: ValVec = vals![1i64].into_iter().collect();
        let _ = v.split_off(2);
    }
}
