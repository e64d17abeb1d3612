//! The optimised walker: executes the resolved IR ([`crate::ir`]) with every
//! shortcut the resolved form allows.
//!
//! Linkage, frames, statements and the `select` skeleton are
//! `exec.rs`'s, shared with the reference walker
//! ([`crate::interp`]). Both already run over pre-resolved indices —
//! entry calls are `handle.call_id(entry_id, valvec)` through interned
//! tables, frames are flat `Vec<Value>`s, guards are
//! [`Guard::accept_idx`](alps_core::Guard::accept_idx) /
//! [`await_idx`](alps_core::Guard::await_idx) and tokens are keyed by
//! `AcceptedCall::entry_index()`. What this module adds is the
//! evaluation strategy, and only here do these shortcuts exist:
//!
//! * a statically single-valued expression evaluates straight to a
//!   `Value` (`single_valued`, `eval_builtin1`, `one`) instead of
//!   through a `Vec` and an arity check;
//! * list builtins work on the slot in place (`mutate`, `peek`) instead
//!   of on a clone that is written back;
//! * `return` of distinct frame variables moves them out of the dying
//!   frame (`distinct_frame_vars`);
//! * a `when` that cannot change during one select round is decided
//!   once per round, not once per candidate (`const_during_select`),
//!   and a `when`/`pri` that reads no bound value skips building the
//!   candidate's overlay (`uses_overlay`).
//!
//! Emitted objects are ordinary `ObjectBuilder` products: supervision,
//! deadlines/retry (`call_with` under any `Wait` on
//! [`Compiled::handle`]) and `ShardedBuilder` spread all apply
//! unchanged.
//!
//! Observable behaviour (print output, error text and positions, channel
//! and default-value semantics) matches the reference walker; the
//! equivalence is pinned program-for-program by
//! `tests/interpreter_equivalence.rs`.

use std::sync::Arc;

use alps_core::{AlpsError, Guard, GuardView, ObjectHandle, ValVec, Value};
use alps_runtime::Runtime;

use crate::ast::BinOp;
use crate::check::Checked;
use crate::exec::{
    binop, guard_write, len_of, list_get, list_pop, list_push, list_remove, list_set,
    no_guard_value, not_one, pending, unop, Cand, Eval, Ex, Fr, Output, Pd, Prog, RunError,
};
use crate::ir::*;
use crate::token::Pos;

/// The strategy marker of the optimised walker.
pub(crate) struct Optimised;

/// A spawned compiled program. Objects are live; [`Compiled::handle`]
/// exposes them for direct embedded-API use (deadline calls, retry,
/// benchmarking), [`Compiled::run_main`] drives the program's `main`
/// block, [`Compiled::shutdown`] tears the objects down.
pub struct Compiled {
    prog: Arc<Prog<Optimised>>,
}

impl Compiled {
    /// Handle of a spawned object, for direct `call_id`/deadline/retry
    /// use from Rust.
    pub fn handle(&self, object: &str) -> Option<ObjectHandle> {
        self.prog.handle(object)
    }

    /// Run the program's `main` block (no-op without one).
    ///
    /// # Errors
    ///
    /// [`RunError::Run`] for runtime failures.
    pub fn run_main(&self) -> Result<(), RunError> {
        self.prog.run_main()
    }

    /// Shut all objects down (idempotent).
    pub fn shutdown(&self) {
        self.prog.shutdown();
    }
}

/// Compile and spawn a checked program's objects on the runtime,
/// without running `main`. Init code runs here, in declaration order.
///
/// # Errors
///
/// [`RunError::Run`] if init code fails or an object cannot spawn.
pub fn spawn_compiled(
    rt: &Runtime,
    checked: &Arc<Checked>,
    out: Output,
) -> Result<Compiled, RunError> {
    Ok(Compiled {
        prog: Prog::spawn(rt, checked, out)?,
    })
}

/// Run a checked program's IR on the given runtime with the optimised
/// walker: spawn the objects as direct fast-runtime objects, run `main`,
/// tear down. The optimised counterpart of
/// [`crate::interp::run_checked`].
///
/// # Errors
///
/// [`RunError::Run`] for runtime failures.
pub fn run_compiled(rt: &Runtime, checked: &Arc<Checked>, out: Output) -> Result<(), RunError> {
    Prog::<Optimised>::run(rt, checked, out)
}

/// Parse, check, compile, and run an ALPS source string.
///
/// # Errors
///
/// [`RunError::Lang`] for syntax/type errors, [`RunError::Run`] for
/// runtime failures.
pub fn run_source_compiled(rt: &Runtime, src: &str, out: Output) -> Result<(), RunError> {
    let checked = Arc::new(crate::check::check(crate::parser::parse(src)?)?);
    run_compiled(rt, &checked, out)
}

impl Ex<'_, Optimised> {
    /// Mutate the value behind a resolved variable in place (no
    /// read-clone-write round trip). Guard-condition contexts only hold
    /// the frame read-only and reject the write, like [`Ex::write`].
    fn mutate<R>(
        &self,
        fr: &mut Fr<'_>,
        r: VarRef,
        pos: Pos,
        f: impl FnOnce(&mut Value) -> Result<R, AlpsError>,
    ) -> Result<R, AlpsError> {
        match (r, fr) {
            (VarRef::Frame(i), Fr::Mut(fm)) => f(&mut fm[i]),
            (VarRef::Env(i), _) => f(&mut self.env().lock()[i]),
            (VarRef::Frame(_), Fr::Ref(_)) | (VarRef::Overlay(_), _) => Err(guard_write(pos)),
        }
    }

    /// Borrow the value behind a resolved variable in place. Read-only
    /// counterpart of [`Self::mutate`]: `get`/`len` on a list variable
    /// inspect the slot directly instead of cloning the whole list the
    /// way a by-value read would.
    fn peek<R>(
        &self,
        fr: &Fr<'_>,
        ov: Option<&[Value]>,
        r: VarRef,
        pos: Pos,
        f: impl FnOnce(&Value) -> Result<R, AlpsError>,
    ) -> Result<R, AlpsError> {
        match r {
            VarRef::Overlay(i) => match ov.and_then(|o| o.get(i)) {
                Some(v) => f(v),
                None => Err(no_guard_value(pos)),
            },
            VarRef::Frame(i) => match fr {
                Fr::Mut(fm) => f(&fm[i]),
                Fr::Ref(fm) => f(&fm[i]),
            },
            VarRef::Env(i) => f(&self.env().lock()[i]),
        }
    }

    /// Evaluate a call expression to its (possibly multi-valued) result
    /// list. Non-call expressions yield a single value.
    fn eval_call(
        &self,
        fr: &mut Fr<'_>,
        ov: Option<&[Value]>,
        pd: &Pd<'_>,
        e: &CExpr,
    ) -> Result<Vec<Value>, AlpsError> {
        match e {
            CExpr::CallEntry {
                obj,
                flat,
                args,
                pos,
            } => {
                let vv: ValVec = self.eval_all(fr, ov, pd, args)?;
                let (h, id) = self.entry(*obj, *flat, *pos)?;
                Ok(h.call_id(id, vv)?.into_iter().collect())
            }
            CExpr::CallSelf { flat, args, pos } => {
                let vv: ValVec = self.eval_all(fr, ov, pd, args)?;
                let (h, id) = self.own_entry(*flat, *pos)?;
                Ok(h.call_from_inside_id(id, vv)?.into_iter().collect())
            }
            CExpr::CallInline { entry, args, .. } => {
                let vals = self.eval_all(fr, ov, pd, args)?;
                self.run_inline(*entry, vals)
            }
            CExpr::CallBuiltin(b, args, pos) => self.eval_builtin(fr, ov, pd, b, args, *pos),
            other => Ok(vec![self.eval(fr, ov, pd, other)?]),
        }
    }

    /// Evaluate a statically single-valued builtin straight to its
    /// `Value` — no intermediate `Vec` — or return `None` for the
    /// zero-valued ones (`print`, `sleep`, `push`, `set`).
    ///
    /// `get`/`len` on a plain variable borrow the list in place via
    /// [`Self::peek`]; evaluating the operand by value would clone the
    /// whole list per access.
    fn eval_builtin1(
        &self,
        fr: &mut Fr<'_>,
        ov: Option<&[Value]>,
        pd: &Pd<'_>,
        b: &Builtin,
        args: &[CExpr],
        pos: Pos,
    ) -> Result<Option<Value>, AlpsError> {
        Ok(Some(match b {
            Builtin::Str => {
                let v = self.eval(fr, ov, pd, &args[0])?;
                Value::str(v.to_string())
            }
            Builtin::Len => match &args[0] {
                CExpr::Var(r, vpos) => self.peek(fr, ov, *r, *vpos, |v| len_of(v, pos))?,
                e => len_of(&self.eval(fr, ov, pd, e)?, pos)?,
            },
            Builtin::Get => {
                // A variable operand never errors and has no effects, so
                // hoisting the index evaluation is unobservable and lets
                // the list stay borrowed in place instead of being cloned.
                if let CExpr::Var(r, vpos) = &args[0] {
                    let i = self.eval(fr, ov, pd, &args[1])?.as_int()?;
                    self.peek(fr, ov, *r, *vpos, |list| list_get(list, i, pos))?
                } else {
                    let list = self.eval(fr, ov, pd, &args[0])?;
                    let i = self.eval(fr, ov, pd, &args[1])?.as_int()?;
                    list_get(&list, i, pos)?
                }
            }
            Builtin::Now => Value::Int(self.p.rt.now() as i64),
            Builtin::Remove(target) => {
                let i = self.eval(fr, ov, pd, &args[0])?.as_int()?;
                self.mutate(fr, *target, pos, |list| list_remove(list, i, pos))?
            }
            Builtin::Pop(target) => self.mutate(fr, *target, pos, |list| list_pop(list, pos))?,
            Builtin::Print | Builtin::Sleep | Builtin::Push(_) | Builtin::Set(_) => {
                return Ok(None)
            }
        }))
    }

    /// Run a builtin for effect, dropping its value if it has one.
    fn run_builtin(
        &self,
        fr: &mut Fr<'_>,
        ov: Option<&[Value]>,
        pd: &Pd<'_>,
        b: &Builtin,
        args: &[CExpr],
        pos: Pos,
    ) -> Result<(), AlpsError> {
        match b {
            Builtin::Print => {
                let mut line = String::new();
                for a in args {
                    use std::fmt::Write as _;
                    let _ = write!(line, "{}", self.eval(fr, ov, pd, a)?);
                }
                self.p.out.line(&line);
            }
            Builtin::Sleep => {
                let t = self.eval(fr, ov, pd, &args[0])?.as_int()?;
                self.p.rt.sleep(t.max(0) as u64);
            }
            // The mutating list builtins write through the resolved slot
            // in place: resolved `VarRef`s make the aliasing obvious, so
            // there is no read-clone-modify-write round trip (a full list
            // copy per operation).
            Builtin::Push(target) => {
                let item = self.eval(fr, ov, pd, &args[0])?;
                self.mutate(fr, *target, pos, |list| list_push(list, item, pos))?;
            }
            Builtin::Set(target) => {
                let i = self.eval(fr, ov, pd, &args[0])?.as_int()?;
                let item = self.eval(fr, ov, pd, &args[1])?;
                self.mutate(fr, *target, pos, |list| list_set(list, i, item, pos))?;
            }
            Builtin::Str
            | Builtin::Len
            | Builtin::Get
            | Builtin::Now
            | Builtin::Remove(_)
            | Builtin::Pop(_) => {
                self.eval_builtin1(fr, ov, pd, b, args, pos)?;
            }
        }
        Ok(())
    }

    fn eval_builtin(
        &self,
        fr: &mut Fr<'_>,
        ov: Option<&[Value]>,
        pd: &Pd<'_>,
        b: &Builtin,
        args: &[CExpr],
        pos: Pos,
    ) -> Result<Vec<Value>, AlpsError> {
        if let Some(v) = self.eval_builtin1(fr, ov, pd, b, args, pos)? {
            return Ok(vec![v]);
        }
        self.run_builtin(fr, ov, pd, b, args, pos)?;
        Ok(vec![])
    }
}

impl Eval for Ex<'_, Optimised> {
    fn eval(
        &self,
        fr: &mut Fr<'_>,
        ov: Option<&[Value]>,
        pd: &Pd<'_>,
        e: &CExpr,
    ) -> Result<Value, AlpsError> {
        match e {
            CExpr::Const(v) => Ok(v.clone()),
            CExpr::Var(r, pos) => self.read(fr, ov, *r, *pos),
            CExpr::Pending(entry, pos) => pending(pd, *entry, *pos),
            CExpr::Unary(op, inner, pos) => unop(*op, self.eval(fr, ov, pd, inner)?, *pos),
            CExpr::Binary(op, a, b, pos) => {
                if matches!(op, BinOp::And | BinOp::Or) {
                    let va = self.eval(fr, ov, pd, a)?.as_bool()?;
                    let short = match op {
                        BinOp::And => !va,
                        BinOp::Or => va,
                        _ => unreachable!(),
                    };
                    if short {
                        return Ok(Value::Bool(va));
                    }
                    let vb = self.eval(fr, ov, pd, b)?.as_bool()?;
                    return Ok(Value::Bool(vb));
                }
                let va = self.eval(fr, ov, pd, a)?;
                let vb = self.eval(fr, ov, pd, b)?;
                binop(*op, va, vb, *pos)
            }
            // Builtins with a statically single-valued result evaluate
            // straight to a `Value`; the zero-valued ones still run (for
            // their effect) before the arity error, like the generic path.
            CExpr::CallBuiltin(b, args, pos) => {
                if let Some(v) = self.eval_builtin1(fr, ov, pd, b, args, *pos)? {
                    return Ok(v);
                }
                self.run_builtin(fr, ov, pd, b, args, *pos)?;
                Err(not_one(0, *pos))
            }
            CExpr::CallEntry {
                obj,
                flat,
                args,
                pos,
            } => {
                let vv: ValVec = self.eval_all(fr, ov, pd, args)?;
                let (h, id) = self.entry(*obj, *flat, *pos)?;
                one(h.call_id(id, vv)?, *pos)
            }
            CExpr::CallSelf { flat, args, pos } => {
                let vv: ValVec = self.eval_all(fr, ov, pd, args)?;
                let (h, id) = self.own_entry(*flat, *pos)?;
                one(h.call_from_inside_id(id, vv)?, *pos)
            }
            CExpr::CallInline { pos, .. } => one(self.eval_call(fr, ov, pd, e)?.into(), *pos),
        }
    }

    fn assign(
        &self,
        frame: &mut Vec<Value>,
        pd: &Pd<'_>,
        targets: &[VarRef],
        e: &CExpr,
        pos: Pos,
    ) -> Result<(), AlpsError> {
        // Single-target assignment from a statically single-valued
        // expression skips the Vec round trip. Entry/inline calls stay on
        // the generic path so multi-value arity mismatches keep their
        // "n value(s) for m target(s)" report.
        if targets.len() == 1 && single_valued(e) {
            let v = self.eval(&mut Fr::Mut(frame), None, pd, e)?;
            return self.write(&mut Fr::Mut(frame), targets[0], v, pos);
        }
        let vals = self.eval_call(&mut Fr::Mut(frame), None, pd, e)?;
        self.write_all(frame, targets, vals, pos)
    }

    fn effect(&self, frame: &mut Vec<Value>, pd: &Pd<'_>, e: &CExpr) -> Result<(), AlpsError> {
        // A builtin in statement position builds no result Vec.
        if let CExpr::CallBuiltin(b, args, pos) = e {
            return self.run_builtin(&mut Fr::Mut(frame), None, pd, b, args, *pos);
        }
        self.eval_call(&mut Fr::Mut(frame), None, pd, e).map(drop)
    }

    fn ret(
        &self,
        frame: &mut Vec<Value>,
        pd: &Pd<'_>,
        args: &[CExpr],
    ) -> Result<Vec<Value>, AlpsError> {
        // The frame dies with the return, so distinct returned frame
        // variables move out of their slots instead of being cloned — a
        // long message flows back to the caller without an O(len) copy.
        if let Some(slots) = distinct_frame_vars(args) {
            return Ok(slots
                .into_iter()
                .map(|s| std::mem::replace(&mut frame[s], Value::Unit))
                .collect());
        }
        self.eval_all(&mut Fr::Mut(frame), None, pd, args)
    }

    fn conditions<'a>(&self, mut g: Guard<'a>, arm: &'a CGuarded, cand: Cand<'a>) -> Guard<'a>
    where
        Self: 'a,
    {
        let ex = *self;
        // Evaluate a guard expression against one candidate; the overlay
        // is built only for expressions that can read it.
        let on_candidate = move |view: &GuardView<'_>, e: &CExpr, needs_ov: bool| {
            let ov = needs_ov.then(|| cand.overlay(view));
            ex.eval(&mut Fr::Ref(cand.frame), ov.as_deref(), &Pd::View(view), e)
        };
        if !matches!(arm.kind, CGuardKind::Plain) {
            g = match &arm.when {
                // Decided once for the round: nothing it reads can change
                // while the select is open.
                Some(w) if const_during_select(w) => {
                    let pre = ex
                        .eval(&mut Fr::Ref(cand.frame), None, &Pd::None, w)
                        .and_then(|v| v.as_bool())
                        .unwrap_or(false);
                    g.when(move |view| pre && cand.in_bounds(view))
                }
                Some(w) => {
                    let needs_ov = uses_overlay(w);
                    g.when(move |view| {
                        cand.in_bounds(view)
                            && on_candidate(view, w, needs_ov)
                                .and_then(|v| v.as_bool())
                                .unwrap_or(false)
                    })
                }
                None => g.when(move |view| cand.in_bounds(view)),
            };
        }
        if let Some(pe) = &arm.pri {
            let needs_ov = uses_overlay(pe);
            g = g.pri(move |view| {
                on_candidate(view, pe, needs_ov)
                    .and_then(|v| v.as_int())
                    .unwrap_or(0)
            });
        }
        g
    }
}

/// The frame slots of `args` when every element is a plain frame
/// variable and no slot repeats — the precondition for moving the values
/// out of the frame on `return` instead of cloning them.
fn distinct_frame_vars(args: &[CExpr]) -> Option<Vec<usize>> {
    let mut slots = Vec::with_capacity(args.len());
    for a in args {
        match a {
            CExpr::Var(VarRef::Frame(i), _) if !slots.contains(i) => slots.push(*i),
            _ => return None,
        }
    }
    Some(slots)
}

/// Whether `e` is constant for the duration of one `select` round: only
/// manager-frame variables and literals, no bound values, no `#E`
/// pending counts, no environment reads (a started body may mutate the
/// environment concurrently), no calls. Such a guard condition is
/// evaluated once per round instead of once per pending candidate — the
/// same semantics as an embedded manager capturing its state by value in
/// the `when` closure. Resolved `VarRef`s are what tell a frozen manager
/// variable from a live environment variable.
fn const_during_select(e: &CExpr) -> bool {
    match e {
        CExpr::Const(_) | CExpr::Var(VarRef::Frame(_), _) => true,
        CExpr::Var(_, _) | CExpr::Pending(_, _) => false,
        CExpr::Unary(_, a, _) => const_during_select(a),
        CExpr::Binary(_, a, b, _) => const_during_select(a) && const_during_select(b),
        CExpr::CallEntry { .. }
        | CExpr::CallSelf { .. }
        | CExpr::CallInline { .. }
        | CExpr::CallBuiltin(_, _, _) => false,
    }
}

/// Whether evaluating `e` can read an overlay slot (a guard-bound value
/// or the arm's quantifier). Guard conditions that never do skip
/// building the overlay, which would otherwise clone every bound value —
/// long message payloads included — once per candidate evaluation.
fn uses_overlay(e: &CExpr) -> bool {
    match e {
        CExpr::Var(VarRef::Overlay(_), _) => true,
        CExpr::Const(_) | CExpr::Var(_, _) | CExpr::Pending(_, _) => false,
        CExpr::Unary(_, a, _) => uses_overlay(a),
        CExpr::Binary(_, a, b, _) => uses_overlay(a) || uses_overlay(b),
        CExpr::CallEntry { args, .. }
        | CExpr::CallSelf { args, .. }
        | CExpr::CallInline { args, .. }
        | CExpr::CallBuiltin(_, args, _) => args.iter().any(uses_overlay),
    }
}

/// Whether the expression yields exactly one value on every successful
/// evaluation, so `eval` can replace `eval_call` without changing any
/// arity diagnostics.
fn single_valued(e: &CExpr) -> bool {
    match e {
        CExpr::CallEntry { .. } | CExpr::CallSelf { .. } | CExpr::CallInline { .. } => false,
        CExpr::CallBuiltin(b, _, _) => matches!(
            b,
            Builtin::Str
                | Builtin::Len
                | Builtin::Get
                | Builtin::Now
                | Builtin::Remove(_)
                | Builtin::Pop(_)
        ),
        _ => true,
    }
}

/// Unwrap a call reply that must carry exactly one value, without
/// collecting the `ValVec` into a heap `Vec` first.
fn one(vv: ValVec, pos: Pos) -> Result<Value, AlpsError> {
    match vv.as_slice().len() {
        1 => Ok(vv.into_iter().next().expect("len checked")),
        n => Err(not_one(n, pos)),
    }
}
