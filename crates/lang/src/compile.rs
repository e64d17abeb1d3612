//! The optimised walker: executes the resolved IR ([`crate::ir`]) with every
//! shortcut the resolved form allows.
//!
//! Linkage, frames, statements and the `select` skeleton are
//! `exec.rs`'s, shared with the reference walker
//! ([`crate::interp`]). Both already run over pre-resolved indices —
//! entry calls are `handle.call_id(entry_id, valvec)` through interned
//! tables, frames are flat slices of `Value`s (on the stack up to eight
//! slots), guards are
//! [`Guard::accept_idx`](alps_core::Guard::accept_idx) /
//! [`await_idx`](alps_core::Guard::await_idx), tokens are keyed by
//! `AcceptedCall::entry_index()`, and a run of statements that touches
//! the object's variables locks them once ([`CStmt::Held`]). What this
//! module adds is the evaluation strategy, and only here do these
//! shortcuts exist:
//!
//! * a statically single-valued expression evaluates straight to a
//!   `Value` (`single_valued`, `eval_builtin1`, `one`) instead of
//!   through a `Vec` and an arity check, and literal and variable
//!   operands are read without a recursive call (`operand`);
//! * list builtins work on the slot in place (`mutate`, `peek`) instead
//!   of on a clone that is written back;
//! * a frame variable's last read ([`CExpr::Take`], marked by `check`)
//!   moves the value out instead of copying it: a message that a manager
//!   forwards with `execute P(M)`, that a body stores with `set` or
//!   returns, is not copied on the way;
//! * a `when` that cannot change during one select round is decided
//!   once per round, not once per candidate, and then boxes no closure
//!   unless the arm is quantified; a `when`/`pri` that reads no bound
//!   value skips building the candidate's overlay. Both facts are the
//!   arm's [`GuardShape`], decided once by `check`.
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

use alps_core::{Guard, GuardView, ObjectHandle, ValVec, Value};
use alps_runtime::Runtime;

use crate::ast::BinOp;
use crate::check::Checked;
use crate::exec::{
    binop, guard_write, len_of, list_get, list_pop, list_push, list_remove, list_set,
    no_guard_value, not_one, pending, unop, Cand, Eval, Ex, Fr, Linked, Output, Pd, Res, RunError,
};
use crate::ir::*;
use crate::token::Pos;

/// The strategy marker of the optimised walker.
pub(crate) struct Optimised;

/// A spawned compiled program. Objects are live; [`Compiled::handle`]
/// exposes them for direct embedded-API use (deadline calls, retry,
/// benchmarking), [`Compiled::run_main`] drives the program's `main`
/// block, [`Compiled::shutdown`] tears the objects down.
///
/// The `Compiled` owns the objects' handles, and the objects' bodies
/// reach each other through it: keep it while they run. After
/// [`Compiled::shutdown`], dropping it and every handle taken from
/// [`Compiled::handle`] frees the objects, their tables and the run's
/// hold on the IR once the managers have exited.
pub struct Compiled {
    run: Linked<Optimised>,
}

impl Compiled {
    /// Handle of a spawned object, for direct `call_id`/deadline/retry
    /// use from Rust.
    pub fn handle(&self, object: &str) -> Option<ObjectHandle> {
        self.run.handle(object)
    }

    /// Run the program's `main` block (no-op without one).
    ///
    /// # Errors
    ///
    /// [`RunError::Run`] for runtime failures.
    pub fn run_main(&self) -> Result<(), RunError> {
        self.run.run_main()
    }

    /// Shut all objects down (idempotent).
    pub fn shutdown(&self) {
        self.run.shutdown();
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
        run: Linked::spawn(rt, checked, out)?,
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
    Linked::<Optimised>::run(rt, checked, out)
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
    /// [`Eval::eval`] with literals and variables read in place: most
    /// operands are one or the other, and each saves a recursive call. A
    /// `Take` moves the value out of the frame.
    #[inline(always)]
    fn operand(&self, fr: &mut Fr<'_>, ov: Option<&[Value]>, pd: &Pd<'_>, e: &CExpr) -> Res<Value> {
        match e {
            CExpr::Const(v) => Ok(v.clone()),
            CExpr::Var(r, pos) => self.read(fr, ov, *r, *pos),
            CExpr::Take(i, _) => Ok(match fr.frame_mut() {
                Some(f) => std::mem::replace(&mut f[*i], Value::Unit),
                None => fr.frame()[*i].clone(),
            }),
            _ => self.eval(fr, ov, pd, e),
        }
    }

    /// Mutate the value behind a resolved variable in place (no
    /// read-clone-write round trip). Guard-condition contexts only hold
    /// the frame read-only and reject the write, like [`Ex::write`].
    fn mutate<R>(
        &self,
        fr: &mut Fr<'_>,
        r: VarRef,
        pos: Pos,
        f: impl FnOnce(&mut Value) -> Res<R>,
    ) -> Res<R> {
        match r {
            VarRef::Frame(i) => match fr.frame_mut() {
                Some(fm) => f(&mut fm[i]),
                None => Err(guard_write(pos)),
            },
            VarRef::Env(i) => self.env_mut(fr, i, f),
            VarRef::Overlay(_) => Err(guard_write(pos)),
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
        f: impl FnOnce(&Value) -> Res<R>,
    ) -> Res<R> {
        match r {
            VarRef::Overlay(i) => match ov.and_then(|o| o.get(i)) {
                Some(v) => f(v),
                None => Err(no_guard_value(pos)),
            },
            VarRef::Frame(i) => f(&fr.frame()[i]),
            VarRef::Env(i) => self.env_ref(fr, i, f),
        }
    }

    /// Evaluate a call expression to its (possibly multi-valued) result
    /// list. Non-call expressions yield a single value. Never inlined:
    /// `eval` recurses, and each level would carry this code's stack.
    #[inline(never)]
    fn eval_call(
        &self,
        fr: &mut Fr<'_>,
        ov: Option<&[Value]>,
        pd: &Pd<'_>,
        e: &CExpr,
    ) -> Res<ValVec> {
        match e {
            CExpr::CallEntry {
                obj,
                flat,
                args,
                pos,
            } => {
                let vv: ValVec = self.eval_all(fr, ov, pd, args)?;
                let (h, id) = self.entry(*obj, *flat, *pos)?;
                Ok(h.call_id(id, vv)?)
            }
            CExpr::CallSelf { flat, args, pos } => {
                let vv: ValVec = self.eval_all(fr, ov, pd, args)?;
                let (h, id) = self.own_entry(*flat, *pos)?;
                Ok(h.call_from_inside_id(id, vv)?)
            }
            CExpr::CallInline { entry, args, .. } => {
                let vals = self.eval_all(fr, ov, pd, args)?;
                self.run_inline(*entry, vals)
            }
            CExpr::CallBuiltin(b, args, pos) => {
                let mut vals = ValVec::new();
                if let Some(v) = self.eval_builtin1(fr, ov, pd, b, args, *pos)? {
                    vals.push(v);
                } else {
                    self.run_builtin(fr, ov, pd, b, args, *pos)?;
                }
                Ok(vals)
            }
            other => {
                let mut vals = ValVec::new();
                vals.push(self.eval(fr, ov, pd, other)?);
                Ok(vals)
            }
        }
    }

    /// Evaluate a statically single-valued builtin straight to its
    /// `Value` — no intermediate `Vec` — or return `None` for the
    /// zero-valued ones (`print`, `sleep`, `push`, `set`).
    ///
    /// `get`/`len` on a plain variable borrow the list in place via
    /// [`Self::peek`]; evaluating the operand by value would clone the
    /// whole list per access.
    #[inline(never)]
    fn eval_builtin1(
        &self,
        fr: &mut Fr<'_>,
        ov: Option<&[Value]>,
        pd: &Pd<'_>,
        b: &Builtin,
        args: &[CExpr],
        pos: Pos,
    ) -> Res<Option<Value>> {
        Ok(Some(match b {
            Builtin::Str => {
                let v = self.operand(fr, ov, pd, &args[0])?;
                Value::str(v.to_string())
            }
            Builtin::Len => match &args[0] {
                CExpr::Var(r, vpos) => self.peek(fr, ov, *r, *vpos, |v| len_of(v, pos))?,
                e => len_of(&self.operand(fr, ov, pd, e)?, pos)?,
            },
            Builtin::Get => {
                // A variable operand never errors and has no effects, so
                // hoisting the index evaluation is unobservable and lets
                // the list stay borrowed in place instead of being cloned.
                if let CExpr::Var(r, vpos) = &args[0] {
                    let i = self.operand(fr, ov, pd, &args[1])?.as_int()?;
                    self.peek(fr, ov, *r, *vpos, |list| list_get(list, i, pos))?
                } else {
                    let list = self.operand(fr, ov, pd, &args[0])?;
                    let i = self.operand(fr, ov, pd, &args[1])?.as_int()?;
                    list_get(&list, i, pos)?
                }
            }
            Builtin::Now => Value::Int(self.p.rt.now() as i64),
            Builtin::Remove(target) => {
                let i = self.operand(fr, ov, pd, &args[0])?.as_int()?;
                self.mutate(fr, *target, pos, |list| list_remove(list, i, pos))?
            }
            Builtin::Pop(target) => self.mutate(fr, *target, pos, |list| list_pop(list, pos))?,
            Builtin::Print | Builtin::Sleep | Builtin::Push(_) | Builtin::Set(_) => {
                return Ok(None)
            }
        }))
    }

    /// Run a builtin for effect, dropping its value if it has one.
    #[inline(never)]
    fn run_builtin(
        &self,
        fr: &mut Fr<'_>,
        ov: Option<&[Value]>,
        pd: &Pd<'_>,
        b: &Builtin,
        args: &[CExpr],
        pos: Pos,
    ) -> Res<()> {
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
                let t = self.operand(fr, ov, pd, &args[0])?.as_int()?;
                self.p.rt.sleep(t.max(0) as u64);
            }
            // The mutating list builtins write through the resolved slot
            // in place: resolved `VarRef`s make the aliasing obvious, so
            // there is no read-clone-modify-write round trip (a full list
            // copy per operation).
            Builtin::Push(target) => {
                let item = self.operand(fr, ov, pd, &args[0])?;
                self.mutate(fr, *target, pos, |list| list_push(list, item, pos))?;
            }
            Builtin::Set(target) => {
                let i = self.operand(fr, ov, pd, &args[0])?.as_int()?;
                let item = self.operand(fr, ov, pd, &args[1])?;
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
}

impl Eval for Ex<'_, Optimised> {
    fn eval(&self, fr: &mut Fr<'_>, ov: Option<&[Value]>, pd: &Pd<'_>, e: &CExpr) -> Res<Value> {
        match e {
            CExpr::Const(_) | CExpr::Var(..) | CExpr::Take(..) => self.operand(fr, ov, pd, e),
            CExpr::Pending(entry, pos) => pending(pd, *entry, *pos),
            CExpr::Unary(op, inner, pos) => unop(*op, self.operand(fr, ov, pd, inner)?, *pos),
            CExpr::Binary(op, a, b, pos) => {
                if matches!(op, BinOp::And | BinOp::Or) {
                    let va = self.operand(fr, ov, pd, a)?.as_bool()?;
                    let short = match op {
                        BinOp::And => !va,
                        BinOp::Or => va,
                        _ => unreachable!(),
                    };
                    if short {
                        return Ok(Value::Bool(va));
                    }
                    let vb = self.operand(fr, ov, pd, b)?.as_bool()?;
                    return Ok(Value::Bool(vb));
                }
                let va = self.operand(fr, ov, pd, a)?;
                let vb = self.operand(fr, ov, pd, b)?;
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
            CExpr::CallEntry { pos, .. }
            | CExpr::CallSelf { pos, .. }
            | CExpr::CallInline { pos, .. } => one(self.eval_call(fr, ov, pd, e)?, *pos),
        }
    }

    fn assign(
        &self,
        fr: &mut Fr<'_>,
        pd: &Pd<'_>,
        targets: &[VarRef],
        e: &CExpr,
        pos: Pos,
    ) -> Res<()> {
        // Single-target assignment from a statically single-valued
        // expression skips the Vec round trip. Entry/inline calls stay on
        // the generic path so multi-value arity mismatches keep their
        // "n value(s) for m target(s)" report.
        if targets.len() == 1 && single_valued(e) {
            let v = self.operand(fr, None, pd, e)?;
            return self.write(fr, targets[0], v, pos);
        }
        let vals = self.eval_call(fr, None, pd, e)?;
        self.write_all(fr, targets, vals, pos)
    }

    fn effect(&self, fr: &mut Fr<'_>, pd: &Pd<'_>, e: &CExpr) -> Res<()> {
        // A builtin in statement position builds no result Vec.
        if let CExpr::CallBuiltin(b, args, pos) = e {
            return self.run_builtin(fr, None, pd, b, args, *pos);
        }
        self.eval_call(fr, None, pd, e).map(drop)
    }

    fn ret(&self, fr: &mut Fr<'_>, pd: &Pd<'_>, args: &[CExpr]) -> Res<ValVec> {
        self.eval_all(fr, None, pd, args)
    }

    fn conditions<'a>(&self, mut g: Guard<'a>, arm: &'a CGuarded, cand: Cand<'a>) -> Guard<'a>
    where
        Self: 'a,
    {
        let ex = *self;
        let shape = arm.shape;
        // Evaluate a guard expression against one candidate; the overlay
        // is built only for expressions that can read it.
        let on_candidate = move |view: &GuardView<'_>, e: &CExpr, needs_ov: bool| {
            let ov = needs_ov.then(|| cand.overlay(view));
            ex.eval(&mut Fr::Ref(cand.frame), ov.as_deref(), &Pd::View(view), e)
        };
        if !matches!(arm.kind, CGuardKind::Plain) {
            g = match &arm.when {
                Some(w) if !shape.when_fixed => g.when(move |view| {
                    cand.in_bounds(view)
                        && matches!(
                            on_candidate(view, w, shape.when_overlay),
                            Ok(Value::Bool(true))
                        )
                }),
                // Decided once for the round, and a closure only where a
                // candidate can still fail the guard.
                when => {
                    let open = when.as_ref().is_none_or(|w| {
                        let v = ex.eval(&mut Fr::Ref(cand.frame), None, &Pd::None, w);
                        matches!(v, Ok(Value::Bool(true)))
                    });
                    match (open, arm.quant.is_some()) {
                        // Zero-sized: boxes nothing.
                        (false, _) => g.when(|_| false),
                        (true, false) => g,
                        (true, true) => g.when(move |view| cand.in_bounds(view)),
                    }
                }
            };
        }
        if let Some(pe) = &arm.pri {
            g = g.pri(
                move |view| match on_candidate(view, pe, shape.pri_overlay) {
                    Ok(Value::Int(p)) => p,
                    _ => 0,
                },
            );
        }
        g
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
fn one(vv: ValVec, pos: Pos) -> Res<Value> {
    match vv.as_slice().len() {
        1 => Ok(vv.into_iter().next().expect("len checked")),
        n => Err(not_one(n, pos)),
    }
}
