//! The reference walker: the equivalence oracle for [`crate::compile`].
//!
//! It runs the same resolved IR ([`crate::ir`]) through the same linkage,
//! frames, statements and `select` skeleton (`exec.rs`) as the
//! optimised walker, and supplies the evaluation strategy in its most
//! obvious form:
//!
//! * every expression evaluates to a `Vec<Value>`, and wherever one
//!   value is needed the length is checked;
//! * a list builtin reads a clone of the list, changes it and writes it
//!   back;
//! * assignment, call statements and `return` evaluate everything and
//!   then copy;
//! * every candidate of every guard gets its overlay built and its
//!   `when` evaluated.
//!
//! No analysis of the IR decides anything here. This is separate code,
//! not the optimised walker with its shortcuts switched off, so that a
//! shortcut added there is checked against this by the equivalence
//! tests without anyone remembering to.

use std::sync::Arc;

use alps_core::{AlpsError, Guard, GuardView, Value};
use alps_runtime::Runtime;

use crate::ast::BinOp;
use crate::check::Checked;
use crate::exec::{
    binop, len_of, list_get, list_pop, list_push, list_remove, list_set, not_one, pending, unop,
    Cand, Eval, Ex, Fr, Pd, Prog,
};
use crate::ir::{Builtin, CExpr, CGuardKind, CGuarded, VarRef};
use crate::token::Pos;

pub use crate::exec::{Output, RunError};

/// The strategy marker of the reference walker.
pub(crate) struct Reference;

impl Ex<'_, Reference> {
    /// Evaluate an expression to its result list.
    fn eval_multi(
        &self,
        fr: &mut Fr<'_>,
        ov: Option<&[Value]>,
        pd: &Pd<'_>,
        e: &CExpr,
    ) -> Result<Vec<Value>, AlpsError> {
        Ok(match e {
            CExpr::Const(v) => vec![v.clone()],
            CExpr::Var(r, pos) => vec![self.read(fr, ov, *r, *pos)?],
            CExpr::Pending(entry, pos) => vec![pending(pd, *entry, *pos)?],
            CExpr::Unary(op, inner, pos) => {
                vec![unop(*op, self.eval(fr, ov, pd, inner)?, *pos)?]
            }
            CExpr::Binary(op @ (BinOp::And | BinOp::Or), a, b, _) => {
                let va = self.eval(fr, ov, pd, a)?.as_bool()?;
                if va == matches!(op, BinOp::Or) {
                    return Ok(vec![Value::Bool(va)]);
                }
                vec![Value::Bool(self.eval(fr, ov, pd, b)?.as_bool()?)]
            }
            CExpr::Binary(op, a, b, pos) => {
                let va = self.eval(fr, ov, pd, a)?;
                let vb = self.eval(fr, ov, pd, b)?;
                vec![binop(*op, va, vb, *pos)?]
            }
            CExpr::CallEntry {
                obj,
                flat,
                args,
                pos,
            } => {
                let vals: Vec<Value> = self.eval_all(fr, ov, pd, args)?;
                let (h, id) = self.entry(*obj, *flat, *pos)?;
                h.call_id(id, vals)?.into_iter().collect()
            }
            CExpr::CallSelf { flat, args, pos } => {
                let vals: Vec<Value> = self.eval_all(fr, ov, pd, args)?;
                let (h, id) = self.own_entry(*flat, *pos)?;
                h.call_from_inside_id(id, vals)?.into_iter().collect()
            }
            CExpr::CallInline { entry, args, .. } => {
                let vals = self.eval_all(fr, ov, pd, args)?;
                self.run_inline(*entry, vals)?
            }
            CExpr::CallBuiltin(b, args, pos) => self.builtin(fr, ov, pd, b, args, *pos)?,
        })
    }

    fn builtin(
        &self,
        fr: &mut Fr<'_>,
        ov: Option<&[Value]>,
        pd: &Pd<'_>,
        b: &Builtin,
        args: &[CExpr],
        pos: Pos,
    ) -> Result<Vec<Value>, AlpsError> {
        let vals: Vec<Value> = self.eval_all(fr, ov, pd, args)?;
        let mut vals = vals.into_iter();
        let mut arg = || vals.next().expect("arity checked");
        Ok(match b {
            Builtin::Print => {
                let line: String = vals.map(|v| v.to_string()).collect();
                self.p.out.line(&line);
                vec![]
            }
            Builtin::Str => vec![Value::str(arg().to_string())],
            Builtin::Len => vec![len_of(&arg(), pos)?],
            Builtin::Get => {
                let list = arg();
                vec![list_get(&list, arg().as_int()?, pos)?]
            }
            Builtin::Now => vec![Value::Int(self.p.rt.now() as i64)],
            Builtin::Sleep => {
                self.p.rt.sleep(arg().as_int()?.max(0) as u64);
                vec![]
            }
            Builtin::Push(t) => {
                let item = arg();
                self.update(fr, ov, *t, pos, |list| list_push(list, item, pos))?;
                vec![]
            }
            Builtin::Remove(t) => {
                let i = arg().as_int()?;
                vec![self.update(fr, ov, *t, pos, |list| list_remove(list, i, pos))?]
            }
            Builtin::Pop(t) => vec![self.update(fr, ov, *t, pos, |list| list_pop(list, pos))?],
            Builtin::Set(t) => {
                let i = arg().as_int()?;
                let item = arg();
                self.update(fr, ov, *t, pos, |list| list_set(list, i, item, pos))?;
                vec![]
            }
        })
    }

    /// Apply `f` to a copy of the variable's value and write the copy
    /// back.
    fn update<R>(
        &self,
        fr: &mut Fr<'_>,
        ov: Option<&[Value]>,
        target: VarRef,
        pos: Pos,
        f: impl FnOnce(&mut Value) -> Result<R, AlpsError>,
    ) -> Result<R, AlpsError> {
        let mut v = self.read(fr, ov, target, pos)?;
        let out = f(&mut v)?;
        self.write(fr, target, v, pos)?;
        Ok(out)
    }
}

impl Eval for Ex<'_, Reference> {
    fn eval(
        &self,
        fr: &mut Fr<'_>,
        ov: Option<&[Value]>,
        pd: &Pd<'_>,
        e: &CExpr,
    ) -> Result<Value, AlpsError> {
        let mut vals = self.eval_multi(fr, ov, pd, e)?;
        match vals.len() {
            1 => Ok(vals.remove(0)),
            n => Err(not_one(n, e.pos())),
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
        let vals = self.eval_multi(&mut Fr::Mut(frame), None, pd, e)?;
        self.write_all(frame, targets, vals, pos)
    }

    fn effect(&self, frame: &mut Vec<Value>, pd: &Pd<'_>, e: &CExpr) -> Result<(), AlpsError> {
        self.eval_multi(&mut Fr::Mut(frame), None, pd, e).map(drop)
    }

    fn ret(
        &self,
        frame: &mut Vec<Value>,
        pd: &Pd<'_>,
        args: &[CExpr],
    ) -> Result<Vec<Value>, AlpsError> {
        self.eval_all(&mut Fr::Mut(frame), None, pd, args)
    }

    fn conditions<'a>(&self, mut g: Guard<'a>, arm: &'a CGuarded, cand: Cand<'a>) -> Guard<'a>
    where
        Self: 'a,
    {
        let ex = *self;
        let on_candidate = move |view: &GuardView<'_>, e: &CExpr| {
            let ov = cand.overlay(view);
            ex.eval(&mut Fr::Ref(cand.frame), Some(&ov), &Pd::View(view), e)
        };
        if !matches!(arm.kind, CGuardKind::Plain) {
            g = g.when(move |view| {
                cand.in_bounds(view)
                    && arm.when.as_ref().is_none_or(|w| {
                        on_candidate(view, w)
                            .and_then(|v| v.as_bool())
                            .unwrap_or(false)
                    })
            });
        }
        if let Some(pe) = &arm.pri {
            g = g.pri(move |view| on_candidate(view, pe).and_then(|v| v.as_int()).unwrap_or(0));
        }
        g
    }
}

/// Run a checked program on the given runtime with the reference
/// walker. Object managers and pool workers are daemons; the call
/// returns when `main` finishes (or immediately after object setup when
/// there is no `main`).
///
/// # Errors
///
/// [`RunError::Run`] for runtime failures (body errors, shutdowns,
/// protocol violations surfaced by the core).
pub fn run_checked(rt: &Runtime, checked: &Arc<Checked>, out: Output) -> Result<(), RunError> {
    Prog::<Reference>::run(rt, checked, out)
}

/// Parse, check, and run an ALPS source string.
///
/// # Errors
///
/// [`RunError::Lang`] for syntax/type errors, [`RunError::Run`] for
/// runtime failures.
pub fn run_source(rt: &Runtime, src: &str, out: Output) -> Result<(), RunError> {
    let checked = Arc::new(crate::check::check(crate::parser::parse(src)?)?);
    run_checked(rt, &checked, out)
}
