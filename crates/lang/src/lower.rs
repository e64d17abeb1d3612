//! Lowering: checked AST → resolved IR ([`crate::ir`]), the one program
//! form both walkers execute.
//!
//! This is the only place a name becomes an index:
//!
//! * object names → object indices (handle-table slots),
//! * entry names → entry indices plus a position in the flat entry-id
//!   table (so a call is `handle.call_id(id, …)`),
//! * variable names → frame slots, environment slots, or guard-overlay
//!   slots.
//!
//! Nothing downstream — the shared statement walker, the reference
//! walker ([`crate::interp`]), the optimised one ([`crate::compile`]) —
//! sees a variable, entry or object name again, except to print it in an
//! error message.
//!
//! Frame-slot allocation mirrors the scoping rules of
//! [`mod@crate::check`]: parameters first, declared locals next, then a
//! monotonically growing tail of slots for `for`/`par` loop variables
//! and implicitly declared guard/receive bindings. Slots are never
//! reused — the checker guarantees no out-of-scope reads, so a dead slot
//! is merely a `Unit` cell in the activation frame.
//!
//! Lowering is infallible on checked programs; any name it cannot
//! resolve is a checker bug and panics.

use std::collections::HashMap;

use alps_core::{Ty, Value};

use crate::ast::*;
use crate::check::{Checked, ObjInfo};
use crate::ir::*;

fn conv_ty(t: &TypeExpr) -> Ty {
    match t {
        TypeExpr::Int => Ty::Int,
        TypeExpr::Bool => Ty::Bool,
        TypeExpr::Float => Ty::Float,
        TypeExpr::Str => Ty::Str,
        TypeExpr::Chan(sig) => Ty::Chan(sig.iter().map(conv_ty).collect()),
        TypeExpr::List(e) => Ty::List(Box::new(conv_ty(e))),
    }
}

fn default_of(t: &TypeExpr, name: &str) -> DefaultVal {
    match t {
        TypeExpr::Int => DefaultVal::Int,
        TypeExpr::Bool => DefaultVal::Bool,
        TypeExpr::Float => DefaultVal::Float,
        TypeExpr::Str => DefaultVal::Str,
        TypeExpr::Chan(sig) => {
            DefaultVal::Chan(name.to_string(), sig.iter().map(conv_ty).collect())
        }
        TypeExpr::List(_) => DefaultVal::List,
    }
}

/// Lower a checked program to resolved IR.
///
/// # Panics
///
/// On names the checker should have rejected (a checker/lowering
/// disagreement is a bug, not a user error).
pub fn lower(checked: &Checked) -> CUnit {
    let mut flat_base = Vec::with_capacity(checked.objects.len());
    let mut total = 0usize;
    for info in &checked.objects {
        flat_base.push(total);
        total += info.entries.len();
    }
    let mut objects = Vec::with_capacity(checked.objects.len());
    for (oi, info) in checked.objects.iter().enumerate() {
        let imp = &checked.program.impls[info.impl_idx];
        let env_map: HashMap<String, usize> = imp
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.name.clone(), i))
            .collect();
        let env: Vec<DefaultVal> = imp
            .vars
            .iter()
            .map(|v| default_of(&v.ty, &v.name))
            .collect();
        let mut entries = Vec::with_capacity(info.entries.len());
        for e in &info.entries {
            let p = &imp.procs[e.impl_idx];
            let mut cx = Cx::new(checked, &flat_base, Some((oi, info)), &env_map);
            let code = cx.lower_proc(
                &e.name,
                &p.header.params,
                &p.vars,
                &p.body,
                p.header.results.len(),
                p.header.pos,
            );
            entries.push(CEntry {
                name: e.name.clone(),
                public_params: e.public_params.iter().map(conv_ty).collect(),
                public_results: e.public_results.iter().map(conv_ty).collect(),
                hidden_params: e.hidden_params.iter().map(conv_ty).collect(),
                hidden_results: e.hidden_results.iter().map(conv_ty).collect(),
                array: e.array,
                local: e.local,
                intercept: e.intercept,
                code,
            });
        }
        let manager = imp.manager.as_ref().map(|m| {
            let mut cx = Cx::new(checked, &flat_base, Some((oi, info)), &env_map);
            cx.manager = true;
            cx.lower_proc("manager", &[], &m.vars, &m.body, 0, m.pos)
        });
        let init = if imp.init.is_empty() {
            None
        } else {
            let mut cx = Cx::new(checked, &flat_base, Some((oi, info)), &env_map);
            Some(cx.lower_proc("init", &[], &[], &imp.init, 0, imp.pos))
        };
        let mut tok_base = Vec::with_capacity(info.entries.len());
        let mut tok_len = 0usize;
        for e in &info.entries {
            tok_base.push(tok_len);
            tok_len += e.array;
        }
        objects.push(CObject {
            name: info.name.clone(),
            env,
            entries,
            manager,
            init,
            tok_base,
            tok_len,
        });
    }
    let empty_env = HashMap::new();
    let main = checked.program.main.as_ref().map(|m| {
        let mut cx = Cx::new(checked, &flat_base, None, &empty_env);
        cx.lower_proc("main", &[], &m.vars, &m.body, 0, m.pos)
    });
    CUnit {
        objects,
        main,
        flat_base,
        total_entries: total,
    }
}

/// Lowering context for one code block (entry body, manager, init, main).
struct Cx<'c> {
    checked: &'c Checked,
    flat_base: &'c [usize],
    /// Current object: `(index, info)`; `None` while lowering `main`.
    obj: Option<(usize, &'c ObjInfo)>,
    /// Object-variable name → environment slot.
    env_map: &'c HashMap<String, usize>,
    /// Lexical scopes mapping names to frame slots. Slots grow
    /// monotonically; popping a scope only removes visibility.
    scopes: Vec<HashMap<String, usize>>,
    next_slot: usize,
    /// Guard-overlay names (quantifier + bind names) → overlay slot,
    /// consulted first while lowering `when`/`pri` expressions.
    overlay: Option<HashMap<String, usize>>,
    manager: bool,
}

impl<'c> Cx<'c> {
    fn new(
        checked: &'c Checked,
        flat_base: &'c [usize],
        obj: Option<(usize, &'c ObjInfo)>,
        env_map: &'c HashMap<String, usize>,
    ) -> Self {
        Cx {
            checked,
            flat_base,
            obj,
            env_map,
            scopes: vec![HashMap::new()],
            next_slot: 0,
            overlay: None,
            manager: false,
        }
    }

    fn lower_proc(
        &mut self,
        name: &str,
        params: &[Param],
        locals: &[Param],
        body: &[Stmt],
        result_count: usize,
        pos: crate::token::Pos,
    ) -> CProc {
        for p in params {
            self.declare(&p.name);
        }
        let defaults: Vec<DefaultVal> = locals.iter().map(|l| default_of(&l.ty, &l.name)).collect();
        for l in locals {
            self.declare(&l.name);
        }
        let body = self.stmts(body);
        CProc {
            name: name.to_string(),
            params: params.len(),
            defaults,
            frame_size: self.next_slot,
            result_count,
            body,
            pos,
        }
    }

    // ---- scope helpers -------------------------------------------------

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str) -> usize {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.to_string(), slot);
        slot
    }

    fn frame_slot(&self, name: &str) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    /// Resolve a read: overlay (guard scope) → frame → environment.
    fn resolve_read(&self, name: &str) -> VarRef {
        if let Some(ov) = &self.overlay {
            if let Some(&i) = ov.get(name) {
                return VarRef::Overlay(i);
            }
        }
        if let Some(s) = self.frame_slot(name) {
            return VarRef::Frame(s);
        }
        if let Some(&i) = self.env_map.get(name) {
            return VarRef::Env(i);
        }
        panic!("lower: unresolved variable `{name}` (checker should have rejected this)");
    }

    /// Resolve an assignment target: frame → environment (the checker
    /// rejects assignments to undeclared names).
    fn resolve_write(&self, name: &str) -> VarRef {
        if let Some(s) = self.frame_slot(name) {
            return VarRef::Frame(s);
        }
        if let Some(&i) = self.env_map.get(name) {
            return VarRef::Env(i);
        }
        panic!("lower: unresolved assignment target `{name}`");
    }

    /// Resolve a binding target (receive/accept/await binds): an existing
    /// frame or environment variable, else an implicit declaration in the
    /// current scope — exactly the checker's `bind_types` rule.
    fn resolve_bind(&mut self, name: &str) -> VarRef {
        if let Some(s) = self.frame_slot(name) {
            return VarRef::Frame(s);
        }
        if let Some(&i) = self.env_map.get(name) {
            return VarRef::Env(i);
        }
        VarRef::Frame(self.declare(name))
    }

    /// Loop-variable slot: an existing frame variable of that name is
    /// the loop variable (and keeps its last value afterwards); otherwise
    /// a fresh slot in the current (pushed) scope.
    fn loop_var_slot(&mut self, name: &str) -> usize {
        match self.frame_slot(name) {
            Some(s) => s,
            None => self.declare(name),
        }
    }

    fn entry_idx(&self, name: &str) -> usize {
        let (_, info) = self.obj.expect("entry reference outside an object");
        *info
            .entry_idx
            .get(name)
            .unwrap_or_else(|| panic!("lower: unknown procedure `{name}`"))
    }

    // ---- expressions ---------------------------------------------------

    fn exprs(&mut self, es: &[Expr]) -> Vec<CExpr> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    fn expr(&mut self, e: &Expr) -> CExpr {
        match e {
            Expr::Int(v, _) => CExpr::Const(Value::Int(*v)),
            Expr::Float(v, _) => CExpr::Const(Value::Float(*v)),
            Expr::Str(s, _) => CExpr::Const(Value::str(s)),
            Expr::Bool(b, _) => CExpr::Const(Value::Bool(*b)),
            Expr::Var(name, pos) => CExpr::Var(self.resolve_read(name), *pos),
            Expr::Pending(entry, pos) => CExpr::Pending(self.entry_idx(entry), *pos),
            Expr::Unary(op, inner, pos) => CExpr::Unary(*op, Box::new(self.expr(inner)), *pos),
            Expr::Binary(op, a, b, pos) => {
                CExpr::Binary(*op, Box::new(self.expr(a)), Box::new(self.expr(b)), *pos)
            }
            Expr::Call(target, args, pos) => self.call(target, args, *pos),
        }
    }

    fn call(&mut self, target: &CallTarget, args: &[Expr], pos: crate::token::Pos) -> CExpr {
        match target {
            CallTarget::Entry(obj, entry) => {
                let oi = *self
                    .checked
                    .obj_idx
                    .get(obj)
                    .unwrap_or_else(|| panic!("lower: unknown object `{obj}`"));
                let ei = *self.checked.objects[oi]
                    .entry_idx
                    .get(entry)
                    .unwrap_or_else(|| panic!("lower: unknown entry `{obj}.{entry}`"));
                CExpr::CallEntry {
                    obj: oi,
                    flat: self.flat_base[oi] + ei,
                    args: self.exprs(args),
                    pos,
                }
            }
            CallTarget::Plain(name) => {
                if let Some(b) = self.builtin(name, args, pos) {
                    return b;
                }
                let ei = self.entry_idx(name);
                let (oi, info) = self.obj.expect("sibling call inside an object");
                if info.entries[ei].intercept.is_some() {
                    CExpr::CallSelf {
                        flat: self.flat_base[oi] + ei,
                        args: self.exprs(args),
                        pos,
                    }
                } else {
                    CExpr::CallInline {
                        entry: ei,
                        args: self.exprs(args),
                        pos,
                    }
                }
            }
        }
    }

    /// Builtins shadow sibling procedures, exactly as in the checker.
    /// The mutating list builtins (`push`/`remove`/
    /// `pop`/`set`) resolve their first argument to a write target.
    fn builtin(&mut self, name: &str, args: &[Expr], pos: crate::token::Pos) -> Option<CExpr> {
        let list_target = |cx: &Self, what: &str| -> VarRef {
            match &args[0] {
                Expr::Var(v, _) => cx.resolve_read(v),
                _ => panic!("lower: `{what}` needs a list variable"),
            }
        };
        let b = match name {
            "print" => CExpr::CallBuiltin(Builtin::Print, self.exprs(args), pos),
            "str" => CExpr::CallBuiltin(Builtin::Str, self.exprs(args), pos),
            "len" => CExpr::CallBuiltin(Builtin::Len, self.exprs(args), pos),
            "get" => CExpr::CallBuiltin(Builtin::Get, self.exprs(args), pos),
            "now" => CExpr::CallBuiltin(Builtin::Now, self.exprs(args), pos),
            "sleep" => CExpr::CallBuiltin(Builtin::Sleep, self.exprs(args), pos),
            "push" => {
                let t = list_target(self, "push");
                CExpr::CallBuiltin(Builtin::Push(t), self.exprs(&args[1..]), pos)
            }
            "remove" => {
                let t = list_target(self, "remove");
                CExpr::CallBuiltin(Builtin::Remove(t), self.exprs(&args[1..]), pos)
            }
            "pop" => {
                let t = list_target(self, "pop");
                CExpr::CallBuiltin(Builtin::Pop(t), self.exprs(&args[1..]), pos)
            }
            "set" => {
                let t = list_target(self, "set");
                CExpr::CallBuiltin(Builtin::Set(t), self.exprs(&args[1..]), pos)
            }
            _ => return None,
        };
        Some(b)
    }

    // ---- statements ----------------------------------------------------

    fn stmts(&mut self, stmts: &[Stmt]) -> Vec<CStmt> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    #[allow(clippy::too_many_lines)]
    fn stmt(&mut self, s: &Stmt) -> CStmt {
        match s {
            Stmt::Skip(_) => CStmt::Skip,
            Stmt::Assign(lvs, e, pos) => {
                let e = self.expr(e);
                let targets = lvs
                    .iter()
                    .map(|LValue::Var(n, _)| self.resolve_write(n))
                    .collect();
                CStmt::Assign(targets, e, *pos)
            }
            Stmt::Call(target, args, pos) => CStmt::Expr(self.call(target, args, *pos)),
            Stmt::If(arms, els, _) => CStmt::If(
                arms.iter()
                    .map(|(c, body)| (self.expr(c), self.stmts(body)))
                    .collect(),
                self.stmts(els),
            ),
            Stmt::While(c, body, _) => CStmt::While(self.expr(c), self.stmts(body)),
            Stmt::For(v, lo, hi, body, _) => {
                let lo = self.expr(lo);
                let hi = self.expr(hi);
                self.push_scope();
                let slot = self.loop_var_slot(v);
                let body = self.stmts(body);
                self.pop_scope();
                CStmt::For(slot, lo, hi, body)
            }
            Stmt::Send(chan, args, pos) => CStmt::Send(self.expr(chan), self.exprs(args), *pos),
            Stmt::Receive(chan, binds, pos) => {
                let chan = self.expr(chan);
                let targets = binds
                    .iter()
                    .map(|LValue::Var(n, _)| self.resolve_bind(n))
                    .collect();
                CStmt::Receive(chan, targets, *pos)
            }
            Stmt::Select(arms, pos) => CStmt::Select(self.arms(arms), *pos),
            Stmt::Loop(arms, pos) => CStmt::LoopSel(self.arms(arms), *pos),
            Stmt::Par(calls, pos) => {
                let branches = calls
                    .iter()
                    .map(|(t, args)| self.par_branch(t, args, *pos))
                    .collect();
                CStmt::Par(branches, *pos)
            }
            Stmt::ParFor(v, lo, hi, t, args, pos) => {
                let lo = self.expr(lo);
                let hi = self.expr(hi);
                self.push_scope();
                // The loop variable shadows: always a fresh slot, an
                // outer variable of the same name is untouched.
                let var = self.declare(v);
                let branch = self.par_branch(t, args, *pos);
                self.pop_scope();
                CStmt::ParFor {
                    var,
                    lo,
                    hi,
                    branch,
                    pos: *pos,
                }
            }
            Stmt::Return(args, pos) => CStmt::Return(self.exprs(args), *pos),
            Stmt::Accept(slot, binds, pos) => {
                let entry = self.entry_idx(&slot.entry);
                let ix = slot.index.as_ref().map(|e| self.expr(e));
                let targets = binds
                    .iter()
                    .map(|LValue::Var(n, _)| self.resolve_bind(n))
                    .collect();
                CStmt::Accept {
                    entry,
                    slot: ix,
                    binds: targets,
                    pos: *pos,
                }
            }
            Stmt::AwaitStmt(slot, binds, pos) => {
                let entry = self.entry_idx(&slot.entry);
                let ix = slot.index.as_ref().map(|e| self.expr(e));
                let targets = binds
                    .iter()
                    .map(|LValue::Var(n, _)| self.resolve_bind(n))
                    .collect();
                CStmt::Await {
                    entry,
                    slot: ix,
                    binds: targets,
                    pos: *pos,
                }
            }
            Stmt::Start(slot, args, pos) => {
                let entry = self.entry_idx(&slot.entry);
                let (_, info) = self.obj.expect("manager scope");
                let k = info.entries[entry].intercept.map(|(p, _)| p).unwrap_or(0);
                CStmt::Start {
                    entry,
                    slot: slot.index.as_ref().map(|e| self.expr(e)),
                    args: self.exprs(args),
                    intercept_params: k,
                    pos: *pos,
                }
            }
            Stmt::Finish(slot, args, pos) => {
                let entry = self.entry_idx(&slot.entry);
                CStmt::Finish {
                    entry,
                    slot: slot.index.as_ref().map(|e| self.expr(e)),
                    args: self.exprs(args),
                    pos: *pos,
                }
            }
            Stmt::Execute(slot, args, pos) => {
                let entry = self.entry_idx(&slot.entry);
                let (_, info) = self.obj.expect("manager scope");
                let k = info.entries[entry].intercept.map(|(p, _)| p).unwrap_or(0);
                CStmt::Execute {
                    entry,
                    slot: slot.index.as_ref().map(|e| self.expr(e)),
                    args: self.exprs(args),
                    intercept_params: k,
                    pos: *pos,
                }
            }
        }
    }

    fn par_branch(
        &mut self,
        target: &CallTarget,
        args: &[Expr],
        pos: crate::token::Pos,
    ) -> CParBranch {
        let CallTarget::Entry(obj, entry) = target else {
            panic!("lower: par branches must be entry calls");
        };
        let oi = *self
            .checked
            .obj_idx
            .get(obj)
            .unwrap_or_else(|| panic!("lower: unknown object `{obj}`"));
        let ei = *self.checked.objects[oi]
            .entry_idx
            .get(entry)
            .unwrap_or_else(|| panic!("lower: unknown entry `{obj}.{entry}`"));
        CParBranch {
            obj: oi,
            flat: self.flat_base[oi] + ei,
            args: self.exprs(args),
            pos,
        }
    }

    fn arms(&mut self, arms: &[Guarded]) -> Vec<CGuarded> {
        arms.iter().map(|a| self.arm(a)).collect()
    }

    fn arm(&mut self, arm: &Guarded) -> CGuarded {
        self.push_scope();
        // Bounds are evaluated before the quantifier variable is bound.
        let quant = arm.quantifier.as_ref().map(|(qv, lo, hi)| {
            let lo = self.expr(lo);
            let hi = self.expr(hi);
            (qv.clone(), lo, hi)
        });
        let quant = quant.map(|(qv, lo, hi)| (self.loop_var_slot(&qv), lo, hi));
        let (kind, bind_names) = match &arm.kind {
            GuardKind::Accept { slot, binds } => {
                let entry = self.entry_idx(&slot.entry);
                let names: Vec<String> = binds.iter().map(|LValue::Var(n, _)| n.clone()).collect();
                let targets = binds
                    .iter()
                    .map(|LValue::Var(n, _)| self.resolve_bind(n))
                    .collect();
                (
                    CGuardKind::Accept {
                        entry,
                        binds: targets,
                    },
                    names,
                )
            }
            GuardKind::Await { slot, binds } => {
                let entry = self.entry_idx(&slot.entry);
                let names: Vec<String> = binds.iter().map(|LValue::Var(n, _)| n.clone()).collect();
                let targets = binds
                    .iter()
                    .map(|LValue::Var(n, _)| self.resolve_bind(n))
                    .collect();
                (
                    CGuardKind::Await {
                        entry,
                        binds: targets,
                    },
                    names,
                )
            }
            GuardKind::Receive { chan, binds } => {
                let chan = self.expr(chan);
                let names: Vec<String> = binds.iter().map(|LValue::Var(n, _)| n.clone()).collect();
                let targets = binds
                    .iter()
                    .map(|LValue::Var(n, _)| self.resolve_bind(n))
                    .collect();
                (
                    CGuardKind::Receive {
                        chan,
                        binds: targets,
                    },
                    names,
                )
            }
            GuardKind::Plain => (CGuardKind::Plain, Vec::new()),
        };
        // `when`/`pri` see the candidate's values through the overlay:
        // slot 0 is the quantifier (if any), then the bind names in
        // order. The overlay shadows frame and environment.
        let (when, pri) = if matches!(arm.kind, GuardKind::Plain) {
            // Plain guards have no bound values; `when` (pre-evaluated)
            // and `pri` resolve in the ordinary arm scope.
            (
                arm.when.as_ref().map(|w| self.expr(w)),
                arm.pri.as_ref().map(|p| self.expr(p)),
            )
        } else {
            let mut ov = HashMap::new();
            let offset = usize::from(arm.quantifier.is_some());
            if let Some((qv, _, _)) = &arm.quantifier {
                ov.insert(qv.clone(), 0usize);
            }
            for (j, n) in bind_names.iter().enumerate() {
                ov.insert(n.clone(), offset + j);
            }
            self.overlay = Some(ov);
            let when = arm.when.as_ref().map(|w| self.expr(w));
            let pri = arm.pri.as_ref().map(|p| self.expr(p));
            self.overlay = None;
            (when, pri)
        };
        let body = self.stmts(&arm.body);
        self.pop_scope();
        CGuarded {
            quant,
            kind,
            when,
            pri,
            body,
            pos: arm.pos,
        }
    }
}
