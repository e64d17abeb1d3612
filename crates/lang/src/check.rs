//! Static checking and lowering, in one walk: resolves definitions
//! against implementations, derives hidden parameters/results (the
//! implementation-side extras of §2.8), validates intercepts clauses,
//! scopes, types and the manager-only statements — and, while typing each
//! statement and expression, builds the resolved IR ([`crate::ir`]) that
//! both walkers run.
//!
//! This is the only place a name becomes an index:
//!
//! * object names → object indices (handle-table slots),
//! * entry names → entry indices plus a position in the flat entry-id
//!   table (so a call is `handle.call_id(id, …)`),
//! * variable names → frame slots, environment slots, or guard-overlay
//!   slots.
//!
//! One scope stack maps each visible name to its type and its slot. A
//! frame grows monotonically: parameters first, declared locals next, then
//! a slot per `for`/`par` loop variable, guard quantifier and implicitly
//! declared binding. Popping a scope only ends a name's visibility, so a
//! dead slot is merely a `Unit` cell in the activation frame.

use std::collections::HashMap;
use std::fmt::Display;
use std::sync::Arc;

use alps_core::{Ty, Value};

use crate::ast::*;
use crate::error::LangError;
use crate::ir::*;
use crate::last_use;
use crate::token::Pos;

/// Resolved information about one procedure of an object.
#[derive(Debug, Clone)]
pub struct EntryInfo {
    /// Procedure name.
    pub name: String,
    /// Hidden-array size (1 for a plain procedure).
    pub array: usize,
    /// Public parameter types (from the definition part).
    pub public_params: Vec<TypeExpr>,
    /// Public result types.
    pub public_results: Vec<TypeExpr>,
    /// Hidden parameter types (implementation extras).
    pub hidden_params: Vec<TypeExpr>,
    /// Hidden result types.
    pub hidden_results: Vec<TypeExpr>,
    /// Whether the procedure is local (absent from the definition part).
    pub local: bool,
    /// Intercepted prefix lengths `(params, results)`, if intercepted.
    pub intercept: Option<(usize, usize)>,
}

/// Resolved information about one object.
#[derive(Debug, Clone)]
pub struct ObjInfo {
    /// Object name.
    pub name: String,
    /// Procedures, in implementation order.
    pub entries: Vec<EntryInfo>,
    /// Name → entry index.
    pub entry_idx: HashMap<String, usize>,
}

/// A checked program: its objects' resolved signatures and the IR both
/// walkers run.
#[derive(Debug, Clone)]
pub struct Checked {
    /// Objects in implementation order.
    pub objects: Vec<ObjInfo>,
    /// The resolved program, shared by every run of it.
    pub unit: Arc<CUnit>,
}

impl Checked {
    /// Look up an object by name.
    pub fn object(&self, name: &str) -> Option<&ObjInfo> {
        self.objects.iter().find(|o| o.name == name)
    }
}

/// Check a parsed program and resolve it into IR.
///
/// # Errors
///
/// [`LangError`] describing the first inconsistency found.
pub fn check(program: Program) -> Result<Checked, LangError> {
    let defs_by_name: HashMap<&str, &ObjectDef> =
        program.defs.iter().map(|d| (d.name.as_str(), d)).collect();
    for d in &program.defs {
        if !program.impls.iter().any(|i| i.name == d.name) {
            return Err(LangError::at(
                d.pos,
                format!("object `{}` is defined but never implemented", d.name),
            ));
        }
    }
    let mut objects: Vec<ObjInfo> = Vec::new();
    for imp in &program.impls {
        if objects.iter().any(|o| o.name == imp.name) {
            return Err(LangError::at(
                imp.pos,
                format!("duplicate implementation of object `{}`", imp.name),
            ));
        }
        let def = defs_by_name.get(imp.name.as_str()).copied();
        objects.push(resolve_object(imp, def)?);
    }
    let flat_base = running_sums(objects.iter().map(|o| o.entries.len()));
    let mut cobjects = Vec::with_capacity(objects.len());
    for (oi, (imp, info)) in program.impls.iter().zip(&objects).enumerate() {
        let env: Names = imp
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.name.clone(), (v.ty.clone(), VarRef::Env(i))))
            .collect();
        let base = Cx::new(&objects, &flat_base, Some((oi, info)), &env);
        // Init code, then the bodies, then the manager: the order in which
        // errors are reported.
        let init = if imp.init.is_empty() {
            None
        } else {
            let init = Cx {
                scope: Scope::Init,
                ..base.clone()
            };
            Some(init.block("init", &[], &[], &imp.init, imp.pos)?)
        };
        let mut entries = Vec::with_capacity(info.entries.len());
        for (e, p) in info.entries.iter().zip(&imp.procs) {
            let h = &p.header;
            let body = Cx {
                scope: Scope::ProcBody,
                results: &h.results,
                ..base.clone()
            };
            entries.push(CEntry {
                name: e.name.clone(),
                public_params: tys(&e.public_params),
                public_results: tys(&e.public_results),
                hidden_params: tys(&e.hidden_params),
                hidden_results: tys(&e.hidden_results),
                array: e.array,
                local: e.local,
                intercept: e.intercept,
                code: body.block(&e.name, &h.params, &p.vars, &p.body, h.pos)?,
            });
        }
        let manager = match &imp.manager {
            Some(m) => {
                let mgr = Cx {
                    scope: Scope::Manager,
                    ..base
                };
                Some(mgr.block("manager", &[], &m.vars, &m.body, m.pos)?)
            }
            None => None,
        };
        cobjects.push(CObject {
            name: info.name.clone(),
            env: imp
                .vars
                .iter()
                .map(|v| default_of(&v.ty, &v.name))
                .collect(),
            entries,
            manager,
            init,
            tok_base: running_sums(info.entries.iter().map(|e| e.array)),
            tok_len: info.entries.iter().map(|e| e.array).sum(),
        });
    }
    let no_vars = Names::new();
    let main = match &program.main {
        Some(m) => {
            let main = Cx::new(&objects, &flat_base, None, &no_vars);
            Some(main.block("main", &[], &m.vars, &m.body, m.pos)?)
        }
        None => None,
    };
    let unit = CUnit {
        objects: cobjects,
        main,
        total_entries: objects.iter().map(|o| o.entries.len()).sum(),
        flat_base,
    };
    Ok(Checked {
        objects,
        unit: Arc::new(unit),
    })
}

/// `f` over `xs`, into an exactly sized `Vec`. A run keeps its IR while
/// it lives; collecting into a `Result` would give a one-element `Vec`
/// room for four.
fn each<I: ExactSizeIterator, U>(
    xs: I,
    mut f: impl FnMut(I::Item) -> Result<U, LangError>,
) -> Result<Vec<U>, LangError> {
    let mut out = Vec::with_capacity(xs.len());
    for x in xs {
        out.push(f(x)?);
    }
    Ok(out)
}

/// `[0, n0, n0 + n1, …]`: each item's offset in a flat table.
fn running_sums(ns: impl Iterator<Item = usize>) -> Vec<usize> {
    ns.scan(0, |acc, n| {
        let base = *acc;
        *acc += n;
        Some(base)
    })
    .collect()
}

fn conv_ty(t: &TypeExpr) -> Ty {
    match t {
        TypeExpr::Int => Ty::Int,
        TypeExpr::Bool => Ty::Bool,
        TypeExpr::Float => Ty::Float,
        TypeExpr::Str => Ty::Str,
        TypeExpr::Chan(sig) => Ty::Chan(tys(sig)),
        TypeExpr::List(e) => Ty::List(Box::new(conv_ty(e))),
    }
}

fn tys(ts: &[TypeExpr]) -> Vec<Ty> {
    ts.iter().map(conv_ty).collect()
}

fn default_of(t: &TypeExpr, name: &str) -> DefaultVal {
    match t {
        TypeExpr::Int => DefaultVal::Int,
        TypeExpr::Bool => DefaultVal::Bool,
        TypeExpr::Float => DefaultVal::Float,
        TypeExpr::Str => DefaultVal::Str,
        TypeExpr::Chan(sig) => DefaultVal::Chan(name.to_string(), tys(sig)),
        TypeExpr::List(_) => DefaultVal::List,
    }
}

fn type_prefix_matches(prefix: &[TypeExpr], full: &[TypeExpr]) -> bool {
    prefix.len() <= full.len() && prefix.iter().zip(full).all(|(a, b)| a == b)
}

fn resolve_object(imp: &ObjectImpl, def: Option<&ObjectDef>) -> Result<ObjInfo, LangError> {
    let mut entries: Vec<EntryInfo> = Vec::new();
    let mut entry_idx: HashMap<String, usize> = HashMap::new();
    let def_procs: HashMap<&str, &ProcHeader> = def
        .map(|d| d.procs.iter().map(|p| (p.name.as_str(), p)).collect())
        .unwrap_or_default();
    for p in &imp.procs {
        let h = &p.header;
        if entry_idx.contains_key(&h.name) {
            return Err(LangError::at(
                h.pos,
                format!("duplicate procedure `{}` in object `{}`", h.name, imp.name),
            ));
        }
        let impl_params: Vec<TypeExpr> = h.params.iter().map(|p| p.ty.clone()).collect();
        let impl_results = h.results.clone();
        let (public_params, public_results, hidden_params, hidden_results, local) =
            match def_procs.get(h.name.as_str()) {
                Some(dh) => {
                    if h.local {
                        return Err(LangError::at(
                            h.pos,
                            format!(
                                "procedure `{}` is exported by the definition but marked local",
                                h.name
                            ),
                        ));
                    }
                    let pub_p: Vec<TypeExpr> = dh.params.iter().map(|p| p.ty.clone()).collect();
                    let pub_r = dh.results.clone();
                    if !type_prefix_matches(&pub_p, &impl_params) {
                        return Err(LangError::at(
                            h.pos,
                            format!(
                                "implementation of `{}` does not extend the defined parameter \
                                 list (hidden parameters must come after the public ones)",
                                h.name
                            ),
                        ));
                    }
                    if !type_prefix_matches(&pub_r, &impl_results) {
                        return Err(LangError::at(
                            h.pos,
                            format!(
                                "implementation of `{}` does not extend the defined result list",
                                h.name
                            ),
                        ));
                    }
                    let hid_p = impl_params[pub_p.len()..].to_vec();
                    let hid_r = impl_results[pub_r.len()..].to_vec();
                    (pub_p, pub_r, hid_p, hid_r, false)
                }
                None => {
                    // Not exported: local procedure. Everything is public
                    // *within* the object; no hidden split applies unless
                    // intercepted with explicit prefixes (treated below).
                    (impl_params, impl_results, vec![], vec![], true)
                }
            };
        let local = local || h.local;
        entry_idx.insert(h.name.clone(), entries.len());
        entries.push(EntryInfo {
            name: h.name.clone(),
            array: h.array.unwrap_or(1) as usize,
            public_params,
            public_results,
            hidden_params,
            hidden_results,
            local,
            intercept: None,
        });
    }
    // Every defined proc must be implemented.
    if let Some(d) = def {
        for dh in &d.procs {
            if !entry_idx.contains_key(&dh.name) {
                return Err(LangError::at(
                    dh.pos,
                    format!(
                        "entry `{}` of object `{}` is defined but not implemented",
                        dh.name, d.name
                    ),
                ));
            }
            if dh.array.is_some() {
                return Err(LangError::at(
                    dh.pos,
                    "procedure arrays are hidden: the array size belongs in the \
                     implementation, not the definition (paper §2.5)",
                ));
            }
        }
    }
    // Resolve the intercepts clause.
    if let Some(m) = &imp.manager {
        for item in &m.intercepts {
            let Some(&ei) = entry_idx.get(&item.name) else {
                return Err(LangError::at(
                    item.pos,
                    format!("intercepts names unknown procedure `{}`", item.name),
                ));
            };
            let e = &mut entries[ei];
            if e.intercept.is_some() {
                return Err(LangError::at(
                    item.pos,
                    format!("procedure `{}` intercepted twice", item.name),
                ));
            }
            if !type_prefix_matches(&item.params, &e.public_params) {
                return Err(LangError::at(
                    item.pos,
                    format!(
                        "intercepted parameters of `{}` must be an initial subsequence \
                         of its public parameters",
                        item.name
                    ),
                ));
            }
            if !type_prefix_matches(&item.results, &e.public_results) {
                return Err(LangError::at(
                    item.pos,
                    format!(
                        "intercepted results of `{}` must be an initial subsequence of \
                         its public results",
                        item.name
                    ),
                ));
            }
            e.intercept = Some((item.params.len(), item.results.len()));
        }
    }
    for e in &entries {
        if e.intercept.is_none() && (!e.hidden_params.is_empty() || !e.hidden_results.is_empty()) {
            return Err(LangError::at(
                imp.pos,
                format!(
                    "procedure `{}` declares hidden parameters/results but is not in \
                     the manager's intercepts clause",
                    e.name
                ),
            ));
        }
    }
    Ok(ObjInfo {
        name: imp.name.clone(),
        entries,
        entry_idx,
    })
}

/// Entry `name` of `info`: its index and signature.
fn entry_of<'a>(
    info: &'a ObjInfo,
    name: &str,
    pos: Pos,
) -> Result<(usize, &'a EntryInfo), LangError> {
    match info.entry_idx.get(name) {
        Some(&i) => Ok((i, &info.entries[i])),
        None => Err(LangError::at(
            pos,
            format!("object `{}` has no procedure `{}`", info.name, name),
        )),
    }
}

/// Where a statement appears, for the manager-only rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    ProcBody,
    Manager,
    Main,
    Init,
}

/// Visible names: each with its type and where it lives.
type Names = HashMap<String, (TypeExpr, VarRef)>;

/// The walk over one code block (entry body, manager, init or `main`).
#[derive(Clone)]
struct Cx<'c> {
    objects: &'c [ObjInfo],
    flat_base: &'c [usize],
    /// Current object: `(index, info)`; `None` in `main`.
    obj: Option<(usize, &'c ObjInfo)>,
    /// The object's variables (environment slots).
    env: &'c Names,
    scope: Scope,
    /// What a `return` must supply.
    results: &'c [TypeExpr],
    /// Lexical scopes of the frame, innermost last.
    scopes: Vec<Names>,
    next_slot: usize,
    /// Guard-overlay names (quantifier + bind names) → overlay slot,
    /// consulted first while walking a guard's `when`/`pri`.
    overlay: Option<HashMap<String, usize>>,
}

impl<'c> Cx<'c> {
    fn new(
        objects: &'c [ObjInfo],
        flat_base: &'c [usize],
        obj: Option<(usize, &'c ObjInfo)>,
        env: &'c Names,
    ) -> Self {
        Cx {
            objects,
            flat_base,
            obj,
            env,
            scope: Scope::Main,
            results: &[],
            scopes: vec![Names::new()],
            next_slot: 0,
            overlay: None,
        }
    }

    fn block(
        mut self,
        name: &str,
        params: &[Param],
        locals: &[Param],
        body: &[Stmt],
        pos: Pos,
    ) -> Result<CProc, LangError> {
        for p in params.iter().chain(locals) {
            self.declare(&p.name, p.ty.clone());
        }
        let body = self.stmts(body)?;
        let mut proc = CProc {
            name: name.to_string(),
            params: params.len(),
            defaults: locals.iter().map(|l| default_of(&l.ty, &l.name)).collect(),
            frame_size: self.next_slot,
            result_count: self.results.len(),
            body,
            pos,
        };
        last_use::mark(&mut proc);
        Ok(proc)
    }

    // ---- scopes --------------------------------------------------------

    fn scoped<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, LangError>,
    ) -> Result<T, LangError> {
        self.scopes.push(Names::new());
        let r = f(self);
        self.scopes.pop();
        r
    }

    fn declare(&mut self, name: &str, ty: TypeExpr) -> usize {
        let slot = self.next_slot;
        self.next_slot += 1;
        let scope = self.scopes.last_mut().expect("at least one scope");
        scope.insert(name.to_string(), (ty, VarRef::Frame(slot)));
        slot
    }

    /// Resolve a name: guard overlay (inside `when`/`pri`), then the
    /// frame's scopes innermost first, then the object's variables.
    fn lookup(&self, name: &str) -> Option<(&TypeExpr, VarRef)> {
        let (ty, r) = self
            .scopes
            .iter()
            .rev()
            .chain([self.env])
            .find_map(|s| s.get(name))?;
        let r = match self.overlay.as_ref().and_then(|o| o.get(name)) {
            Some(&i) => VarRef::Overlay(i),
            None => *r,
        };
        Some((ty, r))
    }

    fn var(&self, name: &str, pos: Pos) -> Result<(TypeExpr, VarRef), LangError> {
        match self.lookup(name) {
            Some((ty, r)) => Ok((ty.clone(), r)),
            None => Err(LangError::at(pos, format!("undeclared variable `{name}`"))),
        }
    }

    /// Bind targets of a `receive`/`accept`/`await`: an existing variable
    /// of the bound type, else an implicit declaration in the current
    /// scope.
    fn bind(
        &mut self,
        binds: &[LValue],
        tys: &[TypeExpr],
        pos: Pos,
    ) -> Result<Vec<VarRef>, LangError> {
        if binds.len() != tys.len() {
            return Err(LangError::at(
                pos,
                format!("expected {} binding(s), got {}", tys.len(), binds.len()),
            ));
        }
        let mut targets = Vec::with_capacity(binds.len());
        for (LValue::Var(name, vpos), ty) in binds.iter().zip(tys) {
            let target = match self.lookup(name) {
                Some((want, r)) if want == ty => r,
                Some((want, _)) => {
                    return Err(LangError::at(
                        *vpos,
                        format!("`{name}` has type {want:?}, cannot bind {ty:?}"),
                    ))
                }
                None => VarRef::Frame(self.declare(name, ty.clone())),
            };
            targets.push(target);
        }
        Ok(targets)
    }

    /// A `for` variable or guard quantifier: an `int` frame variable of
    /// that name is the loop variable (and keeps its last value
    /// afterwards); otherwise a fresh `int` slot in the current scope
    /// shadows the name.
    fn loop_var(&mut self, name: &str) -> usize {
        match self.scopes.iter().rev().find_map(|s| s.get(name)) {
            Some((TypeExpr::Int, VarRef::Frame(slot))) => *slot,
            _ => self.declare(name, TypeExpr::Int),
        }
    }

    // ---- entries -------------------------------------------------------

    fn own(&self) -> &'c ObjInfo {
        self.obj.expect("manager scope has an object").1
    }

    fn require_manager(&self, what: &str, pos: Pos) -> Result<(), LangError> {
        if self.scope != Scope::Manager {
            return Err(LangError::at(
                pos,
                format!("`{what}` is a manager primitive and may only appear in a manager"),
            ));
        }
        Ok(())
    }

    /// The intercepted entry a manager primitive names, its intercepted
    /// prefix lengths and its slot index.
    #[allow(clippy::type_complexity)]
    fn intercepted(
        &mut self,
        slot: &SlotRef,
        what: &str,
        pos: Pos,
    ) -> Result<(usize, &'c EntryInfo, (usize, usize), Option<CExpr>), LangError> {
        let (ei, e) = entry_of(self.own(), &slot.entry, slot.pos)?;
        let Some(k) = e.intercept else {
            return Err(LangError::at(
                pos,
                format!("`{what} {}`: procedure is not intercepted", e.name),
            ));
        };
        let ix = slot
            .index
            .as_ref()
            .map(|ix| self.expect(ix, &TypeExpr::Int))
            .transpose()?;
        Ok((ei, e, k, ix))
    }

    /// `accept` (the intercepted parameters) or `await` (the intercepted
    /// and hidden results), as a statement or a guard: the entry, the slot
    /// index and the bind targets.
    fn accept_await(
        &mut self,
        accept: bool,
        slot: &SlotRef,
        binds: &[LValue],
        pos: Pos,
        bind_pos: Pos,
    ) -> Result<(usize, Option<CExpr>, Vec<VarRef>), LangError> {
        let what = if accept { "accept" } else { "await" };
        let (entry, e, (kp, kr), ix) = self.intercepted(slot, what, pos)?;
        let tys = if accept {
            e.public_params[..kp].to_vec()
        } else {
            [&e.public_results[..kr], &e.hidden_results[..]].concat()
        };
        Ok((entry, ix, self.bind(binds, &tys, bind_pos)?))
    }

    // ---- statements ----------------------------------------------------

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<Vec<CStmt>, LangError> {
        Ok(CStmt::hold_runs(each(stmts.iter(), |s| self.stmt(s))?))
    }

    #[allow(clippy::too_many_lines)]
    fn stmt(&mut self, s: &Stmt) -> Result<CStmt, LangError> {
        Ok(match s {
            Stmt::Skip(_) => CStmt::Skip,
            Stmt::Assign(lvs, e, pos) => {
                let (tys, e) = self.expr(e)?;
                if tys.len() != lvs.len() {
                    return Err(LangError::at(
                        *pos,
                        format!(
                            "assignment of {} value(s) to {} target(s)",
                            tys.len(),
                            lvs.len()
                        ),
                    ));
                }
                let mut targets = Vec::with_capacity(lvs.len());
                for (LValue::Var(name, vpos), ty) in lvs.iter().zip(tys) {
                    let (want, r) = self.var(name, *vpos)?;
                    if want != ty {
                        return Err(LangError::at(
                            *vpos,
                            format!("cannot assign {ty:?} to `{name}` of type {want:?}"),
                        ));
                    }
                    targets.push(r);
                }
                CStmt::Assign(targets, e, *pos)
            }
            Stmt::Call(target, args, pos) => CStmt::Expr(self.call(target, args, *pos)?.1),
            Stmt::If(arms, els, _) => {
                let arms = each(arms.iter(), |(c, body)| {
                    Ok((self.expect(c, &TypeExpr::Bool)?, self.stmts(body)?))
                })?;
                CStmt::If(arms, self.stmts(els)?)
            }
            Stmt::While(c, body, _) => {
                CStmt::While(self.expect(c, &TypeExpr::Bool)?, self.stmts(body)?)
            }
            Stmt::For(v, lo, hi, body, _) => {
                let lo = self.expect(lo, &TypeExpr::Int)?;
                let hi = self.expect(hi, &TypeExpr::Int)?;
                self.scoped(|cx| Ok(CStmt::For(cx.loop_var(v), lo, hi, cx.stmts(body)?)))?
            }
            Stmt::Send(chan, args, pos) => {
                let (sig, chan) = self.chan_sig(chan)?;
                if sig.len() != args.len() {
                    return Err(LangError::at(
                        *pos,
                        format!("send of {} value(s) on chan({})", args.len(), sig.len()),
                    ));
                }
                CStmt::Send(chan, self.typed(args, &sig)?, *pos)
            }
            Stmt::Receive(chan, binds, pos) => {
                let (sig, chan) = self.chan_sig(chan)?;
                CStmt::Receive(chan, self.bind(binds, &sig, *pos)?, *pos)
            }
            Stmt::Select(arms, pos) | Stmt::Loop(arms, pos) => {
                self.require_manager("select/loop", *pos)?;
                let arms = each(arms.iter(), |a| self.arm(a))?;
                if matches!(s, Stmt::Select(..)) {
                    CStmt::Select(arms, *pos)
                } else {
                    CStmt::LoopSel(arms, *pos)
                }
            }
            Stmt::Par(calls, pos) => {
                let branches = each(calls.iter(), |(t, args)| self.par_branch(t, args, *pos))?;
                CStmt::Par(branches, *pos)
            }
            Stmt::ParFor(v, lo, hi, t, args, pos) => {
                let lo = self.expect(lo, &TypeExpr::Int)?;
                let hi = self.expect(hi, &TypeExpr::Int)?;
                self.scoped(|cx| {
                    // Always a fresh slot: an outer variable of the same
                    // name is untouched.
                    let var = cx.declare(v, TypeExpr::Int);
                    let branch = cx.par_branch(t, args, *pos)?;
                    Ok(CStmt::ParFor {
                        var,
                        lo,
                        hi,
                        branch,
                        pos: *pos,
                    })
                })?
            }
            Stmt::Return(args, pos) => {
                if self.scope != Scope::ProcBody {
                    return Err(LangError::at(*pos, "`return` only in procedure bodies"));
                }
                let want = self.results;
                if args.len() != want.len() {
                    return Err(LangError::at(
                        *pos,
                        format!(
                            "return of {} value(s) from a procedure returning {}",
                            args.len(),
                            want.len()
                        ),
                    ));
                }
                CStmt::Return(self.typed(args, want)?, *pos)
            }
            Stmt::Accept(slot, binds, pos) => {
                self.require_manager("accept", *pos)?;
                let (entry, slot, binds) = self.accept_await(true, slot, binds, *pos, *pos)?;
                CStmt::Accept {
                    entry,
                    slot,
                    binds,
                    pos: *pos,
                }
            }
            Stmt::AwaitStmt(slot, binds, pos) => {
                self.require_manager("await", *pos)?;
                let (entry, slot, binds) = self.accept_await(false, slot, binds, *pos, *pos)?;
                CStmt::Await {
                    entry,
                    slot,
                    binds,
                    pos: *pos,
                }
            }
            Stmt::Start(slot, args, pos) | Stmt::Execute(slot, args, pos) => {
                let start = matches!(s, Stmt::Start(..));
                let what = if start { "start" } else { "execute" };
                self.require_manager(what, *pos)?;
                let (entry, e, (kp, _), slot) = self.intercepted(slot, what, *pos)?;
                let want = [&e.public_params[..kp], &e.hidden_params[..]].concat();
                if args.is_empty() {
                    if !e.hidden_params.is_empty() {
                        return Err(LangError::at(
                            *pos,
                            format!("`{what} {}` must supply the hidden parameter(s)", e.name),
                        ));
                    }
                } else if args.len() != want.len() {
                    return Err(LangError::at(
                        *pos,
                        format!(
                            "`{what} {}` takes the {} intercepted parameter(s) plus {} \
                             hidden parameter(s), got {}",
                            e.name,
                            kp,
                            e.hidden_params.len(),
                            args.len()
                        ),
                    ));
                }
                let args = self.typed(args, &want)?;
                if start {
                    CStmt::Start {
                        entry,
                        slot,
                        args,
                        intercept_params: kp,
                        pos: *pos,
                    }
                } else {
                    CStmt::Execute {
                        entry,
                        slot,
                        args,
                        intercept_params: kp,
                        pos: *pos,
                    }
                }
            }
            Stmt::Finish(slot, args, pos) => {
                self.require_manager("finish", *pos)?;
                let (entry, e, (_, kr), slot) = self.intercepted(slot, "finish", *pos)?;
                // Either the intercepted result prefix (normal) or the full
                // public result list (combining); empty = forward as-is.
                let n = args.len();
                if n != 0 && n != kr && n != e.public_results.len() {
                    return Err(LangError::at(
                        *pos,
                        format!(
                            "`finish {}` takes {} intercepted result(s), or all {} public \
                             results when combining, or none to forward as-is",
                            e.name,
                            kr,
                            e.public_results.len()
                        ),
                    ));
                }
                let want = if n == kr {
                    &e.public_results[..kr]
                } else {
                    &e.public_results
                };
                CStmt::Finish {
                    entry,
                    slot,
                    args: self.typed(args, want)?,
                    pos: *pos,
                }
            }
        })
    }

    fn par_branch(
        &mut self,
        target: &CallTarget,
        args: &[Expr],
        pos: Pos,
    ) -> Result<CParBranch, LangError> {
        match target {
            CallTarget::Entry(obj, entry) => Ok(self.entry_call(obj, entry, args, pos)?.1),
            CallTarget::Plain(name) => Err(LangError::at(
                pos,
                format!("`par` branches must call object entries (`X.P`); `{name}` is not"),
            )),
        }
    }

    fn arm(&mut self, arm: &Guarded) -> Result<CGuarded, LangError> {
        self.scoped(|cx| {
            // Bounds are typed before the quantifier variable is bound.
            let quant = match &arm.quantifier {
                Some((qv, lo, hi)) => {
                    let lo = cx.expect(lo, &TypeExpr::Int)?;
                    let hi = cx.expect(hi, &TypeExpr::Int)?;
                    Some((cx.loop_var(qv), lo, hi))
                }
                None => None,
            };
            let (kind, binds) = match &arm.kind {
                GuardKind::Accept { slot, binds } => {
                    let (entry, _, t) = cx.accept_await(true, slot, binds, slot.pos, arm.pos)?;
                    (CGuardKind::Accept { entry, binds: t }, &binds[..])
                }
                GuardKind::Await { slot, binds } => {
                    let (entry, _, t) = cx.accept_await(false, slot, binds, slot.pos, arm.pos)?;
                    (CGuardKind::Await { entry, binds: t }, &binds[..])
                }
                GuardKind::Receive { chan, binds } => {
                    let (sig, chan) = cx.chan_sig(chan)?;
                    let t = cx.bind(binds, &sig, arm.pos)?;
                    (CGuardKind::Receive { chan, binds: t }, &binds[..])
                }
                GuardKind::Plain => (CGuardKind::Plain, &[][..]),
            };
            // `when`/`pri` see the candidate's values through the overlay:
            // slot 0 is the quantifier (if any), then the bind names in
            // order. The overlay shadows frame and environment. Plain
            // guards have no bound values; their `when` (pre-evaluated)
            // and `pri` resolve in the ordinary arm scope.
            if !matches!(arm.kind, GuardKind::Plain) {
                let qv = arm.quantifier.iter().map(|(qv, _, _)| qv);
                let names = qv.chain(binds.iter().map(|LValue::Var(n, _)| n));
                cx.overlay = Some(names.enumerate().map(|(i, n)| (n.clone(), i)).collect());
            }
            let when = arm
                .when
                .as_ref()
                .map(|w| cx.expect(w, &TypeExpr::Bool))
                .transpose()?;
            let pri = arm
                .pri
                .as_ref()
                .map(|p| cx.expect(p, &TypeExpr::Int))
                .transpose()?;
            cx.overlay = None;
            let body = cx.stmts(&arm.body)?;
            Ok(CGuarded {
                quant,
                kind,
                shape: GuardShape::of(when.as_ref(), pri.as_ref()),
                when,
                pri,
                body,
                pos: arm.pos,
            })
        })
    }

    // ---- expressions ---------------------------------------------------

    fn chan_sig(&mut self, chan: &Expr) -> Result<(Vec<TypeExpr>, CExpr), LangError> {
        let (tys, c) = self.expr(chan)?;
        match tys.as_slice() {
            [TypeExpr::Chan(sig)] => Ok((sig.clone(), c)),
            other => Err(LangError::at(
                chan.pos(),
                format!("expected a channel, found {other:?}"),
            )),
        }
    }

    fn expect(&mut self, e: &Expr, want: &TypeExpr) -> Result<CExpr, LangError> {
        let (tys, c) = self.expr(e)?;
        match tys.as_slice() {
            [one] if one == want => Ok(c),
            other => Err(LangError::at(
                e.pos(),
                format!("expected {want:?}, found {other:?}"),
            )),
        }
    }

    /// Each of `args` against its wanted type; the caller checked the
    /// count.
    fn typed(&mut self, args: &[Expr], want: &[TypeExpr]) -> Result<Vec<CExpr>, LangError> {
        each(args.iter().zip(want), |(a, w)| self.expect(a, w))
    }

    /// Expressions of any type (`print`'s arguments).
    fn untyped(&mut self, args: &[Expr]) -> Result<Vec<CExpr>, LangError> {
        each(args.iter(), |a| Ok(self.expr(a)?.1))
    }

    /// Types of an expression (multi-result entry calls yield a tuple),
    /// and its IR.
    fn expr(&mut self, e: &Expr) -> Result<(Vec<TypeExpr>, CExpr), LangError> {
        Ok(match e {
            Expr::Int(v, _) => (vec![TypeExpr::Int], CExpr::Const(Value::Int(*v))),
            Expr::Float(v, _) => (vec![TypeExpr::Float], CExpr::Const(Value::Float(*v))),
            Expr::Str(s, _) => (vec![TypeExpr::Str], CExpr::Const(Value::str(s))),
            Expr::Bool(b, _) => (vec![TypeExpr::Bool], CExpr::Const(Value::Bool(*b))),
            Expr::Var(name, pos) => {
                let (ty, r) = self.var(name, *pos)?;
                (vec![ty], CExpr::Var(r, *pos))
            }
            Expr::Pending(entry, pos) => {
                if self.scope != Scope::Manager {
                    return Err(LangError::at(
                        *pos,
                        "`#P` pending counts are only available in the manager",
                    ));
                }
                let (ei, _) = entry_of(self.own(), entry, *pos)?;
                (vec![TypeExpr::Int], CExpr::Pending(ei, *pos))
            }
            Expr::Unary(op, inner, pos) => {
                let (t, c) = self.expr(inner)?;
                let t = match (op, t.as_slice()) {
                    (UnOp::Neg, [TypeExpr::Int]) => TypeExpr::Int,
                    (UnOp::Neg, [TypeExpr::Float]) => TypeExpr::Float,
                    (UnOp::Not, [TypeExpr::Bool]) => TypeExpr::Bool,
                    (_, other) => {
                        return Err(LangError::at(
                            *pos,
                            format!("bad operand {other:?} for unary {op:?}"),
                        ))
                    }
                };
                (vec![t], CExpr::Unary(*op, Box::new(c), *pos))
            }
            Expr::Binary(op, a, b, pos) => {
                let (ta, ca) = self.expr(a)?;
                let (tb, cb) = self.expr(b)?;
                let ([ta], [tb]) = (ta.as_slice(), tb.as_slice()) else {
                    return Err(LangError::at(*pos, "tuple value used as an operand"));
                };
                let t = binary_type(*op, ta, tb, *pos)?;
                (
                    vec![t],
                    CExpr::Binary(*op, Box::new(ca), Box::new(cb), *pos),
                )
            }
            Expr::Call(target, args, pos) => self.call(target, args, *pos)?,
        })
    }

    /// The arguments of a call to `callee`, against its parameter types.
    fn args(
        &mut self,
        callee: impl Display,
        args: &[Expr],
        want: &[TypeExpr],
        pos: Pos,
    ) -> Result<Vec<CExpr>, LangError> {
        if args.len() != want.len() {
            return Err(LangError::at(
                pos,
                format!(
                    "`{callee}` takes {} argument(s), got {}",
                    want.len(),
                    args.len()
                ),
            ));
        }
        self.typed(args, want)
    }

    /// `X.P(…)`: the callee's public results and the resolved call.
    fn entry_call(
        &mut self,
        objname: &str,
        entry: &str,
        args: &[Expr],
        pos: Pos,
    ) -> Result<(Vec<TypeExpr>, CParBranch), LangError> {
        let Some(oi) = self.objects.iter().position(|o| o.name == objname) else {
            return Err(LangError::at(pos, format!("unknown object `{objname}`")));
        };
        let info = &self.objects[oi];
        let (ei, e) = entry_of(info, entry, pos)?;
        if e.local && self.obj.is_none_or(|(_, o)| o.name != info.name) {
            return Err(LangError::at(
                pos,
                format!("`{objname}.{entry}` is local to its object"),
            ));
        }
        let args = self.args(
            format_args!("{objname}.{entry}"),
            args,
            &e.public_params,
            pos,
        )?;
        let flat = self.flat_base[oi] + ei;
        Ok((
            e.public_results.clone(),
            CParBranch {
                obj: oi,
                flat,
                args,
                pos,
            },
        ))
    }

    /// A call: builtin, sibling procedure or object entry.
    fn call(
        &mut self,
        target: &CallTarget,
        args: &[Expr],
        pos: Pos,
    ) -> Result<(Vec<TypeExpr>, CExpr), LangError> {
        let name = match target {
            CallTarget::Entry(obj, entry) => {
                let (tys, b) = self.entry_call(obj, entry, args, pos)?;
                let (obj, flat, args) = (b.obj, b.flat, b.args);
                return Ok((
                    tys,
                    CExpr::CallEntry {
                        obj,
                        flat,
                        args,
                        pos,
                    },
                ));
            }
            CallTarget::Plain(name) => name,
        };
        // Builtins shadow sibling procedures.
        if let Some(b) = self.builtin(name, args, pos)? {
            return Ok(b);
        }
        let Some((oi, info)) = self.obj else {
            return Err(LangError::at(
                pos,
                format!("unknown procedure or builtin `{name}`"),
            ));
        };
        let (entry, e) = entry_of(info, name, pos)?;
        let args = self.args(name, args, &e.public_params, pos)?;
        // An intercepted sibling goes through the own manager; any other
        // runs inline.
        let c = if e.intercept.is_some() {
            let flat = self.flat_base[oi] + entry;
            CExpr::CallSelf { flat, args, pos }
        } else {
            CExpr::CallInline { entry, args, pos }
        };
        Ok((e.public_results.clone(), c))
    }

    /// If `name` is a builtin, check it and return its result types and IR.
    fn builtin(
        &mut self,
        name: &str,
        args: &[Expr],
        pos: Pos,
    ) -> Result<Option<(Vec<TypeExpr>, CExpr)>, LangError> {
        let arity = |n: usize| -> Result<(), LangError> {
            if args.len() != n {
                Err(LangError::at(
                    pos,
                    format!("builtin `{name}` takes {n} argument(s), got {}", args.len()),
                ))
            } else {
                Ok(())
            }
        };
        let call = |tys: Vec<TypeExpr>, b: Builtin, args: Vec<CExpr>| {
            Ok(Some((tys, CExpr::CallBuiltin(b, args, pos))))
        };
        match name {
            "print" => call(vec![], Builtin::Print, self.untyped(args)?),
            "str" => {
                arity(1)?;
                call(vec![TypeExpr::Str], Builtin::Str, self.untyped(args)?)
            }
            "len" => {
                arity(1)?;
                let (t, c) = self.expr(&args[0])?;
                match t.as_slice() {
                    [TypeExpr::List(_)] | [TypeExpr::Str] => {
                        call(vec![TypeExpr::Int], Builtin::Len, vec![c])
                    }
                    other => Err(LangError::at(
                        pos,
                        format!("`len` needs a list or string, found {other:?}"),
                    )),
                }
            }
            "now" => {
                arity(0)?;
                call(vec![TypeExpr::Int], Builtin::Now, vec![])
            }
            "sleep" => {
                arity(1)?;
                call(
                    vec![],
                    Builtin::Sleep,
                    vec![self.expect(&args[0], &TypeExpr::Int)?],
                )
            }
            "push" | "remove" | "pop" | "get" | "set" => {
                // (arity, has an index, position of the stored element)
                let (n, indexed, elem_arg) = match name {
                    "push" => (2, false, Some(1)),
                    "remove" | "get" => (2, true, None),
                    "pop" => (1, false, None),
                    _ => (3, true, Some(2)),
                };
                arity(n)?;
                let (t, list) = self.expr(&args[0])?;
                let index = if indexed {
                    Some(self.expect(&args[1], &TypeExpr::Int)?)
                } else {
                    None
                };
                let [TypeExpr::List(elem)] = t.as_slice() else {
                    return Err(LangError::at(
                        pos,
                        format!("`{name}` needs a list, found {t:?}"),
                    ));
                };
                let stored = elem_arg.map(|i| self.expect(&args[i], elem)).transpose()?;
                let tys = if stored.is_some() {
                    vec![]
                } else {
                    vec![(**elem).clone()]
                };
                let rest: Vec<CExpr> = index.into_iter().chain(stored).collect();
                if name == "get" {
                    return call(tys, Builtin::Get, [list].into_iter().chain(rest).collect());
                }
                // The mutating builtins update their list variable in place.
                let CExpr::Var(target, _) = list else {
                    return Err(LangError::at(
                        pos,
                        format!("`{name}` needs a list variable"),
                    ));
                };
                let b = match name {
                    "push" => Builtin::Push(target),
                    "remove" => Builtin::Remove(target),
                    "pop" => Builtin::Pop(target),
                    _ => Builtin::Set(target),
                };
                call(tys, b, rest)
            }
            _ => Ok(None),
        }
    }
}

/// The type of `a op b`.
fn binary_type(op: BinOp, a: &TypeExpr, b: &TypeExpr, pos: Pos) -> Result<TypeExpr, LangError> {
    use BinOp::*;
    use TypeExpr::{Bool, Float, Int, Str};
    let err = |m: String| Err(LangError::at(pos, m));
    let same = |ok: &[TypeExpr]| a == b && ok.contains(a);
    match op {
        Add if same(&[Int, Float, Str]) => Ok(a.clone()),
        Add => err(format!("cannot add {a:?} and {b:?}")),
        Sub | Mul | Div | Mod if same(&[Int, Float]) => Ok(a.clone()),
        Sub | Mul | Div | Mod => err(format!("bad operands {a:?}, {b:?} for {op:?}")),
        Eq | Ne if a == b => Ok(Bool),
        Eq | Ne => err(format!("cannot compare {a:?} with {b:?}")),
        Lt | Le | Gt | Ge if same(&[Int, Float, Str]) => Ok(Bool),
        Lt | Le | Gt | Ge => err(format!("cannot order {a:?} and {b:?}")),
        And | Or if *a == Bool && *b == Bool => Ok(Bool),
        And | Or => err("`and`/`or` need booleans".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<Checked, LangError> {
        check(parse(src).unwrap())
    }

    #[test]
    fn hidden_params_are_derived_from_signature_difference() {
        let c = check_src(
            r#"
            object Spooler defines
              proc Print(File: string);
            end Spooler;
            object Spooler implements
              proc Print[1..4](File: string; Printer: int) returns (int);
              begin return (Printer) end Print;
              manager
                intercepts Print(string);
                begin skip end;
            end Spooler;
            "#,
        )
        .unwrap();
        let o = c.object("Spooler").unwrap();
        let e = &o.entries[0];
        assert_eq!(e.public_params, vec![TypeExpr::Str]);
        assert_eq!(e.hidden_params, vec![TypeExpr::Int]);
        assert_eq!(e.hidden_results, vec![TypeExpr::Int]);
        assert_eq!(e.array, 4);
        assert_eq!(e.intercept, Some((1, 0)));
    }

    #[test]
    fn defined_but_not_implemented_is_an_error() {
        let err = check_src(
            r#"
            object X defines
              proc P();
            end X;
            object X implements
            end X;
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("not implemented"));
    }

    #[test]
    fn implementation_must_extend_definition() {
        let err = check_src(
            r#"
            object X defines
              proc P(a: int);
            end X;
            object X implements
              proc P(a: string);
              begin skip end P;
            end X;
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("extend"));
    }

    #[test]
    fn hidden_without_intercept_rejected() {
        let err = check_src(
            r#"
            object X defines
              proc P(a: int);
            end X;
            object X implements
              proc P(a: int; hiddenb: int);
              begin skip end P;
            end X;
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("hidden"));
    }

    #[test]
    fn manager_primitives_rejected_outside_manager() {
        let err = check_src(
            r#"
            main begin
              accept P
            end
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("manager primitive"));
    }

    #[test]
    fn pending_count_only_in_manager() {
        let err = check_src("main var x: int; begin x := #P end").unwrap_err();
        assert!(err.to_string().contains("manager"));
    }

    #[test]
    fn undeclared_variable_rejected() {
        let err = check_src("main begin x := 1 end").unwrap_err();
        assert!(err.to_string().contains("undeclared"));
    }

    #[test]
    fn type_mismatch_in_assignment_rejected() {
        let err = check_src(r#"main var x: int; begin x := "s" end"#).unwrap_err();
        assert!(err.to_string().contains("cannot assign"));
    }

    #[test]
    fn intercept_must_be_prefix() {
        let err = check_src(
            r#"
            object X defines
              proc P(a: int; b: string);
            end X;
            object X implements
              proc P(a: int; b: string);
              begin skip end P;
              manager
                intercepts P(string);
                begin skip end;
            end X;
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("initial subsequence"));
    }

    #[test]
    fn builtin_checking() {
        assert!(check_src(
            r#"main var xs: list(int); var n: int; begin push(xs, 1); n := len(xs) end"#
        )
        .is_ok());
        assert!(check_src(r#"main var xs: list(int); begin push(xs, "s") end"#).is_err());
        assert!(check_src("main begin nonsense(1) end").is_err());
    }

    #[test]
    fn guard_binds_are_implicitly_declared() {
        let ok = check_src(
            r#"
            object B defines
              proc Deposit(M: int);
            end B;
            object B implements
              proc Deposit(M: int);
              begin skip end Deposit;
              manager
                intercepts Deposit(int);
                var Count: int;
                begin
                  loop
                    accept Deposit(M) when M > 0 => execute Deposit(M); Count := Count + 1
                  end loop
                end;
            end B;
            "#,
        );
        assert!(ok.is_ok(), "{ok:?}");
    }

    #[test]
    fn object_calls_typed_against_public_signature() {
        let src = r#"
            object E defines
              proc Echo(v: int) returns (int);
            end E;
            object E implements
              proc Echo(v: int) returns (int);
              begin return (v) end Echo;
            end E;
            main var x: int; begin x := E.Echo(5) end
        "#;
        assert!(check_src(src).is_ok());
        let bad = src.replace("E.Echo(5)", r#"E.Echo("s")"#);
        assert!(check_src(&bad).is_err());
    }

    #[test]
    fn local_not_callable_from_main() {
        let err = check_src(
            r#"
            object X implements
              local proc H() returns (int);
              begin return (1) end H;
            end X;
            main var v: int; begin v := X.H() end
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("local"));
    }

    #[test]
    fn par_requires_entry_targets() {
        let err = check_src("main begin par print(1) end par end").unwrap_err();
        assert!(err.to_string().contains("par"));
    }
}
