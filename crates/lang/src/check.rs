//! Static checking: resolves definitions against implementations, derives
//! hidden parameters/results (the implementation-side extras of §2.8),
//! validates intercepts clauses, scopes, types, and the manager-only
//! statements.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::*;
use crate::error::LangError;
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
    /// Index into the implementation's proc list.
    pub impl_idx: usize,
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
    /// Index into `Program::impls`.
    pub impl_idx: usize,
}

/// A checked program, ready for [`lower`](crate::lower::lower).
#[derive(Debug, Clone)]
pub struct Checked {
    /// The syntax tree.
    pub program: Arc<Program>,
    /// Objects in implementation order.
    pub objects: Vec<ObjInfo>,
    /// Object name → index.
    pub obj_idx: HashMap<String, usize>,
}

impl Checked {
    /// Look up an object by name.
    pub fn object(&self, name: &str) -> Option<&ObjInfo> {
        self.obj_idx.get(name).map(|i| &self.objects[*i])
    }
}

/// Check a parsed program.
///
/// # Errors
///
/// [`LangError`] describing the first inconsistency found.
pub fn check(program: Program) -> Result<Checked, LangError> {
    let program = Arc::new(program);
    let mut objects = Vec::new();
    let mut obj_idx = HashMap::new();
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
    for (impl_idx, imp) in program.impls.iter().enumerate() {
        if obj_idx.contains_key(&imp.name) {
            return Err(LangError::at(
                imp.pos,
                format!("duplicate implementation of object `{}`", imp.name),
            ));
        }
        let def = defs_by_name.get(imp.name.as_str()).copied();
        let info = resolve_object(imp, def, impl_idx)?;
        obj_idx.insert(imp.name.clone(), objects.len());
        objects.push(info);
    }
    let checked = Checked {
        program: Arc::clone(&program),
        objects,
        obj_idx,
    };
    // Scope/statement checking per object and for main.
    for info in &checked.objects {
        let imp = &program.impls[info.impl_idx];
        let ck = ScopeChecker::new(&checked);
        ck.check_object(imp, info)?;
    }
    if let Some(main) = &program.main {
        let ck = ScopeChecker::new(&checked);
        ck.check_main(main)?;
    }
    Ok(checked)
}

fn type_prefix_matches(prefix: &[TypeExpr], full: &[TypeExpr]) -> bool {
    prefix.len() <= full.len() && prefix.iter().zip(full).all(|(a, b)| a == b)
}

fn resolve_object(
    imp: &ObjectImpl,
    def: Option<&ObjectDef>,
    impl_idx: usize,
) -> Result<ObjInfo, LangError> {
    let mut entries: Vec<EntryInfo> = Vec::new();
    let mut entry_idx: HashMap<String, usize> = HashMap::new();
    let def_procs: HashMap<&str, &ProcHeader> = def
        .map(|d| d.procs.iter().map(|p| (p.name.as_str(), p)).collect())
        .unwrap_or_default();
    for (pi, p) in imp.procs.iter().enumerate() {
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
                    (
                        impl_params.clone(),
                        impl_results.clone(),
                        vec![],
                        vec![],
                        true,
                    )
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
            impl_idx: pi,
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
        if e.intercept.is_some() && imp.manager.is_none() {
            unreachable!("intercepts are parsed inside the manager");
        }
    }
    Ok(ObjInfo {
        name: imp.name.clone(),
        entries,
        entry_idx,
        impl_idx,
    })
}

/// Where a statement appears, for the manager-only rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    ProcBody,
    Manager,
    Main,
    Init,
}

struct ScopeChecker<'c> {
    checked: &'c Checked,
}

struct Vars {
    frames: Vec<HashMap<String, TypeExpr>>,
}

impl Vars {
    fn new() -> Vars {
        Vars {
            frames: vec![HashMap::new()],
        }
    }

    fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.frames.pop();
    }

    fn declare(&mut self, name: &str, ty: TypeExpr) {
        self.frames
            .last_mut()
            .expect("at least one frame")
            .insert(name.to_string(), ty);
    }

    fn lookup(&self, name: &str) -> Option<&TypeExpr> {
        self.frames.iter().rev().find_map(|f| f.get(name))
    }
}

impl<'c> ScopeChecker<'c> {
    fn new(checked: &'c Checked) -> Self {
        ScopeChecker { checked }
    }

    fn check_object(&self, imp: &ObjectImpl, info: &ObjInfo) -> Result<(), LangError> {
        let mut object_vars = Vars::new();
        for v in &imp.vars {
            object_vars.declare(&v.name, v.ty.clone());
        }
        // Init code: object vars only.
        self.check_stmts(&imp.init, &mut object_vars, Scope::Init, Some(info), &[])?;
        // Bodies.
        for p in &imp.procs {
            let mut vars = Vars::new();
            for v in &imp.vars {
                vars.declare(&v.name, v.ty.clone());
            }
            vars.push();
            for prm in &p.header.params {
                vars.declare(&prm.name, prm.ty.clone());
            }
            for l in &p.vars {
                vars.declare(&l.name, l.ty.clone());
            }
            self.check_stmts(
                &p.body,
                &mut vars,
                Scope::ProcBody,
                Some(info),
                &p.header.results,
            )?;
        }
        // Manager.
        if let Some(m) = &imp.manager {
            let mut vars = Vars::new();
            for v in &imp.vars {
                vars.declare(&v.name, v.ty.clone());
            }
            vars.push();
            for l in &m.vars {
                vars.declare(&l.name, l.ty.clone());
            }
            self.check_stmts(&m.body, &mut vars, Scope::Manager, Some(info), &[])?;
        }
        Ok(())
    }

    fn check_main(&self, main: &MainBlock) -> Result<(), LangError> {
        let mut vars = Vars::new();
        for v in &main.vars {
            vars.declare(&v.name, v.ty.clone());
        }
        self.check_stmts(&main.body, &mut vars, Scope::Main, None, &[])
    }

    fn entry<'a>(
        &'a self,
        info: &'a ObjInfo,
        name: &str,
        pos: Pos,
    ) -> Result<&'a EntryInfo, LangError> {
        info.entry_idx
            .get(name)
            .map(|i| &info.entries[*i])
            .ok_or_else(|| {
                LangError::at(
                    pos,
                    format!("object `{}` has no procedure `{}`", info.name, name),
                )
            })
    }

    #[allow(clippy::too_many_lines)]
    fn check_stmts(
        &self,
        stmts: &[Stmt],
        vars: &mut Vars,
        scope: Scope,
        obj: Option<&ObjInfo>,
        proc_results: &[TypeExpr],
    ) -> Result<(), LangError> {
        for s in stmts {
            self.check_stmt(s, vars, scope, obj, proc_results)?;
        }
        Ok(())
    }

    fn require_manager(&self, scope: Scope, what: &str, pos: Pos) -> Result<(), LangError> {
        if scope != Scope::Manager {
            return Err(LangError::at(
                pos,
                format!("`{what}` is a manager primitive and may only appear in a manager"),
            ));
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn check_stmt(
        &self,
        s: &Stmt,
        vars: &mut Vars,
        scope: Scope,
        obj: Option<&ObjInfo>,
        proc_results: &[TypeExpr],
    ) -> Result<(), LangError> {
        match s {
            Stmt::Skip(_) => Ok(()),
            Stmt::Assign(lvs, e, pos) => {
                let tys = self.expr_types(e, vars, scope, obj)?;
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
                for (lv, ty) in lvs.iter().zip(tys) {
                    let LValue::Var(name, vpos) = lv;
                    let Some(want) = vars.lookup(name) else {
                        return Err(LangError::at(
                            *vpos,
                            format!("undeclared variable `{name}`"),
                        ));
                    };
                    if *want != ty {
                        return Err(LangError::at(
                            *vpos,
                            format!("cannot assign {ty:?} to `{name}` of type {want:?}"),
                        ));
                    }
                }
                Ok(())
            }
            Stmt::Call(target, args, pos) => {
                let _ = self.call_types(target, args, vars, scope, obj, *pos)?;
                Ok(())
            }
            Stmt::If(arms, els, _) => {
                for (c, body) in arms {
                    self.expect_bool(c, vars, scope, obj)?;
                    self.check_stmts(body, vars, scope, obj, proc_results)?;
                }
                self.check_stmts(els, vars, scope, obj, proc_results)
            }
            Stmt::While(c, body, _) => {
                self.expect_bool(c, vars, scope, obj)?;
                self.check_stmts(body, vars, scope, obj, proc_results)
            }
            Stmt::For(v, lo, hi, body, _) => {
                self.expect_int(lo, vars, scope, obj)?;
                self.expect_int(hi, vars, scope, obj)?;
                vars.push();
                vars.declare(v, TypeExpr::Int);
                let r = self.check_stmts(body, vars, scope, obj, proc_results);
                vars.pop();
                r
            }
            Stmt::Send(chan, args, pos) => {
                let sig = self.chan_sig(chan, vars, scope, obj)?;
                if sig.len() != args.len() {
                    return Err(LangError::at(
                        *pos,
                        format!("send of {} value(s) on chan({})", args.len(), sig.len()),
                    ));
                }
                for (a, want) in args.iter().zip(&sig) {
                    self.expect_type(a, want, vars, scope, obj)?;
                }
                Ok(())
            }
            Stmt::Receive(chan, binds, pos) => {
                let sig = self.chan_sig(chan, vars, scope, obj)?;
                self.bind_types(binds, &sig, vars, *pos)
            }
            Stmt::Select(arms, pos) | Stmt::Loop(arms, pos) => {
                self.require_manager(scope, "select/loop", *pos)?;
                let info = obj.expect("manager scope has an object");
                for arm in arms {
                    vars.push();
                    if let Some((qv, lo, hi)) = &arm.quantifier {
                        self.expect_int(lo, vars, scope, obj)?;
                        self.expect_int(hi, vars, scope, obj)?;
                        vars.declare(qv, TypeExpr::Int);
                    }
                    match &arm.kind {
                        GuardKind::Accept { slot, binds } => {
                            let e = self.entry(info, &slot.entry, slot.pos)?;
                            let Some((kp, _)) = e.intercept else {
                                return Err(LangError::at(
                                    slot.pos,
                                    format!("`accept {}`: procedure is not intercepted", e.name),
                                ));
                            };
                            if let Some(ix) = &slot.index {
                                self.expect_int(ix, vars, scope, obj)?;
                            }
                            let tys: Vec<TypeExpr> = e.public_params[..kp].to_vec();
                            self.bind_types(binds, &tys, vars, arm.pos)?;
                        }
                        GuardKind::Await { slot, binds } => {
                            let e = self.entry(info, &slot.entry, slot.pos)?;
                            let Some((_, kr)) = e.intercept else {
                                return Err(LangError::at(
                                    slot.pos,
                                    format!("`await {}`: procedure is not intercepted", e.name),
                                ));
                            };
                            if let Some(ix) = &slot.index {
                                self.expect_int(ix, vars, scope, obj)?;
                            }
                            let mut tys: Vec<TypeExpr> = e.public_results[..kr].to_vec();
                            tys.extend(e.hidden_results.iter().cloned());
                            self.bind_types(binds, &tys, vars, arm.pos)?;
                        }
                        GuardKind::Receive { chan, binds } => {
                            let sig = self.chan_sig(chan, vars, scope, obj)?;
                            self.bind_types(binds, &sig, vars, arm.pos)?;
                        }
                        GuardKind::Plain => {}
                    }
                    if let Some(w) = &arm.when {
                        self.expect_bool(w, vars, scope, obj)?;
                    }
                    if let Some(p) = &arm.pri {
                        self.expect_int(p, vars, scope, obj)?;
                    }
                    self.check_stmts(&arm.body, vars, scope, obj, proc_results)?;
                    vars.pop();
                }
                Ok(())
            }
            Stmt::Par(calls, pos) => {
                for (t, args) in calls {
                    match t {
                        CallTarget::Entry(..) => {
                            let _ = self.call_types(t, args, vars, scope, obj, *pos)?;
                        }
                        CallTarget::Plain(name) => {
                            return Err(LangError::at(
                                *pos,
                                format!(
                                    "`par` branches must call object entries (`X.P`); \
                                     `{name}` is not"
                                ),
                            ));
                        }
                    }
                }
                Ok(())
            }
            Stmt::ParFor(v, lo, hi, t, args, pos) => {
                self.expect_int(lo, vars, scope, obj)?;
                self.expect_int(hi, vars, scope, obj)?;
                vars.push();
                vars.declare(v, TypeExpr::Int);
                let r = match t {
                    CallTarget::Entry(..) => {
                        self.call_types(t, args, vars, scope, obj, *pos).map(|_| ())
                    }
                    CallTarget::Plain(name) => Err(LangError::at(
                        *pos,
                        format!("`par` branches must call object entries (`X.P`); `{name}` is not"),
                    )),
                };
                vars.pop();
                r
            }
            Stmt::Return(args, pos) => {
                if scope != Scope::ProcBody {
                    return Err(LangError::at(*pos, "`return` only in procedure bodies"));
                }
                if args.len() != proc_results.len() {
                    return Err(LangError::at(
                        *pos,
                        format!(
                            "return of {} value(s) from a procedure returning {}",
                            args.len(),
                            proc_results.len()
                        ),
                    ));
                }
                for (a, want) in args.iter().zip(proc_results) {
                    self.expect_type(a, want, vars, scope, obj)?;
                }
                Ok(())
            }
            Stmt::Accept(slot, binds, pos) => {
                self.require_manager(scope, "accept", *pos)?;
                let info = obj.expect("manager scope");
                let e = self.entry(info, &slot.entry, slot.pos)?;
                let Some((kp, _)) = e.intercept else {
                    return Err(LangError::at(
                        *pos,
                        format!("`accept {}`: procedure is not intercepted", e.name),
                    ));
                };
                if let Some(ix) = &slot.index {
                    self.expect_int(ix, vars, scope, obj)?;
                }
                let tys: Vec<TypeExpr> = e.public_params[..kp].to_vec();
                self.bind_types(binds, &tys, vars, *pos)
            }
            Stmt::AwaitStmt(slot, binds, pos) => {
                self.require_manager(scope, "await", *pos)?;
                let info = obj.expect("manager scope");
                let e = self.entry(info, &slot.entry, slot.pos)?;
                let Some((_, kr)) = e.intercept else {
                    return Err(LangError::at(
                        *pos,
                        format!("`await {}`: procedure is not intercepted", e.name),
                    ));
                };
                if let Some(ix) = &slot.index {
                    self.expect_int(ix, vars, scope, obj)?;
                }
                let mut tys: Vec<TypeExpr> = e.public_results[..kr].to_vec();
                tys.extend(e.hidden_results.iter().cloned());
                self.bind_types(binds, &tys, vars, *pos)
            }
            Stmt::Start(slot, args, pos) | Stmt::Execute(slot, args, pos) => {
                let what = if matches!(s, Stmt::Start(..)) {
                    "start"
                } else {
                    "execute"
                };
                self.require_manager(scope, what, *pos)?;
                let info = obj.expect("manager scope");
                let e = self.entry(info, &slot.entry, slot.pos)?;
                let Some((kp, _)) = e.intercept else {
                    return Err(LangError::at(
                        *pos,
                        format!("`{what} {}`: procedure is not intercepted", e.name),
                    ));
                };
                if let Some(ix) = &slot.index {
                    self.expect_int(ix, vars, scope, obj)?;
                }
                if args.is_empty() {
                    if !e.hidden_params.is_empty() {
                        return Err(LangError::at(
                            *pos,
                            format!("`{what} {}` must supply the hidden parameter(s)", e.name),
                        ));
                    }
                } else {
                    let mut want: Vec<TypeExpr> = e.public_params[..kp].to_vec();
                    want.extend(e.hidden_params.iter().cloned());
                    if args.len() != want.len() {
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
                    for (a, w) in args.iter().zip(&want) {
                        self.expect_type(a, w, vars, scope, obj)?;
                    }
                }
                Ok(())
            }
            Stmt::Finish(slot, args, pos) => {
                self.require_manager(scope, "finish", *pos)?;
                let info = obj.expect("manager scope");
                let e = self.entry(info, &slot.entry, slot.pos)?;
                let Some((_, kr)) = e.intercept else {
                    return Err(LangError::at(
                        *pos,
                        format!("`finish {}`: procedure is not intercepted", e.name),
                    ));
                };
                if let Some(ix) = &slot.index {
                    self.expect_int(ix, vars, scope, obj)?;
                }
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
                let want: &[TypeExpr] = if n == kr {
                    &e.public_results[..kr]
                } else {
                    &e.public_results
                };
                for (a, w) in args.iter().zip(want) {
                    self.expect_type(a, w, vars, scope, obj)?;
                }
                Ok(())
            }
        }
    }

    fn bind_types(
        &self,
        binds: &[LValue],
        tys: &[TypeExpr],
        vars: &mut Vars,
        pos: Pos,
    ) -> Result<(), LangError> {
        if binds.len() != tys.len() {
            return Err(LangError::at(
                pos,
                format!("expected {} binding(s), got {}", tys.len(), binds.len()),
            ));
        }
        for (b, ty) in binds.iter().zip(tys) {
            let LValue::Var(name, vpos) = b;
            match vars.lookup(name) {
                Some(want) if want == ty => {}
                Some(want) => {
                    return Err(LangError::at(
                        *vpos,
                        format!("`{name}` has type {want:?}, cannot bind {ty:?}"),
                    ))
                }
                None => {
                    // Guard binds implicitly declare in the arm scope.
                    vars.declare(name, ty.clone());
                }
            }
        }
        Ok(())
    }

    fn chan_sig(
        &self,
        chan: &Expr,
        vars: &mut Vars,
        scope: Scope,
        obj: Option<&ObjInfo>,
    ) -> Result<Vec<TypeExpr>, LangError> {
        let tys = self.expr_types(chan, vars, scope, obj)?;
        match tys.as_slice() {
            [TypeExpr::Chan(sig)] => Ok(sig.clone()),
            other => Err(LangError::at(
                chan.pos(),
                format!("expected a channel, found {other:?}"),
            )),
        }
    }

    fn expect_bool(
        &self,
        e: &Expr,
        vars: &mut Vars,
        scope: Scope,
        obj: Option<&ObjInfo>,
    ) -> Result<(), LangError> {
        self.expect_type(e, &TypeExpr::Bool, vars, scope, obj)
    }

    fn expect_int(
        &self,
        e: &Expr,
        vars: &mut Vars,
        scope: Scope,
        obj: Option<&ObjInfo>,
    ) -> Result<(), LangError> {
        self.expect_type(e, &TypeExpr::Int, vars, scope, obj)
    }

    fn expect_type(
        &self,
        e: &Expr,
        want: &TypeExpr,
        vars: &mut Vars,
        scope: Scope,
        obj: Option<&ObjInfo>,
    ) -> Result<(), LangError> {
        let tys = self.expr_types(e, vars, scope, obj)?;
        match tys.as_slice() {
            [one] if one == want => Ok(()),
            other => Err(LangError::at(
                e.pos(),
                format!("expected {want:?}, found {other:?}"),
            )),
        }
    }

    /// Types of an expression; multi-result entry calls yield a tuple.
    #[allow(clippy::too_many_lines)]
    fn expr_types(
        &self,
        e: &Expr,
        vars: &mut Vars,
        scope: Scope,
        obj: Option<&ObjInfo>,
    ) -> Result<Vec<TypeExpr>, LangError> {
        Ok(match e {
            Expr::Int(..) => vec![TypeExpr::Int],
            Expr::Float(..) => vec![TypeExpr::Float],
            Expr::Str(..) => vec![TypeExpr::Str],
            Expr::Bool(..) => vec![TypeExpr::Bool],
            Expr::Var(name, pos) => {
                let Some(ty) = vars.lookup(name) else {
                    return Err(LangError::at(*pos, format!("undeclared variable `{name}`")));
                };
                vec![ty.clone()]
            }
            Expr::Pending(entry, pos) => {
                if scope != Scope::Manager {
                    return Err(LangError::at(
                        *pos,
                        "`#P` pending counts are only available in the manager",
                    ));
                }
                let info = obj.expect("manager scope");
                let _ = self.entry(info, entry, *pos)?;
                vec![TypeExpr::Int]
            }
            Expr::Unary(op, inner, pos) => {
                let t = self.expr_types(inner, vars, scope, obj)?;
                match (op, t.as_slice()) {
                    (UnOp::Neg, [TypeExpr::Int]) => vec![TypeExpr::Int],
                    (UnOp::Neg, [TypeExpr::Float]) => vec![TypeExpr::Float],
                    (UnOp::Not, [TypeExpr::Bool]) => vec![TypeExpr::Bool],
                    (_, other) => {
                        return Err(LangError::at(
                            *pos,
                            format!("bad operand {other:?} for unary {op:?}"),
                        ))
                    }
                }
            }
            Expr::Binary(op, a, b, pos) => {
                let ta = self.expr_types(a, vars, scope, obj)?;
                let tb = self.expr_types(b, vars, scope, obj)?;
                let (ta, tb) = match (ta.as_slice(), tb.as_slice()) {
                    ([x], [y]) => (x.clone(), y.clone()),
                    _ => {
                        return Err(LangError::at(
                            *pos,
                            "tuple value used as an operand".to_string(),
                        ))
                    }
                };
                use BinOp::*;
                match op {
                    Add => match (&ta, &tb) {
                        (TypeExpr::Int, TypeExpr::Int) => vec![TypeExpr::Int],
                        (TypeExpr::Float, TypeExpr::Float) => vec![TypeExpr::Float],
                        (TypeExpr::Str, TypeExpr::Str) => vec![TypeExpr::Str],
                        _ => {
                            return Err(LangError::at(
                                *pos,
                                format!("cannot add {ta:?} and {tb:?}"),
                            ))
                        }
                    },
                    Sub | Mul | Div | Mod => match (&ta, &tb) {
                        (TypeExpr::Int, TypeExpr::Int) => vec![TypeExpr::Int],
                        (TypeExpr::Float, TypeExpr::Float) => vec![TypeExpr::Float],
                        _ => {
                            return Err(LangError::at(
                                *pos,
                                format!("bad operands {ta:?}, {tb:?} for {op:?}"),
                            ))
                        }
                    },
                    Eq | Ne => {
                        if ta != tb {
                            return Err(LangError::at(
                                *pos,
                                format!("cannot compare {ta:?} with {tb:?}"),
                            ));
                        }
                        vec![TypeExpr::Bool]
                    }
                    Lt | Le | Gt | Ge => match (&ta, &tb) {
                        (TypeExpr::Int, TypeExpr::Int)
                        | (TypeExpr::Float, TypeExpr::Float)
                        | (TypeExpr::Str, TypeExpr::Str) => vec![TypeExpr::Bool],
                        _ => {
                            return Err(LangError::at(
                                *pos,
                                format!("cannot order {ta:?} and {tb:?}"),
                            ))
                        }
                    },
                    And | Or => {
                        if ta != TypeExpr::Bool || tb != TypeExpr::Bool {
                            return Err(LangError::at(*pos, "`and`/`or` need booleans"));
                        }
                        vec![TypeExpr::Bool]
                    }
                }
            }
            Expr::Call(target, args, pos) => {
                self.call_types(target, args, vars, scope, obj, *pos)?
            }
        })
    }

    /// Types returned by a call (builtin / local proc / object entry).
    fn call_types(
        &self,
        target: &CallTarget,
        args: &[Expr],
        vars: &mut Vars,
        scope: Scope,
        obj: Option<&ObjInfo>,
        pos: Pos,
    ) -> Result<Vec<TypeExpr>, LangError> {
        match target {
            CallTarget::Entry(objname, entry) => {
                let Some(info) = self.checked.object(objname) else {
                    return Err(LangError::at(pos, format!("unknown object `{objname}`")));
                };
                let e = self.entry(info, entry, pos)?;
                if e.local && obj.map(|o| o.name != info.name).unwrap_or(true) {
                    return Err(LangError::at(
                        pos,
                        format!("`{objname}.{entry}` is local to its object"),
                    ));
                }
                if args.len() != e.public_params.len() {
                    return Err(LangError::at(
                        pos,
                        format!(
                            "`{objname}.{entry}` takes {} argument(s), got {}",
                            e.public_params.len(),
                            args.len()
                        ),
                    ));
                }
                let want = e.public_params.clone();
                let rets = e.public_results.clone();
                for (a, w) in args.iter().zip(&want) {
                    self.expect_type(a, w, vars, scope, obj)?;
                }
                Ok(rets)
            }
            CallTarget::Plain(name) => {
                if let Some(tys) = self.builtin_types(name, args, vars, scope, obj, pos)? {
                    return Ok(tys);
                }
                // A sibling procedure of the current object.
                let Some(info) = obj else {
                    return Err(LangError::at(
                        pos,
                        format!("unknown procedure or builtin `{name}`"),
                    ));
                };
                let e = self.entry(info, name, pos)?;
                if args.len() != e.public_params.len() {
                    return Err(LangError::at(
                        pos,
                        format!(
                            "`{name}` takes {} argument(s), got {}",
                            e.public_params.len(),
                            args.len()
                        ),
                    ));
                }
                let want = e.public_params.clone();
                let rets = e.public_results.clone();
                for (a, w) in args.iter().zip(&want) {
                    self.expect_type(a, w, vars, scope, obj)?;
                }
                Ok(rets)
            }
        }
    }

    /// If `name` is a builtin, check it and return its result types.
    fn builtin_types(
        &self,
        name: &str,
        args: &[Expr],
        vars: &mut Vars,
        scope: Scope,
        obj: Option<&ObjInfo>,
        pos: Pos,
    ) -> Result<Option<Vec<TypeExpr>>, LangError> {
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
        match name {
            "print" => {
                for a in args {
                    let _ = self.expr_types(a, vars, scope, obj)?;
                }
                Ok(Some(vec![]))
            }
            "str" => {
                arity(1)?;
                let _ = self.expr_types(&args[0], vars, scope, obj)?;
                Ok(Some(vec![TypeExpr::Str]))
            }
            "len" => {
                arity(1)?;
                let t = self.expr_types(&args[0], vars, scope, obj)?;
                match t.as_slice() {
                    [TypeExpr::List(_)] | [TypeExpr::Str] => Ok(Some(vec![TypeExpr::Int])),
                    other => Err(LangError::at(
                        pos,
                        format!("`len` needs a list or string, found {other:?}"),
                    )),
                }
            }
            "push" => {
                arity(2)?;
                let t = self.expr_types(&args[0], vars, scope, obj)?;
                match t.as_slice() {
                    [TypeExpr::List(elem)] => {
                        self.expect_type(&args[1], elem, vars, scope, obj)?;
                        if !matches!(&args[0], Expr::Var(..)) {
                            return Err(LangError::at(pos, "`push` needs a list variable"));
                        }
                        Ok(Some(vec![]))
                    }
                    other => Err(LangError::at(
                        pos,
                        format!("`push` needs a list, found {other:?}"),
                    )),
                }
            }
            "remove" => {
                arity(2)?;
                let t = self.expr_types(&args[0], vars, scope, obj)?;
                self.expect_int(&args[1], vars, scope, obj)?;
                match t.as_slice() {
                    [TypeExpr::List(elem)] => {
                        if !matches!(&args[0], Expr::Var(..)) {
                            return Err(LangError::at(pos, "`remove` needs a list variable"));
                        }
                        Ok(Some(vec![(**elem).clone()]))
                    }
                    other => Err(LangError::at(
                        pos,
                        format!("`remove` needs a list, found {other:?}"),
                    )),
                }
            }
            "pop" => {
                arity(1)?;
                let t = self.expr_types(&args[0], vars, scope, obj)?;
                match t.as_slice() {
                    [TypeExpr::List(elem)] => {
                        if !matches!(&args[0], Expr::Var(..)) {
                            return Err(LangError::at(pos, "`pop` needs a list variable"));
                        }
                        Ok(Some(vec![(**elem).clone()]))
                    }
                    other => Err(LangError::at(
                        pos,
                        format!("`pop` needs a list, found {other:?}"),
                    )),
                }
            }
            "get" => {
                arity(2)?;
                let t = self.expr_types(&args[0], vars, scope, obj)?;
                self.expect_int(&args[1], vars, scope, obj)?;
                match t.as_slice() {
                    [TypeExpr::List(elem)] => Ok(Some(vec![(**elem).clone()])),
                    other => Err(LangError::at(
                        pos,
                        format!("`get` needs a list, found {other:?}"),
                    )),
                }
            }
            "set" => {
                arity(3)?;
                let t = self.expr_types(&args[0], vars, scope, obj)?;
                self.expect_int(&args[1], vars, scope, obj)?;
                match t.as_slice() {
                    [TypeExpr::List(elem)] => {
                        self.expect_type(&args[2], elem, vars, scope, obj)?;
                        if !matches!(&args[0], Expr::Var(..)) {
                            return Err(LangError::at(pos, "`set` needs a list variable"));
                        }
                        Ok(Some(vec![]))
                    }
                    other => Err(LangError::at(
                        pos,
                        format!("`set` needs a list, found {other:?}"),
                    )),
                }
            }
            "now" => {
                arity(0)?;
                Ok(Some(vec![TypeExpr::Int]))
            }
            "sleep" => {
                arity(1)?;
                self.expect_int(&args[0], vars, scope, obj)?;
                Ok(Some(vec![]))
            }
            _ => Ok(None),
        }
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
