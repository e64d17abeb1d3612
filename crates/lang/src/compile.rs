//! Compiled backend: executes lowered IR ([`crate::ir`]) directly on the
//! fast runtime.
//!
//! Where the interpreter pays a `Mutex<HashMap<String, ObjectHandle>>`
//! lookup, a string-keyed entry resolution, and a `HashMap<String,
//! Value>` frame per call, the compiled executor works entirely over
//! pre-resolved indices:
//!
//! * entry calls go through interned tables —
//!   `handle.call_id(entry_id, valvec)` with zero hashing and zero locks
//!   on the lookup path (`OnceLock` reads are a plain atomic load);
//! * activation frames are flat `Vec<Value>`s indexed by slot;
//! * manager selects build guards with [`Guard::accept_idx`] /
//!   [`Guard::await_idx`] and key their accepted/ready tokens into flat
//!   vectors by `AcceptedCall::entry_index()` — no string ever crosses
//!   the select hot path;
//! * `#P` counts use [`ManagerCtx::pending_idx`] / `GuardView::pending_idx`.
//!
//! Emitted objects are ordinary `ObjectBuilder` products: supervision,
//! deadlines/retry (`call_id_deadline`/`call_id_retry` on
//! [`Compiled::handle`]) and `ShardedBuilder` spread all apply
//! unchanged.
//!
//! Observable behaviour (print output, error positions, channel and
//! default-value semantics) matches the interpreter; the equivalence is
//! pinned program-for-program by `tests/interpreter_equivalence.rs`.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use alps_core::{
    AcceptedCall, AlpsError, ChanValue, EntryDef, Guard, ManagerCtx, ObjectBuilder, ObjectHandle,
    PoolMode, ReadyEntry, Selected, ValVec, Value,
};
use alps_runtime::Runtime;
use parking_lot::Mutex;

use crate::ast::{BinOp, UnOp};
use crate::check::Checked;
use crate::interp::{binop, rerr, to_slot0, Output, RunError};
use crate::ir::*;
use crate::lower::lower;
use crate::token::Pos;

/// Interned runtime tables filled during spawn: one handle per object,
/// one [`alps_core::EntryId`] per entry (flat, `CUnit::flat_base`
/// indexed), one environment vector per object.
struct Tables {
    handles: Vec<OnceLock<ObjectHandle>>,
    ids: Vec<OnceLock<alps_core::EntryId>>,
    envs: Vec<Arc<Mutex<Vec<Value>>>>,
}

/// The compiled program plus its runtime linkage.
struct Prog {
    unit: CUnit,
    tables: Tables,
    rt: Runtime,
    out: Output,
}

/// A spawned compiled program. Objects are live; [`Compiled::handle`]
/// exposes them for direct embedded-API use (deadline calls, retry,
/// benchmarking), [`Compiled::run_main`] drives the program's `main`
/// block, [`Compiled::shutdown`] tears the objects down.
pub struct Compiled {
    prog: Arc<Prog>,
}

impl Compiled {
    /// Handle of a spawned object, for direct `call_id`/deadline/retry
    /// use from Rust.
    pub fn handle(&self, object: &str) -> Option<ObjectHandle> {
        let oi = self
            .prog
            .unit
            .objects
            .iter()
            .position(|o| o.name == object)?;
        self.prog.tables.handles[oi].get().cloned()
    }

    /// Run the program's `main` block (no-op without one).
    ///
    /// # Errors
    ///
    /// [`RunError::Run`] for runtime failures.
    pub fn run_main(&self) -> Result<(), RunError> {
        let Some(main) = &self.prog.unit.main else {
            return Ok(());
        };
        let ex = Ex {
            p: &self.prog,
            obj: None,
        };
        let mut frame = new_frame(main, std::iter::empty());
        ex.exec_block(&mut frame, &main.body, None)
            .map(|_| ())
            .map_err(RunError::Run)
    }

    /// Shut all objects down (idempotent).
    pub fn shutdown(&self) {
        for h in &self.prog.tables.handles {
            if let Some(h) = h.get() {
                h.shutdown();
            }
        }
    }
}

/// Compile and spawn a checked program's objects on the runtime,
/// without running `main`. Init code runs here, in declaration order,
/// exactly as in the interpreter.
///
/// # Errors
///
/// [`RunError::Run`] if init code fails or an object cannot spawn.
pub fn spawn_compiled(
    rt: &Runtime,
    checked: &Arc<Checked>,
    out: Output,
) -> Result<Compiled, RunError> {
    spawn_compiled_with_pool(rt, checked, out, PoolMode::PerSlot)
}

/// As [`spawn_compiled`], with an explicit process-pool strategy.
///
/// # Errors
///
/// As [`spawn_compiled`].
pub fn spawn_compiled_with_pool(
    rt: &Runtime,
    checked: &Arc<Checked>,
    out: Output,
    pool: PoolMode,
) -> Result<Compiled, RunError> {
    let unit = lower(checked);
    let n_obj = unit.objects.len();
    let total = unit.total_entries;
    let envs = unit
        .objects
        .iter()
        .map(|o| Arc::new(Mutex::new(o.env.iter().map(DefaultVal::make).collect())))
        .collect();
    let prog = Arc::new(Prog {
        unit,
        tables: Tables {
            handles: (0..n_obj).map(|_| OnceLock::new()).collect(),
            ids: (0..total).map(|_| OnceLock::new()).collect(),
            envs,
        },
        rt: rt.clone(),
        out,
    });
    for oi in 0..n_obj {
        // Initialization code first, then the manager comes up (paper:
        // "its initialization code is first executed and then its
        // manager process is implicitly created").
        if let Some(init) = &prog.unit.objects[oi].init {
            let ex = Ex {
                p: &prog,
                obj: Some(oi),
            };
            let mut frame = new_frame(init, std::iter::empty());
            ex.exec_block(&mut frame, &init.body, None)
                .map_err(RunError::Run)?;
        }
        let cobj = &prog.unit.objects[oi];
        let mut builder = ObjectBuilder::new(&cobj.name).pool(pool);
        for (ei, ce) in cobj.entries.iter().enumerate() {
            let mut def = EntryDef::new(&ce.name)
                .params(ce.public_params.iter().cloned())
                .results(ce.public_results.iter().cloned())
                .hidden_params(ce.hidden_params.iter().cloned())
                .hidden_results(ce.hidden_results.iter().cloned())
                .array(ce.array);
            if ce.local {
                def = def.local();
            }
            if let Some((kp, kr)) = ce.intercept {
                def = def.intercept_params(kp).intercept_results(kr);
            }
            let p2 = Arc::clone(&prog);
            def = def.body(move |_ctx, args| {
                let ex = Ex {
                    p: &p2,
                    obj: Some(oi),
                };
                let ce = &p2.unit.objects[oi].entries[ei];
                let mut frame = new_frame(&ce.code, args);
                match ex.exec_block(&mut frame, &ce.code.body, None)? {
                    Flow::Return(vals) => Ok(vals),
                    Flow::Normal if ce.code.result_count == 0 => Ok(vec![]),
                    Flow::Normal => Err(rerr(
                        ce.code.pos,
                        format!(
                            "procedure `{}` ended without returning {} value(s)",
                            ce.name, ce.code.result_count
                        ),
                    )),
                }
            });
            builder = builder.entry(def);
        }
        if cobj.manager.is_some() {
            let p2 = Arc::clone(&prog);
            builder = builder.manager(move |mctx| {
                let ex = Ex {
                    p: &p2,
                    obj: Some(oi),
                };
                let cobj = &p2.unit.objects[oi];
                let mgr = cobj.manager.as_ref().expect("manager present");
                let mut frame = new_frame(mgr, std::iter::empty());
                let toks = RefCell::new(Toks::new(cobj.tok_len));
                let cm = CMgr {
                    ctx: mctx,
                    toks: &toks,
                    tok_base: &cobj.tok_base,
                };
                ex.exec_block(&mut frame, &mgr.body, Some(&cm)).map(|_| ())
            });
        }
        let handle = builder.spawn(rt).map_err(RunError::Run)?;
        let base = prog.unit.flat_base[oi];
        for (ei, ce) in cobj.entries.iter().enumerate() {
            let id = handle.entry_id(&ce.name).map_err(RunError::Run)?;
            let _ = prog.tables.ids[base + ei].set(id);
        }
        let _ = prog.tables.handles[oi].set(handle);
    }
    Ok(Compiled { prog })
}

/// Compile a checked program and run it on the given runtime: lower to
/// IR, spawn the objects as direct fast-runtime objects, run `main`,
/// tear down. The compiled counterpart of
/// [`crate::interp::run_checked`].
///
/// # Errors
///
/// [`RunError::Run`] for runtime failures.
pub fn run_compiled(rt: &Runtime, checked: &Arc<Checked>, out: Output) -> Result<(), RunError> {
    run_compiled_with_pool(rt, checked, out, PoolMode::PerSlot)
}

/// As [`run_compiled`], with an explicit process-pool strategy.
///
/// # Errors
///
/// As [`run_compiled`].
pub fn run_compiled_with_pool(
    rt: &Runtime,
    checked: &Arc<Checked>,
    out: Output,
    pool: PoolMode,
) -> Result<(), RunError> {
    let c = spawn_compiled_with_pool(rt, checked, out, pool)?;
    let result = c.run_main();
    c.shutdown();
    result
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

// ---- executor ----------------------------------------------------------

/// Build an activation frame: argument slots, declared-local defaults,
/// `Unit` fillers for loop/bind slots.
fn new_frame(cp: &CProc, args: impl IntoIterator<Item = Value>) -> Vec<Value> {
    let mut f = Vec::with_capacity(cp.frame_size);
    f.extend(args);
    f.truncate(cp.params);
    while f.len() < cp.params {
        f.push(Value::Unit);
    }
    for d in &cp.defaults {
        f.push(d.make());
    }
    while f.len() < cp.frame_size {
        f.push(Value::Unit);
    }
    f
}

/// How the current frame is borrowed: statement execution writes;
/// guard-condition closures read only.
enum Fr<'a> {
    Mut(&'a mut Vec<Value>),
    Ref(&'a [Value]),
}

/// Source for `#P` evaluation.
enum Pd<'a> {
    None,
    Mgr(&'a ManagerCtx),
    View(&'a alps_core::GuardView<'a>),
}

/// Manager-side token tables, flat over `tok_base[entry] + slot`.
struct Toks {
    accepted: Vec<Option<AcceptedCall>>,
    ready: Vec<Option<ReadyEntry>>,
}

impl Toks {
    fn new(len: usize) -> Toks {
        Toks {
            accepted: (0..len).map(|_| None).collect(),
            ready: (0..len).map(|_| None).collect(),
        }
    }
}

struct CMgr<'a> {
    ctx: &'a ManagerCtx,
    toks: &'a RefCell<Toks>,
    tok_base: &'a [usize],
}

enum Flow {
    Normal,
    Return(Vec<Value>),
}

enum SelOut {
    Ran(Flow),
    AllClosed,
}

/// The executor: a program reference plus the current object (if any).
#[derive(Clone, Copy)]
struct Ex<'p> {
    p: &'p Prog,
    obj: Option<usize>,
}

impl<'p> Ex<'p> {
    fn cobj(&self) -> &'p CObject {
        &self.p.unit.objects[self.obj.expect("object scope")]
    }

    fn env(&self) -> &'p Arc<Mutex<Vec<Value>>> {
        &self.p.tables.envs[self.obj.expect("object scope")]
    }

    fn handle(&self, oi: usize, pos: Pos) -> Result<&'p ObjectHandle, AlpsError> {
        self.p.tables.handles[oi].get().ok_or_else(|| {
            rerr(
                pos,
                format!("object `{}` is not available", self.p.unit.objects[oi].name),
            )
        })
    }

    fn entry_id(&self, flat: usize, pos: Pos) -> Result<alps_core::EntryId, AlpsError> {
        self.p.tables.ids[flat]
            .get()
            .copied()
            .ok_or_else(|| rerr(pos, "entry is not available yet"))
    }

    // ---- variables -----------------------------------------------------

    fn read(
        &self,
        fr: &Fr<'_>,
        ov: Option<&[Value]>,
        r: VarRef,
        pos: Pos,
    ) -> Result<Value, AlpsError> {
        match r {
            VarRef::Overlay(i) => ov
                .and_then(|o| o.get(i))
                .cloned()
                .ok_or_else(|| rerr(pos, "guard value not available")),
            VarRef::Frame(i) => Ok(match fr {
                Fr::Mut(f) => f[i].clone(),
                Fr::Ref(f) => f[i].clone(),
            }),
            VarRef::Env(i) => Ok(self.env().lock()[i].clone()),
        }
    }

    fn write(&self, fr: &mut Fr<'_>, r: VarRef, v: Value, pos: Pos) -> Result<(), AlpsError> {
        match r {
            VarRef::Frame(i) => match fr {
                Fr::Mut(f) => {
                    f[i] = v;
                    Ok(())
                }
                Fr::Ref(_) => Err(rerr(pos, "cannot assign inside a guard condition")),
            },
            VarRef::Env(i) => {
                self.env().lock()[i] = v;
                Ok(())
            }
            VarRef::Overlay(_) => Err(rerr(pos, "cannot assign inside a guard condition")),
        }
    }

    /// Mutate the value behind a resolved variable in place (no
    /// read-clone-write round trip). Guard-condition contexts only hold
    /// the frame read-only and reject the write, matching the
    /// interpreter's guard-assignment rule.
    fn mutate<R>(
        &self,
        fr: &mut Fr<'_>,
        r: VarRef,
        pos: Pos,
        f: impl FnOnce(&mut Value) -> Result<R, AlpsError>,
    ) -> Result<R, AlpsError> {
        match r {
            VarRef::Frame(i) => match fr {
                Fr::Mut(fm) => f(&mut fm[i]),
                Fr::Ref(_) => Err(rerr(pos, "cannot assign inside a guard condition")),
            },
            VarRef::Env(i) => f(&mut self.env().lock()[i]),
            VarRef::Overlay(_) => Err(rerr(pos, "cannot assign inside a guard condition")),
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
                None => Err(rerr(pos, "guard value not available")),
            },
            VarRef::Frame(i) => match fr {
                Fr::Mut(fm) => f(&fm[i]),
                Fr::Ref(fm) => f(&fm[i]),
            },
            VarRef::Env(i) => f(&self.env().lock()[i]),
        }
    }

    // ---- expressions ---------------------------------------------------

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
            CExpr::Pending(entry, pos) => {
                let n = match pd {
                    Pd::Mgr(m) => m
                        .pending_idx(*entry)
                        .map_err(|e| rerr(*pos, e.to_string()))?,
                    Pd::View(v) => v.pending_idx(*entry),
                    Pd::None => return Err(rerr(*pos, "`#P` outside the manager")),
                };
                Ok(Value::Int(n as i64))
            }
            CExpr::Unary(op, inner, pos) => {
                let v = self.eval(fr, ov, pd, inner)?;
                match (op, v) {
                    (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(-i)),
                    (UnOp::Neg, Value::Float(x)) => Ok(Value::Float(-x)),
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (op, v) => Err(rerr(*pos, format!("bad operand {v} for {op:?}"))),
                }
            }
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
                let vs = self.eval_builtin(fr, ov, pd, b, args, *pos)?;
                Err(rerr(*pos, format!("expected one value, got {}", vs.len())))
            }
            CExpr::CallEntry {
                obj,
                flat,
                args,
                pos,
            } => {
                let vv = self.eval_args(fr, ov, pd, args)?;
                let h = self.handle(*obj, *pos)?;
                let id = self.entry_id(*flat, *pos)?;
                one(h.call_id(id, vv)?, *pos)
            }
            CExpr::CallSelf { flat, args, pos } => {
                let vv = self.eval_args(fr, ov, pd, args)?;
                let h = self.handle(self.obj.expect("object scope"), *pos)?;
                let id = self.entry_id(*flat, *pos)?;
                one(h.call_from_inside_id(id, vv)?, *pos)
            }
            CExpr::CallInline { pos, .. } => {
                let vs = self.eval_call(fr, ov, pd, e)?;
                match vs.len() {
                    1 => Ok(vs.into_iter().next().expect("len checked")),
                    n => Err(rerr(*pos, format!("expected one value, got {n}"))),
                }
            }
        }
    }

    fn eval_args(
        &self,
        fr: &mut Fr<'_>,
        ov: Option<&[Value]>,
        pd: &Pd<'_>,
        args: &[CExpr],
    ) -> Result<ValVec, AlpsError> {
        let mut vv = ValVec::new();
        for a in args {
            vv.push(self.eval(fr, ov, pd, a)?);
        }
        Ok(vv)
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
                let vv = self.eval_args(fr, ov, pd, args)?;
                let h = self.handle(*obj, *pos)?;
                let id = self.entry_id(*flat, *pos)?;
                Ok(h.call_id(id, vv)?.into_iter().collect())
            }
            CExpr::CallSelf { flat, args, pos } => {
                let vv = self.eval_args(fr, ov, pd, args)?;
                let h = self.handle(self.obj.expect("object scope"), *pos)?;
                let id = self.entry_id(*flat, *pos)?;
                Ok(h.call_from_inside_id(id, vv)?.into_iter().collect())
            }
            CExpr::CallInline { entry, args, pos } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(fr, ov, pd, a)?);
                }
                self.run_inline(*entry, vals, *pos)
            }
            CExpr::CallBuiltin(b, args, pos) => self.eval_builtin(fr, ov, pd, b, args, *pos),
            other => Ok(vec![self.eval(fr, ov, pd, other)?]),
        }
    }

    /// Run a non-intercepted sibling procedure inline in the current
    /// process.
    fn run_inline(
        &self,
        entry: usize,
        args: Vec<Value>,
        _pos: Pos,
    ) -> Result<Vec<Value>, AlpsError> {
        let ce = &self.cobj().entries[entry];
        let mut frame = new_frame(&ce.code, args);
        match self.exec_block(&mut frame, &ce.code.body, None)? {
            Flow::Return(vals) => Ok(vals),
            Flow::Normal if ce.code.result_count == 0 => Ok(vec![]),
            Flow::Normal => Err(rerr(
                ce.code.pos,
                format!(
                    "procedure `{}` ended without returning {} value(s)",
                    ce.name, ce.code.result_count
                ),
            )),
        }
    }

    /// Evaluate a statically single-valued builtin straight to its
    /// `Value` — no intermediate `Vec` — or return `None` for the
    /// zero-valued ones (`print`, `sleep`, `push`, `set`).
    ///
    /// `get`/`len` on a plain variable borrow the list in place via
    /// [`Self::peek`]; evaluating the operand by value would clone the
    /// whole list per access, which is exactly the O(len) round trip the
    /// interpreter's string-keyed frames cannot avoid.
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
            Builtin::Len => {
                let count = |v: &Value| match v {
                    Value::List(xs) => Ok(xs.len() as i64),
                    Value::Str(s) => Ok(s.chars().count() as i64),
                    other => Err(rerr(pos, format!("len of {other}"))),
                };
                let n = match &args[0] {
                    CExpr::Var(r, vpos) => self.peek(fr, ov, *r, *vpos, count)?,
                    e => count(&self.eval(fr, ov, pd, e)?)?,
                };
                Value::Int(n)
            }
            Builtin::Get => {
                // A variable operand never errors and has no effects, so
                // hoisting the index evaluation is unobservable and lets
                // the list stay borrowed in place instead of being cloned.
                if let CExpr::Var(r, vpos) = &args[0] {
                    let i = self.eval(fr, ov, pd, &args[1])?.as_int()?;
                    self.peek(fr, ov, *r, *vpos, |v| match v {
                        Value::List(xs) => {
                            let idx = list_index(i, xs.len(), pos)?;
                            Ok(xs[idx].clone())
                        }
                        other => Err(rerr(pos, format!("get from {other}"))),
                    })?
                } else {
                    let list = self.eval(fr, ov, pd, &args[0])?;
                    let i = self.eval(fr, ov, pd, &args[1])?.as_int()?;
                    match list {
                        Value::List(xs) => {
                            let idx = list_index(i, xs.len(), pos)?;
                            xs[idx].clone()
                        }
                        other => return Err(rerr(pos, format!("get from {other}"))),
                    }
                }
            }
            Builtin::Now => Value::Int(self.p.rt.now() as i64),
            Builtin::Remove(target) => {
                let i = self.eval(fr, ov, pd, &args[0])?.as_int()?;
                self.mutate(fr, *target, pos, |list| match list {
                    Value::List(xs) => {
                        let idx = list_index(i, xs.len(), pos)?;
                        Ok(xs.remove(idx))
                    }
                    other => Err(rerr(pos, format!("remove from {other}"))),
                })?
            }
            Builtin::Pop(target) => self.mutate(fr, *target, pos, |list| match list {
                Value::List(xs) => {
                    if xs.is_empty() {
                        return Err(rerr(pos, "pop from an empty list"));
                    }
                    Ok(xs.remove(0))
                }
                other => Err(rerr(pos, format!("pop from {other}"))),
            })?,
            Builtin::Print | Builtin::Sleep | Builtin::Push(_) | Builtin::Set(_) => {
                return Ok(None)
            }
        }))
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
        match b {
            Builtin::Print => {
                let mut line = String::new();
                for a in args {
                    use std::fmt::Write as _;
                    let _ = write!(line, "{}", self.eval(fr, ov, pd, a)?);
                }
                self.p.out.line(&line);
                Ok(vec![])
            }
            Builtin::Sleep => {
                let t = self.eval(fr, ov, pd, &args[0])?.as_int()?;
                self.p.rt.sleep(t.max(0) as u64);
                Ok(vec![])
            }
            // The mutating list builtins write through the resolved slot
            // in place. The interpreter's string-keyed frames force a
            // read-clone-modify-write round trip (a full list copy per
            // op); resolved `VarRef`s make the aliasing obvious, so the
            // compiled path skips the copy entirely.
            Builtin::Push(target) => {
                let item = self.eval(fr, ov, pd, &args[0])?;
                self.mutate(fr, *target, pos, |list| match list {
                    Value::List(xs) => {
                        xs.push(item);
                        Ok(vec![])
                    }
                    other => Err(rerr(pos, format!("push to {other}"))),
                })
            }
            Builtin::Set(target) => {
                let i = self.eval(fr, ov, pd, &args[0])?.as_int()?;
                let item = self.eval(fr, ov, pd, &args[1])?;
                self.mutate(fr, *target, pos, |list| match list {
                    Value::List(xs) => {
                        let idx = list_index(i, xs.len(), pos)?;
                        xs[idx] = item;
                        Ok(vec![])
                    }
                    other => Err(rerr(pos, format!("set on {other}"))),
                })
            }
            Builtin::Str
            | Builtin::Len
            | Builtin::Get
            | Builtin::Now
            | Builtin::Remove(_)
            | Builtin::Pop(_) => {
                unreachable!("single-valued builtins are handled by eval_builtin1")
            }
        }
    }

    // ---- statements ----------------------------------------------------

    fn exec_block(
        &self,
        frame: &mut Vec<Value>,
        stmts: &[CStmt],
        mgr: Option<&CMgr<'_>>,
    ) -> Result<Flow, AlpsError> {
        for s in stmts {
            match self.exec_stmt(frame, s, mgr)? {
                Flow::Normal => {}
                ret => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    #[allow(clippy::too_many_lines)]
    fn exec_stmt(
        &self,
        frame: &mut Vec<Value>,
        s: &CStmt,
        mgr: Option<&CMgr<'_>>,
    ) -> Result<Flow, AlpsError> {
        let pd = match mgr {
            Some(m) => Pd::Mgr(m.ctx),
            None => Pd::None,
        };
        match s {
            CStmt::Skip => Ok(Flow::Normal),
            CStmt::Assign(targets, e, pos) => {
                // Single-target assignment from a statically single-valued
                // expression skips the Vec round trip. Entry/inline calls
                // stay on the generic path so multi-value arity mismatches
                // keep their "n value(s) for m target(s)" report.
                if targets.len() == 1 && single_valued(e) {
                    let v = self.eval(&mut Fr::Mut(frame), None, &pd, e)?;
                    self.write(&mut Fr::Mut(frame), targets[0], v, *pos)?;
                    return Ok(Flow::Normal);
                }
                let vals = self.eval_call(&mut Fr::Mut(frame), None, &pd, e)?;
                if vals.len() != targets.len() {
                    return Err(rerr(
                        *pos,
                        format!("{} value(s) for {} target(s)", vals.len(), targets.len()),
                    ));
                }
                for (t, v) in targets.iter().zip(vals) {
                    self.write(&mut Fr::Mut(frame), *t, v, *pos)?;
                }
                Ok(Flow::Normal)
            }
            CStmt::Expr(e) => {
                // Builtins in statement position run through the
                // single-value evaluator when they can (`pop`, `remove`
                // with a discarded result), falling back for the
                // zero-valued ones; either way no result Vec is built.
                if let CExpr::CallBuiltin(b, args, pos) = e {
                    let fast = self.eval_builtin1(&mut Fr::Mut(frame), None, &pd, b, args, *pos)?;
                    if fast.is_none() {
                        let _ = self.eval_builtin(&mut Fr::Mut(frame), None, &pd, b, args, *pos)?;
                    }
                    return Ok(Flow::Normal);
                }
                let _ = self.eval_call(&mut Fr::Mut(frame), None, &pd, e)?;
                Ok(Flow::Normal)
            }
            CStmt::If(arms, els) => {
                for (c, body) in arms {
                    if self.eval(&mut Fr::Mut(frame), None, &pd, c)?.as_bool()? {
                        return self.exec_block(frame, body, mgr);
                    }
                }
                self.exec_block(frame, els, mgr)
            }
            CStmt::While(c, body) => loop {
                if !self.eval(&mut Fr::Mut(frame), None, &pd, c)?.as_bool()? {
                    return Ok(Flow::Normal);
                }
                match self.exec_block(frame, body, mgr)? {
                    Flow::Normal => {}
                    ret => return Ok(ret),
                }
            },
            CStmt::For(slot, lo, hi, body) => {
                let a = self.eval(&mut Fr::Mut(frame), None, &pd, lo)?.as_int()?;
                let b = self.eval(&mut Fr::Mut(frame), None, &pd, hi)?.as_int()?;
                for i in a..=b {
                    frame[*slot] = Value::Int(i);
                    match self.exec_block(frame, body, mgr)? {
                        Flow::Normal => {}
                        ret => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            CStmt::Send(chan, args, pos) => {
                let c = self
                    .eval(&mut Fr::Mut(frame), None, &pd, chan)?
                    .as_chan()
                    .map_err(|_| rerr(*pos, "send on a non-channel"))?
                    .clone();
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(&mut Fr::Mut(frame), None, &pd, a)?);
                }
                c.send(&self.p.rt, vals)?;
                Ok(Flow::Normal)
            }
            CStmt::Receive(chan, binds, pos) => {
                let c = self
                    .eval(&mut Fr::Mut(frame), None, &pd, chan)?
                    .as_chan()
                    .map_err(|_| rerr(*pos, "receive on a non-channel"))?
                    .clone();
                let msg = match mgr {
                    Some(m) => m.ctx.receive(&c)?,
                    None => c.recv(&self.p.rt)?,
                };
                for (t, v) in binds.iter().zip(msg) {
                    self.write(&mut Fr::Mut(frame), *t, v, *pos)?;
                }
                Ok(Flow::Normal)
            }
            CStmt::Select(arms, pos) => {
                let m = mgr.ok_or_else(|| rerr(*pos, "select outside manager"))?;
                match self.run_select(frame, arms, m)? {
                    SelOut::Ran(flow) => Ok(flow),
                    SelOut::AllClosed => Err(rerr(*pos, "select failed: every guard closed")),
                }
            }
            CStmt::LoopSel(arms, pos) => {
                let m = mgr.ok_or_else(|| rerr(*pos, "loop outside manager"))?;
                loop {
                    match self.run_select(frame, arms, m)? {
                        SelOut::Ran(Flow::Normal) => {}
                        SelOut::Ran(ret) => return Ok(ret),
                        SelOut::AllClosed => return Ok(Flow::Normal),
                    }
                }
            }
            CStmt::Par(branches, pos) => {
                let mut calls: Vec<Box<dyn FnOnce() -> Result<(), AlpsError> + Send>> =
                    Vec::with_capacity(branches.len());
                for br in branches {
                    calls.push(self.par_call(frame, &pd, br, *pos)?);
                }
                let results = alps_runtime::par(&self.p.rt, calls).map_err(AlpsError::Runtime)?;
                for r in results {
                    r?;
                }
                Ok(Flow::Normal)
            }
            CStmt::ParFor {
                var,
                lo,
                hi,
                branch,
                pos,
            } => {
                let a = self.eval(&mut Fr::Mut(frame), None, &pd, lo)?.as_int()?;
                let b = self.eval(&mut Fr::Mut(frame), None, &pd, hi)?.as_int()?;
                let mut calls: Vec<Box<dyn FnOnce() -> Result<(), AlpsError> + Send>> = Vec::new();
                for i in a..=b {
                    frame[*var] = Value::Int(i);
                    calls.push(self.par_call(frame, &pd, branch, *pos)?);
                }
                let results = alps_runtime::par(&self.p.rt, calls).map_err(AlpsError::Runtime)?;
                for r in results {
                    r?;
                }
                Ok(Flow::Normal)
            }
            CStmt::Return(args, _) => {
                // `return` unwinds to the end of the body and the frame
                // dies with it, so distinct returned frame variables move
                // out of their slots instead of being cloned — a long
                // message flows back to the caller without an O(len) copy.
                if let Some(slots) = distinct_frame_vars(args) {
                    let mut vals = Vec::with_capacity(slots.len());
                    for s in slots {
                        vals.push(std::mem::replace(&mut frame[s], Value::Unit));
                    }
                    return Ok(Flow::Return(vals));
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(&mut Fr::Mut(frame), None, &pd, a)?);
                }
                Ok(Flow::Return(vals))
            }
            CStmt::Accept {
                entry,
                slot,
                binds,
                pos,
            } => {
                let m = mgr.ok_or_else(|| rerr(*pos, "accept outside manager"))?;
                let name = &self.cobj().entries[*entry].name;
                let acc = match slot {
                    Some(ix) => {
                        let i = self.eval(&mut Fr::Mut(frame), None, &pd, ix)?.as_int()?;
                        m.ctx.accept_slot(name, to_slot0(i, *pos)?)?
                    }
                    None => m.ctx.accept(name)?,
                };
                for (t, v) in binds.iter().zip(acc.params().to_vec()) {
                    self.write(&mut Fr::Mut(frame), *t, v, *pos)?;
                }
                let ti = m.tok_base[*entry] + acc.slot();
                m.toks.borrow_mut().accepted[ti] = Some(acc);
                Ok(Flow::Normal)
            }
            CStmt::Await {
                entry,
                slot,
                binds,
                pos,
            } => {
                let m = mgr.ok_or_else(|| rerr(*pos, "await outside manager"))?;
                let name = &self.cobj().entries[*entry].name;
                let done = match slot {
                    Some(ix) => {
                        let i = self.eval(&mut Fr::Mut(frame), None, &pd, ix)?.as_int()?;
                        m.ctx.await_slot(name, to_slot0(i, *pos)?)?
                    }
                    None => m.ctx.await_done(name)?,
                };
                let mut vals = done.results().to_vec();
                vals.extend(done.hidden().iter().cloned());
                for (t, v) in binds.iter().zip(vals) {
                    self.write(&mut Fr::Mut(frame), *t, v, *pos)?;
                }
                let ti = m.tok_base[*entry] + done.slot();
                m.toks.borrow_mut().ready[ti] = Some(done);
                Ok(Flow::Normal)
            }
            CStmt::Start {
                entry,
                slot,
                args,
                intercept_params,
                pos,
            } => {
                let m = mgr.ok_or_else(|| rerr(*pos, "start outside manager"))?;
                let s0 = self.resolve_tok(frame, &pd, m, *entry, slot.as_ref(), true, *pos)?;
                let acc = m.toks.borrow_mut().accepted[m.tok_base[*entry] + s0]
                    .take()
                    .ok_or_else(|| {
                        rerr(
                            *pos,
                            format!("no accepted call on `{}`", self.cobj().entries[*entry].name),
                        )
                    })?;
                if args.is_empty() {
                    m.ctx.start_as_is(acc)?;
                } else {
                    let mut vals = Vec::with_capacity(args.len());
                    for a in args {
                        vals.push(self.eval(&mut Fr::Mut(frame), None, &pd, a)?);
                    }
                    let hidden = vals.split_off(*intercept_params);
                    m.ctx.start(acc, vals, hidden)?;
                }
                Ok(Flow::Normal)
            }
            CStmt::Finish {
                entry,
                slot,
                args,
                pos,
            } => {
                let m = mgr.ok_or_else(|| rerr(*pos, "finish outside manager"))?;
                let s0 = self.resolve_tok(frame, &pd, m, *entry, slot.as_ref(), false, *pos)?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(&mut Fr::Mut(frame), None, &pd, a)?);
                }
                let ti = m.tok_base[*entry] + s0;
                let maybe_ready = m.toks.borrow_mut().ready[ti].take();
                if let Some(done) = maybe_ready {
                    if vals.is_empty() {
                        m.ctx.finish_as_is(done)?;
                    } else {
                        m.ctx.finish(done, vals)?;
                    }
                    return Ok(Flow::Normal);
                }
                let maybe_acc = m.toks.borrow_mut().accepted[ti].take();
                if let Some(acc) = maybe_acc {
                    // Combining: answer without executing.
                    m.ctx.finish_accepted(acc, vals)?;
                    return Ok(Flow::Normal);
                }
                Err(rerr(
                    *pos,
                    format!(
                        "no awaited or accepted call on `{}` to finish",
                        self.cobj().entries[*entry].name
                    ),
                ))
            }
            CStmt::Execute {
                entry,
                slot,
                args,
                intercept_params,
                pos,
            } => {
                let m = mgr.ok_or_else(|| rerr(*pos, "execute outside manager"))?;
                let s0 = self.resolve_tok(frame, &pd, m, *entry, slot.as_ref(), true, *pos)?;
                let acc = m.toks.borrow_mut().accepted[m.tok_base[*entry] + s0]
                    .take()
                    .ok_or_else(|| {
                        rerr(
                            *pos,
                            format!("no accepted call on `{}`", self.cobj().entries[*entry].name),
                        )
                    })?;
                if args.is_empty() {
                    m.ctx.execute(acc)?;
                } else {
                    let mut vals = Vec::with_capacity(args.len());
                    for a in args {
                        vals.push(self.eval(&mut Fr::Mut(frame), None, &pd, a)?);
                    }
                    let hidden = vals.split_off(*intercept_params);
                    m.ctx.execute_with(acc, vals, hidden)?;
                }
                Ok(Flow::Normal)
            }
        }
    }

    /// Package one `par` branch as a runnable call through the interned
    /// tables.
    fn par_call(
        &self,
        frame: &mut Vec<Value>,
        pd: &Pd<'_>,
        br: &CParBranch,
        pos: Pos,
    ) -> Result<Box<dyn FnOnce() -> Result<(), AlpsError> + Send>, AlpsError> {
        let vv = self.eval_args(&mut Fr::Mut(frame), None, pd, &br.args)?;
        let h = self.handle(br.obj, pos)?.clone();
        let id = self.entry_id(br.flat, pos)?;
        Ok(Box::new(move || h.call_id(id, vv).map(|_| ())))
    }

    /// Resolve which 0-based slot a `start/finish/execute P[i]` refers
    /// to. Without an index, the token table must hold exactly one token
    /// for the entry.
    #[allow(clippy::too_many_arguments)]
    fn resolve_tok(
        &self,
        frame: &mut Vec<Value>,
        pd: &Pd<'_>,
        m: &CMgr<'_>,
        entry: usize,
        slot: Option<&CExpr>,
        accepted_only: bool,
        pos: Pos,
    ) -> Result<usize, AlpsError> {
        if let Some(ix) = slot {
            let i = self.eval(&mut Fr::Mut(frame), None, pd, ix)?.as_int()?;
            return to_slot0(i, pos);
        }
        let base = m.tok_base[entry];
        let array = self.cobj().entries[entry].array;
        let toks = m.toks.borrow();
        let mut found: Option<usize> = None;
        let mut count = 0usize;
        for s in 0..array {
            let hits = usize::from(!accepted_only && toks.ready[base + s].is_some())
                + usize::from(toks.accepted[base + s].is_some());
            if hits > 0 {
                count += hits;
                found = Some(s);
            }
        }
        let name = &self.cobj().entries[entry].name;
        match (count, found) {
            (1, Some(s)) => Ok(s),
            (0, _) => Err(rerr(pos, format!("no pending token for `{name}`"))),
            _ => Err(rerr(
                pos,
                format!(
                    "ambiguous `{name}`: several array elements are in progress; write `{name}[i]`"
                ),
            )),
        }
    }

    // ---- select --------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn run_select(
        &self,
        frame: &mut Vec<Value>,
        arms: &[CGuarded],
        m: &CMgr<'_>,
    ) -> Result<SelOut, AlpsError> {
        // Phase 1: pre-evaluate quantifier bounds, plain-guard
        // conditions, and channel expressions (they may not depend on
        // bound values), with write access to the frame.
        struct Meta {
            bounds: Option<(i64, i64)>,
            chan: Option<ChanValue>,
            plain: bool,
            /// Pre-evaluated acceptance condition for arms whose `when`
            /// is [`const_during_select`]: decided once per round, not
            /// once per pending candidate.
            when_pre: Option<bool>,
        }
        let pd = Pd::Mgr(m.ctx);
        let mut metas = Vec::with_capacity(arms.len());
        for arm in arms {
            let bounds = match &arm.quant {
                Some((_, lo, hi)) => Some((
                    self.eval(&mut Fr::Mut(frame), None, &pd, lo)?.as_int()?,
                    self.eval(&mut Fr::Mut(frame), None, &pd, hi)?.as_int()?,
                )),
                None => None,
            };
            let chan = match &arm.kind {
                CGuardKind::Receive { chan, .. } => Some(
                    self.eval(&mut Fr::Mut(frame), None, &pd, chan)?
                        .as_chan()
                        .map_err(|_| rerr(chan.pos(), "receive on a non-channel"))?
                        .clone(),
                ),
                _ => None,
            };
            let plain = if matches!(arm.kind, CGuardKind::Plain) {
                let w = arm.when.as_ref().expect("parser enforced");
                self.eval(&mut Fr::Mut(frame), None, &pd, w)?.as_bool()?
            } else {
                false
            };
            let when_pre = match &arm.when {
                Some(w) if !matches!(arm.kind, CGuardKind::Plain) && const_during_select(w) => {
                    Some(
                        self.eval(&mut Fr::Mut(frame), None, &pd, w)
                            .and_then(|v| v.as_bool())
                            .unwrap_or(false),
                    )
                }
                _ => None,
            };
            metas.push(Meta {
                bounds,
                chan,
                plain,
                when_pre,
            });
        }
        // Phase 2: build the guards, borrowing the frame read-only for
        // the acceptance-condition and priority closures. The overlay is
        // a flat vector: quantifier value (if any), then the candidate's
        // bound values in order — matching the Overlay slots assigned at
        // lowering time.
        let fro: &[Value] = frame;
        let ex = *self;
        let mut guards: Vec<Guard<'_>> = Vec::with_capacity(arms.len());
        for (arm, meta) in arms.iter().zip(&metas) {
            let quantified = arm.quant.is_some();
            let mk_overlay = move |view: &alps_core::GuardView<'_>| -> Vec<Value> {
                let vals = view.values();
                let mut ov = Vec::with_capacity(usize::from(quantified) + vals.len());
                if quantified {
                    ov.push(Value::Int(view.slot() as i64 + 1));
                }
                ov.extend(vals.iter().cloned());
                ov
            };
            let bounds = meta.bounds;
            let in_bounds = move |view: &alps_core::GuardView<'_>| -> bool {
                match bounds {
                    Some((lo, hi)) => {
                        let i = view.slot() as i64 + 1;
                        i >= lo && i <= hi
                    }
                    None => true,
                }
            };
            let mut g = match &arm.kind {
                CGuardKind::Accept { entry, .. } => Guard::accept_idx(*entry),
                CGuardKind::Await { entry, .. } => Guard::await_idx(*entry),
                CGuardKind::Receive { .. } => {
                    Guard::receive(meta.chan.as_ref().expect("receive meta"))
                }
                CGuardKind::Plain => Guard::cond(meta.plain),
            };
            if !matches!(arm.kind, CGuardKind::Plain) {
                g = match &arm.when {
                    Some(_) if meta.when_pre.is_some() => {
                        let pre = meta.when_pre.expect("checked is_some");
                        g.when(move |view| pre && in_bounds(view))
                    }
                    Some(w) => {
                        let needs_ov = uses_overlay(w);
                        g.when(move |view| {
                            if !in_bounds(view) {
                                return false;
                            }
                            let ov = if needs_ov {
                                Some(mk_overlay(view))
                            } else {
                                None
                            };
                            ex.eval(&mut Fr::Ref(fro), ov.as_deref(), &Pd::View(view), w)
                                .and_then(|v| v.as_bool())
                                .unwrap_or(false)
                        })
                    }
                    None => g.when(in_bounds),
                };
            }
            if let Some(pe) = &arm.pri {
                let needs_ov = uses_overlay(pe);
                g = g.pri(move |view| {
                    let ov = if needs_ov {
                        Some(mk_overlay(view))
                    } else {
                        None
                    };
                    ex.eval(&mut Fr::Ref(fro), ov.as_deref(), &Pd::View(view), pe)
                        .and_then(|v| v.as_int())
                        .unwrap_or(0)
                });
            }
            guards.push(g);
        }
        let sel = match m.ctx.select(guards) {
            Ok(s) => s,
            Err(AlpsError::SelectFailed) => return Ok(SelOut::AllClosed),
            Err(e) => return Err(e),
        };
        // Phase 3: commit — bind the quantifier and values, record the
        // token by (entry_index, slot), run the arm body.
        let gi = sel.guard_index();
        let arm = &arms[gi];
        let pos = arm.pos;
        match sel {
            Selected::Accepted { call, .. } => {
                if let Some((q, _, _)) = &arm.quant {
                    frame[*q] = Value::Int(call.slot() as i64 + 1);
                }
                if let CGuardKind::Accept { binds, .. } = &arm.kind {
                    for (t, v) in binds.iter().zip(call.params().to_vec()) {
                        self.write(&mut Fr::Mut(frame), *t, v, pos)?;
                    }
                }
                let ti = m.tok_base[call.entry_index()] + call.slot();
                m.toks.borrow_mut().accepted[ti] = Some(call);
            }
            Selected::Ready { done, .. } => {
                if let Some((q, _, _)) = &arm.quant {
                    frame[*q] = Value::Int(done.slot() as i64 + 1);
                }
                if let CGuardKind::Await { binds, .. } = &arm.kind {
                    let mut vals = done.results().to_vec();
                    vals.extend(done.hidden().iter().cloned());
                    for (t, v) in binds.iter().zip(vals) {
                        self.write(&mut Fr::Mut(frame), *t, v, pos)?;
                    }
                }
                let ti = m.tok_base[done.entry_index()] + done.slot();
                m.toks.borrow_mut().ready[ti] = Some(done);
            }
            Selected::Received { msg, .. } => {
                if let CGuardKind::Receive { binds, .. } = &arm.kind {
                    for (t, v) in binds.iter().zip(msg) {
                        self.write(&mut Fr::Mut(frame), *t, v, pos)?;
                    }
                }
            }
            Selected::Cond { .. } => {}
        }
        let flow = self.exec_block(frame, &arm.body, Some(m))?;
        Ok(SelOut::Ran(flow))
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
/// the `when` closure. Only resolved `VarRef`s make this analysis
/// possible; the interpreter's string-keyed frames cannot tell a frozen
/// manager variable from a live environment variable.
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
        n => Err(rerr(pos, format!("expected one value, got {n}"))),
    }
}

fn list_index(i: i64, len: usize, pos: Pos) -> Result<usize, AlpsError> {
    usize::try_from(i)
        .ok()
        .filter(|&k| k < len)
        .ok_or_else(|| rerr(pos, format!("index {i} out of bounds (len {len})")))
}
