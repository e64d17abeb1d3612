//! What the two walkers share: everything about running the resolved IR
//! ([`crate::ir`]) that is not an evaluation strategy.
//!
//! * **Program linkage** — [`Prog`]: one [`CObject`] becomes one
//!   `ObjectBuilder` product (entry bodies and the manager are closures
//!   over the IR), entry ids are interned into a flat table, init code
//!   runs before the manager comes up, `main` runs, the objects shut
//!   down.
//! * **State** — activation frames ([`new_frame`]), the frame/overlay/
//!   environment accessors ([`Ex::read`], [`Ex::write`]), the manager's
//!   token tables and the rule that picks the slot a bare
//!   `start`/`finish`/`execute P` means.
//! * **Statements** — every [`CStmt`] except the three that move values
//!   (`Assign`, `Expr`, `Return`), and the three-phase `select`:
//!   pre-evaluate, build guards, commit.
//! * **Run-time errors** — each condition's message is built at one
//!   site here, so both back ends report byte-identical text.
//!
//! What is *not* here is [`Eval`]: how an expression becomes a value,
//! how values move on assignment and return, and how a guard's
//! `when`/`pri` closures are built. [`crate::interp`] implements it in
//! the obvious way and [`crate::compile`] with shortcuts; running both
//! over one program is what checks the shortcuts. Dispatch is static:
//! the walker below is monomorphised per strategy.
//!
//! Slot indices in source are 1-based (`P[1..N]`, `(i: 1..N)`), matching
//! the paper; the core API is 0-based, so [`to_slot0`] converts at the
//! boundary.

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

use alps_core::{
    AcceptedCall, AlpsError, ChanValue, EntryDef, EntryId, Guard, GuardView, ManagerCtx,
    ObjectBuilder, ObjectHandle, ReadyEntry, Selected, Value,
};
use alps_runtime::Runtime;
use parking_lot::Mutex;

use crate::ast::{BinOp, UnOp};
use crate::check::Checked;
use crate::error::LangError;
use crate::ir::*;
use crate::token::Pos;

/// Where `print` output goes.
#[derive(Clone)]
pub enum Output {
    /// Standard output.
    Stdout,
    /// An in-memory buffer (used by tests and the benchmarks).
    Buffer(Arc<Mutex<String>>),
}

impl fmt::Debug for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Output::Stdout => write!(f, "Output::Stdout"),
            Output::Buffer(_) => write!(f, "Output::Buffer"),
        }
    }
}

impl Output {
    /// New capture buffer.
    pub fn buffer() -> (Output, Arc<Mutex<String>>) {
        let b = Arc::new(Mutex::new(String::new()));
        (Output::Buffer(Arc::clone(&b)), b)
    }

    pub(crate) fn line(&self, s: &str) {
        match self {
            Output::Stdout => println!("{s}"),
            Output::Buffer(b) => {
                let mut g = b.lock();
                g.push_str(s);
                g.push('\n');
            }
        }
    }
}

/// Errors from running an ALPS program: front-end or runtime.
#[derive(Debug)]
pub enum RunError {
    /// Lex/parse/check error.
    Lang(LangError),
    /// Runtime failure.
    Run(AlpsError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Lang(e) => write!(f, "{e}"),
            RunError::Run(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<LangError> for RunError {
    fn from(e: LangError) -> Self {
        RunError::Lang(e)
    }
}

impl From<AlpsError> for RunError {
    fn from(e: AlpsError) -> Self {
        RunError::Run(e)
    }
}

// ---- the strategy ------------------------------------------------------

/// An evaluation strategy: the part of a back end the equivalence tests
/// exist to check. Implemented by `Ex<'_, Reference>` (no shortcuts) and
/// `Ex<'_, Optimised>`.
pub(crate) trait Eval: Copy {
    /// Evaluate `e` to exactly one value.
    fn eval(
        &self,
        fr: &mut Fr<'_>,
        ov: Option<&[Value]>,
        pd: &Pd<'_>,
        e: &CExpr,
    ) -> Result<Value, AlpsError>;

    /// `x, y := e`
    fn assign(
        &self,
        frame: &mut Vec<Value>,
        pd: &Pd<'_>,
        targets: &[VarRef],
        e: &CExpr,
        pos: Pos,
    ) -> Result<(), AlpsError>;

    /// A call for effect; its results are dropped.
    fn effect(&self, frame: &mut Vec<Value>, pd: &Pd<'_>, e: &CExpr) -> Result<(), AlpsError>;

    /// The values of `return (e, …)`. The frame dies with the return.
    fn ret(
        &self,
        frame: &mut Vec<Value>,
        pd: &Pd<'_>,
        args: &[CExpr],
    ) -> Result<Vec<Value>, AlpsError>;

    /// Attach `arm`'s acceptance condition (quantifier range and `when`)
    /// and its `pri` to the guard `g` of one select round.
    fn conditions<'a>(&self, g: Guard<'a>, arm: &'a CGuarded, cand: Cand<'a>) -> Guard<'a>
    where
        Self: 'a;
}

// ---- program linkage ---------------------------------------------------

/// Interned runtime tables filled during spawn: one handle per object,
/// one [`EntryId`] per entry (flat, `CUnit::flat_base` indexed), one
/// environment vector per object.
struct Tables {
    handles: Vec<OnceLock<ObjectHandle>>,
    ids: Vec<OnceLock<EntryId>>,
    envs: Vec<Mutex<Vec<Value>>>,
}

/// A checked program's IR plus its runtime linkage, walked with strategy
/// `S`.
pub(crate) struct Prog<S> {
    unit: Arc<CUnit>,
    tables: Tables,
    pub(crate) rt: Runtime,
    pub(crate) out: Output,
    strategy: PhantomData<fn(S)>,
}

impl<S> Prog<S> {
    fn at(&self, obj: Option<usize>) -> Ex<'_, S> {
        Ex { p: self, obj }
    }

    /// Handle of a spawned object.
    pub(crate) fn handle(&self, object: &str) -> Option<ObjectHandle> {
        let oi = self.unit.objects.iter().position(|o| o.name == object)?;
        self.tables.handles[oi].get().cloned()
    }

    /// Shut all objects down (idempotent).
    pub(crate) fn shutdown(&self) {
        for h in &self.tables.handles {
            if let Some(h) = h.get() {
                h.shutdown();
            }
        }
    }
}

impl<S: 'static> Prog<S>
where
    for<'p> Ex<'p, S>: Eval,
{
    /// Spawn a checked program's objects on the runtime, in declaration
    /// order, without running `main`.
    pub(crate) fn spawn(
        rt: &Runtime,
        checked: &Checked,
        out: Output,
    ) -> Result<Arc<Self>, RunError> {
        let unit = Arc::clone(&checked.unit);
        let tables = Tables {
            handles: unit.objects.iter().map(|_| OnceLock::new()).collect(),
            ids: (0..unit.total_entries).map(|_| OnceLock::new()).collect(),
            envs: unit
                .objects
                .iter()
                .map(|o| Mutex::new(o.env.iter().map(DefaultVal::make).collect()))
                .collect(),
        };
        let prog = Arc::new(Prog {
            unit,
            tables,
            rt: rt.clone(),
            out,
            strategy: PhantomData,
        });
        for (oi, cobj) in prog.unit.objects.iter().enumerate() {
            // Initialization code first, then the manager comes up (paper:
            // "its initialization code is first executed and then its
            // manager process is implicitly created").
            if let Some(init) = &cobj.init {
                prog.at(Some(oi)).run_body(init, [], None)?;
            }
            let mut builder = ObjectBuilder::new(&cobj.name);
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
                    let ex = p2.at(Some(oi));
                    ex.run_body(&ex.cobj().entries[ei].code, args, None)
                });
                builder = builder.entry(def);
            }
            if cobj.manager.is_some() {
                let p2 = Arc::clone(&prog);
                builder = builder.manager(move |mctx| {
                    let ex = p2.at(Some(oi));
                    let cobj = ex.cobj();
                    let mgr = cobj.manager.as_ref().expect("manager present");
                    let cm = CMgr {
                        ctx: mctx,
                        toks: RefCell::new(Toks::new(cobj.tok_len)),
                        tok_base: &cobj.tok_base,
                    };
                    ex.run_body(mgr, [], Some(&cm)).map(|_| ())
                });
            }
            let handle = builder.spawn(rt)?;
            // Entry ids first: the handle `OnceLock` gates availability,
            // so the ids are always present once the handle is.
            let base = prog.unit.flat_base[oi];
            for (ei, ce) in cobj.entries.iter().enumerate() {
                let _ = prog.tables.ids[base + ei].set(handle.entry_id(&ce.name)?);
            }
            let _ = prog.tables.handles[oi].set(handle);
        }
        Ok(prog)
    }

    /// Run the program's `main` block (no-op without one).
    pub(crate) fn run_main(&self) -> Result<(), RunError> {
        if let Some(main) = &self.unit.main {
            self.at(None).run_body(main, [], None)?;
        }
        Ok(())
    }

    /// Spawn the objects, run `main`, tear the objects down.
    pub(crate) fn run(rt: &Runtime, checked: &Checked, out: Output) -> Result<(), RunError> {
        let prog = Self::spawn(rt, checked, out)?;
        let result = prog.run_main();
        prog.shutdown();
        result
    }
}

// ---- state -------------------------------------------------------------

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
pub(crate) enum Fr<'a> {
    Mut(&'a mut Vec<Value>),
    Ref(&'a [Value]),
}

/// Source for `#P` evaluation.
pub(crate) enum Pd<'a> {
    None,
    Mgr(&'a ManagerCtx),
    View(&'a GuardView<'a>),
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

/// The manager process's view: the core's context plus the tokens its
/// `accept`s and `await`s have produced and not yet spent.
pub(crate) struct CMgr<'a> {
    ctx: &'a ManagerCtx,
    toks: RefCell<Toks>,
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

/// What a guard's `when`/`pri` closures know of the select round they
/// belong to.
#[derive(Clone, Copy)]
pub(crate) struct Cand<'a> {
    /// The manager frame, read-only while the select is open.
    pub(crate) frame: &'a [Value],
    quantified: bool,
    bounds: Option<(i64, i64)>,
}

impl Cand<'_> {
    /// Whether the candidate's (1-based) slot lies in the arm's
    /// quantifier range.
    pub(crate) fn in_bounds(&self, view: &GuardView<'_>) -> bool {
        match self.bounds {
            Some((lo, hi)) => {
                let i = view.slot() as i64 + 1;
                i >= lo && i <= hi
            }
            None => true,
        }
    }

    /// The candidate's overlay: quantifier value (if any), then its
    /// bound values in order — the `Overlay` slots the checker assigned.
    pub(crate) fn overlay(&self, view: &GuardView<'_>) -> Vec<Value> {
        let vals = view.values();
        let mut ov = Vec::with_capacity(usize::from(self.quantified) + vals.len());
        if self.quantified {
            ov.push(Value::Int(view.slot() as i64 + 1));
        }
        ov.extend(vals.iter().cloned());
        ov
    }
}

/// The executor: a program reference plus the current object (if any).
pub(crate) struct Ex<'p, S> {
    pub(crate) p: &'p Prog<S>,
    obj: Option<usize>,
}

impl<S> Clone for Ex<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for Ex<'_, S> {}

impl<'p, S> Ex<'p, S> {
    fn cobj(&self) -> &'p CObject {
        &self.p.unit.objects[self.obj.expect("object scope")]
    }

    pub(crate) fn env(&self) -> &'p Mutex<Vec<Value>> {
        &self.p.tables.envs[self.obj.expect("object scope")]
    }

    /// Handle and interned id of the entry at `flat` in object `obj`.
    pub(crate) fn entry(
        &self,
        obj: usize,
        flat: usize,
        pos: Pos,
    ) -> Result<(&'p ObjectHandle, EntryId), AlpsError> {
        let unavailable = || {
            let name = &self.p.unit.objects[obj].name;
            rerr(pos, format!("object `{name}` is not available"))
        };
        let h = self.p.tables.handles[obj].get().ok_or_else(unavailable)?;
        let id = self.p.tables.ids[flat].get().ok_or_else(unavailable)?;
        Ok((h, *id))
    }

    /// As [`Self::entry`], for an intercepted sibling of the current
    /// object.
    pub(crate) fn own_entry(
        &self,
        flat: usize,
        pos: Pos,
    ) -> Result<(&'p ObjectHandle, EntryId), AlpsError> {
        self.entry(self.obj.expect("object scope"), flat, pos)
    }

    pub(crate) fn read(
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
                .ok_or_else(|| no_guard_value(pos)),
            VarRef::Frame(i) => Ok(match fr {
                Fr::Mut(f) => f[i].clone(),
                Fr::Ref(f) => f[i].clone(),
            }),
            VarRef::Env(i) => Ok(self.env().lock()[i].clone()),
        }
    }

    pub(crate) fn write(
        &self,
        fr: &mut Fr<'_>,
        r: VarRef,
        v: Value,
        pos: Pos,
    ) -> Result<(), AlpsError> {
        match (r, fr) {
            (VarRef::Frame(i), Fr::Mut(f)) => f[i] = v,
            (VarRef::Env(i), _) => self.env().lock()[i] = v,
            (VarRef::Frame(_), Fr::Ref(_)) | (VarRef::Overlay(_), _) => {
                return Err(guard_write(pos))
            }
        }
        Ok(())
    }

    /// Write `vals` to `targets`, one each.
    pub(crate) fn write_all(
        &self,
        frame: &mut Vec<Value>,
        targets: &[VarRef],
        vals: Vec<Value>,
        pos: Pos,
    ) -> Result<(), AlpsError> {
        if vals.len() != targets.len() {
            return Err(rerr(
                pos,
                format!("{} value(s) for {} target(s)", vals.len(), targets.len()),
            ));
        }
        self.bind(frame, targets, vals, pos)
    }

    /// Write the leading `vals` to the bind targets of an
    /// `accept`/`await`/`receive`.
    fn bind(
        &self,
        frame: &mut Vec<Value>,
        targets: &[VarRef],
        vals: impl IntoIterator<Item = Value>,
        pos: Pos,
    ) -> Result<(), AlpsError> {
        for (t, v) in targets.iter().zip(vals) {
            self.write(&mut Fr::Mut(frame), *t, v, pos)?;
        }
        Ok(())
    }
}

// ---- statements --------------------------------------------------------

impl<'p, S: 'static> Ex<'p, S>
where
    Ex<'p, S>: Eval,
{
    /// Evaluate each of `args` to one value.
    pub(crate) fn eval_all<C: Default + Extend<Value>>(
        &self,
        fr: &mut Fr<'_>,
        ov: Option<&[Value]>,
        pd: &Pd<'_>,
        args: &[CExpr],
    ) -> Result<C, AlpsError> {
        let mut vals = C::default();
        for a in args {
            vals.extend(Some(self.eval(fr, ov, pd, a)?));
        }
        Ok(vals)
    }

    fn eval_int(&self, frame: &mut Vec<Value>, pd: &Pd<'_>, e: &CExpr) -> Result<i64, AlpsError> {
        self.eval(&mut Fr::Mut(frame), None, pd, e)?.as_int()
    }

    fn eval_chan(
        &self,
        frame: &mut Vec<Value>,
        pd: &Pd<'_>,
        chan: &CExpr,
        pos: Pos,
        what: &str,
    ) -> Result<ChanValue, AlpsError> {
        let c = self.eval(&mut Fr::Mut(frame), None, pd, chan)?;
        match c.as_chan() {
            Ok(c) => Ok(c.clone()),
            Err(_) => Err(rerr(pos, format!("{what} on a non-channel"))),
        }
    }

    /// Run one code block (entry body, manager, init or `main`) in a
    /// fresh frame, to its results.
    pub(crate) fn run_body(
        &self,
        cp: &CProc,
        args: impl IntoIterator<Item = Value>,
        mgr: Option<&CMgr<'_>>,
    ) -> Result<Vec<Value>, AlpsError> {
        let mut frame = new_frame(cp, args);
        match self.exec_block(&mut frame, &cp.body, mgr)? {
            Flow::Return(vals) => Ok(vals),
            Flow::Normal if cp.result_count == 0 => Ok(vec![]),
            Flow::Normal => Err(rerr(
                cp.pos,
                format!(
                    "procedure `{}` ended without returning {} value(s)",
                    cp.name, cp.result_count
                ),
            )),
        }
    }

    /// Run a non-intercepted sibling procedure inline in the current
    /// process.
    pub(crate) fn run_inline(
        &self,
        entry: usize,
        args: Vec<Value>,
    ) -> Result<Vec<Value>, AlpsError> {
        self.run_body(&self.cobj().entries[entry].code, args, None)
    }

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
        let in_mgr = |what: &str, pos: Pos| -> Result<&CMgr<'_>, AlpsError> {
            mgr.ok_or_else(|| rerr(pos, format!("{what} outside manager")))
        };
        match s {
            CStmt::Skip => {}
            CStmt::Assign(targets, e, pos) => self.assign(frame, &pd, targets, e, *pos)?,
            CStmt::Expr(e) => self.effect(frame, &pd, e)?,
            CStmt::Return(args, _) => return Ok(Flow::Return(self.ret(frame, &pd, args)?)),
            CStmt::If(arms, els) => {
                for (c, body) in arms {
                    if self.eval(&mut Fr::Mut(frame), None, &pd, c)?.as_bool()? {
                        return self.exec_block(frame, body, mgr);
                    }
                }
                return self.exec_block(frame, els, mgr);
            }
            CStmt::While(c, body) => {
                while self.eval(&mut Fr::Mut(frame), None, &pd, c)?.as_bool()? {
                    if let ret @ Flow::Return(_) = self.exec_block(frame, body, mgr)? {
                        return Ok(ret);
                    }
                }
            }
            CStmt::For(slot, lo, hi, body) => {
                let a = self.eval_int(frame, &pd, lo)?;
                let b = self.eval_int(frame, &pd, hi)?;
                for i in a..=b {
                    frame[*slot] = Value::Int(i);
                    if let ret @ Flow::Return(_) = self.exec_block(frame, body, mgr)? {
                        return Ok(ret);
                    }
                }
            }
            CStmt::Send(chan, args, pos) => {
                let c = self.eval_chan(frame, &pd, chan, *pos, "send")?;
                let vals: Vec<Value> = self.eval_all(&mut Fr::Mut(frame), None, &pd, args)?;
                c.send(&self.p.rt, vals)?;
            }
            CStmt::Receive(chan, binds, pos) => {
                let c = self.eval_chan(frame, &pd, chan, *pos, "receive")?;
                let msg = match mgr {
                    Some(m) => m.ctx.receive(&c)?,
                    None => c.recv(&self.p.rt)?,
                };
                self.bind(frame, binds, msg, *pos)?;
            }
            CStmt::Select(arms, pos) => {
                return match self.run_select(frame, arms, in_mgr("select", *pos)?)? {
                    SelOut::Ran(flow) => Ok(flow),
                    SelOut::AllClosed => Err(rerr(*pos, "select failed: every guard closed")),
                };
            }
            CStmt::LoopSel(arms, pos) => {
                let m = in_mgr("loop", *pos)?;
                loop {
                    match self.run_select(frame, arms, m)? {
                        SelOut::Ran(Flow::Normal) => {}
                        SelOut::Ran(ret) => return Ok(ret),
                        SelOut::AllClosed => break,
                    }
                }
            }
            CStmt::Par(branches, pos) => {
                let mut calls = Vec::with_capacity(branches.len());
                for br in branches {
                    calls.push(self.par_call(frame, &pd, br, *pos)?);
                }
                self.par(calls)?;
            }
            CStmt::ParFor {
                var,
                lo,
                hi,
                branch,
                pos,
            } => {
                let a = self.eval_int(frame, &pd, lo)?;
                let b = self.eval_int(frame, &pd, hi)?;
                let mut calls = Vec::new();
                for i in a..=b {
                    frame[*var] = Value::Int(i);
                    calls.push(self.par_call(frame, &pd, branch, *pos)?);
                }
                self.par(calls)?;
            }
            CStmt::Accept {
                entry,
                slot,
                binds,
                pos,
            } => {
                let m = in_mgr("accept", *pos)?;
                let name = &self.cobj().entries[*entry].name;
                let acc = match slot {
                    Some(ix) => {
                        let i = self.eval_int(frame, &pd, ix)?;
                        m.ctx.accept_slot(name, to_slot0(i, *pos)?)?
                    }
                    None => m.ctx.accept(name)?,
                };
                self.bind(frame, binds, acc.params().to_vec(), *pos)?;
                let ti = m.tok_base[*entry] + acc.slot();
                m.toks.borrow_mut().accepted[ti] = Some(acc);
            }
            CStmt::Await {
                entry,
                slot,
                binds,
                pos,
            } => {
                let m = in_mgr("await", *pos)?;
                let name = &self.cobj().entries[*entry].name;
                let done = match slot {
                    Some(ix) => {
                        let i = self.eval_int(frame, &pd, ix)?;
                        m.ctx.await_slot(name, to_slot0(i, *pos)?)?
                    }
                    None => m.ctx.await_done(name)?,
                };
                self.bind(frame, binds, ready_values(&done), *pos)?;
                let ti = m.tok_base[*entry] + done.slot();
                m.toks.borrow_mut().ready[ti] = Some(done);
            }
            CStmt::Start {
                entry,
                slot,
                args,
                intercept_params,
                pos,
            } => {
                let m = in_mgr("start", *pos)?;
                let acc = self.take_accepted(frame, &pd, m, *entry, slot.as_ref(), *pos)?;
                if args.is_empty() {
                    m.ctx.start_as_is(acc)?;
                } else {
                    let mut vals: Vec<Value> =
                        self.eval_all(&mut Fr::Mut(frame), None, &pd, args)?;
                    let hidden = vals.split_off(*intercept_params);
                    m.ctx.start(acc, vals, hidden)?;
                }
            }
            CStmt::Execute {
                entry,
                slot,
                args,
                intercept_params,
                pos,
            } => {
                let m = in_mgr("execute", *pos)?;
                let acc = self.take_accepted(frame, &pd, m, *entry, slot.as_ref(), *pos)?;
                if args.is_empty() {
                    m.ctx.execute(acc)?;
                } else {
                    let mut vals: Vec<Value> =
                        self.eval_all(&mut Fr::Mut(frame), None, &pd, args)?;
                    let hidden = vals.split_off(*intercept_params);
                    m.ctx.execute_with(acc, vals, hidden)?;
                }
            }
            CStmt::Finish {
                entry,
                slot,
                args,
                pos,
            } => {
                let m = in_mgr("finish", *pos)?;
                let s0 = self.resolve_tok(frame, &pd, m, *entry, slot.as_ref(), false, *pos)?;
                let vals: Vec<Value> = self.eval_all(&mut Fr::Mut(frame), None, &pd, args)?;
                let ti = m.tok_base[*entry] + s0;
                let ready = m.toks.borrow_mut().ready[ti].take();
                if let Some(done) = ready {
                    if vals.is_empty() {
                        m.ctx.finish_as_is(done)?;
                    } else {
                        m.ctx.finish(done, vals)?;
                    }
                } else {
                    let accepted = m.toks.borrow_mut().accepted[ti].take();
                    let Some(acc) = accepted else {
                        let name = &self.cobj().entries[*entry].name;
                        return Err(rerr(
                            *pos,
                            format!("no awaited or accepted call on `{name}` to finish"),
                        ));
                    };
                    // Combining: answer without executing.
                    m.ctx.finish_accepted(acc, vals)?;
                }
            }
        }
        Ok(Flow::Normal)
    }

    /// Package one `par` branch as a runnable call through the interned
    /// tables.
    fn par_call(
        &self,
        frame: &mut Vec<Value>,
        pd: &Pd<'_>,
        br: &CParBranch,
        pos: Pos,
    ) -> Result<ParCall, AlpsError> {
        let vv: alps_core::ValVec = self.eval_all(&mut Fr::Mut(frame), None, pd, &br.args)?;
        let (h, id) = self.entry(br.obj, br.flat, pos)?;
        let h = h.clone();
        Ok(Box::new(move || h.call_id(id, vv).map(|_| ())))
    }

    /// Run the branches of a `par` to completion; the first failure is
    /// the statement's.
    fn par(&self, calls: Vec<ParCall>) -> Result<(), AlpsError> {
        alps_runtime::par(&self.p.rt, calls)
            .map_err(AlpsError::Runtime)?
            .into_iter()
            .collect()
    }

    /// The accepted-call token a `start`/`execute P[i]` spends.
    fn take_accepted(
        &self,
        frame: &mut Vec<Value>,
        pd: &Pd<'_>,
        m: &CMgr<'_>,
        entry: usize,
        slot: Option<&CExpr>,
        pos: Pos,
    ) -> Result<AcceptedCall, AlpsError> {
        let s0 = self.resolve_tok(frame, pd, m, entry, slot, true, pos)?;
        m.toks.borrow_mut().accepted[m.tok_base[entry] + s0]
            .take()
            .ok_or_else(|| {
                let name = &self.cobj().entries[entry].name;
                rerr(pos, format!("no accepted call on `{name}`"))
            })
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
            return to_slot0(self.eval_int(frame, pd, ix)?, pos);
        }
        let base = m.tok_base[entry];
        let ce = &self.cobj().entries[entry];
        let toks = m.toks.borrow();
        let mut found: Option<usize> = None;
        let mut count = 0usize;
        for s in 0..ce.array {
            let hits = usize::from(!accepted_only && toks.ready[base + s].is_some())
                + usize::from(toks.accepted[base + s].is_some());
            if hits > 0 {
                count += hits;
                found = Some(s);
            }
        }
        let name = &ce.name;
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

    fn run_select(
        &self,
        frame: &mut Vec<Value>,
        arms: &[CGuarded],
        m: &CMgr<'_>,
    ) -> Result<SelOut, AlpsError> {
        // Phase 1: pre-evaluate quantifier bounds, channel expressions
        // and plain-guard conditions (they may not depend on bound
        // values), with write access to the frame.
        struct Meta {
            bounds: Option<(i64, i64)>,
            chan: Option<ChanValue>,
            plain: bool,
        }
        let pd = Pd::Mgr(m.ctx);
        let mut metas = Vec::with_capacity(arms.len());
        for arm in arms {
            let bounds = match &arm.quant {
                Some((_, lo, hi)) => Some((
                    self.eval_int(frame, &pd, lo)?,
                    self.eval_int(frame, &pd, hi)?,
                )),
                None => None,
            };
            let chan = match &arm.kind {
                CGuardKind::Receive { chan, .. } => {
                    Some(self.eval_chan(frame, &pd, chan, chan.pos(), "receive")?)
                }
                _ => None,
            };
            let plain = if matches!(arm.kind, CGuardKind::Plain) {
                let w = arm.when.as_ref().expect("parser enforced");
                self.eval(&mut Fr::Mut(frame), None, &pd, w)?.as_bool()?
            } else {
                false
            };
            metas.push(Meta {
                bounds,
                chan,
                plain,
            });
        }
        // Phase 2: build the guards; their condition and priority
        // closures borrow the frame read-only.
        let fro: &[Value] = frame;
        let mut guards: Vec<Guard<'_>> = Vec::with_capacity(arms.len());
        for (arm, meta) in arms.iter().zip(&metas) {
            let g = match &arm.kind {
                CGuardKind::Accept { entry, .. } => Guard::accept_idx(*entry),
                CGuardKind::Await { entry, .. } => Guard::await_idx(*entry),
                CGuardKind::Receive { .. } => {
                    Guard::receive(meta.chan.as_ref().expect("receive meta"))
                }
                CGuardKind::Plain => Guard::cond(meta.plain),
            };
            let cand = Cand {
                frame: fro,
                quantified: arm.quant.is_some(),
                bounds: meta.bounds,
            };
            guards.push(self.conditions(g, arm, cand));
        }
        let sel = match m.ctx.select(guards) {
            Ok(s) => s,
            Err(AlpsError::SelectFailed) => return Ok(SelOut::AllClosed),
            Err(e) => return Err(e),
        };
        // Phase 3: commit — bind the quantifier and values, record the
        // token by (entry_index, slot), run the arm body.
        let arm = &arms[sel.guard_index()];
        let quant = |frame: &mut Vec<Value>, slot: usize| {
            if let Some((q, _, _)) = &arm.quant {
                frame[*q] = Value::Int(slot as i64 + 1);
            }
        };
        match (sel, &arm.kind) {
            (Selected::Accepted { call, .. }, CGuardKind::Accept { binds, .. }) => {
                quant(frame, call.slot());
                self.bind(frame, binds, call.params().to_vec(), arm.pos)?;
                let ti = m.tok_base[call.entry_index()] + call.slot();
                m.toks.borrow_mut().accepted[ti] = Some(call);
            }
            (Selected::Ready { done, .. }, CGuardKind::Await { binds, .. }) => {
                quant(frame, done.slot());
                self.bind(frame, binds, ready_values(&done), arm.pos)?;
                let ti = m.tok_base[done.entry_index()] + done.slot();
                m.toks.borrow_mut().ready[ti] = Some(done);
            }
            (Selected::Received { msg, .. }, CGuardKind::Receive { binds, .. }) => {
                self.bind(frame, binds, msg, arm.pos)?;
            }
            (Selected::Cond { .. }, CGuardKind::Plain) => {}
            _ => unreachable!("select chose a guard of another kind than it was given"),
        }
        let flow = self.exec_block(frame, &arm.body, Some(m))?;
        Ok(SelOut::Ran(flow))
    }
}

type ParCall = Box<dyn FnOnce() -> Result<(), AlpsError> + Send>;

/// What an `await` binds: the intercepted results, then the hidden ones.
fn ready_values(done: &ReadyEntry) -> Vec<Value> {
    let mut vals = done.results().to_vec();
    vals.extend(done.hidden().iter().cloned());
    vals
}

// ---- values and run-time errors ----------------------------------------

pub(crate) fn rerr(pos: Pos, msg: impl Into<String>) -> AlpsError {
    AlpsError::Custom(format!("{pos}: {}", msg.into()))
}

pub(crate) fn no_guard_value(pos: Pos) -> AlpsError {
    rerr(pos, "guard value not available")
}

pub(crate) fn guard_write(pos: Pos) -> AlpsError {
    rerr(pos, "cannot assign inside a guard condition")
}

/// The error for an expression that yielded `n != 1` values where one
/// was needed.
pub(crate) fn not_one(n: usize, pos: Pos) -> AlpsError {
    rerr(pos, format!("expected one value, got {n}"))
}

fn to_slot0(i: i64, pos: Pos) -> Result<usize, AlpsError> {
    if i < 1 {
        return Err(rerr(pos, format!("slot index {i} out of range (1-based)")));
    }
    Ok((i - 1) as usize)
}

/// `#P`
pub(crate) fn pending(pd: &Pd<'_>, entry: usize, pos: Pos) -> Result<Value, AlpsError> {
    let n = match pd {
        Pd::Mgr(m) => m.pending_idx(entry).map_err(|e| rerr(pos, e.to_string()))?,
        Pd::View(v) => v.pending_idx(entry),
        Pd::None => return Err(rerr(pos, "`#P` outside the manager")),
    };
    Ok(Value::Int(n as i64))
}

pub(crate) fn unop(op: UnOp, v: Value, pos: Pos) -> Result<Value, AlpsError> {
    match (op, v) {
        (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(-i)),
        (UnOp::Neg, Value::Float(x)) => Ok(Value::Float(-x)),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (op, v) => Err(rerr(pos, format!("bad operand {v} for {op:?}"))),
    }
}

/// Every binary operator but the short-circuit `and`/`or`.
pub(crate) fn binop(op: BinOp, a: Value, b: Value, pos: Pos) -> Result<Value, AlpsError> {
    use BinOp::*;
    Ok(match (op, &a, &b) {
        (Add, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_add(*y)),
        (Sub, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_sub(*y)),
        (Mul, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_mul(*y)),
        (Div, Value::Int(x), Value::Int(y)) => {
            if *y == 0 {
                return Err(rerr(pos, "division by zero"));
            }
            Value::Int(x / y)
        }
        (Mod, Value::Int(x), Value::Int(y)) => {
            if *y == 0 {
                return Err(rerr(pos, "modulo by zero"));
            }
            Value::Int(x.rem_euclid(*y))
        }
        (Add, Value::Float(x), Value::Float(y)) => Value::Float(x + y),
        (Sub, Value::Float(x), Value::Float(y)) => Value::Float(x - y),
        (Mul, Value::Float(x), Value::Float(y)) => Value::Float(x * y),
        (Div, Value::Float(x), Value::Float(y)) => Value::Float(x / y),
        (Add, Value::Str(x), Value::Str(y)) => Value::str(format!("{x}{y}")),
        (Eq, _, _) => Value::Bool(a == b),
        (Ne, _, _) => Value::Bool(a != b),
        (Lt, Value::Int(x), Value::Int(y)) => Value::Bool(x < y),
        (Le, Value::Int(x), Value::Int(y)) => Value::Bool(x <= y),
        (Gt, Value::Int(x), Value::Int(y)) => Value::Bool(x > y),
        (Ge, Value::Int(x), Value::Int(y)) => Value::Bool(x >= y),
        (Lt, Value::Float(x), Value::Float(y)) => Value::Bool(x < y),
        (Le, Value::Float(x), Value::Float(y)) => Value::Bool(x <= y),
        (Gt, Value::Float(x), Value::Float(y)) => Value::Bool(x > y),
        (Ge, Value::Float(x), Value::Float(y)) => Value::Bool(x >= y),
        (Lt, Value::Str(x), Value::Str(y)) => Value::Bool(x < y),
        (Le, Value::Str(x), Value::Str(y)) => Value::Bool(x <= y),
        (Gt, Value::Str(x), Value::Str(y)) => Value::Bool(x > y),
        (Ge, Value::Str(x), Value::Str(y)) => Value::Bool(x >= y),
        (op, a, b) => return Err(rerr(pos, format!("bad operands {a} {op:?} {b}"))),
    })
}

// The list builtins, as operations on the list value itself. How that
// value is reached (a clone written back, or the slot in place) is the
// back end's business.

fn list_of<'v>(v: &'v mut Value, what: &str, pos: Pos) -> Result<&'v mut Vec<Value>, AlpsError> {
    match v {
        Value::List(xs) => Ok(xs),
        other => Err(rerr(pos, format!("{what} {other}"))),
    }
}

fn list_index(i: i64, len: usize, pos: Pos) -> Result<usize, AlpsError> {
    usize::try_from(i)
        .ok()
        .filter(|&k| k < len)
        .ok_or_else(|| rerr(pos, format!("index {i} out of bounds (len {len})")))
}

/// `len(e)`
pub(crate) fn len_of(v: &Value, pos: Pos) -> Result<Value, AlpsError> {
    match v {
        Value::List(xs) => Ok(Value::Int(xs.len() as i64)),
        Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
        other => Err(rerr(pos, format!("len of {other}"))),
    }
}

/// `get(xs, i)`
pub(crate) fn list_get(list: &Value, i: i64, pos: Pos) -> Result<Value, AlpsError> {
    match list {
        Value::List(xs) => Ok(xs[list_index(i, xs.len(), pos)?].clone()),
        other => Err(rerr(pos, format!("get from {other}"))),
    }
}

/// `push(xs, e)`
pub(crate) fn list_push(list: &mut Value, item: Value, pos: Pos) -> Result<(), AlpsError> {
    list_of(list, "push to", pos)?.push(item);
    Ok(())
}

/// `remove(xs, i)`
pub(crate) fn list_remove(list: &mut Value, i: i64, pos: Pos) -> Result<Value, AlpsError> {
    let xs = list_of(list, "remove from", pos)?;
    let idx = list_index(i, xs.len(), pos)?;
    Ok(xs.remove(idx))
}

/// `pop(xs)`
pub(crate) fn list_pop(list: &mut Value, pos: Pos) -> Result<Value, AlpsError> {
    let xs = list_of(list, "pop from", pos)?;
    if xs.is_empty() {
        return Err(rerr(pos, "pop from an empty list"));
    }
    Ok(xs.remove(0))
}

/// `set(xs, i, e)`
pub(crate) fn list_set(list: &mut Value, i: i64, item: Value, pos: Pos) -> Result<(), AlpsError> {
    let xs = list_of(list, "set on", pos)?;
    let idx = list_index(i, xs.len(), pos)?;
    xs[idx] = item;
    Ok(())
}
