//! Resolved intermediate representation: the output of
//! [`check`](crate::check::check) and the only program form that is
//! executed.
//!
//! Every name in a checked program is resolved while it is checked —
//! objects to indices, entries to `(object, entry)` index pairs with a
//! precomputed position in the flat entry-id table, variables to frame
//! slots (procedure/manager/main locals), environment slots (the object's
//! shared data part) or overlay slots (guard-bound values inside
//! `when`/`pri`). Neither walker ([`crate::interp`], the reference;
//! [`crate::compile`], the optimised one) therefore hashes a string,
//! consults a `HashMap` or touches the AST: an entry call is an interned
//! `handle.call_id(entry_id, args)`, a variable access is a vector
//! index. The [`VarRef::Env`] reads and writes of an entry body are its
//! read/write set on the object's shared data.

use alps_core::{Ty, Value};

use crate::ast::{BinOp, UnOp};
use crate::token::Pos;

/// Where a resolved variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarRef {
    /// Slot in the current activation frame (procedure/manager/main
    /// locals, parameters, loop and guard bindings).
    Frame(usize),
    /// Slot in the object's shared data part (locked per access, or once
    /// for a [`CStmt::Held`] run).
    Env(usize),
    /// Slot in the guard-evaluation overlay: the quantifier value and the
    /// candidate's bound values. Only valid inside compiled `when`/`pri`
    /// expressions; never a write target.
    Overlay(usize),
}

/// Constructor for a variable's initial (default) value. Channels must be
/// constructed per activation — two invocations of a body get distinct
/// channels — so defaults are recipes, not pre-made values.
#[derive(Debug, Clone)]
pub enum DefaultVal {
    /// `0`
    Int,
    /// `false`
    Bool,
    /// `0.0`
    Float,
    /// `""`
    Str,
    /// A fresh channel named after the variable.
    Chan(String, Vec<Ty>),
    /// `[]`
    List,
}

impl DefaultVal {
    /// Build the value.
    pub fn make(&self) -> Value {
        match self {
            DefaultVal::Int => Value::Int(0),
            DefaultVal::Bool => Value::Bool(false),
            DefaultVal::Float => Value::Float(0.0),
            DefaultVal::Str => Value::str(""),
            DefaultVal::Chan(name, sig) => {
                Value::Chan(alps_core::ChanValue::new(name, sig.clone()))
            }
            DefaultVal::List => Value::List(Vec::new()),
        }
    }
}

/// Builtin operations. The mutating list builtins carry the resolved
/// variable they update in place.
#[derive(Debug, Clone)]
pub enum Builtin {
    /// `print(e, …)`
    Print,
    /// `str(e)`
    Str,
    /// `len(e)`
    Len,
    /// `get(xs, i)`
    Get,
    /// `now()`
    Now,
    /// `sleep(t)`
    Sleep,
    /// `push(xs, e)`
    Push(VarRef),
    /// `remove(xs, i)`
    Remove(VarRef),
    /// `pop(xs)`
    Pop(VarRef),
    /// `set(xs, i, e)`
    Set(VarRef),
}

impl Builtin {
    /// The variable a mutating list builtin updates in place.
    pub fn target(&self) -> Option<&VarRef> {
        match self {
            Builtin::Push(t) | Builtin::Remove(t) | Builtin::Pop(t) | Builtin::Set(t) => Some(t),
            _ => None,
        }
    }
}

/// Resolved expressions.
#[derive(Debug, Clone)]
pub enum CExpr {
    /// A literal, pre-built (string literals are interned `Arc<str>`s, so
    /// cloning is a refcount bump).
    Const(Value),
    /// A resolved variable read.
    Var(VarRef, Pos),
    /// The last read of frame slot `i` before the slot is written again or
    /// its frame dies (marked after checking, by `last_use`): the
    /// optimised walker moves the value out instead of cloning it.
    Take(usize, Pos),
    /// `#P` — resolved entry index; manager/guard scope only.
    Pending(usize, Pos),
    /// Unary operation.
    Unary(UnOp, Box<CExpr>, Pos),
    /// Binary operation (`and`/`or` short-circuit).
    Binary(BinOp, Box<CExpr>, Box<CExpr>, Pos),
    /// `X.P(…)` — an entry call through the interned handle/entry-id
    /// tables: `obj` indexes the handle table, `flat` the entry-id table.
    CallEntry {
        /// Object index.
        obj: usize,
        /// Flat entry-id table index.
        flat: usize,
        /// Argument expressions.
        args: Vec<CExpr>,
        /// Call position.
        pos: Pos,
    },
    /// A sibling *intercepted* procedure — routed through the own
    /// object's manager via `call_from_inside_id`.
    CallSelf {
        /// Flat entry-id table index (own object).
        flat: usize,
        /// Argument expressions.
        args: Vec<CExpr>,
        /// Call position.
        pos: Pos,
    },
    /// A sibling non-intercepted procedure — executed inline in the
    /// current process with a fresh frame.
    CallInline {
        /// Entry index within the current object.
        entry: usize,
        /// Argument expressions.
        args: Vec<CExpr>,
        /// Call position.
        pos: Pos,
    },
    /// A builtin.
    CallBuiltin(Builtin, Vec<CExpr>, Pos),
}

impl CExpr {
    /// Whether `f` holds for `self` or any expression inside it.
    pub fn any(&self, f: &impl Fn(&CExpr) -> bool) -> bool {
        f(self)
            || match self {
                CExpr::Const(_) | CExpr::Var(..) | CExpr::Take(..) | CExpr::Pending(..) => false,
                CExpr::Unary(_, a, _) => a.any(f),
                CExpr::Binary(_, a, b, _) => a.any(f) || b.any(f),
                CExpr::CallEntry { args, .. }
                | CExpr::CallSelf { args, .. }
                | CExpr::CallInline { args, .. }
                | CExpr::CallBuiltin(_, args, _) => args.iter().any(|a| a.any(f)),
            }
    }

    /// Position of the expression (for runtime error messages).
    pub fn pos(&self) -> Pos {
        match self {
            CExpr::Const(_) => Pos::default(),
            CExpr::Var(_, p)
            | CExpr::Take(_, p)
            | CExpr::Pending(_, p)
            | CExpr::Unary(_, _, p)
            | CExpr::Binary(_, _, _, p)
            | CExpr::CallEntry { pos: p, .. }
            | CExpr::CallSelf { pos: p, .. }
            | CExpr::CallInline { pos: p, .. }
            | CExpr::CallBuiltin(_, _, p) => *p,
        }
    }
}

/// One branch of a `par` / `par-for` (always an object entry call).
#[derive(Debug, Clone)]
pub struct CParBranch {
    /// Object index (handle table).
    pub obj: usize,
    /// Flat entry-id table index.
    pub flat: usize,
    /// Argument expressions.
    pub args: Vec<CExpr>,
    /// Position.
    pub pos: Pos,
}

/// Resolved guard kinds. Bind targets are resolved variable references
/// written at commit time.
#[derive(Debug, Clone)]
pub enum CGuardKind {
    /// `accept P[i](x, …)`
    Accept {
        /// Entry index.
        entry: usize,
        /// Targets for the intercepted parameter prefix.
        binds: Vec<VarRef>,
    },
    /// `await P[i](r, …)`
    Await {
        /// Entry index.
        entry: usize,
        /// Targets for intercepted + hidden results.
        binds: Vec<VarRef>,
    },
    /// `receive C(x, …)`
    Receive {
        /// Channel expression.
        chan: CExpr,
        /// Targets for message elements.
        binds: Vec<VarRef>,
    },
    /// Pure boolean guard.
    Plain,
}

/// What the optimised walker may take for granted about an arm's
/// `when` and `pri`, decided once by `check`; the reference walker
/// ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardShape {
    /// `when` reads only literals and manager-frame variables, which
    /// cannot change while the manager is blocked in the select: no bound
    /// value, no `#P`, no object variable (a started body may write one
    /// meanwhile), no call. It is decided once per round, not once per
    /// candidate, as an embedded manager's `move` closure would capture
    /// its state.
    pub when_fixed: bool,
    /// `when` reads an overlay slot (a bound value or the quantifier), so
    /// each candidate's overlay must be built for it.
    pub when_overlay: bool,
    /// `pri` reads an overlay slot.
    pub pri_overlay: bool,
}

impl GuardShape {
    /// The shape of an arm with these conditions.
    pub fn of(when: Option<&CExpr>, pri: Option<&CExpr>) -> Self {
        let overlay = |e: &CExpr| e.any(&|x| matches!(x, CExpr::Var(VarRef::Overlay(_), _)));
        let live = |x: &CExpr| match x {
            CExpr::Const(_) | CExpr::Take(..) | CExpr::Unary(..) | CExpr::Binary(..) => false,
            CExpr::Var(r, _) => !matches!(r, VarRef::Frame(_)),
            _ => true,
        };
        GuardShape {
            when_fixed: when.is_some_and(|w| !w.any(&live)),
            when_overlay: when.is_some_and(overlay),
            pri_overlay: pri.is_some_and(overlay),
        }
    }
}

/// One guarded alternative of a compiled `select`/`loop`.
#[derive(Debug, Clone)]
pub struct CGuarded {
    /// Quantifier `(i: lo..hi)`: the frame slot bound in the arm body and
    /// the bound expressions (evaluated once per select).
    pub quant: Option<(usize, CExpr, CExpr)>,
    /// The guard kind.
    pub kind: CGuardKind,
    /// Acceptance condition, compiled against the overlay scope
    /// (`Overlay(0)` = quantifier value if quantified, then the bind
    /// values in order).
    pub when: Option<CExpr>,
    /// Run-time priority, same scoping as `when`.
    pub pri: Option<CExpr>,
    /// What `when` and `pri` read.
    pub shape: GuardShape,
    /// Arm body.
    pub body: Vec<CStmt>,
    /// Position.
    pub pos: Pos,
}

/// Resolved statements.
#[derive(Debug, Clone)]
pub enum CStmt {
    /// `x, y := e`
    Assign(Vec<VarRef>, CExpr, Pos),
    /// A call for effect.
    Expr(CExpr),
    /// A run of statements that each read or write the object's variables
    /// ([`VarRef::Env`]) and neither call nor sleep — `:=`, call
    /// statements and `return` only. The walker locks the object's
    /// variables once for the whole run instead of once per access, which
    /// makes the run atomic against other started bodies; no scheduling
    /// point falls inside it either way. Built by [`CStmt::hold_runs`].
    Held(Vec<CStmt>),
    /// `if … elsif … else …`
    If(Vec<(CExpr, Vec<CStmt>)>, Vec<CStmt>),
    /// `while e do …`
    While(CExpr, Vec<CStmt>),
    /// `for i := a to b do …` — the loop variable is a frame slot.
    For(usize, CExpr, CExpr, Vec<CStmt>),
    /// `send C(e, …)`
    Send(CExpr, Vec<CExpr>, Pos),
    /// `receive C(x, …)`
    Receive(CExpr, Vec<VarRef>, Pos),
    /// `select … end select`
    Select(Vec<CGuarded>, Pos),
    /// `loop … end loop`
    LoopSel(Vec<CGuarded>, Pos),
    /// `par call and … end par`
    Par(Vec<CParBranch>, Pos),
    /// `par i = a to b do P(…) end par` — loop variable is a frame slot
    /// bound while evaluating each branch's arguments.
    ParFor {
        /// Loop-variable frame slot.
        var: usize,
        /// Lower bound.
        lo: CExpr,
        /// Upper bound.
        hi: CExpr,
        /// The branch template.
        branch: CParBranch,
        /// Position.
        pos: Pos,
    },
    /// `return (e, …)`
    Return(Vec<CExpr>, Pos),
    /// `accept P[i](x, …)` (blocking statement form).
    Accept {
        /// Entry index.
        entry: usize,
        /// Optional 1-based slot index expression.
        slot: Option<CExpr>,
        /// Bind targets.
        binds: Vec<VarRef>,
        /// Position.
        pos: Pos,
    },
    /// `await P[i](x, …)` (blocking statement form).
    Await {
        /// Entry index.
        entry: usize,
        /// Optional 1-based slot index expression.
        slot: Option<CExpr>,
        /// Bind targets.
        binds: Vec<VarRef>,
        /// Position.
        pos: Pos,
    },
    /// `start P[i](e, …)`.
    Start {
        /// Entry index.
        entry: usize,
        /// Optional 1-based slot index expression.
        slot: Option<CExpr>,
        /// Intercepted-prefix + hidden-parameter expressions (empty =
        /// start as accepted).
        args: Vec<CExpr>,
        /// How many leading args are the intercepted prefix.
        intercept_params: usize,
        /// Position.
        pos: Pos,
    },
    /// `finish P[i](e, …)`.
    Finish {
        /// Entry index.
        entry: usize,
        /// Optional 1-based slot index expression.
        slot: Option<CExpr>,
        /// Result expressions (empty = forward as-is).
        args: Vec<CExpr>,
        /// Position.
        pos: Pos,
    },
    /// `execute P[i](e, …)`.
    Execute {
        /// Entry index.
        entry: usize,
        /// Optional 1-based slot index expression.
        slot: Option<CExpr>,
        /// Intercepted-prefix + hidden-parameter expressions.
        args: Vec<CExpr>,
        /// How many leading args are the intercepted prefix.
        intercept_params: usize,
        /// Position.
        pos: Pos,
    },
    /// `skip`
    Skip,
}

impl CStmt {
    /// Group each maximal run of statements that may hold the object's
    /// variables into one [`CStmt::Held`].
    pub fn hold_runs(stmts: Vec<CStmt>) -> Vec<CStmt> {
        if !stmts.iter().any(CStmt::may_hold) {
            return stmts;
        }
        let mut out = Vec::with_capacity(stmts.len());
        let mut stmts = stmts.into_iter().peekable();
        while let Some(s) = stmts.next() {
            if !s.may_hold() {
                out.push(s);
                continue;
            }
            let mut run = vec![s];
            while let Some(s) = stmts.next_if(CStmt::may_hold) {
                run.push(s);
            }
            run.shrink_to_fit();
            out.push(CStmt::Held(run));
        }
        out.shrink_to_fit();
        out
    }

    /// Whether this statement reads or writes the object's variables and
    /// neither calls nor sleeps.
    fn may_hold(&self) -> bool {
        let (targets, exprs): (&[VarRef], &[CExpr]) = match self {
            CStmt::Assign(targets, e, _) => (targets, std::slice::from_ref(e)),
            CStmt::Expr(e) => (&[], std::slice::from_ref(e)),
            CStmt::Return(args, _) => (&[], args),
            _ => return false,
        };
        let env = |r: &VarRef| matches!(r, VarRef::Env(_));
        let touches = |x: &CExpr| match x {
            CExpr::Var(r, _) => env(r),
            CExpr::CallBuiltin(b, _, _) => b.target().is_some_and(env),
            _ => false,
        };
        let blocks = |x: &CExpr| {
            matches!(
                x,
                CExpr::CallEntry { .. }
                    | CExpr::CallSelf { .. }
                    | CExpr::CallInline { .. }
                    | CExpr::CallBuiltin(Builtin::Sleep, _, _)
            )
        };
        (targets.iter().any(env) || exprs.iter().any(|e| e.any(&touches)))
            && !exprs.iter().any(|e| e.any(&blocks))
    }
}

/// A compiled code block with its activation-frame layout: parameter
/// slots first, declared locals (with defaults) next, then slots for loop
/// variables and guard bindings (initialised to `Unit`).
#[derive(Debug, Clone)]
pub struct CProc {
    /// Name (for error messages).
    pub name: String,
    /// Number of leading parameter slots.
    pub params: usize,
    /// Defaults for the declared-local slots `params..params+defaults`.
    pub defaults: Vec<DefaultVal>,
    /// Total frame size (≥ params + defaults).
    pub frame_size: usize,
    /// Results the block must return (public + hidden for entry bodies,
    /// 0 for manager/init/main).
    pub result_count: usize,
    /// The body.
    pub body: Vec<CStmt>,
    /// Position of the header.
    pub pos: Pos,
}

/// Static entry metadata the backend needs to build an
/// [`alps_core::EntryDef`], plus the compiled body.
#[derive(Debug, Clone)]
pub struct CEntry {
    /// Entry name.
    pub name: String,
    /// Public parameter types.
    pub public_params: Vec<Ty>,
    /// Public result types.
    pub public_results: Vec<Ty>,
    /// Hidden parameter types.
    pub hidden_params: Vec<Ty>,
    /// Hidden result types.
    pub hidden_results: Vec<Ty>,
    /// Procedure-array size.
    pub array: usize,
    /// Whether the entry is local.
    pub local: bool,
    /// Intercepted `(params, results)` prefix lengths.
    pub intercept: Option<(usize, usize)>,
    /// The compiled body.
    pub code: CProc,
}

/// A compiled object.
#[derive(Debug, Clone)]
pub struct CObject {
    /// Object name.
    pub name: String,
    /// Defaults for the shared data part (environment slots).
    pub env: Vec<DefaultVal>,
    /// Entries, in builder declaration order (= `ObjInfo::entries`
    /// order, so entry indices agree with the core's).
    pub entries: Vec<CEntry>,
    /// The compiled manager, if any.
    pub manager: Option<CProc>,
    /// Initialization code, if any.
    pub init: Option<CProc>,
    /// Base of this object's token table: per entry, the running sum of
    /// array sizes (managers key accepted/ready tokens by
    /// `tok_base[entry] + slot` into a flat vector).
    pub tok_base: Vec<usize>,
    /// Total token slots (sum of array sizes).
    pub tok_len: usize,
}

/// A fully resolved program.
#[derive(Debug, Clone)]
pub struct CUnit {
    /// Objects, in implementation order (= `Checked::objects` order).
    pub objects: Vec<CObject>,
    /// The compiled `main` block, if any.
    pub main: Option<CProc>,
    /// Per object, the base index of its entries in the flat entry-id
    /// table.
    pub flat_base: Vec<usize>,
    /// Total entries across all objects (entry-id table length).
    pub total_entries: usize,
}
