//! Last reads: which reads of a frame variable may move its value out.
//!
//! `check` runs [`mark`] over every code block it builds. A read of frame
//! slot `i` becomes [`CExpr::Take`] when nothing reads the slot again
//! before it is written or the frame dies. The value is dead after such a
//! read, so the optimised walker moves it out instead of cloning it: a
//! message list that a manager forwards with `execute P(M)`, that a body
//! stores with `set(xs, i, M)` or returns, is not copied on the way. The
//! reference walker reads a `Take` as it reads any variable, so the
//! equivalence tests check this analysis.
//!
//! It is backward liveness over the structured IR, loops iterated to a
//! fixed point, with three simplifications:
//!
//! * a read moves only if its statement reads the slot exactly once, so
//!   the order in which a walker evaluates operands never matters;
//! * an expression evaluated more than once per run of its statement
//!   never moves: guard conditions, quantifier bounds and channels of a
//!   `select`, the branch arguments of `par i = …`;
//! * an `await` binds nothing when its body failed, so it does not count
//!   as a write.
//!
//! A block with more than 128 frame slots is left unmarked.

use crate::ir::{CExpr, CGuardKind, CGuarded, CProc, CStmt, VarRef};

/// Mark the last reads in `cp`'s body.
pub(crate) fn mark(cp: &mut CProc) {
    if cp.frame_size <= 128 {
        Pass { mark: true }.block(&mut cp.body, Slots::NONE);
    }
}

/// A set of frame slots.
#[derive(Clone, Copy, PartialEq)]
struct Slots(u128);

impl Slots {
    const NONE: Slots = Slots(0);

    fn insert(&mut self, i: usize) {
        self.0 |= 1 << i;
    }

    fn remove(&mut self, i: usize) {
        self.0 &= !(1 << i);
    }

    fn contains(self, i: usize) -> bool {
        self.0 >> i & 1 == 1
    }

    fn union(self, other: Slots) -> Slots {
        Slots(self.0 | other.0)
    }

    /// Remove the frame slots among `targets`: they are written.
    fn kill<'r>(mut self, targets: impl IntoIterator<Item = &'r VarRef>) -> Slots {
        for t in targets {
            if let VarRef::Frame(i) = t {
                self.remove(*i);
            }
        }
        self
    }
}

/// Every frame slot `e` reads, in place or by value, `Take`s included.
fn reads(e: &CExpr, f: &mut impl FnMut(usize)) {
    match e {
        CExpr::Var(VarRef::Frame(i), _) | CExpr::Take(i, _) => f(*i),
        CExpr::Const(_) | CExpr::Var(..) | CExpr::Pending(..) => {}
        CExpr::Unary(_, a, _) => reads(a, f),
        CExpr::Binary(_, a, b, _) => {
            reads(a, f);
            reads(b, f);
        }
        CExpr::CallBuiltin(b, args, _) => {
            if let Some(VarRef::Frame(i)) = b.target() {
                f(*i);
            }
            args.iter().for_each(|a| reads(a, f));
        }
        CExpr::CallEntry { args, .. }
        | CExpr::CallSelf { args, .. }
        | CExpr::CallInline { args, .. } => {
            args.iter().for_each(|a| reads(a, f));
        }
    }
}

/// Turn each read of a slot `moves` accepts into a `Take`.
fn take(e: &mut CExpr, moves: &impl Fn(usize) -> bool) {
    match e {
        CExpr::Var(VarRef::Frame(i), pos) if moves(*i) => *e = CExpr::Take(*i, *pos),
        CExpr::Const(_) | CExpr::Var(..) | CExpr::Take(..) | CExpr::Pending(..) => {}
        CExpr::Unary(_, a, _) => take(a, moves),
        CExpr::Binary(_, a, b, _) => {
            take(a, moves);
            take(b, moves);
        }
        CExpr::CallBuiltin(_, args, _)
        | CExpr::CallEntry { args, .. }
        | CExpr::CallSelf { args, .. }
        | CExpr::CallInline { args, .. } => args.iter_mut().for_each(|a| take(a, moves)),
    }
}

/// Iterate `step` from `start` until it returns its input.
fn fixed(start: Slots, mut step: impl FnMut(Slots) -> Slots) -> Slots {
    let mut head = start;
    loop {
        let next = step(head);
        if next == head {
            return head;
        }
        head = next;
    }
}

/// One walk over a block. Every function takes the slots live after
/// its code and returns those live before it; with `mark` set it also
/// rewrites the last reads.
#[derive(Clone, Copy)]
struct Pass {
    mark: bool,
}

impl Pass {
    /// The same walk without marking, for the iterations of a fixed
    /// point.
    fn pure(&self) -> Pass {
        Pass { mark: false }
    }

    /// `after` plus every slot the expressions read.
    fn uses<'e>(&self, exprs: impl IntoIterator<Item = &'e CExpr>, after: Slots) -> Slots {
        let mut live = after;
        for e in exprs {
            reads(e, &mut |i| live.insert(i));
        }
        live
    }

    /// Expressions one statement evaluates once per run, followed by
    /// `after`: a slot they read once and `after` does not hold moves.
    fn group<'e>(&self, exprs: impl IntoIterator<Item = &'e mut CExpr>, after: Slots) -> Slots {
        if !self.mark {
            return self.uses(exprs.into_iter().map(|e| &*e), after);
        }
        let mut exprs: Vec<&mut CExpr> = exprs.into_iter().collect();
        let (mut once, mut twice) = (Slots::NONE, Slots::NONE);
        for e in &exprs {
            reads(e, &mut |i| {
                if once.contains(i) {
                    twice.insert(i);
                }
                once.insert(i);
            });
        }
        let moves = |i| !twice.contains(i) && !after.contains(i);
        exprs.iter_mut().for_each(|e| take(e, &moves));
        after.union(once)
    }

    fn block(&self, stmts: &mut [CStmt], after: Slots) -> Slots {
        stmts
            .iter_mut()
            .rev()
            .fold(after, |live, s| self.stmt(s, live))
    }

    fn stmt(&self, s: &mut CStmt, out: Slots) -> Slots {
        match s {
            CStmt::Skip => out,
            CStmt::Assign(targets, e, _) => self.group([e], out.kill(targets.iter())),
            CStmt::Expr(e) => self.group([e], out),
            CStmt::Held(run) => self.block(run, out),
            CStmt::Return(args, ..) => self.group(args, Slots::NONE),
            CStmt::If(arms, els) => {
                let mut next = self.block(els, out);
                for (c, body) in arms.iter_mut().rev() {
                    let taken = self.block(body, out).union(next);
                    next = self.group([c], taken);
                }
                next
            }
            CStmt::While(c, body) => {
                let head = fixed(self.uses([&*c], out), |head| {
                    self.uses([&*c], self.pure().block(body, head).union(out))
                });
                self.group([c], self.block(body, head).union(out))
            }
            CStmt::For(slot, lo, hi, body) => {
                let round = |p: Pass, body: &mut Vec<CStmt>, head| {
                    let mut live = p.block(body, head);
                    live.remove(*slot);
                    live.union(out)
                };
                let head = fixed(out, |head| round(self.pure(), body, head));
                self.group([lo, hi], round(*self, body, head))
            }
            CStmt::Send(chan, args, _) => self.group(std::iter::once(chan).chain(args), out),
            CStmt::Receive(chan, binds, _) => self.group([chan], out.kill(binds.iter())),
            CStmt::Select(arms, _) => self.round(arms, out),
            CStmt::LoopSel(arms, _) => {
                let head = fixed(out, |head| self.pure().round(arms, head).union(out));
                self.round(arms, head).union(out)
            }
            CStmt::Par(branches, _) => {
                self.group(branches.iter_mut().flat_map(|b| &mut b.args), out)
            }
            CStmt::ParFor {
                var,
                lo,
                hi,
                branch,
                ..
            } => {
                let mut each = self.uses(&branch.args, Slots::NONE);
                each.remove(*var);
                self.group([lo, hi], out.union(each))
            }
            CStmt::Accept { slot, binds, .. } => self.group(slot, out.kill(binds.iter())),
            CStmt::Await { slot, .. } => self.group(slot, out),
            CStmt::Start { slot, args, .. }
            | CStmt::Execute { slot, args, .. }
            | CStmt::Finish { slot, args, .. } => self.group(slot.iter_mut().chain(args), out),
        }
    }

    /// One round of a `select`: its guards are evaluated, then one arm
    /// binds and runs.
    fn round(&self, arms: &mut [CGuarded], after: Slots) -> Slots {
        let mut live = Slots::NONE;
        for arm in arms.iter_mut() {
            let mut bound = self.block(&mut arm.body, after);
            if let CGuardKind::Accept { binds, .. } | CGuardKind::Receive { binds, .. } = &arm.kind
            {
                bound = bound.kill(binds);
            }
            if let Some((q, _, _)) = &arm.quant {
                bound.remove(*q);
            }
            let guard = arm.quant.iter().flat_map(|(_, lo, hi)| [lo, hi]);
            let chan = match &arm.kind {
                CGuardKind::Receive { chan, .. } => Some(chan),
                _ => None,
            };
            let exprs = guard.chain(chan).chain(&arm.when).chain(&arm.pri);
            live = self.uses(exprs, live.union(bound));
        }
        live
    }
}
