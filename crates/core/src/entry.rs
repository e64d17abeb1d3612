//! Entry-procedure declarations: signatures, hidden procedure arrays,
//! hidden parameters/results, and intercept specifications.
//!
//! An ALPS object is described in two parts (paper §2.2): the *definition*
//! (names and public signatures of entry procedures) and the
//! *implementation* (bodies, array sizes, hidden parameters/results, the
//! manager and its intercepts clause). [`EntryDef`] carries both parts for
//! one entry; [`crate::ObjectBuilder`] assembles an object from them.

use std::fmt;
use std::sync::Arc;

use crate::error::Result;
use crate::proc_ctx::ProcCtx;
use crate::value::{Ty, ValVec};

/// The code of an entry procedure. It receives the full parameter list —
/// the public parameters (with the intercepted prefix as supplied by the
/// manager at `start`) followed by any hidden parameters — and returns the
/// public results followed by any hidden results.
///
/// Parameters and results travel as [`ValVec`] so calls of arity ≤ 4 stay
/// off the heap; [`EntryDef::body`] accepts closures returning either
/// `Vec<Value>` or `ValVec`.
pub type EntryBody = Arc<dyn Fn(&mut ProcCtx, ValVec) -> Result<ValVec> + Send + Sync + 'static>;

/// Intercept specification for one entry: the manager receives the first
/// `params` invocation parameters at `accept` and supplies the first
/// `results` results at `finish` (paper §2.6: *initial subsequences* of
/// the public lists — "it is wasteful to require the manager to receive
/// all the parameters").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Intercept {
    /// Length of the intercepted parameter prefix.
    pub params: usize,
    /// Length of the intercepted result prefix.
    pub results: usize,
}

/// Declaration of one entry (or local) procedure.
///
/// # Examples
///
/// ```
/// use alps_core::{EntryDef, Ty};
///
/// // The paper's spooler Print entry: exported as a single procedure,
/// // implemented as an array; the manager supplies the printer number as
/// // a hidden parameter and gets it back as a hidden result (§2.8.1).
/// let print = EntryDef::new("Print")
///     .params([Ty::Str])
///     .array(8)
///     .intercepted()
///     .hidden_params([Ty::Int])
///     .hidden_results([Ty::Int])
///     .body(|_ctx, args| Ok(vec![args[1].clone()]));
/// assert_eq!(print.name(), "Print");
/// ```
#[derive(Clone)]
pub struct EntryDef {
    pub(crate) name: String,
    pub(crate) params: Vec<Ty>,
    pub(crate) results: Vec<Ty>,
    pub(crate) hidden_params: Vec<Ty>,
    pub(crate) hidden_results: Vec<Ty>,
    pub(crate) array: usize,
    pub(crate) local: bool,
    pub(crate) intercept: Option<Intercept>,
    pub(crate) body: Option<EntryBody>,
}

impl fmt::Debug for EntryDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EntryDef")
            .field("name", &self.name)
            .field("params", &self.params)
            .field("results", &self.results)
            .field("hidden_params", &self.hidden_params)
            .field("hidden_results", &self.hidden_results)
            .field("array", &self.array)
            .field("local", &self.local)
            .field("intercept", &self.intercept)
            .field("has_body", &self.body.is_some())
            .finish()
    }
}

impl EntryDef {
    /// New entry with no parameters, no results, array size 1, not local,
    /// not intercepted, no body.
    pub fn new(name: impl Into<String>) -> EntryDef {
        EntryDef {
            name: name.into(),
            params: Vec::new(),
            results: Vec::new(),
            hidden_params: Vec::new(),
            hidden_results: Vec::new(),
            array: 1,
            local: false,
            intercept: None,
            body: None,
        }
    }

    /// Public (definition-part) parameter types.
    pub fn params(mut self, tys: impl IntoIterator<Item = Ty>) -> Self {
        self.params = tys.into_iter().collect();
        self
    }

    /// Public (definition-part) result types.
    pub fn results(mut self, tys: impl IntoIterator<Item = Ty>) -> Self {
        self.results = tys.into_iter().collect();
        self
    }

    /// Hidden parameters, supplied by the manager at `start` (paper §2.8).
    /// Requires the entry to be intercepted.
    pub fn hidden_params(mut self, tys: impl IntoIterator<Item = Ty>) -> Self {
        self.hidden_params = tys.into_iter().collect();
        self
    }

    /// Hidden results, received by the manager at `await` (paper §2.8).
    /// Requires the entry to be intercepted.
    pub fn hidden_results(mut self, tys: impl IntoIterator<Item = Ty>) -> Self {
        self.hidden_results = tys.into_iter().collect();
        self
    }

    /// Implement this entry as a hidden procedure array of `n` elements
    /// (paper §2.5). Callers still see a single procedure; each arriving
    /// call attaches to a free element. `n` bounds the number of in-flight
    /// executions of this entry.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn array(mut self, n: usize) -> Self {
        assert!(n > 0, "a procedure array needs at least one element");
        self.array = n;
        self
    }

    /// Mark the procedure local: not callable from outside the object,
    /// only via [`ProcCtx::call_local`]. Local procedures may still be
    /// intercepted (paper §2.3: "to intercept even local procedures").
    pub fn local(mut self) -> Self {
        self.local = true;
        self
    }

    /// Direct calls to this entry to the manager, intercepting no
    /// parameters and no results.
    pub fn intercepted(mut self) -> Self {
        self.intercept.get_or_insert(Intercept::default());
        self
    }

    /// Intercept the first `k` invocation parameters (implies
    /// interception).
    pub fn intercept_params(mut self, k: usize) -> Self {
        self.intercept.get_or_insert(Intercept::default()).params = k;
        self
    }

    /// Intercept the first `k` results (implies interception).
    pub fn intercept_results(mut self, k: usize) -> Self {
        self.intercept.get_or_insert(Intercept::default()).results = k;
        self
    }

    /// Attach the procedure body. The closure receives the argument tuple
    /// as a [`ValVec`] (indexes and iterates like a `Vec<Value>`) and may
    /// return results as either `Vec<Value>` or `ValVec` — return
    /// [`crate::argv!`] tuples to keep the body allocation-free.
    pub fn body<F, R>(mut self, f: F) -> Self
    where
        F: Fn(&mut ProcCtx, ValVec) -> Result<R> + Send + Sync + 'static,
        R: Into<ValVec>,
    {
        self.body = Some(Arc::new(move |ctx, args| f(ctx, args).map(Into::into)));
        self
    }

    /// The entry's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Full implementation-side result signature: public then hidden.
    pub(crate) fn full_results(&self) -> Vec<Ty> {
        let mut v = self.results.clone();
        v.extend(self.hidden_results.iter().cloned());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let e = EntryDef::new("P");
        assert_eq!(e.name(), "P");
        assert_eq!(e.array, 1);
        assert!(e.intercept.is_none());
        assert!(!e.local);
        assert!(e.body.is_none());
        assert_eq!(EntryDef::new("Print").array(8).array, 8);
    }

    #[test]
    fn intercept_builders_compose() {
        let e = EntryDef::new("P").intercept_params(2).intercept_results(1);
        assert_eq!(
            e.intercept,
            Some(Intercept {
                params: 2,
                results: 1
            })
        );
        let e2 = EntryDef::new("Q").intercepted();
        assert_eq!(e2.intercept, Some(Intercept::default()));
    }

    #[test]
    fn full_signatures_append_hidden() {
        let e = EntryDef::new("P")
            .params([Ty::Str])
            .results([Ty::Int])
            .intercepted()
            .hidden_params([Ty::Int])
            .hidden_results([Ty::Bool]);
        assert_eq!(e.full_results(), vec![Ty::Int, Ty::Bool]);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn zero_array_rejected() {
        let _ = EntryDef::new("P").array(0);
    }

    #[test]
    fn debug_shows_body_presence() {
        let e = EntryDef::new("P").body(|_, _| Ok(vec![]));
        let dbg = format!("{e:?}");
        assert!(dbg.contains("has_body: true"), "{dbg}");
    }
}
