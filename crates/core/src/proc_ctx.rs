//! Execution context handed to entry-procedure bodies.

use std::fmt;
use std::sync::Arc;

use alps_runtime::Runtime;

use crate::error::Result;
use crate::object::ObjectInner;
use crate::value::{check_types_lazy, ValVec};

/// Context available inside an entry-procedure body: identity (which
/// array element the call is attached to, paper §2.5), the runtime (for
/// channels/sleep), and local-procedure calls (paper §2.3: local
/// procedures may be intercepted too, letting the manager control entry
/// procedures even after starting them).
pub struct ProcCtx {
    obj: Arc<ObjectInner>,
    entry: usize,
    slot: usize,
}

impl fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcCtx")
            .field("object", &self.obj.name)
            .field("entry", &self.entry_name())
            .field("slot", &self.slot)
            .finish()
    }
}

impl ProcCtx {
    pub(crate) fn new(obj: Arc<ObjectInner>, entry: usize, slot: usize) -> ProcCtx {
        ProcCtx { obj, entry, slot }
    }

    /// The runtime the object lives on (for channel operations, spawning
    /// helper processes, timing).
    pub fn rt(&self) -> &Runtime {
        &self.obj.rt
    }

    /// Which element of the hidden procedure array this execution is
    /// attached to (0-based; the paper writes `P[1..N]`).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Name of the executing entry.
    pub fn entry_name(&self) -> &str {
        &self.obj.entries[self.entry].name
    }

    /// Name of the enclosing object.
    pub fn object_name(&self) -> &str {
        &self.obj.name
    }

    /// Current time in ticks.
    pub fn now(&self) -> u64 {
        self.obj.rt.now()
    }

    /// Sleep for `ticks` — used to model service times in simulations.
    pub fn sleep(&self, ticks: u64) {
        self.obj.rt.sleep(ticks)
    }

    /// Call a procedure of the *same* object from inside a body.
    ///
    /// If the target is intercepted, the call goes through the full
    /// attach/accept/start/finish protocol, so the manager schedules it —
    /// this is how a manager stays "solely responsible for the
    /// scheduling" even for running entries (paper §2.3). Otherwise the
    /// body executes inline in the current process.
    ///
    /// # Errors
    ///
    /// [`crate::AlpsError::UnknownEntry`], argument type mismatches, or
    /// whatever the callee fails with.
    pub fn call_local(&mut self, name: &str, args: impl Into<ValVec>) -> Result<ValVec> {
        let args: ValVec = args.into();
        let idx = self.obj.entry_idx(name)?;
        let def = &self.obj.entries[idx];
        if def.intercept.is_some() {
            return self.obj.call_protocol(idx, args, false, None);
        }
        // Inline execution in the calling process.
        check_types_lazy(&def.params, &args, || {
            format!("call {}.{}", self.obj.name, def.name)
        })?;
        let body = def
            .body
            .clone()
            .expect("validated at build: every entry has a body");
        let mut inner_ctx = ProcCtx::new(Arc::clone(&self.obj), idx, 0);
        let results = body(&mut inner_ctx, args)?;
        check_types_lazy(&self.obj.full_results[idx], &results, || {
            format!("results of {}.{}", self.obj.name, def.name)
        })?;
        Ok(results)
    }

    /// `#P` for an entry of this object.
    ///
    /// # Errors
    ///
    /// [`crate::AlpsError::UnknownEntry`] for a bad name.
    pub fn pending(&self, entry: &str) -> Result<usize> {
        let idx = self.obj.entry_idx(entry)?;
        Ok(self.obj.pending(idx))
    }
}
