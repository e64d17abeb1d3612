//! Process identities, priorities, and spawn options.
//!
//! The paper's ALPS kernel schedules *light weight processes* inside an
//! object's address space, with the manager running "at a higher priority
//! compared to the other processes in the object" (paper, §2.3 and §3).
//! This module defines the vocabulary types shared by both executors.

use std::fmt;

/// Identity of a runtime process.
///
/// `ProcId`s are unique within one [`Runtime`](crate::Runtime) and are never
/// reused. Foreign OS threads that interact with a threaded runtime are
/// lazily assigned an id so that parking works uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub(crate) u64);

impl ProcId {
    /// Raw numeric id, useful for logging.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Scheduling priority of a process. **Lower values run first.**
///
/// The simulation executor honours priorities strictly: whenever a
/// scheduling decision is made, the runnable process with the smallest
/// priority value is granted the CPU. The threaded executor delegates to
/// the OS scheduler and ignores it. The work-stealing pool does not order
/// its run queues by it either: there a manager gets its precedence from
/// [`Runtime::yield_briefly`](crate::Runtime::yield_briefly), which it
/// uses while bodies it started are running, so it comes back after the
/// task at the hot end of its worker's deque instead of after every
/// yield-polling caller.
///
/// ```
/// use alps_runtime::Priority;
/// assert!(Priority::MANAGER < Priority::NORMAL);
/// assert!(Priority::NORMAL < Priority::BACKGROUND);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub i32);

impl Priority {
    /// Priority used for object managers (paper: the manager "should be
    /// executed at a high priority compared to the other processes in the
    /// object so that the manager is more receptive to entry calls").
    pub const MANAGER: Priority = Priority(-10);
    /// Default priority for ordinary processes and entry-procedure workers.
    pub const NORMAL: Priority = Priority(0);
    /// Priority for background/bookkeeping work.
    pub const BACKGROUND: Priority = Priority(10);
}

impl Default for Priority {
    fn default() -> Self {
        Priority::NORMAL
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio({})", self.0)
    }
}

/// Options controlling [`Runtime::spawn_with`](crate::Runtime::spawn_with).
///
/// ```
/// use alps_runtime::{Priority, Spawn};
/// let opts = Spawn::new("manager").prio(Priority::MANAGER).daemon(true);
/// assert_eq!(opts.name(), "manager");
/// ```
#[derive(Debug, Clone)]
pub struct Spawn {
    pub(crate) name: String,
    pub(crate) prio: Priority,
    pub(crate) daemon: bool,
    /// Marks the main process of a simulated run (crate-internal).
    pub(crate) main: bool,
}

impl Spawn {
    /// New spawn options with the given debug name, [`Priority::NORMAL`],
    /// non-daemon.
    pub fn new(name: impl Into<String>) -> Self {
        Spawn {
            name: name.into(),
            prio: Priority::NORMAL,
            daemon: false,
            main: false,
        }
    }

    /// Set the scheduling priority.
    pub fn prio(mut self, prio: Priority) -> Self {
        self.prio = prio;
        self
    }

    /// Mark the process as a *daemon*: a simulated run is allowed to finish
    /// while daemons are still parked (they are then aborted). Managers and
    /// pool workers are daemons.
    pub fn daemon(mut self, daemon: bool) -> Self {
        self.daemon = daemon;
        self
    }

    /// The debug name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured priority.
    pub fn priority(&self) -> Priority {
        self.prio
    }
}

impl Default for Spawn {
    fn default() -> Self {
        Spawn::new("proc")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering_is_lower_first() {
        assert!(Priority::MANAGER < Priority::NORMAL);
        assert!(Priority::NORMAL < Priority::BACKGROUND);
        assert!(Priority(-1) < Priority(1));
    }

    #[test]
    fn proc_id_display_and_accessors() {
        let id = ProcId(42);
        assert_eq!(id.as_u64(), 42);
        assert_eq!(id.to_string(), "proc#42");
    }

    #[test]
    fn spawn_builder_round_trip() {
        let s = Spawn::new("x").prio(Priority(3)).daemon(true);
        assert_eq!(s.name(), "x");
        assert_eq!(s.priority(), Priority(3));
        assert!(s.daemon);
        let d = Spawn::default();
        assert_eq!(d.name(), "proc");
        assert!(!d.daemon);
        assert_eq!(d.priority(), Priority::NORMAL);
    }
}
