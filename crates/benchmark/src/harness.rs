//! The seam between the measuring code and the system under test.
//!
//! Everything on the measuring side (generators, the round driver, the
//! runner, reporting) talks to the product through these traits only;
//! `sut.rs` is the one file that implements them and so the one file that
//! names a product API. A refactor of the call surface edits that adapter
//! and leaves the measuring code byte-identical.

use std::sync::Arc;

use crate::trace::{Log, Point, Stage};

/// One generated operation, as handed to the adapter.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Sequence number: the echo argument, the write stamp, the unique
    /// remote key — and the id the operation's trace stamps are joined on.
    pub seq: u64,
    pub key: u32,
    pub write: bool,
}

/// The numbers an operation's reply carried, for the harness to verify.
pub type Reply = [i64; 3];

/// Where callers run. In-process workloads hand out green tasks of the
/// two-worker pool; the remote workload hands out OS threads.
pub trait Spawner: Send + Sync {
    fn spawn(&self, name: String, f: Box<dyn FnOnce() + Send>) -> Joiner;
    fn yield_now(&self);
    fn sleep_us(&self, us: u64);
}

/// Waits for a spawned caller; `false` if it panicked.
pub type Joiner = Box<dyn FnOnce() -> bool>;

/// The operation a workload times.
pub trait Target: Send + Sync {
    /// Perform one operation on behalf of `caller` and return what the
    /// reply carried; `None` if the call itself failed.
    fn op(&self, caller: usize, op: Op) -> Option<Reply>;
}

/// What a round asks of the adapter when it sets a workload up.
pub struct SetupCfg {
    pub seed: u64,
    /// Present in traced rounds: the adapter's closures stamp into it.
    pub log: Option<Arc<Log>>,
}

/// Stamp points shared by every workload's stage table.
pub mod point {
    use super::Point;
    pub const CALL: Point = 0;
    pub const ACCEPT: Point = 1;
    pub const BODY_IN: Point = 2;
    pub const BODY_OUT: Point = 3;
    pub const FINISH: Point = 4;
    pub const RET: Point = 5;
    /// Body entered on a pool process (hidden-array reads only).
    pub const POOL_IN: Point = 6;
}

/// A root span and the stages that tile it.
pub struct StageGroup {
    pub root: &'static str,
    pub stages: Vec<Stage>,
}

/// What the untimed end-of-round phases found.
#[derive(Default)]
pub struct Finish {
    /// Operations attempted and failed outside the timed loop (audits, the
    /// fault phase); they count towards `fail_share`, not towards latency.
    pub attempted: u64,
    pub failed: u64,
    /// One line per problem found; any note fails the round.
    pub notes: Vec<String>,
    /// Per-layer values these phases produced.
    pub layer: Vec<(&'static str, f64)>,
    /// Stamps recorded by a child process, on the shared monotonic clock.
    pub events: Vec<(u64, Point, u64)>,
    /// Peak resident set of child processes, KiB.
    pub child_rss_kib: u64,
}

/// A workload, set up and ready to be driven.
pub trait Sut {
    fn spawner(&self) -> Arc<dyn Spawner>;
    fn target(&self) -> Arc<dyn Target>;
    /// CPU consumed so far by child processes (the server), ns.
    fn child_cpu_ns(&mut self) -> u64 {
        0
    }
    /// Per-layer values read from the product's public stats APIs.
    fn counts(&self) -> Vec<(&'static str, f64)>;
    /// `Err` if the objects are not at rest with `calls == finishes`.
    fn quiescent(&mut self) -> Result<(), String>;
    /// How this workload's stamps cut into stages.
    fn stage_groups(&self) -> Vec<StageGroup>;
    /// Audits, once-per-run extras (`extras`: interpreter equivalence, the
    /// transport-fault phase) and teardown.
    fn finish(self: Box<Self>, extras: bool) -> Finish;
}
