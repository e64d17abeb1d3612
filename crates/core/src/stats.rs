//! Per-object instrumentation: counters of protocol events (calls,
//! accepts, starts, finishes, timeouts, restarts, …) and two histograms,
//! end-to-end call latency and the intake drain batch. Recording touches
//! only atomics. The manager's side of a call reads no clock: the caller
//! stamps `call_latency`'s start, and it stops once the reply is
//! published. Per-stage times of a call are the wall-clock benchmark's
//! (`crates/benchmark`) own trace stamps; it reads the counters and the
//! drain batch here, and tests and the examples read the rest.

use std::fmt;
use std::sync::Arc;

use alps_runtime::metrics::{Counter, Histogram};

/// Counters and latency histograms for one object. Cheap to clone (all
/// fields are shared).
#[derive(Clone, Debug, Default)]
pub struct ObjectStats {
    inner: Arc<StatsInner>,
}

#[derive(Debug, Default)]
struct StatsInner {
    calls: Counter,
    accepts: Counter,
    starts: Counter,
    finishes: Counter,
    combines: Counter,
    implicit_starts: Counter,
    body_failures: Counter,
    call_latency: Histogram,
    mgr_wakeups: Counter,
    drain_batch: Histogram,
    spin_resolved: Counter,
    park_resolved: Counter,
    timeouts: Counter,
    reaps: Counter,
    poison_rejects: Counter,
    restarts: Counter,
    sheds: Counter,
    retries: Counter,
}

impl ObjectStats {
    /// New zeroed stats.
    pub fn new() -> ObjectStats {
        ObjectStats::default()
    }

    /// Total entry calls received (external + local-through-protocol).
    pub fn calls(&self) -> u64 {
        self.inner.calls.get()
    }
    /// Calls accepted by the manager.
    pub fn accepts(&self) -> u64 {
        self.inner.accepts.get()
    }
    /// Entry executions started by the manager.
    pub fn starts(&self) -> u64 {
        self.inner.starts.get()
    }
    /// Calls finished by the manager.
    pub fn finishes(&self) -> u64 {
        self.inner.finishes.get()
    }
    /// Calls answered by combining (accepted then finished without a
    /// start, paper §2.7).
    pub fn combines(&self) -> u64 {
        self.inner.combines.get()
    }
    /// Executions started implicitly (entries not intercepted).
    pub fn implicit_starts(&self) -> u64 {
        self.inner.implicit_starts.get()
    }
    /// Entry bodies that failed (error return or panic).
    pub fn body_failures(&self) -> u64 {
        self.inner.body_failures.get()
    }
    /// End-to-end ticks from call to reply.
    pub fn call_latency(&self) -> &Histogram {
        &self.inner.call_latency
    }
    /// Times the manager loop woke up to drain intake / re-evaluate guards
    /// (parked or poll-resolved wakeups; the busy-loop iterations between
    /// sleeps are not counted).
    pub fn mgr_wakeups(&self) -> u64 {
        self.inner.mgr_wakeups.get()
    }
    /// Calls drained from the intake ring per manager wakeup; `max()` is
    /// the deepest batch observed.
    pub fn drain_batch(&self) -> &Histogram {
        &self.inner.drain_batch
    }
    /// Reply/manager waits resolved in a bounded yield or poll phase,
    /// before parking (no park paid). Neither side spins.
    pub fn spin_resolved(&self) -> u64 {
        self.inner.spin_resolved.get()
    }
    /// Reply/manager waits that parked: the yield or poll budget ran out
    /// or did not apply.
    pub fn park_resolved(&self) -> u64 {
        self.inner.park_resolved.get()
    }
    /// Calls whose deadline expired before the protocol answered — the
    /// caller claimed its cell back (`CANCELLED`) and returned
    /// [`Timeout`](crate::AlpsError::Timeout).
    pub fn timeouts(&self) -> u64 {
        self.inner.timeouts.get()
    }
    /// Cancelled cells reaped (tombstoned) by a protocol-side holder —
    /// the intake drain, a manager completion whose delivery found the
    /// caller gone, or the shutdown sweep.
    pub fn reaps(&self) -> u64 {
        self.inner.reaps.get()
    }
    /// Calls rejected fast because the object was poisoned by an
    /// entry-body panic.
    pub fn poison_rejects(&self) -> u64 {
        self.inner.poison_rejects.get()
    }
    /// Supervised restarts completed — the object was rebuilt after an
    /// entry-body panic ([`supervise`](crate::ObjectBuilder::supervise))
    /// and serves calls again under a new generation.
    pub fn restarts(&self) -> u64 {
        self.inner.restarts.get()
    }
    /// Calls refused with [`Overloaded`](crate::AlpsError::Overloaded) by
    /// [`AdmissionPolicy::ShedNewest`](crate::AdmissionPolicy::ShedNewest)
    /// because the intake ring was full.
    pub fn sheds(&self) -> u64 {
        self.inner.sheds.get()
    }
    /// Re-attempts made by [`Wait::Retry`](crate::Wait::Retry) calls
    /// (first attempts are not counted).
    pub fn retries(&self) -> u64 {
        self.inner.retries.get()
    }
    /// Always 0. The SPSC fast lane this counted pushes over was deleted
    /// (an ablation showed the manager's polling, not the second queue,
    /// paid for its numbers); the accessor remains only because the frozen
    /// benchmark adapter (`crates/benchmark/src/sut.rs`) reads it for its
    /// `core.lane_push_share` layer metric. Remove both together.
    pub fn lane_pushes(&self) -> u64 {
        0
    }

    pub(crate) fn on_call(&self) {
        self.inner.calls.incr();
    }
    pub(crate) fn on_accept(&self) {
        self.inner.accepts.incr();
    }
    pub(crate) fn on_start(&self) {
        self.inner.starts.incr();
    }
    pub(crate) fn on_finish(&self) {
        self.inner.finishes.incr();
    }
    pub(crate) fn on_combine(&self) {
        self.inner.combines.incr();
    }
    pub(crate) fn on_implicit_start(&self) {
        self.inner.implicit_starts.incr();
    }
    pub(crate) fn on_body_failure(&self) {
        self.inner.body_failures.incr();
    }
    pub(crate) fn on_complete(&self, latency: u64) {
        self.inner.call_latency.record(latency);
    }
    pub(crate) fn on_mgr_wakeup(&self) {
        self.inner.mgr_wakeups.incr();
    }
    pub(crate) fn on_drain(&self, batch: u64) {
        self.inner.drain_batch.record(batch);
    }
    pub(crate) fn on_spin_resolved(&self) {
        self.inner.spin_resolved.incr();
    }
    pub(crate) fn on_park_resolved(&self) {
        self.inner.park_resolved.incr();
    }
    pub(crate) fn on_timeout(&self) {
        self.inner.timeouts.incr();
    }
    pub(crate) fn on_reap(&self) {
        self.inner.reaps.incr();
    }
    pub(crate) fn on_poison_reject(&self) {
        self.inner.poison_rejects.incr();
    }
    pub(crate) fn on_restart(&self) {
        self.inner.restarts.incr();
    }
    pub(crate) fn on_shed(&self) {
        self.inner.sheds.incr();
    }
    pub(crate) fn retry_counter(&self) -> &Counter {
        &self.inner.retries
    }
}

impl fmt::Display for ObjectStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "calls={} accepts={} starts={} finishes={} combines={} implicit={} failures={} \
             p50_latency={} p99_latency={} p999_latency={} wakeups={} mean_batch={:.1} \
             max_batch={} spin_resolved={} park_resolved={} timeouts={} reaps={} \
             poison_rejects={} restarts={} sheds={} retries={}",
            self.calls(),
            self.accepts(),
            self.starts(),
            self.finishes(),
            self.combines(),
            self.implicit_starts(),
            self.body_failures(),
            self.call_latency().percentile(50.0),
            self.call_latency().percentile(99.0),
            self.call_latency().percentile(99.9),
            self.mgr_wakeups(),
            self.drain_batch().mean(),
            self.drain_batch().max(),
            self.spin_resolved(),
            self.park_resolved(),
            self.timeouts(),
            self.reaps(),
            self.poison_rejects(),
            self.restarts(),
            self.sheds(),
            self.retries(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_and_accumulate() {
        let s = ObjectStats::new();
        assert_eq!(s.calls(), 0);
        s.on_call();
        s.on_accept();
        s.on_start();
        s.on_finish();
        s.on_complete(20);
        assert_eq!(s.calls(), 1);
        assert_eq!(s.accepts(), 1);
        assert_eq!(s.starts(), 1);
        assert_eq!(s.finishes(), 1);
        assert_eq!(s.call_latency().count(), 1);
        assert_eq!(s.call_latency().max(), 20);
    }

    #[test]
    fn clones_share_state() {
        let s = ObjectStats::new();
        let s2 = s.clone();
        s2.on_combine();
        assert_eq!(s.combines(), 1);
    }

    #[test]
    fn display_is_nonempty() {
        let s = ObjectStats::new();
        assert!(s.to_string().contains("calls=0"));
        assert!(s.to_string().contains("wakeups=0"));
    }

    #[test]
    fn manager_loop_counters_accumulate() {
        let s = ObjectStats::new();
        s.on_mgr_wakeup();
        s.on_drain(3);
        s.on_drain(7);
        s.on_spin_resolved();
        s.on_park_resolved();
        s.on_park_resolved();
        assert_eq!(s.mgr_wakeups(), 1);
        assert_eq!(s.drain_batch().count(), 2);
        assert_eq!(s.drain_batch().max(), 7);
        assert_eq!(s.spin_resolved(), 1);
        assert_eq!(s.park_resolved(), 2);
    }

    #[test]
    fn cancellation_counters_accumulate() {
        let s = ObjectStats::new();
        s.on_timeout();
        s.on_timeout();
        s.on_reap();
        s.on_poison_reject();
        assert_eq!(s.timeouts(), 2);
        assert_eq!(s.reaps(), 1);
        assert_eq!(s.poison_rejects(), 1);
        let shown = s.to_string();
        assert!(shown.contains("timeouts=2"), "{shown}");
        assert!(shown.contains("poison_rejects=1"), "{shown}");
    }

    #[test]
    fn supervision_counters_accumulate() {
        let s = ObjectStats::new();
        s.on_restart();
        s.on_shed();
        s.on_shed();
        for _ in 0..3 {
            s.retry_counter().incr();
        }
        assert_eq!(s.restarts(), 1);
        assert_eq!(s.sheds(), 2);
        assert_eq!(s.retries(), 3);
        let shown = s.to_string();
        assert!(shown.contains("restarts=1"), "{shown}");
        assert!(shown.contains("sheds=2"), "{shown}");
        assert!(shown.contains("retries=3"), "{shown}");
        assert!(shown.contains("p999_latency=0"), "{shown}");
    }
}
