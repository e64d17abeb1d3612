//! Supervision, admission, and retry policy types.
//!
//! The paper makes the manager the single interception point for "all
//! synchronization and scheduling" in an object; this module extends that
//! seat to *recovery and admission* policy:
//!
//! * [`RestartPolicy`] — what happens when an entry body panics in a
//!   supervised object ([`ObjectBuilder::supervise`](crate::ObjectBuilder::supervise)):
//!   stay poisoned forever, restart within a budget, or always restart.
//! * [`OnRestart`] — what happens to in-flight calls caught by a restart:
//!   fail them with [`AlpsError::ObjectRestarting`](crate::AlpsError::ObjectRestarting)
//!   or re-queue the ones that have not been handed to the (now dead)
//!   manager generation.
//! * [`AdmissionPolicy`] — what happens when the bounded intake ring is
//!   full: block with backpressure, or shed the incoming call with
//!   [`AlpsError::Overloaded`](crate::AlpsError::Overloaded).
//! * [`RetryPolicy`] / [`Backoff`] — caller-side retry of the transient
//!   errors the two mechanisms above produce
//!   ([`ObjectHandle::call_retry`](crate::ObjectHandle::call_retry)).

use alps_runtime::Runtime;

/// What a supervised object does when an entry body panics.
///
/// Supervision implies poisoning semantics during the failure window: the
/// panic marks the object poisoned, the restart (if policy permits)
/// sweeps in-flight calls, re-runs the
/// [`state_init`](crate::ObjectBuilder::state_init) closure, bumps the
/// object generation, and un-poisons. If the policy refuses (budget
/// exhausted, or [`Never`](RestartPolicy::Never)), the object stays
/// poisoned — exactly
/// [`poison_on_panic`](crate::ObjectBuilder::poison_on_panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Today's poison behaviour: the first body panic poisons the object
    /// permanently.
    Never,
    /// Restart after a panic, but give up (permanent poison) once more
    /// than `max_restarts` restarts have happened within the trailing
    /// `window_ticks` virtual microseconds. A crash-looping constructor
    /// or state-dependent panic thus converges to `Never` instead of
    /// burning the object's callers forever.
    RestartTransient {
        /// Restarts allowed inside the window before giving up.
        max_restarts: u32,
        /// Width of the trailing budget window in ticks.
        window_ticks: u64,
    },
    /// Restart unconditionally on every body panic.
    AlwaysFresh,
}

/// What a restart does with the calls it catches in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnRestart {
    /// Answer every in-flight call — queued, attached, accepted, started,
    /// ready, awaited, or still in the intake ring — with
    /// [`AlpsError::ObjectRestarting`](crate::AlpsError::ObjectRestarting).
    /// The conservative default: no call spans a state reset.
    #[default]
    FailInFlight,
    /// Keep the calls the dead manager generation never saw: ring
    /// residents, queued, and attached-but-unaccepted calls survive into
    /// the new generation (per-entry FIFO preserved) and are served as if
    /// they had arrived after the restart. Calls the old generation
    /// already held — accepted, started, ready, awaited — are failed with
    /// `ObjectRestarting`: the manager bookkeeping that owned them is
    /// gone, and a started body's pre-restart result must never be
    /// delivered (its slot is tombstoned).
    Requeue,
}

/// What the call protocol does when the bounded intake ring is full.
///
/// Both policies preserve the intake's empty→non-empty notify contract
/// (only a push observing the empty→non-empty transition wakes the
/// manager) and per-entry FIFO (a shed call never entered the queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Backpressure: the caller yields, then parks until the manager
    /// drains room. Today's behaviour, made park-based instead of a pure
    /// yield spin.
    #[default]
    Block,
    /// Refuse the incoming call with
    /// [`AlpsError::Overloaded`](crate::AlpsError::Overloaded). Bounded
    /// latency for admitted calls; newest work is the casualty.
    ShedNewest,
}

/// Delay schedule between [`call_retry`](crate::ObjectHandle::call_retry)
/// attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backoff {
    /// Retry immediately, no delay.
    None,
    /// Sleep exactly this many ticks between attempts.
    Fixed(u64),
    /// Exponential backoff with decorrelating jitter: attempt *k* sleeps
    /// a uniformly random duration in `[d/2, d]` where
    /// `d = min(cap, base << k)`. The jitter is drawn from
    /// [`Runtime::rand_u64`](alps_runtime::Runtime::rand_u64), so on a
    /// seeded simulation the "random" delays replay deterministically.
    ExpJitter {
        /// First-attempt delay in ticks (doubles every retry).
        base: u64,
        /// Upper bound on the un-jittered delay.
        cap: u64,
    },
}

impl Backoff {
    /// The sleep before retry `k + 1`, in ticks. Draws from `rt` only for
    /// a non-zero [`ExpJitter`](Backoff::ExpJitter) step, once.
    pub fn delay(self, k: u32, rt: &Runtime) -> u64 {
        match self {
            Backoff::None => 0,
            Backoff::Fixed(t) => t,
            Backoff::ExpJitter { base, cap } => {
                let d = base.checked_shl(k).unwrap_or(u64::MAX).min(cap);
                // Uniform in [d/2, d].
                let lo = d / 2;
                lo + if d > lo {
                    rt.rand_u64() % (d - lo + 1)
                } else {
                    0
                }
            }
        }
    }
}

/// Caller-side retry of transient failures, layered on
/// [`call_deadline`](crate::ObjectHandle::call_deadline).
///
/// Only [`Overloaded`](crate::AlpsError::Overloaded),
/// [`ObjectRestarting`](crate::AlpsError::ObjectRestarting), and
/// [`Timeout`](crate::AlpsError::Timeout) are retried — errors that mean
/// "the object could not take the call right now". A *delivered*
/// application error ([`BodyFailed`](crate::AlpsError::BodyFailed),
/// [`Cancelled`](crate::AlpsError::Cancelled), …) is never retried: the
/// body may have executed, and retrying would double-apply its effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`0` is treated as `1`).
    pub max_attempts: u32,
    /// Delay schedule between attempts.
    pub backoff: Backoff,
    /// Total budget in virtual microseconds across all attempts and
    /// backoff sleeps. Each attempt's deadline is the remaining budget
    /// split evenly over the remaining attempts, so one slow attempt
    /// cannot starve the rest.
    pub budget_ticks: u64,
}

impl RetryPolicy {
    /// `max_attempts` tries, no backoff, `budget_ticks` total budget.
    pub fn new(max_attempts: u32, budget_ticks: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            backoff: Backoff::None,
            budget_ticks,
        }
    }

    /// Replace the backoff schedule.
    pub fn backoff(mut self, b: Backoff) -> RetryPolicy {
        self.backoff = b;
        self
    }

    /// Attempt `k`'s deadline budget when `remaining` ticks of the total
    /// are left: an even share over the attempts still to come, at least
    /// one tick.
    pub fn attempt_budget(&self, k: u32, remaining: u64) -> u64 {
        (remaining / u64::from(self.max_attempts.max(1) - k)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_builder_roundtrips() {
        let p = RetryPolicy::new(3, 900).backoff(Backoff::Fixed(10));
        assert_eq!(p.max_attempts, 3);
        assert_eq!(p.budget_ticks, 900);
        assert_eq!(p.backoff, Backoff::Fixed(10));
    }

    #[test]
    fn defaults_are_conservative() {
        assert_eq!(OnRestart::default(), OnRestart::FailInFlight);
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::Block);
    }
}
