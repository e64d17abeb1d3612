//! Supervision and retry policy types.
//!
//! The paper makes the manager the single interception point for "all
//! synchronization and scheduling" in an object; this module extends that
//! seat to *recovery* policy (admission policy is
//! [`AdmissionPolicy`](crate::AdmissionPolicy), beside the intake ring):
//!
//! * [`RestartPolicy`] — what happens when an entry body panics in a
//!   supervised object ([`ObjectBuilder::supervise`](crate::ObjectBuilder::supervise)):
//!   restart within a budget, or always restart. A restart fails every
//!   call it catches in flight with
//!   [`AlpsError::ObjectRestarting`](crate::AlpsError::ObjectRestarting).
//! * [`Wait`] — how long a caller waits; every handle's `call_with`
//!   takes one.
//! * [`RetryPolicy`] / [`Backoff`] — caller-side retry of the transient
//!   errors restarts and admission produce; [`RetryPolicy::run`] is the
//!   one retry loop, in-process and remote.

use alps_runtime::metrics::Counter;
use alps_runtime::Runtime;

use crate::error::{AlpsError, Result};

/// What a supervised object does when an entry body panics.
///
/// Supervision implies poisoning semantics during the failure window: the
/// panic marks the object poisoned, the restart (if policy permits)
/// sweeps in-flight calls, re-runs the
/// [`state_init`](crate::ObjectBuilder::state_init) closure, bumps the
/// object generation, and un-poisons. If the policy refuses (budget
/// exhausted), the object stays poisoned — exactly
/// [`poison_on_panic`](crate::ObjectBuilder::poison_on_panic), which is
/// also what to use for an object that should never restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Restart after a panic, but give up (permanent poison) once more
    /// than `max_restarts` restarts have happened within the trailing
    /// `window_ticks` virtual microseconds. A crash-looping constructor
    /// or state-dependent panic thus converges to permanent poison
    /// instead of burning the object's callers forever.
    RestartTransient {
        /// Restarts allowed inside the window before giving up.
        max_restarts: u32,
        /// Width of the trailing budget window in ticks.
        window_ticks: u64,
    },
    /// Restart unconditionally on every body panic.
    AlwaysFresh,
}

/// Delay schedule between the attempts of a [`Wait::Retry`] call.
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

/// Caller-side retry of transient failures ([`Wait::Retry`]), each
/// attempt a deadline-bounded call. Only what
/// [`AlpsError::is_retryable`] names is retried; a *delivered* answer —
/// results, [`BodyFailed`](AlpsError::BodyFailed), … — never is.
///
/// **A `Timeout` retry can run a body twice.** The deadline bounds the
/// caller's wait, not a body that already started: that body runs on,
/// its result tombstoned, and the next attempt starts it again —
/// in-process and through a server-side deadline alike. The wire's dedup
/// cache covers `LinkLost` and duplicate delivery, not this (DESIGN.md
/// §10, "One accepted hole"), so give each attempt more budget than the
/// body takes.
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

    /// The retry loop of every handle's [`Wait::Retry`]: `attempt(ticks)`
    /// gets [`attempt_budget`](Self::attempt_budget) of what is left, a
    /// non-retryable result returns at once, and `retries` counts each
    /// re-attempt. Between attempts it sleeps the backoff, capped at the
    /// budget; when that is zero it calls `on_zero_backoff(err, ticks)`
    /// instead, since a refused call can return without a scheduling
    /// point and a loop that never yields burns every attempt at once.
    ///
    /// # Errors
    ///
    /// The first non-retryable error, else the last retryable one, else
    /// (no attempt fit the budget) a `Timeout` on `what`.
    pub fn run<T>(
        &self,
        rt: &Runtime,
        what: &str,
        retries: &Counter,
        mut attempt: impl FnMut(u64) -> Result<T>,
        mut on_zero_backoff: impl FnMut(&AlpsError, u64),
    ) -> Result<T> {
        let attempts = self.max_attempts.max(1);
        let deadline = rt.now().saturating_add(self.budget_ticks.max(1));
        let mut last = None;
        for k in 0..attempts {
            let remaining = deadline.saturating_sub(rt.now());
            if remaining == 0 {
                break;
            }
            let per = self.attempt_budget(k, remaining);
            let e = match attempt(per) {
                Err(e) if e.is_retryable() => e,
                done => return done,
            };
            if k + 1 < attempts {
                retries.incr();
                let left = deadline.saturating_sub(rt.now());
                match self.backoff.delay(k, rt).min(left) {
                    0 if left > 0 => on_zero_backoff(&e, per),
                    0 => {}
                    sleep => rt.sleep(sleep),
                }
            }
            last = Some(e);
        }
        Err(last.unwrap_or_else(|| AlpsError::Timeout {
            what: what.to_string(),
            ticks: self.budget_ticks,
        }))
    }
}

/// How long a caller waits for its reply: the argument of every
/// handle's `call_with(id, args, wait)`. An enum, not a struct of
/// options, because a [`RetryPolicy`] carries its own budget — nothing
/// combines a deadline with a retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Until the reply comes (the paper's `X.P(...)`, §2.2); what `call`
    /// and `call_id` do.
    Unbounded,
    /// At most this many ticks, then cancel and return
    /// [`AlpsError::Timeout`]. A body that already started runs on and its
    /// result is discarded; a reply racing the expiry is delivered — caller
    /// and completer race on one atomic state transition.
    Deadline(u64),
    /// Retry transient failures ([`RetryPolicy::run`]), each attempt a
    /// `Deadline` call with a slice of the budget.
    Retry(RetryPolicy),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdmissionPolicy;

    #[test]
    fn retry_policy_builder_roundtrips() {
        let p = RetryPolicy::new(3, 900).backoff(Backoff::Fixed(10));
        assert_eq!(p.max_attempts, 3);
        assert_eq!(p.budget_ticks, 900);
        assert_eq!(p.backoff, Backoff::Fixed(10));
    }

    #[test]
    fn defaults_are_conservative() {
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::Block);
    }
}
