//! Spin-then-park tuning constants, in one place.
//!
//! Three layers of the system wait for events that usually arrive within
//! a few microseconds: callers waiting for a reply, managers waiting for
//! work, and executor workers waiting for runnable tasks. Each uses the
//! same shape of adaptive wait — a short pure-spin burst, an optional
//! bounded yield phase, then park — but before PR 5 each layer carried a
//! private copy of its budgets. They live here now so a change to the
//! policy is a change to one module, and so the work-stealing executor's
//! idle parker reuses the measured defaults instead of inventing a third
//! set.
//!
//! The figures the budgets are sized against come from the repo
//! benchmark (`BENCHMARK.json`, 2-core box): a managed `execute` round
//! trip with one closed-loop caller (`call_solo`) has a p50 of ~2.45 µs
//! at ~5.6 µs of CPU per call while caller and manager both stay in their
//! yield phases, and ~5 µs / ~13 µs once either side parks per call. The
//! spin budgets keep the uncontended reply inside the yield phase, while
//! a cold wait degrades to a park after at most a few microseconds of
//! CPU.

/// Pure-spin rounds a caller burns before judging whether to yield or
/// park while waiting for its reply ([`SpinWait`](crate::SpinWait)
/// rounds, exponential: round *r* issues `2^r` `spin_loop` hints, capped
/// at 64 per round).
pub const CALLER_SPIN_ROUNDS: u32 = 4;

/// Base of the caller's yield budget (yields granted even when the
/// service-time EWMA is still zero, e.g. on a cold object).
pub const CALLER_YIELD_BASE: u64 = 4;

/// Extra yields granted per tick (µs) of the object's service-time EWMA:
/// a slower object earns a longer yield phase before the caller parks.
pub const CALLER_YIELD_PER_EWMA_TICK: u64 = 2;

/// Hard cap on the caller's yield budget — beyond this a park is cheaper
/// than the burned CPU, whatever the EWMA claims.
pub const CALLER_YIELD_MAX: u64 = 64;

/// The caller's yield budget for an expected service time of
/// `ewma_ticks` µs: `BASE + PER_TICK * ewma`, capped at
/// [`CALLER_YIELD_MAX`].
pub fn caller_yield_budget(ewma_ticks: u64) -> u64 {
    CALLER_YIELD_BASE
        .saturating_add(CALLER_YIELD_PER_EWMA_TICK.saturating_mul(ewma_ticks))
        .min(CALLER_YIELD_MAX)
}

/// Yield-poll budget of a manager in *poll mode* (entered after any
/// non-empty intake drain): the manager polls the intake ring this many
/// yields before demoting itself back to parking.
///
/// Measured worth (PR 12 ablation, `call_solo`, 2 cores): with a lone
/// caller's manager parking after each drain instead of polling,
/// `lat_p50_us` reads 4.75–5.35 against 2.43–2.61 with the poll, and
/// `cpu_us_per_op` 12.6–14.0 against 5.4–6.3.
pub const MGR_POLL_BUDGET: u32 = 64;

/// Pure-spin rounds of an idle (not polling) manager inside
/// [`Notifier::wait_past_spin`](crate::Notifier::wait_past_spin) before
/// it registers as a waiter and parks.
pub const MGR_IDLE_SPIN_ROUNDS: u32 = 6;

/// Pure-spin rounds of a per-slot pool worker between finishing a job
/// and parking — catches a back-to-back restart of the same slot without
/// a park/unpark round trip.
pub const POOL_SLOT_SPIN_ROUNDS: u32 = 4;

/// Pure-spin rounds of an idle work-stealing executor worker checking
/// its deque, the injector, and steal victims before it registers idle
/// and parks on its parker. Matches [`MGR_IDLE_SPIN_ROUNDS`]: both are
/// "nothing locally, maybe a producer is mid-publish" waits.
pub const WORKER_IDLE_SPIN_ROUNDS: u32 = 6;

/// How long an OS thread of the threaded executor stays on the idle list
/// after its process returned, waiting to run the next spawned process,
/// before it exits.
///
/// What recycling buys (2-core box, spawn + join of an empty process;
/// the box has a fast mode, where a wake lands on a running core, and a
/// slow one, where it has to rouse an idle core): a fresh `std::thread`
/// costs 14–16 µs fast and 55–60 µs slow, 17–32 µs each with eight in
/// flight; a recycled thread 3.4 µs fast and 39 µs slow (two wakes of a
/// sleeping thread, there and back), 2.4–2.7 µs each with eight in
/// flight, and 2.5–3.5 µs on the spawner's side when nobody joins. On
/// `remote_call`, where the server runs one process per call, it is most
/// of a halved `lat_p50_us` and `cpu_us_per_op` (CHANGES.md, PR 16, has
/// every run).
///
/// The value only has to outlast the gap between two processes of a busy
/// runtime — microseconds — and bounds how long an idle runtime keeps
/// threads beyond its long-lived processes. 50 ms is far above the first
/// and still well under human notice; it is a constant, not an option.
pub const THREAD_KEEP_ALIVE_MS: u64 = 50;

/// Default preemption budget for
/// [`SchedPolicy::PreemptionBounded`](crate::SchedPolicy) when selected
/// via `SIM_STRATEGY=pct`. The PCT argument: a bug of preemption depth
/// *d* is found with probability ≥ 1/(n·k^(d−1)) per schedule, and the
/// protocol races shipped so far (finish-vs-cancel, restart-vs-drain)
/// all have depth ≤ 3 — a small budget keeps each run
/// close to the default schedule while still crossing those windows.
pub const PCT_DEFAULT_BOUND: u32 = 8;

/// PCT preemption placement gate: at each commit point a preemption
/// fires with probability 1/N (budget permitting). Sized so a typical
/// sweep scenario (a few hundred commit hits) spreads its budget across
/// the whole run instead of exhausting it in the first few hits.
pub const PCT_GATE_ONE_IN: u64 = 16;

/// TargetedRace preemption gate: one-in-N commit points preempt. Kept
/// aggressive (2) — the strategy exists to maximize distinct
/// commit-point orderings per schedule.
pub const TARGETED_GATE_ONE_IN: u64 = 2;

/// Spread of commit-point preemption delays: a preempting strategy
/// sleeps `1 << (r % SPREAD)` virtual ticks, i.e. 1–64 µs. Long enough
/// to push a rival's whole protocol step inside the window, short
/// enough not to trip deadline/timeout scenarios spuriously.
pub const PREEMPT_DELAY_LOG2_SPREAD: u64 = 7;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caller_budget_scales_and_caps() {
        assert_eq!(caller_yield_budget(0), CALLER_YIELD_BASE);
        assert_eq!(
            caller_yield_budget(10),
            CALLER_YIELD_BASE + 10 * CALLER_YIELD_PER_EWMA_TICK
        );
        assert_eq!(caller_yield_budget(u64::MAX), CALLER_YIELD_MAX);
    }
}
