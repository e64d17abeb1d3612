//! Wait-budget tuning constants, in one place.
//!
//! Two kinds of process wait for events that usually arrive within a
//! few microseconds: callers waiting for a reply and managers waiting
//! for work. Each waits by yielding within a bounded budget while there
//! is evidence its peer is running, then parks. Nothing spins: on
//! `Runtime::thread_pool` a process is a green task, and one that burns
//! `spin_loop` hints holds the worker its peer may need. The caller's,
//! the idle manager's, the pool slot's and the idle executor worker's
//! spin phases each paid for nothing when measured, and are gone
//! (DESIGN.md §11.10).
//!
//! The figures the budgets are sized against come from the repo
//! benchmark (`BENCHMARK.json`, 2-core box): a managed `execute` round
//! trip with one closed-loop caller (`call_solo`) had a p50 of ~2.4 µs
//! at ~5.3 µs of CPU per call while caller and manager both stay in their
//! yield phases (PR 23's runs), ~3.2 µs / ~7.8 µs when the caller's yield
//! budget is short enough that some calls park, and ~5 µs / ~13 µs once
//! the manager parks per call (the ablation under `MGR_POLL_BUDGET`).
//! Those runs had the caller and its manager on two workers. Since
//! `thread_pool` keeps a woken process on its waker's worker (DESIGN.md
//! §11.12), the two share one worker and yield to each other: ~1.7–2.0
//! µs at ~1.8–2.1 µs of CPU per call.

/// Yields a caller spends waiting for its reply, while the manager is
/// awake, before it announces itself and parks.
///
/// Measured worth (PR 23, ten alternating rounds, 2 cores, medians,
/// budget 4 → 16): `call_solo` `lat_p50_us` 3.21 → 2.40 and
/// `cpu_us_per_op` 7.79 → 5.22, `rw_select` `lat_p50_us` 26.6 → 21.7,
/// each lower with 16 in 10/10 rounds and by far more than the spread
/// between runs; `kv_storm` cannot tell them apart (13.9 → 13.1, lower
/// in 7/10, inside its spread of 2.0). With 4 a lone caller parks on a
/// share of its calls and pays a wake for each; with 16 the reply
/// arrives inside the yield phase.
///
/// A constant, not a function of observed service time: an integer
/// EWMA in µs cannot move on bodies shorter than its own rounding step,
/// so the one that stood here was a constant already, picked by its
/// first outlier (DESIGN.md §11.9).
pub const CALLER_YIELD_BUDGET: u64 = 16;

/// Yield-poll budget of a manager in *poll mode* (entered after any
/// non-empty intake drain): the manager polls the intake ring this many
/// yields before demoting itself back to parking. While bodies it
/// started are running, each of these yields is
/// [`Runtime::yield_briefly`](crate::Runtime::yield_briefly), so on the
/// work-stealing pool the budget counts turns of the hot-end task (and
/// what it queues there), not rotations through every queued caller
/// (DESIGN.md §11.11).
///
/// Measured worth (PR 12 ablation, `call_solo`, 2 cores): with a lone
/// caller's manager parking after each drain instead of polling,
/// `lat_p50_us` reads 4.75–5.35 against 2.43–2.61 with the poll, and
/// `cpu_us_per_op` 12.6–14.0 against 5.4–6.3.
pub const MGR_POLL_BUDGET: u32 = 64;

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
