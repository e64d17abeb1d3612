//! Strategy-driven schedule exploration for the simulation executor.
//!
//! The seeded sweep used to sample interleavings blindly with
//! [`SchedPolicy::PriorityRandom`]. Following "Process algebra with
//! strategic interleaving" (PAPERS.md), this module makes the sim
//! scheduler *strategy pluggable* and perturbs schedules around the
//! protocol's **commit points** — the four places the call protocol
//! actually commits a racy decision (see [`CommitPoint`]).
//!
//! Three layers live here:
//!
//! 1. **Strategies** (`SchedStrategy`, crate-private): the policy
//!    behind every scheduling decision. Each strategy owns its own
//!    seeded streams (separate *pick* and *preempt* streams, salted per
//!    strategy), so replaying a recorded preemption list cannot desync
//!    the pick sequence, and two strategies started from the same seed
//!    diverge.
//! 2. **Traces** ([`TraceSpec`]): a replayable schedule — the policy
//!    (which fixes every pick deterministically) plus the explicit list
//!    of `(commit-hit, ticks)` preemptions taken. Printable as the
//!    `SIM_TRACE=` string and parseable back.
//! 3. **The sweep harness** ([`sweep_explore`], [`for_each_policy`]):
//!    seeds × strategies with coverage counters, automatic delta-
//!    minimization of any failure ([`shrink_preemptions`]) and a
//!    one-line replay recipe.
//!
//! Replay contract (same as `SIM_SEED` always had): a [`TraceSpec`] is a
//! pure function from schedule to behaviour. Picks are regenerated from
//! the policy's seeded pick stream; preemptions are applied verbatim
//! from the recorded list, keyed by the global commit-hit index.

use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;

use crate::executor::{SchedPolicy, SimRuntime};

/// The four places the call protocol commits a racy decision. Annotated
/// in `alps-core` via [`Runtime::sim_point`](crate::Runtime::sim_point)
/// — a no-op on real executors, one branch on the sim executor, where a
/// strategy may inject a bounded virtual delay to perturb the schedule
/// right where interleavings actually matter.
///
/// All annotation sites are **lock-free by construction**: preempting a
/// simulated process that holds a real mutex would let a rival OS-block
/// on that mutex while holding the simulated CPU, which the deadlock
/// detector cannot see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CommitPoint {
    /// A caller is about to publish a call into the intake ring
    /// (`push_intake`).
    IntakePush = 1,
    /// The manager is about to drain the intake ring
    /// (`drain_intake`, before taking the drain lock).
    RingDrain = 2,
    /// The finish-vs-cancel CAS on a call cell: annotated on both sides
    /// — the caller just before attempting a deadline cancel, and the
    /// manager just before publishing a result.
    FinishCas = 3,
    /// A supervised restart is about to sweep in-flight calls
    /// (`handle_body_panic`, before the restart bookkeeping).
    RestartSweep = 4,
}

impl CommitPoint {
    /// Every commit point, in code order.
    pub const ALL: [CommitPoint; 4] = [
        CommitPoint::IntakePush,
        CommitPoint::RingDrain,
        CommitPoint::FinishCas,
        CommitPoint::RestartSweep,
    ];

    /// Stable numeric code, folded into coverage/decision hashes.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Human-readable name (used in docs and diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            CommitPoint::IntakePush => "intake-push",
            CommitPoint::RingDrain => "ring-drain",
            CommitPoint::FinishCas => "finish-cas",
            CommitPoint::RestartSweep => "restart-sweep",
        }
    }
}

/// FNV-1a offset basis (64-bit).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one `u64` into an FNV-1a hash, byte-wise (little-endian).
pub(crate) fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// A tiny deterministic PRNG: splitmix64 over a Weyl sequence. Each
/// strategy owns *separate* instances for picks and preemptions so the
/// two decision kinds never share a stream (replay suppresses preempt
/// draws without desyncing picks).
pub(crate) struct Prng {
    s: u64,
}

impl Prng {
    pub(crate) fn new(seed: u64) -> Prng {
        Prng { s: seed }
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.s = self.s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

// Per-strategy stream salts: strategies started from the same seed must
// diverge, and a strategy's pick stream must stay independent of its
// preempt stream.
const PICK_SALT_RANDOM: u64 = 0x517c_c1b7_2722_0a95;
const PICK_SALT_TARGETED: u64 = 0x6c62_272e_07bb_0142;
const PREEMPT_SALT_PCT: u64 = 0x2f72_3602_1e4f_3a1b;
const PREEMPT_SALT_TARGETED: u64 = 0x9216_d5d9_8979_fb1b;

/// A scheduling strategy: the pluggable policy behind every sim
/// scheduling decision. Implementations must be deterministic — pure
/// functions of their seed and their call sequence.
pub(crate) trait SchedStrategy: Send {
    /// Choose the winner among the `group_len` equal-priority runnable
    /// processes at the front of the ready queue (FIFO order within the
    /// group). Only consulted when `group_len >= 2`.
    fn pick(&mut self, group_len: usize) -> usize;

    /// Consulted once per commit-point hit (`hit` is the global 0-based
    /// hit counter). Return `Some(ticks)` to preempt the running process
    /// with a virtual sleep of `ticks` — under strict priorities a plain
    /// yield would reschedule the same process immediately, so a sleep
    /// is what actually lets rivals run.
    fn preempt(&mut self, cp: CommitPoint, hit: u64) -> Option<u64>;
}

/// FIFO picks, no preemption: the fully deterministic default.
struct Fifo;

impl SchedStrategy for Fifo {
    fn pick(&mut self, _group_len: usize) -> usize {
        0
    }
    fn preempt(&mut self, _cp: CommitPoint, _hit: u64) -> Option<u64> {
        None
    }
}

/// Seeded random picks among equal priorities, no preemption — the
/// original `PriorityRandom` behaviour.
struct RandomPick {
    rng: Prng,
}

impl SchedStrategy for RandomPick {
    fn pick(&mut self, group_len: usize) -> usize {
        (self.rng.next() % group_len as u64) as usize
    }
    fn preempt(&mut self, _cp: CommitPoint, _hit: u64) -> Option<u64> {
        None
    }
}

/// Rotating picks among equal priorities: a cheap liveness baseline that
/// guarantees every member of a persistent front group runs.
struct RoundRobinPick {
    counter: u64,
}

impl SchedStrategy for RoundRobinPick {
    fn pick(&mut self, group_len: usize) -> usize {
        let i = (self.counter % group_len as u64) as usize;
        self.counter = self.counter.wrapping_add(1);
        i
    }
    fn preempt(&mut self, _cp: CommitPoint, _hit: u64) -> Option<u64> {
        None
    }
}

/// PCT-style preemption-bounded search: picks stay FIFO so the at-most-
/// `budget` seeded preemptions are the *only* perturbation of the
/// default schedule — small budgets cover small bug depths with high
/// probability (Burckhardt et al.'s PCT argument).
struct Pct {
    preempt_rng: Prng,
    budget: u32,
}

impl SchedStrategy for Pct {
    fn pick(&mut self, _group_len: usize) -> usize {
        0
    }
    fn preempt(&mut self, _cp: CommitPoint, _hit: u64) -> Option<u64> {
        if self.budget == 0 {
            return None;
        }
        let r = self.preempt_rng.next();
        if r.is_multiple_of(crate::tuning::PCT_GATE_ONE_IN) {
            self.budget -= 1;
            Some(1u64 << ((r >> 8) % crate::tuning::PREEMPT_DELAY_LOG2_SPREAD))
        } else {
            None
        }
    }
}

/// Commit-point-targeted racing: random picks plus an aggressive
/// preemption at roughly every other commit point, with delays spread
/// over `1..=64` ticks so same-kind events reorder across each other's
/// windows. This is the strategy that actually buys distinct
/// commit-point *orderings* rather than mere pick permutations.
struct Targeted {
    pick_rng: Prng,
    preempt_rng: Prng,
}

impl SchedStrategy for Targeted {
    fn pick(&mut self, group_len: usize) -> usize {
        (self.pick_rng.next() % group_len as u64) as usize
    }
    fn preempt(&mut self, _cp: CommitPoint, _hit: u64) -> Option<u64> {
        let r = self.preempt_rng.next();
        if r.is_multiple_of(crate::tuning::TARGETED_GATE_ONE_IN) {
            Some(1u64 << ((r >> 8) % crate::tuning::PREEMPT_DELAY_LOG2_SPREAD))
        } else {
            None
        }
    }
}

/// Replay wrapper: picks delegate to the base strategy (identical stream
/// by construction), preemptions come verbatim from a recorded list
/// keyed by commit-hit index. The base strategy's preempt stream is
/// never advanced — which is exactly why it must be a separate stream.
struct Replay {
    inner: Box<dyn SchedStrategy>,
    preemptions: HashMap<u64, u64>,
}

impl SchedStrategy for Replay {
    fn pick(&mut self, group_len: usize) -> usize {
        self.inner.pick(group_len)
    }
    fn preempt(&mut self, _cp: CommitPoint, hit: u64) -> Option<u64> {
        self.preemptions.get(&hit).copied()
    }
}

/// Build the strategy for a policy; with `replay`, wrap it so the
/// recorded preemption list is applied instead of fresh draws.
pub(crate) fn build_strategy(
    policy: SchedPolicy,
    replay: Option<&[(u64, u64)]>,
) -> Box<dyn SchedStrategy> {
    let base: Box<dyn SchedStrategy> = match policy {
        SchedPolicy::PriorityFifo => Box::new(Fifo),
        SchedPolicy::PriorityRandom(s) => Box::new(RandomPick {
            rng: Prng::new(s ^ PICK_SALT_RANDOM),
        }),
        SchedPolicy::RoundRobin(s) => Box::new(RoundRobinPick { counter: s }),
        SchedPolicy::PreemptionBounded { seed, bound } => Box::new(Pct {
            preempt_rng: Prng::new(seed ^ PREEMPT_SALT_PCT),
            budget: bound,
        }),
        SchedPolicy::TargetedRace(s) => Box::new(Targeted {
            pick_rng: Prng::new(s ^ PICK_SALT_TARGETED),
            preempt_rng: Prng::new(s ^ PREEMPT_SALT_TARGETED),
        }),
    };
    match replay {
        None => base,
        Some(list) => Box::new(Replay {
            inner: base,
            preemptions: list.iter().copied().collect(),
        }),
    }
}

/// A replayable schedule: the policy (fixing every pick) plus the exact
/// preemptions taken, as `(commit-hit index, delay ticks)` pairs.
///
/// Serialized as `SIM_TRACE=<policy>/<hit>@<ticks>,<hit>@<ticks>,…`
/// where `<policy>` is one of `fifo`, `random:<seed>`, `rr:<seed>`,
/// `pct:<seed>:<bound>`, `targeted:<seed>`. An empty preemption list
/// (`random:7/`) is valid: the policy seed alone determines the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Scheduling policy the failing run used (fixes the pick stream).
    pub policy: SchedPolicy,
    /// Preemptions to apply, keyed by global commit-hit index.
    pub preemptions: Vec<(u64, u64)>,
}

impl TraceSpec {
    /// The same policy with a different preemption list.
    fn with(&self, preemptions: Vec<(u64, u64)>) -> TraceSpec {
        TraceSpec {
            policy: self.policy,
            preemptions,
        }
    }

    /// Parse the `SIM_TRACE` string form.
    ///
    /// # Errors
    ///
    /// A description of the malformed component.
    pub fn parse(s: &str) -> Result<TraceSpec, String> {
        let (pol, rest) = match s.split_once('/') {
            Some((p, r)) => (p, r),
            None => (s, ""),
        };
        let policy = parse_policy_token(pol.trim())?;
        let mut preemptions = Vec::new();
        for item in rest.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (h, t) = item
                .split_once('@')
                .ok_or_else(|| format!("bad preemption `{item}` (expected <hit>@<ticks>)"))?;
            let hit: u64 = h
                .parse()
                .map_err(|_| format!("bad hit index in `{item}`"))?;
            let ticks: u64 = t
                .parse()
                .map_err(|_| format!("bad tick count in `{item}`"))?;
            preemptions.push((hit, ticks));
        }
        Ok(TraceSpec {
            policy,
            preemptions,
        })
    }
}

impl std::fmt::Display for TraceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/", policy_token(self.policy))?;
        for (i, (hit, ticks)) in self.preemptions.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{hit}@{ticks}")?;
        }
        Ok(())
    }
}

/// Canonical token for a policy in the `SIM_TRACE` string.
fn policy_token(p: SchedPolicy) -> String {
    match p {
        SchedPolicy::PriorityFifo => "fifo".to_string(),
        SchedPolicy::PriorityRandom(s) => format!("random:{s}"),
        SchedPolicy::RoundRobin(s) => format!("rr:{s}"),
        SchedPolicy::PreemptionBounded { seed, bound } => format!("pct:{seed}:{bound}"),
        SchedPolicy::TargetedRace(s) => format!("targeted:{s}"),
    }
}

fn parse_policy_token(tok: &str) -> Result<SchedPolicy, String> {
    let mut parts = tok.split(':');
    let kind = parts.next().unwrap_or("");
    let mut num = |what: &str| -> Result<u64, String> {
        parts
            .next()
            .ok_or_else(|| format!("policy `{tok}`: missing {what}"))?
            .parse()
            .map_err(|_| format!("policy `{tok}`: bad {what}"))
    };
    let policy = match kind {
        "fifo" => SchedPolicy::PriorityFifo,
        "random" => SchedPolicy::PriorityRandom(num("seed")?),
        "rr" => SchedPolicy::RoundRobin(num("seed")?),
        "pct" => {
            let seed = num("seed")?;
            let bound = num("bound")? as u32;
            SchedPolicy::PreemptionBounded { seed, bound }
        }
        "targeted" => SchedPolicy::TargetedRace(num("seed")?),
        other => return Err(format!("unknown policy `{other}`")),
    };
    if parts.next().is_some() {
        return Err(format!("policy `{tok}`: trailing components"));
    }
    Ok(policy)
}

/// Delta-minimize a failing preemption list: find a (locally) minimal
/// subset of `spec.preemptions` for which `still_fails` still returns
/// `true`. Classic ddmin over complements (try-empty fast path, chunked
/// removal with granularity doubling) plus a final greedy single-removal
/// pass. The returned spec is guaranteed to satisfy `still_fails` —
/// every kept candidate was re-verified by replay.
pub fn shrink_preemptions(
    spec: &TraceSpec,
    still_fails: &mut dyn FnMut(&TraceSpec) -> bool,
) -> TraceSpec {
    if spec.preemptions.is_empty() {
        return spec.clone();
    }
    let empty = spec.with(Vec::new());
    if still_fails(&empty) {
        return empty;
    }
    let mut cur = spec.preemptions.clone();
    let mut n = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut reduced = false;
        let mut lo = 0;
        while lo < cur.len() {
            let hi = (lo + chunk).min(cur.len());
            let mut cand = Vec::with_capacity(cur.len() - (hi - lo));
            cand.extend_from_slice(&cur[..lo]);
            cand.extend_from_slice(&cur[hi..]);
            if !cand.is_empty() && still_fails(&spec.with(cand.clone())) {
                cur = cand;
                n = (n - 1).max(2);
                reduced = true;
                break;
            }
            lo = hi;
        }
        if !reduced {
            if n >= cur.len() {
                break;
            }
            n = (n * 2).min(cur.len());
        }
    }
    let mut i = 0;
    while cur.len() > 1 && i < cur.len() {
        let mut cand = cur.clone();
        cand.remove(i);
        if still_fails(&spec.with(cand.clone())) {
            cur = cand;
        } else {
            i += 1;
        }
    }
    spec.with(cur)
}

/// The strategy matrix CI sweeps: every entry is a valid `SIM_STRATEGY`
/// token (as is `fifo`, kept out of the default matrix because it
/// explores exactly one schedule).
pub const STRATEGY_MATRIX: [&str; 4] = ["random", "rr", "pct", "targeted"];

/// Map a strategy token + seed to a concrete policy.
///
/// # Panics
///
/// On an unknown token (the valid ones are `fifo` plus
/// [`STRATEGY_MATRIX`]).
pub fn policy_for(strategy: &str, seed: u64) -> SchedPolicy {
    match strategy {
        "fifo" => SchedPolicy::PriorityFifo,
        "random" => SchedPolicy::PriorityRandom(seed),
        "rr" => SchedPolicy::RoundRobin(seed),
        "pct" => SchedPolicy::PreemptionBounded {
            seed,
            bound: crate::tuning::PCT_DEFAULT_BOUND,
        },
        "targeted" => SchedPolicy::TargetedRace(seed),
        other => {
            panic!("unknown strategy `{other}` (expected all, fifo, random, rr, pct or targeted)")
        }
    }
}

/// Parse a `SIM_STRATEGY`-style list (`all` or a comma list of tokens)
/// into canonical strategy names, deduplicated, order-preserving.
fn parse_strategies(raw: &str) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    let mut push = |s: &'static str| {
        if !out.contains(&s) {
            out.push(s);
        }
    };
    for tok in raw.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        if tok == "all" {
            STRATEGY_MATRIX.iter().for_each(|s| push(s));
            continue;
        }
        if tok == "fifo" {
            push("fifo");
            continue;
        }
        match STRATEGY_MATRIX.iter().find(|s| **s == tok) {
            Some(s) => push(s),
            None => panic!("unknown SIM_STRATEGY token `{tok}` (expected all, fifo, random, rr, pct or targeted)"),
        }
    }
    if out.is_empty() {
        STRATEGY_MATRIX.to_vec()
    } else {
        out
    }
}

/// Strategies to sweep, from `SIM_STRATEGY` (default: the full
/// [`STRATEGY_MATRIX`]). Accepts `all` or a comma list, e.g.
/// `SIM_STRATEGY=targeted` or `SIM_STRATEGY=random,pct`.
pub fn strategies_from_env() -> Vec<&'static str> {
    parse_strategies(&std::env::var("SIM_STRATEGY").unwrap_or_else(|_| "all".to_string()))
}

/// Seeds a sweep covers when `SIM_SEED` / `SIM_SWEEP_SEEDS` are unset: a
/// smoke test's worth, 4 per strategy of the default matrix.
pub const DEFAULT_SWEEP_SEEDS: u64 = 16;

/// Seeds to sweep: `SIM_SEED=<n>` replays exactly one seed;
/// `SIM_SWEEP_SEEDS=<n>` sweeps `0..n` (`default_seeds` when unset; CI
/// sets 64 per strategy-matrix job).
pub fn seeds_from_env(default_seeds: u64) -> Vec<u64> {
    if let Ok(s) = std::env::var("SIM_SEED") {
        let seed: u64 = s.parse().expect("SIM_SEED must be an integer");
        return vec![seed];
    }
    let n: u64 = std::env::var("SIM_SWEEP_SEEDS")
        .ok()
        .map(|s| s.parse().expect("SIM_SWEEP_SEEDS must be an integer"))
        .unwrap_or(default_seeds);
    (0..n).collect()
}

fn payload_msg(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

/// Run `scenario` once per (seed, strategy) cell — seeds are split
/// round-robin across the strategy list, so `SIM_SWEEP_SEEDS=64` with
/// the default matrix runs 16 schedules per strategy — then report
/// per-strategy coverage (`SIM_COVERAGE` lines on stderr: distinct
/// commit-point orderings observed).
///
/// On a failure the harness replays the recorded schedule, verifies it
/// reproduces, delta-minimizes the preemption list
/// ([`shrink_preemptions`]) and panics with a `SIM_TRACE=` string that
/// replays the minimized schedule exactly. With `SIM_TRACE_OUT=<path>`
/// set, the same line is appended to `<path>` (CI uploads it as an
/// artifact).
///
/// Environment:
///
/// * `SIM_TRACE=<trace>` — skip the sweep, replay one schedule.
/// * `SIM_SEED` / `SIM_SWEEP_SEEDS` — see [`seeds_from_env`].
/// * `SIM_STRATEGY` — see [`strategies_from_env`].
pub fn sweep_explore(name: &str, scenario: impl Fn(SimRuntime)) {
    sweep_explore_seeds(name, DEFAULT_SWEEP_SEEDS, scenario)
}

/// [`sweep_explore`] with the caller's own default seed count (the
/// environment still overrides it).
pub fn sweep_explore_seeds(name: &str, default_seeds: u64, scenario: impl Fn(SimRuntime)) {
    if let Ok(trace) = std::env::var("SIM_TRACE") {
        let spec = TraceSpec::parse(&trace)
            .unwrap_or_else(|e| panic!("SIM_TRACE `{trace}` did not parse: {e}"));
        eprintln!("replaying scenario `{name}` under SIM_TRACE={spec}");
        scenario(SimRuntime::with_trace(&spec));
        return;
    }
    let strategies = strategies_from_env();
    let seeds = seeds_from_env(default_seeds);
    let mut coverage: HashMap<&str, HashSet<u64>> = HashMap::new();
    let mut runs: HashMap<&str, u64> = HashMap::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let strategy = strategies[i % strategies.len()];
        let policy = policy_for(strategy, seed);
        let sim = SimRuntime::with_policy(policy);
        let probe = sim.probe();
        *runs.entry(strategy).or_default() += 1;
        match std::panic::catch_unwind(AssertUnwindSafe(|| scenario(sim))) {
            Ok(()) => {
                coverage
                    .entry(strategy)
                    .or_default()
                    .insert(probe.coverage_hash());
            }
            Err(payload) => {
                shrink_and_panic(name, strategy, seed, policy, &probe, payload, &scenario)
            }
        }
    }
    for s in &strategies {
        eprintln!(
            "SIM_COVERAGE scenario={name} strategy={s} seeds={} distinct_orderings={}",
            runs.get(s).copied().unwrap_or(0),
            coverage.get(s).map(|c| c.len()).unwrap_or(0),
        );
    }
}

/// Failure path of [`sweep_explore`]: minimize and report. Never returns.
fn shrink_and_panic(
    name: &str,
    strategy: &str,
    seed: u64,
    policy: SchedPolicy,
    probe: &crate::executor::SimProbe,
    payload: Box<dyn std::any::Any + Send>,
    scenario: &impl Fn(SimRuntime),
) -> ! {
    let msg = payload_msg(payload);
    let full = TraceSpec {
        policy,
        preemptions: probe.preemptions(),
    };
    // Quiet hook: every ddmin replay that still fails would otherwise
    // dump its panic message + backtrace.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut fails = |spec: &TraceSpec| {
        std::panic::catch_unwind(AssertUnwindSafe(|| scenario(SimRuntime::with_trace(spec))))
            .is_err()
    };
    let reproduced = fails(&full);
    let min = if reproduced {
        shrink_preemptions(&full, &mut fails)
    } else {
        full.clone()
    };
    std::panic::set_hook(prev_hook);
    if !reproduced {
        // Should be impossible (the sim is deterministic); keep the raw
        // seed recipe rather than a trace we could not verify.
        panic!(
            "scenario `{name}` failed under strategy `{strategy}` at seed {seed}, but the \
             recorded trace did not reproduce on replay (non-determinism outside the sim?): {msg}"
        );
    }
    let trace = min.to_string();
    if let Ok(path) = std::env::var("SIM_TRACE_OUT") {
        use std::io::Write as _;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = writeln!(f, "scenario={name} SIM_TRACE={trace}");
        }
    }
    panic!(
        "scenario `{name}` failed under strategy `{strategy}` at seed {seed}: {msg}\n  \
         minimized to {} of {} preemptions — replay with SIM_TRACE='{trace}'",
        min.preemptions.len(),
        full.preemptions.len(),
    );
}

/// Like [`sweep_explore`] but for scenarios that need to build *several*
/// sims per cell (determinism checks, compiled-vs-interpreted
/// agreement): calls `f(strategy, policy, seed)` per (seed, strategy)
/// cell and decorates any panic with the reproducing cell. No trace
/// shrinking — these scenarios define their own notion of failure across
/// runs, not within one schedule.
pub fn for_each_policy(name: &str, f: impl Fn(&'static str, SchedPolicy, u64)) {
    let strategies = strategies_from_env();
    for (i, &seed) in seeds_from_env(DEFAULT_SWEEP_SEEDS).iter().enumerate() {
        let strategy = strategies[i % strategies.len()];
        let policy = policy_for(strategy, seed);
        if let Err(payload) =
            std::panic::catch_unwind(AssertUnwindSafe(|| f(strategy, policy, seed)))
        {
            panic!(
                "scenario `{name}` failed under strategy `{strategy}` at seed {seed} \
                 (replay with SIM_SEED={seed} SIM_STRATEGY={strategy}): {}",
                payload_msg(payload),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_spec_roundtrips_through_display() {
        let specs = [
            TraceSpec {
                policy: SchedPolicy::PriorityFifo,
                preemptions: vec![],
            },
            TraceSpec {
                policy: SchedPolicy::PriorityRandom(7),
                preemptions: vec![(3, 16), (9, 1)],
            },
            TraceSpec {
                policy: SchedPolicy::RoundRobin(12),
                preemptions: vec![(0, 64)],
            },
            TraceSpec {
                policy: SchedPolicy::PreemptionBounded { seed: 5, bound: 8 },
                preemptions: vec![(1, 2), (2, 4), (40, 8)],
            },
            TraceSpec {
                policy: SchedPolicy::TargetedRace(u64::MAX),
                preemptions: vec![],
            },
        ];
        for spec in specs {
            let s = spec.to_string();
            assert_eq!(TraceSpec::parse(&s).unwrap(), spec, "roundtrip of `{s}`");
        }
    }

    #[test]
    fn trace_spec_rejects_malformed_input() {
        for bad in [
            "bogus:1/",
            "random/1@2",
            "pct:3/1@2",
            "random:5/3-4",
            "random:5/x@2",
            "rr:1:2/",
        ] {
            assert!(TraceSpec::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn ddmin_finds_minimal_failing_pair() {
        // Synthetic predicate: the run fails iff the preemption subset
        // still contains BOTH (5, 2) and (11, 8).
        let a = (5u64, 2u64);
        let b = (11u64, 8u64);
        let spec = TraceSpec {
            policy: SchedPolicy::TargetedRace(3),
            preemptions: (0..20).map(|i| (i, 1 + (i % 7))).collect::<Vec<_>>(),
        };
        let mut spec = spec;
        spec.preemptions[5] = a;
        spec.preemptions[11] = b;
        let mut calls = 0;
        let min = shrink_preemptions(&spec, &mut |s| {
            calls += 1;
            s.preemptions.contains(&a) && s.preemptions.contains(&b)
        });
        let mut got = min.preemptions.clone();
        got.sort_unstable();
        assert_eq!(got, vec![a, b], "ddmin must isolate exactly the pair");
        assert!(calls < 200, "ddmin used {calls} replays for 20 preemptions");
    }

    #[test]
    fn ddmin_empty_fast_path_and_singleton() {
        let spec = TraceSpec {
            policy: SchedPolicy::PriorityRandom(1),
            preemptions: vec![(1, 1), (2, 2), (3, 3)],
        };
        // Failure independent of preemptions: minimizes to the empty list.
        let min = shrink_preemptions(&spec, &mut |_| true);
        assert!(min.preemptions.is_empty());
        // Failure pinned to one element.
        let min = shrink_preemptions(&spec, &mut |s| s.preemptions.contains(&(2, 2)));
        assert_eq!(min.preemptions, vec![(2, 2)]);
    }

    #[test]
    fn strategy_lists_parse_and_dedupe() {
        assert_eq!(parse_strategies("all"), STRATEGY_MATRIX.to_vec());
        assert_eq!(parse_strategies(""), STRATEGY_MATRIX.to_vec());
        assert_eq!(parse_strategies("targeted"), vec!["targeted"]);
        assert_eq!(parse_strategies("pct, random ,pct"), vec!["pct", "random"]);
        assert_eq!(
            parse_strategies("fifo,all"),
            vec!["fifo", "random", "rr", "pct", "targeted"]
        );
    }

    #[test]
    #[should_panic(expected = "unknown SIM_STRATEGY token")]
    fn unknown_strategy_token_panics() {
        parse_strategies("quantum");
    }

    #[test]
    fn strategies_diverge_from_the_same_seed() {
        // The pick streams of random and targeted must differ, and pct's
        // preempt stream must actually fire within a realistic number of
        // commit hits.
        let mut random = build_strategy(SchedPolicy::PriorityRandom(42), None);
        let mut targeted = build_strategy(SchedPolicy::TargetedRace(42), None);
        let a: Vec<usize> = (0..32).map(|_| random.pick(8)).collect();
        let b: Vec<usize> = (0..32).map(|_| targeted.pick(8)).collect();
        assert_ne!(a, b, "salted pick streams must diverge");

        let mut pct = build_strategy(SchedPolicy::PreemptionBounded { seed: 42, bound: 8 }, None);
        let fired = (0..512)
            .filter(|&h| pct.preempt(CommitPoint::IntakePush, h).is_some())
            .count();
        assert!(
            (1..=8).contains(&fired),
            "pct must fire within budget, got {fired}"
        );
    }

    #[test]
    fn replay_wrapper_pins_preemptions_without_desyncing_picks() {
        let policy = SchedPolicy::TargetedRace(9);
        let mut live = build_strategy(policy, None);
        let recorded = vec![(2u64, 16u64), (5, 4)];
        let mut replay = build_strategy(policy, Some(&recorded));
        let live_picks: Vec<usize> = (0..16).map(|_| live.pick(4)).collect();
        let replay_picks: Vec<usize> = (0..16).map(|_| replay.pick(4)).collect();
        assert_eq!(live_picks, replay_picks, "picks must be identical");
        for hit in 0..8 {
            let want = recorded.iter().find(|(h, _)| *h == hit).map(|(_, t)| *t);
            assert_eq!(replay.preempt(CommitPoint::RingDrain, hit), want);
        }
    }
}
