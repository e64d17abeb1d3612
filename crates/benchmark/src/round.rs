//! One round of one workload, in this process: set up, warm up, time,
//! verify, read the counters, tear down, report.
//!
//! A round is its own process (`alps-benchmark round …`) so that set-up
//! time, CPU time and peak memory are facts about one workload, not about
//! whatever ran before it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::alloc;
use crate::clock::{cpu_ns, now_ns, peak_rss_kib};
use crate::gen::{self, KeyOp, Rng, Zipf};
use crate::harness::{point, Op, Reply, SetupCfg, Spawner, Target};
use crate::hist::Hist;
use crate::json::Json;
use crate::spec::{self, from_ns, Kind, Loop, Workload};
use crate::sut;
use crate::trace::{self, Log};

pub struct RoundArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub round: u32,
    /// Length of the timed window, seconds.
    pub secs: f64,
    pub traced: bool,
    /// Run the once-per-run extras (interpreter equivalence, fault phase).
    pub extras: bool,
    /// When the runner spawned this process, on the monotonic clock.
    pub spawned_at_ns: u64,
    /// Where a traced round writes its span file.
    pub out_dir: PathBuf,
}

/// Ids of operations that carry no sequence number in their arguments
/// (kv reads) live above this bit, so they never collide with write ids.
const ANON_ID: u64 = 1 << 55;

/// How a workload's replies are verified, resolved once per round.
#[derive(Clone, Copy)]
enum Check {
    Echo,
    Kv,
    ReadersWriters,
    Checksum(i64),
    BumpedOnce,
}

impl Check {
    fn of(w: &Workload, seed: u64) -> Check {
        match w.kind {
            Kind::Echo => Check::Echo,
            Kind::Kv => Check::Kv,
            Kind::ReadersWriters => Check::ReadersWriters,
            Kind::Program => Check::Checksum(gen::buffer_checksum(
                gen::buffer_salt(seed),
                spec::BUFFER_DRIVERS,
                spec::BUFFER_MESSAGES,
            )),
            Kind::Remote => Check::BumpedOnce,
        }
    }

    fn ok(self, op: &Op, r: &Reply, puts_issued: &AtomicU64) -> bool {
        match self {
            Check::Echo => r[0] == op.seq as i64,
            Check::Kv if op.write => true,
            // The value names its own key, and the write that stored it
            // had been issued by the time it was read.
            Check::Kv => {
                let v = r[0] as u64;
                v & 0xfff == u64::from(op.key) && v >> 12 <= puts_issued.load(Ordering::SeqCst)
            }
            Check::ReadersWriters if op.write => r[0] == op.seq as i64,
            // A read that overlapped a write sees words that differ.
            Check::ReadersWriters => r[0] == op.seq as i64 && r[2] == r[1] * spec::RW_WORDS as i64,
            Check::Checksum(expected) => r[0] == expected,
            Check::BumpedOnce => r[0] == 1,
        }
    }
}

/// What every caller of a round shares.
struct Shared {
    target: Arc<dyn Target>,
    spawner: Arc<dyn Spawner>,
    log: Option<Arc<Log>>,
    check: Check,
    ready: AtomicUsize,
    go: AtomicBool,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    /// Sequence numbers handed to kv writes so far.
    puts_issued: AtomicU64,
}

/// One caller's inputs.
struct Plan {
    caller: usize,
    warm_ops: u64,
    /// Key operations to cycle through (kv workloads; empty otherwise).
    key_ops: Vec<KeyOp>,
    /// Whether this caller writes (readers–writers).
    writer: bool,
    /// Due instants from the window's start (open loop; empty otherwise).
    arrivals: Vec<u64>,
}

#[derive(Default)]
struct CallerOut {
    hist: Hist,
    attempted: u64,
    failed: u64,
    late: u64,
    last_done_ns: u64,
}

impl Plan {
    fn op(&self, n: u64, shared: &Shared) -> Op {
        let id = (self.caller as u64) << 40 | n;
        if self.key_ops.is_empty() {
            return Op {
                seq: id,
                key: 0,
                write: self.writer,
            };
        }
        let k = self.key_ops[n as usize % self.key_ops.len()];
        let seq = if k.write {
            shared.puts_issued.fetch_add(1, Ordering::SeqCst) + 1
        } else {
            ANON_ID | id
        };
        Op {
            seq,
            key: k.key,
            write: k.write,
        }
    }
}

/// Issue one operation, verify its reply, stamp its ends in traced rounds.
/// Returns `(issued_ns, done_ns, verified)`.
fn issue(shared: &Shared, caller: usize, op: Op) -> (u64, u64, bool) {
    let t0 = now_ns();
    let reply = shared.target.op(caller, op);
    let t1 = now_ns();
    if let Some(log) = &shared.log {
        if log.sampled(op.seq) {
            log.stamp_at(op.seq, point::CALL, t0);
            log.stamp_at(op.seq, point::RET, t1);
        }
    }
    let ok = reply.is_some_and(|r| shared.check.ok(&op, &r, &shared.puts_issued));
    (t0, t1, ok)
}

fn run_caller(plan: Plan, shared: &Shared) -> CallerOut {
    let mut out = CallerOut::default();
    let mut n = 0u64;
    for _ in 0..plan.warm_ops {
        let (_, _, ok) = issue(shared, plan.caller, plan.op(n, shared));
        n += 1;
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    shared.ready.fetch_add(1, Ordering::SeqCst);
    while !shared.go.load(Ordering::Acquire) {
        shared.spawner.yield_now();
    }
    let start = shared.start_ns.load(Ordering::Relaxed);
    let end = shared.end_ns.load(Ordering::Relaxed);

    if plan.arrivals.is_empty() {
        // Closed loop: the next operation goes out when this one is
        // verified. An operation still in flight when the window closes is
        // left out of both counts.
        loop {
            let (t0, t1, ok) = issue(shared, plan.caller, plan.op(n, shared));
            n += 1;
            if t1 > end {
                return out;
            }
            out.attempted += 1;
            if ok {
                out.hist.record(t1 - t0);
            } else {
                out.failed += 1;
            }
        }
    }
    // Open loop: every arrival is issued, as soon after its due instant as
    // the dispatcher is free, and its latency runs from the due instant —
    // a stall is charged to every operation it delays.
    for &at in &plan.arrivals {
        let due = start + at;
        loop {
            let now = now_ns();
            if now >= due {
                break;
            }
            let gap = due - now;
            if gap > 200_000 {
                shared.spawner.sleep_us((gap - 100_000) / 1_000);
            } else {
                shared.spawner.yield_now();
            }
        }
        let (t0, t1, ok) = issue(shared, plan.caller, plan.op(n, shared));
        n += 1;
        out.attempted += 1;
        out.late += u64::from(t0 - due > spec::LATE_NS);
        if ok {
            out.hist.record(t1 - due);
        } else {
            out.failed += 1;
        }
        out.last_done_ns = t1;
    }
    out
}

fn plans(w: &Workload, seed: u64, window_ns: u64) -> Vec<Plan> {
    let zipf = (w.kind == Kind::Kv).then(|| Zipf::new(spec::KV_KEYS, spec::KV_ZIPF_S));
    (0..w.callers)
        .map(|caller| {
            let mut rng = Rng::stream(seed, caller as u64);
            Plan {
                caller,
                warm_ops: w.warm_ops / w.callers as u64,
                key_ops: zipf.as_ref().map_or_else(Vec::new, |z| {
                    gen::key_ops(&mut rng, z, spec::KV_WRITE_SHARE, spec::KV_OPS_PER_CALLER)
                }),
                writer: w.kind == Kind::ReadersWriters && caller >= spec::RW_READERS,
                arrivals: match w.pacing {
                    Loop::Closed => Vec::new(),
                    Loop::Open { rate } => {
                        gen::poisson_arrivals(&mut rng, rate / w.callers as f64, window_ns)
                    }
                },
            }
        })
        .collect()
}

/// Run the round and return its report.
pub fn run(args: &RoundArgs) -> Result<Json, String> {
    let w = args.workload;
    let log = args.traced.then(|| Arc::new(Log::new(w.trace_every)));
    let round_seed = args
        .seed
        .wrapping_mul(1_000_003)
        .wrapping_add(u64::from(args.round));
    let window_ns = (args.secs * 1e9) as u64;

    let mut sut = sut::setup(
        w.kind,
        &SetupCfg {
            seed: args.seed,
            log: log.clone(),
        },
    )?;
    let shared = Arc::new(Shared {
        target: sut.target(),
        spawner: sut.spawner(),
        log: log.clone(),
        check: Check::of(w, args.seed),
        ready: AtomicUsize::new(0),
        go: AtomicBool::new(false),
        start_ns: AtomicU64::new(0),
        end_ns: AtomicU64::new(0),
        puts_issued: AtomicU64::new(0),
    });

    let results: Vec<Arc<Mutex<Option<CallerOut>>>> =
        (0..w.callers).map(|_| Arc::default()).collect();
    let spawner = Arc::clone(&shared.spawner);
    let joiners: Vec<_> = plans(w, round_seed, window_ns)
        .into_iter()
        .zip(&results)
        .map(|(plan, slot)| {
            let (shared, slot) = (Arc::clone(&shared), Arc::clone(slot));
            spawner.spawn(
                format!("caller-{}", plan.caller),
                Box::new(move || {
                    let out = run_caller(plan, &shared);
                    *slot.lock().expect("result slot") = Some(out);
                }),
            )
        })
        .collect();

    while shared.ready.load(Ordering::SeqCst) < w.callers {
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
    alloc::set_counting(args.traced);
    let allocs0 = alloc::count();
    let cpu0 = cpu_ns() + sut.child_cpu_ns();
    let start = now_ns();
    shared.start_ns.store(start, Ordering::Relaxed);
    shared.end_ns.store(start + window_ns, Ordering::Relaxed);
    shared.go.store(true, Ordering::Release);

    let mut notes = Vec::new();
    for (i, join) in joiners.into_iter().enumerate() {
        if !join() {
            notes.push(format!("caller {i} panicked"));
        }
    }
    let cpu1 = cpu_ns() + sut.child_cpu_ns();
    let allocs = alloc::count() - allocs0;
    alloc::set_counting(false);

    let mut total = CallerOut::default();
    for slot in &results {
        if let Some(out) = slot.lock().expect("result slot").take() {
            total.hist.merge(&out.hist);
            total.attempted += out.attempted;
            total.failed += out.failed;
            total.late += out.late;
            total.last_done_ns = total.last_done_ns.max(out.last_done_ns);
        }
    }
    let completed = total.hist.count();
    if completed == 0 {
        return Err(format!("{}: no operation completed in the window", w.name));
    }
    // A closed loop is cut off at the window's end; an open loop that fell
    // behind runs past it, and the overrun counts against its rate.
    let elapsed_ns = window_ns.max(total.last_done_ns.saturating_sub(start));

    let mut layer: Vec<(&'static str, f64)> = sut.counts();
    if let Err(e) = sut.quiescent() {
        notes.push(e);
    }
    let groups = sut.stage_groups();
    let fin = sut.finish(args.extras);
    notes.extend(fin.notes);
    layer.extend(fin.layer);
    let attempted = total.attempted + fin.attempted;
    let failed = total.failed + fin.failed;

    let pct = |p: f64| total.hist.percentile(p).unwrap_or(0.0) / 1e3;
    let timed_ops = total.hist.count() as f64;
    let e2e = [
        ("lat_p50_us", pct(50.0)),
        ("cpu_us_per_op", (cpu1 - cpu0) as f64 / 1e3 / timed_ops),
        (
            "setup_s",
            (start - args.spawned_at_ns.min(start)) as f64 / 1e9,
        ),
        (
            "peak_rss_mb",
            (peak_rss_kib() + fin.child_rss_kib) as f64 / 1024.0,
        ),
    ];
    // Throughput and the higher percentiles are diagnostics: they do not
    // repeat from run to run on this box well enough to gate on. A
    // percentile is reported only where at least ten samples lie beyond it.
    layer.push(("ops_per_s", timed_ops / (elapsed_ns as f64 / 1e9)));
    for (name, p) in [
        ("lat_p90_us", 90.0),
        ("core.lat_p99_us", 99.0),
        ("core.lat_p999_us", 99.9),
    ] {
        if total.hist.samples_beyond(p) >= 10 {
            layer.push((name, pct(p)));
        }
    }
    if matches!(w.pacing, Loop::Open { .. }) {
        layer.push(("harness.late_share", total.late as f64 / timed_ops));
    }
    layer.push(("fail_share", failed as f64 / attempted as f64));

    if let Some(log) = &log {
        layer.push(("core.allocs_per_op", allocs as f64 / timed_ops));
        let mut events = log.events();
        events.extend(fin.events);
        let mut spans = Vec::new();
        for (i, g) in groups.iter().enumerate() {
            let b = trace::budget(&events, g.root, &g.stages);
            if b.complete_ops == 0 {
                notes.push(format!("trace: no operation has every `{}` stage", g.root));
                continue;
            }
            let sum: f64 = b.stage_median_ns.iter().map(|(_, ns)| ns).sum();
            for &(metric, ns) in &b.stage_median_ns {
                layer.push((metric, from_ns(metric, ns)));
                if metric == "lang.run_main_ms" {
                    let elems = (spec::BUFFER_DRIVERS * spec::BUFFER_MESSAGES) as f64;
                    layer.push(("lang.elem_ns", ns / elems));
                }
            }
            // The first group is the workload's budget: its stage medians
            // should add up to the median of the span they tile.
            if i == 0 {
                layer.push(("core.stage_sum_ratio", sum / b.root_median_ns));
            }
            spans.extend(b.spans);
        }
        std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
        let path = args.out_dir.join(format!("trace-{}.jsonl", w.name));
        std::fs::write(&path, trace::spans_to_jsonl(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let num_obj =
        |pairs: &[(&'static str, f64)]| Json::obj(pairs.iter().map(|&(k, v)| (k, Json::Num(v))));
    Ok(Json::obj([
        ("workload", Json::str(w.name)),
        ("round", Json::Num(f64::from(args.round))),
        ("traced", Json::Bool(args.traced)),
        ("ops", Json::Num(completed as f64)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "notes",
            Json::Arr(notes.into_iter().map(Json::Str).collect()),
        ),
        ("e2e", num_obj(&e2e)),
        ("layer", num_obj(&layer)),
    ]))
}
