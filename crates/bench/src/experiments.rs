//! The experiment suite E1–E9 of `EXPERIMENTS.md`.
//!
//! The paper has no quantitative evaluation; each experiment here
//! quantifies one of its qualitative claims (the paper section is cited
//! on each function). Every experiment runs on the deterministic
//! simulator, so every table is exactly reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alps_core::{vals, EntryDef, Guard, ObjectBuilder, PoolMode, Selected, Ty};
use alps_paper::bounded_buffer::{AlpsBuffer, ChanBuffer, MonitorBuffer};
use alps_paper::dictionary::{synthetic_store, DictConfig, Dictionary};
use alps_paper::nested::{spawn_cross_calling_pair, NestedMonitors};
use alps_paper::parallel_buffer::{ParBufConfig, ParallelBuffer};
use alps_paper::readers_writers::{
    check_rw_invariants, AlpsRw, MonitorRw, PathRw, RwConfig, RwDatabase, RwEvent, SerializerRw,
};
use alps_paper::spooler::{Spooler, SpoolerConfig};
use alps_runtime::metrics::EventLog;
use alps_runtime::{Priority, Runtime, RuntimeError, SimRuntime, Spawn};

use crate::cells;
use crate::table::Table;

/// One experiment's rendered output.
#[derive(Debug)]
pub struct Report {
    /// Experiment id, e.g. `"E1"`.
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// Paper section the claim comes from.
    pub claim: &'static str,
    /// Rendered lines (tables and notes).
    pub lines: Vec<String>,
}

impl Report {
    /// Print to stdout.
    pub fn print(&self) {
        println!("== {}: {} ==", self.id, self.title);
        println!("   claim: {}", self.claim);
        println!();
        for l in &self.lines {
            println!("{l}");
        }
        println!();
    }
}

fn sim<R: Send + 'static>(f: impl FnOnce(&Runtime) -> R + Send + 'static) -> R {
    SimRuntime::new().run(f).expect("experiment deadlocked")
}

// ---------------------------------------------------------------------
// E1 — bounded buffer (paper §2.4.1)
// ---------------------------------------------------------------------

/// E1: the manager expresses monitor-style mutual exclusion; throughput
/// shape matches the monitor baseline across buffer capacities.
pub fn e1() -> Report {
    const ITEMS: i64 = 500;
    const COPY: u64 = 20;
    let mut t = Table::new(&["capacity", "alps-manager", "monitor", "channel"]);
    for cap in [1usize, 4, 16, 64] {
        let alps = sim(move |rt| {
            let buf = AlpsBuffer::spawn_with_copy_cost(rt, cap, COPY).unwrap();
            let (b2, rt2) = (buf.clone(), rt.clone());
            let t0 = rt.now();
            let p = rt.spawn_with(Spawn::new("producer"), move || {
                for i in 0..ITEMS {
                    b2.deposit(&rt2, i).unwrap();
                }
            });
            for _ in 0..ITEMS {
                buf.remove(rt).unwrap();
            }
            p.join().unwrap();
            rt.now() - t0
        });
        let monitor = sim(move |rt| {
            let buf = MonitorBuffer::new(cap);
            let (b2, rt2) = (buf.clone(), rt.clone());
            let t0 = rt.now();
            let p = rt.spawn_with(Spawn::new("producer"), move || {
                for i in 0..ITEMS {
                    rt2.sleep(COPY);
                    b2.deposit(&rt2, i);
                }
            });
            for _ in 0..ITEMS {
                rt.sleep(COPY);
                buf.remove(rt);
            }
            p.join().unwrap();
            rt.now() - t0
        });
        let chan = sim(move |rt| {
            let buf = ChanBuffer::new(cap);
            let (b2, rt2) = (buf.clone(), rt.clone());
            let t0 = rt.now();
            let p = rt.spawn_with(Spawn::new("producer"), move || {
                for i in 0..ITEMS {
                    rt2.sleep(COPY);
                    b2.deposit(&rt2, i);
                }
            });
            for _ in 0..ITEMS {
                rt.sleep(COPY);
                buf.remove(rt);
            }
            p.join().unwrap();
            rt.now() - t0
        });
        t.row(cells![cap, alps, monitor, chan]);
    }
    let mut lines = vec![format!(
        "virtual ticks to move {ITEMS} items (1 producer, 1 consumer, {COPY}-tick copy per op)"
    )];
    lines.extend(t.render());
    lines.push(String::new());
    lines.push(
        "shape: the manager's execute serializes the WHOLE operation (copy \
         included), costing 2x against baselines that only serialize the \
         buffer access — exactly the §2.4.1 limitation the parallel buffer \
         of §2.8.2 (experiment E5) removes. Capacity only affects slack."
            .to_string(),
    );
    Report {
        id: "E1",
        title: "bounded buffer: manager vs monitor vs channel",
        claim: "§2.4.1 / §1 — the manager subsumes monitor-style exclusion",
        lines,
    }
}

// ---------------------------------------------------------------------
// E2 — readers–writers (paper §2.5.1)
// ---------------------------------------------------------------------

fn run_rw(
    which: &str,
    readers: usize,
    writers: usize,
    ops: usize,
    read_max: usize,
) -> (u64, usize) {
    let which = which.to_string();
    let log: Arc<EventLog<RwEvent>> = Arc::new(EventLog::new());
    let log2 = Arc::clone(&log);
    let elapsed = sim(move |rt| {
        let cfg = RwConfig {
            read_max,
            read_cost: 50,
            write_cost: 100,
        };
        let db: Arc<dyn RwDatabase> = match which.as_str() {
            "alps" => Arc::new(AlpsRw::spawn(rt, cfg, Some(Arc::clone(&log2))).unwrap()),
            "monitor" => Arc::new(MonitorRw::new(cfg, Some(Arc::clone(&log2)))),
            "serializer" => Arc::new(SerializerRw::new(cfg, Some(Arc::clone(&log2)))),
            "path" => Arc::new(PathRw::new(cfg, Some(Arc::clone(&log2)))),
            other => panic!("unknown {other}"),
        };
        let t0 = rt.now();
        let mut hs = Vec::new();
        for i in 0..readers {
            let (db2, rt2) = (Arc::clone(&db), rt.clone());
            hs.push(rt.spawn_with(Spawn::new(format!("r{i}")), move || {
                for _ in 0..ops {
                    db2.read(&rt2);
                }
            }));
        }
        for i in 0..writers {
            let (db2, rt2) = (Arc::clone(&db), rt.clone());
            hs.push(rt.spawn_with(Spawn::new(format!("w{i}")), move || {
                for _ in 0..ops {
                    db2.write(&rt2);
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        rt.now() - t0
    });
    let peak = check_rw_invariants(&log.snapshot(), read_max);
    (elapsed, peak)
}

/// E2: the hidden-array readers–writers policy: safety, reader sharing,
/// and throughput vs the monitor/serializer/path baselines, plus a
/// `ReadMax` sweep.
pub fn e2() -> Report {
    let mut lines = vec![
        "virtual makespan, 10 clients x 20 ops (read 50, write 100 ticks), ReadMax=4".to_string(),
    ];
    let mut t = Table::new(&[
        "mix (R/W)",
        "alps",
        "monitor",
        "serializer",
        "path",
        "peak readers (alps)",
    ]);
    for (r, w, label) in [(9usize, 1usize, "9/1"), (5, 5, "5/5"), (1, 9, "1/9")] {
        let (alps, peak) = run_rw("alps", r, w, 20, 4);
        let (mono, _) = run_rw("monitor", r, w, 20, 4);
        let (ser, _) = run_rw("serializer", r, w, 20, 4);
        let (path, _) = run_rw("path", r, w, 20, 4);
        t.row(cells![label, alps, mono, ser, path, peak]);
    }
    lines.extend(t.render());
    lines.push(String::new());
    lines.push("ReadMax sweep (alps), 9 readers / 1 writer:".to_string());
    let mut t2 = Table::new(&["ReadMax", "makespan", "peak readers"]);
    for rm in [1usize, 2, 4, 8] {
        let (e, p) = run_rw("alps", 9, 1, 20, rm);
        t2.row(cells![rm, e, p]);
    }
    lines.extend(t2.render());
    lines.push(String::new());
    lines.push(
        "shape: manager and serializer share readers (read-heavy mixes finish \
         fastest); the path-expression baseline serializes readers — the \
         expressiveness gap §1 claims the manager closes. Safety invariants \
         verified from event logs on every run."
            .to_string(),
    );
    Report {
        id: "E2",
        title: "readers–writers: policy expressiveness and ReadMax",
        claim: "§2.5.1 — hidden arrays let the manager admit ReadMax readers, starvation-free",
        lines,
    }
}

// ---------------------------------------------------------------------
// E3 — combining (paper §2.7/2.7.1)
// ---------------------------------------------------------------------

/// E3: request combining saves redundant executions as the duplicate
/// rate grows.
pub fn e3() -> Report {
    const QUERIES: usize = 64;
    const LOOKUP: u64 = 500;
    let mut t = Table::new(&[
        "dup rate",
        "distinct",
        "executed (off)",
        "executed (on)",
        "ticks (off)",
        "ticks (on)",
    ]);
    for dup_pct in [0usize, 25, 50, 75, 95] {
        // dup_pct% of queries go to one hot word; the rest are distinct.
        let hot = (QUERIES * dup_pct) / 100;
        let distinct = QUERIES - hot + usize::from(hot > 0);
        let run = move |combining: bool| -> (u64, u64) {
            sim(move |rt| {
                let dict = Dictionary::spawn(
                    rt,
                    DictConfig {
                        search_max: 16,
                        lookup_cost: LOOKUP,
                        combining,
                    },
                    synthetic_store(QUERIES + 1),
                )
                .unwrap();
                let t0 = rt.now();
                let mut hs = Vec::new();
                for q in 0..QUERIES {
                    let word = if q < hot {
                        "word-0".to_string()
                    } else {
                        format!("word-{}", q + 1)
                    };
                    let d2 = dict.clone();
                    hs.push(rt.spawn_with(Spawn::new(format!("q{q}")), move || {
                        d2.search(&word).unwrap();
                    }));
                }
                for h in hs {
                    h.join().unwrap();
                }
                (dict.object().stats().starts(), rt.now() - t0)
            })
        };
        let (ex_off, t_off) = run(false);
        let (ex_on, t_on) = run(true);
        t.row(cells![
            format!("{dup_pct}%"),
            distinct,
            ex_off,
            ex_on,
            t_off,
            t_on
        ]);
    }
    let mut lines = vec![format!(
        "{QUERIES} concurrent queries, {LOOKUP}-tick lookups, 16 search slots"
    )];
    lines.extend(t.render());
    lines.push(String::new());
    lines.push(
        "shape: with combining, executed searches track the distinct-word \
         count (plus a few re-executions when a hot word recurs after its \
         first wave completes); without it every query executes. The makespan \
         is slot-bound here (64 queries / 16 slots = 4 waves) — combining \
         saves 8x the work at 95% duplicates, the §2.7 Ultracomputer claim."
            .to_string(),
    );
    Report {
        id: "E3",
        title: "dictionary: request combining vs duplicate rate",
        claim: "§2.7.1 — duplicate in-flight requests are answered by one execution",
        lines,
    }
}

// ---------------------------------------------------------------------
// E4 — printer spooler (paper §2.8.1)
// ---------------------------------------------------------------------

/// E4: hidden parameters/results run the printer pool at full
/// utilisation with zero manager bookkeeping.
pub fn e4() -> Report {
    const JOBS: usize = 32;
    let mut t = Table::new(&[
        "printers",
        "makespan",
        "p50 latency",
        "p99 latency",
        "utilisation",
    ]);
    for printers in [1usize, 2, 4, 8] {
        let (makespan, p50, p99, util) = sim(move |rt| {
            let sp = Spooler::spawn(
                rt,
                SpoolerConfig {
                    printers,
                    print_max: JOBS,
                    ticks_per_byte: 1,
                },
            )
            .unwrap();
            let t0 = rt.now();
            let mut hs = Vec::new();
            for i in 0..JOBS {
                let (sp2, rt2) = (sp.clone(), rt.clone());
                let bytes = 500 + (i as i64 % 4) * 250;
                hs.push(rt.spawn_with(Spawn::new(format!("j{i}")), move || {
                    sp2.print(&rt2, "doc", bytes).unwrap();
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            let makespan = rt.now() - t0;
            let stats = sp.printer_stats();
            let busy: u64 = stats.busy.iter().sum();
            let util = busy as f64 / (makespan as f64 * printers as f64);
            (
                makespan,
                sp.latency().percentile(50.0),
                sp.latency().percentile(99.0),
                util,
            )
        });
        t.row(cells![
            printers,
            makespan,
            p50,
            p99,
            format!("{:.0}%", util * 100.0)
        ]);
    }
    let mut lines = vec![format!("{JOBS} jobs, 500–1250 ticks each")];
    lines.extend(t.render());
    lines.push(String::new());
    lines.push(
        "shape: makespan halves with each printer doubling while utilisation \
         stays near 100% — the free-printer list lives entirely in the manager, \
         with printer numbers flowing as hidden parameters/results."
            .to_string(),
    );
    Report {
        id: "E4",
        title: "printer spooler: pool utilisation via hidden parameters",
        claim: "§2.8.1 — hidden results eliminate manager bookkeeping",
        lines,
    }
}

// ---------------------------------------------------------------------
// E5 — parallel vs serial buffer (paper §2.8.2)
// ---------------------------------------------------------------------

/// E5: the §2.8.2 parallel buffer overlaps message copies; the §2.4.1
/// serial buffer cannot.
pub fn e5() -> Report {
    const P: usize = 4;
    const C: usize = 4;
    const PER: i64 = 8;
    let mut t = Table::new(&[
        "copy cost",
        "serial (§2.4.1)",
        "parallel (§2.8.2)",
        "speedup",
    ]);
    for copy in [0u64, 50, 200, 800] {
        let serial = sim(move |rt| {
            let buf = AlpsBuffer::spawn_with_copy_cost(rt, 8, copy).unwrap();
            let t0 = rt.now();
            let mut hs = Vec::new();
            for p in 0..P {
                let (b, rt2) = (buf.clone(), rt.clone());
                hs.push(rt.spawn_with(Spawn::new(format!("p{p}")), move || {
                    for i in 0..PER {
                        b.deposit(&rt2, p as i64 * 100 + i).unwrap();
                    }
                }));
            }
            for c in 0..C {
                let (b, rt2) = (buf.clone(), rt.clone());
                hs.push(rt.spawn_with(Spawn::new(format!("c{c}")), move || {
                    for _ in 0..(P as i64 * PER / C as i64) {
                        b.remove(&rt2).unwrap();
                    }
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            rt.now() - t0
        });
        let parallel = sim(move |rt| {
            let buf = ParallelBuffer::spawn(
                rt,
                ParBufConfig {
                    slots: 8,
                    producer_max: P,
                    consumer_max: C,
                    copy_cost: copy,
                },
            )
            .unwrap();
            let t0 = rt.now();
            let mut hs = Vec::new();
            for p in 0..P {
                let b = buf.clone();
                hs.push(rt.spawn_with(Spawn::new(format!("p{p}")), move || {
                    for i in 0..PER {
                        b.deposit(p as i64 * 100 + i).unwrap();
                    }
                }));
            }
            for c in 0..C {
                let b = buf.clone();
                hs.push(rt.spawn_with(Spawn::new(format!("c{c}")), move || {
                    for _ in 0..(P as i64 * PER / C as i64) {
                        b.remove().unwrap();
                    }
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            rt.now() - t0
        });
        let speedup = serial as f64 / parallel.max(1) as f64;
        t.row(cells![copy, serial, parallel, format!("{speedup:.2}x")]);
    }
    let mut lines = vec![format!(
        "{P} producers + {C} consumers, {PER} messages each"
    )];
    lines.extend(t.render());
    lines.push(String::new());
    lines.push(
        "shape: as messages lengthen, the hidden-slot design approaches the \
         ideal 8x overlap of 4 deposit + 4 remove copies; the serial manager \
         is flat at (copies x cost)."
            .to_string(),
    );
    Report {
        id: "E5",
        title: "parallel bounded buffer vs serial buffer",
        claim: "§2.8.2 — disjoint hidden slots let long-message copies overlap",
        lines,
    }
}

// ---------------------------------------------------------------------
// E6 — nested calls (paper §2.3)
// ---------------------------------------------------------------------

/// E6: the asynchronous `start` avoids the nested-call deadlock that
/// monitors exhibit; the simulator detects the monitor deadlock.
pub fn e6() -> Report {
    let alps = sim(|rt| {
        let (x, _y) = spawn_cross_calling_pair(rt).unwrap();
        let t0 = rt.now();
        let mut hs = Vec::new();
        for i in 0..8i64 {
            let x2 = x.clone();
            hs.push(rt.spawn_with(Spawn::new(format!("c{i}")), move || {
                x2.call("P", vals![i]).unwrap()[0].as_int().unwrap()
            }));
        }
        let ok = hs
            .into_iter()
            .enumerate()
            .all(|(i, h)| h.join().unwrap() == (i as i64 + 101) * 2);
        (ok, rt.now() - t0)
    });
    let monitor = SimRuntime::new().run(|rt| {
        let nm = NestedMonitors::new();
        nm.nested_monitor_call(rt, 1)
    });
    let mut t = Table::new(&["structure", "outcome"]);
    t.row(cells![
        "ALPS managers (X.P -> Y.Q -> X.R)",
        format!("completed, 8/8 correct, {} ticks", alps.1)
    ]);
    let deadlock = match monitor {
        Err(RuntimeError::Deadlock { parked }) => {
            format!("DEADLOCK detected (parked: {})", parked.join(", "))
        }
        other => format!("unexpected: {other:?}"),
    };
    t.row(cells!["nested monitors (same shape)", deadlock]);
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "shape: X's manager starts P asynchronously and stays receptive to the \
         reentrant R; holding monitor X across the nested call self-deadlocks \
         (\"DP, Ada and SR suffer from the nested calls problem\")."
            .to_string(),
    );
    assert!(alps.0, "ALPS cross calls must complete correctly");
    Report {
        id: "E6",
        title: "nested cross-object calls",
        claim: "§2.3 — asynchronous start avoids the nested-call problem",
        lines,
    }
}

// ---------------------------------------------------------------------
// E7 — pool sizing (paper §3)
// ---------------------------------------------------------------------

/// E7: shared pools of `M ≪ N` processes trade latency for processes
/// (the paper's suggested compiler switch).
pub fn e7() -> Report {
    const N: usize = 16; // slots and concurrent callers
    const SERVICE: u64 = 100;
    let mut t = Table::new(&["pool", "procs created", "makespan", "p99 latency"]);
    let modes: Vec<(String, PoolMode)> = vec![
        ("per-call".into(), PoolMode::PerCall),
        ("per-slot (1:1)".into(), PoolMode::PerSlot),
        ("shared(1)".into(), PoolMode::Shared(1)),
        ("shared(2)".into(), PoolMode::Shared(2)),
        ("shared(4)".into(), PoolMode::Shared(4)),
        ("shared(8)".into(), PoolMode::Shared(8)),
        ("shared(16)".into(), PoolMode::Shared(16)),
    ];
    for (label, mode) in modes {
        let (procs, makespan, p99) = sim(move |rt| {
            let obj = ObjectBuilder::new("Svc")
                .entry(
                    EntryDef::new("Work")
                        .array(N)
                        .intercepted()
                        .body(move |ctx, _| {
                            ctx.sleep(SERVICE);
                            Ok(vec![])
                        }),
                )
                .pool(mode)
                .manager(|mgr| loop {
                    let sel = mgr.select(vec![Guard::accept("Work"), Guard::await_done("Work")])?;
                    match sel {
                        Selected::Accepted { call, .. } => mgr.start_as_is(call)?,
                        Selected::Ready { done, .. } => mgr.finish_as_is(done)?,
                        _ => unreachable!(),
                    }
                })
                .spawn(rt)
                .unwrap();
            let t0 = rt.now();
            let mut hs = Vec::new();
            for i in 0..N {
                let obj2 = obj.clone();
                hs.push(rt.spawn_with(Spawn::new(format!("u{i}")), move || {
                    obj2.call("Work", vals![]).unwrap();
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            let makespan = rt.now() - t0;
            (
                obj.pool_procs_spawned(),
                makespan,
                obj.stats().call_latency().percentile(99.0),
            )
        });
        t.row(cells![label, procs, makespan, p99]);
    }
    let mut lines = vec![format!(
        "{N}-slot entry, {N} simultaneous callers, {SERVICE}-tick service"
    )];
    lines.extend(t.render());
    lines.push(String::new());
    lines.push(
        "shape: makespan ~ ceil(N/M) x service for shared(M); per-call matches \
         1:1 latency but creates a process per request — §3's trade-off between \
         process count and queueing delay."
            .to_string(),
    );
    Report {
        id: "E7",
        title: "process pools: per-call vs 1:1 vs shared(M)",
        claim: "§3 — M ≪ N pooled processes suffice for high-demand resources",
        lines,
    }
}

// ---------------------------------------------------------------------
// E8 — manager priority (paper §1/§3)
// ---------------------------------------------------------------------

/// E8: running the manager at high priority makes it "more receptive to
/// entry calls": competitor process turns before each accept.
pub fn e8() -> Report {
    let mut t = Table::new(&[
        "competitors",
        "high-priority manager",
        "equal-priority manager",
    ]);
    for k in [0usize, 4, 16] {
        let run = move |mgr_prio: Priority| -> f64 {
            sim(move |rt| {
                let turns = Arc::new(AtomicU64::new(0));
                let delays: Arc<parking_lot::Mutex<Vec<u64>>> =
                    Arc::new(parking_lot::Mutex::new(Vec::new()));
                let turns_mgr = Arc::clone(&turns);
                let delays_mgr = Arc::clone(&delays);
                let obj = ObjectBuilder::new("Echo")
                    .entry(
                        EntryDef::new("Echo")
                            .params([Ty::Int])
                            .intercept_params(1)
                            .body(|_ctx, _| Ok(vec![])),
                    )
                    .manager_priority(mgr_prio)
                    .manager(move |mgr| loop {
                        let acc = mgr.accept("Echo")?;
                        // The caller passed the competitor-turn counter at
                        // call time; the difference is how many competitor
                        // turns ran before this accept.
                        let at_call = acc.params()[0].as_int()? as u64;
                        let now = turns_mgr.load(Ordering::SeqCst);
                        delays_mgr.lock().push(now.saturating_sub(at_call));
                        mgr.execute(acc)?;
                    })
                    .spawn(rt)
                    .unwrap();
                // K competitors at NORMAL priority, each taking short
                // virtual-time steps.
                for c in 0..k {
                    let (rt2, turns2) = (rt.clone(), Arc::clone(&turns));
                    rt.spawn_with(Spawn::new(format!("comp{c}")).daemon(true), move || loop {
                        turns2.fetch_add(1, Ordering::SeqCst);
                        rt2.sleep(1);
                    });
                }
                for _ in 0..50 {
                    let snapshot = turns.load(Ordering::SeqCst) as i64;
                    obj.call("Echo", vals![snapshot]).unwrap();
                    rt.sleep(3);
                }
                let d = delays.lock();
                d.iter().sum::<u64>() as f64 / d.len().max(1) as f64
            })
        };
        let high = run(Priority::MANAGER);
        let equal = run(Priority::NORMAL);
        t.row(cells![k, format!("{high:.1}"), format!("{equal:.1}")]);
    }
    let mut lines = vec![
        "mean competitor turns between call arrival and manager accept (50 calls)".to_string(),
    ];
    lines.extend(t.render());
    lines.push(String::new());
    lines.push(
        "shape: at high priority the manager accepts before competitors get \
         the CPU; at equal priority acceptance waits behind the competitor \
         queue — the §1 recommendation quantified."
            .to_string(),
    );
    Report {
        id: "E8",
        title: "manager priority and call receptiveness",
        claim: "§1/§3 — the manager should run at higher priority",
        lines,
    }
}

// ---------------------------------------------------------------------
// E9 — run-time pri guards (paper §2.4)
// ---------------------------------------------------------------------

/// E9: run-time `pri` expressions implement shortest-seek-first disk
/// scheduling; compare against FCFS on total head travel.
pub fn e9() -> Report {
    // A fixed, seeded request set of disk tracks.
    let tracks: Vec<i64> = vec![53, 183, 37, 122, 14, 124, 65, 67, 98, 150, 3, 199];
    let run = |sstf: bool| -> (i64, u64) {
        let tracks = tracks.clone();
        sim(move |rt| {
            let order: Arc<parking_lot::Mutex<Vec<i64>>> =
                Arc::new(parking_lot::Mutex::new(Vec::new()));
            let order2 = Arc::clone(&order);
            let n = tracks.len();
            let obj = ObjectBuilder::new("Disk")
                .entry(
                    EntryDef::new("Seek")
                        .params([Ty::Int, Ty::Int]) // (arrival seq, track)
                        .array(n)
                        .intercept_params(2)
                        .body(|_ctx, _| Ok(vec![])),
                )
                .manager(move |mgr| {
                    let mut head = 100i64; // initial head position
                    let mut served = 0usize;
                    loop {
                        let sel = mgr.select(vec![Guard::accept("Seek")
                            // Let the whole batch attach before serving so
                            // the pri expression orders all 12 requests.
                            .when(move |v| served > 0 || v.pending("Seek") >= n)
                            .pri(move |v| {
                                let seq = v.values()[0].as_int().unwrap();
                                let track = v.values()[1].as_int().unwrap();
                                if sstf {
                                    (track - head).abs()
                                } else {
                                    seq
                                }
                            })])?;
                        match sel {
                            Selected::Accepted { call, .. } => {
                                let track = call.params()[1].as_int()?;
                                let dist = (track - head).unsigned_abs();
                                head = track;
                                order2.lock().push(track);
                                mgr.sleep(dist); // seeking takes time
                                mgr.execute(call)?;
                                served += 1;
                            }
                            _ => unreachable!(),
                        }
                    }
                })
                .spawn(rt)
                .unwrap();
            // Issue all requests, then let the manager drain them.
            let t0 = rt.now();
            let mut hs = Vec::new();
            for (seq, tr) in tracks.iter().enumerate() {
                let obj2 = obj.clone();
                let tr = *tr;
                hs.push(rt.spawn_with(Spawn::new(format!("req{seq}")), move || {
                    obj2.call("Seek", vals![seq as i64, tr]).unwrap();
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            let elapsed = rt.now() - t0;
            let served = order.lock().clone();
            let mut head = 100i64;
            let mut travel = 0i64;
            for t in served {
                travel += (t - head).abs();
                head = t;
            }
            (travel, elapsed)
        })
    };
    let (fcfs_travel, fcfs_time) = run(false);
    let (sstf_travel, sstf_time) = run(true);
    let mut t = Table::new(&["policy", "total head travel", "makespan (ticks)"]);
    t.row(cells!["FCFS (pri = arrival order)", fcfs_travel, fcfs_time]);
    t.row(cells!["SSTF (pri = seek distance)", sstf_travel, sstf_time]);
    let mut lines = vec![format!("12 disk requests, head starts at track 100")];
    lines.extend(t.render());
    lines.push(String::new());
    lines.push(
        "shape: the run-time pri expression turns the same manager into a \
         shortest-seek-first scheduler, cutting head travel (the SR-style \
         facility §2.4 adopts)."
            .to_string(),
    );
    Report {
        id: "E9",
        title: "run-time pri guards: SSTF vs FCFS disk scheduling",
        claim: "§2.4 — priorities \"cannot always be specified as compile-time constants\"",
        lines,
    }
}

/// All experiments in order.
pub fn all() -> Vec<Report> {
    vec![e1(), e2(), e3(), e4(), e5(), e6(), e7(), e8(), e9()]
}

/// Look up one experiment by id (`"e1"`…`"e9"`, case-insensitive).
pub fn by_id(id: &str) -> Option<Report> {
    match id.to_ascii_lowercase().as_str() {
        "e1" => Some(e1()),
        "e2" => Some(e2()),
        "e3" => Some(e3()),
        "e4" => Some(e4()),
        "e5" => Some(e5()),
        "e6" => Some(e6()),
        "e7" => Some(e7()),
        "e8" => Some(e8()),
        "e9" => Some(e9()),
        _ => None,
    }
}
