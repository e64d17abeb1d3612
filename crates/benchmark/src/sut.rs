//! The adapter: the only file in this crate that names a product API.
//!
//! Each workload is built here from public constructors only
//! (`ObjectBuilder`, `ShardedBuilder`, `RemoteHandle`, `NetServer`,
//! `parse`/`check`/`spawn_compiled`, …) and exposed to the measuring code
//! through the [`harness`](crate::harness) traits. The closures below are
//! the ones a user of the library writes anyway — manager bodies, entry
//! bodies, a `Connector`/`Link` wrapper — and in traced rounds they are
//! also where the stamps are taken: nothing inside the product is
//! instrumented.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

use alps_core::{
    argv, hash_values, vals, Backoff, EntryDef, EntryId, Guard, ManagerCtx, ObjectBuilder,
    ObjectHandle, ObjectStats, RestartPolicy, RetryPolicy, Selected, ShardEntryId, ShardedBuilder,
    ShardedHandle, Ty, Value,
};
use alps_lang::{check, lower, parse, run_checked, run_compiled, spawn_compiled, Checked, Output};
use alps_net::{
    decode_frame, encode_frame, Connector, Frame, Link, NetFaultPlan, NetServer, ReconnectPolicy,
    RemoteEntryId, RemoteHandle, TcpConnector, NO_BUDGET,
};
use alps_paper::bounded_buffer::AlpsBuffer;
use alps_runtime::{Chan, ProcId, Runtime, Spawn};

use crate::clock::{cpu_ns, now_ns, peak_rss_kib};
use crate::gen::buffer_salt;
use crate::harness::{
    point, Finish, Joiner, Op, Reply, SetupCfg, Spawner, StageGroup, Sut, Target,
};
use crate::probe;
use crate::spec::{self, from_ns, Kind, KV_KEYS, KV_SHARDS, POOL_WORKERS, RW_WORDS};
use crate::trace::{Log, Point, Stage};

/// Set a workload up. `Err` carries what went wrong, for the round to
/// report and exit non-zero on.
pub fn setup(kind: Kind, cfg: &SetupCfg) -> Result<Box<dyn Sut>, String> {
    Ok(match kind {
        Kind::Echo => Box::new(Solo::new(cfg)?),
        Kind::Kv => Box::new(Kv::new(cfg)?),
        Kind::ReadersWriters => Box::new(Rw::new(cfg)?),
        Kind::Program => Box::new(Lang::new(cfg)),
        Kind::Remote => Box::new(Remote::new(cfg)?),
    })
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---- where callers run --------------------------------------------------

struct RtSpawner(Runtime);

impl Spawner for RtSpawner {
    fn spawn(&self, name: String, f: Box<dyn FnOnce() + Send>) -> Joiner {
        let h = self.0.spawn_with(Spawn::new(name), f);
        Box::new(move || h.join().is_ok())
    }

    fn yield_now(&self) {
        self.0.yield_now();
    }

    fn sleep_us(&self, us: u64) {
        // One runtime tick is one microsecond (`TICKS_PER_MS` = 1000).
        self.0.sleep(us);
    }
}

fn pool() -> Runtime {
    Runtime::thread_pool(POOL_WORKERS)
}

// ---- stats shared by every workload -------------------------------------

/// Sums of the `ObjectStats` counters the per-layer table reads.
#[derive(Default, Clone, Copy)]
struct CoreCounts {
    calls: u64,
    finishes: u64,
    wakeups: u64,
    drains: u64,
    drained: f64,
    park: u64,
    spin: u64,
    lane: u64,
}

impl CoreCounts {
    fn absorb(&mut self, s: &ObjectStats) {
        self.calls += s.calls();
        self.finishes += s.finishes();
        self.wakeups += s.mgr_wakeups();
        let batches = s.drain_batch();
        self.drains += batches.count();
        self.drained += batches.mean() * batches.count() as f64;
        self.park += s.park_resolved();
        self.spin += s.spin_resolved();
        self.lane += s.lane_pushes();
    }

    fn of(objects: &[ObjectHandle]) -> CoreCounts {
        let mut c = CoreCounts::default();
        for o in objects {
            c.absorb(&o.stats());
        }
        c
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let per = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
        let calls = self.calls as f64;
        vec![
            ("core.mgr_wakeups_per_op", per(self.wakeups as f64, calls)),
            (
                "core.drain_batch_mean",
                per(self.drained, self.drains as f64),
            ),
            (
                "core.park_resolved_share",
                per(self.park as f64, (self.park + self.spin) as f64),
            ),
            ("core.lane_push_share", per(self.lane as f64, calls)),
        ]
    }

    fn to_line(self) -> String {
        format!(
            "{} {} {} {} {} {} {} {}",
            self.calls,
            self.finishes,
            self.wakeups,
            self.drains,
            self.drained,
            self.park,
            self.spin,
            self.lane
        )
    }

    fn from_line(s: &str) -> Option<CoreCounts> {
        let f: Vec<f64> = s
            .split_whitespace()
            .map(|x| x.parse().ok())
            .collect::<Option<_>>()?;
        let [calls, finishes, wakeups, drains, drained, park, spin, lane] = f[..] else {
            return None;
        };
        Some(CoreCounts {
            calls: calls as u64,
            finishes: finishes as u64,
            wakeups: wakeups as u64,
            drains: drains as u64,
            drained,
            park: park as u64,
            spin: spin as u64,
            lane: lane as u64,
        })
    }
}

/// `calls == finishes` once the managers have come to rest. The last
/// caller can be woken a moment before its manager bumps `finishes`, so
/// poll briefly before declaring a leak.
fn at_rest(read: &mut dyn FnMut() -> CoreCounts) -> Result<(), String> {
    let mut c = read();
    for _ in 0..200 {
        if c.calls == c.finishes {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        c = read();
    }
    Err(format!(
        "not quiescent: calls {} != finishes {}",
        c.calls, c.finishes
    ))
}

fn os_threads(rt: &Runtime) -> (&'static str, f64) {
    ("runtime.os_threads", rt.os_threads().unwrap_or(0) as f64)
}

// ---- stamping from manager and body closures ----------------------------

const NO_OP: u64 = u64::MAX;

/// Lets a manager that `execute`s one body at a time learn which operation
/// it just served: the body publishes its id, the manager reads it back
/// after `execute` returns and files the two times it took around it.
#[derive(Clone)]
struct ExecTrace {
    log: Arc<Log>,
    current: Arc<AtomicU64>,
}

impl ExecTrace {
    fn new(log: &Arc<Log>) -> ExecTrace {
        ExecTrace {
            log: Arc::clone(log),
            current: Arc::new(AtomicU64::new(NO_OP)),
        }
    }

    /// Around the manager's `execute`, right after `accept` returned.
    fn around_execute<T>(&self, execute: impl FnOnce() -> T) -> T {
        let accepted = now_ns();
        let r = execute();
        let finished = now_ns();
        let op = self.current.swap(NO_OP, Relaxed);
        if op != NO_OP && self.log.sampled(op) {
            self.log.stamp_at(op, point::ACCEPT, accepted);
            self.log.stamp_at(op, point::FINISH, finished);
        }
        r
    }

    /// Around the work of an entry body serving operation `op`.
    fn in_body<T>(&self, op: u64, work: impl FnOnce() -> T) -> T {
        self.current.store(op, Relaxed);
        self.log.stamp(op, point::BODY_IN);
        let r = work();
        self.log.stamp(op, point::BODY_OUT);
        r
    }
}

fn traced<T>(t: &Option<ExecTrace>, op: impl FnOnce() -> u64, work: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.in_body(op(), work),
        None => work(),
    }
}

fn core_stage(metric: &'static str, from: Point, to: Point) -> Stage {
    Stage { metric, from, to }
}

/// The five stages of a managed call.
fn core_stages() -> StageGroup {
    StageGroup {
        root: "call",
        stages: vec![
            core_stage("core.accept_wait_us", point::CALL, point::ACCEPT),
            core_stage("core.start_us", point::ACCEPT, point::BODY_IN),
            core_stage("core.body_us", point::BODY_IN, point::BODY_OUT),
            core_stage("core.finish_us", point::BODY_OUT, point::FINISH),
            core_stage("core.reply_wake_us", point::FINISH, point::RET),
        ],
    }
}

/// The manager every `accept` → `execute` object here runs: with one entry
/// the paper's plain loop, with several a `select` over `accept` guards
/// (by declaration index, so the select path hashes no names). `entries`
/// lists the object's entries in declaration order.
fn execute_loop(
    entries: &'static [&'static str],
    trace: Option<ExecTrace>,
) -> impl FnMut(&mut ManagerCtx) -> alps_core::Result<()> + Send + 'static {
    move |mgr| loop {
        let call = if let [only] = entries {
            mgr.accept(only)?
        } else {
            match mgr.select((0..entries.len()).map(Guard::accept_idx).collect())? {
                Selected::Accepted { call, .. } => call,
                _ => unreachable!("only accept guards"),
            }
        };
        match &trace {
            Some(t) => t.around_execute(|| mgr.execute(call))?,
            None => mgr.execute(call)?,
        };
    }
}

// ---- call_solo ----------------------------------------------------------

/// One managed object whose body echoes its argument.
fn echo_object(rt: &Runtime, trace: Option<ExecTrace>) -> alps_core::Result<ObjectHandle> {
    let body_trace = trace.clone();
    ObjectBuilder::new("Echo")
        .entry(
            EntryDef::new("Echo")
                .params([Ty::Int])
                .results([Ty::Int])
                .intercepted()
                .body(move |_ctx, args| {
                    traced(&body_trace, || args[0].as_int().unwrap_or(0) as u64, || ());
                    Ok(args)
                }),
        )
        .manager(execute_loop(&["Echo"], trace))
        .spawn(rt)
}

struct Solo {
    rt: Runtime,
    target: Arc<SoloTarget>,
}

impl Solo {
    fn new(cfg: &SetupCfg) -> Result<Solo, String> {
        let rt = pool();
        let obj = echo_object(&rt, cfg.log.as_ref().map(ExecTrace::new)).map_err(err)?;
        let id = obj.entry_id("Echo").map_err(err)?;
        Ok(Solo {
            rt,
            target: Arc::new(SoloTarget { obj, id }),
        })
    }
}

struct SoloTarget {
    obj: ObjectHandle,
    id: EntryId,
}

impl Target for SoloTarget {
    fn op(&self, _caller: usize, op: Op) -> Option<Reply> {
        let r = self.obj.call_id(self.id, argv![op.seq as i64]).ok()?;
        Some([r[0].as_int().ok()?, 0, 0])
    }
}

impl Sut for Solo {
    fn spawner(&self) -> Arc<dyn Spawner> {
        Arc::new(RtSpawner(self.rt.clone()))
    }

    fn target(&self) -> Arc<dyn Target> {
        Arc::clone(&self.target) as Arc<dyn Target>
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let mut m = CoreCounts::of(std::slice::from_ref(&self.target.obj)).metrics();
        m.push(os_threads(&self.rt));
        m
    }

    fn quiescent(&mut self) -> Result<(), String> {
        at_rest(&mut || CoreCounts::of(std::slice::from_ref(&self.target.obj)))
    }

    fn stage_groups(&self) -> Vec<StageGroup> {
        vec![core_stages()]
    }

    fn finish(self: Box<Self>, _extras: bool) -> Finish {
        self.target.obj.shutdown();
        self.rt.shutdown();
        Finish::default()
    }
}

// ---- kv_storm / kv_open -------------------------------------------------

/// Sixty-four dependent probes into the shard's table: the CPU-bound work
/// of one lookup or update, with no sleep and no allocation.
fn probe64(table: &[AtomicU64], key: usize) -> u64 {
    let mask = table.len() - 1;
    let mut h = key as u64 + 1;
    let mut acc = 0u64;
    for _ in 0..64 {
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
        acc ^= table[h as usize & mask].load(Relaxed);
    }
    acc
}

/// A stored value: the sequence number of the `Put` that wrote it above
/// the key's own bits, so a reader can tell whose value it got and that it
/// is not from the future.
fn kv_value(key: u64, seq: u64) -> i64 {
    (seq << 12 | key) as i64
}

fn kv_shard(i: usize, trace: Option<ExecTrace>) -> ObjectBuilder {
    let table: Arc<Vec<AtomicU64>> = Arc::new(
        (0..KV_KEYS as u64)
            .map(|k| AtomicU64::new(kv_value(k, 0) as u64))
            .collect(),
    );
    let (get_table, put_table) = (Arc::clone(&table), table);
    let put_trace = trace.clone();
    ObjectBuilder::new(format!("KV#{i}"))
        .entry(
            EntryDef::new("Get")
                .params([Ty::Int])
                .results([Ty::Int])
                .intercepted()
                .body(move |_ctx, args| {
                    let key = args[0].as_int()? as usize % KV_KEYS;
                    std::hint::black_box(probe64(&get_table, key));
                    Ok(argv![get_table[key].load(Relaxed) as i64])
                }),
        )
        .entry(
            EntryDef::new("Put")
                .params([Ty::Int, Ty::Int])
                .intercepted()
                .body(move |_ctx, args| {
                    let key = args[0].as_int()? as usize % KV_KEYS;
                    let seq = args[1].as_int()? as u64;
                    traced(
                        &put_trace,
                        || seq,
                        || {
                            std::hint::black_box(probe64(&put_table, key));
                            put_table[key].store(kv_value(key as u64, seq) as u64, Relaxed);
                        },
                    );
                    Ok(argv![])
                }),
        )
        .manager(execute_loop(&["Get", "Put"], trace))
}

struct Kv {
    rt: Runtime,
    group: ShardedHandle,
    target: Arc<KvTarget>,
}

struct KvTarget {
    group: ShardedHandle,
    get: ShardEntryId,
    put: ShardEntryId,
    /// Routing hash of `Get(key)`'s argument tuple, per key: a `Put` is
    /// routed with it so that both land on the shard that owns the key.
    route: Vec<u64>,
}

impl Kv {
    fn new(cfg: &SetupCfg) -> Result<Kv, String> {
        let rt = pool();
        let log = cfg.log.clone();
        let group = ShardedBuilder::new("KV", KV_SHARDS)
            .spawn(&rt, |i| kv_shard(i, log.as_ref().map(ExecTrace::new)))
            .map_err(err)?;
        let target = Arc::new(KvTarget {
            get: group.entry_id("Get").map_err(err)?,
            put: group.entry_id("Put").map_err(err)?,
            route: (0..KV_KEYS as i64)
                .map(|k| hash_values(&[Value::Int(k)]))
                .collect(),
            group: group.clone(),
        });
        Ok(Kv { rt, group, target })
    }
}

impl Target for KvTarget {
    fn op(&self, _caller: usize, op: Op) -> Option<Reply> {
        let key = i64::from(op.key);
        if op.write {
            let route = self.route[op.key as usize];
            self.group
                .call_id_key(self.put, route, argv![key, op.seq as i64])
                .ok()?;
            Some([0; 3])
        } else {
            let r = self.group.call_id_combined(self.get, argv![key]).ok()?;
            Some([r[0].as_int().ok()?, 0, 0])
        }
    }
}

impl Sut for Kv {
    fn spawner(&self) -> Arc<dyn Spawner> {
        Arc::new(RtSpawner(self.rt.clone()))
    }

    fn target(&self) -> Arc<dyn Target> {
        Arc::clone(&self.target) as Arc<dyn Target>
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let mut m = CoreCounts::of(self.group.shards()).metrics();
        let g = self.group.stats();
        let reads = (g.combined_leads + g.combined_follows) as f64;
        if reads > 0.0 {
            m.push(("shard.combined_share", g.combined_follows as f64 / reads));
        }
        let per_shard: Vec<f64> = (0..self.group.shard_count())
            .map(|i| self.group.shard_stats(i).calls() as f64)
            .collect();
        let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
        if mean > 0.0 {
            let hottest = per_shard.iter().copied().fold(0.0, f64::max);
            m.push(("shard.imbalance", hottest / mean));
        }
        m.push(os_threads(&self.rt));
        m
    }

    fn quiescent(&mut self) -> Result<(), String> {
        at_rest(&mut || CoreCounts::of(self.group.shards()))
    }

    fn stage_groups(&self) -> Vec<StageGroup> {
        // Only `Put` carries an id in its arguments (a `Get` must be the
        // bare key, or combining would never find two equal tuples), so
        // the stage budget on the kv workloads is the budget of writes.
        vec![core_stages()]
    }

    fn finish(self: Box<Self>, _extras: bool) -> Finish {
        self.group.shutdown();
        self.rt.shutdown();
        Finish::default()
    }
}

// ---- rw_select ----------------------------------------------------------

const RW_READ_MAX: usize = 4;
/// Declaration indices of the database's entries.
const READ: usize = 0;
const WRITE: usize = 1;

/// State the `Read` bodies and the manager share in traced rounds: which
/// operation each hidden-array slot is serving.
struct RwTrace {
    log: Arc<Log>,
    slot_op: [AtomicU64; RW_READ_MAX],
}

struct RwShared {
    table: Vec<AtomicU64>,
    active: AtomicU64,
    /// Sum over reads of the readers inside the database as each entered.
    overlap_sum: AtomicU64,
    reads: AtomicU64,
}

/// The paper's §2.5.1 readers–writers database: `Read` a hidden procedure
/// array started asynchronously, `Write` executed in exclusion, admission
/// by `#P` guards that starve neither class.
fn rw_object(
    rt: &Runtime,
    shared: &Arc<RwShared>,
    log: Option<&Arc<Log>>,
) -> alps_core::Result<ObjectHandle> {
    let rw_trace = log.map(|log| {
        Arc::new(RwTrace {
            log: Arc::clone(log),
            slot_op: std::array::from_fn(|_| AtomicU64::new(NO_OP)),
        })
    });
    let write_trace = log.map(ExecTrace::new);
    let (rd, wr) = (Arc::clone(shared), Arc::clone(shared));
    let (read_trace, write_body_trace) = (rw_trace.clone(), write_trace.clone());
    ObjectBuilder::new("Database")
        .entry(
            EntryDef::new("Read")
                .params([Ty::Int])
                .results([Ty::Int, Ty::Int, Ty::Int])
                .array(RW_READ_MAX)
                .intercepted()
                .body(move |ctx, args| {
                    let op = args[0].as_int()? as u64;
                    if let Some(t) = &read_trace {
                        t.slot_op[ctx.slot()].store(op, Relaxed);
                        t.log.stamp(op, point::BODY_IN);
                        t.log.stamp(op, point::POOL_IN);
                    }
                    let inside = rd.active.fetch_add(1, Relaxed) + 1;
                    rd.overlap_sum.fetch_add(inside, Relaxed);
                    rd.reads.fetch_add(1, Relaxed);
                    let first = rd.table[0].load(Relaxed);
                    let sum: u64 = rd.table.iter().map(|w| w.load(Relaxed)).sum();
                    rd.active.fetch_sub(1, Relaxed);
                    if let Some(t) = &read_trace {
                        t.log.stamp(op, point::BODY_OUT);
                    }
                    Ok(argv![op as i64, first as i64, sum as i64])
                }),
        )
        .entry(
            EntryDef::new("Write")
                .params([Ty::Int])
                .results([Ty::Int])
                .intercepted()
                .body(move |_ctx, args| {
                    traced(
                        &write_body_trace,
                        || args[0].as_int().unwrap_or(0) as u64,
                        || {
                            for w in &wr.table {
                                w.store(w.load(Relaxed) + 1, Relaxed);
                            }
                        },
                    );
                    Ok(args)
                }),
        )
        .manager(move |mgr| {
            let mut read_count = 0usize;
            let mut writer_last = false;
            let mut accepted_at = [0u64; RW_READ_MAX];
            loop {
                let sel = mgr.select(vec![
                    Guard::accept_idx(READ).when(move |v| {
                        read_count < RW_READ_MAX && (v.pending_idx(WRITE) == 0 || writer_last)
                    }),
                    Guard::await_idx(READ),
                    Guard::accept_idx(WRITE).when(move |v| {
                        read_count == 0 && (v.pending_idx(READ) == 0 || !writer_last)
                    }),
                ])?;
                match sel {
                    Selected::Accepted { guard: 0, call } => {
                        accepted_at[call.slot()] = if rw_trace.is_some() { now_ns() } else { 0 };
                        mgr.start_as_is(call)?;
                        read_count += 1;
                        writer_last = false;
                    }
                    Selected::Ready { done, .. } => {
                        let slot = done.slot();
                        mgr.finish_as_is(done)?;
                        read_count -= 1;
                        if let Some(t) = &rw_trace {
                            let finished = now_ns();
                            let op = t.slot_op[slot].swap(NO_OP, Relaxed);
                            if op != NO_OP && t.log.sampled(op) {
                                t.log.stamp_at(op, point::ACCEPT, accepted_at[slot]);
                                t.log.stamp_at(op, point::FINISH, finished);
                            }
                        }
                    }
                    Selected::Accepted { call, .. } => {
                        match &write_trace {
                            Some(t) => t.around_execute(|| mgr.execute(call))?,
                            None => mgr.execute(call)?,
                        };
                        writer_last = true;
                    }
                    _ => unreachable!("accept and await guards only"),
                }
            }
        })
        .spawn(rt)
}

struct Rw {
    rt: Runtime,
    shared: Arc<RwShared>,
    target: Arc<RwTarget>,
}

impl Rw {
    fn new(cfg: &SetupCfg) -> Result<Rw, String> {
        let rt = pool();
        let shared = Arc::new(RwShared {
            table: (0..RW_WORDS).map(|_| AtomicU64::new(0)).collect(),
            active: AtomicU64::new(0),
            overlap_sum: AtomicU64::new(0),
            reads: AtomicU64::new(0),
        });
        let obj = rw_object(&rt, &shared, cfg.log.as_ref()).map_err(err)?;
        let target = Arc::new(RwTarget {
            read: obj.entry_id("Read").map_err(err)?,
            write: obj.entry_id("Write").map_err(err)?,
            obj,
        });
        Ok(Rw { rt, shared, target })
    }
}

struct RwTarget {
    obj: ObjectHandle,
    read: EntryId,
    write: EntryId,
}

impl Target for RwTarget {
    fn op(&self, _caller: usize, op: Op) -> Option<Reply> {
        let tag = op.seq as i64;
        if op.write {
            let r = self.obj.call_id(self.write, argv![tag]).ok()?;
            Some([r[0].as_int().ok()?, 0, 0])
        } else {
            let r = self.obj.call_id(self.read, argv![tag]).ok()?;
            Some([
                r[0].as_int().ok()?,
                r[1].as_int().ok()?,
                r[2].as_int().ok()?,
            ])
        }
    }
}

impl Sut for Rw {
    fn spawner(&self) -> Arc<dyn Spawner> {
        Arc::new(RtSpawner(self.rt.clone()))
    }

    fn target(&self) -> Arc<dyn Target> {
        Arc::clone(&self.target) as Arc<dyn Target>
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let mut m = CoreCounts::of(std::slice::from_ref(&self.target.obj)).metrics();
        let reads = self.shared.reads.load(Relaxed);
        if reads > 0 {
            let overlap = self.shared.overlap_sum.load(Relaxed) as f64 / reads as f64;
            m.push(("core.rw_read_overlap", overlap));
        }
        m.push(os_threads(&self.rt));
        m
    }

    fn quiescent(&mut self) -> Result<(), String> {
        at_rest(&mut || CoreCounts::of(std::slice::from_ref(&self.target.obj)))
    }

    fn stage_groups(&self) -> Vec<StageGroup> {
        vec![
            core_stages(),
            StageGroup {
                root: "read",
                stages: vec![core_stage(
                    "core.pool_start_us",
                    point::ACCEPT,
                    point::POOL_IN,
                )],
            },
        ]
    }

    fn finish(self: Box<Self>, _extras: bool) -> Finish {
        self.target.obj.shutdown();
        self.rt.shutdown();
        Finish::default()
    }
}

// ---- alps_buffer --------------------------------------------------------

const BUFFER_PROGRAM: &str = include_str!("../programs/buffer.alps");
const SALT_LINE: &str = "Salt := 17";

fn buffer_source(seed: u64) -> String {
    assert!(
        BUFFER_PROGRAM.contains(SALT_LINE),
        "buffer.alps lost its salt line"
    );
    BUFFER_PROGRAM.replace(SALT_LINE, &format!("Salt := {}", buffer_salt(seed)))
}

fn checksum_of(output: &str) -> Option<i64> {
    output
        .lines()
        .find_map(|l| l.trim().strip_prefix("checksum="))
        .and_then(|n| n.trim().parse().ok())
}

struct Lang {
    rt: Runtime,
    target: Arc<LangTarget>,
}

struct LangTarget {
    rt: Runtime,
    src: String,
    log: Option<Arc<Log>>,
    /// `ObjectStats` of every run's managed `Buffer`, summed before the
    /// program is shut down.
    counts: Mutex<CoreCounts>,
    last_output: Mutex<String>,
}

impl Lang {
    fn new(cfg: &SetupCfg) -> Lang {
        let rt = pool();
        Lang {
            target: Arc::new(LangTarget {
                rt: rt.clone(),
                src: buffer_source(cfg.seed),
                log: cfg.log.clone(),
                counts: Mutex::default(),
                last_output: Mutex::default(),
            }),
            rt,
        }
    }
}

impl Target for LangTarget {
    /// One whole program run, as `alps-run --compiled` does it.
    fn op(&self, _caller: usize, op: Op) -> Option<Reply> {
        let stamp = |p: Point| {
            if let Some(log) = &self.log {
                log.stamp(op.seq, p);
            }
        };
        stamp(0);
        let program = parse(&self.src).ok()?;
        stamp(1);
        let checked = Arc::new(check(program).ok()?);
        stamp(2);
        let (out, buf) = Output::buffer();
        let compiled = spawn_compiled(&self.rt, &checked, out).ok()?;
        stamp(3);
        let ran = compiled.run_main();
        stamp(4);
        if let Some(buffer) = compiled.handle("Buffer") {
            self.counts
                .lock()
                .expect("counts lock")
                .absorb(&buffer.stats());
        }
        compiled.shutdown();
        stamp(5);
        ran.ok()?;
        let output = buf.lock().clone();
        let sum = checksum_of(&output)?;
        *self.last_output.lock().expect("output lock") = output;
        Some([sum, 0, 0])
    }
}

impl Sut for Lang {
    fn spawner(&self) -> Arc<dyn Spawner> {
        Arc::new(RtSpawner(self.rt.clone()))
    }

    fn target(&self) -> Arc<dyn Target> {
        Arc::clone(&self.target) as Arc<dyn Target>
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let mut m = self.target.counts.lock().expect("counts lock").metrics();
        m.push(os_threads(&self.rt));
        m
    }

    fn quiescent(&mut self) -> Result<(), String> {
        let c = *self.target.counts.lock().expect("counts lock");
        if c.calls == c.finishes {
            Ok(())
        } else {
            Err(format!(
                "Buffer objects: calls {} != finishes {}",
                c.calls, c.finishes
            ))
        }
    }

    fn stage_groups(&self) -> Vec<StageGroup> {
        vec![StageGroup {
            root: "program_run",
            stages: vec![
                core_stage("lang.parse_us", 0, 1),
                core_stage("lang.check_us", 1, 2),
                core_stage("lang.spawn_compiled_us", 2, 3),
                core_stage("lang.run_main_ms", 3, 4),
                core_stage("lang.shutdown_us", 4, 5),
            ],
        }]
    }

    /// Once per run: the interpreter must print what the compiled program
    /// printed.
    fn finish(self: Box<Self>, extras: bool) -> Finish {
        let mut fin = Finish::default();
        if extras {
            fin.attempted = 1;
            let compiled_out = self.target.last_output.lock().expect("output lock").clone();
            let interpreted = (|| {
                let checked = Arc::new(check(parse(&self.target.src).ok()?).ok()?);
                let (out, buf) = Output::buffer();
                let (rt, c) = (self.rt.clone(), Arc::clone(&checked));
                let ran = self.rt.spawn(move || run_checked(&rt, &c, out).is_ok());
                ran.join().ok()?.then(|| buf.lock().clone())
            })();
            if interpreted.as_deref() != Some(compiled_out.as_str()) {
                fin.failed = 1;
                fin.notes.push(format!(
                    "interpreter printed {interpreted:?}, compiled printed {compiled_out:?}"
                ));
            }
        }
        self.rt.shutdown();
        fin
    }
}

// ---- remote_call --------------------------------------------------------

/// The served object: `Bump(k)` increments key `k`'s tally and returns it,
/// `Count(k)` reads it back, `Total()` returns how many keys and how many
/// bumps the table holds. Managed and supervised, as a served object
/// would be.
fn counter_object(rt: &Runtime, log: Option<Arc<Log>>) -> alps_core::Result<ObjectHandle> {
    let tallies: Arc<Mutex<HashMap<i64, i64>>> = Arc::default();
    let (bump, count, total) = (Arc::clone(&tallies), Arc::clone(&tallies), tallies);
    ObjectBuilder::new("Counter")
        .entry(
            EntryDef::new("Bump")
                .params([Ty::Int])
                .results([Ty::Int])
                .intercepted()
                .body(move |_ctx, args| {
                    let k = args[0].as_int()?;
                    if let Some(log) = &log {
                        log.stamp(k as u64, point::BODY_IN);
                    }
                    let n = {
                        let mut m = bump.lock().expect("tally lock");
                        let n = m.entry(k).or_insert(0);
                        *n += 1;
                        *n
                    };
                    if let Some(log) = &log {
                        log.stamp(k as u64, point::BODY_OUT);
                    }
                    Ok(argv![n])
                }),
        )
        .entry(
            EntryDef::new("Count")
                .params([Ty::Int])
                .results([Ty::Int])
                .intercepted()
                .body(move |_ctx, args| {
                    let k = args[0].as_int()?;
                    let n = count.lock().expect("tally lock").get(&k).copied();
                    Ok(argv![n.unwrap_or(0)])
                }),
        )
        .entry(
            EntryDef::new("Total")
                .results([Ty::Int, Ty::Int])
                .intercepted()
                .body(move |_ctx, _args| {
                    let m = total.lock().expect("tally lock");
                    Ok(argv![m.len() as i64, m.values().sum::<i64>()])
                }),
        )
        .manager(execute_loop(&["Bump", "Count", "Total"], None))
        .supervise(RestartPolicy::RestartTransient {
            max_restarts: 8,
            window_ticks: 600_000_000,
        })
        .spawn(rt)
}

/// `alps-benchmark serve`: the server child. Serves `Counter` on an
/// ephemeral loopback port, announces it on stdout, then answers one-word
/// requests on stdin until the parent closes it — so a child whose parent
/// died exits instead of leaking.
pub fn serve(trace_every: Option<u64>) -> Result<(), String> {
    let rt = Runtime::threaded();
    let log = trace_every.map(|every| Arc::new(Log::new(every)));
    let obj = counter_object(&rt, log.clone()).map_err(err)?;
    let server = NetServer::new(&rt);
    server.register(&obj);
    let addr = server.listen_tcp("127.0.0.1:0").map_err(err)?;
    let mut out = io::stdout().lock();
    let mut say = |line: String| -> Result<(), String> {
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .map_err(err)
    };
    say(format!("PORT={}", addr.port()))?;
    for request in io::stdin().lock().lines() {
        match request.map_err(err)?.trim() {
            "cpu" => say(format!("CPU={}", cpu_ns()))?,
            "stats" => {
                let mut c = CoreCounts::default();
                c.absorb(&obj.stats());
                let s = server.stats();
                say(format!(
                    "STATS {} | {} {} {}",
                    c.to_line(),
                    s.executed.get(),
                    s.replayed.get(),
                    peak_rss_kib()
                ))?;
            }
            "trace" => {
                for (op, p, t) in log.as_ref().map(|l| l.events()).unwrap_or_default() {
                    say(format!("E {op} {p} {t}"))?;
                }
                say("END".into())?;
            }
            _ => {}
        }
    }
    server.shutdown();
    obj.shutdown();
    Ok(())
}

/// Counts what crosses the client's link, in traced rounds only.
#[derive(Default)]
struct LinkCounts {
    sends: AtomicU64,
    send_ns: AtomicU64,
    bytes: AtomicU64,
}

struct CountingConnector {
    inner: TcpConnector,
    counts: Arc<LinkCounts>,
}

impl Connector for CountingConnector {
    fn connect(&self) -> io::Result<Arc<dyn Link>> {
        Ok(Arc::new(CountingLink {
            inner: self.inner.connect()?,
            counts: Arc::clone(&self.counts),
        }))
    }

    fn endpoint(&self) -> String {
        self.inner.endpoint()
    }
}

struct CountingLink {
    inner: Arc<dyn Link>,
    counts: Arc<LinkCounts>,
}

impl Link for CountingLink {
    fn send(&self, frame: &[u8]) -> io::Result<()> {
        let t0 = now_ns();
        let r = self.inner.send(frame);
        self.counts.send_ns.fetch_add(now_ns() - t0, Relaxed);
        self.counts.sends.fetch_add(1, Relaxed);
        self.counts.bytes.fetch_add(frame.len() as u64, Relaxed);
        r
    }

    fn recv(&self) -> io::Result<Vec<u8>> {
        let frame = self.inner.recv()?;
        self.counts.bytes.fetch_add(frame.len() as u64, Relaxed);
        Ok(frame)
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

struct ChildStats {
    core: CoreCounts,
    replayed: u64,
    rss_kib: u64,
}

impl ServerChild {
    fn spawn(trace_every: Option<u64>) -> Result<ServerChild, String> {
        let exe = std::env::current_exe().map_err(err)?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve");
        if let Some(every) = trace_every {
            cmd.arg("--trace-every").arg(every.to_string());
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(err)?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().ok_or("server child has no stdout")?);
        let mut sc = ServerChild {
            child,
            stdin,
            stdout,
            addr: String::new(),
        };
        let port = sc.read_line()?;
        let port = port
            .strip_prefix("PORT=")
            .ok_or_else(|| format!("server child said `{port}` instead of its port"))?;
        sc.addr = format!("127.0.0.1:{port}");
        Ok(sc)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server child closed its stdout".into()),
            Ok(_) => Ok(line.trim().to_string()),
            Err(e) => Err(err(e)),
        }
    }

    fn ask(&mut self, request: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().ok_or("server child stdin closed")?;
        writeln!(stdin, "{request}")
            .and_then(|()| stdin.flush())
            .map_err(err)?;
        self.read_line()
    }

    fn cpu_ns(&mut self) -> u64 {
        self.ask("cpu")
            .ok()
            .and_then(|l| l.strip_prefix("CPU=")?.parse().ok())
            .unwrap_or(0)
    }

    fn stats(&mut self) -> Result<ChildStats, String> {
        let line = self.ask("stats")?;
        let parsed = (|| {
            let (core, rest) = line.strip_prefix("STATS ")?.split_once(" | ")?;
            let rest: Vec<u64> = rest
                .split_whitespace()
                .map(|x| x.parse().ok())
                .collect::<Option<_>>()?;
            let [_executed, replayed, rss_kib] = rest[..] else {
                return None;
            };
            Some(ChildStats {
                core: CoreCounts::from_line(core)?,
                replayed,
                rss_kib,
            })
        })();
        parsed.ok_or_else(|| format!("unreadable stats line `{line}`"))
    }

    fn trace_events(&mut self) -> Result<Vec<(u64, Point, u64)>, String> {
        let mut events = Vec::new();
        let mut line = self.ask("trace")?;
        while line != "END" {
            let f: Vec<u64> = line
                .strip_prefix("E ")
                .map(|r| {
                    r.split_whitespace()
                        .filter_map(|x| x.parse().ok())
                        .collect()
                })
                .unwrap_or_default();
            if let [op, p, t] = f[..] {
                events.push((op, p as Point, t));
            }
            line = self.read_line()?;
        }
        Ok(events)
    }

    /// Close the child's stdin, which ends its request loop, and reap it.
    fn stop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.child.kill();
            self.stop();
        }
    }
}

struct Remote {
    rt: Runtime,
    server: ServerChild,
    target: Arc<RemoteTarget>,
    link: Option<Arc<LinkCounts>>,
    seed: u64,
}

struct RemoteTarget {
    handle: RemoteHandle,
    bump: RemoteEntryId,
    issued: AtomicU64,
    /// One key in [`AUDIT_EVERY`] of those issued, for the end-of-round
    /// audit to read back.
    audit_keys: Mutex<Vec<i64>>,
}

const AUDIT_EVERY: u64 = 512;

/// Keys of the timed loop are the callers' sequence numbers (caller index
/// in the bits from 40 up); the fault phase uses keys from here up.
const FAULT_KEY_BASE: i64 = 1 << 48;

impl Remote {
    fn new(cfg: &SetupCfg) -> Result<Remote, String> {
        let rt = Runtime::threaded();
        let server = ServerChild::spawn(cfg.log.as_ref().map(|log| log.every()))?;
        let tcp = TcpConnector::new(server.addr.clone());
        let link = cfg.log.as_ref().map(|_| Arc::<LinkCounts>::default());
        let handle = match &link {
            Some(counts) => RemoteHandle::new(
                &rt,
                "Counter",
                CountingConnector {
                    inner: tcp,
                    counts: Arc::clone(counts),
                },
            ),
            None => RemoteHandle::new(&rt, "Counter", tcp),
        };
        let target = Arc::new(RemoteTarget {
            bump: handle.entry_id("Bump"),
            handle,
            issued: AtomicU64::new(0),
            audit_keys: Mutex::default(),
        });
        Ok(Remote {
            rt,
            server,
            target,
            link,
            seed: cfg.seed,
        })
    }

    fn fresh_handle(&self) -> RemoteHandle {
        RemoteHandle::new(
            &self.rt,
            "Counter",
            TcpConnector::new(self.server.addr.clone()),
        )
    }

    /// Every key bumped exactly once: the table's totals must equal the
    /// number of calls issued, and a sample of keys must each read 1.
    fn audit(&self, fin: &mut Finish) {
        let verify = self.fresh_handle();
        let issued = self.target.issued.load(Relaxed) as i64;
        fin.attempted += 1;
        match verify.call("Total", vals![]) {
            Ok(r) if r.len() == 2 && r[0] == Value::Int(issued) && r[1] == Value::Int(issued) => {}
            other => {
                fin.failed += 1;
                fin.notes.push(format!(
                    "audit: {issued} calls issued, server table says {other:?}"
                ));
            }
        }
        for &key in self.target.audit_keys.lock().expect("audit keys").iter() {
            fin.attempted += 1;
            if verify.call("Count", vals![key]).ok() != Some(vals![1i64]) {
                fin.failed += 1;
                fin.notes
                    .push(format!("audit: key {key} was not bumped exactly once"));
            }
        }
    }

    /// A short run under seeded transport chaos: every retried call must
    /// resolve exactly once or fail cleanly — a reply without an execution
    /// or a second execution is a failed operation.
    fn fault_phase(&mut self, fin: &mut Finish) {
        const PLANS: u64 = 8;
        const CALLS_PER_PLAN: i64 = 6;
        let policy = RetryPolicy::new(8, 400_000).backoff(Backoff::ExpJitter {
            base: 200,
            cap: 5_000,
        });
        let replayed_before = self.server.stats().map(|s| s.replayed).unwrap_or(0);
        let verify = self.fresh_handle();
        let count = verify.entry_id("Count");
        let (mut reconnects, mut retries) = (0u64, 0u64);
        for plan in 0..PLANS {
            let faulty = self
                .fresh_handle()
                .with_fault(NetFaultPlan::chaos(
                    self.seed.wrapping_mul(PLANS) + plan + 1,
                ))
                .with_reconnect(ReconnectPolicy {
                    max_attempts: 8,
                    base_ticks: 200,
                    cap_ticks: 5_000,
                });
            let bump = faulty.entry_id("Bump");
            for i in 0..CALLS_PER_PLAN {
                let key = FAULT_KEY_BASE + plan as i64 * 1_000 + i;
                let outcome = faulty.call_id_retry(&bump, argv![key], policy);
                let tally = verify
                    .call_id_retry(&count, argv![key], policy)
                    .ok()
                    .and_then(|r| r[0].as_int().ok());
                fin.attempted += 1;
                let lost = outcome.is_ok() && tally == Some(0);
                let double = tally.is_some_and(|t| t > 1);
                if lost || double || tally.is_none() {
                    fin.failed += 1;
                    fin.notes.push(format!(
                        "fault phase: key {key} replied {outcome:?}, executed {tally:?} times"
                    ));
                }
            }
            let s = faulty.stats();
            reconnects += s.reconnects.get();
            retries += s.retries.get();
        }
        let calls = (PLANS * CALLS_PER_PLAN as u64) as f64;
        let replayed = self.server.stats().map(|s| s.replayed).unwrap_or(0) - replayed_before;
        fin.layer.extend([
            ("net.replayed_per_call", replayed as f64 / calls),
            ("net.reconnects", reconnects as f64),
            ("net.retries_per_call", retries as f64 / calls),
        ]);
    }
}

impl Target for RemoteTarget {
    fn op(&self, _caller: usize, op: Op) -> Option<Reply> {
        let key = op.seq as i64;
        if self
            .issued
            .fetch_add(1, Relaxed)
            .is_multiple_of(AUDIT_EVERY)
        {
            self.audit_keys.lock().expect("audit keys").push(key);
        }
        let r = self.handle.call_id(&self.bump, argv![key]).ok()?;
        Some([r[0].as_int().ok()?, 0, 0])
    }
}

impl Sut for Remote {
    fn spawner(&self) -> Arc<dyn Spawner> {
        Arc::new(RtSpawner(self.rt.clone()))
    }

    fn target(&self) -> Arc<dyn Target> {
        Arc::clone(&self.target) as Arc<dyn Target>
    }

    fn child_cpu_ns(&mut self) -> u64 {
        self.server.cpu_ns()
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let mut m = Vec::new();
        if let Some(link) = &self.link {
            let calls = self.target.issued.load(Relaxed).max(1) as f64;
            let sends = link.sends.load(Relaxed).max(1) as f64;
            m.push((
                "net.bytes_per_call",
                link.bytes.load(Relaxed) as f64 / calls,
            ));
            m.push((
                "net.link_send_us",
                link.send_ns.load(Relaxed) as f64 / sends / 1e3,
            ));
        }
        m
    }

    fn quiescent(&mut self) -> Result<(), String> {
        // A first read surfaces a broken pipe to the child as what it is.
        self.server.stats()?;
        at_rest(&mut || self.server.stats().map(|s| s.core).unwrap_or_default())
    }

    fn stage_groups(&self) -> Vec<StageGroup> {
        vec![StageGroup {
            root: "remote_call",
            stages: vec![
                core_stage("net.request_path_us", point::CALL, point::BODY_IN),
                core_stage("net.server_body_us", point::BODY_IN, point::BODY_OUT),
                core_stage("net.reply_path_us", point::BODY_OUT, point::RET),
            ],
        }]
    }

    fn finish(mut self: Box<Self>, extras: bool) -> Finish {
        let mut fin = Finish::default();
        // The server's stamps are keyed by call key, which is the
        // client's sequence number.
        match self.server.trace_events() {
            Ok(events) => fin.events.extend(events),
            Err(e) => fin.notes.push(e),
        }
        match self.server.stats() {
            Ok(s) => fin.layer.extend(s.core.metrics()),
            Err(e) => fin.notes.push(e),
        }
        self.audit(&mut fin);
        if extras {
            self.fault_phase(&mut fin);
        }
        fin.child_rss_kib = self.server.stats().map(|s| s.rss_kib).unwrap_or(0);
        self.server.stop();
        self.rt.shutdown();
        fin
    }
}

// ---- isolated layer probes ----------------------------------------------

/// Time one public function (or one fixture built from public functions)
/// per per-layer `P` metric. Values are in the metric's unit.
pub fn run_probes(seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    let mut put = |metric: &'static str, ns: f64| out.push((metric, from_ns(metric, ns)));
    runtime_probes(&mut put);
    core_probes(&mut put)?;
    shard_probes(&mut put)?;
    net_probes(&mut put)?;
    lang_probes(seed, &mut put)?;
    Ok(out)
}

type Put<'a> = &'a mut dyn FnMut(&'static str, f64);

/// Run `f` as a green task of `rt` and return what it returned.
fn on_pool<R: Send + 'static>(rt: &Runtime, f: impl FnOnce() -> R + Send + 'static) -> R {
    rt.spawn(f).join().expect("probe task panicked")
}

fn runtime_probes(put: Put) {
    let rt = pool();

    let r = rt.clone();
    put(
        "runtime.yield_ns",
        on_pool(&rt, move || probe::ns_per_op(&mut || r.yield_now())),
    );

    let r = rt.clone();
    put(
        "runtime.spawn_join_us",
        on_pool(&rt, move || {
            probe::ns_per_op(&mut || {
                let _ = r.spawn(|| ()).join();
            })
        }),
    );

    // Two tasks handing one permit back and forth.
    let pinger: Arc<OnceLock<ProcId>> = Arc::default();
    let stop = Arc::new(AtomicBool::new(false));
    let (r, p, s) = (rt.clone(), Arc::clone(&pinger), Arc::clone(&stop));
    let ponger = rt.spawn(move || {
        let peer = loop {
            match p.get() {
                Some(id) => break *id,
                None => r.yield_now(),
            }
        };
        loop {
            r.park();
            if s.load(Relaxed) {
                return;
            }
            r.unpark(peer);
        }
    });
    let (r, ponger_id) = (rt.clone(), ponger.id());
    put(
        "runtime.park_unpark_us",
        on_pool(&rt, move || {
            pinger.set(r.current()).expect("set once");
            probe::ns_per_op(&mut || {
                r.unpark(ponger_id);
                r.park();
            })
        }),
    );
    stop.store(true, Relaxed);
    rt.unpark(ponger_id);
    let _ = ponger.join();

    let (ping, pong): (Chan<u64>, Chan<u64>) = (Chan::unbounded("ping"), Chan::unbounded("pong"));
    let (r, rx, tx) = (rt.clone(), ping.clone(), pong.clone());
    let echo = rt.spawn(move || {
        while let Ok(v) = rx.recv(&r) {
            if tx.send(&r, v).is_err() {
                return;
            }
        }
    });
    let (r, tx, rx) = (rt.clone(), ping.clone(), pong);
    put(
        "runtime.chan_rtt_us",
        on_pool(&rt, move || {
            probe::ns_per_op(&mut || {
                let _ = tx.send(&r, 1);
                let _ = rx.recv(&r);
            })
        }),
    );
    ping.close(&rt);
    let _ = echo.join();

    // A foreign OS thread calling into a pool that has gone idle between
    // calls: 5000 calls a second leave 200 µs for the workers to park.
    if let Ok(obj) = echo_object(&rt, None) {
        if let Ok(id) = obj.entry_id("Echo") {
            put(
                "runtime.idle_wake_us",
                probe::ns_each_paced(400, 200_000, &mut || {
                    let _ = obj.call_id(id, argv![7i64]);
                }),
            );
        }
        obj.shutdown();
    }
    rt.shutdown();
}

const SELECT_EXTRA_GUARDS: usize = 8;
const SELECT_EXTRAS: [&str; SELECT_EXTRA_GUARDS] = ["E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7"];

/// An echo object whose manager `select`s over one live guard plus
/// `extra` guards (each with a `when`) on entries nobody calls.
fn select_object(rt: &Runtime, extra: usize) -> alps_core::Result<ObjectHandle> {
    let echo = |name: &str| {
        EntryDef::new(name)
            .params([Ty::Int])
            .results([Ty::Int])
            .intercepted()
            .body(|_ctx, args| Ok(args))
    };
    let mut b = ObjectBuilder::new("Select").entry(echo("Echo"));
    for name in SELECT_EXTRAS {
        b = b.entry(echo(name));
    }
    b.manager(move |mgr| loop {
        let mut guards = vec![Guard::accept("Echo")];
        guards.extend(
            SELECT_EXTRAS[..extra]
                .iter()
                .map(|e| Guard::accept(*e).when(|v| v.pending_idx(0) < usize::MAX)),
        );
        match mgr.select(guards)? {
            Selected::Accepted { call, .. } => mgr.execute(call)?,
            _ => unreachable!("only accept guards"),
        };
    })
    .spawn(rt)
}

fn time_call(rt: &Runtime, obj: &ObjectHandle, entry: &str) -> Result<f64, String> {
    let id = obj.entry_id(entry).map_err(err)?;
    let o = obj.clone();
    Ok(on_pool(rt, move || {
        probe::ns_per_op(&mut || {
            let _ = o.call_id(id, argv![7i64]);
        })
    }))
}

fn core_probes(put: Put) -> Result<(), String> {
    let rt = pool();
    let echo_entry = || {
        EntryDef::new("Echo")
            .params([Ty::Int])
            .results([Ty::Int])
            .body(|_ctx, args| Ok(args))
    };

    let implicit = ObjectBuilder::new("Plain")
        .entry(echo_entry())
        .spawn(&rt)
        .map_err(err)?;
    put("core.implicit_call_ns", time_call(&rt, &implicit, "Echo")?);
    implicit.shutdown();

    let combining = ObjectBuilder::new("Combine")
        .entry(echo_entry().intercept_params(1).intercept_results(1))
        .manager(|mgr| loop {
            let call = mgr.accept("Echo")?;
            let v = call.params()[0].clone();
            mgr.finish_accepted(call, argv![v])?;
        })
        .spawn(&rt)
        .map_err(err)?;
    put("core.combine_call_ns", time_call(&rt, &combining, "Echo")?);
    combining.shutdown();

    let managed = echo_object(&rt, None).map_err(err)?;
    let o = managed.clone();
    put(
        "core.call_str_ns",
        on_pool(&rt, move || {
            probe::ns_per_op(&mut || {
                let _ = o.call("Echo", vals![7i64]);
            })
        }),
    );
    managed.shutdown();

    let r = rt.clone();
    put(
        "core.spawn_object_us",
        on_pool(&rt, move || {
            probe::ns_each(60, &mut || {
                if let Ok(o) = echo_object(&r, None) {
                    o.shutdown();
                }
            })
        }),
    );

    let narrow = select_object(&rt, 0).map_err(err)?;
    let wide = select_object(&rt, SELECT_EXTRA_GUARDS).map_err(err)?;
    let per_guard = (time_call(&rt, &wide, "Echo")? - time_call(&rt, &narrow, "Echo")?)
        / SELECT_EXTRA_GUARDS as f64;
    put("core.select_ns_per_guard", per_guard.max(0.0));
    narrow.shutdown();
    wide.shutdown();
    rt.shutdown();
    Ok(())
}

fn shard_probes(put: Put) -> Result<(), String> {
    let rt = pool();
    let group = ShardedBuilder::new("KV", KV_SHARDS)
        .spawn(&rt, |i| kv_shard(i, None))
        .map_err(err)?;
    let g = group.clone();
    let mut k = 0i64;
    put(
        "shard.route_ns",
        probe::ns_per_op(&mut || {
            k = (k + 1) % KV_KEYS as i64;
            std::hint::black_box(g.shard_for_args(&[Value::Int(k)]));
        }),
    );
    let g = group.clone();
    put(
        "shard.call_all_us",
        on_pool(&rt, move || {
            probe::ns_per_op(&mut || {
                let _ = g.call_all("Get", vals![1i64]);
            })
        }),
    );
    group.shutdown();
    rt.shutdown();
    Ok(())
}

fn net_probes(put: Put) -> Result<(), String> {
    let call = Frame::Call {
        call: 7,
        ack_below: 7,
        entry: 0,
        budget: NO_BUDGET,
        args: argv![12_345i64],
    };
    let bytes = encode_frame(&call).map_err(err)?;
    put(
        "net.encode_ns",
        probe::ns_per_op(&mut || {
            std::hint::black_box(encode_frame(std::hint::black_box(&call)).is_ok());
        }),
    );
    put(
        "net.decode_ns",
        probe::ns_per_op(&mut || {
            std::hint::black_box(decode_frame(std::hint::black_box(&bytes)).is_ok());
        }),
    );

    // The same `Bump` three ways: in-process, through the whole protocol
    // over an in-memory link, and (first call only) over a fresh socket.
    let rt = Runtime::threaded();
    let obj = counter_object(&rt, None).map_err(err)?;
    let bump = obj.entry_id("Bump").map_err(err)?;
    put(
        "net.local_call_us",
        probe::ns_per_op(&mut || {
            let _ = obj.call_id(bump, argv![0i64]);
        }),
    );
    let server = NetServer::new(&rt);
    server.register(&obj);
    let mem = RemoteHandle::new(&rt, "Counter", server.mem_connector());
    let mem_bump = mem.entry_id("Bump");
    put(
        "net.memlink_call_us",
        probe::ns_per_op(&mut || {
            let _ = mem.call_id(&mem_bump, argv![0i64]);
        }),
    );
    let addr = server.listen_tcp("127.0.0.1:0").map_err(err)?;
    put(
        "net.connect_us",
        probe::ns_each(20, &mut || {
            let h = RemoteHandle::new(&rt, "Counter", TcpConnector::new(addr.to_string()));
            let _ = h.call("Count", vals![0i64]);
        }),
    );
    server.shutdown();
    obj.shutdown();
    rt.shutdown();
    Ok(())
}

fn checked_program(src: &str) -> Result<Arc<Checked>, String> {
    Ok(Arc::new(check(parse(src).map_err(err)?).map_err(err)?))
}

/// Median wall time of one whole-program run of `checked` on the pool.
fn time_program(rt: &Runtime, checked: &Arc<Checked>, compiled: bool, runs: usize) -> f64 {
    let (r, c) = (rt.clone(), Arc::clone(checked));
    on_pool(rt, move || {
        probe::ns_each(runs, &mut || {
            let (out, _buf) = Output::buffer();
            let _ = if compiled {
                run_compiled(&r, &c, out)
            } else {
                run_checked(&r, &c, out)
            };
        })
    })
}

fn lang_probes(seed: u64, put: Put) -> Result<(), String> {
    let rt = pool();
    let buffer = checked_program(&buffer_source(seed))?;
    put(
        "lang.lower_us",
        probe::ns_each(30, &mut || {
            std::hint::black_box(lower(&buffer));
        }),
    );
    put("lang.interp_run_ms", time_program(&rt, &buffer, false, 3));

    // The paper's example programs, whole, in both back ends.
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/alps"));
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "alps"))
        .collect();
    files.sort();
    let (mut compiled_ns, mut interp_ns) = (0.0, 0.0);
    for file in &files {
        let src = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let checked = checked_program(&src).map_err(|e| format!("{}: {e}", file.display()))?;
        compiled_ns += time_program(&rt, &checked, true, 3);
        interp_ns += time_program(&rt, &checked, false, 3);
    }
    put("lang.examples_compiled_ms", compiled_ns);
    put("lang.examples_interp_ms", interp_ns);

    // The hand-written §2.4.1 buffer moving the same number of elements.
    let elems = (spec::BUFFER_DRIVERS * spec::BUFFER_MESSAGES) as i64;
    let r = rt.clone();
    let per_run = on_pool(&rt, move || {
        probe::ns_each(3, &mut || {
            let Ok(buf) = AlpsBuffer::spawn(&r, 256) else {
                return;
            };
            let (b, r2) = (buf.clone(), r.clone());
            let producer = r.spawn(move || {
                for i in 0..elems {
                    let _ = b.deposit(&r2, i);
                }
            });
            for _ in 0..elems {
                let _ = buf.remove(&r);
            }
            let _ = producer.join();
            buf.object().shutdown();
        })
    });
    put("paper.buffer_elem_ns", per_run / elems as f64);
    rt.shutdown();
    Ok(())
}
