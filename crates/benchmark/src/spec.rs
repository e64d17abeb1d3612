//! What the benchmark measures: the workloads, the end-to-end metrics and
//! the per-layer metrics, by name. `BENCHMARK.json` at the repository root
//! lists the same names with their bounds; `tests/smoke.rs` holds the two
//! together.
//!
//! Every rate, key count, caller count and warm-up length is a constant
//! here. Nothing is calibrated at run time, so two runs offer the same
//! load whatever the machine did the minute before.

/// Worker threads of the in-process pool: the box has two cores.
pub const POOL_WORKERS: usize = 2;

/// How a workload's callers issue operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Loop {
    /// Each caller sends its next operation when the previous reply is
    /// verified.
    Closed,
    /// Operations are due at Poisson instants at this total rate (1/s),
    /// whatever the replies do; latency runs from the due instant.
    Open { rate: f64 },
}

/// What a workload's operations are: decides the inputs the round
/// generates, how a reply is verified and which adapter sets it up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Echo of a sequence number by one managed object.
    Echo,
    /// `Get`/`Put` on Zipf-distributed keys of a sharded group.
    Kv,
    /// Reads and writes of the readers–writers database.
    ReadersWriters,
    /// A whole run of the ALPS buffer program.
    Program,
    /// `Bump` of a unique key on a served object in a child process.
    Remote,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub callers: usize,
    pub pacing: Loop,
    /// Operations issued (over all callers) before the timed window opens.
    /// A count, not a time, so that warm-up is work and `setup_s` shrinks
    /// or grows with the system.
    pub warm_ops: u64,
    /// In a traced round, one operation in this many carries stamps.
    pub trace_every: u64,
}

pub const KV_KEYS: usize = 4096;
pub const KV_ZIPF_S: f64 = 1.0;
pub const KV_WRITE_SHARE: f64 = 0.2;
pub const KV_SHARDS: usize = 4;
/// Entries in each caller's pre-generated op table.
pub const KV_OPS_PER_CALLER: usize = 1 << 16;
pub const RW_READERS: usize = 6;
pub const RW_WRITERS: usize = 2;
pub const RW_WORDS: usize = 64;
/// Concurrent callers on the one remote handle. One caller measures the
/// hypervisor, not the product: every call is five thread wake-ups on
/// vCPUs that halted in between, 50 µs or 180 µs a call depending on the
/// host's mood. Four keep the link's threads awake.
pub const REMOTE_CALLERS: usize = 4;
pub const BUFFER_DRIVERS: u64 = 2;
pub const BUFFER_MESSAGES: u64 = 2000;
/// An open-loop operation issued later than this after its due instant
/// counts towards `harness.late_share`.
pub const LATE_NS: u64 = 100_000;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "call_solo",
        kind: Kind::Echo,
        callers: 1,
        pacing: Loop::Closed,
        warm_ops: 40_000,
        trace_every: 16,
    },
    Workload {
        name: "kv_storm",
        kind: Kind::Kv,
        callers: 8,
        pacing: Loop::Closed,
        warm_ops: 80_000,
        trace_every: 4,
    },
    Workload {
        name: "kv_open",
        kind: Kind::Kv,
        callers: 2,
        pacing: Loop::Open { rate: 50_000.0 },
        warm_ops: 20_000,
        trace_every: 2,
    },
    Workload {
        name: "rw_select",
        kind: Kind::ReadersWriters,
        callers: RW_READERS + RW_WRITERS,
        pacing: Loop::Closed,
        warm_ops: 40_000,
        trace_every: 8,
    },
    Workload {
        name: "alps_buffer",
        kind: Kind::Program,
        callers: 1,
        pacing: Loop::Closed,
        warm_ops: 3,
        trace_every: 1,
    },
    Workload {
        name: "remote_call",
        kind: Kind::Remote,
        callers: REMOTE_CALLERS,
        pacing: Loop::Closed,
        warm_ops: 4_000,
        trace_every: 2,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Absolute noise floor: a difference smaller than this is never a
    /// regression, whatever share of the median it is.
    pub floor: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, floor: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        floor,
    }
}

/// The end-to-end metrics, the same on every workload. Relative bounds
/// live in `BENCHMARK.json`.
pub const END_TO_END: [Metric; 4] = [
    e2e("lat_p50_us", "us", Better::Lower, 0.0),
    e2e("cpu_us_per_op", "us", Better::Lower, 0.0),
    e2e("setup_s", "s", Better::Lower, 0.020),
    e2e("peak_rss_mb", "MiB", Better::Lower, 2.0),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        floor: 0.0,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics. Source in the README: `P` isolated probe, `T`
/// traced round, `C` count read from a public stats API.
pub const PER_LAYER: [Metric; 60] = [
    // runtime
    layer("runtime.park_unpark_us", "us", Lower),
    layer("runtime.yield_ns", "ns", Lower),
    layer("runtime.chan_rtt_us", "us", Lower),
    layer("runtime.spawn_join_us", "us", Lower),
    layer("runtime.os_threads", "count", Lower),
    layer("runtime.idle_wake_us", "us", Lower),
    // core: the five stages of a managed call, and their sanity ratios
    layer("core.accept_wait_us", "us", Lower),
    layer("core.start_us", "us", Lower),
    layer("core.body_us", "us", Lower),
    layer("core.finish_us", "us", Lower),
    layer("core.reply_wake_us", "us", Lower),
    layer("core.stage_sum_ratio", "ratio", Lower),
    layer("core.trace_overhead_ratio", "ratio", Lower),
    // core: floors under every workload
    layer("core.implicit_call_ns", "ns", Lower),
    layer("core.combine_call_ns", "ns", Lower),
    layer("core.call_str_ns", "ns", Lower),
    layer("core.spawn_object_us", "us", Lower),
    // core: counts from ObjectStats and the counting allocator
    layer("core.mgr_wakeups_per_op", "ratio", Lower),
    layer("core.drain_batch_mean", "count", Higher),
    layer("core.park_resolved_share", "ratio", Lower),
    layer("core.lane_push_share", "ratio", Higher),
    layer("core.allocs_per_op", "count", Lower),
    // core: select, hidden arrays, pool
    layer("core.select_ns_per_guard", "ns", Lower),
    layer("core.pool_start_us", "us", Lower),
    layer("core.rw_read_overlap", "count", Higher),
    // tails and harness health
    layer("ops_per_s", "1/s", Higher),
    layer("lat_p90_us", "us", Lower),
    layer("core.lat_p99_us", "us", Lower),
    layer("core.lat_p999_us", "us", Lower),
    layer("harness.late_share", "ratio", Lower),
    layer("fail_share", "ratio", Lower),
    // shard
    layer("shard.route_ns", "ns", Lower),
    layer("shard.call_all_us", "us", Lower),
    layer("shard.combined_share", "ratio", Higher),
    layer("shard.imbalance", "ratio", Lower),
    // net
    layer("net.encode_ns", "ns", Lower),
    layer("net.decode_ns", "ns", Lower),
    layer("net.bytes_per_call", "count", Lower),
    layer("net.link_send_us", "us", Lower),
    layer("net.request_path_us", "us", Lower),
    layer("net.server_body_us", "us", Lower),
    layer("net.reply_path_us", "us", Lower),
    layer("net.memlink_call_us", "us", Lower),
    layer("net.local_call_us", "us", Lower),
    layer("net.connect_us", "us", Lower),
    layer("net.replayed_per_call", "ratio", Lower),
    layer("net.reconnects", "count", Lower),
    layer("net.retries_per_call", "ratio", Lower),
    // lang
    layer("lang.parse_us", "us", Lower),
    layer("lang.check_us", "us", Lower),
    layer("lang.lower_us", "us", Lower),
    layer("lang.spawn_compiled_us", "us", Lower),
    layer("lang.run_main_ms", "ms", Lower),
    layer("lang.shutdown_us", "us", Lower),
    layer("lang.elem_ns", "ns", Lower),
    layer("lang.interp_run_ms", "ms", Lower),
    layer("lang.examples_compiled_ms", "ms", Lower),
    layer("lang.examples_interp_ms", "ms", Lower),
    layer("paper.buffer_elem_ns", "ns", Lower),
    layer("lang.compiled_over_embedded", "ratio", Lower),
];

/// The end-to-end or per-layer metric called `name`.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// Nanoseconds → the metric's unit, by the suffix of its name.
pub fn from_ns(metric: &str, ns: f64) -> f64 {
    if metric.ends_with("_us") {
        ns / 1e3
    } else if metric.ends_with("_ms") {
        ns / 1e6
    } else if metric.ends_with("_s") {
        ns / 1e9
    } else {
        ns
    }
}
