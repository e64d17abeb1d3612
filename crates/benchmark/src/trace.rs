//! Spans for the traced rounds.
//!
//! The benchmark's own closures (callers, manager bodies, entry bodies, the
//! server child's entry bodies) stamp *points* — "call issued", "accept
//! returned", "body entered" … — against an operation id. A workload
//! declares its *stages* as pairs of points; a stage of one operation is a
//! span, and all stages of an operation are children of that operation's
//! root span, which runs from the first point to the last. The stages tile
//! the root, so the root's self time (its span minus its children) is what
//! the stages failed to cover: zero when the budget is complete.
//!
//! Stamps go into one pre-sized lock-free log and are written out when the
//! round ends; nothing is formatted or allocated while the round runs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::clock::now_ns;

/// A point in an operation's life. Values index the per-op stamp array.
pub type Point = u8;
pub const MAX_POINTS: usize = 8;

/// One stage of a workload's budget: the span from point `from` to `to`.
#[derive(Clone, Copy, Debug)]
pub struct Stage {
    /// Per-layer metric this stage's median is reported under.
    pub metric: &'static str,
    pub from: Point,
    pub to: Point,
}

/// Events kept per round. At six points per operation that is ~43 000
/// traced operations in 4 MiB.
const LOG_CAP: usize = 1 << 18;

/// Pre-sized, append-only stamp log shared by every stamping closure.
pub struct Log {
    /// Trace operations whose id is a multiple of this.
    every: u64,
    cursor: AtomicUsize,
    /// `(op << 8 | point, t_ns)`; Relaxed throughout — the log is read only
    /// after every writer has been joined.
    slots: Box<[(AtomicU64, AtomicU64)]>,
}

impl Log {
    pub fn new(every: u64) -> Log {
        Log {
            every: every.max(1),
            cursor: AtomicUsize::new(0),
            slots: (0..LOG_CAP)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
        }
    }

    /// One operation in this many carries stamps.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Whether operation `op` carries stamps.
    #[inline]
    pub fn sampled(&self, op: u64) -> bool {
        op.is_multiple_of(self.every)
    }

    /// Stamp `point` of `op` with the current time, if `op` is sampled.
    #[inline]
    pub fn stamp(&self, op: u64, point: Point) {
        if self.sampled(op) {
            self.stamp_at(op, point, now_ns());
        }
    }

    /// Record a time read earlier (a manager learns the op id only after
    /// the body has run). The caller checks [`sampled`](Self::sampled).
    pub fn stamp_at(&self, op: u64, point: Point, t_ns: u64) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        if let Some((k, t)) = self.slots.get(i) {
            k.store(op << 8 | u64::from(point), Ordering::Relaxed);
            t.store(t_ns, Ordering::Relaxed);
        }
    }

    /// Every recorded `(op, point, t_ns)`.
    pub fn events(&self) -> Vec<(u64, Point, u64)> {
        let n = self.cursor.load(Ordering::Relaxed).min(self.slots.len());
        self.slots[..n]
            .iter()
            .map(|(k, t)| {
                let k = k.load(Ordering::Relaxed);
                (k >> 8, (k & 0xff) as Point, t.load(Ordering::Relaxed))
            })
            .collect()
    }
}

/// One span, as written to the trace file.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<&'static str>,
}

/// Stage medians and the spans behind them.
pub struct Budget {
    /// `(metric, median ns)` per stage, in declaration order.
    pub stage_median_ns: Vec<(&'static str, f64)>,
    /// Median root-span duration over the operations that have every stage.
    pub root_median_ns: f64,
    /// Operations with every stage present.
    pub complete_ops: usize,
    pub spans: Vec<Span>,
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Join events on the operation id and cut them into `stages`. Operations
/// missing a point (the log filled up, or the op only has a root — a read
/// whose arguments carry no id) contribute a root span only.
pub fn budget(events: &[(u64, Point, u64)], root: &'static str, stages: &[Stage]) -> Budget {
    let mut per_op: HashMap<u64, [u64; MAX_POINTS]> = HashMap::new();
    for &(op, point, t) in events {
        per_op.entry(op).or_insert([0; MAX_POINTS])[point as usize] = t;
    }
    let first = stages.iter().map(|s| s.from).min().unwrap_or(0) as usize;
    let last = stages.iter().map(|s| s.to).max().unwrap_or(0) as usize;
    let mut ops: Vec<_> = per_op.into_iter().collect();
    ops.sort_unstable_by_key(|(op, _)| *op);

    let mut durations: Vec<Vec<f64>> = vec![Vec::new(); stages.len()];
    let mut roots = Vec::new();
    let mut spans = Vec::new();
    for (op, t) in ops {
        if t[first] == 0 || t[last] == 0 || t[last] < t[first] {
            continue;
        }
        spans.push(Span {
            name: root,
            op,
            start_ns: t[first],
            end_ns: t[last],
            parent: None,
        });
        let complete = stages
            .iter()
            .all(|s| t[s.from as usize] != 0 && t[s.to as usize] >= t[s.from as usize]);
        if !complete {
            continue;
        }
        roots.push((t[last] - t[first]) as f64);
        for (s, d) in stages.iter().zip(&mut durations) {
            let (a, b) = (t[s.from as usize], t[s.to as usize]);
            d.push((b - a) as f64);
            spans.push(Span {
                name: s.metric,
                op,
                start_ns: a,
                end_ns: b,
                parent: Some(root),
            });
        }
    }
    Budget {
        stage_median_ns: stages
            .iter()
            .zip(&mut durations)
            .map(|(s, d)| (s.metric, median(d)))
            .collect(),
        complete_ops: roots.len(),
        root_median_ns: median(&mut roots),
        spans,
    }
}

/// Spans as JSON lines: `{name, op, start_ns, end_ns, parent}`.
pub fn spans_to_jsonl(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = match s.parent {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns, parent
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAGES: [Stage; 2] = [
        Stage {
            metric: "a",
            from: 0,
            to: 1,
        },
        Stage {
            metric: "b",
            from: 1,
            to: 2,
        },
    ];

    #[test]
    fn stages_tile_the_root_and_incomplete_ops_keep_only_a_root() {
        let log = Log::new(2);
        for (op, base) in [(2u64, 100u64), (4, 200), (3, 300)] {
            log.stamp_at(op, 0, base);
            log.stamp_at(op, 1, base + 10);
            log.stamp_at(op, 2, base + 40);
        }
        assert!(log.sampled(4) && !log.sampled(3));
        // An op with its middle point missing.
        log.stamp_at(6, 0, 500);
        log.stamp_at(6, 2, 560);
        let b = budget(&log.events(), "root", &STAGES);
        assert_eq!(b.complete_ops, 3);
        assert_eq!(b.stage_median_ns, vec![("a", 10.0), ("b", 30.0)]);
        assert_eq!(b.root_median_ns, 40.0);
        let roots = b.spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 4);
        assert_eq!(b.spans.len(), 4 + 3 * 2);
        let line = spans_to_jsonl(&b.spans[..1]);
        assert_eq!(
            line,
            "{\"name\":\"root\",\"op\":2,\"start_ns\":100,\"end_ns\":140,\"parent\":null}\n"
        );
    }
}
