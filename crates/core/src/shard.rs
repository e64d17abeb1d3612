//! Sharded object groups — scale one logical object past the
//! single-manager ceiling.
//!
//! An ALPS object serializes all synchronization decisions through its
//! one high-priority manager (paper §2.3). That is the point — and the
//! bottleneck: a single hot object saturates at whatever one manager
//! loop can drain. A [`ShardedHandle`] spawns `S` *replica* objects
//! behind one handle and routes every call to a shard chosen by key
//! hash, so independent keys stop contending on one intake ring and one
//! manager. The paper's model is unchanged: each shard is an ordinary
//! object with its own manager; the group is pure client-side routing.
//!
//! Three call shapes are offered:
//!
//! * **Routed calls** — [`ShardedHandle::call_with`] (and `call`,
//!   `call_id`, which wait without limit) picks one shard by a stable
//!   hash of the arguments, [`ShardedHandle::call_id_key`] by an
//!   explicit caller-supplied key, and delegates to the ordinary
//!   [`ObjectHandle`] protocol.
//! * **Scatter-gather** — [`ShardedHandle::call_all`] invokes an entry
//!   on *every* shard concurrently and gathers the per-shard results
//!   (e.g. "search all partitions of the dictionary").
//! * **Combined reads** — [`ShardedHandle::call_id_combined`] extends the
//!   paper's §2.7 request combining *across* the group boundary: while
//!   one caller (the leader) is executing a read with some argument
//!   tuple, concurrent callers with the *same* arguments park on a
//!   combining cell and receive a clone of the leader's reply instead
//!   of issuing a duplicate call. This dedupes work before it even
//!   reaches a shard's intake, complementing the per-manager combining
//!   a shard may also do internally.
//!
//! Routing uses Fibonacci hashing (multiply by 2⁶⁴/φ, take high bits)
//! so dense integer keys spread evenly; explicit keys let a caller pin
//! related calls to one shard for ordering.
//!
//! Every shard has the same entry table (checked at spawn), so a name
//! resolves once, on shard 0, to an index that means the same entry on
//! every shard.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alps_runtime::metrics::Counter;
use alps_runtime::{Notifier, Runtime};
use parking_lot::Mutex;

use crate::error::{AlpsError, Result};
use crate::handle::{EntryId, ObjectBuilder, ObjectHandle};
use crate::stats::ObjectStats;
use crate::supervise::Wait;
use crate::value::{ValVec, Value};

/// Group uid source; distinguishes [`ShardEntryId`]s across groups the
/// same way object uids distinguish [`EntryId`]s across objects.
static NEXT_GROUP_UID: AtomicU64 = AtomicU64::new(1);

/// 2⁶⁴ / φ — the Fibonacci hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Spread a routing key over the shard index space — the routing
/// function behind [`ShardedHandle::shard_for_key`]. The Fibonacci
/// multiply diffuses low-entropy keys (dense integers, short string
/// hashes) into the high bits, which are then reduced modulo the shard
/// count. Public so data can be *partitioned* with the same function
/// the handle *routes* with (each shard holds exactly the keys that
/// will be asked of it).
pub fn spread(key: u64, shards: usize) -> usize {
    (((key ^ (key >> 32)).wrapping_mul(FIB) >> 16) % shards as u64) as usize
}

/// FNV-1a over the canonical byte encoding of a value tuple: the stable
/// argument hash used when the caller does not supply an explicit
/// routing key ([`ShardedHandle::shard_for_args`] is
/// `spread(hash_values(args))`). Equal tuples hash equal across
/// processes and runs (no per-process seed), which the combining map
/// also relies on.
pub fn hash_values(vals: &[Value]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in vals {
        hash_value(v, &mut h);
    }
    h
}

fn hash_value(v: &Value, h: &mut u64) {
    fn byte(h: &mut u64, b: u8) {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    fn bytes(h: &mut u64, bs: &[u8]) {
        for &b in bs {
            byte(h, b);
        }
    }
    match v {
        Value::Unit => byte(h, 0),
        Value::Bool(b) => {
            byte(h, 1);
            byte(h, u8::from(*b));
        }
        Value::Int(i) => {
            byte(h, 2);
            bytes(h, &i.to_le_bytes());
        }
        Value::Float(f) => {
            byte(h, 3);
            bytes(h, &f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            byte(h, 4);
            bytes(h, s.as_bytes());
        }
        // Channels route by identity-ish metadata (name), which is the
        // best stable property a first-class channel exposes.
        Value::Chan(c) => {
            byte(h, 5);
            bytes(h, c.name().as_bytes());
        }
        Value::List(xs) => {
            byte(h, 6);
            for x in xs {
                hash_value(x, h);
            }
            byte(h, 7);
        }
    }
}

/// An interned entry id for a sharded group: one copyable token that
/// stands for the same-named entry on *every* shard — the entry's index
/// in the table all shards share. Mint with [`ShardedHandle::entry_id`];
/// reuse for every call (same contract as [`EntryId`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardEntryId {
    group: u64,
    idx: u32,
}

/// One caller's view of an in-flight combined read (see
/// [`ShardedHandle::call_id_combined`]). The leader publishes exactly once
/// and notifies; followers park on the notifier until the result lands.
struct CombineCell {
    result: Mutex<Option<Result<ValVec>>>,
    notifier: Notifier,
}

impl CombineCell {
    fn new() -> CombineCell {
        CombineCell {
            result: Mutex::new(None),
            notifier: Notifier::new(),
        }
    }
}

struct ShardedInner {
    name: String,
    uid: u64,
    rt: Runtime,
    /// Non-empty, and every shard's entry table equals shard 0's.
    shards: Vec<ObjectHandle>,
    /// (entry index, argument hash) → in-flight combined read.
    combine: Mutex<HashMap<(u32, u64), Arc<CombineCell>>>,
    combined_leads: Counter,
    combined_follows: Counter,
}

impl ShardedInner {
    /// The shard a `(entry, key)` pair routes to, and that shard's own
    /// id for the entry.
    fn route(&self, id: ShardEntryId, key: u64) -> Result<(&ObjectHandle, EntryId)> {
        if id.group != self.uid {
            return Err(AlpsError::ForeignEntryId {
                object: self.name.clone(),
            });
        }
        let shard = &self.shards[spread(key, self.shards.len())];
        Ok((shard, shard.entry_at(id.idx)))
    }
}

/// Ensures a combining leader always clears its map slot and answers
/// its followers, even if the underlying call unwinds (e.g. the
/// runtime aborts the leader's process at shutdown). Without this,
/// followers of a dead leader would wait forever and later callers
/// would keep joining a cell nobody will complete.
struct LeaderGuard<'a> {
    inner: &'a ShardedInner,
    key: (u32, u64),
    cell: Arc<CombineCell>,
    published: bool,
}

impl LeaderGuard<'_> {
    /// Retire the cell and hand `res` to every follower. Removing the
    /// map entry *before* publishing means a caller arriving after this
    /// point elects a fresh leader instead of reading a stale reply.
    fn publish(&mut self, res: Result<ValVec>) {
        self.inner.combine.lock().remove(&self.key);
        *self.cell.result.lock() = Some(res);
        self.cell.notifier.notify(&self.inner.rt);
        self.published = true;
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.publish(Err(AlpsError::ObjectClosed {
                object: self.inner.name.clone(),
            }));
        }
    }
}

/// Builder for a sharded object group: `S` replica objects spawned
/// from a per-shard factory, served behind one [`ShardedHandle`].
///
/// ```no_run
/// # use alps_core::{ShardedBuilder, ObjectBuilder, EntryDef, Ty, Value, vals};
/// # use alps_runtime::Runtime;
/// # let rt = Runtime::threaded();
/// let group = ShardedBuilder::new("KV", 4)
///     .spawn(&rt, |shard| {
///         ObjectBuilder::new(format!("KV#{shard}")).entry(
///             EntryDef::new("Get")
///                 .params([Ty::Int])
///                 .results([Ty::Int])
///                 .body(|_, args| Ok(vec![args[0].clone()])),
///         )
///     })
///     .unwrap();
/// group.call("Get", vals![7i64]).unwrap();
/// ```
#[derive(Debug)]
pub struct ShardedBuilder {
    name: String,
    shards: usize,
}

impl ShardedBuilder {
    /// A group named `name` with `shards` replicas (clamped to ≥ 1).
    pub fn new(name: impl Into<String>, shards: usize) -> ShardedBuilder {
        ShardedBuilder {
            name: name.into(),
            shards: shards.max(1),
        }
    }

    /// Spawn the replicas. `factory(i)` builds shard `i`'s
    /// [`ObjectBuilder`] — each shard may carry its own partition of
    /// the data, but every shard must declare the same entries in the
    /// same order, so that one index names the same entry on each.
    ///
    /// # Errors
    ///
    /// Propagates the first shard spawn failure, and
    /// [`AlpsError::BadDefinition`] naming the first shard whose entry
    /// table differs from shard 0's; already-spawned shards are shut
    /// down again so no orphan managers leak.
    pub fn spawn(
        self,
        rt: &Runtime,
        mut factory: impl FnMut(usize) -> ObjectBuilder,
    ) -> Result<ShardedHandle> {
        let mut shards: Vec<ObjectHandle> = Vec::with_capacity(self.shards);
        for i in 0..self.shards {
            // A mismatched shard is dropped with its only handle, which
            // shuts it down.
            let spawned = factory(i).spawn(rt).and_then(|h| match shards.first() {
                Some(first) if !h.same_entries(first) => Err(AlpsError::BadDefinition {
                    reason: format!(
                        "shard {i} of group {} has other entries than shard 0",
                        self.name
                    ),
                }),
                _ => Ok(h),
            });
            match spawned {
                Ok(h) => shards.push(h),
                Err(e) => {
                    for h in &shards {
                        h.shutdown();
                    }
                    return Err(e);
                }
            }
        }
        Ok(ShardedHandle {
            inner: Arc::new(ShardedInner {
                name: self.name,
                uid: NEXT_GROUP_UID.fetch_add(1, Ordering::Relaxed),
                rt: rt.clone(),
                shards,
                combine: Mutex::new(HashMap::new()),
                combined_leads: Counter::new(),
                combined_follows: Counter::new(),
            }),
        })
    }
}

/// Handle to a sharded object group. Cheap to clone; all clones share
/// the same shards and combining map.
#[derive(Clone)]
pub struct ShardedHandle {
    inner: Arc<ShardedInner>,
}

impl std::fmt::Debug for ShardedHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedHandle")
            .field("name", &self.inner.name)
            .field("shards", &self.inner.shards.len())
            .finish()
    }
}

impl ShardedHandle {
    /// The group's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of shards in the group.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Direct handle to shard `i` (panics if out of range).
    pub fn shard(&self, i: usize) -> &ObjectHandle {
        &self.inner.shards[i]
    }

    /// All shard handles, in shard order.
    pub fn shards(&self) -> &[ObjectHandle] {
        &self.inner.shards
    }

    /// Which shard an explicit routing key lands on.
    pub fn shard_for_key(&self, key: u64) -> usize {
        spread(key, self.inner.shards.len())
    }

    /// Which shard an argument tuple routes to (the stable hash used by
    /// [`call`](Self::call) when no explicit key is given).
    pub fn shard_for_args(&self, args: &[Value]) -> usize {
        self.shard_for_key(hash_values(args))
    }

    /// Intern an entry name group-wide: one copyable [`ShardEntryId`]
    /// that names the entry on every shard. Resolve once after
    /// [`ShardedBuilder::spawn`], reuse for every call.
    ///
    /// # Errors
    ///
    /// [`AlpsError::UnknownEntry`] if the group has no such entry.
    pub fn entry_id(&self, entry: &str) -> Result<ShardEntryId> {
        let id = self.inner.shards[0].entry_id(entry)?;
        Ok(ShardEntryId {
            group: self.inner.uid,
            idx: id.idx,
        })
    }

    /// Call an entry, routing by the stable hash of `args` (equal
    /// argument tuples always hit the same shard).
    ///
    /// # Errors
    ///
    /// As [`ObjectHandle::call`] on the routed shard.
    pub fn call(&self, entry: &str, args: Vec<Value>) -> Result<Vec<Value>> {
        let id = self.entry_id(entry)?;
        self.call_id(id, args).map(Vec::from)
    }

    /// `call_with(id, args, Wait::Unbounded)`.
    ///
    /// # Errors
    ///
    /// As [`call_with`](Self::call_with).
    pub fn call_id(&self, id: ShardEntryId, args: impl Into<ValVec>) -> Result<ValVec> {
        self.call_with(id, args, Wait::Unbounded)
    }

    /// Routed call through an interned [`ShardEntryId`], by argument
    /// hash, that waits as `wait` says ([`ObjectHandle::call_with`]).
    ///
    /// # Errors
    ///
    /// As [`ObjectHandle::call_with`] on the routed shard;
    /// [`AlpsError::ForeignEntryId`] for another group's id.
    pub fn call_with(
        &self,
        id: ShardEntryId,
        args: impl Into<ValVec>,
        wait: Wait,
    ) -> Result<ValVec> {
        let args: ValVec = args.into();
        let (shard, eid) = self.inner.route(id, hash_values(&args))?;
        shard.call_with(eid, args, wait)
    }

    /// Routed call through an interned id and an explicit key — use when
    /// related calls must serialize through one manager regardless of
    /// their arguments.
    ///
    /// # Errors
    ///
    /// As [`call_id`](Self::call_id).
    pub fn call_id_key(
        &self,
        id: ShardEntryId,
        key: u64,
        args: impl Into<ValVec>,
    ) -> Result<ValVec> {
        let (shard, eid) = self.inner.route(id, key)?;
        shard.call_id(eid, args)
    }

    /// Scatter-gather: invoke `entry(args)` on **every** shard
    /// concurrently and return the per-shard results in shard order.
    /// Use for queries the routing key cannot localize ("search every
    /// partition").
    ///
    /// The scatter runs each shard's call on its own runtime process;
    /// on the pooled executor those are green tasks, so a wide group
    /// does not cost a thread per shard.
    ///
    /// # Errors
    ///
    /// The first shard error, by shard order, if any shard fails.
    pub fn call_all(&self, entry: &str, args: Vec<Value>) -> Result<Vec<Vec<Value>>> {
        let idx = self.entry_id(entry)?.idx;
        let args: ValVec = ValVec::from(args);
        let handles: Vec<_> = self.inner.shards[1..]
            .iter()
            .map(|shard| {
                let (shard, args) = (shard.clone(), args.clone());
                self.inner
                    .rt
                    .spawn(move || shard.call_id(shard.entry_at(idx), args))
            })
            .collect();
        // Shard 0 runs on the calling process — scattering N-1 ways.
        let shard0 = &self.inner.shards[0];
        let mut results = vec![shard0.call_id(shard0.entry_at(idx), args)];
        for h in handles {
            results.push(h.join().map_err(|_| AlpsError::ObjectClosed {
                object: self.inner.name.clone(),
            })?);
        }
        results.into_iter().map(|r| r.map(Vec::from)).collect()
    }

    /// Combined read: route like [`call_id`](Self::call_id), but if
    /// another caller is *already executing* this entry with an equal
    /// argument tuple, park and share its reply instead of issuing a
    /// duplicate call. Extends the paper's §2.7 request combining across
    /// the shard boundary — duplicates are deduplicated before they reach
    /// any shard's intake, so the shared body runs once per burst.
    ///
    /// Only use for **read-only** entries: followers observe the
    /// leader's reply without the body running on their behalf.
    ///
    /// # Errors
    ///
    /// As [`call_id`](Self::call_id); followers see a clone of the
    /// leader's error (reported as [`AlpsError::ObjectClosed`] if the
    /// leader's process unwound without completing).
    pub fn call_id_combined(&self, id: ShardEntryId, args: impl Into<ValVec>) -> Result<ValVec> {
        let inner = &self.inner;
        let args: ValVec = args.into();
        let key = hash_values(&args);
        let (shard, eid) = inner.route(id, key)?;
        let (cell, leads) = match inner.combine.lock().entry((id.idx, key)) {
            Entry::Occupied(e) => (Arc::clone(e.get()), false),
            Entry::Vacant(v) => (Arc::clone(v.insert(Arc::new(CombineCell::new()))), true),
        };
        if !leads {
            // Follower: park until the leader publishes. Epoch is read
            // *before* the result check, so a notify landing in between
            // makes the wait return immediately (no lost wakeup).
            inner.combined_follows.incr();
            loop {
                let seen = cell.notifier.epoch();
                if let Some(r) = cell.result.lock().clone() {
                    return r;
                }
                cell.notifier.wait_past(&inner.rt, seen);
            }
        }
        // Leader: execute the routed call and fan the reply out. The
        // guard publishes an error if the call unwinds (process abort)
        // so followers never wait on a dead leader.
        inner.combined_leads.incr();
        let mut guard = LeaderGuard {
            inner,
            key: (id.idx, key),
            cell,
            published: false,
        };
        let res = shard.call_id(eid, args);
        guard.publish(res.clone());
        res
    }

    /// Aggregated counters summed over every shard, plus the group's
    /// own combining counters.
    pub fn stats(&self) -> ShardedStats {
        let mut s = ShardedStats {
            shards: self.inner.shards.len(),
            combined_leads: self.inner.combined_leads.get(),
            combined_follows: self.inner.combined_follows.get(),
            ..ShardedStats::default()
        };
        for o in &self.inner.shards {
            s.absorb_object(&o.stats());
        }
        s
    }

    /// The individual [`ObjectStats`] of shard `i`.
    pub fn shard_stats(&self, i: usize) -> ObjectStats {
        self.inner.shards[i].stats()
    }

    /// Shut down every shard; in-flight and future calls fail with
    /// [`AlpsError::ObjectClosed`].
    pub fn shutdown(&self) {
        for s in &self.inner.shards {
            s.shutdown();
        }
    }

    /// Whether every shard has been shut down.
    pub fn is_closed(&self) -> bool {
        self.inner.shards.iter().all(ObjectHandle::is_closed)
    }
}

/// Point-in-time counter snapshot summed across a group's shards
/// ([`ShardedHandle::stats`]). Shard-level histograms are available per
/// shard via [`ShardedHandle::shard_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Number of shards in the group.
    pub shards: usize,
    /// Total entry calls received, summed over shards.
    pub calls: u64,
    /// Calls accepted by shard managers.
    pub accepts: u64,
    /// Entry executions started.
    pub starts: u64,
    /// Calls finished.
    pub finishes: u64,
    /// Calls answered by *per-manager* combining (paper §2.7) inside a
    /// shard.
    pub combines: u64,
    /// Entry bodies that failed.
    pub body_failures: u64,
    /// Calls that timed out.
    pub timeouts: u64,
    /// Supervised restarts across shards.
    pub restarts: u64,
    /// [`Wait::Retry`] re-attempts across shards.
    pub retries: u64,
    /// Calls shed by admission control.
    pub sheds: u64,
    /// Combined reads that executed as leader (one routed call each).
    pub combined_leads: u64,
    /// Combined reads answered from a leader's reply — duplicate work
    /// the group never issued.
    pub combined_follows: u64,
}

impl ShardedStats {
    /// Fold one shard's [`ObjectStats`] snapshot into this summary. Every
    /// addition **saturates**: when summaries are folded across processes
    /// (one per remote connection, each potentially long-lived), a wrapped
    /// counter would silently read as near-zero — a pinned `u64::MAX`
    /// reads as what it is, an overflowed tally.
    pub fn absorb_object(&mut self, st: &ObjectStats) {
        self.calls = self.calls.saturating_add(st.calls());
        self.accepts = self.accepts.saturating_add(st.accepts());
        self.starts = self.starts.saturating_add(st.starts());
        self.finishes = self.finishes.saturating_add(st.finishes());
        self.combines = self.combines.saturating_add(st.combines());
        self.body_failures = self.body_failures.saturating_add(st.body_failures());
        self.timeouts = self.timeouts.saturating_add(st.timeouts());
        self.restarts = self.restarts.saturating_add(st.restarts());
        self.retries = self.retries.saturating_add(st.retries());
        self.sheds = self.sheds.saturating_add(st.sheds());
    }
}

impl std::fmt::Display for ShardedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shards={} calls={} accepts={} starts={} finishes={} combines={} failures={} \
             timeouts={} restarts={} retries={} sheds={} combined_leads={} combined_follows={}",
            self.shards,
            self.calls,
            self.accepts,
            self.starts,
            self.finishes,
            self.combines,
            self.body_failures,
            self.timeouts,
            self.restarts,
            self.retries,
            self.sheds,
            self.combined_leads,
            self.combined_follows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryDef;
    use crate::vals;
    use crate::value::Ty;

    /// Echoes its argument plus the shard index that served it.
    fn echo_builder(shard: usize) -> ObjectBuilder {
        ObjectBuilder::new(format!("Echo#{shard}")).entry(
            EntryDef::new("Echo")
                .params([Ty::Int])
                .results([Ty::Int, Ty::Int])
                .body(move |_ctx, args| Ok(vec![args[0].clone(), Value::Int(shard as i64)])),
        )
    }

    #[test]
    fn spread_covers_all_shards_for_dense_keys() {
        for shards in [1usize, 2, 3, 4, 7, 8] {
            let mut hit = vec![0u32; shards];
            for k in 0..1024u64 {
                hit[spread(k, shards)] += 1;
            }
            for (i, &n) in hit.iter().enumerate() {
                assert!(n > 0, "shard {i}/{shards} never hit");
            }
        }
    }

    #[test]
    fn equal_tuples_hash_equal_and_unequal_differ() {
        let a = vals![1i64, "x"];
        let b = vals![1i64, "x"];
        let c = vals![2i64, "x"];
        assert_eq!(hash_values(&a), hash_values(&b));
        assert_ne!(hash_values(&a), hash_values(&c));
        // List nesting is delimited: [1],[2] vs [1,2],[] must differ.
        let d = vec![
            Value::List(vec![Value::Int(1)]),
            Value::List(vec![Value::Int(2)]),
        ];
        let e = vec![
            Value::List(vec![Value::Int(1), Value::Int(2)]),
            Value::List(vec![]),
        ];
        assert_ne!(hash_values(&d), hash_values(&e));
    }

    #[test]
    fn routed_calls_land_on_the_predicted_shard() {
        let rt = Runtime::threaded();
        let group = ShardedBuilder::new("Echo", 4)
            .spawn(&rt, echo_builder)
            .unwrap();
        for i in 0..32i64 {
            let args = vals![i];
            let want = group.shard_for_args(&args) as i64;
            let r = group.call("Echo", args).unwrap();
            assert_eq!(r[0], Value::Int(i));
            assert_eq!(r[1], Value::Int(want), "call {i} routed to wrong shard");
        }
        // Every shard's counters roll up into the aggregate.
        let agg = group.stats();
        assert_eq!(agg.shards, 4);
        assert_eq!(agg.calls, 32);
        assert_eq!(
            (0..4).map(|i| group.shard_stats(i).calls()).sum::<u64>(),
            32
        );
        group.shutdown();
        assert!(group.is_closed());
        rt.shutdown();
    }

    #[test]
    fn explicit_keys_pin_calls_to_one_shard() {
        let rt = Runtime::threaded();
        let group = ShardedBuilder::new("Echo", 4)
            .spawn(&rt, echo_builder)
            .unwrap();
        let pin = group.shard_for_key(99) as i64;
        let echo = group.entry_id("Echo").unwrap();
        for i in 0..16i64 {
            let r = group.call_id_key(echo, 99, vals![i]).unwrap();
            assert_eq!(r[1], Value::Int(pin));
        }
        assert_eq!(
            group.shard_stats(group.shard_for_key(99)).calls(),
            16,
            "all pinned calls on one shard"
        );
        group.shutdown();
        rt.shutdown();
    }

    #[test]
    fn foreign_ids_are_rejected() {
        let rt = Runtime::threaded();
        let g1 = ShardedBuilder::new("A", 2)
            .spawn(&rt, echo_builder)
            .unwrap();
        let g2 = ShardedBuilder::new("B", 2)
            .spawn(&rt, echo_builder)
            .unwrap();
        let id = g1.entry_id("Echo").unwrap();
        let retry = crate::RetryPolicy::new(3, 1_000_000);
        for wait in [
            Wait::Unbounded,
            Wait::Deadline(1_000_000),
            Wait::Retry(retry),
        ] {
            let r = g2.call_with(id, vals![1i64], wait);
            assert!(
                matches!(r, Err(AlpsError::ForeignEntryId { .. })),
                "{wait:?}"
            );
        }
        g1.shutdown();
        g2.shutdown();
        rt.shutdown();
    }

    #[test]
    fn scatter_gather_hits_every_shard() {
        let rt = Runtime::threaded();
        let group = ShardedBuilder::new("Echo", 4)
            .spawn(&rt, echo_builder)
            .unwrap();
        let rs = group.call_all("Echo", vals![5i64]).unwrap();
        assert_eq!(rs.len(), 4);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(r[0], Value::Int(5));
            assert_eq!(r[1], Value::Int(i as i64), "result order is shard order");
        }
        group.shutdown();
        rt.shutdown();
    }

    #[test]
    fn combined_duplicates_execute_once_per_burst() {
        use std::sync::atomic::AtomicU64;
        let rt = Runtime::threaded();
        let gate = Arc::new(AtomicU64::new(0));
        let execs = Arc::new(AtomicU64::new(0));
        let (g2, e2) = (Arc::clone(&gate), Arc::clone(&execs));
        let group = ShardedBuilder::new("Slow", 2)
            .spawn(&rt, move |shard| {
                let (g, e) = (Arc::clone(&g2), Arc::clone(&e2));
                ObjectBuilder::new(format!("Slow#{shard}")).entry(
                    EntryDef::new("Read")
                        .params([Ty::Int])
                        .results([Ty::Int])
                        .body(move |_ctx, args| {
                            e.fetch_add(1, Ordering::SeqCst);
                            // Hold the body open until the followers have
                            // piled onto the combining cell.
                            while g.load(Ordering::SeqCst) == 0 {
                                std::thread::yield_now();
                            }
                            Ok(vec![args[0].clone()])
                        }),
                )
            })
            .unwrap();
        let read = group.entry_id("Read").unwrap();
        let hs: Vec<_> = (0..8)
            .map(|_| {
                let group = group.clone();
                rt.spawn(move || group.call_id_combined(read, vals![42i64]).unwrap())
            })
            .collect();
        // Wait for the burst to assemble: one leader executing, the
        // other seven parked as followers.
        while group.stats().combined_follows < 7 {
            std::thread::yield_now();
        }
        gate.store(1, Ordering::SeqCst);
        for h in hs {
            assert_eq!(h.join().unwrap()[0], Value::Int(42));
        }
        assert_eq!(execs.load(Ordering::SeqCst), 1, "body ran once for 8 calls");
        let s = group.stats();
        assert_eq!(s.combined_leads, 1);
        assert_eq!(s.combined_follows, 7);
        // The burst retired its cell: the next call elects a new leader
        // and re-executes (no stale replies).
        gate.store(1, Ordering::SeqCst);
        assert_eq!(
            group.call_id_combined(read, vals![42i64]).unwrap()[0],
            Value::Int(42)
        );
        assert_eq!(execs.load(Ordering::SeqCst), 2);
        group.shutdown();
        rt.shutdown();
    }

    #[test]
    fn combined_distinct_arguments_do_not_combine() {
        let rt = Runtime::threaded();
        let group = ShardedBuilder::new("Echo", 2)
            .spawn(&rt, echo_builder)
            .unwrap();
        let echo = group.entry_id("Echo").unwrap();
        for i in 0..4i64 {
            group.call_id_combined(echo, vals![i]).unwrap();
        }
        let s = group.stats();
        assert_eq!(s.combined_leads, 4);
        assert_eq!(s.combined_follows, 0);
        group.shutdown();
        rt.shutdown();
    }

    /// Two ways a shard can fail the group: its own definition is bad
    /// (shard 2 declares `E` twice), or its entry table differs from
    /// shard 0's (shard 1 lacks `Tick`). Either way the spawn is a
    /// `BadDefinition` and shard 0 is shut down again.
    #[test]
    fn spawn_failure_shuts_down_earlier_shards() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        // `Echo` plus a managed `Tick` whose manager records its exit.
        let watched = |closed: Arc<AtomicBool>| {
            echo_builder(0)
                .entry(EntryDef::new("Tick").intercepted().body(|_, _| Ok(vec![])))
                .manager(move |mgr| {
                    let r = mgr.accept("Tick").map(drop);
                    closed.store(true, Ordering::SeqCst);
                    r
                })
        };
        for bad in [1usize, 2] {
            let rt = Runtime::threaded();
            let closed = Arc::new(AtomicBool::new(false));
            let c = Arc::clone(&closed);
            let err = ShardedBuilder::new("Bad", 3)
                .spawn(&rt, |shard| match shard {
                    0 => watched(Arc::clone(&c)),
                    1 if bad == 1 => echo_builder(1),
                    2 if bad == 2 => ObjectBuilder::new("Bad#2")
                        .entry(EntryDef::new("E").body(|_, _| Ok(vec![])))
                        .entry(EntryDef::new("E").body(|_, _| Ok(vec![]))),
                    _ => watched(Arc::new(AtomicBool::new(false))),
                })
                .unwrap_err();
            assert!(
                matches!(&err, AlpsError::BadDefinition { reason }
                    if bad == 2 || reason.contains("shard 1")),
                "{err:?}"
            );
            let give_up = Instant::now() + Duration::from_secs(10);
            while !closed.load(Ordering::SeqCst) {
                assert!(Instant::now() < give_up, "shard 0 was left running");
                std::thread::yield_now();
            }
            rt.shutdown();
        }
    }

    #[test]
    fn sharded_stats_display_is_nonempty() {
        let s = ShardedStats {
            shards: 2,
            calls: 5,
            ..ShardedStats::default()
        };
        let shown = s.to_string();
        assert!(shown.contains("shards=2"), "{shown}");
        assert!(shown.contains("calls=5"), "{shown}");
    }
}
