//! Regenerate the EXPERIMENTS.md tables, emit machine-readable
//! throughput numbers (`bench-json`), or interactively probe one
//! contended scenario with its protocol stats (`probe`).

use alps_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "bench-json") {
        // `--smoke` shrinks iteration counts ~20x so CI can exercise the
        // full bench path (object setup, contended callers, JSON emission)
        // in seconds; the emitted numbers are not meaningful.
        bench_json::run(args.iter().any(|a| a == "--smoke"));
        return;
    }
    if args.first().map(String::as_str) == Some("lang-bench") {
        // `experiments lang-bench [--smoke]` — ALPS source programs
        // interpreted vs compiled vs hand-written embedded objects, on
        // the real threaded runtime; ratios written to
        // BENCH_lang_compile.json. Both comparison baselines (the
        // interpreter and the embedded objects) are measured in the same
        // run.
        lang_bench::run(args.iter().any(|a| a == "--smoke"));
        return;
    }
    if args.first().map(String::as_str) == Some("remote") {
        // `experiments remote [--smoke]` — distributed objects over real
        // loopback TCP against a self-spawned second process: warm-call
        // overhead vs the in-process managed baseline (measured in the
        // same run), then a seeded transport-fault sweep (drops, delays,
        // duplicates, disconnects) verifying exactly-once execution.
        // Results written to BENCH_remote.json.
        remote::run(args.iter().any(|a| a == "--smoke"));
        return;
    }
    if args.first().map(String::as_str) == Some("remote-server") {
        // Child role for `remote`: bind an ephemeral loopback port,
        // serve the Counter object, report `PORT=<n>` on stdout, exit
        // when the parent closes our stdin.
        remote::serve_child();
        return;
    }
    if args.first().map(String::as_str) == Some("probe") {
        // `experiments probe [managed_execute|combining|both]` — run the
        // contended-intake scenarios once each and dump the objects'
        // protocol stats (drain batches, spin-vs-park resolution, …) for
        // eyeballing a configuration; the timing figures are incidental.
        bench_json::probe(args.get(1).map(String::as_str).unwrap_or("both"));
        return;
    }
    if args.is_empty() || args.iter().any(|a| a == "all") {
        for r in experiments::all() {
            r.print();
        }
        return;
    }
    for a in &args {
        match experiments::by_id(a) {
            Some(r) => r.print(),
            None => {
                eprintln!(
                    "unknown experiment `{a}` (use e1..e10, all, bench-json, lang-bench, probe, or remote)"
                );
                std::process::exit(1);
            }
        }
    }
}

/// `experiments bench-json` — time the call-protocol scenarios from
/// `benches/call_protocol.rs` (both the resolving `call(&str)` API and the
/// interned `call_id` fast path) plus the bounded-buffer transfer from
/// `benches/bounded_buffer.rs`, and write `BENCH_call_protocol.json`.
mod bench_json {
    use std::time::Instant;

    use alps_core::{
        argv, vals, AdmissionPolicy, AlpsError, EntryDef, Guard, ObjectBuilder, ObjectHandle,
        Selected, ShardedBuilder, Ty,
    };
    use alps_paper::bounded_buffer::AlpsBuffer;
    use alps_runtime::{Runtime, Spawn};

    struct Sample {
        name: &'static str,
        ns_per_op: f64,
        ops_per_sec: f64,
    }

    /// Best-of-`reps` wall-clock timing of `iters` runs of `f`.
    fn measure<F: FnMut()>(iters: u64, reps: u32, mut f: F) -> f64 {
        for _ in 0..iters / 4 {
            f(); // warm up
        }
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
            if ns < best {
                best = ns;
            }
        }
        best
    }

    fn sample(name: &'static str, iters: u64, f: impl FnMut()) -> Sample {
        let ns = measure(iters, 5, f);
        println!("  {name}: {ns:.0} ns/op ({:.0} ops/s)", 1e9 / ns);
        Sample {
            name,
            ns_per_op: ns,
            ops_per_sec: 1e9 / ns,
        }
    }

    fn managed_echo(rt: &Runtime) -> ObjectHandle {
        ObjectBuilder::new("Echo")
            .entry(
                EntryDef::new("Echo")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(|_ctx, args| Ok(argv![args[0].clone()])),
            )
            .manager(|mgr| loop {
                let acc = mgr.accept("Echo")?;
                mgr.execute(acc)?;
            })
            .spawn(rt)
            .unwrap()
    }

    fn implicit_echo(rt: &Runtime) -> ObjectHandle {
        ObjectBuilder::new("Plain")
            .entry(
                EntryDef::new("Echo")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .body(|_ctx, args| Ok(argv![args[0].clone()])),
            )
            .spawn(rt)
            .unwrap()
    }

    fn combining_echo(rt: &Runtime) -> ObjectHandle {
        ObjectBuilder::new("Combine")
            .entry(
                EntryDef::new("Echo")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercept_params(1)
                    .intercept_results(1)
                    .body(|_ctx, args| Ok(argv![args[0].clone()])),
            )
            .manager(|mgr| loop {
                match mgr.select(vec![Guard::accept("Echo")])? {
                    Selected::Accepted { call, .. } => {
                        let v = call.params()[0].clone();
                        mgr.finish_accepted(call, vec![v])?;
                    }
                    _ => unreachable!(),
                }
            })
            .spawn(rt)
            .unwrap()
    }

    /// Aggregate throughput of `callers` concurrent callers each issuing
    /// `per_caller` interned `call_id` calls against one shared object:
    /// best-of-`reps` wall time divided by total calls. The 1-caller case
    /// runs its loop on the measuring thread itself — exactly the
    /// methodology behind the PR-1 single-caller numbers it is compared
    /// against (and the conservative choice for the 16-vs-1 throughput
    /// ratio, since a freshly spawned lone caller only measures slower);
    /// multi-caller cases spawn one proc per caller and join them all.
    fn contended(
        mk: fn(&Runtime) -> ObjectHandle,
        callers: u32,
        per_caller: u64,
        reps: u32,
        print_stats: bool,
    ) -> ContendedResult {
        use alps_runtime::metrics::Histogram;
        use std::sync::Arc;

        let rt = Runtime::threaded();
        let obj = mk(&rt);
        let id = obj.entry_id("Echo").unwrap();
        for _ in 0..per_caller / 2 {
            obj.call_id(id, argv![7i64]).unwrap(); // warm up
        }
        // Per-call latency distribution, pooled across every rep (the
        // mean stays best-of-reps; a tail is only honest unfiltered).
        let hist = Arc::new(Histogram::new());
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            if callers == 1 {
                // One clock read per call: call N's end stamp doubles as
                // call N+1's start, so the histogram costs half what
                // bracketing with two `Instant::now()`s would.
                let mut prev = Instant::now();
                for _ in 0..per_caller {
                    obj.call_id(id, argv![7i64]).unwrap();
                    let now = Instant::now();
                    hist.record((now - prev).as_nanos().max(1) as u64);
                    prev = now;
                }
            } else {
                let hs: Vec<_> = (0..callers)
                    .map(|c| {
                        let o2 = obj.clone();
                        let h2 = Arc::clone(&hist);
                        rt.spawn_with(Spawn::new(format!("caller-{c}")), move || {
                            let mut prev = Instant::now();
                            for _ in 0..per_caller {
                                o2.call_id(id, argv![7i64]).unwrap();
                                let now = Instant::now();
                                h2.record((now - prev).as_nanos().max(1) as u64);
                                prev = now;
                            }
                        })
                    })
                    .collect();
                for h in hs {
                    h.join().unwrap();
                }
            }
            let total = callers as u64 * per_caller;
            let ns = t0.elapsed().as_nanos() as f64 / total as f64;
            if ns < best {
                best = ns;
            }
        }
        if print_stats {
            println!("    stats: {}", obj.stats());
        }
        obj.shutdown();
        rt.shutdown();
        ContendedResult {
            ns_per_op: best,
            ops_per_sec: 1e9 / best,
            p50_ns: hist.percentile(50.0),
            p99_ns: hist.percentile(99.0),
        }
    }

    /// Closed-loop timing plus the caller-side latency tail (pooled over
    /// all reps — best-of for the mean, unfiltered for the percentiles).
    struct ContendedResult {
        ns_per_op: f64,
        ops_per_sec: f64,
        p50_ns: u64,
        p99_ns: u64,
    }

    /// `experiments probe` — the old standalone batchprobe binary, folded
    /// in: run the contended scenarios once per caller count and print
    /// the object's full protocol stats next to the timing.
    pub fn probe(which: &str) {
        for (label, mk) in [
            (
                "managed_execute",
                managed_echo as fn(&Runtime) -> ObjectHandle,
            ),
            ("combining", combining_echo as fn(&Runtime) -> ObjectHandle),
        ] {
            if which != "both" && which != label {
                continue;
            }
            for callers in [1u32, 4, 16] {
                let per_caller = if callers == 1 {
                    20_000
                } else {
                    4_000 / callers as u64
                };
                let r = contended(mk, callers, per_caller, 3, true);
                println!(
                    "  {label}/callers_{callers}: {:.0} ns/op ({:.0} ops/s, p50 {} p99 {})",
                    r.ns_per_op, r.ops_per_sec, r.p50_ns, r.p99_ns
                );
            }
        }
    }

    /// Number of distinct hot keys the sharding sweep's callers cycle
    /// through — small on purpose, so concurrent callers keep finding
    /// the same read already in flight.
    const HOT_KEYS: u64 = 4;

    /// One shard of the hot-read group: a managed-execute object whose
    /// body waits 100µs per read — a dictionary-lookup-sized unit of
    /// I/O (the paper's §2.7.1 dictionary models a 500µs disk lookup;
    /// `sleep` parks the green task like a real I/O wait would). This is
    /// what the sweep's two mechanisms act on: sharding lets the waits
    /// of distinct keys overlap across managers, and cross-shard
    /// combining dedupes the waits for the *same* key entirely.
    fn hot_read_shard(shard: usize) -> ObjectBuilder {
        ObjectBuilder::new(format!("Hot#{shard}"))
            .entry(
                EntryDef::new("Read")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(|ctx, args| {
                        ctx.sleep(100);
                        Ok(argv![args[0].clone()])
                    }),
            )
            .manager(|mgr| loop {
                let acc = mgr.accept("Read")?;
                mgr.execute(acc)?;
            })
    }

    /// Aggregate throughput of `callers` green tasks hammering a hot-key
    /// read workload on an `S`-shard group riding the work-stealing pool
    /// executor. `combined` switches the callers from plain routed
    /// `call_id` to `call_id_combined` (cross-shard duplicate-read
    /// combining). Returns best-of-`reps` (ns/op, ops/s).
    /// Returns best-of-`reps` (ns/op, ops/s) plus caller-side p50/p99
    /// round-trip latency (ns, pooled over all reps).
    fn sharded_hot_read(
        shards: usize,
        callers: u32,
        per_caller: u64,
        reps: u32,
        combined: bool,
    ) -> (f64, f64, u64, u64) {
        let hist = std::sync::Arc::new(alps_runtime::metrics::Histogram::new());
        let rt = Runtime::thread_pool(4);
        let group = ShardedBuilder::new("Hot", shards)
            .spawn(&rt, hot_read_shard)
            .unwrap();
        let id = group.entry_id("Read").unwrap();
        for k in 0..HOT_KEYS as i64 {
            group.call_id(id, argv![k]).unwrap(); // warm up + route check
        }
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
            use std::sync::Arc;
            // Start barrier: a caller that begins the key sequence even a
            // couple of bursts late never meets the herd again (it leads
            // every key solo), so spawn stagger alone can halve the dedup
            // factor. Hold everyone at the gate until all are spawned.
            let ready = Arc::new(AtomicU32::new(0));
            let go = Arc::new(AtomicBool::new(false));
            let hs: Vec<_> = (0..callers)
                .map(|c| {
                    let g2 = group.clone();
                    let rt2 = rt.clone();
                    let (ready2, go2) = (Arc::clone(&ready), Arc::clone(&go));
                    let h2 = Arc::clone(&hist);
                    rt.spawn_with(Spawn::new(format!("hot-{c}")), move || {
                        ready2.fetch_add(1, Ordering::SeqCst);
                        while !go2.load(Ordering::Acquire) {
                            rt2.yield_now();
                        }
                        let mut prev = Instant::now();
                        for j in 0..per_caller {
                            // Every caller walks the SAME key sequence —
                            // the thundering-herd shape combining exists
                            // for: concurrent callers keep finding their
                            // read already in flight.
                            let k = (j % HOT_KEYS) as i64;
                            if combined {
                                g2.call_id_combined(id, argv![k]).unwrap();
                            } else {
                                g2.call_id(id, argv![k]).unwrap();
                            }
                            let now = Instant::now();
                            h2.record((now - prev).as_nanos().max(1) as u64);
                            prev = now;
                        }
                    })
                })
                .collect();
            while ready.load(Ordering::SeqCst) < callers {
                std::thread::yield_now();
            }
            let t0 = Instant::now();
            go.store(true, Ordering::Release);
            for h in hs {
                h.join().unwrap();
            }
            let total = u64::from(callers) * per_caller;
            let ns = t0.elapsed().as_nanos() as f64 / total as f64;
            if ns < best {
                best = ns;
            }
        }
        if std::env::var_os("SHARD_STATS").is_some() {
            println!("    stats: {}", group.stats());
        }
        group.shutdown();
        rt.shutdown();
        (
            best,
            1e9 / best,
            hist.percentile(50.0),
            hist.percentile(99.0),
        )
    }

    /// A serial managed object whose body burns a couple of microseconds,
    /// so a 16-caller storm genuinely outruns the manager. With `shed` the
    /// intake ring is capped at 4 and overflow is answered `Overloaded`;
    /// without it callers park until the manager catches up (backpressure).
    fn storm_object(rt: &Runtime, shed: bool) -> ObjectHandle {
        let mut b = ObjectBuilder::new("Storm")
            .entry(
                EntryDef::new("Work")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(|_ctx, args| {
                        for i in 0..2_000u64 {
                            std::hint::black_box(i);
                        }
                        Ok(argv![args[0].clone()])
                    }),
            )
            .manager(|mgr| loop {
                let acc = mgr.accept("Work")?;
                mgr.execute(acc)?;
            });
        if shed {
            b = b.admission(AdmissionPolicy::ShedNewest).intake_capacity(4);
        }
        b.spawn(rt).unwrap()
    }

    /// 16-caller overload storm: every caller fires `per_caller` calls and
    /// every call gets an *answer* — either a completed body or, under
    /// ShedNewest, an immediate `Overloaded`. Returns best-of-`reps`
    /// (ns per answered call, answered calls/s, completed, shed) — the
    /// completed/shed split is from the best rep.
    fn overload_storm(
        shed: bool,
        callers: u32,
        per_caller: u64,
        reps: u32,
    ) -> (f64, f64, u64, u64) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let rt = Runtime::threaded();
        let obj = storm_object(&rt, shed);
        let id = obj.entry_id("Work").unwrap();
        for _ in 0..per_caller {
            obj.call_id(id, argv![7i64]).unwrap(); // warm up
        }
        let mut best = (f64::INFINITY, 0.0, 0, 0);
        for _ in 0..reps {
            let done = Arc::new(AtomicU64::new(0));
            let dropped = Arc::new(AtomicU64::new(0));
            let t0 = Instant::now();
            let hs: Vec<_> = (0..callers)
                .map(|c| {
                    let o2 = obj.clone();
                    let (d2, s2) = (Arc::clone(&done), Arc::clone(&dropped));
                    rt.spawn_with(Spawn::new(format!("storm-{c}")), move || {
                        for _ in 0..per_caller {
                            match o2.call_id(id, argv![7i64]) {
                                Ok(_) => {
                                    d2.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(AlpsError::Overloaded { .. }) => {
                                    s2.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => panic!("storm caller: {e}"),
                            }
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            let total = callers as u64 * per_caller;
            let ns = t0.elapsed().as_nanos() as f64 / total as f64;
            if ns < best.0 {
                best = (
                    ns,
                    1e9 / ns,
                    done.load(Ordering::Relaxed),
                    dropped.load(Ordering::Relaxed),
                );
            }
        }
        obj.shutdown();
        rt.shutdown();
        best
    }

    pub fn run(smoke: bool) {
        let scale = |iters: u64| if smoke { (iters / 20).max(8) } else { iters };
        let mut call_protocol = Vec::new();

        println!("call_protocol:");
        for (label_str, label_id, mk) in [
            (
                "managed_execute/call_str",
                "managed_execute/call_id",
                managed_echo as fn(&Runtime) -> ObjectHandle,
            ),
            (
                "implicit_start/call_str",
                "implicit_start/call_id",
                implicit_echo as fn(&Runtime) -> ObjectHandle,
            ),
            (
                "combining/call_str",
                "combining/call_id",
                combining_echo as fn(&Runtime) -> ObjectHandle,
            ),
        ] {
            let iters = scale(if label_str.starts_with("implicit") {
                200_000
            } else {
                20_000
            });
            let rt = Runtime::threaded();
            let obj = mk(&rt);
            call_protocol.push(sample(label_str, iters, || {
                obj.call("Echo", vals![7i64]).unwrap();
            }));
            let id = obj.entry_id("Echo").unwrap();
            call_protocol.push(sample(label_id, iters, || {
                obj.call_id(id, argv![7i64]).unwrap();
            }));
            obj.shutdown();
            rt.shutdown();
        }

        println!("bounded_buffer:");
        const BATCH: i64 = 200;
        let mut bounded = Vec::new();
        {
            let rt = Runtime::threaded();
            let buf = AlpsBuffer::spawn(&rt, 16).unwrap();
            // The comparison baseline — the seed's string-resolving
            // `call(&str)` protocol — re-measured in this same run on the
            // same build and machine, so the reported speedup can never
            // drift as the machine or surrounding code changes.
            let mut s0 = sample("alps_manager/transfer_call_str", scale(50), || {
                let (o2, rt2) = (buf.object().clone(), rt.clone());
                let p = rt.spawn_with(Spawn::new("p"), move || {
                    let _ = rt2;
                    for i in 0..BATCH {
                        o2.call("Deposit", vals![i]).unwrap();
                    }
                });
                for _ in 0..BATCH {
                    buf.object().call("Remove", vec![]).unwrap();
                }
                p.join().unwrap();
            });
            s0.ns_per_op /= BATCH as f64;
            s0.ops_per_sec *= BATCH as f64;
            bounded.push(s0);
            let mut s = sample("alps_manager/transfer", scale(50), || {
                let (b2, rt2) = (buf.clone(), rt.clone());
                let p = rt.spawn_with(Spawn::new("p"), move || {
                    for i in 0..BATCH {
                        b2.deposit(&rt2, i).unwrap();
                    }
                });
                for _ in 0..BATCH {
                    buf.remove(&rt).unwrap();
                }
                p.join().unwrap();
            });
            // Per-element numbers are what E1 reports.
            s.ns_per_op /= BATCH as f64;
            s.ops_per_sec *= BATCH as f64;
            bounded.push(s);
            buf.object().shutdown();
            rt.shutdown();
        }

        // Contended intake: 1/4/16 concurrent callers per managed object.
        // With one caller this is plain round-trip latency; with many, the
        // manager's batch drain amortises wakeups across every queued call
        // and the combining manager replies in-line, so aggregate
        // throughput should rise well past the single-caller figure.
        println!("manager_batch:");
        // (callers, ns_per_op, ops_per_sec, p50_ns, p99_ns) rows per
        // scenario label.
        type BatchRows = Vec<(u32, f64, f64, u64, u64)>;
        let reps = if smoke { 1 } else { 5 };
        let caller_counts: [u32; 3] = [1, 4, 16];
        let mut batch: Vec<(&str, BatchRows)> = Vec::new();
        for (label, mk) in [
            (
                "managed_execute",
                managed_echo as fn(&Runtime) -> ObjectHandle,
            ),
            ("combining", combining_echo as fn(&Runtime) -> ObjectHandle),
        ] {
            let mut rows = Vec::new();
            for callers in caller_counts {
                // 1-caller matches the sample() iteration count (it is
                // the latency figure compared against PR-1); multi-caller
                // rounds split a fixed op budget so spawn/join cost stays
                // amortised.
                let per_caller = if callers == 1 {
                    scale(20_000)
                } else {
                    scale(4_000) / callers as u64
                };
                let r = contended(mk, callers, per_caller, reps, false);
                println!(
                    "  {label}/callers_{callers}: {:.0} ns/op ({:.0} ops/s, p50 {} p99 {})",
                    r.ns_per_op, r.ops_per_sec, r.p50_ns, r.p99_ns
                );
                rows.push((callers, r.ns_per_op, r.ops_per_sec, r.p50_ns, r.p99_ns));
            }
            batch.push((label, rows));
        }

        // The contended rows compare against this run's own 1-caller
        // figures and the string-resolving `call(&str)` latency measured
        // minutes ago in the call_protocol section — never against
        // constants captured on another commit or machine, which drift
        // stale as the code and hardware move.
        let row = |label: &str, callers: u32| -> (f64, f64) {
            batch
                .iter()
                .find(|(l, _)| *l == label)
                .and_then(|(_, rows)| rows.iter().find(|(c, ..)| *c == callers))
                .map(|&(_, ns, ops, _, _)| (ns, ops))
                .unwrap()
        };
        let single = |n: &str| -> f64 {
            call_protocol
                .iter()
                .find(|s| s.name == n)
                .map(|s| s.ns_per_op)
                .unwrap()
        };
        let base_managed = single("managed_execute/call_str");
        let base_combining = single("combining/call_str");
        let sp_batch_managed = base_managed / row("managed_execute", 1).0;
        let sp_batch_combining = base_combining / row("combining", 1).0;
        let managed_16_over_1 = row("managed_execute", 16).1 / row("managed_execute", 1).1;
        let combining_16_over_1 = row("combining", 16).1 / row("combining", 1).1;

        let mut bjson = String::from("{\n  \"bench\": \"manager_batch\",\n");
        bjson.push_str("  \"baseline_remeasured\": true,\n");
        bjson.push_str(
            "  \"unit\": {\"ns_per_op\": \"wall nanoseconds per call across all callers (best of reps)\", \"ops_per_sec\": \"aggregate calls per second\", \"p50_ns/p99_ns\": \"caller-side round-trip latency percentiles, pooled over all reps\"},\n",
        );
        for (label, rows) in &batch {
            bjson.push_str(&format!("  \"{label}\": {{\n"));
            for (i, (callers, ns, ops, p50, p99)) in rows.iter().enumerate() {
                bjson.push_str(&format!(
                    "    \"callers_{callers}\": {{\"ns_per_op\": {ns:.1}, \"ops_per_sec\": {ops:.0}, \"p50_ns\": {p50}, \"p99_ns\": {p99}}}{}\n",
                    if i + 1 == rows.len() { "" } else { "," }
                ));
            }
            bjson.push_str("  },\n");
        }
        bjson.push_str(&format!(
            "  \"baseline\": {{\"note\": \"string-resolving call(&str) latency re-measured in this run (call_protocol section, same build/machine)\", \"managed_execute_ns\": {base_managed:.1}, \"combining_ns\": {base_combining:.1}}},\n"
        ));
        bjson.push_str(&format!(
            "  \"speedup_1_caller_vs_baseline\": {{\"managed_execute\": {sp_batch_managed:.2}, \"combining\": {sp_batch_combining:.2}}},\n"
        ));
        bjson.push_str(&format!(
            "  \"throughput_16_callers_over_1\": {{\"managed_execute\": {managed_16_over_1:.2}, \"combining\": {combining_16_over_1:.2}}}\n}}\n"
        ));
        std::fs::write("BENCH_manager_batch.json", &bjson).expect("write BENCH_manager_batch.json");
        println!(
            "speedups (1 caller vs same-run call_str baseline): managed {sp_batch_managed:.2}x, combining {sp_batch_combining:.2}x"
        );
        println!(
            "throughput, 16 callers vs 1: managed {managed_16_over_1:.2}x, combining {combining_16_over_1:.2}x"
        );
        println!("wrote BENCH_manager_batch.json");

        // Overload: the same 16-caller storm against a deliberately slow
        // serial manager, once with Block (every call parks until served)
        // and once with ShedNewest (ring capped at 4, overflow answered
        // Overloaded immediately). Shedding trades completed work for
        // bounded time-to-answer, so answered-calls/s should be at least
        // the Block figure and the shed split nonzero.
        println!("overload:");
        let per_caller = scale(4_000) / 16;
        let (blk_ns, blk_ops, blk_done, blk_shed) = overload_storm(false, 16, per_caller, reps);
        println!(
            "  block/callers_16: {blk_ns:.0} ns/answer ({blk_ops:.0} answers/s, {blk_done} completed, {blk_shed} shed)"
        );
        let (sh_ns, sh_ops, sh_done, sh_shed) = overload_storm(true, 16, per_caller, reps);
        println!(
            "  shed_newest/callers_16: {sh_ns:.0} ns/answer ({sh_ops:.0} answers/s, {sh_done} completed, {sh_shed} shed)"
        );
        let total = 16 * per_caller;
        let shed_frac = sh_shed as f64 / total as f64;
        let answered_speedup = sh_ops / blk_ops;
        let mut ojson = String::from("{\n  \"bench\": \"overload\",\n");
        // `block` is the comparison baseline, measured seconds earlier in
        // this same run.
        ojson.push_str("  \"baseline_remeasured\": true,\n");
        ojson.push_str(
            "  \"unit\": {\"ns_per_answer\": \"wall nanoseconds per answered call (completed or shed) across 16 callers\", \"answers_per_sec\": \"aggregate answered calls per second\"},\n",
        );
        ojson.push_str(&format!(
            "  \"block\": {{\"ns_per_answer\": {blk_ns:.1}, \"answers_per_sec\": {blk_ops:.0}, \"completed\": {blk_done}, \"shed\": {blk_shed}}},\n"
        ));
        ojson.push_str(&format!(
            "  \"shed_newest\": {{\"ns_per_answer\": {sh_ns:.1}, \"answers_per_sec\": {sh_ops:.0}, \"completed\": {sh_done}, \"shed\": {sh_shed}, \"intake_capacity\": 4}},\n"
        ));
        ojson.push_str(&format!(
            "  \"shed_fraction\": {shed_frac:.3},\n  \"answered_throughput_shed_over_block\": {answered_speedup:.2}\n}}\n"
        ));
        std::fs::write("BENCH_overload.json", &ojson).expect("write BENCH_overload.json");
        println!(
            "overload, 16 callers: shed_newest answers {answered_speedup:.2}x faster than block ({:.0}% shed)",
            shed_frac * 100.0
        );
        println!("wrote BENCH_overload.json");

        // Sharded object groups on the work-stealing pool executor: 16
        // green callers read a hot set of 4 keys, body cost a few µs of
        // CPU, shard count swept over {1, 2, 4, 8}. `managed_execute`
        // rows issue plain routed calls (every call executes a body);
        // `combined_read` rows go through `call_id_combined`, which
        // dedupes duplicate in-flight reads on the caller side before
        // they reach any shard's intake. The body is a 100µs modeled
        // I/O wait (the paper's §2.7.1 dictionary is a disk lookup), so
        // even on this single-CPU container both mechanisms show
        // honestly: a 1-shard manager serializes every wait (`execute`
        // blocks the manager for the body), S shards overlap up to S
        // waits for distinct keys, and combining removes the duplicated
        // waits for the same key altogether.
        println!("sharding:");
        let sh_callers: u32 = 16;
        let sh_per_caller = scale(4_000) / u64::from(sh_callers);
        let shard_counts: [usize; 4] = [1, 2, 4, 8];
        // (shards, ns/op, ops/s, p50_ns, p99_ns)
        type ShardRow = (usize, f64, f64, u64, u64);
        let mut shard_rows: Vec<(&str, Vec<ShardRow>)> = Vec::new();
        for (label, combined) in [("managed_execute", false), ("combined_read", true)] {
            let mut rows = Vec::new();
            for shards in shard_counts {
                let (ns, ops, p50, p99) =
                    sharded_hot_read(shards, sh_callers, sh_per_caller, reps, combined);
                println!("  {label}/shards_{shards}: {ns:.0} ns/op ({ops:.0} ops/s, p50 {p50} p99 {p99})");
                rows.push((shards, ns, ops, p50, p99));
            }
            shard_rows.push((label, rows));
        }
        let srow = |label: &str, shards: usize| -> (f64, f64) {
            shard_rows
                .iter()
                .find(|(l, _)| *l == label)
                .and_then(|(_, rows)| rows.iter().find(|(s, ..)| *s == shards))
                .map(|&(_, ns, ops, _, _)| (ns, ops))
                .unwrap()
        };
        let sharding_speedup = srow("combined_read", 8).1 / srow("managed_execute", 1).1;
        let mut sjson = String::from("{\n  \"bench\": \"sharding\",\n");
        // The 1-shard managed rows are the comparison baseline, measured
        // in this same run.
        sjson.push_str("  \"baseline_remeasured\": true,\n");
        sjson.push_str(
            "  \"unit\": {\"ns_per_op\": \"wall nanoseconds per read across all callers (best of reps)\", \"ops_per_sec\": \"aggregate reads per second\", \"p50_ns/p99_ns\": \"caller-side round-trip latency percentiles, pooled over all reps\"},\n",
        );
        sjson.push_str(&format!(
            "  \"workload\": {{\"callers\": {sh_callers}, \"hot_keys\": {HOT_KEYS}, \"executor\": \"thread_pool(4)\", \"body\": \"100us modeled I/O wait + echo (dictionary-lookup-sized read)\"}},\n"
        ));
        for (label, rows) in &shard_rows {
            sjson.push_str(&format!("  \"{label}\": {{\n"));
            for (i, (shards, ns, ops, p50, p99)) in rows.iter().enumerate() {
                sjson.push_str(&format!(
                    "    \"shards_{shards}\": {{\"ns_per_op\": {ns:.1}, \"ops_per_sec\": {ops:.0}, \"p50_ns\": {p50}, \"p99_ns\": {p99}}}{}\n",
                    if i + 1 == rows.len() { "" } else { "," }
                ));
            }
            sjson.push_str("  },\n");
        }
        sjson.push_str(&format!(
            "  \"note\": \"body is a modeled I/O wait, so the ratio composes I/O overlap across shards with duplicate waits removed by cross-shard combining; measured on a single-CPU container (CPU-parallel speedup would come on top)\",\n  \"speedup_8_shard_combined_over_1_shard_managed\": {sharding_speedup:.2}\n}}\n"
        ));
        std::fs::write("BENCH_sharding.json", &sjson).expect("write BENCH_sharding.json");
        println!(
            "sharding, 16 callers: 8-shard combined reads {sharding_speedup:.2}x the 1-shard managed baseline"
        );
        println!("wrote BENCH_sharding.json");

        // Baselines are never imported across runs: the comparison point
        // — the string-resolving `call(&str)` protocol, which is what the
        // seed's call path did on every call — is re-measured above in
        // this same process, on this build and machine. (Earlier PRs
        // compared against constants captured at older commits; those
        // drifted stale the moment the machine or surrounding code
        // changed.)
        let find = |n: &str| -> f64 {
            call_protocol
                .iter()
                .find(|s| s.name == n)
                .map(|s| s.ns_per_op)
                .unwrap()
        };
        let sp_managed = find("managed_execute/call_str") / find("managed_execute/call_id");
        let sp_implicit = find("implicit_start/call_str") / find("implicit_start/call_id");
        let sp_combining = find("combining/call_str") / find("combining/call_id");
        let bfind = |n: &str| -> f64 {
            bounded
                .iter()
                .find(|s| s.name == n)
                .map(|s| s.ops_per_sec)
                .unwrap()
        };
        let sp_bounded = bfind("alps_manager/transfer") / bfind("alps_manager/transfer_call_str");

        let mut json = String::from("{\n  \"bench\": \"call_protocol\",\n");
        json.push_str("  \"baseline_remeasured\": true,\n");
        json.push_str(
            "  \"unit\": {\"ns_per_op\": \"nanoseconds per call\", \"ops_per_sec\": \"calls per second\"},\n",
        );
        for (group, samples) in [
            ("call_protocol", &call_protocol),
            ("bounded_buffer", &bounded),
        ] {
            json.push_str(&format!("  \"{group}\": {{\n"));
            for (i, s) in samples.iter().enumerate() {
                json.push_str(&format!(
                    "    \"{}\": {{\"ns_per_op\": {:.1}, \"ops_per_sec\": {:.0}}}{}\n",
                    s.name,
                    s.ns_per_op,
                    s.ops_per_sec,
                    if i + 1 == samples.len() { "" } else { "," }
                ));
            }
            json.push_str("  },\n");
        }
        json.push_str(
            "  \"baseline\": {\"note\": \"the call_str rows above: the string-resolving call(&str) protocol (the seed's call path), re-measured in this run on the same build/machine\"},\n",
        );
        json.push_str(&format!(
            "  \"speedup_call_id_over_call_str\": {{\"managed_execute\": {sp_managed:.2}, \"implicit_start\": {sp_implicit:.2}, \"combining\": {sp_combining:.2}, \"bounded_buffer_transfer\": {sp_bounded:.2}}}\n}}\n"
        ));

        std::fs::write("BENCH_call_protocol.json", &json).expect("write BENCH_call_protocol.json");
        println!(
            "speedups (call_id vs same-run call_str baseline): managed {sp_managed:.2}x, implicit {sp_implicit:.2}x, combining {sp_combining:.2}x, bounded transfer {sp_bounded:.2}x"
        );
        println!("wrote BENCH_call_protocol.json");
    }
}

/// `experiments lang-bench` — how close does compiled ALPS source get to
/// hand-written embedded objects, and how far ahead of the interpreter is
/// it? The headline scenario is the paper's bounded buffer moving real
/// messages: 4 producers and 4 consumers exchange 8-word messages
/// through a 256-slot in-place table (the §2.8.2 slot-table layout that
/// motivates the parallel buffer — long messages should not be copied),
/// run three ways in the same process:
///
/// * **interpreted** — `run_checked`, the tree-walking interpreter;
/// * **compiled** — `run_compiled`, the lowering pipeline emitting
///   direct `ObjectBuilder` objects with interned ids and flat frames;
/// * **embedded** — a hand-written `ObjectBuilder` object with the same
///   entries, manager, and slot table, driven by plain Rust processes.
///
/// The workload is where resolution pays: the interpreter's string-keyed
/// frames force a read-clone-write round trip over the whole table on
/// every `set`/`get`, while the compiled executor's resolved `VarRef`s
/// mutate the slot in place — same observable semantics, measured in the
/// same run (`baseline_remeasured`). The seven example programs also run
/// interpreted vs compiled end-to-end on the deterministic simulator.
/// Everything lands in `BENCH_lang_compile.json`.
mod lang_bench {
    use std::sync::Arc;
    use std::time::Instant;

    use alps_core::{EntryDef, Guard, ObjectBuilder, Selected, Ty, Value};
    use alps_lang::{check, parse, run_checked, run_compiled, Checked, Output};
    use alps_runtime::{Runtime, SimRuntime, Spawn};
    use parking_lot::Mutex;

    /// Slots in the buffer's message table.
    const CAP: usize = 256;
    /// Words per message.
    const WORDS: usize = 8;

    /// The bounded-buffer hot loop over real messages, parameterized by
    /// the par fan-out and the per-driver element count: `k` producers
    /// stamp and deposit 8-word messages, `k` consumers remove and
    /// checksum them, through one managed 256-slot in-place table.
    fn bounded_source(k: usize, n: u64) -> String {
        let branches = (0..k)
            .map(|_| format!("Drv.Produce({n})"))
            .chain((0..k).map(|_| format!("Drv.Consume({n})")))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            r#"
object Buffer defines
  proc Deposit(M: list(int));
  proc Remove() returns (list(int));
end Buffer;
object Buffer implements
  var Store: list(list(int));
  var Scratch: list(int);
  var In: int;
  var Out: int;
  var k: int;

  proc Deposit(M: list(int));
  begin
    set(Store, In, M);
    In := (In + 1) mod {cap}
  end Deposit;

  proc Remove() returns (list(int));
  var M2: list(int);
  begin
    M2 := get(Store, Out);
    Out := (Out + 1) mod {cap};
    return (M2)
  end Remove;

  manager
    intercepts Deposit(list(int)), Remove;
    var Count: int;
    begin
      loop
        accept Deposit(M) when Count < {cap} =>
          execute Deposit(M);
          Count := Count + 1
      or
        accept Remove when Count > 0 =>
          execute Remove;
          Count := Count - 1
      end loop
    end;

  begin
    for k := 1 to {words} do push(Scratch, 0) end for;
    for k := 1 to {cap} do push(Store, Scratch) end for
  end Buffer;
object Drv defines
  proc Produce(n: int);
  proc Consume(n: int);
end Drv;
object Drv implements
  proc Produce[1..{k}](n: int);
  var i: int;
  var Msg: list(int);
  var crc: int;
  begin
    for i := 1 to {words} do push(Msg, 0) end for;
    for i := 1 to n do
      crc := (i * 31) mod 65521;
      set(Msg, 0, i);
      set(Msg, 1, crc);
      Buffer.Deposit(Msg)
    end for
  end Produce;
  proc Consume[1..{k}](n: int);
  var i: int;
  var Msg: list(int);
  var crc: int;
  begin
    for i := 1 to n do
      Msg := Buffer.Remove();
      crc := (get(Msg, 0) + get(Msg, 1)) mod 65521
    end for
  end Consume;
end Drv;
main begin
  par {branches} end par
end
"#,
            cap = CAP,
            words = WORDS,
            k = k,
            branches = branches
        )
    }

    fn run_lang(checked: &Arc<Checked>, compiled: bool) {
        let rt = Runtime::threaded();
        let (out, _buf) = Output::buffer();
        let c = Arc::clone(checked);
        if compiled {
            run_compiled(&rt, &c, out).expect("compiled run");
        } else {
            run_checked(&rt, &c, out).expect("interpreted run");
        }
        rt.shutdown();
    }

    /// The hand-written counterpart: the same object shape — intercepted
    /// Deposit/Remove, a counting manager, a `CAP`-slot message table
    /// written in place — built directly against `ObjectBuilder`.
    fn run_embedded(k: usize, n: u64) {
        let rt = Runtime::threaded();
        let store: Arc<Mutex<Vec<Value>>> = Arc::new(Mutex::new(
            (0..CAP)
                .map(|_| Value::List(vec![Value::Int(0); WORDS]))
                .collect(),
        ));
        let inp = Arc::new(Mutex::new(0usize));
        let outp = Arc::new(Mutex::new(0usize));
        let (s_dep, s_rem) = (Arc::clone(&store), Arc::clone(&store));
        let (i_dep, o_rem) = (Arc::clone(&inp), Arc::clone(&outp));
        let obj = ObjectBuilder::new("Buffer")
            .entry(
                EntryDef::new("Deposit")
                    .params([Ty::List(Box::new(Ty::Int))])
                    .intercepted()
                    .body(move |_ctx, args| {
                        let mut i = i_dep.lock();
                        s_dep.lock()[*i] = args[0].clone();
                        *i = (*i + 1) % CAP;
                        Ok(vec![])
                    }),
            )
            .entry(
                EntryDef::new("Remove")
                    .results([Ty::List(Box::new(Ty::Int))])
                    .intercepted()
                    .body(move |_ctx, _| {
                        let mut o = o_rem.lock();
                        let v = s_rem.lock()[*o].clone();
                        *o = (*o + 1) % CAP;
                        Ok(vec![v])
                    }),
            )
            .manager(move |mgr| {
                let mut count = 0usize;
                loop {
                    let sel = mgr.select(vec![
                        Guard::accept("Deposit").when(move |_| count < CAP),
                        Guard::accept("Remove").when(move |_| count > 0),
                    ])?;
                    match sel {
                        Selected::Accepted { guard, call } => {
                            let deposit = guard == 0;
                            mgr.execute(call)?;
                            if deposit {
                                count += 1;
                            } else {
                                count -= 1;
                            }
                        }
                        _ => unreachable!("only accept guards"),
                    }
                }
            })
            .spawn(&rt)
            .unwrap();
        let dep = obj.entry_id("Deposit").unwrap();
        let rem = obj.entry_id("Remove").unwrap();
        let mut hs = Vec::with_capacity(2 * k);
        for p in 0..k {
            let h = obj.clone();
            hs.push(rt.spawn_with(Spawn::new(format!("prod-{p}")), move || {
                let mut msg = vec![Value::Int(0); WORDS];
                for i in 1..=n as i64 {
                    let crc = (i * 31) % 65521;
                    msg[0] = Value::Int(i);
                    msg[1] = Value::Int(crc);
                    h.call_id(dep, vec![Value::List(msg.clone())]).unwrap();
                }
            }));
        }
        for c in 0..k {
            let h = obj.clone();
            hs.push(rt.spawn_with(Spawn::new(format!("cons-{c}")), move || {
                for _ in 0..n {
                    let r = h.call_id(rem, vec![]).unwrap();
                    let msg = r.as_slice()[0].as_list().unwrap();
                    let _ = (msg[0].as_int().unwrap() + msg[1].as_int().unwrap()) % 65521;
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        obj.shutdown();
        rt.shutdown();
    }

    struct Tri {
        interpreted: f64,
        compiled: f64,
        embedded: f64,
    }

    /// Measure the three modes interleaved round-robin (so slow drift in
    /// machine load hits every mode equally), best of `reps` cycles plus
    /// one warm-up cycle, wall nanoseconds per element for one full
    /// program run (spawn, transfer, teardown) on the threaded runtime.
    fn bounded_tri(k: usize, n: u64, reps: u32) -> Tri {
        let src = bounded_source(k, n);
        let checked = Arc::new(check(parse(&src).expect("parse")).expect("check"));
        let elems = k as u64 * n;
        let mut best = [f64::INFINITY; 3];
        for _ in 0..=reps {
            for (mi, mode) in ["interpreted", "compiled", "embedded"].iter().enumerate() {
                let t0 = Instant::now();
                match *mode {
                    "interpreted" => run_lang(&checked, false),
                    "compiled" => run_lang(&checked, true),
                    _ => run_embedded(k, n),
                }
                best[mi] = best[mi].min(t0.elapsed().as_nanos() as f64 / elems as f64);
            }
        }
        for (mi, mode) in ["interpreted", "compiled", "embedded"].iter().enumerate() {
            println!("  bounded k={k}/{mode}: {:.0} ns/elem", best[mi]);
        }
        Tri {
            interpreted: best[0],
            compiled: best[1],
            embedded: best[2],
        }
    }

    pub fn run(smoke: bool) {
        let (n, reps) = if smoke { (400, 2) } else { (3_000, 4) };

        println!("lang_compile (bounded-buffer message hot loop, threaded runtime):");
        let contended = bounded_tri(4, n, reps);
        let single = bounded_tri(1, n, reps);

        // The seven example programs, end-to-end on the deterministic
        // simulator (parse/check hoisted out; spawn + run + teardown
        // timed). Wall time per full program run, best of reps.
        println!("examples (SimRuntime, whole-program wall time):");
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/alps");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("examples/alps")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "alps"))
            .collect();
        paths.sort();
        let mut examples = Vec::new();
        for path in &paths {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(path).expect("read example");
            let checked = Arc::new(check(parse(&src).expect("parse")).expect("check"));
            let time_mode = |compiled: bool| -> f64 {
                let mut best = f64::INFINITY;
                for _ in 0..=reps {
                    let c = Arc::clone(&checked);
                    let (out, _buf) = Output::buffer();
                    let t0 = Instant::now();
                    let sim = SimRuntime::new();
                    sim.run(move |rt| {
                        if compiled {
                            run_compiled(rt, &c, out).expect("run")
                        } else {
                            run_checked(rt, &c, out).expect("run")
                        }
                    })
                    .expect("sim");
                    best = best.min(t0.elapsed().as_nanos() as f64 / 1_000.0);
                }
                best
            };
            let us_interp = time_mode(false);
            let us_compiled = time_mode(true);
            println!(
                "  {name}: interpreted {us_interp:.0} us, compiled {us_compiled:.0} us ({:.2}x)",
                us_interp / us_compiled
            );
            examples.push((name, us_interp, us_compiled));
        }

        let compiled_over_embedded = contended.compiled / contended.embedded;
        let interp_over_compiled = contended.interpreted / contended.compiled;
        let targets_met = compiled_over_embedded <= 1.5 && interp_over_compiled >= 5.0;

        let mut json = String::from("{\n  \"bench\": \"lang_compile\",\n");
        json.push_str("  \"baseline_remeasured\": true,\n");
        json.push_str(
            "  \"unit\": {\"ns_per_elem\": \"wall nanoseconds per element moved through the buffer, whole run (spawn + transfer + teardown), best of reps\", \"us\": \"whole-program wall microseconds on SimRuntime, best of reps\"},\n",
        );
        json.push_str(&format!(
            "  \"workload\": {{\"elements_per_driver\": {n}, \"slot_table_capacity\": {CAP}, \"message_words\": {WORDS}, \"stamp\": \"producer writes seq + crc into words 0..2, consumer checksums them\", \"reps\": {reps}, \"measurement\": \"modes interleaved round-robin, best of reps\", \"runtime\": \"threaded\", \"smoke\": {smoke}}},\n"
        ));
        json.push_str(&format!(
            "  \"bounded_buffer_contended\": {{\"producers\": 4, \"consumers\": 4, \"interpreted_ns_per_elem\": {:.1}, \"compiled_ns_per_elem\": {:.1}, \"embedded_ns_per_elem\": {:.1}}},\n",
            contended.interpreted, contended.compiled, contended.embedded
        ));
        json.push_str(&format!(
            "  \"bounded_buffer_single\": {{\"producers\": 1, \"consumers\": 1, \"interpreted_ns_per_elem\": {:.1}, \"compiled_ns_per_elem\": {:.1}, \"embedded_ns_per_elem\": {:.1}}},\n",
            single.interpreted, single.compiled, single.embedded
        ));
        json.push_str("  \"examples\": {\n");
        for (i, (name, us_i, us_c)) in examples.iter().enumerate() {
            json.push_str(&format!(
                "    \"{name}\": {{\"interpreted_us\": {us_i:.1}, \"compiled_us\": {us_c:.1}, \"speedup\": {:.2}}}{}\n",
                us_i / us_c,
                if i + 1 == examples.len() { "" } else { "," }
            ));
        }
        json.push_str("  },\n");
        json.push_str(&format!(
            "  \"ratios\": {{\"compiled_over_embedded\": {compiled_over_embedded:.3}, \"interpreted_over_compiled\": {interp_over_compiled:.2}}},\n"
        ));
        json.push_str(&format!(
            "  \"targets\": {{\"compiled_over_embedded_max\": 1.5, \"interpreted_over_compiled_min\": 5.0, \"met\": {targets_met}}}\n}}\n"
        ));
        std::fs::write("BENCH_lang_compile.json", &json).expect("write BENCH_lang_compile.json");
        println!(
            "contended: compiled/embedded {compiled_over_embedded:.2} (target <= 1.5), interpreted/compiled {interp_over_compiled:.2}x (target >= 5)"
        );
        println!("wrote BENCH_lang_compile.json");
    }
}

/// `experiments remote [--smoke]` — the partial-failure acceptance run:
/// a second OS process (this same binary in the `remote-server` role)
/// serves a Counter object over loopback TCP; the parent measures the
/// remote warm-call tax against an in-process managed baseline taken in
/// the *same run*, then drives a seeded transport-fault sweep and
/// verifies every faulted call resolved exactly once or errored cleanly.
/// Writes `BENCH_remote.json`.
mod remote {
    use std::collections::HashMap;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::process::{Child, Command, Stdio};
    use std::sync::Arc;
    use std::time::Instant;

    use alps_core::{
        vals, Backoff, EntryDef, Guard, ObjectBuilder, ObjectHandle, RestartPolicy, RetryPolicy,
        Selected, Ty, Value,
    };
    use alps_net::{NetFaultPlan, NetServer, ReconnectPolicy, RemoteHandle, TcpConnector};
    use alps_runtime::Runtime;
    use parking_lot::Mutex;

    /// The served object: `Bump(k)` increments key `k`'s tally and
    /// returns it, `Count(k)` reads it back — the read path is what lets
    /// the parent audit exactly-once execution across process and fault
    /// boundaries. Supervised (`RestartTransient`), managed, and booby-
    /// trapped: the first `Bump` of any key with `k % 29 == 7` panics
    /// BEFORE recording, so across the sweep the server restarts dozens
    /// of times mid-call and the remote retries must ride through
    /// `ObjectRestarting` over the wire (key 0, the latency key, never
    /// trips it). Intercepted + managed so the panic kills the manager —
    /// the restart sweep answers in-flight callers with the retryable
    /// `ObjectRestarting`, not the delivered `BodyFailed`.
    fn counter(rt: &Runtime) -> ObjectHandle {
        let counts: Arc<Mutex<HashMap<i64, i64>>> = Arc::new(Mutex::new(HashMap::new()));
        let seen: Arc<Mutex<std::collections::HashSet<i64>>> =
            Arc::new(Mutex::new(std::collections::HashSet::new()));
        let (c_bump, c_read) = (Arc::clone(&counts), counts);
        ObjectBuilder::new("Counter")
            .entry(
                EntryDef::new("Bump")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(move |_ctx, args| {
                        let k = args[0].as_int()?;
                        if k % 29 == 7 && seen.lock().insert(k) {
                            panic!("injected first-sight crash for key {k}");
                        }
                        let mut m = c_bump.lock();
                        let n = m.entry(k).or_insert(0);
                        *n += 1;
                        Ok(vec![Value::Int(*n)])
                    }),
            )
            .entry(
                EntryDef::new("Count")
                    .params([Ty::Int])
                    .results([Ty::Int])
                    .intercepted()
                    .body(move |_ctx, args| {
                        let k = args[0].as_int()?;
                        Ok(vec![Value::Int(
                            c_read.lock().get(&k).copied().unwrap_or(0),
                        )])
                    }),
            )
            .manager(|mgr| loop {
                match mgr.select(vec![Guard::accept("Bump"), Guard::accept("Count")])? {
                    Selected::Accepted { call, .. } => {
                        mgr.execute(call)?;
                    }
                    _ => unreachable!(),
                }
            })
            .supervise(RestartPolicy::RestartTransient {
                max_restarts: 256,
                window_ticks: 600_000_000,
            })
            .spawn(rt)
            .expect("spawn Counter")
    }

    /// Child role: serve on an ephemeral loopback port, announce it on
    /// stdout, park until the parent closes our stdin (so an abandoned
    /// child dies with its parent instead of leaking).
    pub fn serve_child() {
        let rt = Runtime::threaded();
        let obj = counter(&rt);
        let server = NetServer::new(&rt);
        server.register(&obj);
        let addr = server.listen_tcp("127.0.0.1:0").expect("bind loopback");
        println!("PORT={}", addr.port());
        std::io::stdout().flush().ok();
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink); // blocks until parent exits
        server.shutdown();
        obj.shutdown();
    }

    fn spawn_server() -> (Child, String) {
        let exe = std::env::current_exe().expect("current_exe");
        let mut child = Command::new(exe)
            .arg("remote-server")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn remote-server child");
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = BufReader::new(stdout).lines();
        let port: u16 = loop {
            match lines.next() {
                Some(Ok(l)) if l.starts_with("PORT=") => {
                    break l["PORT=".len()..].trim().parse().expect("child port")
                }
                Some(Ok(_)) => continue,
                _ => panic!("remote-server child exited before reporting its port"),
            }
        };
        (child, format!("127.0.0.1:{port}"))
    }

    /// Best-of-`reps` wall-clock ns/op for `iters` runs of `f`.
    fn measure<F: FnMut()>(iters: u64, reps: u32, mut f: F) -> f64 {
        for _ in 0..iters / 4 {
            f();
        }
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        best
    }

    pub fn run(smoke: bool) {
        println!("== remote objects: warm-call overhead + transport-fault sweep ==");

        // -- Baseline: the same managed call served in-process, measured
        // in this run (never a stale constant).
        let rt = Runtime::threaded();
        let local_obj = counter(&rt);
        let bump_local = local_obj.entry_id("Bump").expect("local Bump id");
        let local_iters: u64 = if smoke { 2_000 } else { 40_000 };
        let local_ns = measure(local_iters, if smoke { 2 } else { 5 }, || {
            local_obj.call_id(bump_local, vals![0i64]).unwrap();
        });
        println!("  in-process managed call: {local_ns:.0} ns/op");

        // -- The second process.
        let (mut child, addr) = spawn_server();

        // -- Remote warm path: interned entry, live connection, loopback
        // TCP round trip per call.
        let client = RemoteHandle::new(&rt, "Counter", TcpConnector::new(addr.clone()));
        let bump = client.entry_id("Bump");
        let remote_iters: u64 = if smoke { 400 } else { 8_000 };
        let remote_ns = measure(remote_iters, if smoke { 2 } else { 5 }, || {
            client.call_id(&bump, vals![0i64]).unwrap();
        });
        let overhead = remote_ns / local_ns;
        println!("  remote warm call (TCP loopback, 2 processes): {remote_ns:.0} ns/op");
        println!("  overhead ratio: {overhead:.1}x");

        // -- Fault sweep: per-seed chaos plans (drops, delays, dups,
        // corruption, forced disconnects) against the SAME live server;
        // each call retries through transient faults, then a fault-free
        // connection audits the tally. Acceptance: every call resolved
        // exactly once or cleanly errored — zero lost replies, zero
        // double executions.
        let seeds: u64 = if smoke { 16 } else { 256 };
        let calls_per_seed: i64 = 6;
        let verify = RemoteHandle::new(&rt, "Counter", TcpConnector::new(addr.clone()));
        let count_entry = verify.entry_id("Count");
        let policy = RetryPolicy::new(8, 2_000_000).backoff(Backoff::ExpJitter {
            base: 200,
            cap: 5_000,
        });
        let (mut ok, mut clean_errors, mut lost_replies, mut double_execs) =
            (0u64, 0u64, 0u64, 0u64);
        let (mut reconnects, mut retries) = (0u64, 0u64);
        for seed in 0..seeds {
            let faulty = RemoteHandle::new(&rt, "Counter", TcpConnector::new(addr.clone()))
                .with_fault(NetFaultPlan::chaos(seed + 1))
                .with_reconnect(ReconnectPolicy {
                    max_attempts: 8,
                    base_ticks: 200,
                    cap_ticks: 5_000,
                });
            let fbump = faulty.entry_id("Bump");
            for i in 0..calls_per_seed {
                // Key 0 is the latency key; sweep keys are unique per
                // (seed, call) so the audit below is exact.
                let key = (seed as i64) * 1_000 + i + 1;
                let outcome = faulty.call_id_retry(&fbump, vals![key], policy);
                let tally = verify
                    .call_id_retry(&count_entry, vals![key], policy)
                    .expect("fault-free audit connection")[0]
                    .as_int()
                    .unwrap();
                match outcome {
                    Ok(_) => {
                        ok += 1;
                        if tally == 0 {
                            lost_replies += 1;
                            eprintln!("  LOST: seed {seed} key {key}: reply without execution");
                        }
                        if tally > 1 {
                            double_execs += 1;
                            eprintln!("  DOUBLE: seed {seed} key {key}: {tally} executions");
                        }
                    }
                    Err(_) => {
                        clean_errors += 1;
                        if tally > 1 {
                            double_execs += 1;
                            eprintln!(
                                "  DOUBLE: seed {seed} key {key}: errored yet ran {tally} times"
                            );
                        }
                    }
                }
            }
            let s = faulty.stats();
            reconnects += s.reconnects.get();
            retries += s.retries.get();
        }
        let total = seeds * calls_per_seed as u64;
        println!(
            "  sweep: {seeds} seeds x {calls_per_seed} calls = {total} calls -> {ok} ok, \
             {clean_errors} clean errors ({reconnects} reconnects, {retries} retries)"
        );
        println!("  lost replies: {lost_replies}   double executions: {double_execs}");

        // -- Emit BENCH_remote.json.
        let mut j = String::from("{\n");
        j.push_str("  \"bench\": \"remote_objects\",\n");
        j.push_str(&format!("  \"smoke\": {smoke},\n"));
        j.push_str(&format!("  \"local_ns_per_op\": {local_ns:.1},\n"));
        j.push_str(&format!("  \"remote_ns_per_op\": {remote_ns:.1},\n"));
        j.push_str(&format!("  \"overhead_ratio\": {overhead:.2},\n"));
        j.push_str("  \"sweep\": {\n");
        j.push_str(&format!("    \"seeds\": {seeds},\n"));
        j.push_str(&format!("    \"calls\": {total},\n"));
        j.push_str(&format!("    \"ok\": {ok},\n"));
        j.push_str(&format!("    \"clean_errors\": {clean_errors},\n"));
        j.push_str(&format!("    \"reconnects\": {reconnects},\n"));
        j.push_str(&format!("    \"retries\": {retries}\n"));
        j.push_str("  },\n");
        j.push_str(&format!("  \"lost_replies\": {lost_replies},\n"));
        j.push_str(&format!("  \"double_executions\": {double_execs},\n"));
        j.push_str("  \"baseline_remeasured\": true\n");
        j.push_str("}\n");
        std::fs::write("BENCH_remote.json", &j).expect("write BENCH_remote.json");
        println!("wrote BENCH_remote.json");

        // -- Tear down the child (dropping its stdin unblocks the park).
        drop(child.stdin.take());
        let _ = child.kill();
        let _ = child.wait();
        local_obj.shutdown();

        assert_eq!(lost_replies, 0, "acceptance: zero lost replies");
        assert_eq!(double_execs, 0, "acceptance: zero double executions");
    }
}
