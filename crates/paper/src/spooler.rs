//! The printer spooler of paper §2.8.1 — hidden parameters and results.
//!
//! The manager allocates a free printer when it accepts a `Print` call and
//! passes the printer number to the body as a *hidden parameter*; the body
//! returns the printer number as a *hidden result*, which "eliminates a
//! lot of bookkeeping for the manager to remember which printer has been
//! allocated to which procedure". Experiment E4 measures utilisation and
//! queueing against printer count.

use std::sync::Arc;

use alps_core::{
    vals, EntryDef, Guard, ObjectBuilder, ObjectHandle, RestartPolicy, Result, RetryPolicy,
    Selected, Ty, Value, Wait,
};
use alps_runtime::metrics::{Counter, Histogram};
use alps_runtime::Runtime;

/// Configuration for the spooler object.
#[derive(Debug, Clone)]
pub struct SpoolerConfig {
    /// Number of printers in the pool.
    pub printers: usize,
    /// Elements of the hidden `Print` procedure array.
    pub print_max: usize,
    /// Simulated ticks to print one byte.
    pub ticks_per_byte: u64,
}

impl Default for SpoolerConfig {
    fn default() -> Self {
        SpoolerConfig {
            printers: 2,
            print_max: 8,
            ticks_per_byte: 2,
        }
    }
}

/// Per-printer instrumentation: jobs printed and busy ticks.
#[derive(Debug, Clone, Default)]
pub struct PrinterStats {
    /// Jobs completed per printer.
    pub jobs: Vec<u64>,
    /// Busy ticks accumulated per printer.
    pub busy: Vec<u64>,
}

/// The spooler object.
#[derive(Debug, Clone)]
pub struct Spooler {
    obj: ObjectHandle,
    printers: usize,
    jobs: Arc<Vec<Counter>>,
    busy: Arc<Vec<Counter>>,
    queue_wait: Arc<Histogram>,
}

impl Spooler {
    /// Build the spooler: `Print(file)` is exported as a single procedure
    /// and implemented as an array; the manager holds the free-printer
    /// list.
    ///
    /// # Errors
    ///
    /// Propagates object-definition errors (none for valid configs).
    pub fn spawn(rt: &Runtime, cfg: SpoolerConfig) -> Result<Spooler> {
        Self::build(rt, cfg, None)
    }

    /// Like [`spawn`](Self::spawn), but the object is supervised: when a
    /// `Print` body panics (a wedged printer), the runtime sweeps the
    /// in-flight calls, re-enters the manager from the top — which
    /// rebuilds the free-printer list, since it lives in a manager-local
    /// variable — and keeps serving. Swept callers see
    /// [`alps_core::AlpsError::ObjectRestarting`] and can retry with
    /// [`print_retry`](Self::print_retry).
    ///
    /// # Examples
    ///
    /// ```
    /// use alps_core::{RestartPolicy, RetryPolicy};
    /// use alps_paper::spooler::{Spooler, SpoolerConfig};
    /// use alps_runtime::{FaultPlan, SimRuntime};
    ///
    /// let sim = SimRuntime::new();
    /// // The very first print job panics inside the printer body.
    /// sim.set_fault_plan(FaultPlan::new().panic_at("body", 1));
    /// sim.run(|rt| {
    ///     let sp = Spooler::spawn_supervised(
    ///         rt,
    ///         SpoolerConfig::default(),
    ///         RestartPolicy::AlwaysFresh,
    ///     )
    ///     .unwrap();
    ///     // The panic poisons the first attempt; the supervisor rebuilds
    ///     // the spooler and the retry lands on the fresh generation.
    ///     sp.print_retry(rt, "report.txt", 100, RetryPolicy::new(5, 100_000))
    ///         .unwrap();
    ///     assert_eq!(sp.object().stats().restarts(), 1);
    /// })
    /// .unwrap();
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates object-definition errors (none for valid configs).
    pub fn spawn_supervised(
        rt: &Runtime,
        cfg: SpoolerConfig,
        policy: RestartPolicy,
    ) -> Result<Spooler> {
        Self::build(rt, cfg, Some(policy))
    }

    fn build(
        rt: &Runtime,
        cfg: SpoolerConfig,
        supervise: Option<RestartPolicy>,
    ) -> Result<Spooler> {
        let printers = cfg.printers.max(1);
        let jobs: Arc<Vec<Counter>> = Arc::new((0..printers).map(|_| Counter::new()).collect());
        let busy: Arc<Vec<Counter>> = Arc::new((0..printers).map(|_| Counter::new()).collect());
        let queue_wait = Arc::new(Histogram::new());
        let (jobs2, busy2) = (Arc::clone(&jobs), Arc::clone(&busy));
        let ticks_per_byte = cfg.ticks_per_byte;
        let builder = ObjectBuilder::new("Spooler")
            .entry(
                EntryDef::new("Print")
                    .params([Ty::Str, Ty::Int]) // file name, size in bytes
                    .array(cfg.print_max.max(1))
                    .intercepted()
                    .hidden_params([Ty::Int]) // printer number (manager → body)
                    .hidden_results([Ty::Int]) // printer number (body → manager)
                    .body(move |ctx, args| {
                        let size = args[1].as_int()?.max(0) as u64;
                        let printer = args[2].as_int()?; // hidden parameter
                        let cost = size * ticks_per_byte;
                        ctx.sleep(cost);
                        jobs2[printer as usize].incr();
                        busy2[printer as usize].add(cost);
                        // Return the printer number as the hidden result.
                        Ok(vec![Value::Int(printer)])
                    }),
            )
            .manager(move |mgr| {
                let mut free: Vec<i64> = (0..printers as i64).collect();
                loop {
                    let have_free = !free.is_empty();
                    let sel = mgr.select(vec![
                        Guard::accept("Print").when(move |_| have_free),
                        Guard::await_done("Print"),
                    ])?;
                    match sel {
                        Selected::Accepted { call, .. } => {
                            let p = free.pop().expect("guard checked a free printer");
                            // start Print[i](printer as hidden parameter)
                            mgr.start(call, vals![], vals![p])?;
                        }
                        Selected::Ready { done, .. } => {
                            // The hidden result hands the printer back.
                            let p = done.hidden()[0].as_int()?;
                            free.push(p);
                            mgr.finish_as_is(done)?;
                        }
                        _ => unreachable!(),
                    }
                }
            });
        // The free-printer list is a manager-local, so a supervised
        // restart rebuilds it for free when the body is re-entered.
        let obj = match supervise {
            Some(policy) => builder.supervise(policy),
            None => builder,
        }
        .spawn(rt)?;
        Ok(Spooler {
            obj,
            printers,
            jobs,
            busy,
            queue_wait,
        })
    }

    /// Submit a print job and wait for completion.
    ///
    /// # Errors
    ///
    /// [`alps_core::AlpsError::ObjectClosed`] after shutdown.
    pub fn print(&self, rt: &Runtime, file: &str, bytes: i64) -> Result<()> {
        let t0 = rt.now();
        self.obj.call("Print", vals![file, bytes])?;
        self.queue_wait.record(rt.now().saturating_sub(t0));
        Ok(())
    }

    /// [`print`](Self::print) with caller-side retry
    /// ([`Wait::Retry`]): transient failures —
    /// [`alps_core::AlpsError::ObjectRestarting`] from a supervised
    /// restart, [`alps_core::AlpsError::Overloaded`] sheds, or per-attempt
    /// timeouts — are retried under `policy`'s attempt and tick budget.
    /// Delivered errors (a printer body that *ran* and failed) are not.
    /// A job whose attempt timed out after printing started may print
    /// twice; give each attempt more budget than a job takes.
    ///
    /// # Errors
    ///
    /// As [`print`](Self::print), plus `Timeout` when the retry budget is
    /// exhausted without a successful attempt.
    pub fn print_retry(
        &self,
        rt: &Runtime,
        file: &str,
        bytes: i64,
        policy: RetryPolicy,
    ) -> Result<()> {
        let t0 = rt.now();
        let print = self.obj.entry_id("Print")?;
        self.obj
            .call_with(print, vals![file, bytes], Wait::Retry(policy))?;
        self.queue_wait.record(rt.now().saturating_sub(t0));
        Ok(())
    }

    /// Per-printer job and busy-tick counts.
    pub fn printer_stats(&self) -> PrinterStats {
        PrinterStats {
            jobs: self.jobs.iter().map(Counter::get).collect(),
            busy: self.busy.iter().map(Counter::get).collect(),
        }
    }

    /// End-to-end latency histogram of submitted jobs.
    pub fn latency(&self) -> &Histogram {
        &self.queue_wait
    }

    /// Number of printers.
    pub fn printers(&self) -> usize {
        self.printers
    }

    /// The underlying object handle.
    pub fn object(&self) -> &ObjectHandle {
        &self.obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alps_runtime::{SimRuntime, Spawn};

    #[test]
    fn jobs_complete_and_printers_are_returned() {
        let sim = SimRuntime::new();
        let stats = sim
            .run(|rt| {
                let sp = Spooler::spawn(
                    rt,
                    SpoolerConfig {
                        printers: 2,
                        print_max: 4,
                        ticks_per_byte: 1,
                    },
                )
                .unwrap();
                let mut hs = Vec::new();
                for i in 0..6 {
                    let (sp2, rt2) = (sp.clone(), rt.clone());
                    hs.push(rt.spawn_with(Spawn::new(format!("job{i}")), move || {
                        sp2.print(&rt2, &format!("file{i}"), 100).unwrap();
                    }));
                }
                for h in hs {
                    h.join().unwrap();
                }
                sp.printer_stats()
            })
            .unwrap();
        assert_eq!(stats.jobs.iter().sum::<u64>(), 6);
        // Both printers were used (manager hands out whatever is free).
        assert!(stats.jobs.iter().all(|&j| j > 0), "{stats:?}");
    }

    #[test]
    fn two_printers_halve_makespan_vs_one() {
        fn makespan(printers: usize) -> u64 {
            let sim = SimRuntime::new();
            sim.run(move |rt| {
                let sp = Spooler::spawn(
                    rt,
                    SpoolerConfig {
                        printers,
                        print_max: 8,
                        ticks_per_byte: 1,
                    },
                )
                .unwrap();
                let t0 = rt.now();
                let mut hs = Vec::new();
                for i in 0..8 {
                    let (sp2, rt2) = (sp.clone(), rt.clone());
                    hs.push(rt.spawn_with(Spawn::new(format!("job{i}")), move || {
                        sp2.print(&rt2, "f", 1000).unwrap();
                    }));
                }
                for h in hs {
                    h.join().unwrap();
                }
                rt.now() - t0
            })
            .unwrap()
        }
        let one = makespan(1);
        let two = makespan(2);
        assert!(
            two * 2 <= one + 1000,
            "two printers should halve the makespan: one={one} two={two}"
        );
    }

    #[test]
    fn supervised_spooler_survives_a_wedged_printer() {
        use alps_core::{RestartPolicy, RetryPolicy};
        use alps_runtime::FaultPlan;

        let sim = SimRuntime::new();
        // The 2nd print body panics mid-job: the printer wedges, the
        // supervisor sweeps and rebuilds the free list from scratch.
        sim.set_fault_plan(FaultPlan::new().panic_at("body", 2));
        let (stats, restarts) = sim
            .run(|rt| {
                let sp = Spooler::spawn_supervised(
                    rt,
                    SpoolerConfig {
                        printers: 2,
                        print_max: 4,
                        ticks_per_byte: 1,
                    },
                    RestartPolicy::AlwaysFresh,
                )
                .unwrap();
                let mut hs = Vec::new();
                for i in 0..6 {
                    let (sp2, rt2) = (sp.clone(), rt.clone());
                    hs.push(rt.spawn_with(Spawn::new(format!("job{i}")), move || {
                        sp2.print_retry(
                            &rt2,
                            &format!("file{i}"),
                            40,
                            RetryPolicy::new(8, 1_000_000),
                        )
                        .unwrap();
                    }));
                }
                for h in hs {
                    h.join().unwrap();
                }
                (sp.printer_stats(), sp.object().stats().restarts())
            })
            .unwrap();
        assert_eq!(restarts, 1);
        // Every job eventually printed (the panicked attempt retried).
        assert!(stats.jobs.iter().sum::<u64>() >= 6, "{stats:?}");
    }

    #[test]
    fn never_more_jobs_in_flight_than_printers() {
        // busy ticks per printer must not exceed the total makespan.
        let sim = SimRuntime::new();
        let (stats, makespan) = sim
            .run(|rt| {
                let sp = Spooler::spawn(
                    rt,
                    SpoolerConfig {
                        printers: 3,
                        print_max: 9,
                        ticks_per_byte: 1,
                    },
                )
                .unwrap();
                let t0 = rt.now();
                let mut hs = Vec::new();
                for i in 0..9 {
                    let (sp2, rt2) = (sp.clone(), rt.clone());
                    hs.push(rt.spawn_with(Spawn::new(format!("job{i}")), move || {
                        sp2.print(&rt2, "f", 50 + 10 * i).unwrap();
                    }));
                }
                for h in hs {
                    h.join().unwrap();
                }
                (sp.printer_stats(), rt.now() - t0)
            })
            .unwrap();
        for (p, &b) in stats.busy.iter().enumerate() {
            assert!(b <= makespan, "printer {p} busier than wall clock");
        }
    }
}
