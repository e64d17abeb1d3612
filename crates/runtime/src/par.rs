//! Structured parallel execution (paper §2.1.1).
//!
//! ALPS provides two `par` commands:
//!
//! ```text
//! par P(...), Q(...) and R(...) end par      -- run a fixed set in parallel
//! par i = m to n do P(i) end par             -- run an indexed family
//! ```
//!
//! Both terminate only when *all* branches terminate. [`par`] reproduces
//! them for the embedded API: an indexed family is one branch per index,
//! built by mapping the range, which is how both ALPS walkers run
//! `par i = m to n`.

use crate::error::RuntimeError;
use crate::executor::Runtime;
use crate::process::Spawn;

/// Run each closure as its own process and wait for all of them,
/// returning their results in input order.
///
/// # Errors
///
/// If any branch panics, returns the first
/// [`RuntimeError::ProcPanicked`]; remaining branches are still joined.
///
/// # Examples
///
/// ```
/// use alps_runtime::{par, Runtime};
///
/// let rt = Runtime::threaded();
/// let results = par(
///     &rt,
///     vec![
///         Box::new(|| 1) as Box<dyn FnOnce() -> i32 + Send>,
///         Box::new(|| 2),
///         Box::new(|| 3),
///     ],
/// )
/// .unwrap();
/// assert_eq!(results, vec![1, 2, 3]);
/// rt.shutdown();
/// ```
pub fn par<R: Send + 'static>(
    rt: &Runtime,
    branches: Vec<Box<dyn FnOnce() -> R + Send>>,
) -> Result<Vec<R>, RuntimeError> {
    let handles: Vec<_> = branches
        .into_iter()
        .enumerate()
        .map(|(i, f)| rt.spawn_with(Spawn::new(format!("par[{i}]")), f))
        .collect();
    let mut first_err = None;
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        match h.join() {
            Ok(v) => out.push(v),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SimRuntime;

    #[test]
    fn par_runs_all_branches_threaded() {
        let rt = Runtime::threaded();
        let out = par(
            &rt,
            vec![
                Box::new(|| "a".to_string()) as Box<dyn FnOnce() -> String + Send>,
                Box::new(|| "b".to_string()),
            ],
        )
        .unwrap();
        assert_eq!(out, vec!["a", "b"]);
    }

    /// An indexed family over `m..=n`, as `par i = m to n` runs it.
    fn family<R: Send + 'static>(
        m: i64,
        n: i64,
        f: impl Fn(i64) -> R + Send + Clone + 'static,
    ) -> Vec<Box<dyn FnOnce() -> R + Send>> {
        (m..=n)
            .map(|i| {
                let f = f.clone();
                Box::new(move || f(i)) as Box<dyn FnOnce() -> R + Send>
            })
            .collect()
    }

    #[test]
    fn par_empty_range() {
        let rt = Runtime::threaded();
        let out: Vec<i64> = par(&rt, family(5, 4, |i| i)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn par_in_sim_is_deterministic() {
        let sim = SimRuntime::new();
        let out = sim
            .run(|rt| par(rt, family(0, 9, |i| i * 2)).unwrap())
            .unwrap();
        assert_eq!(out, (0..=9).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_propagates_branch_panic_after_joining_all() {
        let rt = Runtime::threaded();
        let err = par(
            &rt,
            vec![
                Box::new(|| 1) as Box<dyn FnOnce() -> i32 + Send>,
                Box::new(|| panic!("branch died")),
                Box::new(|| 3),
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("panicked"));
    }

    #[test]
    fn par_terminates_only_when_all_terminate() {
        // The slow branch's side effect must be visible after par returns.
        let sim = SimRuntime::new();
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let f2 = std::sync::Arc::clone(&flag);
        sim.run(move |rt| {
            let rt2 = rt.clone();
            let f3 = std::sync::Arc::clone(&f2);
            par(
                rt,
                vec![
                    Box::new(move || {
                        rt2.sleep(1000);
                        f3.store(7, std::sync::atomic::Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send>,
                    Box::new(|| {}),
                ],
            )
            .unwrap();
            assert_eq!(f2.load(std::sync::atomic::Ordering::SeqCst), 7);
        })
        .unwrap();
    }
}
