//! Timing for the isolated layer probes. The adapter sets up a fixture and
//! hands the operation here; how long to run it and how to summarise it is
//! decided in one place.

use crate::clock::now_ns;
use crate::trace::median;

/// Wall time one timed batch aims for.
const BATCH_NS: u64 = 10_000_000;
const BATCHES: usize = 7;

/// Median nanoseconds per call of `op` over [`BATCHES`] batches, each sized
/// (by doubling) to last about [`BATCH_NS`]. The sizing runs double as the
/// warm-up.
pub fn ns_per_op(op: &mut dyn FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t0 = now_ns();
        for _ in 0..iters {
            op();
        }
        let dt = now_ns() - t0;
        if dt >= BATCH_NS / 2 || iters >= 1 << 30 {
            break;
        }
        // Jump straight to the target once the batch is long enough to
        // extrapolate from; double while it is still in the clock's noise.
        iters = if dt > 50_000 {
            (iters * BATCH_NS / dt).max(iters + 1)
        } else {
            iters * 2
        };
    }
    let mut per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = now_ns();
            for _ in 0..iters {
                op();
            }
            (now_ns() - t0) as f64 / iters as f64
        })
        .collect();
    median(&mut per_op)
}

/// Median nanoseconds of one call of `op` over `n` separately timed calls,
/// for operations too slow or too stateful to batch (spawning an object,
/// running a whole program).
pub fn ns_each(n: usize, op: &mut dyn FnMut()) -> f64 {
    let mut each: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = now_ns();
            op();
            (now_ns() - t0) as f64
        })
        .collect();
    median(&mut each)
}

/// As [`ns_each`], with calls started `gap_ns` apart: the wait between two
/// calls is spent spinning on the clock outside the timed region, so the
/// system under test sees an idle gap and the caller is awake when it ends.
pub fn ns_each_paced(n: usize, gap_ns: u64, op: &mut dyn FnMut()) -> f64 {
    let mut due = now_ns();
    let mut each: Vec<f64> = (0..n)
        .map(|_| {
            while now_ns() < due {
                std::hint::spin_loop();
            }
            let t0 = now_ns();
            op();
            let t1 = now_ns();
            due = t1.max(due) + gap_ns;
            (t1 - t0) as f64
        })
        .collect();
    median(&mut each)
}
