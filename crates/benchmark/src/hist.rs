//! The harness's own latency histogram: log-linear buckets (128 per power
//! of two, so a bucket is at most 1/128 = 0.78 % of its value wide), fixed
//! size, plain `u64` counts. Each caller owns one and they are merged after
//! the callers have been joined, so recording is a single array increment
//! with no atomics in the timed loop.

/// Sub-buckets per power of two, as a shift.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Largest power of two covered: 2^42 ns is over an hour.
const MAX_EXP: u32 = 42;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize + 1) * SUB as usize;

/// Fixed-size log-linear histogram of nanosecond values.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

fn index_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let exp = exp.min(MAX_EXP);
    let shift = exp - SUB_BITS;
    let sub = ((v >> shift) - SUB).min(SUB - 1);
    ((shift + 1) as u64 * SUB + sub) as usize
}

/// Lower edge and width of bucket `i`.
fn bounds_of(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = i / SUB - 1;
    let sub = i % SUB;
    ((SUB + sub) << shift, 1 << shift)
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `p`-th percentile (0 < p <= 100), interpolated linearly inside
    /// the bucket that holds the rank, so a stable distribution does not
    /// read as the same bucket edge run after run. `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = (p / 100.0 * self.total as f64).clamp(0.0, self.total as f64);
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + c) as f64 >= rank {
                let (lo, width) = bounds_of(i);
                let frac = ((rank - before as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo as f64 + frac * width as f64);
            }
            before += c;
        }
        None
    }

    /// How many samples lie beyond the `p`-th percentile; a percentile is
    /// only reported when at least ten do.
    pub fn samples_beyond(&self, p: f64) -> u64 {
        (self.total as f64 * (1.0 - p / 100.0)).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = bounds_of(i);
            assert_eq!(lo, next, "bucket {i}");
            assert_eq!(index_of(lo), i);
            assert_eq!(index_of(lo + width - 1), i);
            next = lo + width;
        }
    }

    #[test]
    fn values_past_the_top_land_in_the_last_bucket() {
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }
}
