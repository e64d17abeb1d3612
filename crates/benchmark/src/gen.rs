//! Seeded input generation. The seed reaches nothing but this module; the
//! system under test sees only the keys, op kinds and arrival times made
//! here.

/// xorshift64*: deterministic and seedable, which is all a schedule needs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix64 finaliser, so that seeds 1, 2, 3 … start far apart.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)).max(1))
    }

    /// A generator for sub-stream `stream` of `seed` (one per caller, per
    /// round), independent of the others.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n` by inverse-transform sampling on the CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u32
    }
}

/// One generated operation: which key, and whether it writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyOp {
    pub key: u32,
    pub write: bool,
}

/// `n` key operations with Zipf-distributed keys and `write_share` writes.
/// Callers cycle through their table, so the generator's cost stays out of
/// the timed loop.
pub fn key_ops(rng: &mut Rng, zipf: &Zipf, write_share: f64, n: usize) -> Vec<KeyOp> {
    (0..n)
        .map(|_| KeyOp {
            key: zipf.sample(rng),
            write: rng.next_f64() < write_share,
        })
        .collect()
}

/// Poisson arrival instants (ns from the start of the timed window) at
/// `rate` per second, covering `window_ns`.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, window_ns: u64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate;
    let mut out = Vec::with_capacity((rate * window_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
        if t >= window_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// Salt the `alps_buffer` program stamps its messages with, and the
/// checksum a correct run of it prints: the sum, over `drivers` producers
/// of `messages` messages each, of `(i + (31 i + salt) mod 65521) mod
/// 65521`.
pub fn buffer_salt(seed: u64) -> u64 {
    seed % 60_000 + 1
}

pub fn buffer_checksum(salt: u64, drivers: u64, messages: u64) -> i64 {
    let per_driver: u64 = (1..=messages)
        .map(|i| (i + (i * 31 + salt) % 65_521) % 65_521)
        .sum();
    (drivers * per_driver) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let z = Zipf::new(4096, 1.0);
        let a = key_ops(&mut Rng::stream(7, 3), &z, 0.2, 512);
        let b = key_ops(&mut Rng::stream(7, 3), &z, 0.2, 512);
        let c = key_ops(&mut Rng::stream(8, 3), &z, 0.2, 512);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_favours_low_ranks_and_poisson_hits_its_rate() {
        let z = Zipf::new(4096, 1.0);
        let mut rng = Rng::new(1);
        let hot = (0..20_000).filter(|_| z.sample(&mut rng) < 8).count();
        assert!(hot > 4_000, "top 8 of 4096 keys drew only {hot}/20000");
        let arrivals = poisson_arrivals(&mut rng, 50_000.0, 1_000_000_000);
        assert!((48_000..52_000).contains(&arrivals.len()));
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }
}
