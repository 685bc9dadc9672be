//! Deterministic random number generation for the simulation.
//!
//! All latency sampling, fault injection and workload shuffling in the
//! reproduction flows through [`DetRng`], a small SplitMix64-based generator.
//! Using our own generator (instead of `rand::thread_rng`) keeps every
//! experiment bit-for-bit reproducible from its seed, which matters because
//! the shape tests of `tests/experiment_shapes.rs` and the golden pins of
//! `tests/determinism.rs` re-run the paper's experiments on every test run.

/// A deterministic pseudo-random number generator (SplitMix64 core).
///
/// SplitMix64 passes BigCrush for the 64-bit output function used here and is
/// more than adequate for sampling latencies; it is *not* cryptographically
/// secure (key generation in `scfs-crypto` mixes in additional entropy).
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed. Two generators created from the same
    /// seed produce identical streams.
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero state pathologies by mixing the seed once.
        DetRng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Derives an independent child generator; useful for giving each client
    /// or provider its own stream while staying reproducible.
    pub fn fork(&mut self) -> DetRng {
        DetRng::new(self.next_u64())
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next value uniformly distributed in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits -> [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`. Returns 0 when `bound` is 0.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Lemire-style rejection-free reduction is fine at these rates; the
        // modulo bias is negligible for simulation purposes but we still use
        // the widening-multiply trick for uniformity.
        let x = self.next_u64();
        ((x as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_f64() * (hi - lo)
    }

    /// Bernoulli trial with probability `p` of returning `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Sample from a normal distribution (Box–Muller transform).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        if std_dev <= 0.0 {
            return mean;
        }
        // Box–Muller; avoid ln(0) by nudging u1 away from zero.
        let u1 = self.next_f64().max(1e-12);
        let u2 = self.next_f64();
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Sample from a log-normal distribution parameterized by the mean and
    /// standard deviation of the underlying normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Sample from an exponential distribution with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = self.next_f64().max(1e-12);
        -mean * u.ln()
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// Produces a vector of `len` pseudo-random bytes (handy for generating
    /// workload file contents that defeat deduplication, as the paper does).
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill_bytes(&mut v);
        v
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.next_below(slice.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = DetRng::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = DetRng::new(9);
        for _ in 0..10_000 {
            let x = r.range_u64(10, 20);
            assert!((10..=20).contains(&x));
            let f = r.range_f64(-1.5, 2.5);
            assert!((-1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn normal_mean_is_close() {
        let mut r = DetRng::new(11);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.normal(10.0, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "sample mean was {mean}");
    }

    #[test]
    fn exponential_is_nonnegative_with_correct_mean() {
        let mut r = DetRng::new(13);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.exponential(5.0);
            assert!(x >= 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.25, "sample mean was {mean}");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = DetRng::new(17);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn choose_none_on_empty() {
        let mut r = DetRng::new(23);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert!(r.choose(&[1, 2, 3]).is_some());
    }

    proptest! {
        #[test]
        fn prop_next_below_respects_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
            let mut r = DetRng::new(seed);
            for _ in 0..64 {
                prop_assert!(r.next_below(bound) < bound);
            }
        }

        #[test]
        fn prop_fork_streams_are_reproducible(seed in any::<u64>()) {
            let mut a = DetRng::new(seed);
            let mut b = DetRng::new(seed);
            let mut fa = a.fork();
            let mut fb = b.fork();
            prop_assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }
}
