//! The benchmark's own load-generation randomness.
//!
//! The benchmark owns its PRNG and samplers instead of borrowing
//! `sim_core::rng::DetRng` or `workloads::fleet::Zipf`: a later change to
//! those must not silently change the inputs every later PR is measured on.
//! The fixed-vector tests at the bottom pin the streams.

/// splitmix64 step: seeds the main generator and derives sub-seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixes a seed with a tag into an independent sub-seed (cycle index, mount
/// index, role).
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut s = seed ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93);
    splitmix64(&mut s)
}

/// xoshiro256** — small, fast, and with a published reference stream.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator through splitmix64, as the reference recommends.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..bound` (`bound > 0`). The multiply-shift map is biased
    /// by at most `bound / 2^64`, far below anything a workload can see.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Exponential variate with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Log-uniform in `[lo, hi]`: every octave of sizes is equally likely.
    pub fn log_uniform(&mut self, lo: u64, hi: u64) -> u64 {
        let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
        let v = (l + (h - l) * self.next_f64()).exp();
        (v.round() as u64).clamp(lo, hi)
    }

    /// Fills `buf` with random bytes (incompressible payloads, so content-
    /// defined chunking and dedup see realistic data).
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }

    /// A fresh random payload of `len` bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill(&mut v);
        v
    }
}

/// Zipfian sampler over `0..n` (index 0 most popular): precomputed CDF, one
/// uniform variate and a binary search per draw.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution for `n > 0` items with skew `theta`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf needs at least one item");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws one index.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A seeded shuffle of a fixed multiset of indices, dealt without
/// replacement and reshuffled when exhausted: stratified sampling. Over every
/// full deck each index comes up exactly its share of the time, so two seeds
/// issue the same *amount* of each kind of work and differ only in order —
/// which keeps a 400-operation workload as steady across seeds as a
/// 40 000-operation one.
#[derive(Debug, Clone)]
pub struct Deck {
    cards: Vec<u16>,
    next: usize,
}

impl Deck {
    /// A deck holding index `i` exactly `counts[i]` times.
    pub fn new(counts: &[usize]) -> Self {
        let cards: Vec<u16> = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &n)| std::iter::repeat_n(i as u16, n))
            .collect();
        assert!(!cards.is_empty(), "a deck needs at least one card");
        Deck { cards, next: 0 }
    }

    /// A deck of `size` cards whose shares follow `weights` as closely as
    /// whole cards allow (largest-remainder rounding).
    pub fn from_weights(weights: &[f64], size: usize) -> Self {
        let total: f64 = weights.iter().sum();
        let exact: Vec<f64> = weights.iter().map(|w| w / total * size as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor())
                .total_cmp(&(exact[a] - exact[a].floor()))
                .then(a.cmp(&b))
        });
        let dealt: usize = counts.iter().sum();
        for &i in order.iter().take(size.saturating_sub(dealt)) {
            counts[i] += 1;
        }
        Deck::new(&counts)
    }

    /// Deals the next card, reshuffling (Fisher–Yates) at the start of every
    /// pass through the deck.
    pub fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.next == 0 {
            for i in (1..self.cards.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                self.cards.swap(i, j);
            }
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        card as usize
    }
}

/// Zipfian weights `1 / rank^theta` for `n` items.
pub fn zipf_weights(n: usize, theta: f64) -> Vec<f64> {
    (1..=n)
        .map(|rank| 1.0 / (rank as f64).powf(theta))
        .collect()
}

/// Picks an index by weight (weights need not sum to one).
pub fn weighted(rng: &mut Rng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = rng.next_f64() * total;
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= *w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_stream_is_pinned() {
        // Reference vector: splitmix64(0) seeds xoshiro256**; these are the
        // first outputs. If this changes, every workload's inputs change.
        let mut rng = Rng::new(0);
        let got: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                0x99ec_5f36_cb75_f2b4,
                0xbf6e_1f78_4956_452a,
                0x1a5f_849d_4933_e6e0
            ]
        );
    }

    #[test]
    fn zipf_fixed_vector() {
        let zipf = Zipf::new(8, 0.99);
        let mut rng = Rng::new(20140614);
        let draws: Vec<usize> = (0..16).map(|_| zipf.sample(&mut rng)).collect();
        assert_eq!(draws, ZIPF_VECTOR);
        // Skew: rank 0 is drawn far more often than rank 7.
        let mut hist = [0usize; 8];
        for _ in 0..20_000 {
            hist[zipf.sample(&mut rng)] += 1;
        }
        assert!(hist[0] > 4 * hist[7], "{hist:?}");
        assert!(hist.iter().all(|&c| c > 0));
    }

    #[test]
    fn log_uniform_fixed_vector_and_bounds() {
        let mut rng = Rng::new(20140614);
        let draws: Vec<u64> = (0..8).map(|_| rng.log_uniform(4096, 65536)).collect();
        assert_eq!(draws, LOG_UNIFORM_VECTOR);
        // Each of the four octaves gets about a quarter of the draws.
        let mut octaves = [0usize; 4];
        for _ in 0..20_000 {
            let v = rng.log_uniform(4096, 65536);
            assert!((4096..=65536).contains(&v));
            octaves[((v as f64 / 4096.0).log2() as usize).min(3)] += 1;
        }
        for c in octaves {
            assert!((4_400..5_600).contains(&c), "{octaves:?}");
        }
    }

    #[test]
    fn fill_handles_ragged_tails_and_is_deterministic() {
        let a = Rng::new(7).bytes(13);
        let b = Rng::new(7).bytes(13);
        assert_eq!(a, b);
        assert_ne!(a, Rng::new(8).bytes(13));
        assert_eq!(&Rng::new(7).bytes(8)[..], &a[..8]);
    }

    #[test]
    fn derive_seed_separates_tags() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(5, 9), derive_seed(5, 9));
    }

    #[test]
    fn deck_deals_exact_shares_per_pass_in_seeded_order() {
        let mut deck = Deck::new(&[3, 1, 0, 2]);
        let mut rng = Rng::new(9);
        for _pass in 0..4 {
            let mut seen = [0usize; 4];
            for _ in 0..6 {
                seen[deck.deal(&mut rng)] += 1;
            }
            assert_eq!(seen, [3, 1, 0, 2]);
        }
        let order = |seed| -> Vec<usize> {
            let mut deck = Deck::new(&[3, 1, 0, 2]);
            let mut rng = Rng::new(seed);
            (0..12).map(|_| deck.deal(&mut rng)).collect()
        };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
    }

    #[test]
    fn deck_from_weights_rounds_by_largest_remainder() {
        // Zipf(1.2) over ten files, 40 cards.
        let deck = Deck::from_weights(&zipf_weights(10, 1.2), 40);
        let mut counts = [0usize; 10];
        for &c in &deck.cards {
            counts[c as usize] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 40);
        assert_eq!(counts, [16, 7, 4, 3, 3, 2, 2, 1, 1, 1]);
        let even = Deck::from_weights(&[1.0, 1.0, 1.0], 6);
        assert_eq!(even.cards.len(), 6);
    }

    #[test]
    fn weighted_respects_zero_weights() {
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            assert_eq!(weighted(&mut rng, &[0.0, 1.0, 0.0]), 1);
        }
    }

    const ZIPF_VECTOR: [usize; 16] = [1, 2, 0, 0, 0, 0, 0, 1, 4, 5, 4, 0, 3, 4, 5, 1];
    const LOG_UNIFORM_VECTOR: [u64; 8] = [14513, 26357, 4474, 5133, 7660, 6952, 5516, 17922];
}
