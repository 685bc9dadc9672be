//! Percentiles and medians for the benchmark's own sample sets.

/// Candidate tail percentiles, lowest first.
const TAILS: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank_of(sorted.len(), p) - 1]
}

/// Nearest rank (1-based) of the `p`-th percentile in a set of `n > 0`. The
/// small epsilon keeps `99.9 % of 10 000` at 9990 despite binary rounding.
fn rank_of(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank `p`-th percentile of a
/// set of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank_of(n, p)
}

/// The highest candidate percentile that still has at least ten samples
/// beyond it in a set of `n` — the tail a sample set can honestly support.
/// Falls back to the median for tiny sets.
pub fn supported_tail(n: usize) -> f64 {
    TAILS
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

/// Median of a float set (mean of the two middle values for even sizes);
/// 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Latency samples of one operation class, in virtual nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, nanos: u64) {
        self.values.push(nanos);
        self.sorted = false;
    }

    /// Appends all samples of `other`.
    pub fn merge(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The `p`-th percentile in seconds (0 when empty).
    pub fn percentile_s(&mut self, p: f64) -> f64 {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
        percentile(&self.values, p) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn tail_picker_needs_ten_samples_beyond() {
        // p95 of 200 samples is rank 190: exactly ten beyond.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(supported_tail(200), 95.0);
        assert_eq!(supported_tail(199), 90.0);
        // p99 needs 1000 samples, p99.9 needs 10 000.
        assert_eq!(supported_tail(999), 95.0);
        assert_eq!(supported_tail(1000), 99.0);
        assert_eq!(supported_tail(10_000), 99.9);
        // p90 needs 100; below that only the median is honest.
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(99), 50.0);
        assert_eq!(supported_tail(0), 50.0);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn samples_sort_lazily_and_merge() {
        let mut a = Samples::default();
        for v in [5_000_000_000u64, 1_000_000_000, 3_000_000_000] {
            a.push(v);
        }
        assert_eq!(a.percentile_s(50.0), 3.0);
        let mut b = Samples::default();
        b.push(9_000_000_000);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.percentile_s(100.0), 9.0);
    }
}
