//! Summary statistics used to report the paper's tables and figures.
//!
//! Figure 9 of the paper reports 50th and 90th percentile sharing latencies;
//! Table 3 and Figures 8/10 report mean latencies over repeated runs. This
//! module provides a small, dependency-free [`Summary`] accumulator and a
//! per-operation [`OpRecorder`] the fleet harness uses to report p50/p99 per
//! file-system call.

use std::collections::BTreeMap;

use crate::time::SimDuration;

/// Accumulates samples and produces mean / min / max / percentile summaries.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Creates a summary from an iterator of raw values.
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut s = Summary::new();
        for v in values {
            s.add(v);
        }
        s
    }

    /// Adds one sample.
    pub fn add(&mut self, value: f64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Adds one duration sample (stored in seconds).
    pub fn add_duration(&mut self, value: SimDuration) {
        self.add(value.as_secs_f64());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum() / self.samples.len() as f64
        }
    }

    /// Population standard deviation; 0.0 when fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .samples
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.samples.len() as f64;
        var.sqrt()
    }

    /// Smallest sample; 0.0 when empty.
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min_or_zero()
    }

    /// Largest sample; 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .max_or_zero()
    }

    /// Percentile in `[0, 100]` using nearest-rank on the sorted samples;
    /// 0.0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (self.samples.len() as f64 - 1.0)).round() as usize;
        self.samples[rank.min(self.samples.len() - 1)]
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// The raw samples (in insertion or sorted order depending on prior calls).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

trait FiniteOrZero {
    fn min_or_zero(self) -> f64;
    fn max_or_zero(self) -> f64;
}

impl FiniteOrZero for f64 {
    fn min_or_zero(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }

    fn max_or_zero(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

/// Per-operation latency recorder: one [`Summary`] per operation name, in a
/// deterministic (sorted) order. The fleet harness records every timed
/// file-system call here and reports throughput plus p50/p99 per operation.
#[derive(Debug, Clone, Default)]
pub struct OpRecorder {
    ops: BTreeMap<String, Summary>,
}

impl OpRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        OpRecorder::default()
    }

    /// Records one sample of `op` (stored in seconds).
    pub fn record(&mut self, op: &str, latency: SimDuration) {
        self.ops
            .entry(op.to_string())
            .or_default()
            .add_duration(latency);
    }

    /// The operation names seen so far, sorted.
    pub fn ops(&self) -> impl Iterator<Item = &str> {
        self.ops.keys().map(|k| k.as_str())
    }

    /// The summary of `op`, if any samples were recorded.
    pub fn summary(&self, op: &str) -> Option<&Summary> {
        self.ops.get(op)
    }

    /// Percentile of `op` in seconds; 0.0 when the op was never recorded.
    pub fn percentile(&mut self, op: &str, p: f64) -> f64 {
        self.ops.get_mut(op).map_or(0.0, |s| s.percentile(p))
    }

    /// Total number of samples across all operations.
    pub fn total_count(&self) -> usize {
        self.ops.values().map(Summary::count).sum()
    }

    /// Merges another recorder's samples into this one (fleet aggregation).
    pub fn merge(&mut self, other: &OpRecorder) {
        for (op, summary) in &other.ops {
            let dst = self.ops.entry(op.clone()).or_default();
            for &v in summary.samples() {
                dst.add(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_all_zero() {
        let mut s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn summary_basic_statistics() {
        let mut s = Summary::from_values([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.min() - 1.0).abs() < 1e-12);
        assert!((s.max() - 5.0).abs() < 1e-12);
        assert!((s.median() - 3.0).abs() < 1e-12);
        assert!((s.percentile(0.0) - 1.0).abs() < 1e-12);
        assert!((s.percentile(100.0) - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - std::f64::consts::SQRT_2).abs() < 1e-6);
    }

    #[test]
    fn summary_percentile_90() {
        let mut s = Summary::from_values((1..=100).map(|v| v as f64));
        let p90 = s.percentile(90.0);
        assert!((p90 - 90.0).abs() <= 1.0, "p90 was {p90}");
    }

    #[test]
    fn op_recorder_groups_by_operation_and_merges() {
        let mut r = OpRecorder::new();
        r.record("read", SimDuration::from_millis(10));
        r.record("read", SimDuration::from_millis(30));
        r.record("close", SimDuration::from_millis(100));
        assert_eq!(r.ops().collect::<Vec<_>>(), vec!["close", "read"]);
        assert_eq!(r.summary("read").unwrap().count(), 2);
        assert!((r.percentile("read", 100.0) - 0.030).abs() < 1e-9);
        assert_eq!(r.percentile("open", 50.0), 0.0);
        assert_eq!(r.total_count(), 3);

        let mut other = OpRecorder::new();
        other.record("read", SimDuration::from_millis(20));
        other.record("open", SimDuration::from_millis(1));
        r.merge(&other);
        assert_eq!(r.summary("read").unwrap().count(), 3);
        assert_eq!(r.summary("open").unwrap().count(), 1);
        assert_eq!(r.total_count(), 5);
    }

    proptest! {
        #[test]
        fn prop_mean_between_min_and_max(values in proptest::collection::vec(0.0f64..1e6, 1..200)) {
            let s = Summary::from_values(values.clone());
            prop_assert!(s.mean() >= s.min() - 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
        }

        #[test]
        fn prop_percentiles_are_monotone(values in proptest::collection::vec(0.0f64..1e6, 1..200)) {
            let mut s = Summary::from_values(values);
            let p10 = s.percentile(10.0);
            let p50 = s.percentile(50.0);
            let p90 = s.percentile(90.0);
            prop_assert!(p10 <= p50 + 1e-9);
            prop_assert!(p50 <= p90 + 1e-9);
        }
    }
}
