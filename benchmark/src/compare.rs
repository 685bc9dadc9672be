//! `compare A B`: the determinism guard and the host-metric bounds.
//!
//! `A` and `B` are the captured outputs of two runs of the **same** workload,
//! seed and mode. Everything read on the virtual clock — every `_vs`
//! latency, every ratio and count, and the op-trace hash — must be identical
//! to the last digit; metrics read on the host clock may differ by the
//! bound printed with them (a default of 25 % for the unbounded per-layer
//! ones, which are reported but not enforced).

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One parsed `metric` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// The value, as printed.
    pub value: String,
    /// `virtual` or `host`.
    pub clock: String,
    /// `lower` or `higher`.
    pub better: String,
    /// The regression bound, for end-to-end metrics.
    pub bound: Option<f64>,
}

/// A parsed run output.
#[derive(Debug, Default, PartialEq)]
pub struct Output {
    /// The `workload ...` header line.
    pub header: String,
    /// The op-trace hash.
    pub hash: String,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Parsed>,
}

/// Parses the human-readable lines of a run.
pub fn parse(text: &str) -> Output {
    let mut out = Output::default();
    for line in text.lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("workload") => out.header = line.to_string(),
            Some("trace_hash") => out.hash = words.next().unwrap_or("").to_string(),
            Some("metric") => {
                let (Some(name), Some(value)) = (words.next(), words.next()) else {
                    continue;
                };
                let mut parsed = Parsed {
                    value: value.to_string(),
                    clock: String::new(),
                    better: String::new(),
                    bound: None,
                };
                for word in words {
                    if let Some(c) = word.strip_prefix("clock=") {
                        parsed.clock = c.to_string();
                    } else if let Some(b) = word.strip_prefix("better=") {
                        parsed.better = b.to_string();
                    } else if let Some(b) = word.strip_prefix("bound=") {
                        parsed.bound = b.parse().ok();
                    }
                }
                out.metrics.insert(name.to_string(), parsed);
            }
            _ => {}
        }
    }
    out
}

/// Differences between two outputs: `(failures, notes)`.
pub fn diff(a: &Output, b: &Output) -> (Vec<String>, Vec<String>) {
    let (mut failures, mut notes) = (Vec::new(), Vec::new());
    if a.header != b.header {
        failures.push(format!("different runs: `{}` vs `{}`", a.header, b.header));
    }
    if a.hash.is_empty() || a.hash != b.hash {
        failures.push(format!("op-trace hash differs: {} vs {}", a.hash, b.hash));
    }
    if a.metrics.len() != b.metrics.len() {
        failures.push(format!(
            "{} metrics vs {}",
            a.metrics.len(),
            b.metrics.len()
        ));
    }
    for (name, ma) in &a.metrics {
        let Some(mb) = b.metrics.get(name) else {
            failures.push(format!("{name}: missing from B"));
            continue;
        };
        if ma.clock == "virtual" {
            if ma.value != mb.value {
                failures.push(format!(
                    "{name}: virtual metric differs: {} vs {}",
                    ma.value, mb.value
                ));
            }
            continue;
        }
        let (va, vb) = (
            ma.value.parse::<f64>().unwrap_or(0.0),
            mb.value.parse::<f64>().unwrap_or(0.0),
        );
        // B is "worse" when it moved against the metric's direction.
        let worse = if ma.better == "higher" {
            (va - vb) / va.abs().max(f64::MIN_POSITIVE)
        } else {
            (vb - va) / va.abs().max(f64::MIN_POSITIVE)
        };
        match ma.bound {
            Some(bound) if worse > bound => failures.push(format!(
                "{name}: B is {:.1} % worse than A ({va} -> {vb}), bound {:.0} %",
                worse * 100.0,
                bound * 100.0
            )),
            None if worse.abs() > 0.25 => notes.push(format!(
                "{name}: host metric moved {:+.1} % ({va} -> {vb})",
                -worse * 100.0
            )),
            _ => {}
        }
    }
    (failures, notes)
}

/// Entry point of the `compare` subcommand.
pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (a, b) = match (read(path_a), read(path_b)) {
        (Ok(a), Ok(b)) => (parse(&a), parse(&b)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let (failures, notes) = diff(&a, &b);
    for n in &notes {
        println!("note: {n}");
    }
    for f in &failures {
        println!("FAIL: {f}");
    }
    if failures.is_empty() {
        println!(
            "compare: {} metrics agree (virtual ones bit-for-bit, hash {})",
            a.metrics.len(),
            a.hash
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = "workload w seed 1 seconds 20 trace 0 smoke false\n\
        metric close_p50_vs 2.5 s clock=virtual better=lower bound=0.05 n=300\n\
        metric host_ops_per_s 100 1/s clock=host better=higher bound=0.1\n\
        metric agent.host_self_s 1.0 s clock=host better=lower\n\
        trace_hash 00ff\n\
        {\"correct\": true}\n";

    #[test]
    fn identical_outputs_agree() {
        let (failures, notes) = diff(&parse(A), &parse(A));
        assert!(failures.is_empty() && notes.is_empty());
        let parsed = parse(A);
        assert_eq!(parsed.hash, "00ff");
        assert_eq!(parsed.metrics.len(), 3);
        assert_eq!(parsed.metrics["close_p50_vs"].bound, Some(0.05));
    }

    #[test]
    fn virtual_drift_and_hash_drift_fail_host_drift_within_bound_passes() {
        let b = A
            .replace("2.5 s", "2.5000001 s")
            .replace("00ff", "00fe")
            .replace("100 1/s", "95 1/s");
        let (failures, _) = diff(&parse(A), &parse(&b));
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("hash")));
        assert!(failures.iter().any(|f| f.contains("close_p50_vs")));
    }

    #[test]
    fn host_metric_beyond_its_bound_fails_in_the_worse_direction_only() {
        let worse = A.replace("100 1/s", "85 1/s");
        assert_eq!(diff(&parse(A), &parse(&worse)).0.len(), 1);
        let better = A.replace("100 1/s", "150 1/s");
        assert!(diff(&parse(A), &parse(&better)).0.is_empty());
        // Unbounded per-layer host metrics only produce a note.
        let moved = A.replace("1.0 s clock=host", "2.0 s clock=host");
        let (failures, notes) = diff(&parse(A), &parse(&moved));
        assert!(failures.is_empty());
        assert_eq!(notes.len(), 1);
    }
}
