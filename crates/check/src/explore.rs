//! The exploration engine: systematic enumeration of decision vectors.
//!
//! Exploration is a DFS over decision vectors. The root is the empty vector
//! — today's deterministic schedule. A run's recorded choice points tell the
//! explorer exactly where the run could have gone differently; children of a
//! vector `d` deviate at one index **at or past `d.len()`** (the frozen
//! prefix), one non-default option per child. Every vector with at most
//! `max_preemptions` non-default entries is therefore generated exactly
//! once, without ever guessing the branching structure up front.
//!
//! Two prunes keep the walk polynomial in practice:
//!
//! * **preemption bound** — vectors with more than `max_preemptions`
//!   deviations are never generated (classic context-bounded checking:
//!   almost all real schedule bugs need very few preemptions);
//! * **trace dedup** (sleep-set flavoured) — if a run's observable trace
//!   hash was already seen, its subtree is not expanded: the deviations
//!   commuted with everything that mattered, so deeper deviations from an
//!   equivalent state are reachable from the first witness.

use std::collections::BTreeSet;

use crate::scenario::{RunOutcome, ScenarioKind};

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Maximum schedules (decision vectors) to execute.
    pub max_runs: usize,
    /// Maximum non-default decisions per schedule.
    pub max_preemptions: usize,
}

impl ExploreConfig {
    /// The CI smoke budget: enough to cover the acceptance floor of 500
    /// distinct schedules per scenario with headroom.
    pub fn smoke() -> Self {
        // preempt=3 comfortably clears the 500-distinct-schedule coverage
        // floor on both shipped scenarios; the run cap keeps it bounded.
        ExploreConfig {
            max_runs: 800,
            max_preemptions: 3,
        }
    }

    /// A deeper overnight budget.
    pub fn deep() -> Self {
        ExploreConfig {
            max_runs: 20_000,
            max_preemptions: 4,
        }
    }

    /// Parses `smoke`, `deep` or `runs=N,preempt=K`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "smoke" => return Ok(ExploreConfig::smoke()),
            "deep" => return Ok(ExploreConfig::deep()),
            _ => {}
        }
        let mut cfg = ExploreConfig::smoke();
        let mut recognized = false;
        for part in s.split(',') {
            match part.split_once('=') {
                Some(("runs", n)) => {
                    cfg.max_runs = n.parse().map_err(|_| format!("bad runs value: {n}"))?;
                    recognized = true;
                }
                Some(("preempt", k)) => {
                    cfg.max_preemptions =
                        k.parse().map_err(|_| format!("bad preempt value: {k}"))?;
                    recognized = true;
                }
                _ => return Err(format!("bad budget component: {part}")),
            }
        }
        if !recognized {
            return Err(format!("bad budget: {s}"));
        }
        Ok(cfg)
    }
}

/// A violating schedule, before and after shrinking.
#[derive(Debug)]
pub struct ViolationWitness {
    /// The decision vector that violated.
    pub decisions: Vec<usize>,
    /// The violations it produced.
    pub outcome: RunOutcome,
}

/// What an exploration covered and found.
#[derive(Debug)]
pub struct ExploreReport {
    /// Scenario explored.
    pub scenario: ScenarioKind,
    /// Seed used.
    pub seed: u64,
    /// Schedules executed (each a distinct decision vector).
    pub schedules: usize,
    /// Distinct observable traces among them.
    pub distinct_traces: usize,
    /// Runs whose subtree was pruned because their trace was already seen.
    pub pruned_subtrees: usize,
    /// Longest recorded choice sequence seen.
    pub max_choice_points: usize,
    /// The first violating schedule found, if any.
    pub first_violation: Option<ViolationWitness>,
}

/// Explores `scenario` under `cfg`, stopping at the first violation or when
/// the run budget is exhausted.
pub fn explore(scenario: ScenarioKind, seed: u64, cfg: &ExploreConfig) -> ExploreReport {
    let mut report = ExploreReport {
        scenario,
        seed,
        schedules: 0,
        distinct_traces: 0,
        pruned_subtrees: 0,
        max_choice_points: 0,
        first_violation: None,
    };
    let mut seen_traces = BTreeSet::new();
    // DFS stack of (vector, parent trace hash) still to execute; the root
    // is the default schedule. Children are pushed in reverse option order
    // so the walk visits low options (gentle deviations) first.
    let mut stack: Vec<(Vec<usize>, Option<u64>)> = vec![(Vec::new(), None)];
    while let Some((decisions, parent_trace)) = stack.pop() {
        if report.schedules >= cfg.max_runs {
            break;
        }
        let outcome = scenario.run(seed, &decisions);
        report.schedules += 1;
        report.max_choice_points = report.max_choice_points.max(outcome.records.len());
        if seen_traces.insert(outcome.trace_hash) {
            report.distinct_traces += 1;
        }
        if !outcome.violations.is_empty() {
            report.first_violation = Some(ViolationWitness { decisions, outcome });
            break;
        }
        // Sleep-set flavoured prune: if this vector's deviation did not
        // change the observable trace at all, the deviated choice commuted
        // with everything that matters, so deeper deviations stacked on top
        // of it are reachable from the parent's other children too.
        if parent_trace == Some(outcome.trace_hash) {
            report.pruned_subtrees += 1;
            continue;
        }
        let preemptions = decisions.iter().filter(|&&d| d != 0).count();
        if preemptions >= cfg.max_preemptions {
            continue;
        }
        // Deviate at each index past the frozen prefix. Pushed deepest-first
        // so the stack pops shallow deviations (near the prefix) first.
        for i in (decisions.len()..outcome.records.len()).rev() {
            for option in (1..outcome.records[i].options).rev() {
                let mut child = decisions.clone();
                child.resize(i, 0);
                child.push(option);
                stack.push((child, Some(outcome.trace_hash)));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_parse_accepts_presets_and_pairs() {
        assert_eq!(ExploreConfig::parse("smoke").unwrap().max_preemptions, 3);
        assert_eq!(ExploreConfig::parse("deep").unwrap().max_runs, 20_000);
        let custom = ExploreConfig::parse("runs=12,preempt=1").unwrap();
        assert_eq!((custom.max_runs, custom.max_preemptions), (12, 1));
        assert!(ExploreConfig::parse("never").is_err());
        assert!(ExploreConfig::parse("runs=x").is_err());
    }

    #[test]
    fn exploration_visits_distinct_vectors() {
        let cfg = ExploreConfig {
            max_runs: 40,
            max_preemptions: 1,
        };
        let report = explore(ScenarioKind::AbdQuorum, 7, &cfg);
        assert!(report.schedules > 1, "must explore beyond the root");
        assert!(report.first_violation.is_none(), "clean code stays clean");
        assert!(report.distinct_traces >= 1);
    }
}
