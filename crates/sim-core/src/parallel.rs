//! Parallel execution on virtual time: clock forking and joining.
//!
//! Several layers of the system issue requests concurrently and wait for
//! some or all of them: DepSky sends each operation to every cloud and
//! proceeds on a quorum, and the SCFS chunk-transfer engine moves many
//! chunks at once bounded by a parallelism limit. On virtual time both
//! follow the same fork/join pattern:
//!
//! 1. *fork* the caller's clock once per concurrent task and run each task
//!    on its own fork, so the tasks do not serialize on the shared timeline;
//! 2. *join* by advancing the caller's clock to the completion instant of
//!    the task it actually had to wait for (the slowest one, or the n-th
//!    success for quorum waits).
//!
//! This module is the one home of that pattern; `depsky::register`,
//! `coord::sharded` and `scfs::transfer` all call it directly.

use crate::time::{Clock, SimInstant};

/// The outcome of one task run on a forked clock.
#[derive(Debug, Clone)]
pub struct ForkedRun<T> {
    /// The task's index, as handed to the closure.
    pub index: usize,
    /// Virtual instant at which the task completed.
    pub completed_at: SimInstant,
    /// Whatever the task produced.
    pub value: T,
}

/// Runs `op` once per index in `indices`, each invocation on a fresh fork of
/// `clock`, and returns the outcomes sorted by completion instant (ties keep
/// submission order). The caller's clock is *not* advanced — join with
/// [`join_all`] or [`join_nth`] afterwards.
#[must_use = "dropping the runs loses every fork's completion instant; join them into the clock"]
pub fn run_forked<T>(
    clock: &Clock,
    indices: impl IntoIterator<Item = usize>,
    mut op: impl FnMut(usize, &mut Clock) -> T,
) -> Vec<ForkedRun<T>> {
    let mut runs: Vec<ForkedRun<T>> = indices
        .into_iter()
        .map(|index| {
            let mut fork = clock.fork();
            let value = op(index, &mut fork);
            ForkedRun {
                index,
                completed_at: fork.now(),
                value,
            }
        })
        .collect();
    runs.sort_by_key(|r| r.completed_at);
    runs
}

/// Advances `clock` to the latest of `completions` (waiting for every forked
/// task). Does nothing when there were no tasks.
pub fn join_all(clock: &mut Clock, completions: impl IntoIterator<Item = SimInstant>) {
    if let Some(last) = completions.into_iter().max() {
        clock.advance_to(last);
    }
}

/// Advances `clock` to the completion instant of the `n`-th successful
/// outcome (1-based), where `outcomes` yields `(completed_at, succeeded)`
/// pairs in completion order. Returns `true` if at least `n` outcomes
/// succeeded; otherwise the clock is advanced to the last completion and
/// `false` is returned (a quorum could not be reached).
#[must_use = "the quorum verdict decides whether the caller may proceed"]
pub fn join_nth(
    clock: &mut Clock,
    outcomes: impl IntoIterator<Item = (SimInstant, bool)> + Clone,
    n: usize,
) -> bool {
    if n == 0 {
        return true;
    }
    let mut successes = 0usize;
    for (completed_at, ok) in outcomes.clone() {
        if ok {
            successes += 1;
            if successes == n {
                clock.advance_to(completed_at);
                return true;
            }
        }
    }
    join_all(clock, outcomes.into_iter().map(|(t, _)| t));
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn run_with_delays(clock: &Clock, delays_ms: &[u64]) -> Vec<ForkedRun<usize>> {
        run_forked(clock, 0..delays_ms.len(), |i, fork| {
            fork.advance(SimDuration::from_millis(delays_ms[i]));
            i
        })
    }

    #[test]
    fn forks_do_not_advance_the_caller() {
        let clock = Clock::new();
        let runs = run_with_delays(&clock, &[50, 10, 30]);
        assert_eq!(clock.now(), SimInstant::EPOCH);
        // Sorted by completion: 10, 30, 50.
        let order: Vec<usize> = runs.iter().map(|r| r.value).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn join_all_waits_for_the_slowest() {
        let mut clock = Clock::new();
        let runs = run_with_delays(&clock, &[50, 10, 30]);
        join_all(&mut clock, runs.iter().map(|r| r.completed_at));
        assert_eq!(clock.now(), SimInstant::from_millis(50));
    }

    #[test]
    fn join_nth_waits_only_for_the_quorum() {
        let mut clock = Clock::new();
        let runs = run_with_delays(&clock, &[50, 10, 30, 900]);
        let ok = join_nth(&mut clock, runs.iter().map(|r| (r.completed_at, true)), 3);
        assert!(ok);
        assert_eq!(clock.now(), SimInstant::from_millis(50));
    }

    #[test]
    fn join_nth_failure_advances_to_all() {
        let mut clock = Clock::new();
        let runs = run_with_delays(&clock, &[10, 20]);
        let ok = join_nth(&mut clock, runs.iter().map(|r| (r.completed_at, false)), 1);
        assert!(!ok);
        assert_eq!(clock.now(), SimInstant::from_millis(20));
    }

    #[test]
    fn zero_quorum_is_trivially_met() {
        let mut clock = Clock::new();
        assert!(join_nth(&mut clock, Vec::<(SimInstant, bool)>::new(), 0));
        assert_eq!(clock.now(), SimInstant::EPOCH);
    }

    #[test]
    fn ties_keep_submission_order() {
        let clock = Clock::new();
        let runs = run_with_delays(&clock, &[5, 5, 5]);
        let order: Vec<usize> = runs.iter().map(|r| r.index).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
