//! Background operations on virtual time: completion tokens and a scheduler
//! of forked clocks.
//!
//! [`parallel`](crate::parallel) gives one caller bounded fork/join
//! concurrency *within* a single operation (quorum waits, transfer waves).
//! This module generalizes the pattern to work that outlives the call that
//! started it: a background upload queued by a non-blocking `close`, a
//! read-ahead prefetch, a garbage-collection cycle. Each such job runs
//! eagerly on a forked [`Clock`] owned by the [`BackgroundScheduler`], and
//! the caller gets back a [`Pending`] completion token — the job's value,
//! the instant it started and the virtual instant it completes. Anyone
//! holding the token can *wait precisely* for that one job
//! ([`Pending::wait`]) instead of sleeping past a global drain horizon.
//!
//! Jobs are scheduled on **lanes**: two jobs spawned on the same lane
//! serialize (the second starts when the first completes — e.g. two version
//! commits of the same file), while jobs on different lanes overlap freely
//! (uploads of unrelated files, prefetch vs. GC). This is what replaces the
//! single scalar "background cursor" that used to serialize *all* background
//! work behind one imaginary uploader thread.

use std::collections::BTreeMap;

use crate::schedule::{ChoiceKind, ControllerSlot};
use crate::time::{Clock, SimDuration, SimInstant};

/// A completion token for one background operation: the value the operation
/// produced, the instant it started and the virtual instant it is ready.
///
/// Simulation runs eagerly, so the value exists as soon as the job is
/// spawned — but it describes state that only *holds* from [`ready_at`]
/// onward (the upload has landed, the chunk is in the cache). Callers that
/// need the effect observable wait on the token; callers that only need the
/// bookkeeping may take the value immediately with [`into_inner`].
///
/// Fallible operations are modelled as `Pending<Result<T, E>>`: the token
/// always completes, and its value carries the outcome.
///
/// [`ready_at`]: Pending::ready_at
/// [`into_inner`]: Pending::into_inner
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a dropped Pending is a background job nobody can wait on; \
              settle it with wait(), into_inner() or return it"]
pub struct Pending<T> {
    value: T,
    started_at: SimInstant,
    ready_at: SimInstant,
}

impl<T> Pending<T> {
    /// Wraps `value` as the result of an operation that ran from
    /// `started_at` to `ready_at`.
    pub fn new(value: T, started_at: SimInstant, ready_at: SimInstant) -> Self {
        Pending {
            value,
            started_at,
            ready_at: ready_at.max(started_at),
        }
    }

    /// A token for an operation that completed instantaneously at `at`
    /// (e.g. a cache hit on the async path).
    pub fn immediate(value: T, at: SimInstant) -> Self {
        Pending::new(value, at, at)
    }

    /// Virtual instant the operation began executing (after any lane
    /// serialization).
    pub fn started_at(&self) -> SimInstant {
        self.started_at
    }

    /// Virtual instant the operation completes; waiting on the token means
    /// advancing a clock to this instant.
    pub fn ready_at(&self) -> SimInstant {
        self.ready_at
    }

    /// How long the operation itself took (excluding lane queueing).
    pub fn duration(&self) -> SimDuration {
        self.ready_at.duration_since(self.started_at)
    }

    /// Whether the operation has completed by `now`.
    pub fn is_ready(&self, now: SimInstant) -> bool {
        self.ready_at <= now
    }

    /// The operation's value, without waiting (simulation bookkeeping only —
    /// the effect is observable from [`Pending::ready_at`]).
    pub fn value(&self) -> &T {
        &self.value
    }

    /// Consumes the token without waiting, returning the value.
    pub fn into_inner(self) -> T {
        self.value
    }

    /// Blocks `clock` until the operation completes and returns its value:
    /// the blocking form of any `begin_*` operation is
    /// `begin_*(...).wait(clock)`.
    pub fn wait(self, clock: &mut Clock) -> T {
        clock.advance_to(self.ready_at);
        self.value
    }

    /// Maps the token's value, keeping its timeline.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Pending<U> {
        Pending {
            value: f(self.value),
            started_at: self.started_at,
            ready_at: self.ready_at,
        }
    }
}

/// Schedules background jobs on forked virtual clocks and tracks their
/// completion horizon.
///
/// One scheduler belongs to one client (an SCFS agent, an S3QL mount): its
/// jobs model what that client's background threads do. Spawning is eager —
/// the job closure runs immediately on a clock forked at the job's start
/// instant — and returns a [`Pending`] token; the *timeline* is what makes
/// it background work.
#[derive(Debug, Default)]
pub struct BackgroundScheduler {
    /// Per-lane completion cursors: a job on lane `k` starts no earlier than
    /// the completion of the previous job on `k`. Ordered so the schedule
    /// controller's dispatch candidates enumerate deterministically.
    lanes: BTreeMap<String, SimInstant>,
    /// Completion instants of recently spawned jobs (pruned against the
    /// spawn-time horizon); the in-flight window.
    completions: Vec<SimInstant>,
    /// Completion instant of the last-finishing job ever spawned.
    drain: SimInstant,
    /// Schedule-controller seam: empty in production (jobs dispatch at the
    /// default instant); the model checker installs one to delay dispatches
    /// behind other in-flight lanes.
    controller: ControllerSlot,
}

impl BackgroundScheduler {
    /// Creates an idle scheduler.
    pub fn new() -> Self {
        BackgroundScheduler::default()
    }

    /// Runs `job` on a forked clock starting at `now` — or later, if an
    /// earlier job on the same `lane` has not completed yet — and returns
    /// its completion token.
    ///
    /// Jobs on the same lane serialize in spawn order; jobs on different
    /// lanes (or with no lane) overlap freely.
    pub fn spawn<T>(
        &mut self,
        now: SimInstant,
        lane: Option<&str>,
        job: impl FnOnce(&mut Clock) -> T,
    ) -> Pending<T> {
        let mut started_at = match lane {
            Some(key) => self
                .lanes
                .get(key)
                .copied()
                .unwrap_or(SimInstant::EPOCH)
                .max(now),
            None => now,
        };
        if self.controller.is_active() {
            // Candidate dispatch instants: the default, or delayed behind
            // any other in-flight lane (modelling a background thread that
            // gets scheduled late). Choice 0 is always the default.
            let mut candidates: Vec<SimInstant> = self
                .lanes
                .values()
                .copied()
                .filter(|cursor| *cursor > started_at)
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            let site = lane.unwrap_or("<none>");
            let pick = self
                .controller
                .choose(ChoiceKind::LaneDispatch, site, 1 + candidates.len());
            if pick > 0 {
                started_at = candidates[pick - 1];
            }
        }
        let mut clock = Clock::starting_at(started_at);
        let value = job(&mut clock);
        let ready_at = clock.now();
        if let Some(key) = lane {
            self.lanes.insert(key.to_string(), ready_at);
        }
        self.completions.retain(|c| *c > now);
        self.completions.push(ready_at);
        self.drain = self.drain.max(ready_at);
        Pending::new(value, started_at, ready_at)
    }

    /// Instant at which every job spawned so far has completed — the global
    /// drain horizon (coarse; prefer waiting on individual tokens).
    pub fn drain_instant(&self) -> SimInstant {
        self.drain
    }

    /// Completion instant of the last job spawned on `lane`, if any.
    pub fn lane_ready(&self, lane: &str) -> Option<SimInstant> {
        self.lanes.get(lane).copied()
    }

    /// Number of jobs still running at `now`. Instants earlier than the
    /// latest spawn may undercount (completed jobs are pruned as new ones
    /// arrive).
    pub fn in_flight(&self, now: SimInstant) -> usize {
        self.completions.iter().filter(|c| **c > now).count()
    }

    /// The earliest completion instant still in the future of `now`, if any
    /// job is still running.
    pub fn next_completion(&self, now: SimInstant) -> Option<SimInstant> {
        self.completions.iter().filter(|c| **c > now).min().copied()
    }

    /// Installs a schedule controller driving lane-dispatch decisions. Only
    /// the model checker does this; an inactive slot (the default) keeps
    /// dispatch at the deterministic instant.
    pub fn install_schedule_controller(&mut self, slot: ControllerSlot) {
        self.controller = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delay_job(ms: u64) -> impl FnOnce(&mut Clock) -> u64 {
        move |clock| {
            clock.advance(SimDuration::from_millis(ms));
            ms
        }
    }

    #[test]
    fn unrelated_lanes_overlap() {
        let mut sched = BackgroundScheduler::new();
        let now = SimInstant::from_millis(10);
        let a = sched.spawn(now, Some("file-a"), delay_job(100));
        let b = sched.spawn(now, Some("file-b"), delay_job(80));
        // Both started at once; the drain is the max, not the sum.
        assert_eq!(a.started_at(), now);
        assert_eq!(b.started_at(), now);
        assert_eq!(a.ready_at(), SimInstant::from_millis(110));
        assert_eq!(b.ready_at(), SimInstant::from_millis(90));
        assert_eq!(sched.drain_instant(), SimInstant::from_millis(110));
    }

    #[test]
    fn same_lane_serializes_in_spawn_order() {
        let mut sched = BackgroundScheduler::new();
        let a = sched.spawn(SimInstant::EPOCH, Some("f"), delay_job(50));
        let b = sched.spawn(SimInstant::from_millis(10), Some("f"), delay_job(50));
        assert_eq!(a.ready_at(), SimInstant::from_millis(50));
        assert_eq!(
            b.started_at(),
            SimInstant::from_millis(50),
            "queued behind a"
        );
        assert_eq!(b.ready_at(), SimInstant::from_millis(100));
        assert_eq!(sched.lane_ready("f"), Some(SimInstant::from_millis(100)));
        assert_eq!(sched.lane_ready("g"), None);
    }

    #[test]
    fn wait_advances_the_caller_to_ready() {
        let mut sched = BackgroundScheduler::new();
        let token = sched.spawn(SimInstant::EPOCH, None, delay_job(30));
        let mut clock = Clock::starting_at(SimInstant::from_millis(5));
        let value = token.wait(&mut clock);
        assert_eq!(value, 30);
        assert_eq!(clock.now(), SimInstant::from_millis(30));
        // Waiting on an already-completed token is free.
        let mut late = Clock::starting_at(SimInstant::from_millis(99));
        let again = sched.spawn(SimInstant::EPOCH, None, delay_job(1));
        again.wait(&mut late);
        assert_eq!(late.now(), SimInstant::from_millis(99));
    }

    #[test]
    fn in_flight_and_next_completion_track_the_window() {
        let mut sched = BackgroundScheduler::new();
        let now = SimInstant::EPOCH;
        // The tokens are deliberately unused: this test watches the
        // scheduler's own counters, not the jobs' values.
        let _a = sched.spawn(now, Some("a"), delay_job(100));
        let _b = sched.spawn(now, Some("b"), delay_job(40));
        assert_eq!(sched.in_flight(now), 2);
        assert_eq!(
            sched.next_completion(now),
            Some(SimInstant::from_millis(40))
        );
        assert_eq!(sched.in_flight(SimInstant::from_millis(50)), 1);
        assert_eq!(sched.in_flight(SimInstant::from_millis(200)), 0);
        assert_eq!(sched.next_completion(SimInstant::from_millis(200)), None);
    }

    #[test]
    fn controller_can_delay_dispatch_behind_another_lane() {
        use crate::schedule::{ChoicePoint, ControllerSlot, ScheduleController};

        /// Picks the last candidate at every lane-dispatch point.
        struct DelayMost;
        impl ScheduleController for DelayMost {
            fn choose(&mut self, point: &ChoicePoint<'_>) -> usize {
                point.options - 1
            }
        }

        let mut sched = BackgroundScheduler::new();
        let now = SimInstant::from_millis(10);
        let _a = sched.spawn(now, Some("file-a"), delay_job(100));
        sched.install_schedule_controller(ControllerSlot::new(DelayMost));
        // Without a controller, b would start at `now`; the controller
        // delays its dispatch behind file-a's in-flight completion.
        let b = sched.spawn(now, Some("file-b"), delay_job(80));
        assert_eq!(b.started_at(), SimInstant::from_millis(110));
        assert_eq!(b.ready_at(), SimInstant::from_millis(190));
    }

    #[test]
    fn deterministic_controller_matches_empty_slot() {
        use crate::schedule::{ControllerSlot, DeterministicController};

        let mut plain = BackgroundScheduler::new();
        let mut driven = BackgroundScheduler::new();
        driven.install_schedule_controller(ControllerSlot::new(DeterministicController));
        let now = SimInstant::from_millis(5);
        for (sched, lane) in [(&mut plain, "x"), (&mut driven, "x")] {
            let a = sched.spawn(now, Some(lane), delay_job(40));
            let b = sched.spawn(now, Some("y"), delay_job(20));
            let c = sched.spawn(now, Some(lane), delay_job(10));
            assert_eq!(a.started_at(), now);
            assert_eq!(b.started_at(), now);
            assert_eq!(c.started_at(), a.ready_at());
        }
        assert_eq!(plain.drain_instant(), driven.drain_instant());
    }

    #[test]
    fn pending_accessors_and_map() {
        let p = Pending::new("x", SimInstant::from_millis(5), SimInstant::from_millis(20));
        assert_eq!(p.duration(), SimDuration::from_millis(15));
        assert!(!p.is_ready(SimInstant::from_millis(10)));
        assert!(p.is_ready(SimInstant::from_millis(20)));
        assert_eq!(*p.value(), "x");
        let q = p.map(|s| s.len());
        assert_eq!(q.into_inner(), 1);
        let i = Pending::immediate(7, SimInstant::from_millis(3));
        assert_eq!(i.started_at(), i.ready_at());
        assert_eq!(i.duration(), SimDuration::ZERO);
    }
}
