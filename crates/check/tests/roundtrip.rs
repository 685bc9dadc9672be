//! Acceptance tests of the model-checking pipeline: explore → serialize →
//! replay round-trips exactly, the shrinker reduces a messy known-bad
//! schedule below a hard bound, the correct register explores clean, and
//! the committed corpus under `tests/schedules/` replays clean. That the
//! explorer catches a real bug is the checked-in mutant
//! `tests/mutants/abd-read-quorum-skew.patch`, which
//! `.github/scripts/mutants.sh` applies and runs against these tests.

use std::path::PathBuf;

use check::blob::Schedule;
use check::explore::{explore, ExploreConfig};
use check::scenario::ScenarioKind;
use check::shrink::shrink;
use proptest::prelude::*;

proptest! {
    /// Any decision vector, serialized as a schedule blob and parsed back,
    /// replays to the identical observable trace — the property the corpus
    /// workflow stands on.
    #[test]
    fn prop_explore_serialize_replay_is_trace_identical(
        seed in 0u64..32,
        raw in collection::vec(0usize..4, 0..12),
    ) {
        let outcome = ScenarioKind::AbdQuorum.run(seed, &raw);
        // Pin what the run actually chose (clamped), not the raw vector:
        // the blob stores the schedule as executed.
        let chosen: Vec<usize> = outcome.records.iter().map(|r| r.chose).collect();
        let sched = Schedule::from_run(ScenarioKind::AbdQuorum, seed, chosen, &outcome);
        let parsed = Schedule::parse(&sched.serialize(&outcome.records)).unwrap();
        prop_assert_eq!(&parsed, &sched);
        let replayed = parsed.replay().unwrap();
        prop_assert_eq!(replayed.trace_hash, outcome.trace_hash);
        prop_assert_eq!(replayed.records, outcome.records);
    }
}

/// A deliberately messy superset of the quorum mutant's stale-read witness
/// (one delivery preemption at choice point 4, option 1 or later): extra
/// inert deviations before and after the one that matters. The predicate
/// stands in for the mutant's scenario run; the shrinker must strip the
/// vector to that one preemption. The shrink of the mutant's real run is
/// checked by `.github/scripts/mutants.sh`: under the patch, `scfs-check
/// explore` must shrink its violation to exactly the committed witness.
#[test]
fn shrinker_reduces_seeded_known_bad_schedule_below_bound() {
    let violates = |d: &[usize]| d.get(4).is_some_and(|&x| x >= 1);
    let messy = vec![1, 0, 2, 0, 1, 0, 1, 1];
    assert!(violates(&messy), "the seeded schedule must violate");
    let (minimal, _runs) = shrink(&messy, violates);
    assert_eq!(minimal, vec![0, 0, 0, 0, 1], "shrunk to the witness");
}

/// The correct register survives exploration. Under the quorum mutant
/// (`tests/mutants/abd-read-quorum-skew.patch`) this test fails: it is the
/// mutant's killer.
#[test]
fn the_correct_quorum_survives_exploration() {
    let clean = explore(
        ScenarioKind::AbdQuorum,
        7,
        &ExploreConfig {
            max_runs: 200,
            max_preemptions: 2,
        },
    );
    assert!(
        clean.first_violation.is_none(),
        "the correct quorum must survive exploration: {:?}",
        clean.first_violation
    );
}

/// Every committed schedule blob replays with its pinned trace hash and
/// expectation. This is the same gate CI runs via `scfs-check replay`.
#[test]
fn committed_schedule_corpus_replays_clean() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/schedules");
    let mut blobs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/schedules must exist")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sched"))
        .collect();
    blobs.sort();
    assert!(!blobs.is_empty(), "the corpus must hold a pass pin");
    for path in blobs {
        let text = std::fs::read_to_string(&path).unwrap();
        let sched = Schedule::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        sched
            .replay()
            .unwrap_or_else(|e| panic!("{path:?} failed replay: {e}"));
    }
}
