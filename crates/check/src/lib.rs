//! scfs-check: a schedule-exploration race detector over the deterministic
//! simulator.
//!
//! The workspace's simulator is deterministic by construction: given a seed,
//! every run replays the same virtual-time trace. That determinism is what
//! makes a *model checker* cheap to build on top — instead of stress-testing
//! and hoping a race manifests, scfs-check drives the three nondeterminism
//! points the simulator exposes through the
//! [`sim_core::schedule::ScheduleController`] seam:
//!
//! * **lane dispatch** — which background lane's cursor the
//!   [`sim_core::background::BackgroundScheduler`] serializes a new job
//!   behind;
//! * **replica delivery** — the order in which a
//!   [`coord::abd::RegisterGroup`] broadcast round's replies are processed
//!   by the client;
//! * **journal replay** — the order in which the chunkstore GC replays
//!   pending two-phase release-journal entries.
//!
//! A run of a [`scenario`] under a decision vector ([`controller`]) is a
//! *schedule*. The [`explore`] engine enumerates schedules up to a bounded
//! number of preemptions (deviations from the default order), pruning
//! subtrees whose observable trace it has already seen (sleep-set style),
//! and checks structural invariants after every run: ABD reads return
//! old-or-new and never travel backwards, release-journal sequence numbers
//! stay unique, no blob is orphaned at quiescence and every file reads back
//! cold, the cache's byte accounting balances, and every `Pending` token is
//! settled at drain. A violating
//! schedule is [`shrink()`]-reduced to a minimal decision vector and
//! serialized as a replayable [`blob::Schedule`]. Pinned correct
//! interleavings are committed under `tests/schedules/`; a mutant's witness
//! sits beside its patch under `tests/mutants/`.
//!
//! The empty decision vector *is* today's deterministic schedule: with no
//! controller installed (production) or an exhausted vector, every choice
//! point picks index 0 and the trace is byte-identical to a run without the
//! seam.

pub mod blob;
pub mod controller;
pub mod explore;
pub mod scenario;
pub mod shrink;

pub use blob::{Expect, Schedule};
pub use controller::{ChoiceRecord, RunLog, VectorController};
pub use explore::{ExploreConfig, ExploreReport};
pub use scenario::{RunOutcome, ScenarioKind};
pub use shrink::shrink;
