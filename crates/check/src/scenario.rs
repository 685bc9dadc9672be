//! The checked scenarios: small, racy workloads with oracle invariants.
//!
//! A scenario is a pure function from `(seed, decision vector)` to a
//! [`RunOutcome`]: it builds a fresh simulated system, installs a
//! [`VectorController`] into the schedule seam, drives a fixed operation
//! script, and evaluates its invariants. Determinism of the simulator makes
//! the mapping exact — the same pair always yields the same record
//! sequence, trace hash and violations, which is what exploration, shrinking
//! and corpus replay all rely on.
//!
//! Two scenarios ship today, one per racy subsystem:
//!
//! * [`ScenarioKind::AbdQuorum`] — two writers and one reader race on one
//!   ABD register; the oracle is single-register linearizability ("old or
//!   new, never backwards"). The explorer's own test is a checked-in
//!   mutant, `tests/mutants/abd-read-quorum-skew.patch`: it narrows the
//!   read-side decision quorum by one — the classic off-by-one that stock
//!   stress tests miss but reply reordering exposes — and its shrunk
//!   witness sits beside it.
//! * [`ScenarioKind::ChunkstoreGc`] — non-blocking closes race the chunk
//!   garbage collector, and a second backend instance stores and collects
//!   identical content; the oracle is the cache's byte accounting, a cold
//!   read of every file, and at quiescence a release journal that one
//!   fault-free replay drains on each instance, zero orphaned blobs across
//!   both instances and every `Pending` settled at drain.

use std::sync::Arc;

use cloud_store::providers::ProviderProfile;
use cloud_store::sim_cloud::SimulatedCloud;
use cloud_store::store::OpCtx;
use coord::abd::RegisterGroup;
use coord::replication::{ReplicatedCoordinator, ReplicationConfig};
use coord::router::fnv1a;
use coord::service::CoordinationService;
use parking_lot::Mutex;
use scfs::agent::ScfsAgent;
use scfs::backend::{FileStorage, SingleCloudStorage};
use scfs::chunkstore::{JournalOpts, KeyStyle};
use scfs::config::{Mode, ScfsConfig};
use scfs::fs::FileSystem;
use scfs::invariant::InvariantViolation;
use scfs::types::{CutRule, OpenFlags};
use sim_core::background::Pending;
use sim_core::fault::FaultPlan;
use sim_core::schedule::ControllerSlot;
use sim_core::time::{Clock, SimDuration, SimInstant};
use sim_core::units::Bytes;

use crate::controller::{ChoiceRecord, RunLog, VectorController};

/// Which scenario to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Two ABD writers and a reader race on one register.
    AbdQuorum,
    /// Non-blocking closes race the chunkstore garbage collector.
    ChunkstoreGc,
}

impl ScenarioKind {
    /// Stable scenario name, used in schedule blobs and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::AbdQuorum => "abd-quorum",
            ScenarioKind::ChunkstoreGc => "chunkstore-gc",
        }
    }

    /// Parses a scenario name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "abd-quorum" => Some(ScenarioKind::AbdQuorum),
            "chunkstore-gc" => Some(ScenarioKind::ChunkstoreGc),
            _ => None,
        }
    }

    /// Every scenario, for `--scenario all`.
    pub fn all() -> &'static [ScenarioKind] {
        &[ScenarioKind::AbdQuorum, ScenarioKind::ChunkstoreGc]
    }

    /// Runs the scenario under `decisions` and evaluates its invariants.
    pub fn run(self, seed: u64, decisions: &[usize]) -> RunOutcome {
        match self {
            ScenarioKind::AbdQuorum => run_abd(seed, decisions),
            ScenarioKind::ChunkstoreGc => run_chunkstore_gc(seed, decisions),
        }
    }
}

/// What one schedule did: the choice points it hit, the invariants it broke
/// and a hash of its observable trace.
#[derive(Debug)]
pub struct RunOutcome {
    /// Every choice point answered, in order.
    pub records: Vec<ChoiceRecord>,
    /// Invariant violations, empty on a correct run.
    pub violations: Vec<InvariantViolation>,
    /// FNV-1a hash of the observable events (op results and instants) —
    /// schedules with equal hashes are observationally equivalent.
    pub trace_hash: u64,
}

fn controller_pair(decisions: &[usize]) -> (ControllerSlot, Arc<Mutex<RunLog>>) {
    let log = Arc::new(Mutex::new(RunLog::default()));
    let slot = ControllerSlot::new(VectorController::new(decisions.to_vec(), log.clone()));
    (slot, log)
}

fn take_records(log: &Mutex<RunLog>) -> Vec<ChoiceRecord> {
    std::mem::take(&mut log.lock().records)
}

// --- ABD quorum scenario ---------------------------------------------------

/// One completed register operation, for the linearizability oracle.
#[derive(Debug)]
struct AbdEvent {
    label: &'static str,
    invoked: SimInstant,
    responded: SimInstant,
    /// The version the op wrote (writes) or observed (reads).
    version: u64,
    /// `true` for reads.
    is_read: bool,
}

/// Two writers and a reader race on one register while one replica briefly
/// blinks out.
///
/// The script: a setup write (outside the controlled window) gives the
/// register an "old" value, then replica 2 goes through a short outage that
/// makes it miss writer 1's install — the canonical ABD configuration where
/// replicas *disagree* and reply delivery order decides what a read
/// observes. After the outage heals, a reader issues three back-to-back
/// reads, then writer 2 writes again. Reply delivery within every broadcast
/// round is under controller choice.
///
/// With the correct quorum, any `write_quorum` considered replies contain a
/// fresh one and the decide-by-max plus write-back repair the lagging
/// replica, so every schedule is clean. Under the off-by-one mutant
/// (`tests/mutants/abd-read-quorum-skew.patch`) a read decides from a single
/// reply, and the schedule that delivers the lagging replica first returns
/// the old value after writer 1 completed.
///
/// Oracle — single-register linearizability, version order as value order:
/// 1. a read observing a version the register never committed;
/// 2. a read invoked after a write responded returning an older version
///    ("old after new");
/// 3. two non-overlapping reads travelling backwards in version order.
fn run_abd(seed: u64, decisions: &[usize]) -> RunOutcome {
    const KEY: &str = "/reg";
    let group = RegisterGroup::new(ReplicationConfig::metro_crash(1), seed)
        .expect("metro_crash(1) is a consistent configuration");

    // Setup write, outside the explored window: the controller is installed
    // only afterwards, so the decision vector's indices start at the race.
    let mut base_clock = Clock::new();
    let mut ctx = OpCtx::new(&mut base_clock, "checker".into());
    let v_old = group
        .write(&mut ctx, KEY, Arc::from(&b"old"[..]))
        .expect("setup write cannot fail without faults");

    // Replica 2 is unavailable for writer 1's whole write — both the
    // timestamp query and the install land inside the window under the
    // metro latency bounds (RTT ≤ 16 ms, processing ≤ 6 ms per phase) — and
    // back up before the reads arrive: it answers them with the old value.
    let base = base_clock.now();
    group.set_fault(
        2,
        FaultPlan::outage(base, base + SimDuration::from_millis(45)),
        seed,
    );

    let (slot, log) = controller_pair(decisions);
    group.install_schedule_controller(slot);

    let mut events = Vec::new();

    // Writer 1's install lands on replicas 0 and 1 only.
    let mut w1_clock = base_clock.fork();
    let mut ctx = OpCtx::new(&mut w1_clock, "checker".into());
    let invoked = ctx.clock.now();
    let v1 = group
        .write(&mut ctx, KEY, Arc::from(&b"new1"[..]))
        .expect("write cannot fail without faults");
    events.push(AbdEvent {
        label: "w1",
        invoked,
        responded: w1_clock.now(),
        version: v1,
        is_read: false,
    });

    // The reads start after writer 1 responded and after replica 2 healed:
    // any read below returning a version older than `v1` is "old after new".
    let mut r_clock = w1_clock.fork();
    r_clock.advance_to((base + SimDuration::from_millis(46)).max(w1_clock.now()));
    for label in ["r1", "r2", "r3", "r4"] {
        let mut ctx = OpCtx::new(&mut r_clock, "checker".into());
        let invoked = ctx.clock.now();
        let entry = group
            .read(&mut ctx, KEY)
            .expect("read cannot fail without faults");
        events.push(AbdEvent {
            label,
            invoked,
            responded: r_clock.now(),
            version: entry.version,
            is_read: true,
        });
    }

    // Writer 2 writes after the reads; its rounds widen the explored window
    // and its version joins the committed set the oracle accepts.
    let mut w2_clock = r_clock.fork();
    w2_clock.advance_to(r_clock.now() + SimDuration::from_millis(1));
    let mut ctx = OpCtx::new(&mut w2_clock, "checker".into());
    let invoked = ctx.clock.now();
    let v2 = group
        .write(&mut ctx, KEY, Arc::from(&b"new2"[..]))
        .expect("write cannot fail without faults");
    events.push(AbdEvent {
        label: "w2",
        invoked,
        responded: w2_clock.now(),
        version: v2,
        is_read: false,
    });

    let committed: Vec<u64> = vec![v_old, v1, v2];
    let mut violations = Vec::new();
    for e in events.iter().filter(|e| e.is_read) {
        if !committed.contains(&e.version) {
            violations.push(InvariantViolation::new(
                "abd.phantom-read",
                format!("{} observed version {} never committed", e.label, e.version),
            ));
        }
    }
    // Old-after-new: a read invoked after a write responded must observe it.
    for w in events.iter().filter(|e| !e.is_read) {
        for r in events.iter().filter(|e| e.is_read) {
            if w.responded < r.invoked && r.version < w.version {
                violations.push(InvariantViolation::new(
                    "abd.stale-read",
                    format!(
                        "{} (v{} @{}ns) invoked after {} responded (v{} @{}ns)",
                        r.label,
                        r.version,
                        r.invoked.as_nanos(),
                        w.label,
                        w.version,
                        w.responded.as_nanos(),
                    ),
                ));
            }
        }
    }
    // Monotonic reads: non-overlapping reads never travel backwards.
    for (i, r1) in events.iter().enumerate().filter(|(_, e)| e.is_read) {
        for r2 in events.iter().skip(i + 1).filter(|e| e.is_read) {
            if r1.responded < r2.invoked && r2.version < r1.version {
                violations.push(InvariantViolation::new(
                    "abd.non-monotonic-read",
                    format!(
                        "{} observed v{} after {} observed v{}",
                        r2.label, r2.version, r1.label, r1.version
                    ),
                ));
            }
        }
    }

    let mut trace = String::new();
    for e in &events {
        use std::fmt::Write as _;
        write!(
            trace,
            "{}:v{}:i{}:r{};",
            e.label,
            e.version,
            e.invoked.as_nanos(),
            e.responded.as_nanos()
        )
        .ok();
    }

    RunOutcome {
        records: take_records(&log),
        violations,
        trace_hash: fnv1a(trace.as_bytes()),
    }
}

// --- Chunkstore GC scenario ------------------------------------------------

/// Non-blocking closes race the chunkstore garbage collector.
///
/// The script: one agent in non-blocking mode overwrites two files in
/// rounds. Each close spawns a background upload on the file's lane; a low
/// GC threshold fires the collector mid-flight, releasing superseded
/// versions through the two-phase journal. Lane dispatch and journal replay
/// order are under controller choice. Then `bob`, a mount on a second
/// backend instance over the same cloud, as every client runs its own
/// agent, writes the content of `/a`'s last version under his own path,
/// unlinks it and lets his collector reclaim it. Structural invariants are
/// evaluated after every syscall, and quiescence invariants (a journal each
/// instance's fault-free replay drains, orphans over both instances,
/// pending settlement, a cold read of alice's files) after sleeping past the
/// drain horizon.
///
/// Exploration asserts the invariants hold under every explored
/// interleaving.
fn run_chunkstore_gc(seed: u64, decisions: &[usize]) -> RunOutcome {
    const CHUNK: u64 = 16 * 1024;
    // A WAN-latency cloud: uploads take real virtual time, so lanes overlap
    // and the lane-dispatch choice points actually fire.
    let cloud = Arc::new(SimulatedCloud::new(ProviderProfile::amazon_s3(), seed));
    let storage = Arc::new(SingleCloudStorage::new(cloud.clone()));
    let coordinator: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
    let mut config = ScfsConfig::test(Mode::NonBlocking);
    config.chunking = CutRule::Fixed(CHUNK as usize);
    config.gc.written_bytes_threshold = Bytes::new(6 * CHUNK);
    config.gc.versions_to_keep = 1;
    let mut fs = ScfsAgent::mount(
        "alice".into(),
        config,
        storage.clone(),
        Some(coordinator.clone()),
        seed,
    )
    .expect("test mount cannot fail");

    let (slot, log) = controller_pair(decisions);
    fs.install_schedule_controller(slot);

    let mut violations = Vec::new();
    let payload = |round: usize, file: usize| -> Vec<u8> {
        // 3 chunks per version, so every overwrite supersedes a full
        // version's worth of chunks and the GC has real work. Their
        // manifests ride inline in the metadata tuple and store no object;
        // `/b`'s second version has 13 chunks, one past the inline bound, so
        // a manifest object is written, pruned and released too and journal
        // replay keeps permuting chunk *and* manifest entries. Five distinct
        // contents among the 13 keep that batch at eight entries — wide
        // enough to shuffle, narrow enough for the smoke budget to cover.
        let big = (round, file) == (1, 1);
        let mut data = vec![0u8; if big { 13 } else { 3 } * CHUNK as usize];
        for (i, chunk) in data.chunks_mut(CHUNK as usize).enumerate() {
            chunk.fill(if big {
                0x80 | (i % 5) as u8
            } else {
                (round as u8) << 4 | (file as u8) << 2 | i as u8 | 1
            });
        }
        data
    };

    const ROUNDS: usize = 4;
    for round in 0..ROUNDS {
        for (file, path) in ["/a", "/b"].iter().enumerate() {
            fs.write_file(path, &payload(round, file))
                .expect("simulated write cannot fail without faults");
            fs.check_invariants(&mut violations);
        }
    }
    // A read in the middle keeps the cache tiers honest under the races.
    let h = fs
        .open("/a", OpenFlags::read_only())
        .expect("open after write succeeds");
    fs.close(h).expect("close of clean handle succeeds");
    fs.check_invariants(&mut violations);

    // A second instance stores identical content as its own object and
    // collects it: what it deletes must be nothing of alice's.
    let second = Arc::new(SingleCloudStorage::new(cloud.clone()));
    let mut bob_config = ScfsConfig::test(Mode::Blocking);
    bob_config.chunking = CutRule::Fixed(CHUNK as usize);
    bob_config.gc.written_bytes_threshold = Bytes::new(1);
    let mut bob = ScfsAgent::mount(
        "bob".into(),
        bob_config,
        second.clone(),
        Some(coordinator.clone()),
        seed + 1,
    )
    .expect("test mount cannot fail");
    let last = |file: usize| payload(ROUNDS - 1, file);
    bob.write_file("/bob", &last(0))
        .and_then(|()| bob.unlink("/bob"))
        .and_then(|()| bob.write_file("/bob-trigger", b"x"))
        .expect("simulated write cannot fail without faults");
    bob.check_invariants(&mut violations);

    // Quiescence: sleep past the drain horizon, then nothing may be in
    // flight, no blob may be orphaned and the journal must be clean.
    let drain = fs.background_drain_instant();
    fs.wait_for(&Pending::new((), drain, drain));
    fs.check_invariants(&mut violations);
    let in_flight = fs.background_in_flight();
    if in_flight != 0 {
        violations.push(InvariantViolation::new(
            "background.unsettled-at-drain",
            format!("{in_flight} background jobs in flight past the drain horizon"),
        ));
    }
    let drain = drain.max(bob.background_drain_instant());
    let mut reader = ScfsAgent::mount(
        "alice".into(),
        ScfsConfig::test(Mode::Blocking),
        Arc::new(SingleCloudStorage::new(cloud.clone())),
        Some(coordinator),
        seed + 2,
    )
    .expect("test mount cannot fail");
    reader.wait_for(&Pending::new((), drain, drain));
    for (file, path) in ["/a", "/b"].iter().enumerate() {
        let detail = match reader.read_file(path) {
            Ok(data) if data == last(file) => continue,
            Ok(data) => format!("a cold mount reads {} other bytes as {path}", data.len()),
            Err(e) => format!("a cold mount cannot read {path}: {e}"),
        };
        violations.push(InvariantViolation::new("chunkstore.cold-read", detail));
    }
    // A fault-free replay applies every release intent: one still pending
    // after it is a release no replay would ever apply.
    for (instance, account) in [(&storage, "alice"), (&second, "bob")] {
        let mut clock = Clock::starting_at(drain);
        let mut ctx = OpCtx::new(&mut clock, account.into());
        instance
            .replay_release_journal(&mut ctx, &JournalOpts::default())
            .ok();
        let pending = instance.pending_releases();
        if pending != 0 {
            violations.push(InvariantViolation::new(
                "chunkstore.journal-drained",
                format!("{account}: {pending} release intents pending after a fault-free replay"),
            ));
        }
    }
    let orphans = storage
        .blob_audit()
        .union(second.blob_audit())
        .orphans(KeyStyle::Aws, cloud.stored_keys("scfs/"));
    if !orphans.is_empty() {
        violations.push(InvariantViolation::new(
            "chunkstore.orphan-blobs",
            format!(
                "{} unreachable blobs at quiescence: {orphans:?}",
                orphans.len()
            ),
        ));
    }

    let stats = fs.stats();
    let mut keys = cloud.stored_keys("scfs/");
    keys.sort();
    let trace = format!(
        "up{}:down{}:gc{}:rec{}:fail{}:drain{}:keys{}",
        stats.chunk_uploads,
        stats.chunk_downloads,
        stats.gc_runs,
        stats.gc_reclaimed_versions,
        stats.gc_errors,
        drain.as_nanos(),
        keys.join(",")
    );

    RunOutcome {
        records: take_records(&log),
        violations,
        trace_hash: fnv1a(trace.as_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abd_default_schedule_is_clean_and_stable() {
        let a = ScenarioKind::AbdQuorum.run(7, &[]);
        let b = ScenarioKind::AbdQuorum.run(7, &[]);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.records.len(), b.records.len());
        assert!(
            a.records.iter().all(|r| r.chose == 0),
            "empty vector must take the default order everywhere"
        );
        assert!(!a.records.is_empty(), "the race window must offer choices");
    }

    #[test]
    fn chunkstore_default_schedule_is_clean_and_stable() {
        let a = ScenarioKind::ChunkstoreGc.run(7, &[]);
        let b = ScenarioKind::ChunkstoreGc.run(7, &[]);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert!(!a.records.is_empty(), "the race window must offer choices");
    }

    #[test]
    fn same_decisions_same_outcome() {
        let probe = ScenarioKind::AbdQuorum.run(7, &[]);
        let flip = vec![1; probe.records.len().min(4)];
        let a = ScenarioKind::AbdQuorum.run(7, &flip);
        let b = ScenarioKind::AbdQuorum.run(7, &flip);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.records, b.records);
    }
}
