//! Integration tests of the sharded, quorum-replicated metadata plane — the
//! acceptance criteria of the coordination-layer rebuild:
//!
//! * the namespace router is stable (same key, same shard, across router
//!   instances and across processes — the hash is a pinned FNV-1a, not the
//!   process-seeded std hasher) and balanced (no shard gets pathologically
//!   more or fewer directories than the mean), property-tested;
//! * the ABD register protocol is linearizable at the register level:
//!   concurrent reads during a write return the old or the new value (never
//!   a third one), reads that finish before the write starts return old,
//!   reads that start after the write finishes return new, and once any
//!   read returns new, no later non-overlapping read returns old
//!   (property-tested over random schedules);
//! * quorum reads stay correct with one crashed, partitioned or Byzantine
//!   replica per group (the existing `FaultInjector` plumbing, wired
//!   through `ShardedCoordinator::set_replica_fault`);
//! * the sharded coordinator behaves like the single-anchor one end to end
//!   (put/get/cas/list/rename across shard boundaries);
//! * the metadata-heavy fleet mode scales with the shard count (≥ 3× from one
//!   shard to four, stat p99 not rising, overlapping team directories slower
//!   than disjoint homes) and records per-op-class latencies;
//! * a replica serves a read in the first free slot at or after its
//!   arrival: a `stat` is not queued behind another mount's close whose
//!   update, stamped later behind its cloud PUT, reached the plane first;
//! * the fault paths no fault-free run takes (write-back, garbled votes,
//!   disagreeing `list` unions, the rename collect merge) fold to a pinned
//!   digest, whose call mix and value live in the ledger `tests/pins/mod.rs`.

mod pins;

use proptest::prelude::*;
use scfs_repro::cloud_store::store::OpCtx;
use scfs_repro::coord::abd::RegisterGroup;
use scfs_repro::coord::error::CoordError;
use scfs_repro::coord::replication::ReplicationConfig;
use scfs_repro::coord::router::{dirname, fnv1a, NamespaceRouter};
use scfs_repro::coord::service::CoordinationService;
use scfs_repro::coord::sharded::{ShardTopology, ShardedCoordinator};
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::metadata_service::MetadataService;
use scfs_repro::sim_core::fault::FaultPlan;
use scfs_repro::sim_core::time::{Clock, SimDuration, SimInstant};
use scfs_repro::workloads::fleet::{
    run_fleet_metadata, MetadataFleetConfig, MetadataFleetReport, MetadataMix,
};
use scfs_repro::workloads::setup::{Backend, Deployment, Plane};

// ---------------------------------------------------------------------------
// Router stability and balance
// ---------------------------------------------------------------------------

/// The routing rule is pinned — the FNV-1a of the directory component
/// (`coord::router`'s tests pin the hash's reference vectors), modulo the
/// shard count — or a rolling upgrade would re-partition the namespace. It
/// is the router's one rule: a lock key routes like any other key.
#[test]
fn router_hash_is_process_stable_fnv1a() {
    let router = NamespaceRouter::new(8);
    let lock = MetadataService::lock_key("u7-f3");
    for key in ["/scfs/meta/u7/f3", "/a/b/c", "rootless", "/top", &lock] {
        assert_eq!(
            router.route(key),
            (fnv1a(dirname(key).as_bytes()) % 8) as usize
        );
    }
}

/// A lock key has a directory of its own, `/scfs/locks/{storage id}`: the
/// whole key the router once hashed for locks alone. So every lock lands on
/// the shard it did under that rule, and a directory's locks still spread.
#[test]
fn lock_keys_route_as_their_full_key_did() {
    for shards in [2, 4, 8] {
        let router = NamespaceRouter::new(shards);
        let mut used = std::collections::BTreeSet::new();
        for k in 0..8 {
            for n in 1..=8 {
                let id = format!("u{k}-f{n}");
                let old_rule = fnv1a(format!("/scfs/locks/{id}").as_bytes()) % shards as u64;
                let shard = router.route(&MetadataService::lock_key(&id));
                assert_eq!(shard, old_rule as usize, "{id} on {shards} shards");
                used.insert(shard);
            }
        }
        assert!(used.len() > 1, "64 locks on one of {shards} shards");
    }
}

#[test]
fn independent_router_instances_agree() {
    let a = NamespaceRouter::new(5);
    let b = NamespaceRouter::new(5);
    for i in 0..200 {
        let key = format!("/scfs/meta/dir{}/file{}", i % 17, i);
        assert_eq!(a.route(&key), b.route(&key), "{key}");
        // Same directory, same shard: the sibling always colocates.
        assert_eq!(
            a.route(&key),
            a.route(&format!("/scfs/meta/dir{}/other", i % 17))
        );
    }
}

proptest! {
    /// Any set of directories spreads over the shards without a
    /// pathological hot or empty shard: every key in a directory lands on
    /// that directory's shard, and directory counts stay within a loose
    /// band around the mean.
    #[test]
    fn prop_router_balances_directories(salt in any::<u32>(), dirs in 256usize..512) {
        let shards = 8usize;
        let router = NamespaceRouter::new(shards);
        let mut load = vec![0u64; shards];
        for d in 0..dirs {
            let dir = format!("/scfs/meta/team{salt}/project-{d}");
            let shard = router.route(&format!("{dir}/README"));
            prop_assert_eq!(shard, router.route(&format!("{dir}/src")), "{}", dir);
            load[shard] += 1;
        }
        let mean = dirs as f64 / shards as f64;
        let max = *load.iter().max().unwrap() as f64;
        let min = *load.iter().min().unwrap() as f64;
        prop_assert!(max <= 2.0 * mean, "hot shard: {max} of mean {mean} ({load:?})");
        prop_assert!(min >= mean / 3.0, "starved shard: {min} of mean {mean} ({load:?})");
    }
}

// ---------------------------------------------------------------------------
// ABD linearizability
// ---------------------------------------------------------------------------

fn ctx_at<'a>(clock: &'a mut Clock, at: SimInstant, who: &str) -> OpCtx<'a> {
    clock.advance_to(at);
    OpCtx::new(clock, who.into())
}

/// One write among `reads` on a metro group, each started at its own
/// virtual instant and run in host order `host` (a permutation of the
/// schedule, write first): every read returns the old or the new value;
/// reads strictly before the write see old, strictly after see new; and new
/// is never followed by old between non-overlapping reads (the write-back
/// makes reads linearization points).
fn assert_abd_reads_are_linearizable(seed: u32, write_delay: u64, reads: &[u64], host: &[usize]) {
    let group = RegisterGroup::new(ReplicationConfig::metro_crash(1), seed as u64).unwrap();
    let base = SimInstant::from_secs(1);

    // Install the old value well before the contention window.
    let mut clock = Clock::new();
    let mut ctx = OpCtx::new(&mut clock, "w".into());
    group
        .write(&mut ctx, "/reg", b"old".to_vec().into())
        .unwrap();
    assert!(
        clock.now() < base,
        "initial write must settle before the window"
    );

    #[derive(Debug)]
    enum Op {
        Write,
        Read,
    }
    let mut schedule: Vec<(SimInstant, Op)> =
        vec![(base + SimDuration::from_millis(write_delay), Op::Write)];
    for &r in reads {
        schedule.push((base + SimDuration::from_millis(r), Op::Read));
    }

    let mut write_span = None;
    let mut read_log: Vec<(SimInstant, SimInstant, bool)> = Vec::new();
    for &i in host {
        let (at, op) = &schedule[i];
        let mut clock = Clock::new();
        let mut ctx = ctx_at(&mut clock, *at, "w");
        match op {
            Op::Write => {
                group
                    .write(&mut ctx, "/reg", b"new".to_vec().into())
                    .unwrap();
                write_span = Some((*at, clock.now()));
            }
            Op::Read => {
                let entry = group.read(&mut ctx, "/reg").unwrap();
                assert!(
                    entry.value == b"old" || entry.value == b"new",
                    "read returned a third value: {:?}",
                    entry.value
                );
                read_log.push((*at, clock.now(), entry.value == b"new"));
            }
        }
    }

    let (w_start, w_end) = write_span.unwrap();
    for &(start, end, saw_new) in &read_log {
        if end < w_start {
            assert!(
                !saw_new,
                "read finished before the write started but saw new"
            );
        }
        if start > w_end {
            assert!(saw_new, "read started after the write finished but saw old");
        }
    }
    // Monotonicity across non-overlapping read pairs.
    for &(_, end_a, new_a) in &read_log {
        for &(start_b, _, new_b) in &read_log {
            if end_a < start_b {
                assert!(
                    !new_a || new_b,
                    "a read observed new, then a later read observed old"
                );
            }
        }
    }
}

proptest! {
    /// Random read schedules around one write, executed in virtual start
    /// order (the stores are time-indexed, so this interleaves them
    /// correctly).
    #[test]
    fn prop_abd_reads_are_linearizable(seed in any::<u32>(), write_delay in 0u64..30, reads in collection::vec(0u64..150, 4..9)) {
        let mut host: Vec<usize> = (0..=reads.len()).collect();
        let start = |i: usize| if i == 0 { write_delay } else { reads[i - 1] };
        host.sort_by_key(|&i| start(i));
        assert_abd_reads_are_linearizable(seed, write_delay, &reads, &host);
    }

    /// The same schedules in a random host order: an operation may reach
    /// the replicas after one stamped later, as a close's update behind its
    /// cloud PUT does. A read takes the first free slot of each replica's
    /// calendar and reads the store as of it; an install waits for the
    /// horizon. The history stays linearizable in virtual time.
    #[test]
    fn prop_abd_reads_are_linearizable_in_any_host_order(seed in any::<u32>(), write_delay in 0u64..30, reads in collection::vec(0u64..150, 4..9), order in any::<u64>()) {
        let mut host: Vec<(u64, usize)> = (0..=reads.len())
            .map(|i| ((order ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15), i))
            .collect();
        host.sort_unstable();
        let host: Vec<usize> = host.into_iter().map(|(_, i)| i).collect();
        assert_abd_reads_are_linearizable(seed, write_delay, &reads, &host);
    }

    /// Writes by one account at random instants, in a random host order,
    /// with one replica out for part of the window: a write's timestamp
    /// query may be served before an install it runs after in host order,
    /// yet no two writes share a timestamp, and once they are done every
    /// read returns the value written under the highest.
    #[test]
    fn prop_abd_writes_in_any_host_order_take_distinct_timestamps(seed in any::<u32>(), writes in collection::vec(0u64..3000, 2..6), order in any::<u64>(), down in 0usize..3) {
        let group = RegisterGroup::new(ReplicationConfig::metro_crash(1), seed as u64).unwrap();
        let outage = FaultPlan::outage(SimInstant::from_secs(1), SimInstant::from_secs(2));
        group.set_fault(down, outage, seed as u64);
        let mut host: Vec<(u64, usize)> = (0..writes.len())
            .map(|i| ((order ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15), i))
            .collect();
        host.sort_unstable();
        let mut stamped = Vec::new();
        for (_, i) in host {
            let mut clock = Clock::new();
            let mut ctx = ctx_at(&mut clock, SimInstant::from_millis(writes[i]), "w");
            let value = format!("v{i}").into_bytes().into();
            stamped.push((group.write(&mut ctx, "/reg", value).unwrap(), i));
        }
        stamped.sort_unstable();
        prop_assert!(stamped.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", stamped);
        let newest = format!("v{}", stamped[stamped.len() - 1].1);
        let mut clock = Clock::starting_at(SimInstant::from_secs(5));
        for _ in 0..6 {
            let entry = group.read(&mut OpCtx::new(&mut clock, "w".into()), "/reg").unwrap();
            prop_assert_eq!(&entry.value[..], newest.as_bytes());
        }
    }
}

/// What a client saw of one key: a read's value (the index of the create
/// that wrote it), whether a `list` named the key, and whether an exclusive
/// create or a delete took effect.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Seen {
    Read(Option<usize>),
    Listed(bool),
    Created(usize, bool),
    Deleted(bool),
}

/// The state one key is left in by `seen` applied to `state` in sequence,
/// or `None` if a sequential run cannot answer `seen` there.
fn step(state: Option<usize>, seen: Seen) -> Option<Option<usize>> {
    match (seen, state) {
        (Seen::Read(value), _) => (value == state).then_some(state),
        (Seen::Listed(held), _) => (held == state.is_some()).then_some(state),
        (Seen::Created(value, true), None) => Some(Some(value)),
        (Seen::Deleted(true), Some(_)) => Some(None),
        (Seen::Created(_, false), Some(_)) | (Seen::Deleted(false), None) => Some(state),
        _ => None,
    }
}

/// Whether one key's operations, each `(invoked, answered, seen)`, have a
/// sequential order that keeps their real-time order and answers each as
/// seen (a search over the operations not yet placed, from `state`).
fn linearizable(
    ops: &[(SimInstant, SimInstant, Seen)],
    placed: u32,
    state: Option<usize>,
    tried: &mut std::collections::HashSet<(u32, Option<usize>)>,
) -> bool {
    let pending = || (0..ops.len()).filter(move |i| placed & (1 << i) == 0);
    let Some(first_answer) = pending().map(|i| ops[i].1).min() else {
        return true;
    };
    tried.insert((placed, state))
        && pending().filter(|&i| ops[i].0 <= first_answer).any(|i| {
            step(state, ops[i].2)
                .is_some_and(|next| linearizable(ops, placed | 1 << i, next, tried))
        })
}

proptest! {
    /// ABD reads, `list`, exclusive creates and deletes of two keys on one
    /// metro group, at random instants in three bursts 4 s apart, run in a
    /// random host order: every key's history is linearizable in virtual
    /// time. A change placed before a reply it runs after in host order
    /// would contradict that reply, whether a leader or a follower computed
    /// it, and a tombstone pruned while a reply on it can still be
    /// overtaken would let a create slip in before that reply.
    #[test]
    fn prop_no_reply_is_contradicted_by_a_change_placed_before_it(seed in any::<u32>(), ops in collection::vec(any::<u32>(), 4..11), order in any::<u64>()) {
        let plane = ShardedCoordinator::new(ShardTopology::metro(1, 1), seed as u64).unwrap();
        let keys = ["/d/a", "/d/b"];
        let mut host: Vec<(u64, usize)> = (0..ops.len())
            .map(|i| ((order ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15), i))
            .collect();
        host.sort_unstable();
        let mut history: [Vec<(SimInstant, SimInstant, Seen)>; 2] = Default::default();
        for (_, i) in host {
            let op = ops[i];
            let at = SimInstant::from_millis(1000 + 4000 * u64::from(op % 3) + u64::from(op >> 8) % 250);
            let mut clock = Clock::starting_at(at);
            let mut ctx = OpCtx::new(&mut clock, "alice".into());
            let k = (op >> 2) as usize % 2;
            let seen: Vec<(usize, Seen)> = match (op >> 3) % 4 {
                0 => match plane.get(&mut ctx, keys[k]) {
                    Ok(entry) => vec![(k, Seen::Read(Some(entry.value[0] as usize)))],
                    Err(CoordError::NotFound { .. }) => vec![(k, Seen::Read(None))],
                    Err(e) => panic!("get: {e}"),
                },
                1 => {
                    let listed = plane.list(&mut ctx, "/d/").unwrap();
                    (0..2).map(|k| (k, Seen::Listed(listed.iter().any(|l| l == keys[k])))).collect()
                }
                2 => match plane.cas(&mut ctx, keys[k], None, vec![i as u8]) {
                    Ok(_) => vec![(k, Seen::Created(i, true))],
                    Err(CoordError::AlreadyExists { .. }) => vec![(k, Seen::Created(i, false))],
                    Err(e) => panic!("cas: {e}"),
                },
                _ => match plane.delete(&mut ctx, keys[k]) {
                    Ok(()) => vec![(k, Seen::Deleted(true))],
                    Err(CoordError::NotFound { .. }) => vec![(k, Seen::Deleted(false))],
                    Err(e) => panic!("delete: {e}"),
                },
            };
            for (k, seen) in seen {
                history[k].push((at, clock.now(), seen));
            }
        }
        for (key, ops) in keys.iter().zip(&history) {
            let mut tried = Default::default();
            prop_assert!(linearizable(ops, 0, None, &mut tried), "{}: {:?}", key, ops);
        }
    }
}

// ---------------------------------------------------------------------------
// Fault masking through the sharded plane
// ---------------------------------------------------------------------------

#[test]
fn reads_survive_a_crashed_replica_in_every_shard() {
    let plane = ShardedCoordinator::new(ShardTopology::metro(2, 1), 11).unwrap();
    let mut clock = Clock::new();
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    for i in 0..8 {
        plane
            .put(&mut ctx, &format!("/d{i}/file"), vec![i as u8])
            .unwrap();
    }
    // One of the three replicas of each group crashes: f = 1 is exactly the
    // budget, so every read and write must still succeed.
    let now = ctx.clock.now();
    for shard in 0..2 {
        plane.set_replica_fault(shard, 2, FaultPlan::crash_at(now), 5);
    }
    for i in 0..8 {
        let entry = plane.get(&mut ctx, &format!("/d{i}/file")).unwrap();
        assert_eq!(entry.value, vec![i as u8]);
    }
    plane.put(&mut ctx, "/d0/file", b"v2".to_vec()).unwrap();
    assert_eq!(plane.get(&mut ctx, "/d0/file").unwrap().value, b"v2");
}

#[test]
fn reads_outvote_a_byzantine_replica() {
    // BFT f = 1: four replicas, reads need f + 1 = 2 matching replies, so a
    // single lying replica can never form a winning vote.
    let plane = ShardedCoordinator::new(
        ShardTopology::new(2, ReplicationConfig::coc_byzantine()),
        13,
    )
    .unwrap();
    let mut clock = Clock::new();
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    plane.put(&mut ctx, "/dir/file", b"truth".to_vec()).unwrap();
    plane.set_replica_fault(
        plane.router().route("/dir/file"),
        0,
        FaultPlan::always_byzantine(),
        7,
    );
    for _ in 0..10 {
        assert_eq!(plane.get(&mut ctx, "/dir/file").unwrap().value, b"truth");
    }
}

#[test]
fn reads_ride_out_a_replica_outage() {
    let plane = ShardedCoordinator::new(ShardTopology::metro(1, 1), 17).unwrap();
    let mut clock = Clock::new();
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    plane.put(&mut ctx, "/dir/file", b"v1".to_vec()).unwrap();
    let now = ctx.clock.now();
    plane.set_replica_fault(
        0,
        1,
        FaultPlan::outage(now, now + SimDuration::from_secs(60)),
        3,
    );
    // During the outage the remaining two replicas form the quorum...
    assert_eq!(plane.get(&mut ctx, "/dir/file").unwrap().value, b"v1");
    plane.put(&mut ctx, "/dir/file", b"v2".to_vec()).unwrap();
    // ...and after it ends, the recovered replica answers with a stale
    // timestamp and is outvoted (and written back to).
    clock.advance(SimDuration::from_secs(120));
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    assert_eq!(plane.get(&mut ctx, "/dir/file").unwrap().value, b"v2");
}

// ---------------------------------------------------------------------------
// A partition that heals: what a replica missed stays decided
// ---------------------------------------------------------------------------

/// A `delete`, a lock release and a rename that completed while one replica
/// was partitioned stay completed once it heals. The deletion takes a
/// register timestamp of its own, so the stale replica's live state loses
/// the vote instead of tying with the tombstone, and the read writes the
/// tombstone back.
#[test]
fn a_completed_delete_survives_the_heal_of_a_partitioned_replica() {
    let (tuple, lock, old, new) = (
        "/scfs/meta/d/tuple",
        "/scfs/locks/d/tuple/write",
        "/scfs/meta/d/old",
        "/scfs/meta/d/new",
    );
    for shards in [1, 4] {
        for seed in 0..8 {
            let plane = ShardedCoordinator::new(ShardTopology::metro(shards, 1), seed).unwrap();
            let mut clock = Clock::new();
            let mut ctx = OpCtx::new(&mut clock, "alice".into());
            plane.cas(&mut ctx, tuple, None, b"meta".to_vec()).unwrap();
            plane.cas(&mut ctx, old, None, b"moved".to_vec()).unwrap();
            let session = scfs_repro::coord::service::SessionId::new("s1");
            let lease = SimDuration::from_secs(3600);
            plane
                .create_ephemeral(&mut ctx, lock, vec![], &session, lease)
                .unwrap();

            let t0 = ctx.clock.now();
            let healed = t0 + SimDuration::from_secs(1);
            // Replica 1 of each owning group is partitioned away: one fault
            // per group, within the f = 1 every call promises to mask.
            for key in [tuple, lock, old] {
                let shard = plane.router().route(key);
                plane.set_replica_fault(shard, 1, FaultPlan::outage(t0, healed), 3);
            }
            plane.delete(&mut ctx, tuple).unwrap();
            plane.delete(&mut ctx, lock).unwrap();
            assert_eq!(plane.rename_prefix(&mut ctx, old, new).unwrap(), 1);

            clock.advance_to(healed + SimDuration::from_secs(1));
            let mut ctx = OpCtx::new(&mut clock, "alice".into());
            for round in 0..10 {
                for gone in [tuple, lock, old] {
                    let read = plane.get(&mut ctx, gone);
                    assert!(
                        matches!(read, Err(CoordError::NotFound { .. })),
                        "{shards} shards, seed {seed}, read {round}: {gone} came back as {read:?}"
                    );
                }
                assert_eq!(plane.get(&mut ctx, new).unwrap().value, b"moved");
            }
        }
    }
}

/// A leaf deleted while one replica was partitioned, and renamed after the
/// heal: that replica still holds the leaf, but every replica that applies
/// the move installs the newest state among them — the tombstone — so the
/// name stays gone under both names and the rename moves nothing.
#[test]
fn a_leaf_deleted_during_a_partition_is_not_renamed_back_after_the_heal() {
    let (old, new) = ("/scfs/meta/d/old", "/scfs/meta/d/new");
    for shards in [1, 4] {
        for (seed, replica) in (0..16).zip([1, 2].into_iter().cycle()) {
            let plane = ShardedCoordinator::new(ShardTopology::metro(shards, 1), seed).unwrap();
            let mut clock = Clock::new();
            let mut ctx = OpCtx::new(&mut clock, "alice".into());
            plane.cas(&mut ctx, old, None, b"leaf".to_vec()).unwrap();
            let t0 = ctx.clock.now();
            let healed = t0 + SimDuration::from_secs(1);
            let shard = plane.router().route(old);
            plane.set_replica_fault(shard, replica, FaultPlan::outage(t0, healed), 3);
            plane.delete(&mut ctx, old).unwrap();

            clock.advance_to(healed + SimDuration::from_secs(1));
            let mut ctx = OpCtx::new(&mut clock, "alice".into());
            let moved = plane.rename_prefix(&mut ctx, old, new).unwrap();
            assert_eq!(moved, 0, "{shards} shards, seed {seed}");
            for round in 0..10 {
                for gone in [old, new] {
                    let read = plane.get(&mut ctx, gone);
                    assert!(
                        matches!(read, Err(CoordError::NotFound { .. })),
                        "{shards} shards, seed {seed}, read {round}: {gone} came back as {read:?}"
                    );
                }
            }
        }
    }
}

/// An exclusive create — a `cas(None)` or a lock's `create_ephemeral` —
/// that commits while replica 1 is partitioned, and a second one of the key
/// after the heal: the second is refused, and no read ever returns its
/// value. The refusal is decided on the newest applying replica, not on one
/// that missed the first create, so no replica applies it.
fn a_second_create_after_the_heal_is_refused_everywhere(
    create: impl Fn(&ShardedCoordinator, &mut OpCtx<'_>, &[u8]) -> Result<(), CoordError>,
) {
    let key = "/scfs/meta/d/key";
    for seed in 0..50 {
        let plane = ShardedCoordinator::new(ShardTopology::metro(1, 1), seed).unwrap();
        let mut clock = Clock::new();
        let t0 = clock.now();
        let healed = t0 + SimDuration::from_secs(1);
        plane.set_replica_fault(0, 1, FaultPlan::outage(t0, healed), 3);
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        create(&plane, &mut ctx, b"first").unwrap();

        clock.advance_to(healed + SimDuration::from_secs(1));
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let second = create(&plane, &mut ctx, b"second");
        assert!(second.is_err(), "seed {seed}: the second create won");
        for round in 0..10 {
            let read = plane.get(&mut ctx, key).map(|entry| entry.value);
            assert_eq!(read, Ok(b"first".to_vec()), "seed {seed}, read {round}");
        }
    }
}

#[test]
fn a_refused_exclusive_create_after_a_partition_changes_no_replica() {
    a_second_create_after_the_heal_is_refused_everywhere(|plane, ctx, value| {
        let key = "/scfs/meta/d/key";
        plane.cas(ctx, key, None, value.to_vec()).map(drop)
    });
}

#[test]
fn a_refused_lock_after_a_partition_changes_no_replica() {
    let session = scfs_repro::coord::service::SessionId::new("s1");
    a_second_create_after_the_heal_is_refused_everywhere(|plane, ctx, value| {
        let (key, lease) = ("/scfs/meta/d/key", SimDuration::from_secs(3600));
        plane.create_ephemeral(ctx, key, value.to_vec(), &session, lease)
    });
}

/// The keys the model-based tests below work on: a handful of directories
/// (so a four-shard plane spreads them) with a few names each.
fn model_key(pick: u32) -> String {
    format!("/scfs/meta/d{}/k{}", pick % 3, pick / 3 % 3)
}

/// A plane of `shards` groups in which one non-leader replica of *every*
/// group is partitioned away while steps `[from, to)` run; step `i` starts
/// at [`step_instant`]`(i)`.
fn plane_with_outage(
    shards: usize,
    seed: u32,
    replica: usize,
    from: usize,
    to: usize,
) -> ShardedCoordinator {
    let plane = ShardedCoordinator::new(ShardTopology::metro(shards, 1), seed as u64).unwrap();
    for shard in 0..shards {
        let plan = FaultPlan::outage(step_instant(from), step_instant(to));
        plane.set_replica_fault(shard, replica, plan, 7);
    }
    plane
}

/// Steps are a virtual second apart — far more than any call takes — so
/// each runs entirely inside or outside the outage.
fn step_instant(step: usize) -> SimInstant {
    SimInstant::from_secs(1 + step as u64)
}

proptest! {
    /// Point reads against a `BTreeMap` reference: a random sequence of
    /// `put`, `cas` (create or update, and refused ones), `delete` (of
    /// present and absent keys) and a rename within one directory (the
    /// model moves the value) with one non-leader
    /// replica of each group partitioned for a random run of steps; after
    /// every step — during the outage and after it — `get` of every key
    /// equals the model's.
    #[test]
    fn prop_point_reads_match_a_model_across_a_partition(
        seed in any::<u32>(),
        shards in 1usize..5,
        replica in 1usize..3,
        outage in collection::vec(0usize..40, 2..3),
        commands in collection::vec(any::<u32>(), 20..40),
    ) {
        let (from, to) = (outage[0].min(outage[1]), outage[0].max(outage[1]));
        let plane = plane_with_outage(shards, seed, replica, from, to);
        let mut model: std::collections::BTreeMap<String, Vec<u8>> = Default::default();
        let mut clock = Clock::new();
        for (step, command) in commands.iter().enumerate() {
            let mut ctx = ctx_at(&mut clock, step_instant(step), "alice");
            let key = model_key(command >> 8);
            let value = command.to_le_bytes().to_vec();
            match command % 5 {
                0 => {
                    plane.put(&mut ctx, &key, value.clone()).unwrap();
                    model.insert(key, value);
                }
                1 => {
                    // A conditional update the model says must succeed:
                    // exclusive create of an absent key, or an update at the
                    // version a read just returned.
                    let expected = model
                        .contains_key(&key)
                        .then(|| plane.get(&mut ctx, &key).unwrap().version);
                    plane.cas(&mut ctx, &key, expected, value.clone()).unwrap();
                    model.insert(key, value);
                }
                2 => {
                    // One the model says must be refused: an exclusive
                    // create of a present key, or an update of a present key
                    // at a stale version or of an absent one at any.
                    let expected = match model.contains_key(&key) {
                        true if command & 0x80 == 0 => None,
                        true => Some(plane.get(&mut ctx, &key).unwrap().version - 1),
                        false => Some(1),
                    };
                    let refused = plane.cas(&mut ctx, &key, expected, value);
                    let why = matches!(refused, Err(CoordError::AlreadyExists { .. } | CoordError::VersionMismatch { .. }));
                    prop_assert!(why, "step {}: {} at {:?}: {:?}", step, key, expected, refused);
                }
                3 => {
                    let deleted = plane.delete(&mut ctx, &key);
                    match model.remove(&key) {
                        Some(_) => deleted.unwrap(),
                        None => prop_assert!(matches!(deleted, Err(CoordError::NotFound { .. }))),
                    }
                }
                _ => {
                    // A rename within the directory: the entry's own move,
                    // a value clobbering the target's, or nothing at all.
                    let pick = command >> 8;
                    let to = model_key(pick + 3 * (1 + ((command >> 7) & 1)));
                    let moved = plane.rename_prefix(&mut ctx, &key, &to).unwrap();
                    let value = model.remove(&key);
                    prop_assert_eq!(moved, usize::from(value.is_some()), "step {}: {} -> {}", step, key, to);
                    if let Some(value) = value {
                        model.insert(to, value);
                    }
                }
            }
            for pick in 0..9 {
                let key = model_key(pick);
                let read = plane.get(&mut ctx, &key).map(|entry| entry.value).ok();
                prop_assert_eq!(read.as_ref(), model.get(&key), "step {} ({}..{}): {}", step, from, to, key);
            }
        }
    }

    /// `list` against the same reference, on creating commands only (`put`,
    /// `cas`): the replica that was partitioned lacks keys the others hold,
    /// so the quorum's replies differ and `list` must take their union — the
    /// path the agreeing-quorum shortcut bypasses.
    #[test]
    fn prop_list_matches_a_model_across_a_partition(
        seed in any::<u32>(),
        shards in 1usize..5,
        replica in 1usize..3,
        outage in collection::vec(0usize..30, 2..3),
        commands in collection::vec(any::<u32>(), 15..30),
    ) {
        let (from, to) = (outage[0].min(outage[1]), outage[0].max(outage[1]));
        let plane = plane_with_outage(shards, seed, replica, from, to);
        let mut model: std::collections::BTreeSet<String> = Default::default();
        let mut clock = Clock::new();
        for (step, command) in commands.iter().enumerate() {
            let mut ctx = ctx_at(&mut clock, step_instant(step), "alice");
            let key = model_key(command >> 8);
            if command % 2 == 0 || model.contains(&key) {
                plane.put(&mut ctx, &key, vec![1]).unwrap();
            } else {
                plane.cas(&mut ctx, &key, None, vec![2]).unwrap();
            }
            model.insert(key);
            for dir in 0..3 {
                let prefix = format!("/scfs/meta/d{dir}/");
                let expected: Vec<&String> = model.iter().filter(|key| key.starts_with(&prefix)).collect();
                let listed = plane.list(&mut ctx, &prefix).unwrap();
                prop_assert_eq!(listed.iter().collect::<Vec<_>>(), expected, "step {} ({}..{})", step, from, to);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fault paths a fault-free run never takes, pinned by digest
// ---------------------------------------------------------------------------

/// Write-back, garbled votes, the `list` union of replicas that disagree
/// and the collect merge of a rename, on a crash-tolerant and a Byzantine
/// plane with faulty replicas, fold to the `fault_paths.digest` pin.
#[test]
fn fault_paths_fold_to_a_pinned_digest() {
    pins::assert_pins_hold(&pins::fault_path_pins());
}

// ---------------------------------------------------------------------------
// Sharded coordinator end to end
// ---------------------------------------------------------------------------

#[test]
fn sharded_plane_serves_the_full_coordination_api() {
    let plane = ShardedCoordinator::new(ShardTopology::test(4), 23).unwrap();
    let mut clock = Clock::new();
    let mut ctx = OpCtx::new(&mut clock, "alice".into());

    // Entries spread over shards but list unions them back together.
    for d in 0..6 {
        plane
            .put(&mut ctx, &format!("/scfs/meta/d{d}/f"), vec![d as u8])
            .unwrap();
    }
    let listed = plane.list(&mut ctx, "/scfs/meta/").unwrap();
    assert_eq!(listed.len(), 6);

    // CAS is serialized through the owning group's SMR lane and sees the
    // versions the ABD lane produced.
    let v = plane.get(&mut ctx, "/scfs/meta/d0/f").unwrap().version;
    plane
        .cas(&mut ctx, "/scfs/meta/d0/f", Some(v), b"cas".to_vec())
        .unwrap();
    assert!(plane
        .cas(&mut ctx, "/scfs/meta/d0/f", Some(v), b"stale".to_vec())
        .is_err());

    // Rename moves a whole subtree across shard boundaries.
    let moved = plane
        .rename_prefix(&mut ctx, "/scfs/meta/d1", "/scfs/meta/renamed")
        .unwrap();
    assert_eq!(moved, 1);
    assert!(plane.get(&mut ctx, "/scfs/meta/d1/f").is_err());
    assert_eq!(
        plane.get(&mut ctx, "/scfs/meta/renamed/f").unwrap().value,
        vec![1]
    );
}

// ---------------------------------------------------------------------------
// Replica calendars: host order is not virtual order
// ---------------------------------------------------------------------------

/// Alice's blocking close updates her tuple once its S3 PUT is done, so the
/// update is stamped hundreds of milliseconds after the close began. It runs
/// first in host order; Bob's `stat`, stamped in between, still reaches the
/// one metro group's replicas before that update and is served in one round
/// (a 16 ms round trip and 6 ms of processing at most), not after it.
#[test]
fn a_stat_is_not_queued_behind_a_later_stamped_close_on_another_mount() {
    let deployment = Deployment::on(Backend::Aws)
        .plane(Plane::Sharded(ShardTopology::metro(1, 1)))
        .build(56);
    let config = ScfsConfig::test(Mode::Blocking);
    let mut alice = deployment.mount("alice", config.clone(), 1);
    let mut bob = deployment.mount("bob", config, 2);
    alice.write_file("/alice", b"first").unwrap();
    bob.write_file("/bob", b"bob's").unwrap();
    let start = alice.now().max(bob.now()) + SimDuration::from_secs(2);
    alice.sleep(start.duration_since(alice.now()));
    bob.sleep(start.duration_since(bob.now()) + SimDuration::from_millis(100));

    alice.write_file("/alice", &[7; 4096]).unwrap();
    let closed = alice.now().duration_since(start);
    assert!(
        closed > SimDuration::from_millis(200),
        "close took {closed:?}"
    );
    let asked = bob.now();
    assert_eq!(bob.stat("/bob").unwrap().size, 5);
    let took = bob.now().duration_since(asked);
    assert!(
        took <= SimDuration::from_millis(22),
        "a stat asked {:?} into a {closed:?} close took {took:?}",
        asked.duration_since(start)
    );
}

// ---------------------------------------------------------------------------
// Fleet-mode shard scaling
// ---------------------------------------------------------------------------

/// A metadata storm that outruns one register group: 128 mounts, 40
/// stat-dominated operations each (renames scatter a collect round to every
/// group, so a heavy rename share would cap the scaling), 10 ms think over
/// 2–6 ms replica processing, and no client metadata cache, so every call
/// reaches the plane. `disjoint` gives every mount its own home directory;
/// otherwise the fleet shares two team directories.
fn shard_storm(shards: usize, disjoint: bool) -> MetadataFleetReport {
    let mut cfg = MetadataFleetConfig::smoke();
    cfg.mounts = 128;
    cfg.teams = 2;
    cfg.files_per_dir = 12;
    cfg.ops_per_mount = 40;
    cfg.disjoint_dirs = disjoint;
    cfg.mix = MetadataMix {
        stat: 0.70,
        open: 0.18,
        mkdir: 0.07,
        rename: 0.05,
    };
    cfg.zipf_theta = 0.9;
    cfg.mean_think = SimDuration::from_millis(10);
    cfg.seed = 0x4D45_5441;
    let deployment = Deployment::on(Backend::Aws)
        .plane(Plane::Sharded(ShardTopology::metro(shards, 1)))
        .build(cfg.seed);
    run_fleet_metadata(&deployment, &cfg)
}

/// Paper §4's sharding claim: one group saturates whatever its replica
/// count, so only shards add throughput. From one metro shard to four, the
/// disjoint storm runs at least 3× the operations per virtual second, its
/// stat p99 does not rise, and every op class is recorded; two overlapping
/// team directories hash to at most two of the four shards and forfeit most
/// of the win.
#[test]
fn metadata_fleet_throughput_scales_with_shards() {
    let mut narrow = shard_storm(1, true);
    let mut wide = shard_storm(4, true);
    let scaling = wide.throughput() / narrow.throughput();
    assert!(
        scaling >= 3.0,
        "1→4 shards must triple throughput, got {scaling:.2}x ({:.1} → {:.1} ops/s)",
        narrow.throughput(),
        wide.throughput()
    );
    let (p99_1, p99_4) = (
        narrow.recorder.percentile("stat", 99.0),
        wide.recorder.percentile("stat", 99.0),
    );
    assert!(
        p99_4 <= p99_1,
        "stat p99 rose with more shards: {p99_1:.4}s → {p99_4:.4}s"
    );
    for op in ["stat", "open", "mkdir", "rename"] {
        assert!(
            wide.recorder.summary(op).is_some(),
            "missing per-op class {op}"
        );
    }
    let overlapping = shard_storm(4, false);
    assert!(
        overlapping.throughput() < wide.throughput(),
        "overlapping team directories must concentrate the load: {:.1} vs {:.1} ops/s",
        overlapping.throughput(),
        wide.throughput()
    );
}
