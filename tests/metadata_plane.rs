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
//! * the metadata-heavy fleet mode scales with the shard count and records
//!   per-op-class latencies.

use proptest::prelude::*;
use scfs_repro::cloud_store::store::OpCtx;
use scfs_repro::cloud_store::types::{Acl, Permission};
use scfs_repro::coord::abd::RegisterGroup;
use scfs_repro::coord::error::CoordError;
use scfs_repro::coord::replication::ReplicationConfig;
use scfs_repro::coord::router::{dirname, fnv1a, NamespaceRouter};
use scfs_repro::coord::service::{CoordinationService, SessionId};
use scfs_repro::coord::sharded::{ShardTopology, ShardedCoordinator};
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::sim_core::fault::FaultPlan;
use scfs_repro::sim_core::rng::DetRng;
use scfs_repro::sim_core::time::{Clock, SimDuration, SimInstant};
use scfs_repro::workloads::fleet::{run_fleet_metadata, MetadataFleetConfig};
use scfs_repro::workloads::setup::{Backend, Deployment, Plane};

// ---------------------------------------------------------------------------
// Router stability and balance
// ---------------------------------------------------------------------------

/// The routing hash is pinned FNV-1a: these reference vectors must never
/// change, or a rolling upgrade would re-partition the namespace.
#[test]
fn router_hash_is_process_stable_fnv1a() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    // The routing rule itself is pinned: hash of the directory component,
    // modulo the shard count.
    let router = NamespaceRouter::new(8);
    for key in ["/scfs/meta/u7/f3", "/a/b/c", "rootless", "/top"] {
        assert_eq!(
            router.route(key),
            (fnv1a(dirname(key).as_bytes()) % 8) as usize
        );
    }
    // Lock keys route by full key, so each lock spreads independently of
    // its directory.
    assert_eq!(
        router.route("/scfs/locks/u7/f3"),
        (fnv1a(b"/scfs/locks/u7/f3") % 8) as usize
    );
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

proptest! {
    /// Random read schedules around one write: every read returns the old
    /// or the new value; reads strictly before the write see old, strictly
    /// after see new; and new is never followed by old between
    /// non-overlapping reads (the write-back makes reads linearization
    /// points).
    #[test]
    fn prop_abd_reads_are_linearizable(seed in any::<u32>(), write_delay in 0u64..30, reads in collection::vec(0u64..150, 4..9)) {
        let group = RegisterGroup::new(ReplicationConfig::metro_crash(1), seed as u64).unwrap();
        let base = SimInstant::from_secs(1);

        // Install the old value well before the contention window.
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "w".into());
        group.write(&mut ctx, "/reg", b"old".to_vec().into()).unwrap();
        prop_assert!(clock.now() < base, "initial write must settle before the window");

        // One writer plus the readers, executed in virtual start order (the
        // stores are time-indexed, so this interleaves them correctly).
        let w_start = base + SimDuration::from_millis(write_delay);
        #[derive(Debug)]
        enum Op { Write, Read }
        let mut schedule: Vec<(SimInstant, Op)> = vec![(w_start, Op::Write)];
        for &r in &reads {
            schedule.push((base + SimDuration::from_millis(r), Op::Read));
        }
        schedule.sort_by_key(|(at, _)| *at);

        let mut write_span = None;
        let mut read_log: Vec<(SimInstant, SimInstant, bool)> = Vec::new();
        for (at, op) in schedule {
            let mut clock = Clock::new();
            match op {
                Op::Write => {
                    let mut ctx = ctx_at(&mut clock, at, "w");
                    group.write(&mut ctx, "/reg", b"new".to_vec().into()).unwrap();
                    write_span = Some((at, clock.now()));
                }
                Op::Read => {
                    let mut ctx = ctx_at(&mut clock, at, "w");
                    let entry = group.read(&mut ctx, "/reg").unwrap();
                    prop_assert!(
                        entry.value == b"old" || entry.value == b"new",
                        "read returned a third value: {:?}",
                        entry.value
                    );
                    read_log.push((at, clock.now(), entry.value == b"new"));
                }
            }
        }

        let (w_start, w_end) = write_span.unwrap();
        for &(start, end, saw_new) in &read_log {
            if end < w_start {
                prop_assert!(!saw_new, "read finished before the write started but saw new");
            }
            if start > w_end {
                prop_assert!(saw_new, "read started after the write finished but saw old");
            }
        }
        // Monotonicity across non-overlapping read pairs.
        for (i, &(_, end_a, new_a)) in read_log.iter().enumerate() {
            for &(start_b, _, new_b) in &read_log[i + 1..] {
                if end_a < start_b {
                    prop_assert!(
                        !new_a || new_b,
                        "a read observed new, then a later read observed old"
                    );
                }
            }
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
        "/scfs/locks/d/tuple",
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
    /// `put`, `cas` (create or update) and `delete` with one non-leader
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
            match command % 4 {
                0 => {
                    plane.put(&mut ctx, &key, value.clone()).unwrap();
                    model.insert(key, value);
                }
                1 | 2 => {
                    // A conditional update the model says must succeed:
                    // exclusive create of an absent key, or an update at the
                    // version a read just returned.
                    let expected = model
                        .contains_key(&key)
                        .then(|| plane.get(&mut ctx, &key).unwrap().version);
                    plane.cas(&mut ctx, &key, expected, value.clone()).unwrap();
                    model.insert(key, value);
                }
                _ => {
                    let deleted = plane.delete(&mut ctx, &key);
                    match model.remove(&key) {
                        Some(_) => deleted.unwrap(),
                        None => prop_assert!(matches!(deleted, Err(CoordError::NotFound { .. }))),
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

/// Folds `bytes` into a running FNV-1a digest.
fn fnv1a_fold(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A seeded random mix of every coordination call, by two accounts, on a
/// few directories and their lock keys, one call a virtual second; each
/// `(call, result, clock.now())` is folded into `digest`.
fn fold_random_calls(plane: &ShardedCoordinator, seed: u64, mut digest: u64) -> u64 {
    let mut rng = DetRng::new(seed);
    let mut clock = Clock::new();
    for step in 0..80 {
        let who = if rng.next_below(4) == 0 {
            "bob"
        } else {
            "alice"
        };
        let mut ctx = ctx_at(&mut clock, step_instant(step), who);
        let dir = rng.next_below(4);
        let name = rng.next_below(3);
        let key = format!("/scfs/meta/d{dir}/k{name}");
        let lock = format!("/scfs/locks/d{dir}/k{name}");
        let value = rng.next_u64().to_le_bytes().to_vec();
        let (call, result) = match rng.next_below(8) {
            0 => ("put", format!("{:?}", plane.put(&mut ctx, &key, value))),
            1 => ("get", format!("{:?}", plane.get(&mut ctx, &key))),
            2 => {
                let expected = match rng.next_below(3) {
                    0 => None,
                    _ => plane.get(&mut ctx, &key).ok().map(|entry| entry.version),
                };
                let cas = plane.cas(&mut ctx, &key, expected, value);
                ("cas", format!("{expected:?} {cas:?}"))
            }
            3 => {
                let target = if rng.next_below(2) == 0 { &key } else { &lock };
                ("delete", format!("{:?}", plane.delete(&mut ctx, target)))
            }
            4 => {
                let session = SessionId::new(format!("{who}-{step}"));
                let lease = SimDuration::from_secs(1 + rng.next_below(4));
                let created = plane.create_ephemeral(&mut ctx, &lock, value, &session, lease);
                ("create_ephemeral", format!("{created:?}"))
            }
            5 => {
                let mut acl = Acl::private();
                let grant = [Permission::Read, Permission::Write][rng.next_below(2) as usize];
                acl.grant("bob".into(), grant);
                (
                    "set_acl",
                    format!("{:?}", plane.set_acl(&mut ctx, &key, acl)),
                )
            }
            6 => {
                let prefix = format!("/scfs/meta/d{dir}/");
                ("list", format!("{:?}", plane.list(&mut ctx, &prefix)))
            }
            _ => {
                let from = format!("/scfs/meta/d{dir}");
                let to = format!("/scfs/meta/d{}", (dir + 1 + rng.next_below(3)) % 4);
                let renamed = plane.rename_prefix(&mut ctx, &from, &to);
                ("rename_prefix", format!("{from} {to} {renamed:?}"))
            }
        };
        let line = format!(
            "{step} {who} {call} {key}: {result} @ {:?}",
            ctx.clock.now()
        );
        digest = fnv1a_fold(digest, line.as_bytes());
    }
    fnv1a_fold(digest, &plane.entry_count().to_le_bytes())
}

/// Write-back, garbled votes, the `list` union of replicas that disagree
/// and the collect merge of a rename, on two 2-shard planes: a crash-tolerant
/// one with a replica partitioned for a window in one group and a replica
/// crashed in the other, and a Byzantine one with a lying replica in each
/// group. Every call's result and completion instant are folded into one
/// digest, so a change to any fault path's votes, replies or timing moves it.
#[test]
fn fault_paths_fold_to_a_pinned_digest() {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for seed in 0..4 {
        let crash = ShardedCoordinator::new(ShardTopology::metro(2, 1), seed).unwrap();
        let outage = FaultPlan::outage(step_instant(10), step_instant(35));
        crash.set_replica_fault(0, 1, outage, 3);
        crash.set_replica_fault(1, 2, FaultPlan::crash_at(step_instant(50)), 5);
        digest = fold_random_calls(&crash, seed, digest);

        let byzantine = ShardTopology::new(2, ReplicationConfig::coc_byzantine());
        let byzantine = ShardedCoordinator::new(byzantine, seed).unwrap();
        byzantine.set_replica_fault(0, 1, FaultPlan::always_byzantine(), 7);
        byzantine.set_replica_fault(1, 3, FaultPlan::always_byzantine(), 11);
        digest = fold_random_calls(&byzantine, seed, digest);
    }
    assert_eq!(
        digest, 0xbaf3_3e23_a83c_f241,
        "fault-path digest moved: {digest:#018x}"
    );
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
// Fleet-mode shard scaling
// ---------------------------------------------------------------------------

/// A reduced version of the `metadata_plane` bench claim, fast enough for
/// the test suite: 1 → 4 shards must at least double the metadata
/// throughput of a saturating disjoint-directory storm, and every op class
/// must be recorded separately.
#[test]
fn metadata_fleet_throughput_scales_with_shards() {
    let run = |shards: usize| {
        let mut cfg = MetadataFleetConfig::smoke();
        cfg.mounts = 48;
        cfg.ops_per_mount = 12;
        cfg.mean_think = SimDuration::from_millis(10);
        let mut scfs = ScfsConfig::test(Mode::Blocking);
        scfs.metadata_cache_expiry = SimDuration::ZERO;
        cfg.scfs = scfs;
        let deployment = Deployment::on(Backend::Aws)
            .plane(Plane::Sharded(ShardTopology::metro(shards, 1)))
            .build(cfg.seed);
        run_fleet_metadata(&deployment, &cfg)
    };
    let narrow = run(1);
    let wide = run(4);
    let scaling = wide.throughput() / narrow.throughput();
    assert!(
        scaling >= 2.0,
        "1→4 shards must at least double throughput, got {scaling:.2}x \
         ({:.1} → {:.1} ops/s)",
        narrow.throughput(),
        wide.throughput()
    );
    for op in ["stat", "open", "mkdir", "rename"] {
        assert!(
            wide.recorder.summary(op).is_some(),
            "missing per-op class {op}"
        );
    }
}
