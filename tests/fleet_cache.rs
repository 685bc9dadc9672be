//! Integration tests of the two-tier LRU chunk cache and the fleet-scale
//! workload harness:
//!
//! * an eviction stays within a fixed budget of bookkeeping steps however
//!   many entries are resident (no victim scan), both on the bare tier and
//!   across fleet runs on both backends;
//! * a chunk evicted from the memory tier is demoted to the disk tier and a
//!   later read is served from disk without a cloud download;
//! * `used_bytes` always equals the byte-sum of resident entries and never
//!   exceeds capacity, under arbitrary put/get/remove/probe sequences
//!   (property-tested);
//! * a tier, and the memory-over-disk composition (`remove` included),
//!   answer, evict and count exactly like a `Vec`-backed reference LRU,
//!   bookkeeping steps included, and pass their own invariant checks, step
//!   by step, under arbitrary operation sequences (model-based property
//!   tests);
//! * the fleet harness is deterministic: the same seed reproduces the same
//!   trace hash and the same measured numbers.

use std::sync::Arc;

use proptest::prelude::*;
use scfs_repro::scfs::cache::{
    CacheConfig, CacheTier, Evicted, PolicyKind, TieredCache, WriteMode,
};
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::invariant::InvariantViolation;
use scfs_repro::sim_core::time::{Clock, SimDuration};
use scfs_repro::sim_core::units::Bytes;
use scfs_repro::workloads::fleet::{run_fleet, FleetConfig};
use scfs_repro::workloads::setup::{Backend, Deployment};

const ENTRY: usize = 1024;

/// Recency-order work (in `steps`) per insert once the tier is full, with
/// `resident` entries resident. Every insert misses, so each one runs the
/// eviction loop.
fn steps_per_insert_at(resident: usize) -> f64 {
    let capacity = Bytes::new((ENTRY * resident) as u64);
    let mut tier = CacheTier::memory(capacity, PolicyKind::Lru, 7);
    let mut clock = Clock::new();
    let payload: Arc<[u8]> = vec![0u8; ENTRY].into();
    for i in 0..resident {
        tier.put(&mut clock, &format!("warm{i}"), payload.clone(), None);
    }
    assert_eq!(tier.len(), resident, "warm fill must exactly fit");
    let before = tier.stats();
    const OPS: u64 = 512;
    for i in 0..OPS {
        tier.put(&mut clock, &format!("cold{i}"), payload.clone(), None);
    }
    let after = tier.stats();
    assert!(
        after.evictions > before.evictions,
        "at {resident} resident: the cold scan must evict"
    );
    (after.policy_steps - before.policy_steps) as f64 / OPS as f64
}

/// The per-eviction step budget on the bare tier: growing the resident set
/// 64× must not grow the bookkeeping steps an eviction takes. A tier that
/// scanned all residents for its victim would be ~64× more expensive when
/// large.
#[test]
fn eviction_cost_is_independent_of_resident_count() {
    let small = steps_per_insert_at(64);
    let large = steps_per_insert_at(4096);
    assert!(
        large <= small * 3.0,
        "steps/insert grew from {small:.1} at 64 resident to {large:.1} at \
         4096 resident — victim selection is scanning"
    );
}

fn pressured_fleet(memory_capacity: Bytes) -> FleetConfig {
    let mut cfg = FleetConfig::smoke();
    cfg.mounts = 20;
    cfg.teams = 2;
    cfg.files_per_team = 24;
    cfg.ops_per_mount = 10;
    cfg.scfs =
        ScfsConfig::test(Mode::Blocking).with_cache_capacities(memory_capacity, Bytes::kib(96));
    cfg
}

/// The same requirement at fleet level, on both backends: the same
/// zipfian workload against a 16× larger memory tier must not cost more
/// bookkeeping steps per cache lookup. An O(n) victim scan would charge the
/// large tier (16× the resident entries) far more work per eviction.
#[test]
fn fleet_eviction_cost_stays_flat_across_cache_sizes_on_both_backends() {
    for backend in [Backend::Aws, Backend::CloudOfClouds] {
        let mut ratios = Vec::new();
        for capacity in [Bytes::kib(16), Bytes::kib(256)] {
            let cfg = pressured_fleet(capacity);
            let report = run_fleet(&Deployment::paper(backend, cfg.seed), &cfg);
            let mem = report.cache.memory;
            let lookups = mem.hits + mem.misses;
            assert!(lookups > 0, "{backend:?}: fleet must exercise the cache");
            ratios.push(mem.policy_steps as f64 / lookups as f64);
        }
        assert!(
            ratios[1] <= ratios[0] * 3.0 + 1.0,
            "{backend:?}: policy steps per lookup grew from {:.2} to {:.2} \
             with a 16× larger tier",
            ratios[0],
            ratios[1]
        );
    }
}

/// The demotion requirement, on one backend: chunks fetched from the cloud
/// land in the memory tier, get demoted to disk when evicted, and a later
/// read of a demoted chunk is served from disk — promotions rise, cloud
/// chunk downloads do not.
fn demoted_chunks_are_served_from_disk(backend: Backend) {
    let env = Deployment::paper(backend, 11);
    let files = 8usize;
    let payload = |i: usize| vec![i as u8 + 1; 4 * 1024];

    let mut writer = env.mount("alice", ScfsConfig::test(Mode::Blocking), 3);
    for i in 0..files {
        writer
            .write_file(&format!("/shared/f{i}"), &payload(i))
            .expect("population write commits");
    }
    let epoch = writer.now().max(writer.background_drain_instant());

    // The reader's memory tier holds ~3 of the 8 chunks, so the first sweep
    // keeps evicting; its disk tier holds everything.
    let reader_config =
        ScfsConfig::test(Mode::Blocking).with_cache_capacities(Bytes::kib(12), Bytes::mib(4));
    let mut reader = env.mount("alice", reader_config, 5);
    reader.sleep(
        epoch
            .duration_since(reader.now())
            .saturating_add(SimDuration::from_secs(1)),
    );

    for i in 0..files {
        let data = reader
            .read_file(&format!("/shared/f{i}"))
            .expect("populated file reads");
        assert_eq!(data, payload(i), "payload of f{i} survives the caches");
    }
    let sweep_stats = reader.stats();
    let sweep_cache = reader.cache_stats();
    assert!(
        sweep_stats.chunk_downloads >= files as u64,
        "{backend:?}: the first sweep fetches every chunk from the cloud"
    );
    assert!(
        sweep_cache.memory.evictions > 0,
        "{backend:?}: a 12 KiB memory tier cannot hold 8 chunks"
    );
    assert!(
        sweep_cache.demotions > 0,
        "{backend:?}: memory evictions of cloud-fetched chunks must demote to disk"
    );

    // Re-read the first file: long evicted from memory, resident on disk.
    let data = reader.read_file("/shared/f0").expect("demoted file reads");
    assert_eq!(data, payload(0));
    let after_stats = reader.stats();
    let after_cache = reader.cache_stats();
    assert_eq!(
        after_stats.chunk_downloads, sweep_stats.chunk_downloads,
        "{backend:?}: the demoted chunk must be served without a cloud download"
    );
    assert!(
        after_cache.disk.hits > sweep_cache.disk.hits,
        "{backend:?}: the re-read must hit the disk tier"
    );
    assert!(
        after_cache.promotions > sweep_cache.promotions,
        "{backend:?}: the disk hit must promote the chunk back to memory"
    );
}

#[test]
fn demoted_chunks_are_served_from_disk_on_aws() {
    demoted_chunks_are_served_from_disk(Backend::Aws);
}

#[test]
fn demoted_chunks_are_served_from_disk_on_coc() {
    demoted_chunks_are_served_from_disk(Backend::CloudOfClouds);
}

/// Same seed, same trace: the fleet harness replays byte-identically.
#[test]
fn fleet_runs_are_deterministic_per_seed() {
    let run = |cfg: &FleetConfig| run_fleet(&Deployment::paper(Backend::Aws, cfg.seed), cfg);
    let cfg = pressured_fleet(Bytes::kib(16));
    let mut a = run(&cfg);
    let mut b = run(&cfg);
    assert_eq!(
        a.trace_hash, b.trace_hash,
        "identical seeds, identical traces"
    );
    assert_eq!(a.reads, b.reads);
    assert_eq!(a.writes, b.writes);
    assert_eq!(a.lock_conflicts, b.lock_conflicts);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.cache.memory, b.cache.memory);
    assert_eq!(a.cache.disk, b.cache.disk);
    assert_eq!(a.recorder.total_count(), b.recorder.total_count());
    assert_eq!(
        a.recorder.percentile("read", 99.0),
        b.recorder.percentile("read", 99.0)
    );

    let mut other = cfg;
    other.seed ^= 0xDEAD_BEEF;
    let c = run(&other);
    assert_ne!(
        a.trace_hash, c.trace_hash,
        "a different seed must reshuffle"
    );
}

/// The harness holds at fleet scale: 10⁴ mounts in one event-driven pass
/// (seconds in release, but slow in debug builds — ignored by default; run
/// with `cargo test --release -- --ignored fleet_scale`).
#[test]
#[ignore = "large: 10^4 mounts, run explicitly in release"]
fn fleet_scale_ten_thousand_mounts() {
    let mut cfg = FleetConfig::smoke();
    cfg.mounts = 10_000;
    cfg.teams = 100;
    cfg.files_per_team = 32;
    cfg.ops_per_mount = 4;
    let report = run_fleet(&Deployment::paper(Backend::Aws, cfg.seed), &cfg);
    assert_eq!(report.mounts, 10_000);
    assert_eq!(
        report.ops_executed() + report.lock_conflicts,
        (cfg.mounts * cfg.ops_per_mount) as u64
    );
    assert!(report.memory_hit_rate() > 0.0);
}

/// Key `i` always carries this many payload bytes, so a recount over
/// `contains` reconstructs the exact expected byte total.
fn key_size(i: usize) -> usize {
    i * 397 % 3000 + 64
}

proptest! {
    /// The accounting invariant: after any sequence of put/get/remove/probe,
    /// `used_bytes` equals the byte-sum of the resident entries and never
    /// exceeds capacity.
    #[test]
    fn prop_used_bytes_matches_resident_sum(ops in collection::vec(any::<u16>(), 1..120)) {
        let mut tier = CacheTier::memory(Bytes::kib(8), PolicyKind::Lru, 7);
        let mut clock = Clock::new();
        for &op in &ops {
            let key_idx = (op & 0x0f) as usize;
            let key = format!("k{key_idx}");
            match (op >> 4) % 4 {
                0 => {
                    let payload: Arc<[u8]> = vec![key_idx as u8; key_size(key_idx)].into();
                    tier.put(&mut clock, &key, payload, None);
                }
                1 => {
                    tier.get(&mut clock, &key, None);
                }
                2 => tier.remove(&key),
                _ => {
                    tier.probe(&key);
                }
            }
            prop_assert!(
                tier.used_bytes() <= tier.capacity(),
                "{} used of {} capacity",
                tier.used_bytes(),
                tier.capacity()
            );
            let resident: u64 = (0..16)
                .filter(|&i| tier.contains(&format!("k{i}")))
                .map(|i| key_size(i) as u64)
                .sum();
            prop_assert_eq!(
                tier.used_bytes().get(),
                resident,
                "used_bytes drifted from the resident set"
            );
        }
    }
}

/// One entry of the reference model: key (a content address) and payload
/// size.
type ModelEntry = (String, u64);

/// What a tier evicted, in the model's terms.
fn as_model(evicted: Vec<Evicted>) -> Vec<ModelEntry> {
    evicted
        .into_iter()
        .map(|e| (e.key, e.data.len() as u64))
        .collect()
}

/// The reference LRU the real tier is checked against: a `Vec` ordered
/// least-recently-used first, every operation a linear scan. It counts
/// bookkeeping steps by the tier's rule: one per insert, per touch (a hit
/// or a probe), per removal and per victim pick.
struct ModelLru {
    capacity: u64,
    order: Vec<ModelEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    bytes_hit: u64,
    steps: u64,
}

impl ModelLru {
    fn new(capacity: u64) -> Self {
        ModelLru {
            capacity,
            order: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidations: 0,
            bytes_hit: 0,
            steps: 0,
        }
    }

    fn used(&self) -> u64 {
        self.order.iter().map(|e| e.1).sum()
    }

    fn find(&self, key: &str) -> Option<usize> {
        self.order.iter().position(|e| e.0 == key)
    }

    /// Drops `key`, if resident (one step); whether it was.
    fn forget(&mut self, key: &str) -> bool {
        let resident = self.order.len();
        self.order.retain(|e| e.0 != key);
        let forgot = self.order.len() < resident;
        self.steps += u64::from(forgot);
        forgot
    }

    /// The tier's `remove`: a resident entry leaves as an invalidation.
    fn remove(&mut self, key: &str) {
        if self.forget(key) {
            self.invalidations += 1;
        }
    }

    /// Replaces or inserts `key` as the most recent entry and returns what
    /// had to leave, oldest first; a payload larger than the tier only
    /// displaces the entry it would have replaced (an invalidation).
    fn put(&mut self, key: &str, size: u64) -> Vec<ModelEntry> {
        if size > self.capacity {
            self.remove(key);
            return Vec::new();
        }
        self.forget(key);
        let mut evicted = Vec::new();
        while self.used() + size > self.capacity {
            evicted.push(self.order.remove(0));
            self.evictions += 1;
            self.steps += 2; // the victim pick and its removal
        }
        self.order.push((key.to_string(), size));
        self.steps += 1;
        evicted
    }

    /// Refreshes an entry's recency (the `probe` of the real tier).
    fn touch(&mut self, key: &str) -> Option<ModelEntry> {
        let entry = self.order.remove(self.find(key)?);
        self.order.push(entry.clone());
        self.steps += 1;
        Some(entry)
    }

    fn get(&mut self, key: &str) -> Option<ModelEntry> {
        let hit = self.touch(key);
        match &hit {
            Some(entry) => {
                self.hits += 1;
                self.bytes_hit += entry.1;
            }
            None => self.misses += 1,
        }
        hit
    }

    /// Resident set, `used_bytes` and the six counters of `tier` equal the
    /// model's, and `tier` finds nothing wrong with itself.
    fn assert_matches(&self, tier: &CacheTier, what: &str) {
        let mut violations: Vec<InvariantViolation> = Vec::new();
        tier.check_invariants(&mut violations);
        assert!(violations.is_empty(), "{what}: {violations:?}");
        for i in 0..MODEL_KEYS {
            let key = format!("k{i}");
            assert_eq!(
                tier.contains(&key),
                self.find(&key).is_some(),
                "{what}: residency of {key}"
            );
        }
        assert_eq!(tier.len(), self.order.len(), "{what}: resident count");
        assert_eq!(tier.used_bytes().get(), self.used(), "{what}: used_bytes");
        let stats = tier.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.evictions, stats.bytes_hit),
            (self.hits, self.misses, self.evictions, self.bytes_hit),
            "{what}: hits / misses / evictions / bytes_hit"
        );
        assert_eq!(
            stats.invalidations, self.invalidations,
            "{what}: invalidations"
        );
        assert_eq!(stats.policy_steps, self.steps, "{what}: policy_steps");
    }
}

/// Size of the key universe the model-based tests draw from.
const MODEL_KEYS: u32 = 12;

/// One decoded step of a model-based case: the key and a payload size (one
/// in sixteen just over one of `capacities`).
struct ModelOp {
    kind: u32,
    key: String,
    size: u64,
}

impl ModelOp {
    fn decode(op: u32, capacities: &[u64]) -> ModelOp {
        let selector = u64::from((op >> 12) & 0xff);
        let size = if selector % 16 == 0 {
            capacities[(selector / 16) as usize % capacities.len()] + 1 + selector
        } else {
            64 + selector * 37 % 3000
        };
        ModelOp {
            kind: op % 8,
            key: format!("k{}", (op >> 3) % MODEL_KEYS),
            size,
        }
    }

    fn payload(&self) -> Arc<[u8]> {
        vec![self.size as u8; self.size as usize].into()
    }
}

proptest! {
    /// Eviction *order*, step by step: a `CacheTier` driven by random `put`
    /// (varied sizes, replace-in-place, larger-than-tier), `get`, `probe`
    /// and `remove` answers every lookup
    /// like the reference LRU, evicts the same keys in the same order, and
    /// keeps the same resident set, `used_bytes` and counters, bookkeeping
    /// steps included, with the tier's invariant check clean. A final
    /// tier-sized put flushes the whole recency order for comparison.
    #[test]
    fn prop_tier_matches_reference_lru(ops in collection::vec(any::<u32>(), 1..200)) {
        let capacity = 8 * 1024;
        let mut tier = CacheTier::memory(Bytes::new(capacity), PolicyKind::Lru, 7);
        let mut model = ModelLru::new(capacity);
        let mut clock = Clock::new();
        for (step, &raw) in ops.iter().enumerate() {
            let op = ModelOp::decode(raw, &[capacity]);
            match op.kind {
                0..=2 => {
                    let evicted = tier.put(&mut clock, &op.key, op.payload(), None);
                    let wanted = model.put(&op.key, op.size);
                    prop_assert_eq!(as_model(evicted), wanted, "step {}: evicted, in order", step);
                }
                3..=5 => {
                    let served = tier.get(&mut clock, &op.key, None);
                    let wanted = model.get(&op.key);
                    prop_assert_eq!(
                        served.map(|data| data.len() as u64),
                        wanted.map(|e| e.1),
                        "step {}: get {} answers like the model", step, op.key
                    );
                }
                6 => prop_assert_eq!(
                    tier.probe(&op.key),
                    model.touch(&op.key).is_some(),
                    "step {}: probe {}", step, op.key
                ),
                _ => {
                    tier.remove(&op.key);
                    model.remove(&op.key);
                }
            }
            model.assert_matches(&tier, &format!("step {step}"));
        }
        let flushed = tier.put(&mut clock, "flush", vec![0u8; capacity as usize].into(), None);
        prop_assert_eq!(as_model(flushed), model.order, "final recency order, oldest first");
    }

    /// The two-tier composition against two reference LRUs: demotions land
    /// on disk in eviction order, a disk hit that fits the memory tier is
    /// promoted (a larger one stays on disk), payloads over the memory tier
    /// go straight to disk, an entry that falls out of memory
    /// while the disk holds its key — a promoted one, or one written
    /// through — is neither counted as a demotion nor written (which would
    /// refresh its disk recency) a second time, and
    /// `remove` takes a key out of both tiers, one invalidation each. After
    /// every step each tier's `used_bytes` is its resident bytes, its
    /// counters (bookkeeping steps included) are the model's, and both
    /// tiers' invariant checks are clean.
    #[test]
    fn prop_tiered_cache_matches_two_reference_lrus(
        ops in collection::vec(any::<u32>(), 1..200)
    ) {
        let (memory_capacity, disk_capacity) = (4 * 1024, 12 * 1024);
        let config = CacheConfig::default()
            .with_capacities(Bytes::new(memory_capacity), Bytes::new(disk_capacity));
        let mut cache = TieredCache::new(&config, 9);
        let mut memory = ModelLru::new(memory_capacity);
        let mut disk = ModelLru::new(disk_capacity);
        let (mut promotions, mut demotions) = (0u64, 0u64);
        let mut clock = Clock::new();

        fn demote(disk: &mut ModelLru, demotions: &mut u64, evicted: Vec<ModelEntry>) {
            for (key, size) in evicted {
                if disk.find(&key).is_some() {
                    continue;
                }
                *demotions += 1;
                disk.put(&key, size);
            }
        }

        for (step, &raw) in ops.iter().enumerate() {
            let op = ModelOp::decode(raw, &[memory_capacity, disk_capacity]);
            match op.kind {
                0..=3 => {
                    let mode = [WriteMode::Through, WriteMode::CacheOnly, WriteMode::DiskOnly]
                        [(raw >> 24) as usize % 3];
                    cache.put(&mut clock, &op.key, op.payload(), mode);
                    if mode == WriteMode::DiskOnly
                        || mode == WriteMode::CacheOnly && op.size > memory_capacity
                    {
                        disk.put(&op.key, op.size);
                    } else {
                        if mode == WriteMode::Through {
                            disk.put(&op.key, op.size);
                        }
                        let evicted = memory.put(&op.key, op.size);
                        demote(&mut disk, &mut demotions, evicted);
                    }
                }
                4..=6 => {
                    let served = cache.get(&mut clock, &op.key);
                    let wanted = memory.get(&op.key).or_else(|| {
                        let (key, size) = disk.get(&op.key)?;
                        if size <= memory_capacity {
                            promotions += 1;
                            let evicted = memory.put(&key, size);
                            demote(&mut disk, &mut demotions, evicted);
                        }
                        Some((key, size))
                    });
                    prop_assert_eq!(
                        served.map(|data| data.len() as u64),
                        wanted.map(|e| e.1),
                        "step {}: get {} answers like the model", step, op.key
                    );
                }
                _ if (raw >> 24) % 2 == 0 => {
                    cache.remove(&op.key);
                    memory.remove(&op.key);
                    disk.remove(&op.key);
                }
                _ => {
                    let in_memory = memory.touch(&op.key).is_some();
                    let on_disk = disk.touch(&op.key).is_some();
                    prop_assert_eq!(
                        cache.probe(&op.key),
                        in_memory || on_disk,
                        "step {}: probe {}", step, op.key
                    );
                }
            }
            memory.assert_matches(cache.memory(), &format!("step {step}, memory tier"));
            disk.assert_matches(cache.disk(), &format!("step {step}, disk tier"));
            let stats = cache.stats();
            prop_assert_eq!(
                (stats.promotions, stats.demotions),
                (promotions, demotions),
                "step {}: promotions / demotions", step
            );
        }
        // Push both recency orders out one entry at a time: the order in
        // which residents disappear is the order the tiers held them in.
        for i in 0..16 {
            let key = format!("flush{i}");
            let size = memory_capacity / 4;
            cache.put(&mut clock, &key, vec![0u8; size as usize].into(), WriteMode::CacheOnly);
            let evicted = memory.put(&key, size);
            demote(&mut disk, &mut demotions, evicted);
            memory.assert_matches(cache.memory(), &format!("flush {i}, memory tier"));
            disk.assert_matches(cache.disk(), &format!("flush {i}, disk tier"));
            prop_assert_eq!(cache.stats().demotions, demotions, "flush {}: demotions", i);
        }
    }
}
