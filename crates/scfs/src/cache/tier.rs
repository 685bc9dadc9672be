//! Cache tiers and the two-tier composition used by the agent.
//!
//! A [`CacheTier`] owns the resident entries of one level (memory or disk):
//! a slab of [`Arc<[u8]>`] payloads, a key index, the byte accounting, the
//! virtual-clock latency charging and the LRU recency list that picks its
//! victims. [`TieredCache`] composes a memory tier over a disk tier and
//! makes the paper's two-level behaviour (§2.5.1) first-class:
//!
//! * **promotion** — a disk hit moves the `Arc` into the memory tier,
//!   charging one memory insert (request latency, no payload copy);
//! * **demotion** — entries evicted from memory under capacity pressure are
//!   written to the disk tier instead of being dropped, so a later read is
//!   a disk hit rather than a cloud download.
//!
//! Payloads are `Arc<[u8]>` end to end: hits, promotions and demotions move
//! reference counts, never chunk bytes.

use std::collections::HashMap;
use std::sync::Arc;

use scfs_crypto::ContentHash;
use sim_core::latency::LatencyProfile;
use sim_core::rng::DetRng;
use sim_core::time::Clock;
use sim_core::units::Bytes;

use super::policy::{EntryId, PolicyKind, RecencyList};
use super::CacheConfig;
use crate::invariant::InvariantViolation;

/// Statistics of one cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a usable entry.
    pub hits: u64,
    /// Lookups that missed (absent or stale).
    pub misses: u64,
    /// Least-recently-used entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped for non-capacity reasons: displaced by an oversized
    /// replacement that bypassed the tier, or removed on unlink.
    pub invalidations: u64,
    /// Payload bytes served by hits.
    pub bytes_hit: u64,
    /// Payload bytes evicted to make room.
    pub bytes_evicted: u64,
    /// Bookkeeping steps performed on the recency list; flat per eviction
    /// regardless of resident entry count.
    pub policy_steps: u64,
}

/// One resident entry: its key (owned here, surrendered on eviction so the
/// victim key is never cloned), payload and version hash.
#[derive(Debug)]
struct Entry {
    key: String,
    data: Arc<[u8]>,
    hash: Option<ContentHash>,
}

/// An entry evicted from a tier, handed back so the caller can demote it.
#[derive(Debug)]
pub struct Evicted {
    /// The cache key.
    pub key: String,
    /// The payload (moved, not copied).
    pub data: Arc<[u8]>,
    /// The version hash the payload corresponds to.
    pub hash: Option<ContentHash>,
}

/// One cache level: bounded by total payload bytes, charging its latency
/// profile on every data access, evicting least-recently-used first.
#[derive(Debug)]
pub struct CacheTier {
    name: &'static str,
    capacity: Bytes,
    used: u64,
    index: HashMap<String, EntryId>,
    slots: Vec<Option<Entry>>,
    free: Vec<EntryId>,
    recency: RecencyList,
    latency: LatencyProfile,
    rng: DetRng,
    stats: CacheStats,
}

impl CacheTier {
    /// Creates a main-memory tier ([`PolicyKind`] has one value and selects
    /// nothing).
    pub fn memory(capacity: Bytes, _policy: PolicyKind, seed: u64) -> Self {
        CacheTier::new("memory", capacity, LatencyProfile::main_memory(), seed)
    }

    /// Creates a local-disk tier.
    pub fn disk(capacity: Bytes, seed: u64) -> Self {
        CacheTier::new("disk", capacity, LatencyProfile::local_disk(), seed)
    }

    fn new(name: &'static str, capacity: Bytes, latency: LatencyProfile, seed: u64) -> Self {
        CacheTier {
            name,
            capacity,
            used: 0,
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            recency: RecencyList::new(),
            latency,
            rng: DetRng::new(seed),
            stats: CacheStats::default(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> Bytes {
        Bytes::new(self.used)
    }

    /// Access statistics (with the recency list's step counter folded in).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            policy_steps: self.recency.steps(),
            ..self.stats
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the tier is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Appends any violated byte-accounting invariants to `out`: `used` is
    /// exactly the sum of resident payload sizes, never exceeds capacity,
    /// and the key index covers exactly the occupied slots.
    pub fn check_invariants(&self, out: &mut Vec<InvariantViolation>) {
        let resident: u64 = self
            .slots
            .iter()
            .flatten()
            .map(|entry| entry.data.len() as u64)
            .sum();
        if resident != self.used {
            out.push(InvariantViolation::new(
                "cache.used-bytes-accounting",
                format!(
                    "{} tier: used counter {} but resident payloads total {}",
                    self.name, self.used, resident
                ),
            ));
        }
        if self.used > self.capacity.get() {
            out.push(InvariantViolation::new(
                "cache.capacity-exceeded",
                format!(
                    "{} tier: used {} exceeds capacity {}",
                    self.name,
                    self.used,
                    self.capacity.get()
                ),
            ));
        }
        let occupied = self.slots.iter().flatten().count();
        if occupied != self.index.len() {
            out.push(InvariantViolation::new(
                "cache.index-slot-mismatch",
                format!(
                    "{} tier: {} occupied slots but {} indexed keys",
                    self.name,
                    occupied,
                    self.index.len()
                ),
            ));
        }
    }

    fn charge(&mut self, clock: &mut Clock, upload: Bytes, download: Bytes) {
        let latency = self.latency.sample_op(&mut self.rng, upload, download);
        clock.advance(latency);
    }

    fn fresh(entry: &Entry, expected_hash: Option<&ContentHash>) -> bool {
        match expected_hash {
            None => true,
            Some(h) => entry.hash.as_ref() == Some(h),
        }
    }

    /// Looks up `key` and returns its payload if the resident entry matches
    /// `expected_hash` (a `None` expectation accepts any entry — used for
    /// freshly created files that have no cloud version yet). A hit charges
    /// the tier's read latency for the payload size; the payload itself is
    /// an `Arc` clone, never a byte copy.
    pub fn get(
        &mut self,
        clock: &mut Clock,
        key: &str,
        expected_hash: Option<&ContentHash>,
    ) -> Option<Arc<[u8]>> {
        self.get_with_hash(clock, key, expected_hash)
            .map(|(d, _)| d)
    }

    /// As [`CacheTier::get`], also returning the stored version hash (the
    /// promotion path needs it to tag the promoted entry correctly).
    pub fn get_with_hash(
        &mut self,
        clock: &mut Clock,
        key: &str,
        expected_hash: Option<&ContentHash>,
    ) -> Option<(Arc<[u8]>, Option<ContentHash>)> {
        // An index entry pointing at a vacated slot would be an invariant
        // breach; it degrades to a miss rather than a panic on the read path.
        let hit = self.index.get(key).copied().and_then(|id| {
            let entry = self.slots.get(id as usize)?.as_ref()?;
            Self::fresh(entry, expected_hash).then(|| (id, entry.data.clone(), entry.hash))
        });
        match hit {
            Some((id, data, hash)) => {
                self.recency.touch(id);
                self.stats.hits += 1;
                self.stats.bytes_hit += data.len() as u64;
                self.charge(clock, Bytes::ZERO, Bytes::new(data.len() as u64));
                Some((data, hash))
            }
            None => {
                self.stats.misses += 1;
                self.charge(clock, Bytes::ZERO, Bytes::ZERO);
                None
            }
        }
    }

    /// Inserts (or replaces) `key` with `data` tagged by `hash`, charging
    /// the tier's write latency for the payload size and evicting the least
    /// recently used entries until it fits. Evicted entries are returned so
    /// the caller can demote them to a lower tier.
    pub fn put(
        &mut self,
        clock: &mut Clock,
        key: &str,
        data: Arc<[u8]>,
        hash: Option<ContentHash>,
    ) -> Vec<Evicted> {
        self.insert(clock, key, data, hash, true)
    }

    /// Inserts an entry whose payload is already resident in a lower tier —
    /// the promotion path. The `Arc` is moved, so only the tier's
    /// per-request insert latency is charged, not a payload transfer.
    pub fn put_moved(
        &mut self,
        clock: &mut Clock,
        key: &str,
        data: Arc<[u8]>,
        hash: Option<ContentHash>,
    ) -> Vec<Evicted> {
        self.insert(clock, key, data, hash, false)
    }

    fn insert(
        &mut self,
        clock: &mut Clock,
        key: &str,
        data: Arc<[u8]>,
        hash: Option<ContentHash>,
        charge_payload: bool,
    ) -> Vec<Evicted> {
        let size = data.len() as u64;
        // A payload larger than the whole tier bypasses it: no bytes are
        // written, so no transfer latency is charged. The entry it would
        // have replaced still has to go (it is stale) — that loss is an
        // invalidation, not a capacity eviction.
        if size > self.capacity.get() {
            if self.remove_resident(key).is_some() {
                self.stats.invalidations += 1;
            }
            return Vec::new();
        }
        if charge_payload {
            self.charge(clock, Bytes::new(size), Bytes::ZERO);
        } else {
            self.charge(clock, Bytes::ZERO, Bytes::ZERO);
        }
        let mut evicted = Vec::new();
        // Single index lookup decides replace-in-place vs fresh insert; the
        // old implementation hashed the key up to three times per put
        // (remove, evict loop, insert).
        if let Some(id) = self.index.get(key).copied() {
            if let Some(slot) = self.slots.get_mut(id as usize).and_then(|s| s.as_mut()) {
                // Replacing in place: retire the old payload from the
                // recency list and the byte accounting, make room, then
                // re-register. While the entry is off the list it cannot be
                // a victim.
                self.used -= slot.data.len() as u64;
                slot.data = data;
                slot.hash = hash;
                self.recency.remove(id);
                self.evict_until_fits(size, &mut evicted);
                self.used += size;
                self.recency.insert(id);
                return evicted;
            }
            // An index entry naming a vacated slot is an invariant breach;
            // drop it and fall through to a fresh insert instead of
            // panicking on the write path.
            self.index.remove(key);
        }
        self.evict_until_fits(size, &mut evicted);
        let entry = Entry {
            key: key.to_string(),
            data,
            hash,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(entry);
                id
            }
            None => {
                self.slots.push(Some(entry));
                (self.slots.len() - 1) as EntryId
            }
        };
        self.index.insert(key.to_string(), id);
        self.used += size;
        self.recency.insert(id);
        evicted
    }

    /// Evicts least-recently-used entries into `evicted` until `size` more
    /// bytes fit (or nothing evictable is left).
    fn evict_until_fits(&mut self, size: u64, evicted: &mut Vec<Evicted>) {
        while self.used + size > self.capacity.get() {
            match self.evict_one() {
                Some(e) => evicted.push(e),
                None => break,
            }
        }
    }

    /// Removes `key` from the tier (e.g. on unlink); counted as an
    /// invalidation, not an eviction.
    pub fn remove(&mut self, key: &str) {
        if self.remove_resident(key).is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Unindexes and frees the entry under `key`, if any, without touching
    /// the stats.
    fn remove_resident(&mut self, key: &str) -> Option<Entry> {
        let id = self.index.remove(key)?;
        // A vacated slot behind a live index entry degrades to "nothing to
        // remove" (the index entry is already gone).
        let entry = self.slots.get_mut(id as usize).and_then(|s| s.take())?;
        self.recency.remove(id);
        self.used -= entry.data.len() as u64;
        self.free.push(id);
        Some(entry)
    }

    /// Evicts the least recently used entry, surrendering its owned key and
    /// payload — no clones on the eviction path.
    fn evict_one(&mut self) -> Option<Evicted> {
        let id = self.recency.victim()?;
        let Some(entry) = self.slots.get_mut(id as usize).and_then(|s| s.take()) else {
            // A victim naming a vacated slot would loop forever if retried;
            // retire it from the list and report no eviction.
            self.recency.remove(id);
            return None;
        };
        self.recency.remove(id);
        self.index.remove(&entry.key);
        self.used -= entry.data.len() as u64;
        self.free.push(id);
        self.stats.evictions += 1;
        self.stats.bytes_evicted += entry.data.len() as u64;
        Some(Evicted {
            key: entry.key,
            data: entry.data,
            hash: entry.hash,
        })
    }

    /// Presence probe for the lazy read path: whether a usable entry exists,
    /// refreshing its recency so that chunks a transfer plan is about to
    /// consume are not evicted between planning and execution. No latency is
    /// charged and no hit/miss is counted — this is a planning query, not a
    /// data access.
    pub fn probe(&mut self, key: &str, expected_hash: Option<&ContentHash>) -> bool {
        let Some(id) = self.index.get(key).copied() else {
            return false;
        };
        let fresh = self
            .slots
            .get(id as usize)
            .and_then(|s| s.as_ref())
            .is_some_and(|entry| Self::fresh(entry, expected_hash));
        if fresh {
            self.recency.touch(id);
        }
        fresh
    }

    /// Whether the tier holds an entry for `key` matching `expected_hash`
    /// (no latency charged, no recency refreshed; accounting only).
    pub fn contains(&self, key: &str, expected_hash: Option<&ContentHash>) -> bool {
        self.index
            .get(key)
            .and_then(|&id| self.slots.get(id as usize)?.as_ref())
            .is_some_and(|entry| Self::fresh(entry, expected_hash))
    }
}

/// How a [`TieredCache::put`] routes the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Write both tiers (a durability spill that should also stay hot).
    Through,
    /// Write the memory tier only; the payload reaches disk later by
    /// demotion. Payloads larger than the memory tier go straight to disk.
    CacheOnly,
    /// Write the disk tier only (durability without polluting memory).
    DiskOnly,
}

/// Combined statistics of a two-tier cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TieredStats {
    /// The memory tier's counters.
    pub memory: CacheStats,
    /// The disk tier's counters.
    pub disk: CacheStats,
    /// Disk hits promoted into the memory tier.
    pub promotions: u64,
    /// Memory evictions demoted into the disk tier.
    pub demotions: u64,
}

impl TieredStats {
    /// Merges another snapshot into this one (fleet-level aggregation).
    pub fn merge(&mut self, other: &TieredStats) {
        fn add(a: &mut CacheStats, b: &CacheStats) {
            a.hits += b.hits;
            a.misses += b.misses;
            a.evictions += b.evictions;
            a.invalidations += b.invalidations;
            a.bytes_hit += b.bytes_hit;
            a.bytes_evicted += b.bytes_evicted;
            a.policy_steps += b.policy_steps;
        }
        add(&mut self.memory, &other.memory);
        add(&mut self.disk, &other.disk);
        self.promotions += other.promotions;
        self.demotions += other.demotions;
    }

    /// Hit rate of a tier's counters, by lookup count (0.0 when idle).
    pub fn hit_rate(stats: &CacheStats) -> f64 {
        let total = stats.hits + stats.misses;
        if total == 0 {
            0.0
        } else {
            stats.hits as f64 / total as f64
        }
    }
}

/// The agent's two-level cache: a memory tier over a disk tier with
/// first-class promotion and demotion.
#[derive(Debug)]
pub struct TieredCache {
    memory: CacheTier,
    disk: CacheTier,
    promotions: u64,
    demotions: u64,
}

impl TieredCache {
    /// Builds both tiers from the configuration.
    pub fn new(config: &CacheConfig, seed: u64) -> Self {
        TieredCache {
            memory: CacheTier::memory(config.memory_capacity, PolicyKind::Lru, seed ^ 0x11),
            disk: CacheTier::disk(config.disk_capacity, seed ^ 0x22),
            promotions: 0,
            demotions: 0,
        }
    }

    /// The memory tier.
    pub fn memory(&self) -> &CacheTier {
        &self.memory
    }

    /// The disk tier.
    pub fn disk(&self) -> &CacheTier {
        &self.disk
    }

    /// Appends any violated byte-accounting invariants of both tiers to
    /// `out` (see [`CacheTier::check_invariants`]).
    pub fn check_invariants(&self, out: &mut Vec<InvariantViolation>) {
        self.memory.check_invariants(out);
        self.disk.check_invariants(out);
    }

    /// Combined statistics snapshot.
    pub fn stats(&self) -> TieredStats {
        TieredStats {
            memory: self.memory.stats(),
            disk: self.disk.stats(),
            promotions: self.promotions,
            demotions: self.demotions,
        }
    }

    /// Two-level lookup: memory first, then disk. A disk hit is promoted
    /// into the memory tier by moving the `Arc` (one insert charge, no
    /// payload copy); entries the promotion pushes out of memory are
    /// demoted back to disk.
    pub fn get(
        &mut self,
        clock: &mut Clock,
        key: &str,
        expected_hash: Option<&ContentHash>,
    ) -> Option<Arc<[u8]>> {
        if let Some(data) = self.memory.get(clock, key, expected_hash) {
            return Some(data);
        }
        let (data, stored_hash) = self.disk.get_with_hash(clock, key, expected_hash)?;
        self.promotions += 1;
        let evicted = self.memory.put_moved(clock, key, data.clone(), stored_hash);
        self.demote(clock, evicted);
        Some(data)
    }

    /// Inserts `key` into the tier(s) selected by `mode`. Memory evictions
    /// caused by the insert are demoted to disk.
    pub fn put(
        &mut self,
        clock: &mut Clock,
        key: &str,
        data: Arc<[u8]>,
        hash: Option<ContentHash>,
        mode: WriteMode,
    ) {
        match mode {
            WriteMode::Through => {
                self.disk.put(clock, key, data.clone(), hash);
                let evicted = self.memory.put(clock, key, data, hash);
                self.demote(clock, evicted);
            }
            WriteMode::CacheOnly => {
                if data.len() as u64 > self.memory.capacity().get() {
                    self.disk.put(clock, key, data, hash);
                } else {
                    let evicted = self.memory.put(clock, key, data, hash);
                    self.demote(clock, evicted);
                }
            }
            WriteMode::DiskOnly => {
                self.disk.put(clock, key, data, hash);
            }
        }
    }

    /// Writes memory-tier evictions into the disk tier, charging a real
    /// disk write (the bytes genuinely move from RAM to disk). Payloads the
    /// disk already holds under the same version hash are skipped — in
    /// particular, promoted entries falling back out of memory, whose disk
    /// copy never went away. Disk evictions caused by a demotion leave the
    /// cache for good.
    fn demote(&mut self, clock: &mut Clock, evicted: Vec<Evicted>) {
        for e in evicted {
            if e.hash.is_some() && self.disk.contains(&e.key, e.hash.as_ref()) {
                continue;
            }
            self.demotions += 1;
            self.disk.put(clock, &e.key, e.data, e.hash);
        }
    }

    /// Presence probe across both tiers (no latency, no hit/miss counted);
    /// refreshes recency in whichever tier holds the entry.
    pub fn probe(&mut self, key: &str, expected_hash: Option<&ContentHash>) -> bool {
        let in_memory = self.memory.probe(key, expected_hash);
        let on_disk = self.disk.probe(key, expected_hash);
        in_memory || on_disk
    }
}
