//! Cache tiers and the two-tier composition used by the agent.
//!
//! A [`CacheTier`] owns the resident entries of one level (memory or disk)
//! in two maps: `entries`, each key's [`Arc<[u8]>`] payload and the stamp
//! of its last use, and `by_use`, the same keys ordered by that stamp, the
//! least recently used first. A hit, a probe or an insert restamps its key;
//! an eviction pops the first one. Each is O(log n), with no scan for a
//! victim. Beside them the tier keeps the byte accounting and the
//! virtual-clock latency charging. [`TieredCache`] composes a memory tier
//! over a disk tier and makes the paper's two-level behaviour (§2.5.1)
//! first-class:
//!
//! * **promotion** — a disk hit that fits the memory tier moves the `Arc`
//!   into it, charging one memory insert (request latency, no payload copy);
//! * **demotion** — entries evicted from memory under capacity pressure are
//!   written to the disk tier instead of being dropped, so a later read is
//!   a disk hit rather than a cloud download.
//!
//! LRU is the one replacement policy, as the paper's client cache is at
//! both levels, and on purpose. Measured on the zipfian fleet, TinyLFU
//! admission and size-aware GDSF were no better than LRU
//! (`BENCH_transfer.json` run 12, LRU / TinyLFU / GDSF: `read_p50` 0.4639 /
//! 0.4698 / 0.4634 s, byte hit rate 0.271 / 0.248 / 0.271), so a choice
//! between them is not worth a trait, a dispatch and two knobs.
//!
//! Every disk-tier payload write — a `Through` or `DiskOnly` put, an
//! oversized `CacheOnly` put, a demotion — is **written behind** the caller:
//! it draws its latency from the disk tier's stream as a charged write
//! would, but leaves the caller's clock where it was and reports the
//! instant it lands instead. The writes one call issues queue behind each
//! other (they land at the call's instant plus the sum of their
//! latencies); there is no device horizon shared across clocks, since lane
//! jobs insert from forked clocks. Whoever owes the local disk's durability
//! (`fsync`, a close that returns at level 1) waits for the landing
//! instant; everyone else does not. Memory writes, and reads on both tiers,
//! are charged on the caller's clock, and a miss is free on both tiers: the
//! in-memory index answered it.
//!
//! Payloads are `Arc<[u8]>` end to end: hits, promotions and demotions move
//! reference counts, never chunk bytes.
//!
//! A key is a content address — `chunk:{hex}` or `manifest:{hex}`, the hash
//! of the very bytes it holds — with no version beside it: an entry can be
//! missing, never stale, and the same key on both tiers is the same
//! payload.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use scfs_crypto::ContentHash;
use sim_core::latency::LatencyProfile;
use sim_core::rng::DetRng;
use sim_core::time::{Clock, SimDuration, SimInstant};
use sim_core::units::Bytes;

use super::CacheConfig;
use crate::invariant::InvariantViolation;

/// The spelling `benchmark/src/kernels.rs` constructs a memory tier with.
/// It selects nothing and goes with Benchmark v2 (ROADMAP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least-recently-used — the only policy there is.
    Lru,
}

/// Statistics of one cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Least-recently-used entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped for non-capacity reasons: displaced by an oversized
    /// replacement that bypassed the tier, or removed because no live
    /// version names them any more (a newer version superseded theirs, or
    /// the file was unlinked).
    pub invalidations: u64,
    /// Payload bytes served by hits.
    pub bytes_hit: u64,
    /// Payload bytes evicted to make room.
    pub bytes_evicted: u64,
    /// Bookkeeping steps on the recency order: one per insert, per touch
    /// (a hit or a probe), per removal and per victim pick, so an eviction
    /// is two, however many entries are resident.
    pub policy_steps: u64,
}

/// One resident entry: the stamp it sits at in the recency order, and its
/// payload.
#[derive(Debug)]
struct Entry {
    used_at: u64,
    data: Arc<[u8]>,
}

/// An entry evicted from a tier, handed back so the caller can demote it.
#[derive(Debug)]
pub struct Evicted {
    /// The cache key.
    pub key: String,
    /// The payload (moved, not copied).
    pub data: Arc<[u8]>,
}

/// One cache level: bounded by total payload bytes, charging its latency
/// profile on every data access, evicting least-recently-used first.
#[derive(Debug)]
pub struct CacheTier {
    name: &'static str,
    capacity: Bytes,
    used: u64,
    entries: HashMap<Arc<str>, Entry>,
    /// The keys of `entries` by the stamp of their last use, the victim
    /// first. A stamp is the step count at that use, so stamps are unique
    /// and grow.
    by_use: BTreeMap<u64, Arc<str>>,
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
            entries: HashMap::new(),
            by_use: BTreeMap::new(),
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

    /// Access statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tier is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends any violated invariants to `out`: the recency order holds
    /// every resident key exactly once, at its entry's stamp; `used` is
    /// exactly the sum of resident payload sizes and never exceeds
    /// capacity.
    pub fn check_invariants(&self, out: &mut Vec<InvariantViolation>) {
        let mut resident = 0u64;
        let mut ordered = 0usize;
        for (&stamp, key) in &self.by_use {
            if let Some(entry) = self.entries.get(key).filter(|e| e.used_at == stamp) {
                resident += entry.data.len() as u64;
                ordered += 1;
            }
        }
        if ordered != self.by_use.len() || ordered != self.entries.len() {
            out.push(InvariantViolation::new(
                "cache.order-mismatch",
                format!(
                    "{} tier: {} keys, {} stamps, {} at their entry's stamp",
                    self.name,
                    self.entries.len(),
                    self.by_use.len(),
                    ordered
                ),
            ));
        }
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
    }

    /// Looks up `key`, a content address, and returns its payload. A hit
    /// charges the tier's read latency for the payload size; the payload
    /// itself is an `Arc` clone, never a byte copy. A miss charges nothing.
    /// `_hash` selects nothing: the key already names the content. It is
    /// a stub the benchmark package's cache kernel calls, to go with the
    /// ROADMAP's Benchmark-v2 item 1(b).
    pub fn get(
        &mut self,
        clock: &mut Clock,
        key: &str,
        _hash: Option<&ContentHash>,
    ) -> Option<Arc<[u8]>> {
        let Some(data) = self.touch(key).map(|entry| entry.data.clone()) else {
            // The index answered: a miss costs no access (like `probe`).
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.stats.bytes_hit += data.len() as u64;
        let read = Bytes::new(data.len() as u64);
        clock.advance(self.latency.sample_op(&mut self.rng, Bytes::ZERO, read));
        Some(data)
    }

    /// Inserts (or replaces) `key`, the content address of `data`, charging
    /// the tier's write latency for the payload size and evicting the least
    /// recently used entries until it fits. Evicted entries are returned so
    /// the caller can demote them to a lower tier. `_hash` is the stub
    /// [`CacheTier::get`] describes.
    pub fn put(
        &mut self,
        clock: &mut Clock,
        key: &str,
        data: Arc<[u8]>,
        _hash: Option<ContentHash>,
    ) -> Vec<Evicted> {
        let (latency, evicted) = self.insert(key, data, true);
        clock.advance(latency);
        evicted
    }

    /// Inserts an entry whose payload is already resident in a lower tier —
    /// the promotion path. The `Arc` is moved, so only the tier's
    /// per-request insert latency is charged, not a payload transfer.
    pub fn put_moved(&mut self, clock: &mut Clock, key: &str, data: Arc<[u8]>) -> Vec<Evicted> {
        let (latency, evicted) = self.insert(key, data, false);
        clock.advance(latency);
        evicted
    }

    /// Inserts `key`, evicting until it fits, and returns the latency of the
    /// write (the payload transfer only when `charge_payload`) for the
    /// caller to charge — or, for [`TieredCache`]'s disk writes, to land
    /// behind.
    fn insert(
        &mut self,
        key: &str,
        data: Arc<[u8]>,
        charge_payload: bool,
    ) -> (SimDuration, Vec<Evicted>) {
        let size = data.len() as u64;
        // A payload larger than the whole tier bypasses it: no bytes are
        // written, so no transfer latency is charged. The entry it would
        // have replaced still goes, as a put replaces — that loss is an
        // invalidation, not a capacity eviction.
        if size > self.capacity.get() {
            self.remove(key);
            return (SimDuration::ZERO, Vec::new());
        }
        let payload = Bytes::new(if charge_payload { size } else { 0 });
        let latency = self.latency.sample_op(&mut self.rng, payload, Bytes::ZERO);
        // An entry being replaced leaves the order and the byte count while
        // room is made, so it cannot be its own victim.
        let key = self.remove_resident(key).unwrap_or_else(|| Arc::from(key));
        let mut evicted = Vec::new();
        while self.used + size > self.capacity.get() {
            let Some(e) = self.evict_one() else { break };
            evicted.push(e);
        }
        self.used += size;
        let used_at = self.step();
        self.by_use.insert(used_at, key.clone());
        self.entries.insert(key, Entry { used_at, data });
        (latency, evicted)
    }

    /// Removes `key` from the tier — the agent's drop of a chunk or
    /// manifest no live version names, after a newer version or an unlink;
    /// counted as an invalidation, not an eviction. No latency is charged:
    /// the index answers, and no payload moves.
    pub fn remove(&mut self, key: &str) {
        if self.remove_resident(key).is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Takes the entry under `key`, if any, out of both maps and the byte
    /// count (one step, and no other counter); returns its key.
    fn remove_resident(&mut self, key: &str) -> Option<Arc<str>> {
        let (key, entry) = self.entries.remove_entry(key)?;
        self.step();
        self.by_use.remove(&entry.used_at);
        self.used -= entry.data.len() as u64;
        Some(key)
    }

    /// Evicts the least recently used entry: a victim pick and a removal,
    /// one step each.
    fn evict_one(&mut self) -> Option<Evicted> {
        self.step();
        let (_, key) = self.by_use.pop_first()?;
        self.step();
        let entry = self.entries.remove(&key)?;
        let len = entry.data.len() as u64;
        self.used -= len;
        self.stats.evictions += 1;
        self.stats.bytes_evicted += len;
        Some(Evicted {
            key: String::from(&*key),
            data: entry.data,
        })
    }

    /// Restamps a resident `key` as the most recently used (one step) and
    /// returns its entry.
    fn touch(&mut self, key: &str) -> Option<&Entry> {
        let entry = self.entries.get_mut(key)?;
        // `step`, but on the field: `entry` still borrows `entries`.
        self.stats.policy_steps += 1;
        let used_at = std::mem::replace(&mut entry.used_at, self.stats.policy_steps);
        if let Some(key) = self.by_use.remove(&used_at) {
            self.by_use.insert(entry.used_at, key);
        }
        Some(entry)
    }

    /// Counts one bookkeeping step and returns the count, which is also
    /// the stamp of a use made at this step.
    fn step(&mut self) -> u64 {
        self.stats.policy_steps += 1;
        self.stats.policy_steps
    }

    /// Presence probe for the lazy read path: whether an entry exists,
    /// refreshing its recency so that chunks a transfer plan is about to
    /// consume are not evicted between planning and execution. No latency is
    /// charged and no hit/miss is counted — this is a planning query, not a
    /// data access.
    pub fn probe(&mut self, key: &str) -> bool {
        self.touch(key).is_some()
    }

    /// The payload resident under `key`, read without an access: no
    /// latency, no hit or miss, no recency step.
    pub(crate) fn peek(&self, key: &str) -> Option<&Arc<[u8]>> {
        self.entries.get(key).map(|entry| &entry.data)
    }

    /// Whether the tier holds an entry for `key` (no latency charged, no
    /// recency refreshed; accounting only).
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }
}

/// How a [`TieredCache::put`] routes the payload. Whatever reaches the disk
/// tier is written behind the caller.
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

    /// Two-level lookup: memory first, then disk. A disk hit that fits the
    /// memory tier is promoted into it by moving the `Arc` (one insert
    /// charge, no payload copy); entries the promotion pushes out of memory
    /// are demoted back to disk, behind the caller. A larger one is served
    /// from disk and stays there.
    pub fn get(&mut self, clock: &mut Clock, key: &str) -> Option<Arc<[u8]>> {
        if let Some(data) = self.memory.get(clock, key, None) {
            return Some(data);
        }
        let data = self.disk.get(clock, key, None)?;
        if data.len() as u64 <= self.memory.capacity().get() {
            self.promotions += 1;
            let evicted = self.memory.put_moved(clock, key, data.clone());
            self.demote(clock, clock.now(), evicted);
        }
        Some(data)
    }

    /// Inserts `key`, the content address of `data`, into the tier(s)
    /// selected by `mode`. Memory evictions caused by the insert are demoted
    /// to disk. Disk writes are written behind: returns the instant the last
    /// of them lands (now, if the put wrote nothing to disk).
    pub fn put(
        &mut self,
        clock: &mut Clock,
        key: &str,
        data: Arc<[u8]>,
        mode: WriteMode,
    ) -> SimInstant {
        let now = clock.now();
        self.put_after(clock, now, key, data, mode)
    }

    /// As [`TieredCache::put`], with this put's disk writes queued behind
    /// `queued`, the landing instant of the same call's earlier disk writes:
    /// how a call that writes several entries lands them one after another.
    pub fn put_after(
        &mut self,
        clock: &mut Clock,
        queued: SimInstant,
        key: &str,
        data: Arc<[u8]>,
        mode: WriteMode,
    ) -> SimInstant {
        let start = queued.max(clock.now());
        match mode {
            WriteMode::Through => {
                let landed = self.write_behind(start, key, data.clone());
                let evicted = self.memory.put(clock, key, data, None);
                self.demote(clock, landed, evicted)
            }
            WriteMode::CacheOnly if data.len() as u64 > self.memory.capacity().get() => {
                self.write_behind(start, key, data)
            }
            WriteMode::CacheOnly => {
                let evicted = self.memory.put(clock, key, data, None);
                self.demote(clock, start, evicted)
            }
            WriteMode::DiskOnly => self.write_behind(start, key, data),
        }
    }

    /// Writes memory-tier evictions into the disk tier, behind the caller:
    /// each is a real disk write (the bytes genuinely move from RAM to
    /// disk), queued after `queued` and the ones before it; returns where the
    /// last one lands. A key the disk already holds is skipped: it names
    /// the same bytes — in particular, a promoted entry falling back out of
    /// memory, whose disk copy never went away. Disk evictions caused by a
    /// demotion leave the cache for good.
    fn demote(&mut self, clock: &Clock, queued: SimInstant, evicted: Vec<Evicted>) -> SimInstant {
        let mut landed = queued.max(clock.now());
        for e in evicted {
            if self.disk.contains(&e.key) {
                continue;
            }
            self.demotions += 1;
            landed = self.write_behind(landed, &e.key, e.data);
        }
        landed
    }

    /// Writes `key` to the disk tier behind the caller, starting at `from`,
    /// and returns the instant it lands. Disk evictions leave the cache.
    fn write_behind(&mut self, from: SimInstant, key: &str, data: Arc<[u8]>) -> SimInstant {
        from + self.disk.insert(key, data, true).0
    }

    /// Removes `key` from both tiers (see [`CacheTier::remove`]): each tier
    /// that held it counts one invalidation.
    pub fn remove(&mut self, key: &str) {
        self.memory.remove(key);
        self.disk.remove(key);
    }

    /// Whether the disk tier holds `key`, refreshing its disk recency as a
    /// rewrite would — without the write (no latency, no hit/miss counted).
    pub fn probe_disk(&mut self, key: &str) -> bool {
        self.disk.probe(key)
    }

    /// Presence probe across both tiers (no latency, no hit/miss counted);
    /// refreshes recency in whichever tier holds the entry.
    pub fn probe(&mut self, key: &str) -> bool {
        let in_memory = self.memory.probe(key);
        let on_disk = self.disk.probe(key);
        in_memory || on_disk
    }
}
