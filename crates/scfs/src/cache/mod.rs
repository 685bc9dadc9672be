//! The two levels of client-side data cache (paper §2.5.1, "Storage
//! service"): a two-tier LRU chunk cache.
//!
//! SCFS keeps every file it reads or writes locally: a **main-memory cache**
//! (hundreds of MB) over a large, long-term **local-disk cache** (GBs).
//! Both tiers draw realistic local latencies (microseconds for memory,
//! milliseconds for disk) — reads and memory writes on the client's virtual
//! clock, disk writes behind it. An entry is keyed by the hash of its own
//! bytes, which a reader reaches only from the version hash the
//! coordination service anchors (root → manifest → chunks): a key names
//! one content, so a stale copy is never returned.
//!
//! The module has two layers:
//!
//! * [`tier`] — [`CacheTier`], one bounded level, LRU as the paper has it,
//!   in two maps: its entries by key (payloads are `Arc<[u8]>`, so hits
//!   never copy chunk bytes) and the same keys ordered by last use. A hit,
//!   a probe, an insert and an eviction are each O(log n), with no scan for
//!   a victim. The tier also keeps the byte accounting and charges its
//!   latencies.
//! * [`TieredCache`] — the memory-over-disk composition the agent mounts:
//!   disk hits that fit the memory tier are **promoted** into it by moving
//!   the `Arc` (one insert charge, no copy), and memory evictions are **demoted** to disk instead
//!   of being dropped, so re-reads stay local instead of touching the
//!   cloud. Every disk write, a demotion included, is **written behind**:
//!   it leaves the caller's clock alone and reports the instant it lands,
//!   so only a call that owes level-1 durability waits for the disk.
//!
//! Entries are keyed by content hash, so one chunk serves every version
//! and file that names it. The cache holds live versions only: when a
//! newer version supersedes an object's version, or the object is
//! unlinked, the agent takes out of both tiers
//! ([`TieredCache::remove`]) what only the old version named — an
//! invalidation, not an eviction. LRU ranks what is left.
//!
//! The two capacities are chosen through [`CacheConfig`], carried by
//! [`crate::config::ScfsConfig`]; the
//! [fleet harness](../../workloads/fleet/index.html) measures the resulting
//! hit rates and latency percentiles at 10⁴+ simulated mounts.

pub mod tier;

pub use tier::{CacheStats, CacheTier, Evicted, PolicyKind, TieredCache, TieredStats, WriteMode};

use sim_core::units::Bytes;

/// The capacities of the agent's two-level cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity of the main-memory tier (paper: hundreds of MB).
    pub memory_capacity: Bytes,
    /// Capacity of the local-disk tier (paper: GBs).
    pub disk_capacity: Bytes,
}

impl Default for CacheConfig {
    /// The paper's configuration: 512 MiB of memory over 16 GiB of disk
    /// (LRU at both levels, as every tier is).
    fn default() -> Self {
        CacheConfig {
            memory_capacity: Bytes::mib(512),
            disk_capacity: Bytes::gib(16),
        }
    }
}

impl CacheConfig {
    /// Replaces both tiers' capacities.
    pub fn with_capacities(mut self, memory: Bytes, disk: Bytes) -> Self {
        self.memory_capacity = memory;
        self.disk_capacity = disk;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::latency::LatencyProfile;
    use sim_core::rng::DetRng;
    use sim_core::time::{Clock, SimDuration};
    use std::sync::Arc;

    fn payload(bytes: &[u8]) -> Arc<[u8]> {
        Arc::from(bytes)
    }

    fn zeros(n: usize) -> Arc<[u8]> {
        Arc::from(vec![0u8; n])
    }

    #[test]
    fn put_get_round_trip_and_stats() {
        let mut cache = CacheTier::memory(Bytes::mib(1), PolicyKind::Lru, 1);
        let mut clock = Clock::new();
        let data = vec![1u8; 1000];
        cache.put(&mut clock, "/f", payload(&data), None);
        assert_eq!(&cache.get(&mut clock, "/f", None).unwrap()[..], &data[..]);
        assert!(cache.get(&mut clock, "/missing", None).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.bytes_hit, 1000);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hits_share_the_payload_instead_of_copying() {
        let mut cache = CacheTier::memory(Bytes::mib(1), PolicyKind::Lru, 1);
        let mut clock = Clock::new();
        let data = zeros(4096);
        cache.put(&mut clock, "/f", data.clone(), None);
        let served = cache.get(&mut clock, "/f", None).unwrap();
        assert!(
            Arc::ptr_eq(&data, &served),
            "a hit must return the same allocation, not a copy"
        );
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let mut cache = CacheTier::memory(Bytes::new(300), PolicyKind::Lru, 3);
        let mut clock = Clock::new();
        cache.put(&mut clock, "/a", zeros(100), None);
        cache.put(&mut clock, "/b", zeros(100), None);
        cache.put(&mut clock, "/c", zeros(100), None);
        // Touch /a so /b becomes the LRU victim.
        assert!(cache.get(&mut clock, "/a", None).is_some());
        cache.put(&mut clock, "/d", zeros(100), None);
        assert!(cache.contains("/a"));
        assert!(!cache.contains("/b"));
        assert!(cache.contains("/d"));
        assert!(cache.stats().evictions >= 1);
        assert!(cache.used_bytes().get() <= 300);
    }

    #[test]
    fn probe_reports_presence_and_refreshes_recency_without_stats() {
        let mut cache = CacheTier::memory(Bytes::new(300), PolicyKind::Lru, 11);
        let mut clock = Clock::new();
        cache.put(&mut clock, "/a", zeros(100), None);
        cache.put(&mut clock, "/b", zeros(100), None);
        cache.put(&mut clock, "/c", zeros(100), None);
        let before = clock.now();
        // Probing /a refreshes it, so /b becomes the LRU victim.
        assert!(cache.probe("/a"));
        assert!(!cache.probe("/missing"));
        assert_eq!(clock.now(), before, "probe charges no latency");
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 0);
        cache.put(&mut clock, "/d", zeros(100), None);
        assert!(cache.contains("/a"));
        assert!(!cache.contains("/b"), "/b was the LRU victim");
    }

    #[test]
    fn oversized_files_bypass_the_cache() {
        let mut cache = CacheTier::memory(Bytes::new(100), PolicyKind::Lru, 4);
        let mut clock = Clock::new();
        cache.put(&mut clock, "/huge", zeros(1000), None);
        assert!(!cache.contains("/huge"));
        assert!(cache.is_empty());
    }

    #[test]
    fn oversized_puts_charge_no_transfer_latency() {
        let mut cache = CacheTier::disk(Bytes::new(100), 12);
        let mut clock = Clock::new();
        let before = clock.now();
        // A bypassed put writes nothing, so it must not pay the (large)
        // upload latency of the payload it never stored.
        cache.put(&mut clock, "/huge", zeros(50 << 20), None);
        assert_eq!(clock.now(), before, "bypassed put charged latency");
    }

    #[test]
    fn oversized_put_over_an_entry_counts_an_invalidation() {
        let mut cache = CacheTier::memory(Bytes::new(100), PolicyKind::Lru, 13);
        let mut clock = Clock::new();
        cache.put(&mut clock, "/f", zeros(50), None);
        assert_eq!(cache.stats().invalidations, 0);
        // The oversized replacement bypasses the cache but still displaces
        // the stale entry — a staleness invalidation, not a capacity
        // eviction.
        cache.put(&mut clock, "/f", zeros(1000), None);
        assert!(!cache.contains("/f"));
        assert_eq!(cache.used_bytes(), Bytes::ZERO);
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn remove_frees_space_and_counts_an_invalidation() {
        let mut cache = CacheTier::memory(Bytes::new(200), PolicyKind::Lru, 5);
        let mut clock = Clock::new();
        cache.put(&mut clock, "/a", zeros(150), None);
        cache.remove("/a");
        assert_eq!(cache.used_bytes(), Bytes::ZERO);
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.stats().evictions, 0);
        cache.remove("/a"); // idempotent
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn eviction_follows_strict_lru_order() {
        let mut cache = CacheTier::memory(Bytes::new(400), PolicyKind::Lru, 7);
        let mut clock = Clock::new();
        for path in ["/a", "/b", "/c", "/d"] {
            cache.put(&mut clock, path, zeros(100), None);
        }
        // Touch in the order c, a, d → b is the least recently used.
        for path in ["/c", "/a", "/d"] {
            assert!(cache.get(&mut clock, path, None).is_some());
        }
        cache.put(&mut clock, "/e", zeros(100), None);
        assert!(!cache.contains("/b"), "/b was the LRU victim");
        // Next victim is /c (oldest surviving access).
        cache.put(&mut clock, "/f", zeros(100), None);
        assert!(!cache.contains("/c"), "/c was the next victim");
        for survivor in ["/a", "/d", "/e", "/f"] {
            assert!(cache.contains(survivor), "{survivor} must survive");
        }
    }

    #[test]
    fn stats_count_hits_misses_and_evictions_exactly() {
        let mut cache = CacheTier::memory(Bytes::new(250), PolicyKind::Lru, 8);
        let mut clock = Clock::new();
        assert_eq!(cache.stats(), CacheStats::default());
        cache.put(&mut clock, "/a", zeros(100), None);
        cache.put(&mut clock, "/b", zeros(100), None);
        // 2 hits, 1 miss.
        assert!(cache.get(&mut clock, "/a", None).is_some());
        assert!(cache.get(&mut clock, "/b", None).is_some());
        assert!(cache.get(&mut clock, "/missing", None).is_none());
        // Inserting a third 100-byte entry evicts exactly one entry.
        cache.put(&mut clock, "/c", zeros(100), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.bytes_evicted, 100);
    }

    #[test]
    fn replacing_an_entry_does_not_leak_used_bytes() {
        let mut cache = CacheTier::memory(Bytes::new(1000), PolicyKind::Lru, 10);
        let mut clock = Clock::new();
        cache.put(&mut clock, "/f", zeros(400), None);
        cache.put(&mut clock, "/f", zeros(100), None);
        assert_eq!(cache.used_bytes(), Bytes::new(100));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn memory_is_faster_than_disk() {
        let mut mem = CacheTier::memory(Bytes::mib(64), PolicyKind::Lru, 6);
        let mut disk = CacheTier::disk(Bytes::mib(64), 6);
        let mut mem_clock = Clock::new();
        let mut disk_clock = Clock::new();
        let data = zeros(64 * 1024);
        for i in 0..20 {
            mem.put(&mut mem_clock, &format!("/f{i}"), data.clone(), None);
            disk.put(&mut disk_clock, &format!("/f{i}"), data.clone(), None);
        }
        assert!(mem_clock.now() < disk_clock.now());
    }

    #[test]
    fn tiered_get_promotes_disk_hits_and_demotes_evictions() {
        let config = CacheConfig::default().with_capacities(Bytes::new(300), Bytes::new(10_000));
        let mut cache = TieredCache::new(&config, 31);
        let mut clock = Clock::new();
        let data = vec![7u8; 200];
        cache.put(&mut clock, "/f", payload(&data), WriteMode::DiskOnly);
        assert!(!cache.memory().contains("/f"));

        // A read hits disk and promotes into memory...
        assert!(cache.get(&mut clock, "/f").is_some());
        assert!(cache.memory().contains("/f"));
        assert_eq!(cache.stats().promotions, 1);

        // ...and filling memory demotes evictions to disk, where they are
        // still served without any upstream fetch.
        let other = vec![9u8; 200];
        cache.put(&mut clock, "/g", payload(&other), WriteMode::CacheOnly);
        assert!(!cache.memory().contains("/f"), "/f was evicted");
        assert!(cache.disk().contains("/f"));
        assert!(cache.get(&mut clock, "/f").is_some());
    }

    #[test]
    fn promotion_moves_the_arc_without_a_disk_copy() {
        let config = CacheConfig::default().with_capacities(Bytes::new(1000), Bytes::new(10_000));
        let mut cache = TieredCache::new(&config, 32);
        let mut clock = Clock::new();
        let data = zeros(500);
        cache.put(&mut clock, "/f", data.clone(), WriteMode::DiskOnly);
        let served = cache.get(&mut clock, "/f").unwrap();
        assert!(Arc::ptr_eq(&data, &served), "promotion must not copy");
        // The promoted copy in memory is the same allocation too.
        let from_mem = cache.get(&mut clock, "/f").unwrap();
        assert!(Arc::ptr_eq(&data, &from_mem));
    }

    #[test]
    fn demotion_of_a_promoted_entry_skips_the_redundant_disk_write() {
        let config = CacheConfig::default().with_capacities(Bytes::new(300), Bytes::new(10_000));
        let mut cache = TieredCache::new(&config, 33);
        let mut clock = Clock::new();
        let data = vec![1u8; 200];
        cache.put(&mut clock, "/f", payload(&data), WriteMode::DiskOnly);
        assert!(cache.get(&mut clock, "/f").is_some()); // promote
                                                        // Evict /f from memory; its disk copy is intact, so no demotion
                                                        // write is needed.
        cache.put(&mut clock, "/g", zeros(250), WriteMode::CacheOnly);
        assert_eq!(cache.stats().demotions, 0);
        assert!(cache.disk().contains("/f"));
    }

    #[test]
    fn a_disk_hit_too_large_for_memory_is_served_without_a_promotion() {
        let config = CacheConfig::default().with_capacities(Bytes::new(8), Bytes::new(64));
        let mut cache = TieredCache::new(&config, 38);
        let mut clock = Clock::new();
        let data = zeros(16);
        cache.put(&mut clock, "/f", data.clone(), WriteMode::DiskOnly);
        for _ in 0..2 {
            let served = cache.get(&mut clock, "/f").unwrap();
            assert!(Arc::ptr_eq(&data, &served));
        }
        let stats = cache.stats();
        assert_eq!(stats.disk.hits, 2, "both reads are served from disk");
        assert_eq!(stats.promotions, 0, "nothing moved into memory");
        assert_eq!(stats.memory.policy_steps, 0, "memory was never touched");
        assert!(cache.memory().is_empty());
    }

    #[test]
    fn cache_only_routes_oversized_payloads_to_disk() {
        let config = CacheConfig::default().with_capacities(Bytes::new(100), Bytes::new(10_000));
        let mut cache = TieredCache::new(&config, 34);
        let mut clock = Clock::new();
        cache.put(&mut clock, "/big", zeros(500), WriteMode::CacheOnly);
        assert!(!cache.memory().contains("/big"));
        assert!(cache.disk().contains("/big"));
    }

    #[test]
    fn a_miss_on_either_tier_leaves_the_clock_where_it_was() {
        let config = CacheConfig::default().with_capacities(Bytes::new(300), Bytes::new(10_000));
        let mut cache = TieredCache::new(&config, 35);
        let mut clock = Clock::new();
        let data = vec![4u8; 200];
        cache.put(&mut clock, "/f", payload(&data), WriteMode::DiskOnly);
        let before = clock.now();
        // Absent from both tiers: the index answers, so it is no access.
        assert!(cache.get(&mut clock, "/missing").is_none());
        assert_eq!(clock.now(), before, "a miss is free on both tiers");
        assert_eq!(cache.stats().memory.misses, 1);
        assert_eq!(cache.stats().disk.misses, 1);
        let mut disk = CacheTier::disk(Bytes::new(1000), 36);
        assert!(disk.get(&mut clock, "/missing", None).is_none());
        assert_eq!(clock.now(), before);
    }

    /// The latency streams of `TieredCache::new(_, seed)`'s two tiers,
    /// replayed draw by draw: what each access of a test costs.
    struct Latencies {
        memory: DetRng,
        disk: DetRng,
    }

    impl Latencies {
        fn new(seed: u64) -> Self {
            Latencies {
                memory: DetRng::new(seed ^ 0x11),
                disk: DetRng::new(seed ^ 0x22),
            }
        }

        fn memory_write(&mut self, len: u64) -> SimDuration {
            LatencyProfile::main_memory().sample_op(&mut self.memory, Bytes::new(len), Bytes::ZERO)
        }

        fn disk_write(&mut self, len: u64) -> SimDuration {
            let latency = LatencyProfile::local_disk().sample_op(
                &mut self.disk,
                Bytes::new(len),
                Bytes::ZERO,
            );
            assert!(latency >= min_disk_write(len));
            latency
        }

        fn disk_read(&mut self, len: u64) -> SimDuration {
            LatencyProfile::local_disk().sample_op(&mut self.disk, Bytes::ZERO, Bytes::new(len))
        }
    }

    /// The least a disk write of `len` bytes can take: the request floor
    /// (0.5 ms) plus the transfer at the disk's bandwidth.
    fn min_disk_write(len: u64) -> SimDuration {
        SimDuration::from_millis_f64(0.5)
            + LatencyProfile::local_disk()
                .upload
                .transfer_time(Bytes::new(len))
    }

    #[test]
    fn disk_writes_land_behind_the_caller_one_after_another() {
        let config = CacheConfig::default().with_capacities(Bytes::new(300), Bytes::new(10_000));
        let mut cache = TieredCache::new(&config, 37);
        let mut lat = Latencies::new(37);
        let mut clock = Clock::new();
        let entry = |byte: u8| payload(&[byte; 200]);

        // DiskOnly: the caller's clock does not move; the write lands later.
        let a = entry(1);
        let t = clock.now();
        let landed = cache.put(&mut clock, "/a", a, WriteMode::DiskOnly);
        assert_eq!(clock.now(), t, "a disk write leaves the clock alone");
        assert_eq!(landed, t + lat.disk_write(200));
        assert!(landed >= t + min_disk_write(200));

        // Through: the caller pays the memory write only.
        let b = entry(2);
        let t = clock.now();
        let landed = cache.put(&mut clock, "/b", b, WriteMode::Through);
        assert_eq!(clock.now(), t + lat.memory_write(200));
        assert_eq!(landed, t + lat.disk_write(200));

        // CacheOnly with an eviction: /b is on disk already, so nothing is
        // demoted and nothing lands later than now.
        let m = entry(3);
        let t = clock.now();
        let landed = cache.put(&mut clock, "/m", m, WriteMode::CacheOnly);
        assert_eq!(clock.now(), t + lat.memory_write(200));
        assert_eq!(landed, clock.now());
        assert_eq!(cache.stats().demotions, 0);

        // ...but evicting the memory-only /m demotes it, behind the caller.
        let n = entry(4);
        let t = clock.now();
        let landed = cache.put(&mut clock, "/n", n, WriteMode::CacheOnly);
        let after = t + lat.memory_write(200);
        assert_eq!(clock.now(), after);
        assert_eq!(landed, after + lat.disk_write(200));
        assert_eq!(cache.stats().demotions, 1);
        assert!(cache.disk().contains("/m"));

        // One call's disk writes queue: a Through put that evicts /n lands
        // its own write, then the demotion of /n behind it.
        let u = entry(5);
        let t = clock.now();
        let landed = cache.put(&mut clock, "/u", u, WriteMode::Through);
        assert_eq!(clock.now(), t + lat.memory_write(200));
        let own = lat.disk_write(200);
        assert_eq!(landed, t + own + lat.disk_write(200));
        assert!(landed >= t + min_disk_write(200) + min_disk_write(200));
        assert_eq!(cache.stats().demotions, 2);

        // So do the writes of a caller that threads its landing instant
        // through several puts.
        let v = entry(6);
        let w = entry(7);
        let t = clock.now();
        let first = cache.put(&mut clock, "/v", v, WriteMode::DiskOnly);
        let second = cache.put_after(&mut clock, first, "/w", w, WriteMode::DiskOnly);
        assert_eq!(clock.now(), t);
        assert_eq!(first, t + lat.disk_write(200));
        assert_eq!(second, first + lat.disk_write(200));

        // Promotion: a disk hit is read on the caller's clock and moved into
        // memory; the memory-only /x it pushes out is demoted behind.
        let x = entry(8);
        cache.put(&mut clock, "/x", x, WriteMode::CacheOnly);
        lat.memory_write(200);
        let t = clock.now();
        assert!(cache.get(&mut clock, "/m").is_some());
        let read = lat.disk_read(200);
        assert_eq!(clock.now(), t + read + lat.memory_write(0));
        assert_eq!(cache.stats().promotions, 1);
        assert_eq!(cache.stats().demotions, 3);
        assert!(cache.disk().contains("/x"));
    }

    #[test]
    fn tiered_stats_merge_accumulates() {
        let mut a = TieredStats::default();
        let mut b = TieredStats::default();
        b.memory.hits = 3;
        b.disk.misses = 2;
        b.promotions = 1;
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.memory.hits, 6);
        assert_eq!(a.disk.misses, 4);
        assert_eq!(a.promotions, 2);
        assert!((TieredStats::hit_rate(&b.memory) - 1.0).abs() < 1e-12);
        assert_eq!(TieredStats::hit_rate(&CacheStats::default()), 0.0);
    }
}
