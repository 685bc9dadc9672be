//! The two levels of client-side data cache (paper §2.5.1, "Storage
//! service"): a two-tier LRU chunk cache.
//!
//! SCFS keeps every file it reads or writes locally: a **main-memory cache**
//! (hundreds of MB) over a large, long-term **local-disk cache** (GBs).
//! Both tiers charge realistic local latencies to the client's virtual
//! clock (microseconds for memory, milliseconds for disk), and a cached
//! entry is validated against the coordination service's version hash
//! before being served, so a stale copy is never returned.
//!
//! The module is split in three layers:
//!
//! * `policy` — the one replacement policy, as the paper has it: LRU over
//!   an intrusive recency list (O(1) eviction — no full-map scan).
//! * [`tier`] — [`CacheTier`], one bounded level owning the payloads
//!   (`Arc<[u8]>`: hits never copy chunk bytes), the key index, the byte
//!   accounting, the latency charging and its recency list.
//! * [`TieredCache`] — the memory-over-disk composition the agent mounts:
//!   disk hits are **promoted** into memory by moving the `Arc` (one insert
//!   charge, no copy), and memory evictions are **demoted** to disk instead
//!   of being dropped, so re-reads stay local instead of touching the
//!   cloud.
//!
//! The two capacities are chosen through [`CacheConfig`], carried by
//! [`crate::config::ScfsConfig`]; the
//! [fleet harness](../../workloads/fleet/index.html) measures the resulting
//! hit rates and latency percentiles at 10⁴+ simulated mounts.

mod policy;
pub mod tier;

pub use policy::PolicyKind;
pub use tier::{CacheStats, CacheTier, Evicted, TieredCache, TieredStats, WriteMode};

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
    use scfs_crypto::sha256;
    use sim_core::time::Clock;
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
        let hash = sha256(&data);
        cache.put(&mut clock, "/f", payload(&data), Some(hash));
        assert_eq!(
            &cache.get(&mut clock, "/f", Some(&hash)).unwrap()[..],
            &data[..]
        );
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
    fn stale_entries_are_not_served() {
        let mut cache = CacheTier::disk(Bytes::mib(1), 2);
        let mut clock = Clock::new();
        let old = vec![1u8; 100];
        cache.put(&mut clock, "/f", payload(&old), Some(sha256(&old)));
        // The coordination service now says the file has a newer hash.
        let new_hash = sha256(b"newer version");
        assert!(cache.get(&mut clock, "/f", Some(&new_hash)).is_none());
        // With no expectation the stale data is still retrievable (fresh
        // files that were never uploaded have no hash to validate).
        assert!(cache.get(&mut clock, "/f", None).is_some());
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
        assert!(cache.contains("/a", None));
        assert!(!cache.contains("/b", None));
        assert!(cache.contains("/d", None));
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
        // Probing /a refreshes it, so /b becomes the LRU victim...
        assert!(cache.probe("/a", None));
        assert!(!cache.probe("/missing", None));
        // ...and a stale-hash probe does not match.
        assert!(!cache.probe("/a", Some(&sha256(b"other version"))));
        assert_eq!(clock.now(), before, "probe charges no latency");
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 0);
        cache.put(&mut clock, "/d", zeros(100), None);
        assert!(cache.contains("/a", None));
        assert!(!cache.contains("/b", None), "/b was the LRU victim");
    }

    #[test]
    fn oversized_files_bypass_the_cache() {
        let mut cache = CacheTier::memory(Bytes::new(100), PolicyKind::Lru, 4);
        let mut clock = Clock::new();
        cache.put(&mut clock, "/huge", zeros(1000), None);
        assert!(!cache.contains("/huge", None));
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
        assert!(!cache.contains("/f", None));
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
        assert!(!cache.contains("/b", None), "/b was the LRU victim");
        // Next victim is /c (oldest surviving access).
        cache.put(&mut clock, "/f", zeros(100), None);
        assert!(!cache.contains("/c", None), "/c was the next victim");
        for survivor in ["/a", "/d", "/e", "/f"] {
            assert!(cache.contains(survivor, None), "{survivor} must survive");
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
    fn stale_hash_lookup_counts_as_miss_and_entry_is_replaceable() {
        let mut cache = CacheTier::disk(Bytes::mib(1), 9);
        let mut clock = Clock::new();
        let v1 = b"version one".to_vec();
        let h1 = sha256(&v1);
        cache.put(&mut clock, "/f", payload(&v1), Some(h1));

        // The anchor now advertises a newer hash: the cached entry is stale.
        let v2 = b"version two".to_vec();
        let h2 = sha256(&v2);
        assert!(cache.get(&mut clock, "/f", Some(&h2)).is_none());
        assert_eq!(cache.stats().misses, 1);

        // Re-inserting under the new hash replaces the entry in place.
        cache.put(&mut clock, "/f", payload(&v2), Some(h2));
        assert_eq!(cache.len(), 1);
        assert_eq!(
            &cache.get(&mut clock, "/f", Some(&h2)).unwrap()[..],
            &v2[..]
        );
        assert!(
            cache.get(&mut clock, "/f", Some(&h1)).is_none(),
            "old hash is gone"
        );
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
        let hash = sha256(&data);
        cache.put(
            &mut clock,
            "/f",
            payload(&data),
            Some(hash),
            WriteMode::DiskOnly,
        );
        assert!(!cache.memory().contains("/f", None));

        // A read hits disk and promotes into memory...
        assert!(cache.get(&mut clock, "/f", Some(&hash)).is_some());
        assert!(cache.memory().contains("/f", Some(&hash)));
        assert_eq!(cache.stats().promotions, 1);

        // ...and filling memory demotes evictions to disk, where they are
        // still served without any upstream fetch.
        let other = vec![9u8; 200];
        let other_hash = sha256(&other);
        cache.put(
            &mut clock,
            "/g",
            payload(&other),
            Some(other_hash),
            WriteMode::CacheOnly,
        );
        assert!(!cache.memory().contains("/f", None), "/f was evicted");
        assert!(cache.disk().contains("/f", Some(&hash)));
        assert!(cache.get(&mut clock, "/f", Some(&hash)).is_some());
    }

    #[test]
    fn promotion_moves_the_arc_without_a_disk_copy() {
        let config = CacheConfig::default().with_capacities(Bytes::new(1000), Bytes::new(10_000));
        let mut cache = TieredCache::new(&config, 32);
        let mut clock = Clock::new();
        let data = zeros(500);
        let hash = sha256(&data);
        cache.put(
            &mut clock,
            "/f",
            data.clone(),
            Some(hash),
            WriteMode::DiskOnly,
        );
        let served = cache.get(&mut clock, "/f", Some(&hash)).unwrap();
        assert!(Arc::ptr_eq(&data, &served), "promotion must not copy");
        // The promoted copy in memory is the same allocation too.
        let from_mem = cache.get(&mut clock, "/f", Some(&hash)).unwrap();
        assert!(Arc::ptr_eq(&data, &from_mem));
    }

    #[test]
    fn demotion_of_a_promoted_entry_skips_the_redundant_disk_write() {
        let config = CacheConfig::default().with_capacities(Bytes::new(300), Bytes::new(10_000));
        let mut cache = TieredCache::new(&config, 33);
        let mut clock = Clock::new();
        let data = vec![1u8; 200];
        let hash = sha256(&data);
        cache.put(
            &mut clock,
            "/f",
            payload(&data),
            Some(hash),
            WriteMode::DiskOnly,
        );
        assert!(cache.get(&mut clock, "/f", Some(&hash)).is_some()); // promote
                                                                     // Evict /f from memory; its disk copy is intact, so no demotion
                                                                     // write is needed.
        cache.put(&mut clock, "/g", zeros(250), None, WriteMode::CacheOnly);
        assert_eq!(cache.stats().demotions, 0);
        assert!(cache.disk().contains("/f", Some(&hash)));
    }

    #[test]
    fn cache_only_routes_oversized_payloads_to_disk() {
        let config = CacheConfig::default().with_capacities(Bytes::new(100), Bytes::new(10_000));
        let mut cache = TieredCache::new(&config, 34);
        let mut clock = Clock::new();
        cache.put(&mut clock, "/big", zeros(500), None, WriteMode::CacheOnly);
        assert!(!cache.memory().contains("/big", None));
        assert!(cache.disk().contains("/big", None));
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
