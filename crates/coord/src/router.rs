//! The namespace router: which register group owns which key.
//!
//! CFS-style metadata sharding: keys are partitioned across M register
//! groups by a hash of their *directory*, so that the entries of one
//! directory — the unit of `list` and most `rename` traffic — live on one
//! shard, while unrelated directories spread across the plane. Lock keys
//! (`/scfs/locks/…`) are routed by the full key instead, spreading per-file
//! locks even when they share one directory.
//!
//! Routing must be **stable across processes and runs** — a key must map to
//! the same shard no matter which mount computes the mapping, or clients
//! would read and write different replicas of the same register. The std
//! `HashMap` hasher is randomly seeded per process, so the router uses a
//! hand-rolled FNV-1a instead.

/// 64-bit FNV-1a: tiny, deterministic and process-stable.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Routes coordination keys to shards (register groups).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamespaceRouter {
    shards: usize,
}

/// Keys under this prefix are routed by the full key rather than by
/// directory.
const FULL_KEY_PREFIX: &str = "/scfs/locks/";

impl NamespaceRouter {
    /// A router over `shards` groups (at least 1).
    pub fn new(shards: usize) -> Self {
        NamespaceRouter {
            shards: shards.max(1),
        }
    }

    /// Number of shards this router spreads keys over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard that owns `key`.
    pub fn route(&self, key: &str) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let routed = if key.starts_with(FULL_KEY_PREFIX) {
            key
        } else {
            dirname(key)
        };
        (fnv1a(routed.as_bytes()) % self.shards as u64) as usize
    }
}

/// The directory component of a key: everything before the last `/`, the
/// whole key when it contains no slash, and `/` for top-level keys.
pub fn dirname(key: &str) -> &str {
    match key.rfind('/') {
        Some(0) => "/",
        Some(pos) => &key[..pos],
        None => key,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors; these pin process-stability — if
        // the hash ever changes, persisted shard assignments would break.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn dirname_component() {
        assert_eq!(dirname("/scfs/meta/u3/file"), "/scfs/meta/u3");
        assert_eq!(dirname("/top"), "/");
        assert_eq!(dirname("noslash"), "noslash");
    }

    #[test]
    fn same_directory_same_shard() {
        let router = NamespaceRouter::new(8);
        let a = router.route("/scfs/meta/u3/file_a");
        let b = router.route("/scfs/meta/u3/file_b");
        assert_eq!(a, b);
        // A different directory is free to land elsewhere (and this pair
        // does, for 8 shards).
        let other = router.route("/scfs/meta/u4/file_a");
        assert!(other < 8);
    }

    #[test]
    fn lock_keys_route_by_full_key() {
        let router = NamespaceRouter::new(8);
        let shards: std::collections::BTreeSet<usize> = (0..32)
            .map(|i| router.route(&format!("/scfs/locks/f{i}")))
            .collect();
        assert!(
            shards.len() > 1,
            "per-file lock keys should spread across shards"
        );
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let router = NamespaceRouter::new(1);
        assert_eq!(router.route("/any/key"), 0);
        assert_eq!(NamespaceRouter::new(0).shards(), 1);
    }
}
