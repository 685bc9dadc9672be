//! The consistency-anchor algorithm (paper §2.4, Figure 3).
//!
//! SCFS turns an eventually-consistent storage service (SS) into a strongly
//! consistent one by anchoring it on a small, strongly consistent metadata
//! store (CA):
//!
//! ```text
//! WRITE(id, v):                      READ(id):
//!   w1: h  <- Hash(v)                  r1: h <- CA.read(id)
//!   w2: SS.write(id|h, v)              r2: do v <- SS.read(id|h) while v = null
//!   w3: CA.write(id, h)                r3: return (Hash(v) = h) ? v : null
//! ```
//!
//! In SCFS the CA is the coordination service (or a private name space) and
//! the SS is the single-cloud or DepSky backend; the agent inlines the write
//! side into `close` and the read side into `open`. This module provides the
//! read-side retry loop as a reusable helper — it is where the eventual
//! consistency of the clouds is actually absorbed — plus latency accounting
//! for how long the loop had to spin.

use cloud_store::store::OpCtx;
use scfs_crypto::ContentHash;
use sim_core::time::SimDuration;

use crate::backend::FileStorage;
use crate::error::ScfsError;
use crate::transfer::TransferOptions;

/// Result of an anchored fetch, with retry accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anchored<T> {
    /// The fetched value.
    pub data: T,
    /// Number of retries the loop needed before the version became visible
    /// (0 means the first attempt succeeded).
    pub retries: usize,
}

/// Result of an anchored whole-file read.
pub type AnchoredRead = Anchored<Vec<u8>>;

/// Runs `op` against the storage service, retrying while it reports a
/// transient error — the version is not yet visible (step r2 of Figure 3).
///
/// Each retry backs off by `backoff` of virtual time before asking again; the
/// loop gives up after `max_retries` attempts and surfaces the last transient
/// error, which callers translate into an I/O error.
pub fn anchored_fetch<T>(
    ctx: &mut OpCtx<'_>,
    max_retries: usize,
    backoff: SimDuration,
    mut op: impl FnMut(&mut OpCtx<'_>) -> Result<T, ScfsError>,
) -> Result<Anchored<T>, ScfsError> {
    let mut retries = 0usize;
    loop {
        match op(ctx) {
            Ok(data) => return Ok(Anchored { data, retries }),
            Err(ScfsError::Storage(e)) if e.is_transient() => {
                if retries >= max_retries {
                    return Err(ScfsError::Storage(e));
                }
                retries += 1;
                ctx.clock.advance(backoff);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reads and reassembles the whole version of `id` whose root hash is `hash`
/// from the storage service, retrying while it is not yet visible. The
/// chunks move through the transfer engine under `opts`.
pub fn anchored_read(
    ctx: &mut OpCtx<'_>,
    storage: &dyn FileStorage,
    id: &str,
    hash: &ContentHash,
    max_retries: usize,
    backoff: SimDuration,
    opts: &TransferOptions,
) -> Result<AnchoredRead, ScfsError> {
    anchored_fetch(ctx, max_retries, backoff, |c| {
        storage.read_version(c, id, hash, opts)
    })
}

/// Reads the encoded chunk map of the version of `id` whose root hash is
/// `hash`, retrying while it is not yet visible.
pub fn anchored_manifest(
    ctx: &mut OpCtx<'_>,
    storage: &dyn FileStorage,
    id: &str,
    hash: &ContentHash,
    max_retries: usize,
    backoff: SimDuration,
) -> Result<Anchored<Vec<u8>>, ScfsError> {
    anchored_fetch(ctx, max_retries, backoff, |c| {
        storage.read_manifest_bytes(c, id, hash)
    })
}

/// Reads one chunk of `id` by content hash, retrying while it is not yet
/// visible.
pub fn anchored_chunk(
    ctx: &mut OpCtx<'_>,
    storage: &dyn FileStorage,
    id: &str,
    hash: &ContentHash,
    max_retries: usize,
    backoff: SimDuration,
) -> Result<Anchored<Vec<u8>>, ScfsError> {
    anchored_fetch(ctx, max_retries, backoff, |c| {
        storage.read_chunk(c, id, hash)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SingleCloudStorage;
    use crate::types::ChunkMap;
    use cloud_store::providers::{ConsistencyMode, ProviderProfile};
    use cloud_store::sim_cloud::SimulatedCloud;
    use sim_core::latency::LatencyModel;
    use sim_core::time::Clock;
    use std::sync::Arc;

    /// Builds a single-cloud backend whose writes only become visible after
    /// five seconds, modelling an aggressively eventually-consistent store.
    fn slow_visibility_storage() -> SingleCloudStorage {
        let mut profile = ProviderProfile::instantaneous("ec");
        profile.consistency = ConsistencyMode::Eventual {
            visibility: LatencyModel::constant_ms(5_000.0),
        };
        SingleCloudStorage::new(Arc::new(SimulatedCloud::new(profile, 1)))
    }

    fn write(
        storage: &dyn FileStorage,
        ctx: &mut OpCtx<'_>,
        id: &str,
        data: &[u8],
    ) -> scfs_crypto::ContentHash {
        let map = ChunkMap::build(data, 1024);
        storage
            .write_version(
                ctx,
                id,
                data,
                &map,
                None,
                true,
                None,
                &TransferOptions::default(),
            )
            .unwrap()
            .root_hash
    }

    #[test]
    fn read_retries_until_the_write_becomes_visible() {
        let storage = slow_visibility_storage();
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let data = b"anchored contents".to_vec();
        let hash = write(&storage, &mut ctx, "f", &data);

        // Immediately after the write the object is invisible; the anchored
        // read must spin until the visibility window (5 s) elapses.
        let result = anchored_read(
            &mut ctx,
            &storage,
            "f",
            &hash,
            100,
            SimDuration::from_millis(200),
            &TransferOptions::default(),
        )
        .unwrap();
        assert_eq!(result.data, data);
        assert!(result.retries > 0, "expected at least one retry");
        assert!(clock.now().as_secs_f64() >= 5.0);
    }

    #[test]
    fn read_gives_up_after_max_retries() {
        let storage = slow_visibility_storage();
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let hash = scfs_crypto::sha256(b"never written");
        let err = anchored_read(
            &mut ctx,
            &storage,
            "f",
            &hash,
            3,
            SimDuration::from_millis(100),
            &TransferOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ScfsError::Storage(_)));
        // 3 retries of 100 ms each were charged to the clock.
        assert!(clock.now().as_millis_f64() >= 300.0);
    }

    #[test]
    fn immediate_visibility_needs_no_retries() {
        let storage = SingleCloudStorage::new(Arc::new(SimulatedCloud::test("fast")));
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let data = b"visible at once".to_vec();
        let hash = write(&storage, &mut ctx, "f", &data);
        let result = anchored_read(
            &mut ctx,
            &storage,
            "f",
            &hash,
            10,
            SimDuration::from_millis(50),
            &TransferOptions::default(),
        )
        .unwrap();
        assert_eq!(result.retries, 0);
        assert_eq!(result.data, data);
    }
}
