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
use sim_core::time::SimDuration;

use crate::error::ScfsError;

/// Retries [`anchored_fetch`] spends before giving up, and the back-off
/// between them: 10 s of virtual time in all.
const READ_RETRIES: usize = 50;
const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(200);

/// Result of an anchored fetch, with retry accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anchored<T> {
    /// The fetched value.
    pub data: T,
    /// Number of retries the loop needed before the version became visible
    /// (0 means the first attempt succeeded).
    pub retries: usize,
}

/// Runs `op` — a read of a manifest or chunk by its anchored hash — against
/// the storage service, retrying while it reports a transient error: the
/// version is not yet visible (step r2 of Figure 3).
///
/// Each retry backs off by 200 ms of virtual time before asking again; the
/// loop gives up after 50 retries and surfaces the last transient error,
/// which callers translate into an I/O error.
pub fn anchored_fetch<T>(
    ctx: &mut OpCtx<'_>,
    mut op: impl FnMut(&mut OpCtx<'_>) -> Result<T, ScfsError>,
) -> Result<Anchored<T>, ScfsError> {
    let mut retries = 0usize;
    loop {
        match op(ctx) {
            Ok(data) => return Ok(Anchored { data, retries }),
            Err(ScfsError::Storage(e)) if e.is_transient() => {
                if retries >= READ_RETRIES {
                    return Err(ScfsError::Storage(e));
                }
                retries += 1;
                ctx.clock.advance(RETRY_BACKOFF);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FileStorage, SingleCloudStorage};
    use crate::transfer::TransferOptions;
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

    /// Writes `data` as one version of `id` and returns its chunk map.
    fn write(storage: &dyn FileStorage, ctx: &mut OpCtx<'_>, id: &str, data: &[u8]) -> ChunkMap {
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
            .unwrap();
        map
    }

    #[test]
    fn read_retries_until_the_write_becomes_visible() {
        let storage = slow_visibility_storage();
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        // Thirteen chunks: over the inline bound, so the version stores a
        // manifest object whose visibility the loop has to wait for.
        let data = vec![0xACu8; 13 * 1024];
        let map = write(&storage, &mut ctx, "f", &data);

        // Immediately after the write the version is invisible; the anchored
        // read must spin until the visibility window (5 s) elapses.
        let manifest = anchored_fetch(&mut ctx, |c| {
            storage.read_manifest_bytes(c, "f", &map.root_hash())
        })
        .unwrap();
        assert_eq!(manifest.data, map.encode());
        assert!(manifest.retries > 0, "expected at least one retry");
        let chunk =
            anchored_fetch(&mut ctx, |c| storage.read_chunk(c, "f", &map.chunks()[0])).unwrap();
        assert_eq!(chunk.data, data[..1024]);
        assert!(clock.now().as_secs_f64() >= 5.0);
    }

    #[test]
    fn read_gives_up_after_max_retries() {
        let storage = slow_visibility_storage();
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let hash = scfs_crypto::sha256(b"never written");
        let err = anchored_fetch(&mut ctx, |c| storage.read_chunk(c, "f", &hash)).unwrap_err();
        assert!(matches!(err, ScfsError::Storage(_)));
        // Every retry's back-off was charged to the clock.
        let spun = RETRY_BACKOFF.as_millis_f64() * READ_RETRIES as f64;
        assert!(clock.now().as_millis_f64() >= spun);
    }

    #[test]
    fn immediate_visibility_needs_no_retries() {
        let storage = SingleCloudStorage::new(Arc::new(SimulatedCloud::test("fast")));
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let data = vec![0xBDu8; 13 * 1024];
        let map = write(&storage, &mut ctx, "f", &data);
        let manifest = anchored_fetch(&mut ctx, |c| {
            storage.read_manifest_bytes(c, "f", &map.root_hash())
        })
        .unwrap();
        assert_eq!(manifest.retries, 0);
        let chunk =
            anchored_fetch(&mut ctx, |c| storage.read_chunk(c, "f", &map.chunks()[0])).unwrap();
        assert_eq!(chunk.retries, 0);
        assert_eq!(chunk.data, data[..1024]);
    }
}
