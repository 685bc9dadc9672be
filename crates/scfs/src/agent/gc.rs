//! The background garbage collector (paper §2.5.3).

use cloud_store::store::OpCtx;
use sim_core::background::Pending;
use sim_core::time::SimInstant;

use super::ScfsAgent;
use crate::chunkstore::JournalOpts;

/// Scheduler lane of the garbage collector: GC cycles serialize with one
/// another but overlap with uploads and prefetches. Distinct from every
/// object lane (storage ids always contain `-f`).
const GC_LANE: &str = "gc";

impl ScfsAgent {
    /// Runs the garbage collector if the written-bytes threshold was crossed
    /// (paper §2.5.3). The whole cycle runs as one job on the scheduler's GC
    /// lane: cycles serialize with one another but overlap with uploads and
    /// prefetches, and never charge the foreground clock.
    pub(super) fn maybe_run_gc(&mut self) {
        if self.written_since_gc < self.config.gc.written_bytes_threshold.get() {
            return;
        }
        self.written_since_gc = 0;
        self.stats.gc_runs += 1;
        // The collector observes the commits this agent has already issued,
        // so its timeline must start after the in-flight ones complete — a
        // reclaimed blob must not disappear at a virtual instant before the
        // upload that wrote it has landed.
        let start = self
            .pending_uploads
            .values()
            .map(Pending::ready_at)
            .fold(self.clock.now(), SimInstant::max);
        // The token's value is (), so the bookkeeping can be taken
        // immediately — foreground operations never wait on the collector.
        self.on_lane(start, GC_LANE, Self::collect).into_inner();
    }

    /// One collection cycle: version prunes, tombstone removal and the
    /// release-journal replay.
    fn collect(&mut self) {
        let keep = self.config.gc.versions_to_keep;
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        let mut fully_deleted: Vec<String> = Vec::new();
        for (storage_id, (path, deleted)) in self.owned_files.iter() {
            if *deleted {
                match self.storage.delete_all(&mut ctx, storage_id) {
                    // The blobs are released; the tombstone may go only once
                    // its metadata delete actually commits — a failed delete
                    // keeps the entry so a later cycle retries it instead of
                    // stranding the tombstone.
                    Ok(()) => match self.metadata.delete(&mut ctx, path) {
                        Ok(()) => fully_deleted.push(storage_id.clone()),
                        Err(_) => self.stats.gc_errors += 1,
                    },
                    // The tombstone stays; the next cycle retries, and the
                    // failure is surfaced through the stats.
                    Err(_) => self.stats.gc_errors += 1,
                }
            } else {
                match self.storage.delete_old_versions(&mut ctx, storage_id, keep) {
                    Ok(n) => self.stats.gc_reclaimed_versions += n as u64,
                    Err(_) => self.stats.gc_errors += 1,
                }
            }
        }
        for id in fully_deleted {
            self.owned_files.remove(&id);
        }
        // Phase two: replay the release journal — physically delete the
        // blobs whose refcount hit zero, retrying any entry an earlier cycle
        // failed on. This is what turns a failed delete into a delayed
        // reclamation rather than a leaked orphan.
        match self
            .storage
            .replay_release_journal(&mut ctx, &JournalOpts::default())
        {
            Ok(report) => {
                self.stats.gc_retried += report.retried;
                self.stats.gc_orphans_reclaimed += report.reclaimed_after_retry;
                self.stats.gc_errors += report.errors;
            }
            Err(_) => self.stats.gc_errors += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FileStorage;
    use crate::backend::SingleCloudStorage;
    use crate::config::{Mode, ScfsConfig};
    use crate::error::ScfsError;
    use crate::fs::FileSystem;
    use crate::transfer::TransferOptions;
    use crate::types::ChunkMap;
    use cloud_store::sim_cloud::SimulatedCloud;
    use cloud_store::types::Acl;
    use coord::replication::ReplicatedCoordinator;
    use coord::service::CoordinationService;
    use coord::service::SessionId;
    use sim_core::time::SimDuration;
    use sim_core::units::Bytes;
    use std::sync::Arc;

    #[test]
    fn garbage_collector_reclaims_old_versions() {
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        let storage = Arc::new(SingleCloudStorage::new(cloud.clone()));
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        let mut config = ScfsConfig::test(Mode::Blocking);
        config.gc.written_bytes_threshold = Bytes::new(50_000);
        config.gc.versions_to_keep = 2;
        let mut fs = ScfsAgent::mount("alice".into(), config, storage, Some(coord), 5).unwrap();
        for _ in 0..10 {
            fs.write_file("/big", &vec![7u8; 10_000]).unwrap();
        }
        assert!(fs.stats().gc_runs >= 1);
        assert!(fs.stats().gc_reclaimed_versions > 0);
        // The latest version is still readable.
        assert_eq!(fs.read_file("/big").unwrap().len(), 10_000);
    }

    /// A storage wrapper whose GC deletions always fail, for testing that
    /// the collector surfaces failures instead of swallowing them.
    struct FailingGcStorage(SingleCloudStorage);

    impl FileStorage for FailingGcStorage {
        fn label(&self) -> &'static str {
            self.0.label()
        }

        fn write_version(
            &self,
            ctx: &mut OpCtx<'_>,
            id: &str,
            data: &[u8],
            map: &ChunkMap,
            prev: Option<&ChunkMap>,
            is_new: bool,
            acl: Option<&cloud_store::types::Acl>,
            opts: &TransferOptions,
        ) -> Result<crate::backend::WriteOutcome, ScfsError> {
            self.0
                .write_version(ctx, id, data, map, prev, is_new, acl, opts)
        }

        fn read_manifest(
            &self,
            ctx: &mut OpCtx<'_>,
            id: &str,
            hash: &scfs_crypto::ContentHash,
        ) -> Result<ChunkMap, ScfsError> {
            self.0.read_manifest(ctx, id, hash)
        }

        fn read_chunk(
            &self,
            ctx: &mut OpCtx<'_>,
            id: &str,
            hash: &scfs_crypto::ContentHash,
        ) -> Result<Vec<u8>, ScfsError> {
            self.0.read_chunk(ctx, id, hash)
        }

        fn delete_old_versions(
            &self,
            _ctx: &mut OpCtx<'_>,
            _id: &str,
            _keep: usize,
        ) -> Result<usize, ScfsError> {
            Err(ScfsError::invalid("injected GC failure"))
        }

        fn delete_all(&self, _ctx: &mut OpCtx<'_>, _id: &str) -> Result<(), ScfsError> {
            Err(ScfsError::invalid("injected GC failure"))
        }

        fn set_acl(
            &self,
            ctx: &mut OpCtx<'_>,
            id: &str,
            acl: &cloud_store::types::Acl,
        ) -> Result<(), ScfsError> {
            self.0.set_acl(ctx, id, acl)
        }
    }

    #[test]
    fn gc_failures_are_counted_not_swallowed() {
        let storage = Arc::new(FailingGcStorage(SingleCloudStorage::new(Arc::new(
            SimulatedCloud::test("s3"),
        ))));
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        let mut config = ScfsConfig::test(Mode::Blocking);
        config.gc.written_bytes_threshold = Bytes::new(50_000);
        config.gc.versions_to_keep = 1;
        let mut fs = ScfsAgent::mount("alice".into(), config, storage, Some(coord), 5).unwrap();
        fs.write_file("/doomed", &vec![1u8; 10_000]).unwrap();
        fs.unlink("/doomed").unwrap();
        for _ in 0..10 {
            fs.write_file("/big", &vec![7u8; 10_000]).unwrap();
        }
        let stats = fs.stats();
        assert!(stats.gc_runs >= 1);
        assert_eq!(stats.gc_reclaimed_versions, 0);
        assert!(
            stats.gc_errors >= 2,
            "both the prune and the tombstone removal failures must surface, got {}",
            stats.gc_errors
        );
        // The data is untouched by the failing collector.
        assert_eq!(fs.read_file("/big").unwrap().len(), 10_000);
    }

    /// A coordination service whose `delete` always fails, for testing the
    /// GC's tombstone-removal retry path.
    struct FailingDeleteCoord(ReplicatedCoordinator);

    impl CoordinationService for FailingDeleteCoord {
        fn put(
            &self,
            ctx: &mut OpCtx<'_>,
            key: &str,
            value: Vec<u8>,
        ) -> Result<u64, coord::error::CoordError> {
            self.0.put(ctx, key, value)
        }

        fn cas(
            &self,
            ctx: &mut OpCtx<'_>,
            key: &str,
            expected: Option<u64>,
            value: Vec<u8>,
        ) -> Result<u64, coord::error::CoordError> {
            self.0.cas(ctx, key, expected, value)
        }

        fn create_ephemeral(
            &self,
            ctx: &mut OpCtx<'_>,
            key: &str,
            value: Vec<u8>,
            session: &SessionId,
            lease: SimDuration,
        ) -> Result<(), coord::error::CoordError> {
            self.0.create_ephemeral(ctx, key, value, session, lease)
        }

        fn get(
            &self,
            ctx: &mut OpCtx<'_>,
            key: &str,
        ) -> Result<coord::service::Entry, coord::error::CoordError> {
            self.0.get(ctx, key)
        }

        fn delete(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<(), coord::error::CoordError> {
            // Only metadata tuples fail; lock releases (ephemeral entries)
            // go through so closes keep working.
            if key.contains("/locks/") {
                return self.0.delete(ctx, key);
            }
            Err(coord::error::CoordError::Unavailable {
                reason: format!("injected metadata-delete failure for {key}"),
            })
        }

        fn list(
            &self,
            ctx: &mut OpCtx<'_>,
            prefix: &str,
        ) -> Result<Vec<String>, coord::error::CoordError> {
            self.0.list(ctx, prefix)
        }

        fn set_acl(
            &self,
            ctx: &mut OpCtx<'_>,
            key: &str,
            acl: Acl,
        ) -> Result<(), coord::error::CoordError> {
            self.0.set_acl(ctx, key, acl)
        }

        fn rename_prefix(
            &self,
            ctx: &mut OpCtx<'_>,
            old_prefix: &str,
            new_prefix: &str,
        ) -> Result<usize, coord::error::CoordError> {
            self.0.rename_prefix(ctx, old_prefix, new_prefix)
        }

        fn access_count(&self) -> u64 {
            self.0.access_count()
        }

        fn entry_count(&self) -> usize {
            self.0.entry_count()
        }
    }

    #[test]
    fn failed_tombstone_metadata_delete_is_counted_and_retried() {
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        let storage = Arc::new(SingleCloudStorage::new(cloud));
        let coord: Arc<dyn CoordinationService> =
            Arc::new(FailingDeleteCoord(ReplicatedCoordinator::test()));
        let mut config = ScfsConfig::test(Mode::Blocking);
        config.gc.written_bytes_threshold = Bytes::new(50_000);
        config.gc.versions_to_keep = 1;
        let mut fs = ScfsAgent::mount("alice".into(), config, storage, Some(coord), 5).unwrap();
        fs.write_file("/doomed", &vec![1u8; 10_000]).unwrap();
        fs.unlink("/doomed").unwrap();
        let mut last_errors = 0;
        for _ in 0..10 {
            fs.write_file("/big", &vec![7u8; 10_000]).unwrap();
            last_errors = fs.stats().gc_errors;
        }
        let stats = fs.stats();
        assert!(stats.gc_runs >= 2);
        assert!(
            stats.gc_errors >= 2,
            "every cycle's failed tombstone removal must surface, got {}",
            stats.gc_errors
        );
        assert!(last_errors >= 2, "the entry is retried each cycle");
    }

    #[test]
    fn gc_reclaims_files_unlinked_after_a_rename() {
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        let storage = Arc::new(SingleCloudStorage::new(cloud));
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        let mut config = ScfsConfig::test(Mode::Blocking);
        config.gc.written_bytes_threshold = Bytes::new(50_000);
        config.gc.versions_to_keep = 1;
        let mut fs = ScfsAgent::mount("alice".into(), config, storage, Some(coord), 5).unwrap();
        fs.write_file("/dir/doomed", &vec![1u8; 10_000]).unwrap();
        fs.rename("/dir", "/moved").unwrap();
        fs.unlink("/moved/doomed").unwrap();
        for _ in 0..10 {
            fs.write_file("/big", &vec![7u8; 10_000]).unwrap();
        }
        let stats = fs.stats();
        assert!(stats.gc_runs >= 1);
        assert_eq!(
            stats.gc_errors, 0,
            "the tombstone delete must target the renamed path"
        );
        assert!(matches!(
            fs.stat("/moved/doomed"),
            Err(ScfsError::NotFound { .. })
        ));
    }
}
