//! The version commit — what `close` and `sync` run — and the records of
//! the commits still in flight on a background lane.

use std::sync::Arc;

use cloud_store::error::StorageError;
use cloud_store::store::OpCtx;
use cloud_store::types::Permission;
use sim_core::background::Pending;
use sim_core::time::SimInstant;

use super::handles::{Faulting, OpenFile};
use super::versions::VersionRecord;
use super::ScfsAgent;
use crate::cache::WriteMode;
use crate::chunkstore::BlobName;
use crate::durability::DurabilityLevel;
use crate::error::ScfsError;
use crate::transfer::TransferOptions;
use crate::types::{manifest_rides_inline, ChunkMap, FileHandle, FileMetadata};

/// Maximum number of background version commits (non-blocking closes) in
/// flight at once. A `close` that would exceed the bound blocks until the
/// earliest pending upload completes — explicit backpressure instead of an
/// unbounded implicit queue (counted in
/// [`super::AgentStats::backpressure_stalls`]).
const MAX_PENDING_UPLOADS: usize = 64;

impl ScfsAgent {
    /// Drops the records of background uploads that have completed by now.
    fn reap_completed_uploads(&mut self) {
        let now = self.clock.now();
        self.pending_uploads.retain(|_, p| p.ready_at() > now);
    }

    /// The in-flight upload of `path`, if any.
    pub(super) fn pending_by_path(&self, path: &str) -> Option<&Pending<FileMetadata>> {
        let now = self.clock.now();
        self.pending_uploads
            .values()
            .find(|p| p.value().path == path && p.ready_at() > now)
    }

    /// This agent's freshest view of `path`: `md`, unless an in-flight
    /// background commit of the object carries a newer version — the
    /// read-your-writes rule that bridges the metadata cache's expiry while
    /// the commit instant is still in the foreground's future.
    pub(super) fn with_pending_commit(&self, path: &str, md: FileMetadata) -> FileMetadata {
        match self.pending_by_path(path) {
            Some(pending) if pending.value().version_count > md.version_count => {
                pending.value().clone()
            }
            _ => md,
        }
    }

    /// Waits for, and retires, the in-flight uploads `concerned` selects by
    /// storage id and record: a per-object wait, never a global drain.
    pub(super) fn wait_pending_uploads(
        &mut self,
        concerned: impl Fn(&str, &Pending<FileMetadata>) -> bool,
    ) {
        let mut ready = self.clock.now();
        self.pending_uploads.retain(|id, pending| {
            let waited = concerned(id, pending);
            if waited {
                ready = ready.max(pending.ready_at());
            }
            !waited
        });
        self.clock.advance_to(ready);
    }

    /// Close backpressure: blocks until fewer than [`MAX_PENDING_UPLOADS`]
    /// background commits are in flight, waiting on the earliest completion
    /// token.
    fn apply_close_backpressure(&mut self) {
        self.reap_completed_uploads();
        while self.pending_uploads.len() >= MAX_PENDING_UPLOADS {
            let Some(earliest) = self.pending_uploads.values().map(|p| p.ready_at()).min() else {
                break;
            };
            self.stats.backpressure_stalls += 1;
            self.clock.advance_to(earliest);
            self.reap_completed_uploads();
        }
    }

    /// The commit (Figure 4, close path), on whichever clock `self.clock`
    /// currently is: `store` puts the new version of `metadata`'s object in
    /// the storage service and its hash in the consistency anchor
    /// ([`ScfsAgent::store_and_anchor`]), then — when `unlock` is set — the
    /// write lock is released. Returns the committed metadata and the
    /// instant the anchor update returned: where a waiting close returns.
    ///
    /// A failed commit still releases the lock: the caller has dropped the
    /// handle and can retry nothing, so holding on would lock every other
    /// writer out for a full lease over an error the caller was told about.
    /// The release is never the commit's error: it lands after the close
    /// returned, and the lease covers one that fails.
    fn commit(
        &mut self,
        metadata: FileMetadata,
        store: impl FnOnce(&mut Self, FileMetadata) -> Result<FileMetadata, ScfsError>,
        unlock: bool,
    ) -> (Result<FileMetadata, ScfsError>, SimInstant) {
        let lock_id = metadata.storage_id.clone();
        let committed = store(self, metadata);
        let anchored = self.clock.now();
        if unlock {
            self.release_lock(&lock_id);
        }
        (committed, anchored)
    }

    /// Releases this session's write lock on `id`, best effort, on
    /// whichever clock `self.clock` currently is.
    fn release_lock(&mut self, id: &str) {
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        self.metadata.unlock(&mut ctx, id).ok();
    }

    /// Records that a release of the lock on `id`, which this agent did not
    /// wait for, lands at `at`, and forgets the releases that have landed.
    fn release_in_flight(&mut self, id: String, at: SimInstant) {
        let now = self.clock.now();
        self.releases_in_flight.retain(|_, landed| *landed > now);
        if at > now {
            self.releases_in_flight.insert(id, at);
        }
    }

    /// Steps w2 and w3 of the consistency-anchor write (Figure 3): the
    /// buffer `data`, laid out by `map`, goes up as the new version of
    /// `metadata`'s object (`prev` is the map the handle opened), and its
    /// hash into the anchor by a `cas` on the tuple the handle read. A failed
    /// one names nothing, so it releases the version.
    fn store_and_anchor(
        &mut self,
        metadata: FileMetadata,
        data: &[u8],
        map: &ChunkMap,
        prev: Option<&ChunkMap>,
    ) -> Result<FileMetadata, ScfsError> {
        // A freshly written manifest object must carry the file ACL so that
        // every user the file is shared with — including its owner, when the
        // writer is a grantee — can read the new version. The backend tags
        // exactly that object, if this write stores one; a manifest that
        // rides in the tuple is admitted by the tuple's own ACL.
        let cloud_acl = |md: &FileMetadata| {
            (md.is_shared() || md.owner != self.user).then(|| {
                let mut acl = md.acl.clone();
                acl.grant(md.owner.clone(), Permission::Write);
                acl.grant(self.user.clone(), Permission::Write);
                acl
            })
        };
        let (id, acl) = (metadata.storage_id.clone(), cloud_acl(&metadata));
        let opts = TransferOptions::default();
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        let (is_new, tag) = (metadata.version_hash.is_none(), acl.as_ref());
        let outcome = self
            .storage
            .write_version(&mut ctx, &id, data, map, prev, is_new, tag, &opts)?;
        self.stats.cloud_uploads += 1;
        self.stats.chunk_uploads += outcome.chunks_uploaded;
        self.stats.bytes_uploaded += outcome.bytes_uploaded;
        self.stats.transfer_waves += outcome.waves;
        self.stats.dedup_hits_cross_file += outcome.dedup_cross_file;
        let now = ctx.clock.now();
        let own = |md: &mut FileMetadata| md.commit_version(map, now);
        let committed = self.metadata.write(&mut ctx, metadata, own);
        let metadata = committed.inspect_err(|_| self.storage.release_unanchored(&id, prev))?;
        // A refused write may have re-read a grant: tag with the ACL written.
        if let Some(written) = cloud_acl(&metadata).filter(|w| tag != Some(w)) {
            self.storage.set_acl(&mut ctx, &id, &written)?;
        }
        // Anchored: the version this one replaced is no longer live here.
        if let Some(root) = metadata.version_hash {
            let record = VersionRecord::new(metadata.version_count, root, map);
            self.move_record(&id, Some(record));
        }
        Ok(metadata)
    }

    /// [`ScfsAgent::store_and_anchor`] of `file`'s buffer, laid out by
    /// `map`. The upload skips the handle's holes when the store holds their
    /// chunks — but a backend instance knows only the chunks it saw stored:
    /// a version another process committed may name chunks this instance
    /// would have to upload, and it refuses to upload a hole (an integrity
    /// violation naming the chunk, before any PUT). The handle then faults
    /// in every hole it still has and stores once more, so the upload has
    /// the real bytes.
    fn store_buffer(
        &mut self,
        metadata: FileMetadata,
        file: &mut OpenFile,
        map: &ChunkMap,
    ) -> Result<FileMetadata, ScfsError> {
        let holes = file.holes();
        let Some(prev) = file.chunk_map.as_ref().filter(|_| !holes.is_empty()) else {
            return self.store_and_anchor(metadata, file.flat(), map, file.chunk_map.as_ref());
        };
        let refused = |key: &str| {
            let id = &metadata.storage_id;
            let mut names = holes.iter().map(|&i| BlobName::chunk(id, prev.chunks()[i]));
            names.any(|name| name.key() == key)
        };
        match self.store_and_anchor(metadata.clone(), file.flat(), map, Some(prev)) {
            Err(ScfsError::Storage(StorageError::IntegrityViolation { key })) if refused(&key) => {
                self.fault_in(file, &holes)?;
                self.store_and_anchor(metadata, file.flat(), map, file.chunk_map.as_ref())
            }
            stored => stored,
        }
    }

    /// Runs [`ScfsAgent::commit`] on the object's lane — commits of the same
    /// object serialize, different objects overlap — and settles it the way
    /// the caller's mode prescribes.
    /// `wait` (a blocking close, any `sync`): the foreground waits for the
    /// anchor update — not for the lock release behind it, which the job
    /// still sends and a write-open of the object waits for. Otherwise the
    /// call returns now and everyone else waits on this object's token; at
    /// most [`MAX_PENDING_UPLOADS`] such commits are in flight, the call
    /// stalling on the earliest one. This client's own view needs no
    /// separate update: the job's metadata update has already refreshed the
    /// local caches.
    fn run_commit(
        &mut self,
        metadata: FileMetadata,
        store: impl FnOnce(&mut Self, FileMetadata) -> Result<FileMetadata, ScfsError>,
        unlock: bool,
        wait: bool,
    ) -> Result<FileMetadata, ScfsError> {
        if !wait {
            self.apply_close_backpressure();
        }
        let lane = metadata.storage_id.clone();
        let start = self.clock.now();
        let token = self.on_lane(start, &lane, |agent| agent.commit(metadata, store, unlock));
        let (started_at, ready_at) = (token.started_at(), token.ready_at());
        let (committed, anchored) = token.into_inner();
        if wait {
            self.clock.advance_to(anchored);
            self.release_in_flight(lane, ready_at);
            return committed;
        }
        let committed = committed?;
        // A second commit of the same object supersedes the earlier record:
        // the lane already ordered the commits, and the later token covers
        // the earlier one.
        self.pending_uploads
            .insert(lane, Pending::new(committed.clone(), started_at, ready_at));
        Ok(committed)
    }

    /// Spills the chunks `file` holds of `map`, the map of its buffer, to
    /// the disk cache — and, under [`WriteMode::Through`], the memory cache
    /// — behind the caller, and returns the instant the spill lands: from
    /// then on every chunk of the version the handle holds is on the local
    /// disk (durability level 1: the data survives a client restart even
    /// before the cloud upload commits). A hole is skipped: the handle never
    /// had its bytes, and the cloud already stores them. A chunk key is a
    /// content address, so a chunk the disk already holds under its hash is
    /// those very bytes: it is refreshed in the disk's recency, neither
    /// copied nor written, and a spill writes only the chunks the edit made
    /// (plus any clean chunk the handle faulted into memory only).
    pub(super) fn spill_chunks(
        &mut self,
        file: &OpenFile,
        map: &ChunkMap,
        mode: WriteMode,
    ) -> SimInstant {
        let mut landed = self.clock.now();
        for (index, chunk_hash) in map.chunks().iter().enumerate() {
            let range = map.byte_range(index);
            let key = Self::chunk_cache_key(chunk_hash);
            if file.is_hole(&range) || self.cache.probe_disk(&key) {
                continue;
            }
            let chunk: Arc<[u8]> = Arc::from(&file.flat()[range]);
            landed = self
                .cache
                .put_after(&mut self.clock, landed, &key, chunk, mode);
        }
        landed
    }

    /// The chunk map of `file`'s buffer — given to the handle here if it has
    /// none yet: the newest map the handle has, re-cut and re-hashed over
    /// the dirty extent only — faulting in the holes the cut runs into.
    pub(super) fn cut_buffer(&mut self, file: &mut OpenFile) -> Result<ChunkMap, ScfsError> {
        file.materialize(0);
        let prev = file.staged.clone().or_else(|| file.chunk_map.clone());
        let dirty = file.dirty.clone().unwrap_or(0..0);
        let rule = self.config.chunking;
        let mut source = Faulting { agent: self, file };
        let (map, rehashed) = ChunkMap::rebuild_from(prev.as_ref(), &mut source, dirty, rule)?;
        self.stats.rehashed_bytes += rehashed;
        Ok(map)
    }

    /// Commits `file`'s buffer as the new version of its object. The buffer
    /// is chunked — the version's root hash, the one hash the anchor stores,
    /// follows from the map alone, before any cloud access — and the chunks
    /// the handle holds are spilled to both cache levels (its holes are in
    /// the cloud already); the manifest goes with it unless the metadata tuple
    /// will carry that ([`manifest_rides_inline`]: a cache entry nobody
    /// looks up would only displace a chunk). The spill is written behind.
    /// A close that returns at level 1 (non-blocking, non-sharing) waits for
    /// it to land and starts the upload from there, so its data reaches the
    /// local disk first. A waiting commit (a blocking close, `sync`) starts
    /// the upload at the spill's own instant, so the two overlap and the
    /// data may reach the cloud before the local disk; it returns at the
    /// later of the anchor update and the spill landing. The version
    /// records keep the checkpoints the handle's cuts took of the chunks
    /// they now name. Returns the version's map and the committed metadata.
    fn commit_buffer(
        &mut self,
        file: &mut OpenFile,
        unlock: bool,
        wait: bool,
    ) -> Result<(ChunkMap, FileMetadata), ScfsError> {
        let map = self.cut_buffer(file)?;
        let mut spilled = self.spill_chunks(file, &map, WriteMode::Through);
        let manifest = map.encode();
        if !manifest_rides_inline(&manifest) {
            let root = scfs_crypto::sha256(&manifest);
            spilled = self.cache.put_after(
                &mut self.clock,
                spilled,
                &Self::manifest_cache_key(&root),
                manifest.into(),
                WriteMode::Through,
            );
        }
        self.written_since_gc += file.len() as u64;
        if !wait {
            // Level 1 first: the upload starts where the spill lands.
            self.clock.advance_to(spilled);
        }
        let metadata = file.metadata.clone();
        let store = |agent: &mut Self, metadata| agent.store_buffer(metadata, file, &map);
        let committed = self.run_commit(metadata, store, unlock, wait);
        self.clock.advance_to(spilled);
        let committed = committed?;
        self.versions.adopt(std::mem::take(&mut file.checkpoints));
        self.maybe_run_gc();
        Ok((map, committed))
    }

    pub(super) fn close_file(&mut self, handle: FileHandle) -> Result<(), ScfsError> {
        self.charge_syscall();
        let mut file = self
            .open_files
            .remove(&handle)
            .ok_or(ScfsError::BadHandle { handle: handle.0 })?;
        if !file.is_dirty() || file.unlinked {
            // Nothing to synchronize — or nowhere to: this agent unlinked
            // the file, and a commit would bring the name back. Just release
            // the lock if we held it — on the object's lane, behind any
            // in-flight commit of it, and without waiting.
            if file.locked {
                let id = file.metadata.storage_id;
                let now = self.clock.now();
                let released = self.on_lane(now, &id, |agent| agent.release_lock(&id));
                self.release_in_flight(id, released.ready_at());
            }
            return Ok(());
        }
        // The buffer is the new version up to its holes, which the cut
        // leaves where the committed map has them and the upload skips —
        // unless the backend has no record of a hole's chunk, and the
        // commit faults the holes in after all (`store_buffer`).
        let (unlock, wait) = (file.locked, self.config.mode.blocking_close());
        // A refused commit returns as the close of a file this agent unlinked.
        match self.commit_buffer(&mut file, unlock, wait) {
            Err(e) if !matches!(e, ScfsError::NotFound { .. }) => Err(e),
            _ => Ok(()),
        }
    }

    /// The `sync` path on one open file: promote its current contents to
    /// cloud durability (see [`crate::durability`]). A dirty handle is
    /// committed like a close that waits — but the handle stays open and
    /// keeps its lock; a clean handle, one that only created its file too
    /// (its tuple describes the empty file), waits on the object's
    /// in-flight token, if any.
    pub(super) fn sync_open(&mut self, file: &mut OpenFile) -> Result<DurabilityLevel, ScfsError> {
        if file.unlinked {
            // Nothing of an unlinked file outlives its handle's buffer.
            return Ok(DurabilityLevel::MainMemory);
        }
        if file.is_dirty() {
            // The lane orders this commit behind any in-flight upload of the
            // same object; the new token supersedes the pending record.
            self.pending_uploads.remove(&file.metadata.storage_id);
            let (map, metadata) = self.commit_buffer(file, false, true)?;
            file.metadata = metadata;
            file.rebase(map);
            file.staged = None;
            file.dirty = None;
        } else {
            self.wait_pending_uploads(|id, _| id == file.metadata.storage_id);
        }
        Ok(self.storage.cloud_durability())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{edited, four_chunks, test_agent, wan_agent};
    use super::*;
    use crate::backend::FileStorage;
    use crate::backend::SingleCloudStorage;
    use crate::config::{Mode, ScfsConfig};
    use crate::fs::FileSystem;
    use crate::types::{CutRule, OpenFlags};
    use cloud_store::sim_cloud::SimulatedCloud;
    use coord::replication::ReplicatedCoordinator;
    use coord::service::CoordinationService;
    use sim_core::time::SimDuration;
    use sim_core::units::Bytes;
    use std::sync::Arc;

    #[test]
    fn consistency_on_close_second_client_sees_update() {
        // Two agents for two users sharing one cloud + coordination service.
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        let storage = Arc::new(SingleCloudStorage::new(cloud));
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        let mut alice = ScfsAgent::mount(
            "alice".into(),
            ScfsConfig::test(Mode::Blocking),
            storage.clone(),
            Some(coord.clone()),
            1,
        )
        .unwrap();
        let mut bob = ScfsAgent::mount(
            "bob".into(),
            ScfsConfig::test(Mode::Blocking),
            storage,
            Some(coord),
            2,
        )
        .unwrap();

        alice.write_file("/shared/doc", b"v1 from alice").unwrap();
        alice
            .setfacl("/shared/doc", &"bob".into(), Permission::Write)
            .unwrap();
        // Bob opens after Alice's close: he must observe the latest version.
        bob.sleep(SimDuration::from_secs(1));
        assert_eq!(bob.read_file("/shared/doc").unwrap(), b"v1 from alice");
    }

    #[test]
    fn non_blocking_close_is_fast_but_eventually_durable() {
        let mut fs = test_agent(Mode::NonBlocking);
        let start = fs.now();
        fs.write_file("/f", &vec![1u8; 100_000]).unwrap();
        let foreground = fs.now().duration_since(start);
        // The upload still happened (on the background timeline).
        assert_eq!(fs.stats().cloud_uploads, 1);
        assert!(fs.background_drain_instant() >= fs.now());
        // And the file remains readable by this client.
        assert_eq!(fs.read_file("/f").unwrap().len(), 100_000);
        // Foreground latency must not include a cloud round trip: with the
        // instantaneous test cloud this is just local work.
        assert!(foreground < SimDuration::from_secs(1));
    }

    #[test]
    fn cdc_agent_round_trips_and_reuses_shifted_chunks() {
        // The whole data path — transfer engine, chunk store, caches, lazy
        // reads — must work unchanged over content-defined maps.
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        let storage = Arc::new(SingleCloudStorage::new(cloud));
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        let mut config = ScfsConfig::test(Mode::Blocking);
        config.chunking = CutRule::Fixed(4096);
        let mut fs =
            ScfsAgent::mount("alice".into(), config.with_cdc(), storage, Some(coord), 7).unwrap();
        let mut rng = sim_core::rng::DetRng::new(17);
        let data = rng.bytes(256 * 1024);
        fs.write_file("/f", &data).unwrap();
        assert_eq!(fs.read_file("/f").unwrap(), data);
        let chunks_before = fs.stats().chunk_uploads;

        // Insert 100 bytes near the front: the shifted tail must re-align,
        // so only a handful of chunks move — not the ~60 chunks after the
        // edit point.
        let h = fs.open("/f", OpenFlags::read_write()).unwrap();
        let mut edited = data.clone();
        edited.splice(10_000..10_000, rng.bytes(100));
        fs.write(h, 10_000, &edited[10_000..]).unwrap();
        fs.close(h).unwrap();
        let moved = fs.stats().chunk_uploads - chunks_before;
        assert!(
            moved <= 8,
            "a 100-byte insert moved {moved} chunks under CDC"
        );
        assert_eq!(fs.read_file("/f").unwrap(), edited);
    }

    #[test]
    fn sync_waits_only_on_the_objects_token_and_reports_cloud_level() {
        let mut fs = wan_agent(ScfsConfig::test(Mode::NonBlocking));
        fs.write_file("/f", &vec![1u8; 300_000]).unwrap();
        let token = fs
            .upload_token("/f")
            .expect("upload pending after NB close");
        assert!(token.ready_at() > fs.now(), "commit is in the future");
        let h = fs.open("/f", OpenFlags::read_only()).unwrap();
        let level = fs.sync(h).unwrap();
        assert_eq!(level, DurabilityLevel::SingleCloud);
        assert!(fs.now() >= token.ready_at(), "sync waited for the commit");
        assert!(fs.upload_token("/f").is_none(), "token retired");
        fs.close(h).unwrap();
    }

    #[test]
    fn sync_commits_a_dirty_handle_without_closing_it() {
        let mut fs = test_agent(Mode::Blocking);
        let h = fs.open("/f", OpenFlags::create()).unwrap();
        fs.write(h, 0, &vec![7u8; 10_000]).unwrap();
        let level = fs.sync(h).unwrap();
        assert_eq!(level, DurabilityLevel::SingleCloud);
        assert_eq!(fs.stats().cloud_uploads, 1);
        // The handle stays open and writable; close commits only the delta.
        fs.write(h, 0, &vec![8u8; 10_000]).unwrap();
        fs.close(h).unwrap();
        assert_eq!(fs.stats().cloud_uploads, 2);
        assert_eq!(fs.read_file("/f").unwrap(), vec![8u8; 10_000]);
        let md = fs.stat("/f").unwrap();
        assert_eq!(md.version_count, 2);
    }

    /// The copy is a read of the source and a write of the destination, as
    /// through FUSE: the destination stores its own chunks, and keeps its
    /// bytes across the source's next version and the source's unlink and
    /// collection, read back cold by another mount.
    #[test]
    fn a_copy_uploads_its_own_four_chunks_and_outlives_its_source() {
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        let mount = |seed| {
            let storage = Arc::new(SingleCloudStorage::new(cloud.clone()));
            let mut config = ScfsConfig::test(Mode::Blocking);
            config.gc.written_bytes_threshold = Bytes::new(1);
            config.gc.versions_to_keep = 1;
            ScfsAgent::mount("alice".into(), config, storage, Some(coord.clone()), seed).unwrap()
        };
        let mut fs = mount(1);
        let data = four_chunks();
        fs.write_file("/src", &data).unwrap();
        let before = fs.stats();
        fs.copy_file("/src", "/dst").unwrap();
        let after = fs.stats();
        assert_eq!(
            after.chunk_uploads,
            before.chunk_uploads + 4,
            "its own four"
        );
        assert_eq!(
            after.chunk_downloads, before.chunk_downloads,
            "read from the cache"
        );
        assert_eq!(after.dedup_hits_cross_file, 0);
        assert_eq!(fs.stat("/dst").unwrap().size, data.len() as u64);

        let (v2, offset) = edited(data.clone(), 1);
        let h = fs.open("/src", OpenFlags::read_write()).unwrap();
        fs.write(h, offset, b"edit").unwrap();
        fs.close(h).unwrap();
        assert_eq!(fs.read_file("/dst").unwrap(), data);
        fs.unlink("/src").unwrap();
        fs.write_file("/trigger", b"x").unwrap();
        assert!(fs.stats().gc_runs >= 3);
        let mut cold = mount(2);
        cold.sleep(SimDuration::from_secs(60));
        assert_eq!(cold.read_file("/dst").unwrap(), data);
        assert_ne!(data, v2);
    }

    #[test]
    fn copy_file_never_re_reads_a_manifest_the_tuple_delivered() {
        // Two backend instances over one cloud — two processes of one
        // account. The second one's registry has never heard of `/src`; the
        // tuple carries its manifest, so the copy's read fetches the one
        // chunk and no manifest, and its write stores that chunk alone.
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        let mount = |seed| {
            let storage = Arc::new(SingleCloudStorage::new(cloud.clone()));
            let coord = Some(coord.clone());
            ScfsAgent::mount(
                "alice".into(),
                ScfsConfig::test(Mode::Blocking),
                storage,
                coord,
                seed,
            )
            .unwrap()
        };
        let data = vec![5u8; 50_000];
        mount(1).write_file("/src", &data).unwrap();
        let mut second = mount(2);
        second.sleep(SimDuration::from_secs(60));
        let before = cloud.metrics().snapshot();
        second.copy_file("/src", "/dst").unwrap();
        let after = cloud.metrics().snapshot();
        assert_eq!(after.gets, before.gets + 1, "the chunk, and no manifest");
        assert_eq!(
            after.puts,
            before.puts + 1,
            "the chunk: its manifest rides inline"
        );
        assert_eq!(second.stats().chunk_uploads, 1);
        assert_eq!(second.read_file("/dst").unwrap(), data);
        let (src, dst) = (second.stat("/src").unwrap(), second.stat("/dst").unwrap());
        assert_eq!(dst.version_hash, src.version_hash);
        assert_eq!(
            dst.inline_manifest().unwrap(),
            src.inline_manifest().unwrap()
        );
        assert!(dst.inline_manifest().unwrap().is_some());
    }

    #[test]
    fn copy_file_copies_the_committed_version_like_the_default_path() {
        let mut fs = test_agent(Mode::Blocking);
        fs.write_file("/src", &vec![3u8; 8_000]).unwrap();
        let h = fs.open("/src", OpenFlags::read_write()).unwrap();
        fs.write(h, 0, &vec![4u8; 8_000]).unwrap();
        // A dirty buffer behind another handle is invisible to a fresh open,
        // so the copy carries the committed version — exactly what the
        // materializing trait default does.
        fs.copy_file("/src", "/dst").unwrap();
        assert_eq!(fs.read_file("/dst").unwrap(), vec![3u8; 8_000]);
        fs.close(h).unwrap();
        assert_eq!(fs.read_file("/src").unwrap(), vec![4u8; 8_000]);
        // A file without any committed version goes through the fallback.
        let h2 = fs.open("/fresh", OpenFlags::create()).unwrap();
        fs.write(h2, 0, b"in-memory only").unwrap();
        fs.close(h2).unwrap();
        fs.copy_file("/fresh", "/fresh-copy").unwrap();
        assert_eq!(fs.read_file("/fresh-copy").unwrap(), b"in-memory only");
    }

    #[test]
    fn reopen_during_an_in_flight_commit_sees_the_new_inline_manifest() {
        let config = ScfsConfig::test(Mode::NonBlocking);
        let expiry = config.metadata_cache_expiry;
        let mut fs = wan_agent(config);
        fs.write_file("/f", &vec![1u8; 300_000]).unwrap();
        let drain = fs.background_drain_instant();
        fs.sleep(drain.duration_since(fs.now()) + SimDuration::from_secs(1));
        let v2 = vec![2u8; 400_000];
        fs.write_file("/f", &v2).unwrap();
        // Past the metadata cache's expiry, with the commit still in flight:
        // the coordination service serves version 1, and the pending
        // commit's tuple — new hash and new inline manifest together — is
        // this client's view.
        fs.sleep(expiry + SimDuration::from_millis(1));
        let token = fs.upload_token("/f").expect("commit still in flight");
        assert!(fs.now() < token.ready_at());
        let md = fs.stat("/f").unwrap();
        let map = fs.config().chunk_map(&v2);
        assert_eq!(md.version_count, 2);
        assert_eq!(md.version_hash, Some(map.root_hash()));
        assert_eq!(md.inline_manifest().unwrap(), Some(map));
        let downloads = fs.stats().cloud_downloads;
        assert_eq!(fs.read_file("/f").unwrap(), v2);
        assert_eq!(fs.stats().cloud_downloads, downloads);
        assert!(fs.now() < token.ready_at(), "the reopen did not wait");
    }

    #[test]
    fn the_inline_manifest_follows_the_file_across_the_size_bound() {
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        let storage: Arc<dyn FileStorage> = Arc::new(SingleCloudStorage::new(cloud.clone()));
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        let mut config = ScfsConfig::test(Mode::Blocking);
        config.chunking = CutRule::Fixed(4096);
        let mount = |seed| {
            let (storage, coord) = (storage.clone(), Some(coord.clone()));
            ScfsAgent::mount("alice".into(), config.clone(), storage, coord, seed).unwrap()
        };
        // Cloud GETs a cold mount's `open` issues, and whether the tuple it
        // read carried the manifest.
        let cold_open = |seed| {
            let mut reader = mount(seed);
            reader.sleep(SimDuration::from_secs(60));
            let before = cloud.metrics().snapshot().gets;
            let h = reader.open("/f", OpenFlags::read_only()).unwrap();
            let inline = reader.open_files[&h].metadata.inline_manifest();
            (
                cloud.metrics().snapshot().gets - before,
                inline.unwrap().is_some(),
            )
        };
        let mut writer = mount(1);
        // Two chunks: the manifest rides in the tuple, open fetches nothing.
        writer.write_file("/f", &vec![1u8; 8192]).unwrap();
        assert_eq!(cold_open(2), (0, true));
        // Thirteen chunks no longer fit: the tuple drops its inline copy and
        // a cold reader falls back to the cloud manifest, one GET.
        writer.write_file("/f", &vec![2u8; 13 * 4096]).unwrap();
        assert_eq!(cold_open(3), (1, false));
        // Shrinking back re-inlines it.
        writer.write_file("/f", &vec![3u8; 4096]).unwrap();
        assert_eq!(cold_open(4), (0, true));
    }

    /// Whether every chunk of `data`, cut as `fs` cuts it, is on `fs`'s
    /// disk tier.
    fn on_disk(fs: &ScfsAgent, data: &[u8]) -> bool {
        let map = fs.config().chunk_map(data);
        map.chunks().iter().all(|hash| {
            let key = ScfsAgent::chunk_cache_key(hash);
            fs.cache.disk().contains(&key)
        })
    }

    /// The least the local disk takes to write `chunks` chunks of 1 MiB, one
    /// after another: the request floor plus the transfer, each.
    fn min_spill(chunks: u64) -> SimDuration {
        let disk = sim_core::latency::LatencyProfile::local_disk();
        let one = SimDuration::from_millis_f64(0.5) + disk.upload.transfer_time(Bytes::mib(1));
        one.mul(chunks)
    }

    #[test]
    fn a_one_chunk_edit_spills_one_chunk_and_its_blocking_close_waits_on_no_disk() {
        // The same edit on two WAN agents, one of them without a disk tier.
        let edit = |disk: Bytes| {
            let config =
                ScfsConfig::test(Mode::Blocking).with_cache_capacities(Bytes::mib(512), disk);
            let mut fs = wan_agent(config);
            let data = four_chunks();
            fs.write_file("/f", &data).unwrap();
            let map = fs.config().chunk_map(&data);
            let keys: Vec<String> = map
                .chunks()
                .iter()
                .map(ScfsAgent::chunk_cache_key)
                .collect();
            let spilled: Vec<_> = keys
                .iter()
                .map(|k| fs.cache.disk().peek(k).cloned())
                .collect();
            let h = fs.open("/f", OpenFlags::read_write()).unwrap();
            let (data, offset) = edited(data, 2);
            fs.write(h, offset, b"edit").unwrap();
            let start = fs.now();
            fs.close(h).unwrap();
            let took = fs.now().duration_since(start);
            (fs, data, keys, spilled, took)
        };
        let (fs, data, keys, spilled, took) = edit(Bytes::gib(16));
        // The chunks the edit left alone are the very allocations the first
        // close spilled: only the new chunk was written.
        for i in [0, 1, 3] {
            let now = fs.cache.disk().peek(&keys[i]).expect("still on disk");
            let then = spilled[i].as_ref().expect("spilled by the first close");
            assert!(Arc::ptr_eq(now, then), "chunk {i} was rewritten");
        }
        assert!(on_disk(&fs, &data), "the new version is on the local disk");
        // Upload plus anchor update, and no disk term: no slower than the
        // same close on an agent whose disk holds nothing.
        let (_, _, _, _, without_disk) = edit(Bytes::ZERO);
        assert!(
            took <= without_disk,
            "the close waited on the disk: {took} vs {without_disk} without one"
        );
    }

    #[test]
    fn fsync_and_every_close_that_returns_early_wait_for_their_spill() {
        // Second mounts of the account edit files they have never read: the
        // write faults in the one chunk it lands in, into memory only, and
        // the other three stay holes.
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        let mount = |mode, seed| {
            let storage = Arc::new(SingleCloudStorage::new(cloud.clone()));
            let (config, coord) = (ScfsConfig::test(mode), Some(coord.clone()));
            ScfsAgent::mount("alice".into(), config, storage, coord, seed).unwrap()
        };
        let mut writer = mount(Mode::Blocking, 1);
        writer.write_file("/fsync", &four_chunks()).unwrap();
        writer.write_file("/nb", &four_chunks()).unwrap();
        let old = writer.config().chunk_map(&four_chunks());
        for (path, mode, seed) in [("/fsync", Mode::Blocking, 2), ("/nb", Mode::NonBlocking, 3)] {
            let mut fs = mount(mode, seed);
            fs.sleep(SimDuration::from_secs(60));
            let h = fs.open(path, OpenFlags::read_write()).unwrap();
            let (data, offset) = edited(four_chunks(), 3);
            fs.write(h, offset, b"edit").unwrap();
            assert_eq!(fs.stats().chunk_downloads, 1, "{path}: one chunk fetched");
            let faulted = ScfsAgent::chunk_cache_key(&old.chunks()[3]);
            assert!(fs.cache.memory().contains(&faulted));
            assert!(
                !fs.cache.disk().contains(&faulted),
                "fetched into memory only"
            );
            let start = fs.now();
            if mode == Mode::Blocking {
                fs.fsync(h).unwrap();
            } else {
                fs.close(h).unwrap();
            }
            // The new chunk lands; the holes are not spilled.
            let took = fs.now().duration_since(start);
            assert!(
                took >= min_spill(1),
                "{path}: returned {took} after the call"
            );
            let new = fs.config().chunk_map(&data);
            let on_disk = |i: usize| {
                let hash = &new.chunks()[i];
                fs.cache.disk().contains(&ScfsAgent::chunk_cache_key(hash))
            };
            assert!(
                on_disk(3),
                "{path}: the edited chunk is not on the local disk"
            );
            assert!((0..3).all(|i| !on_disk(i)), "{path}: a hole was spilled");
            assert_eq!(
                fs.stats().chunk_downloads,
                1,
                "{path}: the commit fetched nothing"
            );
            if mode == Mode::Blocking {
                fs.close(h).unwrap();
            }
            assert_eq!(fs.read_file(path).unwrap(), data);
        }

        // A non-sharing close: a new file spills four chunks, a one-chunk
        // edit of it spills one.
        let storage = Arc::new(SingleCloudStorage::new(cloud.clone()));
        let config = ScfsConfig::test(Mode::NonSharing);
        let mut fs = ScfsAgent::mount("carol".into(), config, storage, None, 4).unwrap();
        let start = fs.now();
        fs.write_file("/ns", &four_chunks()).unwrap();
        assert!(fs.now().duration_since(start) >= min_spill(4));
        assert!(on_disk(&fs, &four_chunks()));
        let h = fs.open("/ns", OpenFlags::read_write()).unwrap();
        let (data, offset) = edited(four_chunks(), 1);
        fs.write(h, offset, b"edit").unwrap();
        let start = fs.now();
        fs.close(h).unwrap();
        assert!(fs.now().duration_since(start) >= min_spill(1));
        assert!(on_disk(&fs, &data));
    }

    #[test]
    fn close_backpressure_bounds_the_pending_upload_queue() {
        let mut fs = wan_agent(ScfsConfig::test(Mode::NonBlocking));
        for i in 0..MAX_PENDING_UPLOADS {
            fs.write_file(&format!("/f{i}"), &[i as u8; 1000]).unwrap();
        }
        assert_eq!(fs.pending_uploads.len(), MAX_PENDING_UPLOADS);
        assert_eq!(fs.stats().backpressure_stalls, 0);
        fs.write_file("/one-more", &[0xFF; 1000]).unwrap();
        assert!(
            fs.stats().backpressure_stalls >= 1,
            "the 65th close must stall behind the 64 pending uploads"
        );
        assert!(fs.pending_uploads.len() <= MAX_PENDING_UPLOADS);
    }
}
